"""Tilings, k-Fibonacci counts, weighted sums, and scheme validation."""

import contextlib
import hashlib
import io
import json
import random
import tracemalloc

import pytest
from modular import PRIME, board_dp, eval_mod

from qfib import _kernels_py, cli, qpacked, tiling
from qfib.errors import CapacityError, DomainError, InvalidShiftError
from qfib.layered import builtin_scheme
from qfib.polyring import Poly
from qfib.tiling import (
    AppendSpec,
    Tiling,
    WeightScheme,
    corrupted_scheme,
    enumerate_tilings,
    fibonacci_k,
    random_scheme,
    tiling_weight,
    validate_weight_scheme,
    weighted_sum_enumerative,
    weighted_sum_recursive,
)


def test_fibonacci_base_cases():
    assert fibonacci_k(0, 3) == 1
    assert fibonacci_k(-2, 4) == 0
    # unfolding the recursion by hand: F^2 = 1,1,2,3,5; F^3 = 1,1,2,4,7
    assert fibonacci_k(4, 2) == 5
    assert fibonacci_k(4, 3) == 7
    assert [fibonacci_k(n, 1) for n in range(6)] == [1] * 6


def test_fibonacci_rejects_bad_k():
    with pytest.raises(DomainError):
        fibonacci_k(5, 0)


def test_enumerate_tilings_listing():
    assert [t.parts for t in enumerate_tilings(3, 2)] == [(1, 1, 1), (1, 2), (2, 1)]
    assert [t.parts for t in enumerate_tilings(0, 5)] == [()]
    assert list(enumerate_tilings(-1, 3)) == []
    assert sum(1 for _ in enumerate_tilings(4, 3)) == 7


def test_enumerate_tilings_long_board():
    # iterative: no recursion-depth cliff on a 1200-cell board
    (only,) = enumerate_tilings(1200, 1)
    assert only.parts == (1,) * 1200


def test_counts_match_fibonacci():
    for n in range(-3, 19):
        for k in range(1, 6):
            assert sum(1 for _ in enumerate_tilings(n, k)) == fibonacci_k(n, k)


def test_tiling_refuses_parts_that_are_not_ints():
    for parts in ([True, 2], [1, False], [1.0], [0], [-1, 2]):
        with pytest.raises(DomainError):
            Tiling(parts)
    assert Tiling([1, 2]).parts == (1, 2)


def test_tiling_positions():
    t = Tiling((1, 2, 1))
    assert list(t.tiles()) == [(1, 1, 3), (2, 2, 1), (1, 4, 0)]
    assert all(sigma - 1 + i + tau == t.n for i, sigma, tau in t.tiles())


def test_tiling_weight_examples():
    inv_lp = builtin_scheme("inv-lp", 2)
    assert tiling_weight(Tiling((1, 2)), inv_lp) == Poly.parse("z1*z2*q^2", 2)
    assert tiling_weight(Tiling(()), inv_lp) == Poly.one(2)
    maj_rlp = builtin_scheme("maj-rlp", 2)
    assert tiling_weight(Tiling((2,)), maj_rlp, (3, 0)) == Poly.parse("z2*q^4", 2)


def test_tiling_weight_rejects_oversized_tile():
    with pytest.raises(DomainError):
        tiling_weight(Tiling((3,)), builtin_scheme("inv-lp", 2))


def test_weighted_sum_examples():
    maj_lp = builtin_scheme("maj-lp", 2)
    assert weighted_sum_enumerative(3, 2, maj_lp) == Poly.parse(
        "z1^3*q^3 + z1*z2*q + z1*z2*q^2", 2
    )
    assert weighted_sum_enumerative(0, 4, builtin_scheme("inv-rlp", 4)) == Poly.one(4)
    assert weighted_sum_enumerative(-2, 2, maj_lp) == Poly.zero(2)
    inv_rlp = builtin_scheme("inv-rlp", 2)
    assert weighted_sum_recursive(5, 2, inv_rlp).evaluate((1, 1), 1) == 8


def test_weighted_sum_single_cell():
    for pair in ("inv-lp", "maj-rlp"):
        w = builtin_scheme(pair, 3)
        expected = Poly.monomial(3, 1, (1, 0, 0), w.a(1))
        assert weighted_sum_recursive(1, 3, w) == expected


def _spy(monkeypatch, module, name):
    """Record the calls of module.name in the list returned."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_recursive_equals_enumerative(monkeypatch):
    # each window forced on every board, over built-in, random and incoherent
    # schemes: the packed one decodes every board that runs the window, the
    # Poly one none; boards with one q per z-monomial take the closed form
    unpacks = _spy(monkeypatch, qpacked, "q_unpack")
    windows = _spy(monkeypatch, tiling, "_first_tile_sums")
    pairs = ("inv-lp", "inv-rlp", "inv-prlp", "maj-lp", "maj-rlp", "maj-prlp", "rb-lpi")
    for slots_per_term, decodes in ((10**9, True), (0, False)):
        monkeypatch.setattr(qpacked, "_SLOTS_PER_TERM", slots_per_term)
        unpacks.clear()
        windows.clear()
        boards = 0
        for k in range(1, 5):
            schemes = [builtin_scheme(p, k) for p in pairs]
            schemes += [random_scheme(k, seed) for seed in (7, 8, 9)]
            schemes += [corrupted_scheme(k, seed) for seed in (1, 2)]
            for w in schemes:
                for n in range(-1, 13):
                    for app in (AppendSpec(), AppendSpec(2, 0), AppendSpec(0, 3), AppendSpec(1, 1)):
                        assert weighted_sum_enumerative(n, k, w, app) == weighted_sum_recursive(
                            n, k, w, app
                        ), (w.name, k, n, app, slots_per_term)
                        if n >= 0:
                            deltas = tiling._tile_deltas(n, k, w, app)[0]
                            boards += not qpacked.one_q_per_z(deltas)
        assert len(windows) == boards >= 1000
        assert len(unpacks) == (boards if decodes else 0)


def test_recursive_degree_bounds_are_exact(monkeypatch):
    # both windows' results read their bounds off their terms, and the
    # closed form's carry the bounds of its tile rows; all must equal a
    # fresh scan of the terms
    for slots_per_term in (10**9, 0):
        monkeypatch.setattr(qpacked, "_SLOTS_PER_TERM", slots_per_term)
        for k in range(1, 5):
            schemes = [builtin_scheme("maj-rlp", k), builtin_scheme("inv-prlp", k)]
            schemes += [random_scheme(k, 7), corrupted_scheme(k, 1)]
            for w in schemes:
                for n in range(-1, 11):
                    for app in (AppendSpec(), AppendSpec(2, 1)):
                        p = weighted_sum_recursive(n, k, w, app)
                        assert p.degree_bounds == Poly(p.k, p._terms).degree_bounds, (
                            w.name, k, n, app, slots_per_term
                        )


def test_recursive_equals_enumerative_on_q_sparse_schemes(monkeypatch):
    # B and C in the hundreds of thousands spread q over millions of
    # exponents: the window runs on Poly terms and never decodes (a board
    # with one tiling, n < 2 or k = 1, has span 0 and still packs)
    monkeypatch.setattr(qpacked, "q_unpack", None)
    rng = random.Random(5)
    for k in (2, 3, 4):
        tables = [[rng.randint(10**5, 9 * 10**5) for _ in range(k)] for _ in range(3)]
        w = WeightScheme.from_tables(k, *tables)
        for n in range(2, 9):
            app = AppendSpec(rng.randint(0, 3), rng.randint(0, 3))
            assert weighted_sum_enumerative(n, k, w, app) == weighted_sum_recursive(
                n, k, w, app
            ), (tables, n, app)
    # The capacity bound is the largest exponent of an actual tiling, not n
    # times the largest tile exponent: 3e9 on 2-tiles reaches 3e9 on a 3-board.
    long_tiles = WeightScheme.from_tables(2, (0, 3 * 10**9), (0, 0), (0, 0))
    assert weighted_sum_enumerative(3, 2, long_tiles) == weighted_sum_recursive(
        3, 2, long_tiles
    )


def test_sum_equals_naive_per_tiling_sum():
    # the kernel splits each tiling at its middle cell; cross-check against
    # the definition as a sum of tiling_weight values, over the split's edge
    # cases (n = 1, n = 2, n < k), a corrupted scheme (whose declared shifts
    # the kernel must not rely on), and appends on every scheme
    app = AppendSpec(1, 2)
    for k in range(1, 6):
        schemes = (builtin_scheme("maj-rlp", k), random_scheme(k, 42), corrupted_scheme(k, 3))
        for w in schemes:
            for n in range(0, 13):
                naive = Poly.zero(k)
                for t in enumerate_tilings(n, k):
                    naive = naive + tiling_weight(t, w, app)
                p = weighted_sum_enumerative(n, k, w, app)
                assert p == naive, (w, n)
                # one key per tiling: the coefficients count every tiling once
                assert p.evaluate((1,) * k, 1) == fibonacci_k(n, k), (w, n)
                # the bounds passed in without a re-scan are the exact ones
                assert p.degree_bounds == naive.degree_bounds, (w, n)


def test_enumeration_kernel_memory_is_bounded():
    # the middle-cell split holds half-board key lists, not one list per
    # board position: maj-rlp k=4 n=20 (283,953 tilings) peaks near 0.6 MB,
    # where per-position lists peak near 28 MB
    n, k = 20, 4
    deltas, _, _ = tiling._tile_deltas(n, k, builtin_scheme("maj-rlp", k), AppendSpec())
    tracemalloc.start()
    try:
        terms = _kernels_py.sum_tilings_terms(n, k, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(terms.values()) == fibonacci_k(n, k) == 283_953
    assert peak < 4 * 2**20, peak


def _traced_peak(fn):
    fn()  # compiled patterns and struct formats are cached before tracing
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_poly_readers_memory_is_bounded():
    # maj-rlp k=4 n=20: 4,562 terms, 110 kB of text.  Each reader peaks
    # within 64 kB of the result it holds (about 0.34 MB): one regex
    # repeated over the whole text held about 0.6 MB more, and so would a
    # list of every term's text.  The full text reader keeps nothing per
    # factor: one term of 100,000 factors (600 kB of text) peaks at about
    # 4 kB, where a reader holding state per factor (a backtracking regex
    # took 42 MB for 60,000) would grow with the term.
    k = 4
    p = weighted_sum_recursive(20, k, builtin_scheme("maj-rlp", k))
    text, data = p.format(), json.loads(json.dumps(p.to_json_dict()))
    for read in (lambda: Poly.parse(text, k), lambda: Poly.from_json_dict(data)):
        read()
        tracemalloc.start()
        try:
            result = read()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == p
        assert peak - held <= 64 * 1024, (peak, held)
    n = 25_000
    long_term = "-3 * " + " * ".join(["q^9", "z2^2", "z1", "z2^0"] * n)
    result, peak = _traced_peak(lambda: Poly.parse(long_term, 2))
    assert result == Poly.monomial(2, -3, (n, 2 * n), 9 * n)
    assert peak < 64 * 1024, peak


class _CharCounter(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)


def _cli_peak(argv):
    """Exit code, characters written and traced peak of one in-process
    cli.main call whose stdout holds nothing."""
    def call():
        out = _CharCounter()
        with contextlib.redirect_stdout(out):
            return cli.main(argv), out.chars
    return _traced_peak(call)


def test_poly_json_writer_memory_is_bounded():
    # maj-rlp k=4 n=20 as JSON: a dict and a z list per term, walked by
    # json.dumps, peaked near 4.7 MB; written as text, near 1.1 MB
    k = 4
    p = weighted_sum_recursive(20, k, builtin_scheme("maj-rlp", k))
    (code, chars), peak = _cli_peak(
        ["table", "--n", "20", "--k", "4", "--stat", "maj-rlp", "--format", "json"]
    )
    assert code == 0 and chars == len(json.dumps(p.to_json_dict())) + 1
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_streams_its_rows(fmt):
    # 32,768 tilings of a 16-board: rows collected before printing peaked
    # near 3.9 MB as text and 13.9 MB as JSON; streamed, under 0.01 MB
    n = k = 16
    rows = [",".join(map(str, t.parts)) for t in enumerate_tilings(n, k)]
    expected = (
        json.dumps([{"object": r} for r in rows]) + "\n"
        if fmt == "json"
        else "".join(r + "\n" for r in rows)
    )
    (code, chars), peak = _cli_peak(
        ["enumerate", "--n", str(n), "--k", str(k), "--object", "tilings", "--format", fmt]
    )
    assert code == 0 and chars == len(expected)
    assert peak < 2**20, peak


def test_specialization_to_counts():
    for k in range(1, 5):
        w = random_scheme(k, k)
        for n in range(0, 11):
            assert weighted_sum_enumerative(n, k, w).evaluate((1,) * k, 1) == fibonacci_k(n, k)


def test_append_shift_law():
    # appending an m-board in front equals the declared front substitution,
    # and symmetrically behind
    for w in (builtin_scheme("maj-rlp", 3), random_scheme(3, 5)):
        for n in range(0, 8):
            plain = weighted_sum_enumerative(n, 3, w)
            for m in range(0, 4):
                assert weighted_sum_enumerative(n, 3, w, (m, 0)) == plain.substitute_z_scale(
                    w.front_shift_exps(m)
                )
                assert weighted_sum_enumerative(n, 3, w, (0, m)) == plain.substitute_z_scale(
                    w.back_shift_exps(m)
                )


def test_enumerative_sum_refuses_packed_key_overflow():
    # both routes check the same tile exponents before any arithmetic
    q_cap, z_cap = (1 << 32) - 1, (1 << 16) - 1
    below = WeightScheme(2, lambda i: 0, lambda i: 0, lambda i: 0,
                         exponent=lambda i, sigma, tau: 1 - tau)
    for route in (weighted_sum_enumerative, weighted_sum_recursive):
        for a, n in (((q_cap + 1,), 1), (((q_cap + 1) // 2,), 2)):
            with pytest.raises(CapacityError):
                route(n, 1, WeightScheme.from_tables(1, a, (0,), (0,)))
        with pytest.raises(CapacityError):
            route(z_cap + 1, 1, builtin_scheme("maj-lp", 1))
        with pytest.raises(CapacityError):
            route(1, 1, WeightScheme.from_tables(1, (q_cap,), (0,), (1,)), (0, 1))
        edge = WeightScheme.from_tables(1, (q_cap,), (0,), (0,))
        assert route(1, 1, edge) == Poly.monomial(1, 1, (1,), q_cap)
        # a negative exponent would borrow from the z fields of the packed key
        with pytest.raises(InvalidShiftError):
            route(3, 2, below)


def test_tile_cap_must_fit_scheme():
    with pytest.raises(DomainError):
        weighted_sum_enumerative(4, 3, builtin_scheme("inv-lp", 2))


def test_validate_builtin_schemes_pass():
    for pair in ("inv-lp", "maj-rlp", "maj-prlp", "rb-lpi"):
        result = validate_weight_scheme(builtin_scheme(pair, 4), 10)
        assert result.ok and not result.failures


def test_validate_flags_joint_dependence():
    joint = WeightScheme(
        2,
        lambda i: 0,
        lambda i: 0,
        lambda i: 0,
        name="joint",
        exponent=lambda i, sigma, tau: sigma * tau,
    )
    result = validate_weight_scheme(joint, 6)
    assert not result.ok
    assert result.failures and "f(" in result.failures[0]


def test_corrupted_scheme_is_flagged():
    result = validate_weight_scheme(corrupted_scheme(3, seed=2), 8)
    assert not result.ok


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "a2f9e2380f8058a35468827c5077b52d71c1d13a83a2341d88cfaefb9870ca38"),
        (1, "3053c7eba6c31b6708157e6c0239950c88785fac926978664dc5ee1f817d6c89"),
        (2, "0202d3d398559362e1b6d530c1dfb962677ee3b031276af4ba40529d1c16ccd5"),
        (7, "e3553dc0af0c4ac27323902d1ec028bef6ed88434ebe0641aff69d879b53e222"),
    ],
)
def test_validate_failures_are_pinned(seed, digest):
    # the failures, their order and the count of the per-call qexp checker
    # that the grid table replaced
    result = validate_weight_scheme(corrupted_scheme(3, seed), 6)
    assert (result.checked, len(result.failures)) == (1296, 1188)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == digest


def test_validate_reads_each_point_once():
    # exactly the points of the shift checks: sigma <= 2n with tau <= n, or
    # sigma <= n with tau <= 2n, for every tile length
    seen = []
    base = builtin_scheme("maj-rlp", 2)
    w = WeightScheme(
        2, base.a, base.b, base.c, exponent=lambda *point: seen.append(point) or base.qexp(*point)
    )
    assert validate_weight_scheme(w, 3).ok
    grid = range(1, 7)
    expected = {(i, s, t) for i in (1, 2) for s in grid for t in grid if s <= 3 or t <= 3}
    assert len(seen) == len(set(seen)) and set(seen) == expected


def test_recursive_evaluator_reaches_large_boards():
    # enumeration is exponential, the recursion is not
    w = builtin_scheme("inv-rlp", 2)
    assert weighted_sum_recursive(80, 2, w).evaluate((1, 1), 1) == fibonacci_k(80, 2)
    assert fibonacci_k(80, 2) == 37889062373143906
    # a long board as the benchmark runs it: 125,220 q-dense terms
    long_board = weighted_sum_recursive(60, 3, builtin_scheme("maj-rlp", 3))
    assert long_board.n_terms == 125220
    assert long_board.evaluate((1, 1, 1), 1) == fibonacci_k(60, 3)


def test_recursive_route_choice(monkeypatch):
    # q-dense built-in boards pack at any length; q-sparse boards run on Poly
    # terms; boards with one q per z-monomial run no window at all
    unpacks = _spy(monkeypatch, qpacked, "q_unpack")
    windows = _spy(monkeypatch, tiling, "_first_tile_sums")
    maj = weighted_sum_recursive(100, 2, builtin_scheme("maj-lp", 2))
    assert len(unpacks) == 1
    assert maj.evaluate((1, 1), 1) == fibonacci_k(100, 2)
    sparse = WeightScheme.from_tables(3, (0, 0, 0), (10**5, 3 * 10**5, 7 * 10**5), (2 * 10**5, 0, 5 * 10**5))
    assert weighted_sum_recursive(12, 3, sparse).evaluate((1, 1, 1), 1) == fibonacci_k(12, 3)
    # 1.3M tilings but at most 2256 terms over 134k slots: only the bound
    # on terms per z-monomial tells this board from a dense one
    sparse = WeightScheme.from_tables(2, (0, 0), (0, 40), (40, 0))
    assert weighted_sum_recursive(30, 2, sparse).evaluate((1, 1), 1) == fibonacci_k(30, 2)
    assert len(windows) == 3
    # one q exponent per z-monomial: 4,263 terms over a span of hundreds
    inv = weighted_sum_recursive(80, 4, builtin_scheme("inv-prlp", 4))
    assert inv.n_terms == 4263
    assert inv.evaluate((1, 1, 1, 1), 1) == fibonacci_k(80, 4)
    assert len(windows) == 3
    assert len(unpacks) == 1


def test_recursion_width_is_word_aligned_where_x_can_be_cast():
    # room for every count of tilings as a balanced digit,
    # |c| <= F_n < 2^(W - 1): one 64-bit word, whose digits q_unpack can
    # cast, while the count fits in it, else no more bits than the count
    # needs, whatever the span (under the general term bound)
    for k in range(1, 6):
        for n in list(range(0, 40)) + [63, 64, 65, 80, 92, 93, 200, 400]:
            count = fibonacci_k(n, k)
            need = count.bit_length() + 1
            for span in (0, 14, 15, 30, 31, 500):
                width = qpacked.recursion_width(n, k, span, count)
                if width is None:
                    continue
                assert width == (64 if need <= 64 else need), (n, k, span, width)


def _estimate(n, k, w, app):
    deltas, qlow, qtop = tiling._tile_deltas(n, k, w, app)
    span = qtop - qlow
    one_q = qpacked.one_q_per_z(deltas)
    return span, one_q, qpacked._q_slots_and_terms(n, k, span, fibonacci_k(n, k))


def test_slot_estimate_bounds_the_terms():
    # z-monomials counted exactly and terms bounded, on separable schemes whose
    # q exponents are dense (built-in) or as sparse as they get (B and C up to 9e5)
    rng = random.Random(3)
    for k in range(1, 5):
        tables = [[rng.randint(0, 9 * 10**5) for _ in range(k)] for _ in range(3)]
        for w in (builtin_scheme("maj-rlp", k), random_scheme(k, 4), WeightScheme.from_tables(k, *tables)):
            for n in range(11):
                p = weighted_sum_enumerative(n, k, w, AppendSpec(1, 2))
                span, _, (slots, terms) = _estimate(n, k, w, AppendSpec(1, 2))
                assert slots == len({m.z_exps for m in p.monomials()}) * (span + 1), (w, n)
                assert p.n_terms <= terms, (w, n)
    # elsewhere too the estimate bounds the terms, also for an exponent
    # override whose rows bend (joint in start and trailing length)
    for k in range(2, 5):
        for w in (builtin_scheme("maj-lp", k), corrupted_scheme(k, 3)):
            for n in range(3, 11):
                p = weighted_sum_enumerative(n, k, w, AppendSpec(1, 2))
                span, one_q, (slots, terms) = _estimate(n, k, w, AppendSpec(1, 2))
                assert not one_q, (w, n)
                assert p.n_terms <= terms, (w, n)


def _one_q_schemes(k, rng):
    """The three inv-* schemes, inv-prlp with A twisted, and random tables
    with B(i) - C(i) = lam * i for lam = -2..2."""
    schemes = [builtin_scheme(p, k) for p in ("inv-lp", "inv-rlp", "inv-prlp")]
    inv = builtin_scheme("inv-prlp", k)
    schemes.append(WeightScheme.from_tables(
        k, [inv.a(i) + rng.randint(0, 5) for i in range(1, k + 1)],
        [inv.b(i) for i in range(1, k + 1)], [inv.c(i) for i in range(1, k + 1)],
    ))
    for lam in range(-2, 3):
        c = [max(0, -lam * i) + rng.randint(0, 9) for i in range(1, k + 1)]
        a = [rng.randint(0, 9) for _ in range(k)]
        schemes.append(WeightScheme.from_tables(k, a, [ci + lam * i for i, ci in enumerate(c, 1)], c))
    return schemes


def test_closed_form_equals_enumerative(monkeypatch):
    # B(i) - C(i) = lam * i makes a tiling's q exponent a function of its
    # tile lengths: the recursion runs no window, and its terms are the
    # z-monomials, one each, as many as the slot estimate counts
    monkeypatch.setattr(tiling, "_first_tile_sums", None)
    rng = random.Random(11)
    boards = [(k, w, range(13 if k < 5 else 11)) for k in range(1, 6) for w in _one_q_schemes(k, rng)]
    # tile lengths past the board: k > n on every board
    boards += [(13, w, range(13)) for w in _one_q_schemes(13, rng)[:4]]
    for k, w, ns in boards:
        for n in ns:
            for app in (AppendSpec(), AppendSpec(rng.randint(0, 4), rng.randint(0, 4))):
                p = weighted_sum_enumerative(n, k, w, app)
                assert weighted_sum_recursive(n, k, w, app) == p, (w, n, app)
                span, one_q, (slots, terms) = _estimate(n, k, w, app)
                assert one_q, (w, n, app)
                assert p.n_terms == len({m.z_exps for m in p.monomials()}), (w, n, app)
                assert slots == p.n_terms * (span + 1), (w, n, app)


def test_closed_form_follows_the_tile_rows(monkeypatch):
    # the route reads the tile rows, not the declared tables: an override
    # joint in start and trailing length whose rows still step by -i per
    # start (sigma + tau is fixed along a row) takes the closed form, and a
    # corrupted scheme, whose rows bend, runs the window
    windows = _spy(monkeypatch, tiling, "_first_tile_sums")
    linear = WeightScheme(3, lambda i: 0, lambda i: 0, lambda i: 0, name="linear-rows",
                          exponent=lambda i, sigma, tau: i * (sigma + 2 * tau) + (sigma + tau) ** 2)
    assert not validate_weight_scheme(linear, 4).ok
    for n in range(0, 11):
        for app in (AppendSpec(), AppendSpec(2, 1)):
            assert weighted_sum_recursive(n, 3, linear, app) == weighted_sum_enumerative(n, 3, linear, app)
    assert windows == []
    corrupt = corrupted_scheme(3, 1)
    for n in range(4, 11):
        assert weighted_sum_recursive(n, 3, corrupt) == weighted_sum_enumerative(n, 3, corrupt)
    assert len(windows) == 7


def test_closed_form_beyond_enumeration():
    # boards no enumeration reaches, checked at a seeded point modulo a prime
    # against a board DP over the scheme's exponents, and at z = q = 1
    # against F_n; the maj-lp count passes 63 bits, so its digits are
    # wider than a word
    rng = random.Random(17)
    for pair, k, n, app in (("inv-lp", 2, 1000, AppendSpec()), ("inv-prlp", 4, 160, AppendSpec(1, 2)),
                            ("maj-lp", 2, 100, AppendSpec(1, 2))):
        w = builtin_scheme(pair, k)
        p = weighted_sum_recursive(n, k, w, app)
        assert p.evaluate((1,) * k, 1) == fibonacci_k(n, k)
        zs, q = [rng.randrange(2, PRIME) for _ in range(k)], rng.randrange(2, PRIME)
        assert eval_mod(p, zs, q) == board_dp(w, n, *app, zs, q), (pair, k, n)


def test_random_scheme_is_deterministic():
    a, b = random_scheme(3, 11), random_scheme(3, 11)
    assert [a.a(i) for i in (1, 2, 3)] == [b.a(i) for i in (1, 2, 3)]
    assert [a.b(i) for i in (1, 2, 3)] == [b.b(i) for i in (1, 2, 3)]
    assert [a.c(i) for i in (1, 2, 3)] == [b.c(i) for i in (1, 2, 3)]
