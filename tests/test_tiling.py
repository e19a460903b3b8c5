"""Tilings, k-Fibonacci counts, weighted sums, and scheme validation."""

import json
import random
import tracemalloc

import pytest

from qfib import _kernels_py, qpacked, tiling
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


def test_recursive_equals_enumerative(monkeypatch):
    # each window forced on every board, over built-in, random and incoherent
    # schemes: the packed one decodes every board, the Poly one none
    unpacks = []
    unpack = qpacked.q_unpack
    monkeypatch.setattr(qpacked, "q_unpack", lambda *args: unpacks.append(args) or unpack(*args))
    pairs = ("inv-lp", "inv-rlp", "inv-prlp", "maj-lp", "maj-rlp", "maj-prlp", "rb-lpi")
    for slots_per_term, decodes in ((10**9, True), (0, False)):
        monkeypatch.setattr(qpacked, "_SLOTS_PER_TERM", slots_per_term)
        unpacks.clear()
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
                        boards += n >= 0
        assert len(unpacks) == (boards if decodes else 0)


def test_recursive_degree_bounds_are_exact(monkeypatch):
    # the packed window's result reads its bounds off its terms, the Poly
    # window's carries the bounds of its products and sums; both must equal
    # a fresh scan of the terms
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
    # maj-rlp k=4 n=20: 4,562 terms, 110 kB of text.  Both readers peaked
    # near 0.37 MB, about the result dict; a term regex whose repeats keep
    # their backtracking state grows with the factors of one term (a
    # 60,000-factor term took 42 MB that way; capped repeats, 0.03 MB).
    k = 4
    p = weighted_sum_recursive(20, k, builtin_scheme("maj-rlp", k))
    text, data = p.format(), json.loads(json.dumps(p.to_json_dict()))
    for read in (lambda: Poly.parse(text, k), lambda: Poly.from_json_dict(data)):
        result, peak = _traced_peak(read)
        assert result == p
        assert peak < 2**20, peak
    long_term = "*".join(["z1", "z2", "q"] * 20_000)
    result, peak = _traced_peak(lambda: Poly.parse(long_term, 2))
    assert result == Poly.monomial(2, 1, (20_000, 20_000), 20_000)
    assert peak < 2**18, peak


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
    # q-dense built-in boards pack at any length; q-sparse boards run on Poly terms
    unpacks = []
    unpack = qpacked.q_unpack
    monkeypatch.setattr(qpacked, "q_unpack", lambda *args: unpacks.append(args) or unpack(*args))
    maj = weighted_sum_recursive(100, 2, builtin_scheme("maj-lp", 2))
    assert len(unpacks) == 1
    assert maj.evaluate((1, 1), 1) == fibonacci_k(100, 2)
    sparse = WeightScheme.from_tables(3, (0, 0, 0), (10**5, 3 * 10**5, 7 * 10**5), (2 * 10**5, 0, 5 * 10**5))
    assert weighted_sum_recursive(12, 3, sparse).evaluate((1, 1, 1), 1) == fibonacci_k(12, 3)
    # 1.3M tilings but at most 2256 terms over 134k slots: only the bound
    # on terms per z-monomial tells this board from a dense one
    sparse = WeightScheme.from_tables(2, (0, 0), (0, 40), (40, 0))
    assert weighted_sum_recursive(30, 2, sparse).evaluate((1, 1), 1) == fibonacci_k(30, 2)
    assert len(unpacks) == 1


def test_slot_estimate_bounds_the_terms():
    # z-monomials counted exactly and terms bounded, on separable schemes whose
    # q exponents are dense (built-in) or as sparse as they get (B and C up to 9e5)
    rng = random.Random(3)
    for k in range(1, 5):
        tables = [[rng.randint(0, 9 * 10**5) for _ in range(k)] for _ in range(3)]
        for w in (builtin_scheme("maj-rlp", k), random_scheme(k, 4), WeightScheme.from_tables(k, *tables)):
            for n in range(11):
                p = weighted_sum_enumerative(n, k, w, AppendSpec(1, 2))
                _, qlow, qtop = tiling._tile_deltas(n, k, w, AppendSpec(1, 2))
                span = qtop - qlow
                slots, terms = qpacked._q_slots_and_terms(n, k, span, fibonacci_k(n, k))
                assert slots == len({m.z_exps for m in p.monomials()}) * (span + 1), (w, n)
                assert p.n_terms <= terms, (w, n)


def test_random_scheme_is_deterministic():
    a, b = random_scheme(3, 11), random_scheme(3, 11)
    assert [a.a(i) for i in (1, 2, 3)] == [b.a(i) for i in (1, 2, 3)]
    assert [a.b(i) for i in (1, 2, 3)] == [b.b(i) for i in (1, 2, 3)]
    assert [a.c(i) for i in (1, 2, 3)] == [b.c(i) for i in (1, 2, 3)]
