"""Minor construction, determinants, closed forms, and path tuples.

The determinant identity (exact cofactor determinant of the shifted minor
equals the closed-form product) holds for the five built-in schemes whose
tile weight does not depend on the trailing length.  For inv-lp and inv-prlp
it fails: with weights that depend on the trailing length, swapping the
tails of two crossing paths changes their weights, so crossing tuples do not
cancel out of the determinant and the noncrossing collapse breaks.
test_trailing_weight_defect pins the smallest counterexample; the acceptance
suite reports the criterion that assumed the identity for all schemes as
failed.
"""

import dataclasses
import gc
import itertools
import random

import pytest
from modular import PRIME, board_dp, det_mod, eval_mod

from qfib import _kernels_py, lattice, qpacked, tiling
from qfib.errors import (
    LIMITS,
    CapacityError,
    DomainError,
    RingMismatchError,
    SizeLimitError,
)
from qfib.lattice import (
    MinorSpec,
    PathTuple,
    PolyMatrix,
    build_minor,
    closed_form_det,
    determinant,
    enumerate_noncrossing_tuples,
    miles_sign_check,
)
from qfib.layered import SCHEMED_PAIRS, builtin_scheme
from qfib.polyring import Q_MASK, Poly
from qfib.tiling import (
    AppendSpec,
    WeightScheme,
    corrupted_scheme,
    fibonacci_k,
    random_scheme,
    weighted_sum_enumerative,
    weighted_sum_recursive,
)

# determinant = closed form holds exactly when the weight ignores the
# trailing length (C = 0); see the module docstring
_COLLAPSING = ("inv-rlp", "maj-lp", "maj-rlp", "maj-prlp", "rb-lpi")
_NON_COLLAPSING = ("inv-lp", "inv-prlp")


def _counting_scheme(k):
    return WeightScheme(k, lambda i: 0, lambda i: 0, lambda i: 0, name="counting")


def test_minor_spec_vertices():
    spec = MinorSpec(2, 2)
    assert spec.u == (0, 1)
    assert spec.v == (3, 4)
    assert spec.pr == (1, 1)


def test_build_minor_counts():
    m = build_minor(MinorSpec(2, 2), _counting_scheme(2))
    values = [[e.evaluate((1, 1), 1) for e in row] for row in m.entries]
    assert values == [[3, 5], [2, 3]]


def test_build_minor_k1():
    m = build_minor(MinorSpec(4, 1), _counting_scheme(1))
    assert m.dim == 1
    assert m.entries[0][0].evaluate((1,), 1) == 1  # F_4^1


def test_build_minor_toeplitz_shift_structure():
    # row i repeats row 0 shifted: entry(i, j) = front-shift of entry(0, j-i)
    for pair in ("maj-rlp", "inv-lp"):
        w = builtin_scheme(pair, 3)
        m = build_minor(MinorSpec(4, 3), w)
        for i in range(1, 3):
            for j in range(i, 3):
                shifted = m.entries[0][j - i].substitute_z_scale(w.front_shift_exps(i))
                assert m.entries[i][j] == shifted


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_build_minor_entries_are_literal_path_sums(k):
    # entries come from the shared front-shifted sums; they must be the
    # literal enumeration with the row vertex appended in front, bounds
    # included (the determinant picks its route by the q bounds), and for
    # incoherent schemes too
    schemes = [builtin_scheme(p, k) for p in SCHEMED_PAIRS]
    schemes += [random_scheme(k, seed) for seed in (3, 4)]
    schemes += [corrupted_scheme(k, seed) for seed in (1, 2)]
    for w in schemes:
        for n in range(1, 6):
            spec = MinorSpec(n, k)
            m = build_minor(spec, w)
            for row, u in zip(m.entries, spec.u):
                for entry, v in zip(row, spec.v):
                    literal = weighted_sum_enumerative(v - u, k, w, AppendSpec(u, 0))
                    assert entry == literal, (w.name, n, u, v)
                    assert entry.degree_bounds == literal.degree_bounds, (w.name, n, u, v)


def test_determinant_examples():
    one = Poly.one(2)
    zero = Poly.zero(2)
    identity = PolyMatrix(2, ((one, zero), (zero, one)))
    assert determinant(identity) == one

    c = lambda v: Poly.constant(2, v)
    assert determinant(PolyMatrix(2, ((c(3), c(5)), (c(2), c(3))))) == c(-1)

    row = (Poly.parse("z1 + q", 2), Poly.parse("z2^2", 2))
    assert determinant(PolyMatrix(2, (row, row))) == zero


def _permutation_det(m):
    # independent oracle: signed sum over permutations, on Poly arithmetic
    d = m.dim
    k = m.entries[0][0].k
    expected = Poly.zero(k)
    for alpha in itertools.permutations(range(d)):
        invs = sum(
            1 for i in range(d) for j in range(i + 1, d) if alpha[i] > alpha[j]
        )
        prod = Poly.one(k)
        for i in range(d):
            prod = prod * m.entries[i][alpha[i]]
        expected = expected + (-1 if invs % 2 else 1) * prod
    return expected


def _hand_built_matrix(k=2):
    # negative coefficients, zero entries, coefficients above 2^64, and
    # z-monomials whose q exponents sit hundreds apart
    p = lambda text: Poly.parse(text, k)
    big = str(2**70 + 3)
    zero = Poly.zero(k)
    rows = (
        (p(f"-{big}*z1*q^3 + 5*z2*q^300 - z1*q^150"), zero, p("z1^2 - 3*q^2")),
        (p(f"7 + {2**65 + 1}*z1*z2*q^200 - 2*z1*z2"), p("-z2*q"), zero),
        (zero, p(f"2*z1 - {2**80}*z1*q^5 + z1*q^40"), p(f"-1 + {big}*z2^3*q^120")),
    )
    return PolyMatrix(3, rows)


def _minor(n, k, w):
    return lambda: build_minor(MinorSpec(n, k), w)


_PERMUTATION_CASES = [
    pytest.param(_minor(n, 4, builtin_scheme(pair, 4)), id=f"{pair}-k4-n{n}")
    for pair in SCHEMED_PAIRS
    for n in (1, 2, 3)
] + [
    pytest.param(_minor(3, 3, random_scheme(3, 77)), id="random-77"),
    pytest.param(_minor(3, 3, corrupted_scheme(3, 5)), id="corrupted-5"),
    pytest.param(_hand_built_matrix, id="hand-built"),
]


@pytest.mark.parametrize("make", _PERMUTATION_CASES)
def test_determinant_against_permutation_expansion(make):
    m = make()
    expected = _permutation_det(m)
    assert determinant(m) == expected


@pytest.mark.parametrize("pair", ["inv-lp", "inv-prlp"])
def test_criterion_5_cells_are_exact_determinants(pair):
    # the C != 0 cells where the determinant and the closed form differ: a
    # second route, a board DP for each entry (its u_i-board in front as
    # the declared front shift) and elimination mod p, agrees with the
    # exact determinant at a seeded point, so the difference lies in the
    # identity, not in the determinant code
    rng = random.Random(pair)
    for k in range(2, 5):
        w = builtin_scheme(pair, k)
        for n in range(1, 7):
            spec = MinorSpec(n, k)
            zs, q = [rng.randrange(2, PRIME) for _ in range(k)], rng.randrange(2, PRIME)
            rows = [[board_dp(w, vj - ui, ui, 0, zs, q) for vj in spec.v] for ui in spec.u]
            det = determinant(build_minor(spec, w))
            assert eval_mod(det, zs, q) == det_mod(rows), (pair, k, n)
            assert det != closed_form_det(spec, w), (pair, k, n)


def _refuse(*args, **kwargs):
    raise AssertionError("this matrix must take the other arithmetic")


def test_hand_built_determinant_on_packed_form(monkeypatch):
    # the coefficients reach far above 2^64, so the packed digits must be
    # balanced and as wide as the bound says for the decode to be right
    m = _hand_built_matrix()
    expected = _permutation_det(m)
    monkeypatch.setattr(_kernels_py, "mul_add_terms", _refuse)
    det = determinant(m)
    assert det == expected
    assert max(abs(t.coeff) for t in det.monomials()) > 2**140
    assert min(t.coeff for t in det.monomials()) < 0


def _q_sparse_matrix():
    p = lambda text: Poly.parse(text, 2)
    return PolyMatrix(
        2,
        (
            (p("z1 + q^1000000"), p("z2*q^2000000 - 3")),
            (p("z1*z2 - q"), p("z1^2*q^999999 + z2")),
        ),
    )


def test_determinant_of_q_sparse_entries(monkeypatch):
    # q exponents a million apart would need huge packed integers, so the
    # expansion runs on Poly terms
    m = _q_sparse_matrix()
    expected = _permutation_det(m)
    monkeypatch.setattr(qpacked, "q_pack", _refuse)
    assert determinant(m) == expected


class _Routed(Exception):
    pass


def _clear_sum_caches():
    # a family's kept determinant lasts only while the sum caches hold its
    # sums, so the next determinant() of each family expands its matrix
    for f in (tiling._plain, tiling._front, tiling._back):
        f.cache_clear()


def test_determinant_route_choice(monkeypatch):
    # every built-in minor the CLI accepts packs; q-sparse entries do not.
    # The spy stops each determinant once its route is chosen, so the k = 6
    # minors are built but never expanded.
    _clear_sum_caches()
    widths = []

    def spy(bound, qb):
        widths.append(width_of(bound, qb))
        raise _Routed

    width_of = qpacked.determinant_width
    monkeypatch.setattr(qpacked, "determinant_width", spy)
    for k in range(1, LIMITS["det_dim"] + 1):
        for pair in SCHEMED_PAIRS:
            w = builtin_scheme(pair, k)
            for n in range(1, LIMITS["board"] - 2 * k + 3):
                with pytest.raises(_Routed):
                    determinant(build_minor(MinorSpec(n, k), w))
                assert widths.pop() is not None, (str(pair), k, n)
    # the q-sparse matrix above, and det --n 4 --k 3 on
    # generic:0,[0 1000000 7],[5 0 300000]
    sparse = WeightScheme.from_tables(3, (0, 0, 0), (0, 1000000, 7), (5, 0, 300000))
    for m in (_q_sparse_matrix(), build_minor(MinorSpec(4, 3), sparse)):
        with pytest.raises(_Routed):
            determinant(m)
        assert widths.pop() is None


def _twisted(pair, k, seed):
    # the built-in B and C tables with a seeded A
    rng = random.Random(seed)
    w = builtin_scheme(pair, k)
    lengths = range(1, k + 1)
    a = [rng.randint(0, 3) for _ in lengths]
    return WeightScheme.from_tables(k, a, map(w.b, lengths), map(w.c, lengths), name=f"{pair}~A")


def _corrupted_c0(k, seed):
    # C = 0 declared, but the actual exponent reads the trailing length too:
    # the minor carries an arc rule that its entries do not follow
    rng = random.Random(seed)
    a, b = ([rng.randint(0, 3) for _ in range(k)] for _ in "ab")
    return WeightScheme.from_tables(
        k, a, b, (0,) * k, name=f"corrupted-c0-{seed}",
        exponent=lambda i, sigma, tau: a[i - 1] + b[i - 1] * (sigma - 1) + (sigma - 1) * tau,
    )


def _thinning_cases():
    cases = []
    for k in range(1, 6):
        for pair in SCHEMED_PAIRS:
            for w in (builtin_scheme(pair, k), _twisted(pair, k, k)):
                cases += [(w, k, n) for n in (1, 2, 3)]
    for seed in range(8):
        k = 2 + seed % 3
        for w in (random_scheme(k, seed), corrupted_scheme(k, seed), _corrupted_c0(k, seed)):
            cases += [(w, k, n) for n in (1, 2)]
    return cases


def _spy_divisions(monkeypatch):
    # one entry per division determinant() makes, in either ring: True when
    # it was exact; a step divides each of the dim entries of its new row
    done = []
    for owner, name in ((qpacked, "q_divide"), (_kernels_py, "divide_terms")):
        def spy(*args, real=getattr(owner, name), **kwargs):
            out = real(*args, **kwargs)
            done.append(out is not None)
            return out
        monkeypatch.setattr(owner, name, spy)
    return done


def test_thinned_determinant_equals_plain_expansion(monkeypatch):
    # row operations and exact divisions by monomials never change a
    # determinant, so the minor with its arc rule and the same entries
    # without it expand to one polynomial: for coherent schemes, whose
    # steps all divide, for C != 0 ones (which carry no rule) and for
    # schemes whose entries do not follow their tables
    done = _spy_divisions(monkeypatch)
    carried = 0
    for w, k, n in _thinning_cases():
        _clear_sum_caches()
        m = build_minor(MinorSpec(n, k), w)
        rule = lattice._shortcuts(m)[0]
        carried += rule is not None
        done.clear()
        assert determinant(m) == determinant(PolyMatrix(m.dim, m.entries)), (w.name, k, n)
        if rule and not w.name.startswith("corrupt"):
            assert done == [True] * k * (n + k - 1), (w.name, k, n)
    assert carried > 150


def test_large_c0_minors_equal_their_closed_form():
    # the minors that took the expansion 17-24 s before the steps ran up to
    # the column vertices, and the largest maj-rlp one
    for n, pair in ((10, "maj-lp"), (10, "rb-lpi"), (6, "maj-rlp")):
        spec, w = MinorSpec(n, 6), builtin_scheme(pair, 6)
        assert determinant(build_minor(spec, w)) == closed_form_det(spec, w), pair


def test_thinning_on_the_term_route(monkeypatch):
    # q exponents a million apart take the term ring, and every step
    # divides there too
    w = WeightScheme.from_tables(5, (0,) * 5, (0, 1000000, 7, 9, 3), (0,) * 5)
    m = build_minor(MinorSpec(2, 5), w)
    done = _spy_divisions(monkeypatch)
    monkeypatch.setattr(qpacked, "q_pack", _refuse)
    assert determinant(m) == determinant(PolyMatrix(m.dim, m.entries))
    assert done == [True] * 5 * 6


def test_a_remainder_stops_the_steps(monkeypatch):
    # entries that do not follow the rule leave a remainder in some step;
    # the rows reached then expand as they stand, to the same determinant
    done = _spy_divisions(monkeypatch)
    stopped = 0
    for seed in range(8):
        k = 2 + seed % 3
        for n in (1, 2):
            m = build_minor(MinorSpec(n, k), _corrupted_c0(k, seed))
            done.clear()
            assert determinant(m) == determinant(PolyMatrix(m.dim, m.entries)), (seed, n)
            stopped += False in done
    assert stopped > 10


def test_arcs_near_the_key_capacity_are_left_out(monkeypatch):
    # entries up to q^(3Y) fit the key; each step may raise the column
    # bounds, and at Y = 2^30 - 1 the second step would pass the q field,
    # so it is not taken: no input that ran without the rule raises with it
    done = _spy_divisions(monkeypatch)
    for y, steps in ((2**30 - 1, 1), (2**28, 2)):
        done.clear()
        m = build_minor(MinorSpec(1, 2), WeightScheme.from_tables(2, (0, 0), (y, 0), (0, 0)))
        assert determinant(m) == Poly.parse("z2^2", 2)
        assert done == [True] * 2 * steps, y


def test_only_c0_minors_carry_arcs():
    # with trailing-length weights the first-arc multiplier would depend on
    # the column, so those minors keep the plain expansion; a hand-built
    # matrix has no rule
    rule = lambda m: lattice._shortcuts(m)[0]
    for pair in SCHEMED_PAIRS:
        m = build_minor(MinorSpec(3, 4), builtin_scheme(pair, 4))
        assert (rule(m) is None) == (str(pair) in _NON_COLLAPSING), str(pair)
    w = builtin_scheme("maj-rlp", 4)
    arcs = tuple((w.a(l), w.b(l)) for l in range(1, 5))
    assert rule(build_minor(MinorSpec(3, 4), w)) == (arcs, 0, 6)
    generic = WeightScheme.from_tables(3, (0, 0, 0), (1, 1, 1), (0, 0, 1))
    assert rule(build_minor(MinorSpec(2, 3), generic)) is None
    assert rule(_hand_built_matrix()) is None


def _paths(u, v, k):
    if u == v:
        yield (v,)
        return
    for d in range(1, min(k, v - u) + 1):
        for rest in _paths(u + d, v, k):
            yield (u,) + rest


@pytest.mark.parametrize("pair", ["maj-rlp", "rb-lpi", "inv-rlp"])
def test_thinning_keeps_the_paths_no_other_vertex_accounts_for(pair):
    # a step takes from row x the paths whose first arc lands on another
    # row vertex, x + 1..x + k - 1, and keeps those whose first arc is the
    # length-k one: divided by that arc, they are the path sums from x + k.
    # After s steps the rows are the path sums from s..s + k - 1, and the
    # determinant has pulled out the s diagonal arcs and the cyclic shifts.
    k, n = 3, 2
    w = builtin_scheme(pair, k)
    spec = MinorSpec(n, k)
    m = build_minor(spec, w)
    arcs = lattice._shortcuts(m)[0][0]
    path_sum = lambda u, v: sum(
        (PathTuple((p,), (1,)).weight(w) for p in _paths(u, v, k)), Poly.zero(k)
    )
    for stop in range(1, spec.v[0] + 1):
        terms = [[e._terms for e in row] for row in m.entries]
        rows, (factor, sign) = lattice._slide(terms, (arcs, 0, stop), k, 0, 0, qpacked.ring(None))
        for i, row in enumerate(rows):
            for j, v in enumerate(spec.v):
                assert Poly(k, row[j]) == path_sum(stop + i, v), (stop, i, j)
        diagonal = Poly.monomial(k, 1, (0, 0, stop), sum(w.a(k) + w.b(k) * x for x in range(stop)))
        assert (Poly(k, factor), sign) == (diagonal, 1), stop


@pytest.mark.parametrize(
    "make", [_minor(3, 4, builtin_scheme("maj-rlp", 4)), _q_sparse_matrix], ids=("packed", "poly")
)
def test_determinant_leaves_no_cycles(make):
    # nothing the expansion builds, on either route, waits for the cyclic GC
    m = make()
    gc.collect()
    gc.disable()
    try:
        determinant(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_determinant_needs_square_entries():
    # dim is what the size guard reads, so it must match the entries
    one = Poly.one(1)
    with pytest.raises(DomainError):
        determinant(PolyMatrix(2, ((one,) * 7,) * 7))


def test_determinant_capacity_guard():
    # the column q bounds sum past Q_MASK although no entry comes near it
    half = Poly.monomial(1, 1, (0,), Q_MASK // 2 + 1)
    one = Poly.one(1)
    with pytest.raises(CapacityError):
        determinant(PolyMatrix(2, ((half, one), (one, half))))


def test_determinant_ring_mismatch():
    a, b = Poly.one(2), Poly.one(3)
    with pytest.raises(RingMismatchError):
        determinant(PolyMatrix(2, ((a, a), (a, b))))


def test_determinant_size_guard():
    one = Poly.one(1)
    big = PolyMatrix(7, tuple(tuple(one for _ in range(7)) for _ in range(7)))
    with pytest.raises(SizeLimitError):
        determinant(big)


def test_closed_form_examples():
    assert closed_form_det(MinorSpec(2, 2), builtin_scheme("inv-lp", 2)) == Poly.parse(
        "-z2^3*q^4", 2
    )
    assert closed_form_det(MinorSpec(1, 3), builtin_scheme("inv-rlp", 3)) == Poly.parse(
        "z3^3*q^9", 3
    )
    # maj-lp magnitude z_k^(n+k-1) q^C(n+k-1, 2)
    for n, k in ((1, 2), (3, 2), (2, 3)):
        e = (n + k - 1) * (n + k - 2) // 2
        expected = Poly.monomial(
            k, 1, tuple(0 if i < k else n + k - 1 for i in range(1, k + 1)), e
        )
        got = closed_form_det(MinorSpec(n, k), builtin_scheme("maj-lp", k))
        sign = 1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1
        assert got == expected * sign


def test_closed_form_of_a_minor_of_another_k():
    # a minor with k below the scheme's lives in the scheme's ring, like its
    # determinant; one with k above it has arcs the scheme does not weigh
    w = builtin_scheme("maj-lp", 4)
    assert closed_form_det(MinorSpec(2, 2), w) == Poly.parse("-z2^3*q^3", 4)
    for pair in _COLLAPSING:
        w = builtin_scheme(pair, 4)
        for k in (1, 2, 3):
            for n in range(1, 5):
                spec = MinorSpec(n, k)
                assert closed_form_det(spec, w) == determinant(build_minor(spec, w)), (
                    pair, k, n
                )
        spec = MinorSpec(2, 5)
        with pytest.raises(DomainError):
            closed_form_det(spec, w)
        with pytest.raises(DomainError):
            build_minor(spec, w)
        (paths,) = enumerate_noncrossing_tuples(spec)
        with pytest.raises(DomainError):
            paths.weight(w)
    # nor does it weigh an arc that stands still or steps back
    for path in ((0, 0), (3, 1)):
        with pytest.raises(DomainError):
            PathTuple((path,), (1,)).weight(w)


def test_closed_form_sign_at_counts():
    for k in (2, 3, 4):
        for n in range(1, 7):
            value = closed_form_det(MinorSpec(n, k), _counting_scheme(k)).evaluate(
                (1,) * k, 1
            )
            assert value == (1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1)


def test_determinant_equals_closed_form_for_collapsing_schemes():
    for pair in _COLLAPSING:
        for k in (2, 3, 4):
            w = builtin_scheme(pair, k)
            for n in range(1, 7):
                spec = MinorSpec(n, k)
                assert determinant(build_minor(spec, w)) == closed_form_det(spec, w), (
                    pair,
                    k,
                    n,
                )


def test_trailing_weight_defect():
    # smallest counterexample: k=2, n=1, inversion weights over layered
    # permutations.  The cofactor determinant of [[F_2, F_3], [F_1, F_2]]
    # keeps a (1-q) remainder that the closed form does not have.
    w = builtin_scheme("inv-lp", 2)
    spec = MinorSpec(1, 2)
    det = determinant(build_minor(spec, w))
    closed = closed_form_det(spec, w)
    assert closed == Poly.parse("z2^2", 2)
    remainder = Poly.parse("z1^4*q^2 + 2*z1^2*z2*q", 2)
    assert det == closed + remainder - remainder.times_q(1)
    assert det != closed
    # the defect vanishes at q = 1 (the unweighted identity is true)
    assert det.evaluate((1, 1), 1) == closed.evaluate((1, 1), 1) == 1
    for pair in _NON_COLLAPSING:
        wk = builtin_scheme(pair, 2)
        assert determinant(build_minor(spec, wk)) != closed_form_det(spec, wk)


def test_noncrossing_tuples_unique():
    for k in (1, 2, 3):
        for n in range(1, 5):
            spec = MinorSpec(n, k)
            tuples = enumerate_noncrossing_tuples(spec)
            assert len(tuples) == 1
            (pt,) = tuples
            for path in pt.paths:
                steps = {b - a for a, b in zip(path, path[1:])}
                assert steps <= {k}


def test_noncrossing_tuple_example():
    (pt,) = enumerate_noncrossing_tuples(MinorSpec(2, 2))
    assert pt.alpha == (2, 1)
    assert pt.sign() == -1
    assert pt.paths == ((0, 2, 4), (1, 3))


def test_noncrossing_signed_weight_is_closed_form():
    for pair in SCHEMED_PAIRS:
        for k in (2, 3):
            w = builtin_scheme(pair, k)
            for n in range(1, 5):
                spec = MinorSpec(n, k)
                (pt,) = enumerate_noncrossing_tuples(spec)
                assert pt.weight(w) * pt.sign() == closed_form_det(spec, w)


def test_noncrossing_guard():
    with pytest.raises(SizeLimitError):
        enumerate_noncrossing_tuples(MinorSpec(21, 3))


def test_miles_sign_check():
    # independent 3x3 oracle: F^3 = 1,1,2,4,7,13,24,44,81 gives
    # det [[24,44,81],[13,24,44],[7,13,24]] = 96 - 176 + 81 = 1
    f3 = [fibonacci_k(n, 3) for n in range(9)]
    a = [[f3[6], f3[7], f3[8]], [f3[5], f3[6], f3[7]], [f3[4], f3[5], f3[6]]]
    oracle = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    assert oracle == 1
    assert miles_sign_check(4, 3).passed
    assert miles_sign_check(1, 2).passed
    assert miles_sign_check(2, 2).passed
    for k in range(1, 7):
        for n in range(1, 6):
            assert miles_sign_check(n, k).passed, (n, k)
    # the determinant's own guard bounds the minor
    with pytest.raises(SizeLimitError):
        miles_sign_check(1, LIMITS["det_dim"] + 1)


def test_miles_sign_check_refuses_before_building_its_minor(monkeypatch):
    # the det_dim guard runs before the minor of 2^k subminors is built, and
    # refuses with the determinant's own message
    def no_build(spec, w):
        raise AssertionError(f"build_minor{spec} called past the det_dim guard")

    monkeypatch.setattr(lattice, "build_minor", no_build)
    k = LIMITS["det_dim"] + 1
    with pytest.raises(SizeLimitError) as by_check:
        miles_sign_check(10, k)
    with pytest.raises(SizeLimitError) as by_det:
        determinant(PolyMatrix(k, ()))
    assert str(by_check.value) == str(by_det.value)
    assert str(by_check.value) == f"determinant limited to dim <= {k - 1}, got {k}"
    # a domain error still comes first
    with pytest.raises(DomainError):
        miles_sign_check(0, k)


def test_matrix_json_row_major():
    m = build_minor(MinorSpec(1, 2), _counting_scheme(2))
    data = m.to_json_dict()
    assert data["dim"] == 2
    assert len(data["entries"]) == 4
    assert Poly.from_json_dict(data["entries"][1]) == m.entries[0][1]


def test_each_ring_gives_the_same_results(monkeypatch):
    # the recursion on a q-dense board, a C = 0 minor (which slides) and a
    # C != 0 minor (which does not), each forced onto the term ring (width
    # None) and onto packed cells at the width its rule gives where it packs
    board = 24, 4, builtin_scheme("maj-rlp", 4)
    minors = [build_minor(MinorSpec(3, 4), builtin_scheme(p, 4)) for p in ("maj-lp", "inv-lp")]
    rules = [lattice._shortcuts(m)[0] for m in minors]
    assert rules[0] is not None and rules[1] is None
    forced = {
        "terms": (lambda *args: None, lambda *args: None),
        "packed": (
            lambda n, k, span, count: count.bit_length() + 1,
            lambda bound, qb: bound.bit_length() + 2,
        ),
    }
    done = _spy_divisions(monkeypatch)
    got = {}
    for ring, (recursion_width, determinant_width) in forced.items():
        monkeypatch.setattr(qpacked, "recursion_width", recursion_width)
        monkeypatch.setattr(qpacked, "determinant_width", determinant_width)
        _clear_sum_caches()
        done.clear()
        got[ring] = weighted_sum_recursive(*board), [determinant(m) for m in minors]
        assert done == [True] * 4 * 6, ring
    assert got["terms"] == got["packed"]
    monkeypatch.undo()
    _clear_sum_caches()
    assert got["terms"] == (weighted_sum_recursive(*board), [determinant(m) for m in minors])
    # q exponents a million apart take the term ring, where the slide leaves
    # the closed form's one term
    sparse = WeightScheme.from_tables(3, (0, 0, 0), (0, 1000000, 7), (0, 0, 0))
    spec = MinorSpec(4, 3)
    m = build_minor(spec, sparse)
    monkeypatch.setattr(qpacked, "q_pack", _refuse)
    det = determinant(m)
    assert len(det._terms) == 1
    assert det == closed_form_det(spec, sparse) == determinant(PolyMatrix(m.dim, m.entries))


# ----------------------------------------------------------------------
# one expansion per A-free family


def _spy_expansions(monkeypatch):
    # one entry per matrix determinant() expands
    done = []

    def spy(entries, mul_add, real=lattice._expand):
        done.append(len(entries))
        return real(entries, mul_add)

    monkeypatch.setattr(lattice, "_expand", spy)
    return done


def _family_cases():
    # every member comes after another of its family, which it shares
    cases = []
    for k in (2, 3, 4):
        for pair in SCHEMED_PAIRS:
            for w in (builtin_scheme(pair, k), _twisted(pair, k, k), _twisted(pair, k, k + 9)):
                cases += [(w, k, n) for n in (1, 2, 3, 4)]
                cases += [(w, k - 1, n) for n in (1, 2)]
    for k in (2, 3, 4, 5):
        for seed in range(3):
            base = random_scheme(k, seed)
            lengths = range(1, k + 1)
            for a in ((0,) * k, tuple(random.Random(seed).randint(0, 5) for _ in lengths)):
                w = WeightScheme.from_tables(k, a, map(base.b, lengths), map(base.c, lengths))
                cases += [(w, k, n) for n in (1, 2)]
            cases += [(corrupted_scheme(k, seed), k, 2), (_corrupted_c0(k, seed), k, 2)]
    return cases


@pytest.mark.parametrize("as_returned", [lattice._AS_RETURNED, -1], ids=["terms", "ring"])
def test_shared_determinants_equal_their_expansion(monkeypatch, as_returned):
    # terms and degree bounds alike, whichever member a family's kept
    # determinant came from and in whichever form it was kept, against the
    # plain expansion of the same entries; schemes with an exponent override
    # have no family and are always expanded
    monkeypatch.setattr(lattice, "_AS_RETURNED", as_returned)
    _clear_sum_caches()
    done = _spy_expansions(monkeypatch)
    shared = 0
    for w, k, n in _family_cases():
        m = build_minor(MinorSpec(n, k), w)
        family = lattice._shortcuts(m)[1]
        assert (family is None) == (w._exponent is not None)
        done.clear()
        got = determinant(m)
        expanded = bool(done)
        shared += not expanded
        want = determinant(PolyMatrix(m.dim, m.entries))
        assert got == want and got.degree_bounds == want.degree_bounds, (w.name, k, n)
        if family is None:
            assert len(done) == 2
        elif expanded:
            # a result is kept as it was returned, if small enough
            kept = lattice._family_dets[family[0]][2]
            assert (kept is got._terms) == (got.n_terms <= as_returned)
    assert shared > 150


def _as_minor_of(matrix, minor):
    # matrix with the record of the scheme minor was built from, which no
    # caller can give it: a stand-in for entries that break the checks
    object.__setattr__(matrix, "_source", minor._source)
    return matrix


def test_errors_are_unchanged_on_the_shared_path():
    # the checks run on the matrix's own entries before the family is read
    _clear_sum_caches()
    m = build_minor(MinorSpec(2, 2), builtin_scheme("maj-lp", 2))
    determinant(m)
    one, half = Poly.one(2), Poly.monomial(2, 1, (0, 0), Q_MASK // 2 + 1)
    bad = [
        (DomainError, PolyMatrix(2, ((one,) * 3,) * 3)),
        (SizeLimitError, PolyMatrix(7, ((one,) * 7,) * 7)),
        (RingMismatchError, PolyMatrix(2, ((one, one), (one, Poly.one(3))))),
        (CapacityError, PolyMatrix(2, ((half, one), (one, half)))),
    ]
    for error, matrix in bad:
        with pytest.raises(error):
            determinant(matrix)
        with pytest.raises(error):
            determinant(_as_minor_of(matrix, m))


@pytest.mark.parametrize(
    "matrix, message",
    [
        (PolyMatrix(1, ((5,),)), "determinant entries must be Polys, got 5"),
        (PolyMatrix(2, ((Poly.one(1), 5), (Poly.one(1), Poly.one(1)))),
         "determinant entries must be Polys, got 5"),
        (PolyMatrix(True, ((Poly.one(1),),)), "dim must be an int, got True"),
        (PolyMatrix(1.0, ((Poly.one(1),),)), "dim must be an int, got 1.0"),
    ],
    ids=["int-entry", "int-among-polys", "bool-dim", "float-dim"],
)
def test_malformed_matrices_are_domain_errors(matrix, message, monkeypatch):
    # refused before any arithmetic: no entry is packed
    monkeypatch.setattr(qpacked, "ring", lambda width: pytest.fail("packed an entry"))
    with pytest.raises(DomainError, match=message):
        determinant(matrix)


@pytest.mark.parametrize("pair", ["inv-lp", "maj-lp"])
def test_other_entries_get_their_own_determinant(pair):
    # the shortcuts come from the scheme a minor was built from, and no
    # other matrix has one: not a copy of a minor with other entries, once
    # the minor's own determinant is kept, nor a matrix built by hand
    _clear_sum_caches()
    m = build_minor(MinorSpec(2, 3), builtin_scheme(pair, 3))
    determinant(m)
    one, zero = Poly.one(3), Poly.zero(3)
    identity = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    for entries in (identity, _hand_built_matrix(3).entries):
        want = _permutation_det(PolyMatrix(3, entries))
        assert determinant(dataclasses.replace(m, entries=entries)) == want
        assert determinant(PolyMatrix(3, entries)) == want
    assert lattice._shortcuts(dataclasses.replace(m)) == (None, None)


def test_cleared_sum_caches_expand_again(monkeypatch):
    # the 84 minors of a verify-grid pass (7 built-ins and their A-twists,
    # k = 4, n = 1..6) fall into 5 families, so 30 are expanded, on every
    # pass that starts from empty sum caches
    done = _spy_expansions(monkeypatch)
    schemes = [w for p in SCHEMED_PAIRS for w in (builtin_scheme(p, 4), _twisted(p, 4, 1))]
    for _ in range(2):
        _clear_sum_caches()
        done.clear()
        dets = [determinant(build_minor(MinorSpec(n, 4), w)) for w in schemes for n in range(1, 7)]
        assert len(dets) == 84 and len(done) == 30
    done.clear()
    assert [determinant(build_minor(MinorSpec(n, 4), w))
            for w in schemes for n in range(1, 7)] == dets
    assert not done


def test_kept_determinants_are_bounded_by_their_terms(monkeypatch):
    # a determinant that would take the terms held past the bound is not
    # kept, until clearing the sum caches leaves the kept ones stale
    monkeypatch.setattr(lattice, "_family_dets", {})
    monkeypatch.setattr(lattice, "_FAMILY_TERMS", 150)
    _clear_sum_caches()
    done = _spy_expansions(monkeypatch)

    def held():
        assert sum(terms for *_, terms in lattice._family_dets.values()) <= 150
        return [key[0].n for key in lattice._family_dets]

    sizes = []
    for n in range(1, 6):
        sizes.append(determinant(build_minor(MinorSpec(n, 3), builtin_scheme("inv-lp", 3))).n_terms)
        held()
    # 40 and 69 terms fit; 99, 142 and 183 more would not
    assert sizes == [40, 69, 99, 142, 183]
    assert held() == [1, 2]
    # inv-prlp is inv-lp with an A table: the kept two are shared
    done.clear()
    for n in range(1, 6):
        determinant(build_minor(MinorSpec(n, 3), builtin_scheme("inv-prlp", 3)))
    assert len(done) == 3 and held() == [1, 2]
    _clear_sum_caches()
    determinant(build_minor(MinorSpec(4, 3), builtin_scheme("inv-lp", 3)))
    assert held() == [4]
