"""Identity verifiers: generic grid, integer specializations, falsifiability."""

import hashlib
import json

import pytest

from qfib import identities, lattice, polyring, tiling
from qfib.cli import _det_report
from qfib.errors import CapacityError, DomainError, QfibError
from qfib.identities import (
    convolution_count,
    k_reduction_count,
    verify_convolution,
    verify_k_reduction,
    verify_recursion,
    verify_specializations,
)
from qfib.layered import SCHEMED_PAIRS, builtin_scheme
from qfib.polyring import Poly
from qfib.tiling import WeightScheme, corrupted_scheme, fibonacci_k, random_scheme


def _schemes(k):
    return [builtin_scheme(p, k) for p in SCHEMED_PAIRS] + [
        random_scheme(k, seed) for seed in (101, 102, 103)
    ]


def test_recursion_examples():
    assert verify_recursion(5, 2, builtin_scheme("inv-lp", 2)).passed
    # n=1: both sides are the single length-1 tile
    for w in _schemes(3):
        report = verify_recursion(1, 3, w)
        assert report.passed
        assert report.lhs == Poly.monomial(3, 1, (1, 0, 0), w.a(1))
    assert verify_recursion(7, 4, random_scheme(4, 55)).passed


def test_convolution_examples():
    assert verify_convolution(3, 4, 3, builtin_scheme("maj-lp", 3)).passed
    for w in _schemes(2):
        report = verify_convolution(1, 1, 2, w)
        assert report.passed
        assert report.lhs.n_terms == 2  # the two tilings of a 2-board


def test_convolution_counts():
    lhs, rhs = convolution_count(4, 4, 2)
    assert lhs == rhs == 34
    assert 34 == 25 + 9  # F_8 = F_4 F_4 + F_3 F_3


def test_k_reduction_examples():
    assert verify_k_reduction(6, 3, builtin_scheme("inv-prlp", 3)).passed
    # n = k: the sum degenerates to the single all-covering tile term
    for w in _schemes(3):
        assert verify_k_reduction(3, 3, w).passed


def test_k_reduction_counts():
    lhs, rhs = k_reduction_count(5, 2)
    assert lhs == rhs == 8
    assert 8 == 1 + (3 + 2 + 1 + 1)


def test_domain_errors():
    w = builtin_scheme("inv-lp", 2)
    with pytest.raises(DomainError):
        verify_convolution(0, 3, 2, w)
    with pytest.raises(DomainError):
        verify_k_reduction(4, 1, w)
    with pytest.raises(DomainError):
        verify_recursion(0, 2, w)


@pytest.mark.parametrize(
    "verify, count, args",
    [
        *((verify_convolution, convolution_count, (m, n, 2)) for m, n in ((0, 3), (3, 0), (-1, 1))),
        *((verify_k_reduction, k_reduction_count, (n, k)) for n, k in ((0, 2), (4, 1), (0, 1))),
    ],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v.__name__,
)
def test_verifier_and_count_share_one_domain_check(verify, count, args):
    # the polynomial verifier and its integer specialization refuse the
    # same arguments with the same message
    with pytest.raises(DomainError) as by_verify:
        verify(*args, builtin_scheme("inv-lp", args[-1]))
    with pytest.raises(DomainError) as by_count:
        count(*args)
    assert str(by_verify.value) == str(by_count.value)


def test_identity_grid_all_schemes():
    # the exhaustive acceptance grid runs m, n <= 8; keep a denser core here
    for k in (2, 3, 4):
        for w in _schemes(k):
            for n in range(1, 7):
                assert verify_recursion(n, k, w).passed, (k, n, w.name)
                assert verify_k_reduction(n, k, w).passed, (k, n, w.name)
            for m in range(1, 6):
                for n in range(1, 6):
                    assert verify_convolution(m, n, k, w).passed, (k, m, n, w.name)


def test_count_identities_on_grid():
    for k in (2, 3, 4):
        for m in range(1, 9):
            for n in range(1, 9):
                lhs, rhs = convolution_count(m, n, k)
                assert lhs == rhs == fibonacci_k(m + n, k)
        for n in range(1, 9):
            lhs, rhs = k_reduction_count(n, k)
            assert lhs == rhs == fibonacci_k(n, k)


def test_specializations_pass():
    for pair in SCHEMED_PAIRS:
        for k in (2, 3):
            reports = verify_specializations(pair, 5, k)
            assert reports
            bad = [r.describe() for r in reports if not r.passed]
            assert not bad, bad


def test_rb_lpi_identities_match_maj_lp():
    # same schemes means verbatim identical reports, polynomial for polynomial
    for n in range(1, 6):
        a = verify_recursion(n, 3, builtin_scheme("rb-lpi", 3))
        b = verify_recursion(n, 3, builtin_scheme("maj-lp", 3))
        assert a.lhs == b.lhs and a.rhs == b.rhs


# ----------------------------------------------------------------------
# the shared, value-keyed sum caches

_CACHES = (identities._plain, identities._front, identities._back)


@pytest.fixture
def cleared_caches():
    for f in _CACHES:
        f.cache_clear()


def _plain_misses():
    return identities._plain.cache_info().misses


def _verify_some(w, k):
    return [verify_recursion(n, k, w) for n in range(1, 7)] + [
        verify_convolution(m, n, k, w) for m in (1, 2, 3) for n in (1, 2, 3)
    ] + [verify_k_reduction(n, k, w) for n in range(2, 7)]


def test_sum_caches_are_one_set_under_the_identities_names():
    # callers clear the caches and read their hits through identities
    assert identities._plain is tiling._plain
    assert identities._front is tiling._front is lattice._front
    assert identities._back is tiling._back
    for f in _CACHES:
        assert callable(f.cache_clear)
        assert f.cache_info().maxsize == tiling._SUM_CACHE_SIZE


def test_equal_tables_share_sums_and_keep_their_names(cleared_caches):
    maj, rb = builtin_scheme("maj-lp", 3), builtin_scheme("rb-lpi", 3)
    assert maj == rb and hash(maj) == hash(rb)
    first = _verify_some(maj, 3)
    misses = _plain_misses()
    assert misses > 0
    second = _verify_some(rb, 3)
    # rb-lpi found every sum maj-lp left in the cache ...
    assert _plain_misses() == misses
    # ... and its reports still carry its own name
    assert {r.params["scheme"] for r in first} == {"maj-lp"}
    assert {r.params["scheme"] for r in second} == {"rb-lpi"}
    assert [(r.lhs, r.rhs) for r in first] == [(r.lhs, r.rhs) for r in second]


def test_corrupted_schemes_never_share_sums(cleared_caches):
    a, b = corrupted_scheme(3, seed=4), corrupted_scheme(3, seed=4)
    # each has its own exponent override, which compares by identity
    assert a != b
    assert a != random_scheme(3, 4)
    _verify_some(a, 3)
    misses = _plain_misses()
    _verify_some(b, 3)
    assert _plain_misses() == 2 * misses


def test_specializations_reuse_the_builtin_sums(cleared_caches):
    k, n_max = 3, 4
    w = builtin_scheme("maj-rlp", k)
    for n in range(1, 2 * n_max + 1):
        verify_recursion(n, k, w)
    for n in range(1, n_max + 1):
        verify_k_reduction(n, k, w)
    misses, hits = _plain_misses(), identities._plain.cache_info().hits
    # verify_specializations builds its own scheme object for the pair
    reports = verify_specializations("maj-rlp", n_max, k)
    assert all(r.passed for r in reports)
    assert _plain_misses() == misses
    assert identities._plain.cache_info().hits > hits


def test_sum_caches_are_bounded(cleared_caches):
    size = tiling._SUM_CACHE_SIZE
    for seed in range(size + 50):
        assert verify_recursion(1, 1, random_scheme(4, seed)).passed
    assert _plain_misses() > size
    for f in _CACHES:
        info = f.cache_info()
        assert info.currsize <= info.maxsize == size


def test_hot_paths_read_no_bounds_off_terms(cleared_caches, monkeypatch):
    # the sums, shifts, products and determinants of the verifiers all carry
    # bounds passed on by their operations, and the Poly window's tiles
    # are bare term dicts, so no value reads bounds off its terms
    reads = []
    read = polyring._read_bounds
    monkeypatch.setattr(
        polyring, "_read_bounds", lambda k, terms: reads.append(len(terms)) or read(k, terms)
    )
    k = 4
    for pair in ("maj-rlp", "inv-prlp"):
        w = builtin_scheme(pair, k)
        for n in range(1, 6):
            verify_recursion(n, k, w)
            verify_k_reduction(n, k, w)
            for m in range(1, 6):
                verify_convolution(m, n, k, w)
            lattice.determinant(lattice.build_minor(lattice.MinorSpec(n, k), w))
    assert reads == []
    q_sparse = WeightScheme.from_tables(3, (0, 0, 0), (0, 500, 1000), (1000, 7, 0))
    tiling.weighted_sum_recursive(30, 3, q_sparse)
    assert reads == []


def test_corrupted_scheme_fails_with_witness():
    bad = corrupted_scheme(3, seed=1)
    reports = [verify_recursion(n, 3, bad) for n in range(1, 7)]
    reports += [verify_convolution(m, n, 3, bad) for m in (1, 2, 3) for n in (1, 2, 3)]
    reports += [verify_k_reduction(n, 3, bad) for n in range(1, 7)]
    failures = [r for r in reports if not r.passed]
    assert failures, "verifiers accepted an incoherent scheme"
    assert all(r.witness for r in failures)
    assert "coefficient of" in failures[0].witness


def test_passing_reports_hold_one_polynomial():
    # a passing report keeps its left side for both sides; equal and
    # immutable, so lhs == rhs and every rendering are unchanged
    w = builtin_scheme("maj-rlp", 3)
    assert w.c(1) == w.c(2) == w.c(3) == 0
    reports = [verify_recursion(n, 3, w) for n in range(1, 6)]
    reports += [verify_convolution(m, n, 3, w) for m in (1, 2, 3) for n in (1, 2, 3)]
    reports += [verify_k_reduction(n, 3, w) for n in range(1, 6)]
    reports += [_det_report(n, 3, w) for n in (1, 2, 3)]
    reports += [r for pair in SCHEMED_PAIRS for r in verify_specializations(pair, 4, 3)]
    assert all(r.passed for r in reports)
    assert all(r.rhs is r.lhs for r in reports)


@pytest.mark.parametrize(
    "make, witness",
    [
        (lambda: verify_convolution(1, 2, 3, corrupted_scheme(3, 0)),
         "coefficient of z1^3*q^22: 1 != 0"),
        (lambda: _det_report(1, 2, builtin_scheme("inv-lp", 2)),
         "coefficient of z1^4*q^3: -1 != 0"),
    ],
    ids=["convolution-corrupted", "det-inv-lp"],
)
def test_failing_reports_keep_both_polynomials(make, witness):
    report = make()
    assert not report.passed
    assert report.witness == witness
    assert report.rhs is not report.lhs
    assert report.lhs != report.rhs
    assert f"FAIL ({witness})" in report.describe()


def test_a_report_renders_each_polynomial_once(monkeypatch):
    # a passing report holds one polynomial, so its JSON line renders it
    # once and writes the text on both sides; a failing one renders two
    calls = []
    to_json = Poly.to_json
    monkeypatch.setattr(Poly, "to_json", lambda p: calls.append(p) or to_json(p))
    passing = verify_recursion(6, 3, builtin_scheme("maj-rlp", 3))
    failing = _det_report(1, 2, builtin_scheme("inv-lp", 2))
    for report, renders in ((passing, 1), (failing, 2)):
        calls.clear()
        line = json.loads(report.to_json())
        assert len(calls) == renders
        assert Poly.from_json_dict(line["lhs"]) == report.lhs
        assert Poly.from_json_dict(line["rhs"]) == report.rhs


def test_specializations_keep_their_order_and_sides():
    # built and compared in turn, the reports come back as they did when
    # every right side was built first; the digest of the sides was taken
    # from that earlier build
    reports = verify_specializations("maj-rlp", 4, 4)
    ns = range(1, 5)
    expected = (
        [("recursion", {"n": n}) for n in ns]
        + [("convolution", {"m": m, "n": n}) for m in ns for n in ns]
        + [("kreduce", {"n": n}) for n in ns]
        + [("det", {"n": n}) for n in ns]
    )
    assert [(r.identity, r.params) for r in reports] == [
        (f"{name}-specialized", {"k": 4, "scheme": "maj-rlp", **params})
        for name, params in expected
    ]
    text = "\n".join(
        f"{r.identity} {sorted(r.params.items())} {r.passed} {r.witness} "
        f"{r.lhs.to_json()} {r.rhs.to_json()}"
        for r in reports
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c946deb204c36058c176652ae0b8d76743b3d88a9f123144c147a1041fc155b5"
    )


def test_report_json_shape():
    report = verify_recursion(3, 2, builtin_scheme("maj-lp", 2))
    data = report.to_json_dict()
    assert data["verdict"] == "pass"
    assert data["witness"] is None
    assert data["params"] == {"k": 2, "n": 3, "scheme": "maj-lp"}
    assert Poly.from_json_dict(data["lhs"]) == report.lhs


# ----------------------------------------------------------------------
# the table of specialized closed forms


def _mutants(row):
    """One wrong value per column of a _SPECIAL row."""
    f, c, front, det = row
    yield "f+1 at i=2", row._replace(f=lambda i, s, t: f(i, s, t) + (i == 2))
    yield "c flipped", row._replace(c=1 - c)
    yield "z_1 front off by m", row._replace(
        front=lambda j: (front(j) if front else 0) + (j == 1)
    )
    yield "det+1", row._replace(det=lambda N, k, p, r: det(N, k, p, r) + 1)


def test_unknown_pair_has_no_specialized_forms(monkeypatch):
    monkeypatch.delitem(identities._SPECIAL, "maj-rlp")
    with pytest.raises(DomainError, match="no specialized forms for maj-rlp"):
        verify_specializations("maj-rlp", 3, 2)


@pytest.mark.parametrize("pair", [str(p) for p in SCHEMED_PAIRS])
def test_every_wrong_table_value_fails_a_specialization(monkeypatch, pair):
    row = identities._SPECIAL[pair]
    for label, mutant in _mutants(row):
        monkeypatch.setitem(identities._SPECIAL, pair, mutant)
        caught = any(
            not r.passed and r.witness
            for k in (2, 3, 4)
            for r in verify_specializations(pair, 5, k)
        )
        assert caught, f"{pair}: {label} passed every check"


# ----------------------------------------------------------------------
# the right-side builders against the same sums written with Poly operators


def _zmono(w, i, e):
    return Poly.monomial(w.k, 1, [int(j == i) for j in range(1, w.k + 1)], e)


def _poly_recursion_rhs(w, n, k, tile, front):
    rhs = Poly.zero(w.k)
    for i in range(1, min(k, n) + 1):
        rhs = rhs + _zmono(w, i, tile(i, 1, n - i)) * front(n - i, k, w, i)
    return rhs


def _poly_convolution_rhs(w, m, n, k, tile, front, back):
    rhs = back(m, k, w, n) * front(n, k, w, m)
    for i in range(2, k + 1):
        for j in range(1, i):
            if m - j >= 0 and n - i + j >= 0:
                crossing = _zmono(w, i, tile(i, m - j + 1, n - i + j))
                rhs = rhs + crossing * back(m - j, k, w, n + j) * front(n - i + j, k, w, m + i - j)
    return rhs


def _poly_k_reduction_rhs(w, n, k, tile, front, back):
    rhs = back(n, k - 1, w, 0)
    for j in range(0, n - k + 1):
        first_k_tile = _zmono(w, k, tile(k, j + 1, n - k - j))
        rhs = rhs + first_k_tile * back(j, k - 1, w, n - j) * front(n - k - j, k, w, k + j)
    return rhs


_POLY_BUILDERS = {
    "_recursion_rhs": _poly_recursion_rhs,
    "_convolution_rhs": _poly_convolution_rhs,
    "_k_reduction_rhs": _poly_k_reduction_rhs,
}


def _builder_schemes():
    return (
        [(builtin_scheme(p, k), k) for k in (2, 3, 4) for p in SCHEMED_PAIRS]
        + [(random_scheme(2 + seed % 3, seed), 2 + seed % 3) for seed in range(20)]
        + [(corrupted_scheme(2 + seed % 3, seed), 2 + seed % 3) for seed in range(5)]
    )


def _all_reports(w, k):
    reports = [verify_recursion(n, k, w) for n in range(1, 6)]
    reports += [verify_convolution(m, n, k, w) for m in range(1, 5) for n in range(1, 5)]
    reports += [verify_k_reduction(n, k, w) for n in range(1, 6)]
    if w.name in identities._SPECIAL:
        reports += verify_specializations(w.name, 4, k)
    return [
        (r.identity, r.params, r.passed, r.witness, r.lhs._terms, r.rhs._terms, r.rhs._bounds)
        for r in reports
    ]


def test_reports_equal_those_of_the_poly_operator_sums(monkeypatch):
    schemes = _builder_schemes()
    built = [_all_reports(w, k) for w, k in schemes]
    for name, poly_builder in _POLY_BUILDERS.items():
        monkeypatch.setattr(identities, name, poly_builder)
    assert built == [_all_reports(w, k) for w, k in schemes]
    assert any(not passed for reports in built for _, _, passed, *_ in reports)


def test_builders_equal_the_poly_operator_sums_bounds_included():
    # a passing report keeps only its left side, so the right sides' degree
    # bounds are compared on the builders themselves
    for w, k in _builder_schemes():
        sides = [(w.qexp, identities._front, identities._back)]
        if w.name in identities._SPECIAL:
            sides.append(identities._special_sides(identities._SPECIAL[w.name]))
        for tile, front, back in sides:
            calls = [("_recursion_rhs", (w, n, k, tile, front)) for n in range(1, 6)]
            calls += [
                ("_convolution_rhs", (w, m, n, k, tile, front, back))
                for m in range(1, 5)
                for n in range(1, 5)
            ]
            calls += [("_k_reduction_rhs", (w, n, k, tile, front, back)) for n in range(1, 6)]
            for name, args in calls:
                got, want = getattr(identities, name)(*args), _POLY_BUILDERS[name](*args)
                assert (got._terms, got._bounds) == (want._terms, want._bounds), (name, args[1:3])


def _recorded(w, tile_exp):
    """tile, front and back sides that log each call; tile returns tile_exp(i)."""
    log = []

    def tile(i, s, t):
        log.append(("tile", i, s, t))
        return tile_exp(i)

    def front(x, kcap, w, m):
        log.append(("front", x, m))
        return identities._front(x, kcap, w, m)

    def back(x, kcap, w, t):
        log.append(("back", x, t))
        return identities._back(x, kcap, w, t)

    return log, tile, front, back


def _failure(builder, w, args, tile_exp):
    """The error class, message and call log of one builder run that fails."""
    log, tile, front, back = _recorded(w, tile_exp)
    sides = (tile, front) if builder.__name__.endswith("recursion_rhs") else (tile, front, back)
    with pytest.raises(QfibError) as info:
        builder(w, *args, *sides)
    return type(info.value), str(info.value), log


_Q_MASK = polyring.Q_MASK
_NO_TILE_EXPONENT = [
    (lambda i: -1, "InvalidShiftError", "q exponent must be a nonnegative int, got -1"),
    (lambda i: True, "InvalidShiftError", "q exponent must be a nonnegative int, got True"),
    (lambda i: 2.0, "InvalidShiftError", "q exponent must be a nonnegative int, got 2.0"),
    (lambda i: _Q_MASK + 1, "CapacityError",
     f"q exponent {_Q_MASK + 1} exceeds field capacity {_Q_MASK}"),
]


@pytest.mark.parametrize("name", sorted(_POLY_BUILDERS))
@pytest.mark.parametrize("tile_exp, cls, message", _NO_TILE_EXPONENT)
def test_a_bad_tile_exponent_fails_as_a_monomial_does(name, tile_exp, cls, message):
    w = builtin_scheme("maj-rlp", 3)
    args = (2, 3, 3) if name == "_convolution_rhs" else (3, 3)
    got = _failure(getattr(identities, name), w, args, tile_exp)
    assert got == _failure(_POLY_BUILDERS[name], w, args, tile_exp)
    assert (got[0].__name__, got[1]) == (cls, message)
    # the exponent is refused before the back shift it multiplies is made
    assert got[2][-1][0] == "tile"


def test_products_past_capacity_fail_where_the_poly_products_did():
    full = lambda i: _Q_MASK  # noqa: E731 -- fits a monomial, not a product
    cases = [
        # z_1 q^(2^32-1) * F_2(z s-_1): the first product
        ("maj-rlp", identities._recursion_rhs, (3, 3), "front", 3, 4294967297),
        # z_2 q^(2^32-1) * F_1(z s+_3) fails before its front sum is made ...
        ("inv-lp", identities._convolution_rhs, (2, 2, 3), "back", 2, 4294967298),
        ("inv-lp", identities._k_reduction_rhs, (4, 3), "back", 2, 4294967298),
        # ... and z_2 q^(2^32-1) * F_0(z s+_3) fits, but not times F_1(z s-_2)
        ("maj-lp", identities._convolution_rhs, (1, 2, 3), "front", 2, 4294967297),
        ("maj-lp", identities._k_reduction_rhs, (4, 3), "front", 2, 4294967298),
    ]
    for pair, builder, args, last, zb, qb in cases:
        w = builtin_scheme(pair, 3)
        got = _failure(builder, w, args, full)
        assert got == _failure(_POLY_BUILDERS[builder.__name__], w, args, full)
        assert got[:2] == (
            CapacityError, f"degree bounds (z<= {zb}, q<= {qb}) exceed packed-key capacity"
        )
        assert got[2][-1][0] == last, (pair, builder.__name__)


def test_a_tile_past_the_ring_fails_where_the_poly_sums_did():
    # an exponent override answers for a tile of length k + 1, whose
    # monomial had no z factor; the front sum then refuses the tile cap
    w = WeightScheme.from_tables(2, (0, 0), (1, 1), (0, 0), exponent=lambda i, s, t: s - 1)
    got = _failure(identities._k_reduction_rhs, w, (4, 3), lambda i: 1)
    assert got == _failure(_poly_k_reduction_rhs, w, (4, 3), lambda i: 1)
    assert got[:2] == (DomainError, "tile length cap 3 exceeds the scheme's declared maximum 2")
    assert [call[0] for call in got[2]] == ["back", "tile", "back", "front"]
