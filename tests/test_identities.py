"""Identity verifiers: generic grid, integer specializations, falsifiability."""

import pytest

from qfib import identities, lattice, polyring, tiling
from qfib.errors import DomainError
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
    # bounds passed on by their operations; only values built from bare
    # terms read theirs, as the one-term tiles of the Poly window do
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
    assert reads and set(reads) == {1}


def test_corrupted_scheme_fails_with_witness():
    bad = corrupted_scheme(3, seed=1)
    reports = [verify_recursion(n, 3, bad) for n in range(1, 7)]
    reports += [verify_convolution(m, n, 3, bad) for m in (1, 2, 3) for n in (1, 2, 3)]
    reports += [verify_k_reduction(n, 3, bad) for n in range(1, 7)]
    failures = [r for r in reports if not r.passed]
    assert failures, "verifiers accepted an incoherent scheme"
    assert all(r.witness for r in failures)
    assert "coefficient of" in failures[0].witness


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
