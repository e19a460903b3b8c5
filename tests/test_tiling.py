"""Tilings, k-Fibonacci counts, weighted sums, and scheme validation."""

import pytest

from qfib.errors import CapacityError, DomainError
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


def test_recursive_equals_enumerative():
    pairs = ("inv-lp", "inv-rlp", "inv-prlp", "maj-lp", "maj-rlp", "maj-prlp", "rb-lpi")
    schemes = [builtin_scheme(p, 4) for p in pairs]
    schemes += [random_scheme(4, seed) for seed in (7, 8, 9)]
    for w in schemes:
        for n in range(0, 13):
            for app in (AppendSpec(), AppendSpec(2, 0), AppendSpec(0, 3), AppendSpec(1, 1)):
                assert weighted_sum_enumerative(n, 4, w, app) == weighted_sum_recursive(
                    n, 4, w, app
                ), (w.name, n, app)


def test_sum_equals_naive_per_tiling_sum():
    # the kernel accumulates tiling weights in one pass; cross-check against
    # the definition as a sum of tiling_weight values
    w = random_scheme(3, 42)
    for n in range(0, 9):
        naive = Poly.zero(3)
        for t in enumerate_tilings(n, 3):
            naive = naive + tiling_weight(t, w, (1, 2))
        assert weighted_sum_enumerative(n, 3, w, (1, 2)) == naive


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
    q_cap, z_cap = (1 << 32) - 1, (1 << 16) - 1
    for a, n in (((q_cap + 1,), 1), (((q_cap + 1) // 2,), 2)):
        with pytest.raises(CapacityError):
            weighted_sum_enumerative(n, 1, WeightScheme.from_tables(1, a, (0,), (0,)))
    with pytest.raises(CapacityError):
        weighted_sum_enumerative(z_cap + 1, 1, builtin_scheme("maj-lp", 1))
    with pytest.raises(CapacityError):
        weighted_sum_enumerative(1, 1, WeightScheme.from_tables(1, (q_cap,), (0,), (1,)), (0, 1))
    edge = WeightScheme.from_tables(1, (q_cap,), (0,), (0,))
    assert weighted_sum_enumerative(1, 1, edge) == Poly.monomial(1, 1, (1,), q_cap)
    # The bound is the largest exponent of an actual tiling, not n times the
    # largest tile exponent: 3e9 on 2-tiles reaches 3e9 on a 3-board.
    long_tiles = WeightScheme.from_tables(2, (0, 3 * 10**9), (0, 0), (0, 0))
    assert weighted_sum_enumerative(3, 2, long_tiles) == weighted_sum_recursive(
        3, 2, long_tiles
    )


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


def test_random_scheme_is_deterministic():
    a, b = random_scheme(3, 11), random_scheme(3, 11)
    assert [a.a(i) for i in (1, 2, 3)] == [b.a(i) for i in (1, 2, 3)]
    assert [a.b(i) for i in (1, 2, 3)] == [b.b(i) for i in (1, 2, 3)]
    assert [a.c(i) for i in (1, 2, 3)] == [b.c(i) for i in (1, 2, 3)]
