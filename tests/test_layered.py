"""Layered objects, statistics, distributions, and weight schemes.

The family tests use independent membership predicates over all of S_n (or
all set partitions of [n]) as oracles, never the package's own bijections.
"""

import itertools

import pytest

from qfib.errors import DomainError, UnsupportedSchemeError
from qfib.layered import (
    FAMILIES,
    PAIRS,
    SCHEMED_PAIRS,
    STATISTICS,
    StatPair,
    builtin_scheme,
    distribution,
    enumerate_family,
    format_partition,
    format_permutation,
    inv,
    layer_lengths,
    ls,
    maj,
    rb,
    tiling_to_lp,
    tiling_to_partition,
    tiling_to_prlp,
    tiling_to_rlp,
)
from qfib.polyring import Poly
from qfib.tiling import Tiling, enumerate_tilings, fibonacci_k, weighted_sum_enumerative


# ----------------------------------------------------------------------
# statistic anchors


def test_inv_examples():
    assert inv((4, 5, 3, 6, 1, 2)) == 10
    assert inv((1, 2, 3, 4)) == 0
    assert inv((4, 3, 2, 1)) == 6


def test_maj_examples():
    assert maj((4, 5, 3, 6, 1, 2)) == 6
    assert maj((1, 2, 3, 4)) == 0
    assert maj((4, 3, 2, 1)) == 6  # descents at 1, 2, 3


def test_length_one_statistics():
    assert inv((1,)) == 0 and maj((1,)) == 0


def test_rb_examples():
    assert rb(((1,), (2, 3))) == 1
    assert rb(((1, 2, 3),)) == 0
    assert rb(((1,), (2,), (3, 4))) == 3


def test_ls_examples():
    assert ls(((1,), (2, 3))) == 2
    assert ls(((1, 2, 3),)) == 0
    assert ls(((1, 2), (3,))) == 1


# ----------------------------------------------------------------------
# bijections and listings


def test_lp_examples():
    assert tiling_to_lp(Tiling((1, 2, 1))) == (4, 2, 3, 1)
    assert tiling_to_lp(Tiling((4,))) == (1, 2, 3, 4)


def test_family_listings_n4():
    lp4 = {format_permutation(p) for p in enumerate_family("lp", 4, 4)}
    assert lp4 == {"1234", "2341", "3412", "3421", "4123", "4231", "4312", "4321"}
    rlp4 = {format_permutation(p) for p in enumerate_family("rlp", 4, 4)}
    assert rlp4 == {"4321", "1432", "2143", "1243", "3214", "1324", "2134", "1234"}
    prlp4 = {format_permutation(p) for p in enumerate_family("prlp", 4, 4)}
    assert prlp4 == {"3214", "3241", "3412", "3421", "4213", "4231", "4312", "4321"}
    lpi42 = {format_partition(b) for b in enumerate_family("lpi", 4, 2)}
    assert lpi42 == {"12/34", "1/2/34", "1/23/4", "12/3/4", "1/2/3/4"}


def test_rlp_single_examples():
    assert tiling_to_rlp(Tiling((2, 2))) == (2, 1, 4, 3)
    assert tiling_to_rlp(Tiling((4,))) == (4, 3, 2, 1)


def test_prlp_single_examples():
    assert tiling_to_prlp(Tiling((3, 1))) == (3, 2, 4, 1)
    assert tiling_to_prlp(Tiling((1, 1, 1))) == (3, 2, 1)


def test_partition_examples():
    assert tiling_to_partition(Tiling((2, 2))) == ((1, 2), (3, 4))
    assert tiling_to_partition(Tiling((4,))) == ((1, 2, 3, 4),)


def test_reversal_consistency():
    for n in range(0, 8):
        for t in enumerate_tilings(n, 3):
            assert tiling_to_rlp(t) == tuple(reversed(tiling_to_lp(t)))


def test_bijections_are_injective_with_fibonacci_count():
    for n in range(0, 11):
        for k in (2, 3, 4):
            count = fibonacci_k(n, k)
            for family in ("lp", "rlp", "prlp", "lpi"):
                image = set(enumerate_family(family, n, k))
                assert len(image) == count, (family, n, k)


# ----------------------------------------------------------------------
# independent membership oracles over all of S_n / all partitions


def _is_interval(values):
    return sorted(values) == list(range(min(values), max(values) + 1))


def _is_lp(word, k):
    if not word:
        return True
    runs = []
    start = 0
    for i in range(1, len(word)):
        if word[i] < word[i - 1]:
            runs.append(word[start:i])
            start = i
    runs.append(word[start:])
    for run in runs:
        if len(run) > k or not _is_interval(run) or list(run) != sorted(run):
            return False
    return all(min(runs[i]) > max(runs[i + 1]) for i in range(len(runs) - 1))


def _is_rlp(word, k):
    return _is_lp(tuple(reversed(word)), k)


def _is_prlp(word, k):
    while word:
        top = max(word)
        length = word.index(top) + 1
        if length > k:
            return False
        layer = word[:length]
        if not _is_interval(layer) or layer[-1] != top:
            return False
        if list(layer[:-1]) != sorted(layer[:-1], reverse=True):
            return False
        rest = word[length:]
        if rest and max(rest) >= min(layer):
            return False
        word = rest
    return True


def _all_set_partitions(n):
    if n == 0:
        yield ()
        return
    for smaller in _all_set_partitions(n - 1):
        for i in range(len(smaller)):
            yield tuple(
                tuple(sorted(b + (n,))) if i == j else b for j, b in enumerate(smaller)
            )
        yield smaller + ((n,),)


def _is_layered_partition(blocks, k):
    blocks = sorted(blocks, key=min)
    expected_start = 1
    for b in blocks:
        if len(b) > k or not _is_interval(b) or min(b) != expected_start:
            return False
        expected_start += len(b)
    return True


@pytest.mark.parametrize("k", [2, 3])
def test_families_equal_filtered_symmetric_group(k):
    predicates = {"lp": _is_lp, "rlp": _is_rlp, "prlp": _is_prlp}
    for n in range(0, 7):
        s_n = list(itertools.permutations(range(1, n + 1)))
        for family, pred in predicates.items():
            ours = set(enumerate_family(family, n, k))
            brute = {p for p in s_n if pred(p, k)}
            assert ours == brute, (family, n, k)


@pytest.mark.parametrize("k", [2, 3])
def test_partition_family_equals_filtered_partitions(k):
    for n in range(0, 7):
        ours = {tuple(b) for b in enumerate_family("lpi", n, k)}
        brute = {
            tuple(sorted(blocks, key=min))
            for blocks in _all_set_partitions(n)
            if _is_layered_partition(blocks, k)
        }
        assert ours == brute, (n, k)


# ----------------------------------------------------------------------
# distributions


def test_distribution_examples():
    assert distribution("maj-lp", 3, 2) == Poly.parse(
        "z1^3*q^3 + z1*z2*q + z1*z2*q^2", 2
    )
    assert distribution("inv-rlp", 3, 2) == Poly.parse("z1^3 + 2*z1*z2*q", 2)
    for pair in SCHEMED_PAIRS:
        k = 2 if pair.family != "lpi" else 2
        assert distribution(pair, 0, k) == Poly.one(k)


def test_distribution_rejects_invalid_pair():
    with pytest.raises(DomainError):
        distribution("inv-lpi", 3, 2)
    with pytest.raises(DomainError):
        StatPair("rb", "lp")


def test_distribution_matches_brute_force():
    # brute force: filter S_n / partitions, compute profile and statistic
    from qfib.layered import _STAT_FNS

    predicates = {"lp": _is_lp, "rlp": _is_rlp, "prlp": _is_prlp}
    for pair in SCHEMED_PAIRS + (StatPair("ls", "lpi"),):
        for n in range(0, 7):
            k = 3
            expected = Poly.zero(k)
            if pair.family == "lpi":
                objects = [
                    tuple(sorted(blocks, key=min))
                    for blocks in _all_set_partitions(n)
                    if _is_layered_partition(blocks, k)
                ]
            else:
                objects = [
                    p
                    for p in itertools.permutations(range(1, n + 1))
                    if predicates[pair.family](p, k)
                ]
            for obj in objects:
                counts = [0] * k
                for length in layer_lengths(pair.family, obj):
                    counts[length - 1] += 1
                expected = expected + Poly.monomial(
                    k, 1, counts, _STAT_FNS[pair.stat](obj)
                )
            assert distribution(pair, n, k) == expected, (str(pair), n)


def test_distribution_equals_weighted_sums():
    for pair in SCHEMED_PAIRS:
        for k in (2, 3):
            w = builtin_scheme(pair, k)
            for n in range(0, 9):
                assert distribution(pair, n, k) == weighted_sum_enumerative(n, k, w)


def test_ls_rb_equidistribution_with_profiles():
    # composition reversal swaps the two statistics blockwise, so the joint
    # (profile, statistic) distributions coincide
    for n in range(0, 9):
        for k in (2, 3, 4):
            assert distribution("ls-lpi", n, k) == distribution("rb-lpi", n, k)


def test_ls_equals_rb_of_reversed_composition():
    for n in range(0, 9):
        for t in enumerate_tilings(n, 3):
            reversed_t = Tiling(tuple(reversed(t.parts)))
            assert ls(tiling_to_partition(t)) == rb(tiling_to_partition(reversed_t))


# ----------------------------------------------------------------------
# built-in schemes


def test_builtin_scheme_spot_values():
    inv_lp = builtin_scheme("inv-lp", 4)
    assert inv_lp.qexp(3, 2, 4) == 12
    maj_rlp = builtin_scheme("maj-rlp", 4)
    assert maj_rlp.qexp(2, 1, 0) == 1
    rb_lpi = builtin_scheme("rb-lpi", 4)
    maj_lp = builtin_scheme("maj-lp", 4)
    for i in (1, 2, 3, 4):
        assert (rb_lpi.a(i), rb_lpi.b(i), rb_lpi.c(i)) == (
            maj_lp.a(i),
            maj_lp.b(i),
            maj_lp.c(i),
        )


def test_maj_prlp_front_shift_includes_singletons():
    # a singleton layer after position 1 sits below a descent, so its front
    # shift exponent is 1, not i-1 = 0
    w = builtin_scheme("maj-prlp", 4)
    assert [w.b(i) for i in (1, 2, 3, 4)] == [1, 1, 2, 3]


def test_pair_catalog():
    assert [str(p) for p in PAIRS] == [
        "inv-lp", "inv-rlp", "inv-prlp", "maj-lp", "maj-rlp", "maj-prlp", "rb-lpi", "ls-lpi"
    ]
    assert STATISTICS == ("inv", "maj", "rb", "ls")
    assert FAMILIES == ("lp", "rlp", "prlp", "lpi")
    assert SCHEMED_PAIRS == PAIRS[:-1]
    assert {builtin_scheme(p, 3).name for p in SCHEMED_PAIRS} == set(map(str, SCHEMED_PAIRS))
    names = {str(p) for p in PAIRS}
    for stat, family in itertools.product(STATISTICS, FAMILIES):
        if f"{stat}-{family}" not in names:
            with pytest.raises(DomainError):
                StatPair(stat, family)


def test_ls_has_no_scheme():
    with pytest.raises(UnsupportedSchemeError):
        builtin_scheme(StatPair("ls", "lpi"), 3)


def test_serialization_of_wide_objects():
    assert format_permutation((4, 2, 3, 1)) == "4231"
    word = tiling_to_lp(Tiling((10, 2)))
    assert format_permutation(word) == "3 4 5 6 7 8 9 10 11 12 1 2"
    assert format_partition(((1, 2), (3,))) == "12/3"
    blocks = tiling_to_partition(Tiling((9, 3)))
    assert format_partition(blocks) == "1,2,3,4,5,6,7,8,9/10,11,12"
