"""Layered permutations, layered set partitions, and their statistics.

A layered permutation (family "lp") is a concatenation of increasing runs of
consecutive values, each run sitting above every later run: 4231 has layers
4, 23, 1.  Reversing the whole word gives the reverse layered permutations
("rlp"); reversing all but the last element inside each layer gives the
partially reversed layered permutations ("prlp").  A layered set partition
(family "lpi") splits 1..n into consecutive intervals: 12/3/4.  In every
family, the layer lengths read left to right form a composition of n, so the
objects with layers of length at most k are in bijection with tilings of an
n-board and are counted by the k-Fibonacci numbers.

The statistics computed here use the literal quadratic-time definitions, on
purpose: they are the correctness anchors against which the tile-local weight
schemes are validated.

    inv  - number of pairs i < j with word[i] > word[j]
    maj  - sum of positions i with word[i] > word[i+1]
    rb   - pairs (b, B_j): element b in an earlier block with b < max(B_j)
    ls   - pairs (b, B_i): element b in a later block with b > min(B_i)

Permutations serialize as one-line words ("4231"; values above 9 are space
separated), partitions in slash notation ("12/3/4"; elements above 9 comma
separated inside a block).
"""

from dataclasses import dataclass

from .errors import DomainError, UnsupportedSchemeError
from .polyring import Poly
from .tiling import Tiling, WeightScheme, enumerate_tilings

__all__ = [
    "FAMILIES",
    "PAIRS",
    "SCHEMED_PAIRS",
    "STATISTICS",
    "StatPair",
    "builtin_scheme",
    "distribution",
    "enumerate_family",
    "format_object",
    "format_partition",
    "format_permutation",
    "inv",
    "layer_lengths",
    "ls",
    "maj",
    "object_statistic",
    "rb",
    "tiling_to_lp",
    "tiling_to_partition",
    "tiling_to_prlp",
    "tiling_to_rlp",
]


# ----------------------------------------------------------------------
# statistics (oracle definitions)


def inv(word) -> int:
    """Number of inverted pairs, by direct pair scan."""
    word = tuple(word)
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def maj(word) -> int:
    """Major index: sum of descent positions (1-based)."""
    word = tuple(word)
    return sum(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def rb(blocks) -> int:
    """Right-bigger pairs of a set partition, by direct scan."""
    blocks = [tuple(b) for b in blocks]
    total = 0
    for j in range(len(blocks)):
        biggest = max(blocks[j])
        for i in range(j):
            total += sum(1 for b in blocks[i] if b < biggest)
    return total


def ls(blocks) -> int:
    """Left-smaller pairs of a set partition, by direct scan."""
    blocks = [tuple(b) for b in blocks]
    total = 0
    for i in range(len(blocks)):
        smallest = min(blocks[i])
        for j in range(i + 1, len(blocks)):
            total += sum(1 for b in blocks[j] if b > smallest)
    return total


# ----------------------------------------------------------------------
# tiling -> object bijections


def tiling_to_lp(t: Tiling) -> tuple[int, ...]:
    """Layers take the tile lengths left to right; each layer is increasing
    and sits above all later layers."""
    word = []
    hi = t.n
    for length in t.parts:
        word.extend(range(hi - length + 1, hi + 1))
        hi -= length
    return tuple(word)


def tiling_to_rlp(t: Tiling) -> tuple[int, ...]:
    """Elementwise reversal of the layered permutation."""
    return tiling_to_lp(t)[::-1]


def tiling_to_prlp(t: Tiling) -> tuple[int, ...]:
    """Layered permutation with all but the last element of each layer
    reversed, so a layer of length i decreases and ends at its maximum."""
    word = []
    hi = t.n
    for length in t.parts:
        layer = list(range(hi - length + 1, hi + 1))
        word.extend(layer[-2::-1])
        word.append(layer[-1])
        hi -= length
    return tuple(word)


def tiling_to_partition(t: Tiling) -> tuple[tuple[int, ...], ...]:
    """Consecutive intervals with the tile lengths, in order."""
    blocks = []
    start = 1
    for length in t.parts:
        blocks.append(tuple(range(start, start + length)))
        start += length
    return tuple(blocks)


# ----------------------------------------------------------------------
# layer profiles read off the objects themselves


def _increasing_runs(word):
    runs = []
    start = 0
    for i in range(1, len(word)):
        if word[i] < word[i - 1]:
            runs.append(i - start)
            start = i
    if word:
        runs.append(len(word) - start)
    return runs


def _prlp_runs(word):
    # Each layer ends at its maximum, and the first layer holds the top
    # values, so the first layer ends where the running maximum sits.
    runs = []
    start = 0
    while start < len(word):
        rest = word[start:]
        length = rest.index(max(rest)) + 1
        runs.append(length)
        start += length
    return runs


def layer_lengths(family: str, obj) -> list[int]:
    """Layer profile of an object, derived from the object itself."""
    if family == "lp":
        return _increasing_runs(obj)
    if family == "rlp":
        return _increasing_runs([-x for x in obj])  # the decreasing runs
    if family == "prlp":
        return _prlp_runs(obj)
    if family == "lpi":
        return [len(b) for b in obj]
    raise DomainError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# statistic/family pairs

# Every statistic/family pair, in the order PAIRS, STATISTICS and FAMILIES take.
_CATALOG = (
    ("inv", "lp"),
    ("inv", "rlp"),
    ("inv", "prlp"),
    ("maj", "lp"),
    ("maj", "rlp"),
    ("maj", "prlp"),
    ("rb", "lpi"),
    ("ls", "lpi"),
)
STATISTICS = tuple(dict.fromkeys(stat for stat, _ in _CATALOG))
FAMILIES = tuple(dict.fromkeys(family for _, family in _CATALOG))


@dataclass(frozen=True)
class StatPair:
    """A statistic paired with the family it is distributed over."""

    stat: str
    family: str

    def __post_init__(self):
        if (self.stat, self.family) not in _CATALOG:
            raise DomainError(
                f"unsupported statistic/family pair {self.stat}-{self.family}"
            )

    @classmethod
    def parse(cls, text) -> "StatPair":
        if isinstance(text, StatPair):
            return text
        stat, sep, family = str(text).partition("-")
        if not sep:
            raise DomainError(f"expected STAT-FAMILY, got {text!r}")
        return cls(stat, family)

    def __str__(self):
        return f"{self.stat}-{self.family}"


PAIRS = tuple(StatPair(stat, family) for stat, family in _CATALOG)


def _zero(i: int) -> int:
    return 0


def _ch2(m: int) -> int:
    return m * (m - 1) // 2


# The (A, B, C) tables of the pairs with a tile-local weight scheme (all but
# ls-lpi); builtin_scheme gives the exponents they make.
_SCHEME_TABLES = {
    ("inv", "lp"): (_zero, _zero, lambda i: i),
    ("inv", "rlp"): (_ch2, _zero, _zero),
    ("inv", "prlp"): (lambda i: _ch2(i - 1), _zero, lambda i: i),
    ("maj", "lp"): (_zero, lambda i: 1, _zero),
    ("maj", "rlp"): (_ch2, lambda i: i - 1, _zero),
    ("maj", "prlp"): (lambda i: _ch2(i - 1), lambda i: max(i - 1, 1), _zero),
    ("rb", "lpi"): (_zero, lambda i: 1, _zero),
}
SCHEMED_PAIRS = tuple(p for p in PAIRS if (p.stat, p.family) in _SCHEME_TABLES)

_BUILDERS = {
    "lp": tiling_to_lp,
    "rlp": tiling_to_rlp,
    "prlp": tiling_to_prlp,
    "lpi": tiling_to_partition,
}

_STAT_FNS = {"inv": inv, "maj": maj, "rb": rb, "ls": ls}


def enumerate_family(family: str, n: int, k: int):
    """Objects of a family for layer lengths <= k, in tiling-lex order."""
    if family not in _BUILDERS:
        raise DomainError(f"unknown family {family!r}")
    build = _BUILDERS[family]
    for t in enumerate_tilings(n, k):
        yield build(t)


def object_statistic(pair, obj) -> int:
    pair = StatPair.parse(pair)
    return _STAT_FNS[pair.stat](obj)


def distribution(pair, n: int, k: int) -> Poly:
    """Joint distribution: sum over the family of
    (product of z_(layer length)) * q^statistic, built from explicit objects.

    Layer profiles and statistic values are both read off the objects, never
    off a weight scheme, so this is an independent oracle for the weighted
    tiling sums.
    """
    pair = StatPair.parse(pair)
    if n < 0:
        return Poly.zero(k)
    stat_fn = _STAT_FNS[pair.stat]

    def term(obj):
        counts = [0] * k
        for length in layer_lengths(pair.family, obj):
            counts[length - 1] += 1
        return 1, counts, stat_fn(obj)

    return Poly.from_monomials(k, map(term, enumerate_family(pair.family, n, k)))


def builtin_scheme(pair, k: int) -> WeightScheme:
    """The tile-local weight scheme whose weighted tiling sum equals the
    statistic's distribution.

    Exponent tables, with ch2(m) = m(m-1)/2:

        inv-lp    f = i*tau
        inv-rlp   f = ch2(i)
        inv-prlp  f = ch2(i-1) + i*tau
        maj-lp    f = (sigma-1)
        maj-rlp   f = ch2(i) + (i-1)(sigma-1)
        maj-prlp  f = ch2(i-1) + (i-1)(sigma-1), except that a layer of
                  length 1 still sits below the descent out of the previous
                  layer, so B(1) = 1 rather than 0.
        rb-lpi    f = (sigma-1), identical to maj-lp

    ls has no tile-local scheme: the ls count of a block depends on how many
    blocks precede it, which is not a function of (i, sigma, tau).
    """
    pair = StatPair.parse(pair)
    tables = _SCHEME_TABLES.get((pair.stat, pair.family))
    if tables is None:
        raise UnsupportedSchemeError(f"{pair} has no tile-local weight scheme")
    return WeightScheme(k, *tables, name=str(pair))


# ----------------------------------------------------------------------
# serialization


def format_permutation(word) -> str:
    word = tuple(word)
    if word and max(word) > 9:
        return " ".join(str(v) for v in word)
    return "".join(str(v) for v in word)


def format_partition(blocks) -> str:
    blocks = [tuple(b) for b in blocks]
    flat = [v for b in blocks for v in b]
    sep = "," if flat and max(flat) > 9 else ""
    return "/".join(sep.join(str(v) for v in b) for b in blocks)


def format_object(family: str, obj) -> str:
    if family == "lpi":
        return format_partition(obj)
    return format_permutation(obj)
