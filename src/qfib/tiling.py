"""Boards, tilings, k-Fibonacci numbers, and weighted tiling sums.

A tiling of an n x 1 board by tiles of length at most k is an ordered
composition of n into parts <= k.  With F_0 = 1 and F_n = 0 for n < 0, the
number of such tilings satisfies the k-Fibonacci recursion
F_n = F_{n-1} + ... + F_{n-k}.

A weight scheme assigns a tile of length i starting at position sigma with
tau cells after it the monomial weight z_i * q^f(i, sigma, tau).  The schemes
used throughout are separable, f = A(i) + B(i)(sigma-1) + C(i)tau, which is
exactly the shape for which appending an untiled m-board in front (behind)
multiplies each tile weight by the shift factor q^(B(i)m) (q^(C(i)m)).  The
weight of a tiling is the product of its tile weights, and the weighted count

    F_n(z; q) = sum over tilings of an n-board of the tiling weight

is computed here by two independent routes: literal enumeration of every
tiling, and the first-tile recursion G(pos) = sum_i weight(i, pos) G(pos + i)
over the suffix sums G of the board, run bottom-up over a rolling window of
the k latest suffix sums, in q-packed form where the board allows (see
qpacked).  Where the multiset of tile lengths fixes a tiling's q exponent
(B(i) - C(i) = lam * i, as in the inv-* schemes) the recursion is solved in
closed form: one multinomial term per z-monomial.
"""

import collections
import functools
import itertools
import operator
import random
from typing import Callable, Iterator, NamedTuple

from . import qpacked
from ._backend import kernels as _k
from ._kernels_py import Q_BITS, Q_MASK, Z_BITS
from .errors import DomainError, InvalidShiftError
from .polyring import Poly, check_capacity, check_k

__all__ = [
    "AppendSpec",
    "SchemeValidation",
    "Tiling",
    "WeightScheme",
    "corrupted_scheme",
    "enumerate_tilings",
    "fibonacci_k",
    "random_scheme",
    "tiling_weight",
    "validate_weight_scheme",
    "weighted_sum_enumerative",
    "weighted_sum_recursive",
]


class AppendSpec(NamedTuple):
    """Lengths of untiled boards appended before and after the tiled board."""

    before: int = 0
    after: int = 0


class Tiling:
    """An ordered sequence of tile lengths covering an n x 1 board."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise DomainError(f"tile lengths must be positive ints, got {p!r}")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def tiles(self) -> Iterator[tuple[int, int, int]]:
        """Yield (length, start, trailing) per tile; start is 1-based and
        trailing counts the board cells after the tile, so
        start - 1 + length + trailing = n."""
        n = self.n
        sigma = 1
        for i in self.parts:
            yield i, sigma, n - sigma - i + 1
            sigma += i

    def __eq__(self, other):
        return isinstance(other, Tiling) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Tiling({self.parts!r})"


class WeightScheme:
    """Tile-local weights z_i * q^f(i, sigma, tau) plus declared shift rules.

    a, b, c are callables on tile lengths 1..k giving the separable exponent
    f = A(i) + B(i)(sigma-1) + C(i)tau; their values are frozen at
    construction.  An explicit `exponent` callable may override f itself
    (used to build deliberately incoherent schemes for falsifiability tests);
    the shift factors always come from the declared B and C, so
    validate_weight_scheme can detect the mismatch.

    Schemes compare and hash by value: k, the A, B and C tables and the
    `exponent` override, which, being a function, compares by identity.  The
    name is left out, so two schemes that weight every tile alike share the
    cached sums below, and two corrupted schemes (each with its own
    override) never do.
    """

    __slots__ = ("k", "name", "_a", "_b", "_c", "_exponent", "_key", "_hash")

    def __init__(
        self,
        k: int,
        a: Callable[[int], int],
        b: Callable[[int], int],
        c: Callable[[int], int],
        name: str = "scheme",
        exponent: Callable[[int, int, int], int] | None = None,
    ):
        check_k(k)
        self.k = k
        self.name = name
        self._a = self._freeze(a, "A")
        self._b = self._freeze(b, "B")
        self._c = self._freeze(c, "C")
        self._exponent = exponent
        self._key = (k, self._a, self._b, self._c, exponent)
        self._hash = hash(self._key)

    def _freeze(self, fn, label):
        vals = []
        for i in range(1, self.k + 1):
            v = fn(i)
            if not isinstance(v, int) or v < 0:
                raise DomainError(
                    f"{label}({i}) must be a nonnegative int, got {v!r}"
                )
            vals.append(v)
        return tuple(vals)

    @classmethod
    def from_tables(cls, k, a_vals, b_vals, c_vals, name="scheme", exponent=None):
        a_vals, b_vals, c_vals = tuple(a_vals), tuple(b_vals), tuple(c_vals)
        if not (len(a_vals) == len(b_vals) == len(c_vals) == k):
            raise DomainError(f"expected {k} values per exponent table")
        return cls(
            k,
            lambda i: a_vals[i - 1],
            lambda i: b_vals[i - 1],
            lambda i: c_vals[i - 1],
            name=name,
            exponent=exponent,
        )

    def a(self, i: int) -> int:
        return self._a[i - 1]

    def b(self, i: int) -> int:
        return self._b[i - 1]

    def c(self, i: int) -> int:
        return self._c[i - 1]

    def qexp(self, i: int, sigma: int, tau: int) -> int:
        """Exponent of q in the weight of a tile (length i, start sigma,
        trailing tau)."""
        if self._exponent is not None:
            return self._exponent(i, sigma, tau)
        return self._a[i - 1] + self._b[i - 1] * (sigma - 1) + self._c[i - 1] * tau

    def front_shift_exps(self, m: int) -> tuple[int, ...]:
        """Per-variable q exponents realizing the front shift s^-_m."""
        return tuple(bi * m for bi in self._b)

    def back_shift_exps(self, m: int) -> tuple[int, ...]:
        """Per-variable q exponents realizing the back shift s^+_m."""
        return tuple(ci * m for ci in self._c)

    def __eq__(self, other):
        if not isinstance(other, WeightScheme):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeightScheme(k={self.k}, name={self.name!r})"


def fibonacci_k(n: int, k: int) -> int:
    """F_n with F_0 = 1, F_{n<0} = 0 and F_n = F_{n-1} + ... + F_{n-k}."""
    check_k(k)
    if n < 0:
        return 0
    window = [0] * k  # F_{n-k}, ..., F_{n-1}
    value = 1  # F_0
    for _ in range(n):
        window = window[1:] + [value]
        value = sum(window)
    return value


def enumerate_tilings(n: int, k: int) -> Iterator[Tiling]:
    """All tilings of an n-board with parts <= k, lexicographic by parts.

    Yields nothing for n < 0 and exactly the empty tiling for n = 0.
    Iterative, by the successor rule: grow the last part below k that has
    parts after it, and refill what follows it with ones.
    """
    check_k(k)
    if n < 0:
        return
    parts = [1] * n
    while True:
        yield Tiling(parts)
        tail = 0
        while parts and (tail == 0 or parts[-1] == k):
            tail += parts.pop()
        if not parts:
            return
        parts[-1] += 1
        parts.extend([1] * (tail - 1))


def _normalize_append(app) -> AppendSpec:
    app = AppendSpec(*app)
    if app.before < 0 or app.after < 0:
        raise DomainError(f"append lengths must be nonnegative, got {app}")
    return app


def tiling_weight(t: Tiling, w: WeightScheme, app=AppendSpec()) -> Poly:
    """Product of tile weights, with the declared shift factors accounting
    for any appended untiled boards."""
    app = _normalize_append(app)
    counts = [0] * w.k
    q_exp = 0
    for i, sigma, tau in t.tiles():
        if i > w.k:
            raise DomainError(f"tile of length {i} exceeds scheme maximum {w.k}")
        counts[i - 1] += 1
        q_exp += w.qexp(i, sigma, tau) + w.b(i) * app.before + w.c(i) * app.after
    return Poly.monomial(w.k, 1, counts, q_exp)


def _tile_deltas(n: int, maxpart: int, w: WeightScheme, app: AppendSpec):
    """Packed key contribution of each (tile length, start) pair, and the
    least and largest q exponent over all tilings; see the sum_tilings_terms
    kernel.  The kernel adds keys unchecked, so this first bounds every
    tiling's exponents by their packed-field capacity."""
    qs = []
    for i in range(1, maxpart + 1):
        shift = w.b(i) * app.before + w.c(i) * app.after
        qs.append([w.qexp(i, sigma, n - sigma - i + 1) + shift for sigma in range(1, n - i + 2)])
    if min((min(row) for row in qs if row), default=0) < 0:
        raise InvalidShiftError(f"{w.name} gives a negative q exponent on a {n}-board")
    # low[s], top[s]: the least and largest q exponent over tilings of cells s..n
    low = [0] * (n + 2)
    top = [0] * (n + 2)
    for s in range(n, 0, -1):
        firsts = [row[s - 1] for row in qs[: n - s + 1]]
        low[s] = min(map(operator.add, firsts, low[s + 1 : s + 1 + maxpart]))
        top[s] = max(map(operator.add, firsts, top[s + 1 : s + 1 + maxpart]))
    check_capacity(n, top[1])  # the all-ones tiling reaches z_1^n
    deltas = [
        [(1 << (Q_BITS + (w.k - i) * Z_BITS)) + q for q in row]
        for i, row in enumerate(qs, 1)
    ]
    return deltas, low[1], top[1]


def _check_cap(n, k, w):
    check_k(k)
    if k > w.k:
        raise DomainError(
            f"tile length cap {k} exceeds the scheme's declared maximum {w.k}"
        )


def weighted_sum_enumerative(n: int, k: int, w: WeightScheme, app=AppendSpec()) -> Poly:
    """F_n(z; q) by literal enumeration of every tiling.

    This is the oracle route: it visits each of the F_n tilings once and adds
    its weight.  Returns 1 for n = 0 and 0 for n < 0.
    """
    _check_cap(n, k, w)
    app = _normalize_append(app)
    if n < 0:
        return Poly.zero(w.k)
    deltas, _, qtop = _tile_deltas(n, k, w, app)
    # exact bounds, no re-scan: the all-ones tiling reaches z_1^n, and every
    # coefficient is a positive count, so the largest q exponent qtop is kept
    return Poly._wrap(w.k, _k.sum_tilings_terms(n, k, deltas), (n, qtop))


# The sums the verifiers use: identities checks its q-identities against
# them and lattice.build_minor takes the minor's entries from _front.  They
# key on the scheme's value (WeightScheme.__eq__), so a scheme that repeats
# another's tables, or a fresh copy of one, reuses its sums.  Poly is
# immutable, so sharing cached values is safe.  The bound keeps a run over
# many schemes from pinning every sum it ever made.  Measured on
# `verify --identity all --k 4 --max-n 10` (the built-in schemes on the
# largest convolution grid the CLI allows) and on a verify-grid pass of
# perfbench: at 512 entries per cache both missed exactly as often as
# unbounded caches (192, 972 and 984 times in _plain, _front and _back for
# the first), and the pass peaked at 3.19 MB of allocations (tracemalloc)
# against 3.37 MB at 1024 entries; at 256, _front and _back missed 8-17%
# more often.
_SUM_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _plain(n: int, kcap: int, w: WeightScheme) -> Poly:
    return weighted_sum_enumerative(n, kcap, w)


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _front(n: int, kcap: int, w: WeightScheme, m: int) -> Poly:
    """F_n with an m-board appended in front: plain sum under s^-_m."""
    if m == 0:
        return _plain(n, kcap, w)
    return _plain(n, kcap, w).substitute_z_scale(w.front_shift_exps(m))


@functools.lru_cache(maxsize=_SUM_CACHE_SIZE)
def _back(n: int, kcap: int, w: WeightScheme, m: int) -> Poly:
    """F_n with an m-board appended behind: plain sum under s^+_m."""
    if m == 0:
        return _plain(n, kcap, w)
    return _plain(n, kcap, w).substitute_z_scale(w.back_shift_exps(m))


def weighted_sum_recursive(n: int, k: int, w: WeightScheme, app=AppendSpec()) -> Poly:
    """F_n(z; q) by the first-tile recursion over a rolling window.

    The suffix sum G(pos) over tilings of cells pos..n satisfies
    G(pos) = sum over first-tile lengths i of weight(i, pos) * G(pos + i),
    which is the weighted first-tile recursion with the front shift folded
    into the tile exponent.  It runs bottom-up and holds only the k suffix
    sums G(pos + 1..pos + k).  Each coefficient counts tilings, so it is at
    most F_n, and q-packed digits of W >= bitlen(F_n) + 1 bits decode it
    (qpacked.recursion_width).  Boards too q-sparse to pack (generic
    schemes with large B or C) run the same window on term dicts
    (_kernels_py.mul_add_terms).  Boards with one q exponent per
    z-monomial (qpacked.one_q_per_z: B(i) - C(i) = lam * i, as in the
    inv-* schemes) skip the window: their recursion is solved in closed
    form, one multinomial term per z-monomial (_one_q_sums).
    The tile exponents go through the same capacity check as
    weighted_sum_enumerative, before any arithmetic.  Agrees with
    weighted_sum_enumerative on every input; the recursion reaches board
    lengths far beyond what enumeration can.
    """
    _check_cap(n, k, w)
    app = _normalize_append(app)
    if n < 0:
        return Poly.zero(w.k)
    deltas, qlow, qtop = _tile_deltas(n, k, w, app)
    # the same exact bounds as weighted_sum_enumerative's on both term routes
    if qpacked.one_q_per_z(deltas):
        return Poly._wrap(w.k, _one_q_sums(n, deltas), (n, qtop))
    count = fibonacci_k(n, k)
    width = qpacked.recursion_width(n, k, qtop - qlow, count)
    if width is None:
        tiles = [[{d: 1} for d in row] for row in deltas]
        return Poly._wrap(w.k, _first_tile_sums(tiles, {0: 1}, _k.mul_add_terms), (n, qtop))
    tiles = [[{d >> Q_BITS: (d & Q_MASK, 1)} for d in row] for row in deltas]
    mul_add = functools.partial(qpacked.q_mul_add, width=width)
    return qpacked.q_unpack(w.k, _first_tile_sums(tiles, {0: (0, 1)}, mul_add), width)


def _first_tile_sums(tiles, one, mul_add):
    """G(1) for G(pos) = sum_i tiles[i-1][pos-1] * G(pos + i), G(n + 1) = one,
    over the ring given by mul_add (see qpacked), called with sign 1 on a
    fresh {} per suffix sum.  window[i-1] is G(pos + i); only the k latest
    suffix sums stay alive, and the window is read by index, so no name
    holds the one appendleft evicts."""
    window = collections.deque([one], maxlen=len(tiles))
    for pos in range(len(tiles[0]), 0, -1):
        total = {}
        for i in range(len(window)):
            mul_add(total, tiles[i][pos - 1], window[i], 1)
        window.appendleft(total)
    return window[0]


def _one_q_sums(n, deltas):
    """The terms of G(1) when every z-monomial has one q exponent
    (qpacked.one_q_per_z): one term per multiset of tile lengths, c_i tiles
    of length i with sum_i i c_i = n, whose coefficient (sum_i c_i)! /
    prod_i c_i! counts the tilings that order it.

    Each row_i = deltas[i-1] steps by lam * i per start, so a tile of
    length i at start s has packed key row_i[0] + lam * i * (s - 1), and a
    tiling with S_i the sum of its i-tiles' starts has key
    sum_i c_i row_i[0] + lam (sum_i i S_i - sum_i i c_i).  Each tile covers
    cells s..s+i-1, whose sum is i s + i(i-1)/2, so
    sum_i i S_i = n(n+1)/2 - sum_i c_i i(i-1)/2, and the key is
    lam n(n+1)/2 + sum_i c_i (row_i[0] - lam i(i+1)/2): fixed by the
    z-monomial.  In a separable scheme that is B(i) - C(i) = lam * i, as
    in inv-lp, inv-rlp and inv-prlp.

    The multisets are enumerated a tile length at a time, longest first,
    as (cells left, tiles so far, key, prod c_i!) states; the cells that
    the longer tiles leave are ones.
    """
    if n == 0:
        return {0: 1}
    # rows of lengths 1..min(k, n); a length-1 row has n starts
    rows = [row for row in deltas if row]
    lam = rows[0][1] - rows[0][0] if n > 1 else 0
    offs = [row[0] - lam * (i * (i + 1) // 2) for i, row in enumerate(rows, 1)]
    fact = list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))
    states = [(n, 0, lam * (n * (n + 1) // 2), 1)]
    for i in range(len(rows), 1, -1):
        off = offs[i - 1]
        states = [
            (rest - i * c, tiles + c, key + c * off, denom * fact[c])
            for rest, tiles, key, denom in states
            for c in range(rest // i + 1)
        ]
    off = offs[0]
    return {
        key + rest * off: fact[tiles + rest] // (denom * fact[rest])
        for rest, tiles, key, denom in states
    }


class SchemeValidation(NamedTuple):
    ok: bool
    checked: int
    failures: tuple[str, ...]

    def __str__(self):
        if self.ok:
            return f"coherent ({self.checked} shift identities checked)"
        head = "; ".join(self.failures[:3])
        return f"incoherent ({len(self.failures)} violations, first: {head})"


def validate_weight_scheme(w: WeightScheme, n_max: int) -> SchemeValidation:
    """Check the shift coherence f(i, sigma+m, tau) = f(i, sigma, tau) + B(i)m
    and f(i, sigma, tau+m) = f(i, sigma, tau) + C(i)m on a grid.

    Separable schemes satisfy both by construction; a scheme whose exponent
    function secretly depends on sigma and tau jointly fails with a witness.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    failures = []
    rng, wide = range(1, n_max + 1), range(1, 2 * n_max + 1)
    for i in range(1, w.k + 1):
        b, c = w.b(i), w.c(i)
        # f[sigma][tau] at exactly the points the checks read, each once:
        # tau <= 2 n_max for sigma <= n_max, tau <= n_max above; index 0 unused
        f = [None] + [
            [None] + [w.qexp(i, sigma, tau) for tau in (wide if sigma <= n_max else rng)]
            for sigma in wide
        ]
        for sigma, tau, m in itertools.product(rng, rng, rng):
            base = f[sigma][tau]
            front = f[sigma + m][tau]
            if front != base + b * m:
                failures.append(
                    f"front shift: f({i},{sigma}+{m},{tau})={front} but "
                    f"f({i},{sigma},{tau})+B({i})*{m}={base + b * m}"
                )
            back = f[sigma][tau + m]
            if back != base + c * m:
                failures.append(
                    f"back shift: f({i},{sigma},{tau}+{m})={back} but "
                    f"f({i},{sigma},{tau})+C({i})*{m}={base + c * m}"
                )
    return SchemeValidation(not failures, 2 * w.k * n_max**3, tuple(failures))


def random_scheme(k: int, seed: int, name: str | None = None) -> WeightScheme:
    """A coherent scheme with A(i), B(i), C(i) drawn uniformly from 0..3."""
    rng = random.Random(seed)
    tables = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(3)]
    return WeightScheme.from_tables(
        k, *tables, name=name or f"random-{seed}"
    )


def corrupted_scheme(k: int, seed: int = 0, name: str | None = None) -> WeightScheme:
    """A scheme whose actual exponent mixes sigma and tau jointly, violating
    the coherence its declared B and C promise.  Every identity verifier and
    validate_weight_scheme must flag it."""
    base = random_scheme(k, seed)

    def warped(i, sigma, tau):
        return base.qexp(i, sigma, tau) + (sigma - 1) * tau

    return WeightScheme(
        k,
        base.a,
        base.b,
        base.c,
        name=name or f"corrupt-{seed}",
        exponent=warped,
    )
