"""Symbolic verifiers for the weighted k-Fibonacci identity catalog.

Every verifier recomputes both sides of an identity from enumeration-level
primitives: the left side is always the literal enumerative sum, the right
side rebuilds the claimed factorization with appended boards realized through
the scheme's declared shift factors (a substitution z_i -> z_i * q^(B(i) m)
or z_i -> z_i * q^(C(i) m) applied to a plain enumerative sum).  For coherent
schemes the two agree exactly; for a scheme whose actual tile exponent breaks
shift coherence, the verifiers fail with a concrete witness term.

The identities, writing F_x for the weighted sum, s-_m / s+_m for the front
and back shifts, and f(i, s, t) for the tile exponent:

  recursion     F_n = sum_i z_i q^f(i,1,n-i) F_{n-i}(z s-_i)
  convolution   F_{m+n} = F_m(z s+_n) F_n(z s-_m)
                  + sum_{2<=i<=k, 1<=j<i} z_i q^f(i,m-j+1,n-i+j)
                    F_{m-j}(z s+_{n+j}) F_{n-i+j}(z s-_{m+i-j})
                (splitting at whether a tile crosses the break after cell m)
  k-reduction   F_n^(k) = F_n^(k-1)
                  + sum_{0<=j<=n-k} z_k q^f(k,j+1,n-k-j)
                    F_j^(k-1)(z s+_{n-j}) F_{n-k-j}^(k)(z s-_{k+j})
                (splitting at the first tile of length exactly k; the prefix
                 of length j uses tiles of length at most k-1 but keeps its
                 position-dependent weights via the back shift)

At z = 1, q = 1 the convolution and k-reduction collapse to integer
k-Fibonacci identities, checked separately by the *_count helpers.

Each right side has one builder, which takes the tile exponent and the
shifted sums as functions and adds every product into one term dict: the
generic verifiers pass the scheme's own, and verify_specializations the
pair's row of _SPECIAL, the general identity with a statistic's weights in.
A row hard-codes f(i, s, t), the factor c by which the back shift of an
x-board by t collapses to the scalar q^(c x t), the per-variable front-shift
rule and the minor determinant's exponent, and reads no scheme's tables or
exponent.  The c column carries the paper's collapse: for inv-lp and
inv-prlp the back shift is the prefactor q^(nm); for the major-index family
it vanishes and the front shift stays a substitution.
"""

import functools
from typing import Callable, NamedTuple

from . import _kernels_py
from ._kernels_py import Q_BITS, Q_MASK, Z_BITS
from .errors import DomainError
from .lattice import MinorSpec, _noncrossing_weight, closed_form_det
from .layered import StatPair, _ch2, builtin_scheme
from .polyring import Poly, _check_term, check_capacity
from .report import IdentityReport
# _plain, _front and _back are tiling's shared sum caches, bound here under
# their own names: callers clear them and read their hits through this module.
from .tiling import WeightScheme, _back, _check_cap, _front, _plain, fibonacci_k

__all__ = [
    "convolution_count", "k_reduction_count", "verify_convolution",
    "verify_k_reduction", "verify_recursion", "verify_specializations",
]


def _times(a, b: Poly, into=None):
    """a * b as a pair (terms, bounds), for a Poly b and a such pair, checked
    as Poly.__mul__ checks it; given a right side's pair into, added in place
    into its terms, with the bounds of the + chain (the larger of each)."""
    (za, qa), (zb, qb) = a[1], b.degree_bounds
    zb, qb = za + zb, qa + qb
    check_capacity(zb, qb)
    if into is None:
        return _kernels_py.mul_terms(a[0], b._terms), (zb, qb)
    terms, (zr, qr) = into
    _kernels_py.mul_add_terms(terms, a[0], b._terms, 1)
    return terms, (max(zr, zb), max(qr, qb))


def _tile(w: WeightScheme, i: int, e):
    """z_i q^e as a pair (terms, bounds) of one packed key, checked as
    Poly.monomial checks it (an i past w.k has no z factor there either)."""
    if type(e) is not int or not 0 <= e <= Q_MASK:
        _check_term(w.k, (0,) * w.k, e)
    z = 1 << Q_BITS + (w.k - i) * Z_BITS if i <= w.k else 0
    return {z + e: 1}, (int(i <= w.k), e)


# ----------------------------------------------------------------------
# right sides: tile(i, s, t) is a tile's q exponent; front(x, kcap, w, m) and
# back(x, kcap, w, t) are w's sums over x-boards with tiles up to kcap under
# s-_m and s+_t, called like the cached _front and _back


def _recursion_rhs(w, n, k, tile, front) -> Poly:
    rhs = {}, (0, 0)
    for i in range(1, min(k, n) + 1):
        rhs = _times(_tile(w, i, tile(i, 1, n - i)), front(n - i, k, w, i), rhs)
    return Poly._wrap(w.k, *rhs)


def _convolution_rhs(w, m, n, k, tile, front, back) -> Poly:
    b = back(m, k, w, n)
    rhs = _times((b._terms, b.degree_bounds), front(n, k, w, m), ({}, (0, 0)))
    for i in range(2, k + 1):
        for j in range(max(1, i - n), min(i - 1, m) + 1):
            crossing = _times(_tile(w, i, tile(i, m - j + 1, n - i + j)), back(m - j, k, w, n + j))
            rhs = _times(crossing, front(n - i + j, k, w, m + i - j), rhs)
    return Poly._wrap(w.k, *rhs)


def _k_reduction_rhs(w, n, k, tile, front, back) -> Poly:
    f = back(n, k - 1, w, 0)  # F_n^(k-1): no tile of length k
    rhs = dict(f._terms), f.degree_bounds
    for j in range(0, n - k + 1):
        first_k_tile = _times(_tile(w, k, tile(k, j + 1, n - k - j)), back(j, k - 1, w, n - j))
        rhs = _times(first_k_tile, front(n - k - j, k, w, k + j), rhs)
    return Poly._wrap(w.k, *rhs)


def verify_recursion(n: int, k: int, w: WeightScheme) -> IdentityReport:
    """First-tile recursion: peel the tile covering cell 1."""
    if n < 1:
        raise DomainError(f"recursion needs n >= 1, got {n}")
    rhs = _recursion_rhs(w, n, k, w.qexp, _front)
    params = {"n": n, "k": k, "scheme": w.name}
    return IdentityReport.compare("recursion", params, _plain(n, k, w), rhs)


def _check_convolution(m: int, n: int):
    if m < 1 or n < 1:
        raise DomainError(f"convolution needs m, n >= 1, got m={m}, n={n}")


def _check_k_reduction(n: int, k: int):
    if n < 1 or k < 2:
        raise DomainError(f"k-reduction needs n >= 1 and k >= 2, got n={n}, k={k}")


def verify_convolution(m: int, n: int, k: int, w: WeightScheme) -> IdentityReport:
    """Break-at-m convolution: split tilings of an (m+n)-board at cell m."""
    _check_convolution(m, n)
    rhs = _convolution_rhs(w, m, n, k, w.qexp, _front, _back)
    params = {"m": m, "n": n, "k": k, "scheme": w.name}
    return IdentityReport.compare("convolution", params, _plain(m + n, k, w), rhs)


def verify_k_reduction(n: int, k: int, w: WeightScheme) -> IdentityReport:
    """Split tilings at the first tile of length exactly k."""
    _check_k_reduction(n, k)
    _check_cap(k, w)  # before the right side reads w's tables at length k
    rhs = _k_reduction_rhs(w, n, k, w.qexp, _front, _back)
    params = {"n": n, "k": k, "scheme": w.name}
    return IdentityReport.compare("kreduce", params, _plain(n, k, w), rhs)


# ----------------------------------------------------------------------
# integer specializations (z = 1, q = 1)


def convolution_count(m: int, n: int, k: int) -> tuple[int, int]:
    """Both sides of F_{m+n} = F_m F_n + sum_{i,j} F_{m-j} F_{n-i+j}."""
    _check_convolution(m, n)
    rhs = fibonacci_k(m, k) * fibonacci_k(n, k)
    for i in range(2, k + 1):
        for j in range(1, i):
            rhs += fibonacci_k(m - j, k) * fibonacci_k(n - i + j, k)
    return fibonacci_k(m + n, k), rhs


def k_reduction_count(n: int, k: int) -> tuple[int, int]:
    """Both sides of F_n^(k) = F_n^(k-1) + sum_j F_j^(k-1) F_{n-k-j}^(k)."""
    _check_k_reduction(n, k)
    rhs = fibonacci_k(n, k - 1)
    for j in range(0, n - k + 1):
        rhs += fibonacci_k(j, k - 1) * fibonacci_k(n - k - j, k)
    return fibonacci_k(n, k), rhs


# ----------------------------------------------------------------------
# statistic-specific closed forms


class _Forms(NamedTuple):
    """The closed forms of one built-in scheme, every value hard-coded."""

    f: Callable[[int, int, int], int]  # tile exponent f(i, s, t)
    c: int  # the back shift of an x-board by t is the scalar q^(c x t)
    front: Callable[[int], int] | None  # s-_m sends z_j to z_j q^(front(j) m)
    det: Callable[[int, int, int, int], int]  # det exponent in N, k, p, r


# front is None for the inversion family: the position before a tile is
# weightless.  For maj-prlp the naive rule j-1 misses that a singleton layer
# still sits below the descent out of the layer before it, so z_1 shifts by
# q^m as well.
_SPECIAL = {
    "inv-lp": _Forms(lambda i, s, t: i * t, 1, None,
                     lambda N, k, p, r: p * r * k * k + k**3 * _ch2(p)),
    "inv-rlp": _Forms(lambda i, s, t: _ch2(i), 0, None,
                      lambda N, k, p, r: N * _ch2(k)),
    "inv-prlp": _Forms(lambda i, s, t: _ch2(i - 1) + i * t, 1, None,
                       lambda N, k, p, r: N * _ch2(k - 1) + p * r * k * k + k**3 * _ch2(p)),
    "maj-lp": _Forms(lambda i, s, t: s - 1, 0, lambda j: 1,
                     lambda N, k, p, r: _ch2(N)),
    "maj-rlp": _Forms(lambda i, s, t: _ch2(i) + (i - 1) * (s - 1), 0, lambda j: j - 1,
                      lambda N, k, p, r: (k - 1) * _ch2(N) + _ch2(k) * N),
    "maj-prlp": _Forms(lambda i, s, t: _ch2(i - 1) + (i - 1) * (s - 1), 0,
                       lambda j: max(j - 1, 1),
                       lambda N, k, p, r: (k - 1) * _ch2(N) + _ch2(k - 1) * N),
    "rb-lpi": _Forms(lambda i, s, t: s - 1, 0, lambda j: 1,
                     lambda N, k, p, r: _ch2(N)),
}


def _special_sides(row: _Forms):
    """The row's tile exponent and shifted sums, built from plain sums.
    The sums are cached for the life of the pair, one verify_specializations
    call, where the convolution grid asks for each of them many times."""

    @functools.cache
    def front(x, kcap, w, m):
        tail = _plain(x, kcap, w)
        if row.front is None:
            return tail
        return tail.substitute_z_scale([row.front(j) * m for j in range(1, w.k + 1)])

    @functools.cache
    def back(x, kcap, w, t):
        return _plain(x, kcap, w).times_q(row.c * x * t)

    return row.f, front, back


def _specialized_det(row: _Forms, n: int, k: int) -> Poly:
    """The statistic-specific minor determinant, its exponent written in
    closed form directly in the arc count N = n + k - 1 = p k + r, k, p, r."""
    N = n + k - 1
    p, r = divmod(N, k)
    return _noncrossing_weight(k, n, k, row.det(N, k, p, r))


def verify_specializations(pair, n_max: int, k: int) -> list[IdentityReport]:
    """Check every specialized closed form of one built-in statistic scheme.

    The left side of each report is recomputed generically (enumerative sums;
    the generic closed-form product for the determinant rows); the right side
    is the general identity with the pair's _SPECIAL row put in.
    """
    pair = StatPair.parse(pair)
    w = builtin_scheme(pair, k)
    row = _SPECIAL.get(str(pair))
    if row is None:
        raise DomainError(f"no specialized forms for {pair}")
    tile, front, back = _special_sides(row)
    base = {"k": k, "scheme": w.name}
    ns = range(1, n_max + 1)

    # each right side is built and compared in turn, so a passing one is
    # dropped before the next is built
    def check(name, params, lhs, rhs):
        return IdentityReport.compare(f"{name}-specialized", {**base, **params}, lhs, rhs)

    reports = [check("recursion", {"n": n}, _plain(n, k, w), _recursion_rhs(w, n, k, tile, front))
               for n in ns]
    reports += [check("convolution", {"m": m, "n": n}, _plain(m + n, k, w),
                      _convolution_rhs(w, m, n, k, tile, front, back)) for m in ns for n in ns]
    if k >= 2:
        reports += [check("kreduce", {"n": n}, _plain(n, k, w),
                          _k_reduction_rhs(w, n, k, tile, front, back)) for n in ns]
        reports += [check("det", {"n": n}, closed_form_det(MinorSpec(n, k), w),
                          _specialized_det(row, n, k)) for n in ns]
    return reports
