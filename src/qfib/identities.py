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

For each built-in statistic scheme, verify_specializations additionally pins
the specialized closed forms in which the generic shifts simplify (for the
inversion family the back shift collapses to the scalar prefactor q^(nm); for
the major-index family the front shift stays a substitution), with every
specialized exponent hard-coded as an independent expression.
"""

from .errors import DomainError
from .layered import StatPair, builtin_scheme
from .polyring import Poly
from .report import IdentityReport
# _plain, _front and _back are tiling's shared sum caches, bound here under
# their own names: callers clear them and read their hits through this module.
from .tiling import WeightScheme, _back, _front, _plain, fibonacci_k

__all__ = [
    "convolution_count",
    "k_reduction_count",
    "verify_convolution",
    "verify_k_reduction",
    "verify_recursion",
    "verify_specializations",
]


def _zmono(w: WeightScheme, i: int, q_exp: int) -> Poly:
    counts = tuple(1 if j == i else 0 for j in range(1, w.k + 1))
    return Poly.monomial(w.k, 1, counts, q_exp)


def verify_recursion(n: int, k: int, w: WeightScheme) -> IdentityReport:
    """First-tile recursion: peel the tile covering cell 1."""
    if n < 1:
        raise DomainError(f"recursion needs n >= 1, got {n}")
    lhs = _plain(n, k, w)
    rhs = Poly.zero(w.k)
    for i in range(1, min(k, n) + 1):
        rhs = rhs + _zmono(w, i, w.qexp(i, 1, n - i)) * _front(n - i, k, w, i)
    return IdentityReport.compare(
        "recursion", {"n": n, "k": k, "scheme": w.name}, lhs, rhs
    )


def verify_convolution(m: int, n: int, k: int, w: WeightScheme) -> IdentityReport:
    """Break-at-m convolution: split tilings of an (m+n)-board at cell m."""
    if m < 1 or n < 1:
        raise DomainError(f"convolution needs m, n >= 1, got m={m}, n={n}")
    lhs = _plain(m + n, k, w)
    rhs = _back(m, k, w, n) * _front(n, k, w, m)
    for i in range(2, k + 1):
        for j in range(1, i):
            if m - j < 0 or n - i + j < 0:
                continue
            crossing = _zmono(w, i, w.qexp(i, m - j + 1, n - i + j))
            rhs = rhs + crossing * _back(m - j, k, w, n + j) * _front(
                n - i + j, k, w, m + i - j
            )
    return IdentityReport.compare(
        "convolution", {"m": m, "n": n, "k": k, "scheme": w.name}, lhs, rhs
    )


def verify_k_reduction(n: int, k: int, w: WeightScheme) -> IdentityReport:
    """Split tilings at the first tile of length exactly k."""
    if n < 1:
        raise DomainError(f"k-reduction needs n >= 1, got {n}")
    if k < 2:
        raise DomainError(f"k-reduction needs k >= 2, got {k}")
    lhs = _plain(n, k, w)
    rhs = _plain(n, k - 1, w)
    for j in range(0, n - k + 1):
        first_k_tile = _zmono(w, k, w.qexp(k, j + 1, n - k - j))
        rhs = rhs + first_k_tile * _back(j, k - 1, w, n - j) * _front(
            n - k - j, k, w, k + j
        )
    return IdentityReport.compare(
        "kreduce", {"n": n, "k": k, "scheme": w.name}, lhs, rhs
    )


# ----------------------------------------------------------------------
# integer specializations (z = 1, q = 1)


def convolution_count(m: int, n: int, k: int) -> tuple[int, int]:
    """Both sides of F_{m+n} = F_m F_n + sum_{i,j} F_{m-j} F_{n-i+j}."""
    if m < 1 or n < 1:
        raise DomainError(f"convolution needs m, n >= 1, got m={m}, n={n}")
    rhs = fibonacci_k(m, k) * fibonacci_k(n, k)
    for i in range(2, k + 1):
        for j in range(1, i):
            rhs += fibonacci_k(m - j, k) * fibonacci_k(n - i + j, k)
    return fibonacci_k(m + n, k), rhs


def k_reduction_count(n: int, k: int) -> tuple[int, int]:
    """Both sides of F_n^(k) = F_n^(k-1) + sum_j F_j^(k-1) F_{n-k-j}^(k)."""
    if n < 1 or k < 2:
        raise DomainError(f"k-reduction needs n >= 1 and k >= 2, got n={n}, k={k}")
    rhs = fibonacci_k(n, k - 1)
    for j in range(0, n - k + 1):
        rhs += fibonacci_k(j, k - 1) * fibonacci_k(n - k - j, k)
    return fibonacci_k(n, k), rhs


# ----------------------------------------------------------------------
# statistic-specific closed forms


def _ch2(m: int) -> int:
    return m * (m - 1) // 2


def _front_vec(pair: StatPair, k: int, m: int) -> tuple[int, ...]:
    """Front-shift exponent vector of the built-in schemes, hard-coded.

    For the major index over partially reversed layers the naive
    per-variable rule (j-1)m misses that a singleton layer still sits below
    the descent out of the layer before it, so z_1 shifts by q^m as well.
    """
    name = str(pair)
    if name in ("maj-lp", "rb-lpi"):
        return (m,) * k
    if name == "maj-rlp":
        return tuple((j - 1) * m for j in range(1, k + 1))
    if name == "maj-prlp":
        return tuple(max(j - 1, 1) * m for j in range(1, k + 1))
    return (0,) * k  # inversion family: position before a tile is weightless


def _specialized_recursion_rhs(pair, n, k, w) -> Poly:
    name = str(pair)
    rhs = Poly.zero(k)
    for i in range(1, min(k, n) + 1):
        x = n - i
        tail = _plain(x, k, w)
        if name == "inv-lp":
            term = _zmono(w, i, i * x) * tail
        elif name == "inv-rlp":
            term = _zmono(w, i, _ch2(i)) * tail
        elif name == "inv-prlp":
            term = _zmono(w, i, _ch2(i - 1) + i * x) * tail
        elif name in ("maj-lp", "rb-lpi"):
            term = _zmono(w, i, 0) * tail.substitute_z_scale(_front_vec(pair, k, i))
        elif name == "maj-rlp":
            term = _zmono(w, i, _ch2(i)) * tail.substitute_z_scale(
                _front_vec(pair, k, i)
            )
        elif name == "maj-prlp":
            term = _zmono(w, i, _ch2(i - 1)) * tail.substitute_z_scale(
                _front_vec(pair, k, i)
            )
        else:
            raise DomainError(f"no specialized forms for {name}")
        rhs = rhs + term
    return rhs


def _specialized_convolution_rhs(pair, m, n, k, w) -> Poly:
    name = str(pair)
    S = lambda x: _plain(x, k, w)
    sub = lambda p, mm: p.substitute_z_scale(_front_vec(pair, k, mm))
    if name in ("inv-lp", "inv-prlp"):
        rhs = (S(m) * S(n)).times_q(n * m)
    elif name == "inv-rlp":
        rhs = S(m) * S(n)
    else:
        rhs = S(m) * sub(S(n), m)
    for i in range(2, k + 1):
        for j in range(1, i):
            if m - j < 0 or n - i + j < 0:
                continue
            if name == "inv-lp":
                # the crossing tile has trailing length n-i+j, so its
                # exponent is i(n-i+j), matching the inv-prlp specialization
                term = (
                    _zmono(w, i, i * (n - i + j) + (m - j) * (n + j))
                    * S(m - j)
                    * S(n - i + j)
                )
            elif name == "inv-rlp":
                term = _zmono(w, i, _ch2(i)) * S(m - j) * S(n - i + j)
            elif name == "inv-prlp":
                term = (
                    _zmono(w, i, _ch2(i - 1) + i * (n - i + j) + (m - j) * (n + j))
                    * S(m - j)
                    * S(n - i + j)
                )
            elif name in ("maj-lp", "rb-lpi"):
                term = _zmono(w, i, m - j) * S(m - j) * sub(S(n - i + j), m + i - j)
            elif name == "maj-rlp":
                term = (
                    _zmono(w, i, (m - j) * (i - 1) + _ch2(i))
                    * S(m - j)
                    * sub(S(n - i + j), m + i - j)
                )
            elif name == "maj-prlp":
                term = (
                    _zmono(w, i, (m - j) * (i - 1) + _ch2(i - 1))
                    * S(m - j)
                    * sub(S(n - i + j), m + i - j)
                )
            else:
                raise DomainError(f"no specialized forms for {name}")
            rhs = rhs + term
    return rhs


def _specialized_k_reduction_rhs(pair, n, k, w) -> Poly:
    name = str(pair)
    Skm1 = lambda x: _plain(x, k - 1, w)
    Sk = lambda x: _plain(x, k, w)
    sub = lambda p, mm: p.substitute_z_scale(_front_vec(pair, k, mm))
    rhs = Skm1(n)
    for j in range(0, n - k + 1):
        if name == "inv-lp":
            term = _zmono(w, k, k * (n - k - j) + j * (n - j)) * Skm1(j) * Sk(n - k - j)
        elif name == "inv-rlp":
            term = _zmono(w, k, _ch2(k)) * Skm1(j) * Sk(n - k - j)
        elif name == "inv-prlp":
            term = (
                _zmono(w, k, _ch2(k - 1) + k * (n - k - j) + j * (n - j))
                * Skm1(j)
                * Sk(n - k - j)
            )
        elif name in ("maj-lp", "rb-lpi"):
            term = _zmono(w, k, j) * Skm1(j) * sub(Sk(n - k - j), k + j)
        elif name == "maj-rlp":
            term = _zmono(w, k, j * (k - 1) + _ch2(k)) * Skm1(j) * sub(
                Sk(n - k - j), k + j
            )
        elif name == "maj-prlp":
            term = _zmono(w, k, (k - 1) * j + _ch2(k - 1)) * Skm1(j) * sub(
                Sk(n - k - j), k + j
            )
        else:
            raise DomainError(f"no specialized forms for {name}")
        rhs = rhs + term
    return rhs


def _specialized_det(pair, n, k) -> Poly:
    """The statistic-specific minor determinant, exponent written in closed
    form directly in n, k, p, r."""
    name = str(pair)
    p, r = divmod(n + k - 1, k)
    if name == "inv-lp":
        e = p * r * k * k + k**3 * _ch2(p)
    elif name == "inv-rlp":
        e = (n + k - 1) * _ch2(k)
    elif name == "inv-prlp":
        e = (n + k - 1) * _ch2(k - 1) + p * r * k * k + k**3 * _ch2(p)
    elif name in ("maj-lp", "rb-lpi"):
        e = _ch2(n + k - 1)
    elif name == "maj-rlp":
        e = (k - 1) * _ch2(n + k - 1) + _ch2(k) * (n + k - 1)
    elif name == "maj-prlp":
        e = (k - 1) * _ch2(n + k - 1) + _ch2(k - 1) * (n + k - 1)
    else:
        raise DomainError(f"no specialized forms for {name}")
    sign = 1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1
    counts = tuple(0 if j < k else n + k - 1 for j in range(1, k + 1))
    return Poly.monomial(k, sign, counts, e)


def verify_specializations(pair, n_max: int, k: int) -> list[IdentityReport]:
    """Check every specialized closed form of one built-in statistic scheme.

    The left side of each report is recomputed generically (enumerative sums;
    the generic closed-form product for the determinant rows); the right side
    is the specialized expression with every exponent hard-coded in n, m, k.
    """
    from .lattice import MinorSpec, closed_form_det

    pair = StatPair.parse(pair)
    w = builtin_scheme(pair, k)
    base = {"k": k, "scheme": w.name}
    reports = []
    for n in range(1, n_max + 1):
        reports.append(
            IdentityReport.compare(
                "recursion-specialized",
                {**base, "n": n},
                _plain(n, k, w),
                _specialized_recursion_rhs(pair, n, k, w),
            )
        )
    for m in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            reports.append(
                IdentityReport.compare(
                    "convolution-specialized",
                    {**base, "m": m, "n": n},
                    _plain(m + n, k, w),
                    _specialized_convolution_rhs(pair, m, n, k, w),
                )
            )
    if k >= 2:
        for n in range(1, n_max + 1):
            reports.append(
                IdentityReport.compare(
                    "kreduce-specialized",
                    {**base, "n": n},
                    _plain(n, k, w),
                    _specialized_k_reduction_rhs(pair, n, k, w),
                )
            )
        for n in range(1, n_max + 1):
            reports.append(
                IdentityReport.compare(
                    "det-specialized",
                    {**base, "n": n},
                    closed_form_det(MinorSpec(n, k), w),
                    _specialized_det(pair, n, k),
                )
            )
    return reports
