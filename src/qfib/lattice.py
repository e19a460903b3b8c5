"""Lattice paths, the shifted weighted minor, and its determinant.

Walks on the digraph with vertices 0, 1, 2, ... and arcs v -> v+d for
1 <= d <= k model tilings: a path from a to b is a tiling of the board
occupying cells a+1..b, so the weighted path count from a to b is the
weighted sum F_{b-a} with an a-board appended in front.  The k x k minor
with row vertices u = 0..k-1 and column vertices v = n+k-1..n+2k-2 therefore
has entries

    M[i][j] = F_{v_j - u_i}(z s^-_{u_i}; q),

and at z = q = 1 it is the classical k-Fibonacci Toeplitz minor whose
determinant is 1 for odd k and (-1)^(n-1) for even k.

Because the row vertices are adjacent and the column vertices are adjacent,
the only vertex-disjoint k-tuple of paths from u to v uses length-k arcs
exclusively; its signed weight is the closed form

    +/- z_k^(n+k-1) * prod over arcs of q^f(k, start, trailing)

with sign +1 for odd k and (-1)^(n-1) for even k.  Writing
n+k-1 = p*k + r with 0 <= r < k, the first r arcs are followed by paths of
length p*k and each later group of k arcs drops the trailing length by k.

The determinant itself is computed by exact cofactor expansion (no
division), expanding along the highest column so the shared minors span
the small low-column entries.  The expansion runs on q-packed entries where
they allow (see qpacked): the entries of the shifted minor cancel from
about 10k terms down to one monomial, and the packed form does that
cancellation inside big-int arithmetic instead of term by term.  Every
coefficient of a dim x dim determinant is at most
dim! * prod_j max_i L1(E[i][j]) in absolute value (L1 is an entry's sum of
|coefficients|); qpacked.determinant_width turns that bound into W.

The closed form equals that determinant exactly when the tile weight
ignores the trailing length (C = 0, so arc weights are per-edge quantities
and crossing path tuples cancel in signed pairs); for trailing-length
weights the cancellation fails and the two genuinely differ, which the
identity checks report as counterexamples.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from . import qpacked
from .errors import LIMITS, DomainError, RingMismatchError, SizeLimitError
from .polyring import Poly, check_capacity
from .report import IdentityReport
from .tiling import WeightScheme, _front

__all__ = [
    "MinorSpec",
    "PathTuple",
    "PolyMatrix",
    "build_minor",
    "closed_form_det",
    "determinant",
    "enumerate_noncrossing_tuples",
    "miles_sign_check",
]


@dataclass(frozen=True)
class MinorSpec:
    """The k x k minor with rows u = 0..k-1, columns v = n+k-1..n+2k-2."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise SizeLimitError(f"minor needs n >= 1 and k >= 1, got {self}")

    @property
    def u(self) -> tuple[int, ...]:
        return tuple(range(self.k))

    @property
    def v(self) -> tuple[int, ...]:
        return tuple(range(self.n + self.k - 1, self.n + 2 * self.k - 1))

    @property
    def pr(self) -> tuple[int, int]:
        """Euclidean pair with n + k - 1 = p*k + r and 0 <= r < k."""
        return divmod(self.n + self.k - 1, self.k)


@dataclass(frozen=True)
class PolyMatrix:
    dim: int
    entries: tuple[tuple[Poly, ...], ...]

    def to_json_dict(self) -> dict:
        flat = [e.to_json_dict() for row in self.entries for e in row]
        return {"dim": self.dim, "entries": flat}


def build_minor(spec: MinorSpec, w: WeightScheme) -> PolyMatrix:
    """Entry (i, j) is the weighted path count from u_i to v_j: the sum over
    tilings of the (v_j - u_i)-board with a u_i-board appended in front.
    Entries come from the verifiers' shared sum cache (tiling._front), whose
    shift is the declared B, as enumeration with AppendSpec(u_i, 0) applies
    it, so the two agree for incoherent schemes too."""
    rows = tuple(
        tuple(_front(vj - ui, spec.k, w, ui) for vj in spec.v) for ui in spec.u
    )
    return PolyMatrix(spec.k, rows)


def determinant(mat: PolyMatrix) -> Poly:
    """Exact determinant by cofactor expansion over row subsets.

    Expansion runs along the last column at every level, so the shared
    subproblems are minors over the leading columns (the entries of
    smallest degree in the shifted Fibonacci minor), on q-packed entries
    unless they are too q-sparse to pack (see qpacked).  Guarded by
    LIMITS["det_dim"]: the expansion builds 2^dim minors.  Mixed rings raise
    RingMismatchError and a determinant whose degree bounds (the sums of
    the column maxima) overflow the packed key raises CapacityError, both
    before any arithmetic.
    """
    d = mat.dim
    if d > LIMITS["det_dim"]:
        raise SizeLimitError(f"determinant limited to dim <= {LIMITS['det_dim']}, got {d}")
    if d == 0:
        raise SizeLimitError("determinant of an empty matrix")
    entries = mat.entries
    if len(entries) != d or any(len(row) != d for row in entries):
        raise DomainError(f"determinant needs {d} x {d} entries")
    k = entries[0][0].k
    for row in entries:
        for e in row:
            if e.k != k:
                raise RingMismatchError(f"mixed rings: k={k} vs k={e.k}")
    cols = list(zip(*entries))
    qb = sum(max(e.degree_bounds[1] for e in col) for col in cols)
    check_capacity(sum(max(e.degree_bounds[0] for e in col) for col in cols), qb)
    bound = math.factorial(d) * math.prod(max(e.l1_norm for e in col) for col in cols)
    width = qpacked.determinant_width(bound, qb)
    if width is None:
        return _expand(entries, functools.partial(Poly.zero, k), qpacked.poly_mul_add)
    packed = [[qpacked.q_pack(e, width) for e in row] for row in entries]
    mul_add = functools.partial(qpacked.q_mul_add, width=width)
    return qpacked.q_unpack(k, _expand(packed, dict, mul_add), width)


def _expand(entries, zero, mul_add):
    """Last-column cofactor expansion of a square matrix over any ring given
    by zero() and mul_add (see qpacked), one column at a time: the minors on
    columns 0..col, keyed by row subset, are built from those on 0..col-1,
    which are then dropped."""
    d = len(entries)
    minors = {(r,): entries[r][0] for r in range(d)}
    for col in range(1, d):
        wider = {}
        for rows in itertools.combinations(range(d), col + 1):
            acc = zero()
            for idx, r in enumerate(rows):
                entry = entries[r][col]
                if entry:
                    sub = minors[rows[:idx] + rows[idx + 1 :]]
                    acc = mul_add(acc, entry, sub, -1 if (idx + col) % 2 else 1)
            wider[rows] = acc
        minors = wider
    return minors[tuple(range(d))]


def closed_form_det(spec: MinorSpec, w: WeightScheme) -> Poly:
    """Signed weight of the unique noncrossing path tuple (all arcs length
    k).  Equals determinant(build_minor(spec, w)) for schemes with C = 0;
    see the module docstring for why trailing-length weights break that."""
    k, n = spec.k, spec.n
    p, r = spec.pr
    q_exp = sum(w.qexp(k, i, p * k) for i in range(1, r + 1))
    for j in range(p):
        for a in range(1, k + 1):
            q_exp += w.qexp(k, r + j * k + a, (p - j - 1) * k)
    sign = 1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1
    counts = tuple(0 if i < k else n + k - 1 for i in range(1, k + 1))
    return Poly.monomial(w.k, sign, counts, q_exp)


@dataclass(frozen=True)
class PathTuple:
    """A tuple of vertex-disjoint paths u_i -> v_alpha(i); each path is its
    full vertex sequence and alpha is 1-based."""

    paths: tuple[tuple[int, ...], ...]
    alpha: tuple[int, ...]

    def sign(self) -> int:
        inversions = sum(
            1
            for i in range(len(self.alpha))
            for j in range(i + 1, len(self.alpha))
            if self.alpha[i] > self.alpha[j]
        )
        return -1 if inversions % 2 else 1

    def weight(self, w: WeightScheme) -> Poly:
        """Product of arc weights; an arc v0 -> v1 on a path ending at b is a
        tile of length v1 - v0 starting at cell v0 + 1 with b - v1 cells of
        the path's board after it."""
        counts = [0] * w.k
        q_exp = 0
        for path in self.paths:
            b = path[-1]
            for v0, v1 in zip(path, path[1:]):
                i = v1 - v0
                counts[i - 1] += 1
                q_exp += w.qexp(i, v0 + 1, b - v1)
        return Poly.monomial(w.k, 1, counts, q_exp)


def enumerate_noncrossing_tuples(spec: MinorSpec) -> list[PathTuple]:
    """All vertex-disjoint path tuples from u to v, by depth-first search
    with shared-vertex pruning.  For this minor the result is a single tuple
    built from length-k arcs."""
    if spec.n + 2 * spec.k - 2 > LIMITS["path_vertex"]:
        raise SizeLimitError(
            f"path enumeration limited to vertices <= {LIMITS['path_vertex']}"
        )
    k = spec.k
    u, v = spec.u, spec.v
    targets = {vertex: j for j, vertex in enumerate(v)}
    vmax = v[-1]
    results: list[PathTuple] = []

    def walk(vertex, visited, used, taken, paths, assignment):
        j = targets.get(vertex)
        if j is not None and j not in taken:
            extend(len(paths) + 1, used | set(visited), paths + [tuple(visited)],
                   assignment + [j + 1], taken | {j})
        for d in range(1, k + 1):
            nxt = vertex + d
            if nxt > vmax or nxt in used or nxt in visited:
                continue
            visited.append(nxt)
            walk(nxt, visited, used, taken, paths, assignment)
            visited.pop()

    def extend(i, used, paths, assignment, taken):
        if i == k:
            results.append(PathTuple(tuple(paths), tuple(assignment)))
            return
        start = u[i]
        if start in used:
            return
        walk(start, [start], used, taken, paths, assignment)

    extend(0, frozenset(), [], [], frozenset())
    return results


def miles_sign_check(n: int, k: int) -> IdentityReport:
    """The unweighted minor determinant: 1 for odd k, (-1)^(n-1) for even k,
    checked by evaluating the exact cofactor determinant at z = q = 1."""
    if n < 1 or k < 1 or k > LIMITS["sign_k"]:
        raise SizeLimitError(
            f"sign check needs n >= 1 and 1 <= k <= {LIMITS['sign_k']}, got n={n}, k={k}"
        )
    counting = WeightScheme(k, lambda i: 0, lambda i: 0, lambda i: 0, name="counting")
    spec = MinorSpec(n, k)
    det_value = determinant(build_minor(spec, counting)).evaluate((1,) * k, 1)
    expected = 1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1
    return IdentityReport.compare(
        "det-sign",
        {"n": n, "k": k, "scheme": "counting"},
        Poly.constant(k, det_value),
        Poly.constant(k, expected),
    )
