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

The determinant itself is computed by exact cofactor expansion, expanding
along the highest column so the shared minors span the small low-column
entries; its only divisions are the exact ones by monomials below.
Before it expands a C = 0 minor, determinant() moves its rows along their
own paths, as the Lindstrom-Gessel-Viennot proof does through every cut of
k consecutive vertices.  The first-arc recursion P_x = sum over l = 1..k of
z_l q^(A(l) + B(l) x) P_{x+l}, for the row P_x of path sums from a vertex
x below every column vertex, gives the row one cut later,

    P_{x+k} = (P_x - sum over l < k of z_l q^(A(l) + B(l) x) P_{x+l})
              / z_k q^(A(k) + B(k) x),

so the rows at x..x+k-1 have the determinant z_k q^(A(k) + B(k) x)
(-1)^(k-1) times that of the rows at x+1..x+k: a row operation, one
monomial pulled out, and a cyclic shift.  From x = u_0 up to v_0 - 1
those steps leave the rows at v_0..v_0+k-1, whose matrix is unitriangular
for the minor's own entries, and the expansion of that is cheap.  Every
division by the diagonal monomial is checked to be exact; one that leaves
a remainder (the entries do not follow the tables, as with an exponent
override or a hand-built matrix) stops the steps and the rows reached
expand as they stand, so the result is exact for any matrix.  build_minor
gives the arc rule only when every C(i) is 0: with trailing-length weights
an arc's weight depends on where its path ends, so the multipliers would
differ from column to column.

The expansion runs on q-packed entries where they allow (qpacked.ring): the
entries of the shifted minor cancel from about 10k terms down to one
monomial, and the packed form does that cancellation inside big-int
arithmetic instead of term by term.  Every coefficient of a dim x dim
determinant is at most dim! * prod_j max_i L1(E[i][j]) in absolute value
(L1 is an entry's sum of |coefficients|); qpacked.determinant_width turns
that bound into W.

The closed form equals that determinant exactly when the tile weight
ignores the trailing length (C = 0, so arc weights are per-edge quantities
and crossing path tuples cancel in signed pairs); for trailing-length
weights the cancellation fails and the two genuinely differ, which the
identity checks report as counterexamples.
"""

import itertools
import math
from dataclasses import dataclass

from . import qpacked
from ._kernels_py import Q_MASK, Z_BITS, Z_MASK
from .errors import LIMITS, DomainError, SizeLimitError
from .layered import inv
from .polyring import Poly, check_capacity
from .report import IdentityReport
from .tiling import WeightScheme, _check_cap, _front

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
            raise DomainError(f"minor needs n >= 1 and k >= 1, got {self}")

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
    """A square matrix of Polys.  rule, when given, is (arcs, u0, v0): an
    arc of length l = 1..dim from vertex x weighs
    z_l q^(arcs[l-1][0] + arcs[l-1][1] x), and row i and column j hold the
    path sums from vertex u0 + i to vertex v0 + j.  determinant() moves the
    rows along those paths before it expands the matrix (see the module
    docstring); the rule decides how much work the expansion does, never
    the determinant."""

    dim: int
    entries: tuple[tuple[Poly, ...], ...]
    rule: tuple[tuple[tuple[int, int], ...], int, int] | None = None

    def to_json_dict(self) -> dict:
        flat = [e.to_json_dict() for row in self.entries for e in row]
        return {"dim": self.dim, "entries": flat}


def build_minor(spec: MinorSpec, w: WeightScheme) -> PolyMatrix:
    """Entry (i, j) is the weighted path count from u_i to v_j: the sum over
    tilings of the (v_j - u_i)-board with a u_i-board appended in front.
    Entries come from the verifiers' shared sum cache (tiling._front), whose
    shift is the declared B, as enumeration with AppendSpec(u_i, 0) applies
    it, so the two agree for incoherent schemes too.

    When every C(i) is 0 the minor carries its arc rule (see PolyMatrix):
    an arc of length l from vertex x weighs z_l q^(A(l) + B(l) x) by the
    declared tables."""
    k = spec.k
    rows = tuple(tuple(_front(vj - ui, k, w, ui) for vj in spec.v) for ui in spec.u)
    if any(map(w.c, range(1, k + 1))):
        return PolyMatrix(k, rows)
    arcs = tuple((w.a(l), w.b(l)) for l in range(1, k + 1))
    return PolyMatrix(k, rows, (arcs, spec.u[0], spec.v[0]))


def _check_dim(d: int):
    # the determinant's guard, also run before a minor is built for it
    if d > LIMITS["det_dim"]:
        raise SizeLimitError(f"determinant limited to dim <= {LIMITS['det_dim']}, got {d}")


def determinant(mat: PolyMatrix) -> Poly:
    """Exact determinant by cofactor expansion over row subsets.

    Expansion runs along the last column at every level, so the shared
    subproblems are minors over the leading columns (the entries of
    smallest degree in the shifted Fibonacci minor), on q-packed entries
    unless they are too q-sparse to pack (qpacked.ring).  A matrix with a
    rule first has its rows moved along their paths in the same ring
    (_slide; see the module docstring); the width of the packed digits
    still comes from the original entries.

    Guarded by LIMITS["det_dim"]: the expansion builds 2^dim minors.  Mixed
    rings raise RingMismatchError and a determinant whose degree bounds
    (the sums of the column maxima) overflow the packed key raises
    CapacityError, both before any arithmetic.
    """
    d = mat.dim
    _check_dim(d)
    if d == 0:
        raise DomainError("determinant of an empty matrix")
    entries = mat.entries
    if len(entries) != d or any(len(row) != d for row in entries):
        raise DomainError(f"determinant needs {d} x {d} entries")
    for e in itertools.chain.from_iterable(entries):
        entries[0][0]._check_ring(e)
    k = entries[0][0].k
    cols = list(zip(*entries))
    zb = sum(max(e.degree_bounds[0] for e in col) for col in cols)
    qb = sum(max(e.degree_bounds[1] for e in col) for col in cols)
    check_capacity(zb, qb)
    bound = math.factorial(d) * math.prod(max(e.l1_norm for e in col) for col in cols)
    ring = qpacked.ring(qpacked.determinant_width(bound, qb))
    rows = [[ring.pack(e) for e in row] for row in entries]
    rows, scale = _slide(rows, mat.rule, k, zb, qb, ring) if mat.rule else (rows, None)
    det = _expand(rows, ring.mul_add)
    if scale:
        factor, sign = scale
        det = ring.mul_add({}, factor, det, sign)
    return ring.unpack(k, det)


def _slide(rows, rule, k: int, zb: int, qb: int, ring):
    """The rows of a matrix with a rule (see PolyMatrix), moved along their
    paths in `ring` (qpacked.ring): while the first row's vertex x is below
    v0, row x + d is row x less z_l q^e(x, l) times row x + l for
    l = 1..d-1, divided by z_d q^e(x, d), and it replaces row x at the end.
    Returns the rows reached and (factor, sign) with det(rows) = sign *
    factor * det(rows reached), or None when no step was taken.

    A step needs an exact division, arc exponents e(x, l) = A(l) + B(l) x
    that are ints >= 0, and room in the key: every step raises the z and q
    bounds of each column by at most 1 and the largest e(x, l), l < d, and
    the column bounds must still sum (as check_capacity sums the original
    ones, zb and qb) within the key fields, so that no sum of keys
    carries, in the steps or in the expansion after them."""
    arcs, x, stop = rule
    d = len(rows)
    if len(arcs) != d or d > k or any(len(arc) != 2 for arc in arcs):
        return rows, None
    if any(type(n) is not int for n in (x, stop, *itertools.chain(*arcs))):
        return rows, None
    mono, mul_add, divide = ring.mono, ring.mul_add, ring.divide
    unit = mono(0, 0)
    zs = [1 << (k - l) * Z_BITS for l in range(1, d + 1)]
    sign, zf, qf = 1, 0, 0
    while x < stop:
        exps = [a + b * x for a, b in arcs]
        zb += d
        qb += d * max(exps[:-1], default=0)
        if min(exps) < 0 or zb > Z_MASK or qb > Q_MASK:
            break
        pairs = [(mono(z, e), row) for z, e, row in zip(zs, exps, rows[1:])]
        moved = []
        for j, entry in enumerate(rows[0]):
            acc = mul_add({}, unit, entry, 1)
            for arc, row in pairs:
                mul_add(acc, arc, row[j], -1)
            acc = divide(acc, zs[-1], exps[-1])
            if acc is None:
                break
            moved.append(acc)
        if len(moved) < d:
            break
        rows = rows[1:] + [moved]
        zf += zs[-1]
        qf += exps[-1]
        sign = sign if d % 2 else -sign
        x += 1
    return rows, (mono(zf, qf), sign) if zf else None


def _expand(entries, mul_add):
    """Last-column cofactor expansion of a square matrix in the ring of
    mul_add (qpacked.ring), one column at a time: the minors on columns
    0..col, keyed by row subset, are built from those on 0..col-1, which are
    then dropped."""
    d = len(entries)
    minors = {(r,): entries[r][0] for r in range(d)}
    for col in range(1, d):
        wider = {}
        for rows in itertools.combinations(range(d), col + 1):
            acc = {}
            for idx, r in enumerate(rows):
                entry = entries[r][col]
                if entry:
                    sub = minors[rows[:idx] + rows[idx + 1 :]]
                    mul_add(acc, entry, sub, -1 if (idx + col) % 2 else 1)
            wider[rows] = acc
        minors = wider
    return minors[tuple(range(d))]


def closed_form_det(spec: MinorSpec, w: WeightScheme) -> Poly:
    """Signed weight of the unique noncrossing path tuple (all arcs length
    k).  Equals determinant(build_minor(spec, w)) for schemes with C = 0;
    see the module docstring for why trailing-length weights break that."""
    k, n = spec.k, spec.n
    _check_cap(k, w)
    p, r = spec.pr
    q_exp = sum(w.qexp(k, i, p * k) for i in range(1, r + 1))
    for j in range(p):
        for a in range(1, k + 1):
            q_exp += w.qexp(k, r + j * k + a, (p - j - 1) * k)
    return _noncrossing_weight(w.k, n, k, q_exp)


def _minor_sign(n: int, k: int) -> int:
    """Sign of the minor's noncrossing tuple: 1 for odd k, (-1)^(n-1) for even k."""
    return 1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1


def _noncrossing_weight(ring: int, n: int, k: int, q_exp: int) -> Poly:
    """+/- z_k^(n+k-1) q^q_exp in the ring-variable ring: the signed weight of
    the noncrossing tuple of the (n, k) minor whose arcs' q exponents sum to
    q_exp."""
    counts = tuple(n + k - 1 if i == k else 0 for i in range(1, ring + 1))
    return Poly.monomial(ring, _minor_sign(n, k), counts, q_exp)


@dataclass(frozen=True)
class PathTuple:
    """A tuple of vertex-disjoint paths u_i -> v_alpha(i); each path is its
    full vertex sequence and alpha is 1-based."""

    paths: tuple[tuple[int, ...], ...]
    alpha: tuple[int, ...]

    def sign(self) -> int:
        return -1 if inv(self.alpha) % 2 else 1

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
                if not 0 < i <= w.k:
                    raise DomainError(f"arc of length {i} outside the scheme's 1..{w.k}")
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
    checked by evaluating the exact cofactor determinant at z = q = 1, under
    its LIMITS["det_dim"] guard, which runs before the minor is built."""
    spec = MinorSpec(n, k)
    _check_dim(k)
    counting = WeightScheme(k, lambda i: 0, lambda i: 0, lambda i: 0, name="counting")
    det_value = determinant(build_minor(spec, counting)).evaluate((1,) * k, 1)
    return IdentityReport.compare(
        "det-sign",
        {"n": n, "k": k, "scheme": "counting"},
        Poly.constant(k, det_value),
        Poly.constant(k, _minor_sign(n, k)),
    )
