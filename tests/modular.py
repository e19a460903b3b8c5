"""Values modulo the prime 2^61 - 1 at a seeded point, computed apart from
qfib's arithmetic: a weighted tiling sum by a board DP built from
WeightScheme.qexp, a polynomial read through its monomials, and a
determinant by elimination.  The tests compare exact results with them."""

PRIME = 2**61 - 1


def board_dp(w, n, before, after, zs, q):
    """F_n(zs; q) mod PRIME by the board-position DP
    G(pos) = sum_i zs[i-1] q^e G(pos + i), G(n + 1) = 1, where e is the
    tile's WeightScheme.qexp plus the shift the appended boards give it."""
    g = [0] * (n + w.k + 1)
    g[n + 1] = 1
    for pos in range(n, 0, -1):
        g[pos] = sum(
            zs[i - 1] * g[pos + i]
            * pow(q, w.qexp(i, pos, n - pos - i + 1) + w.b(i) * before + w.c(i) * after, PRIME)
            for i in range(1, min(w.k, n - pos + 1) + 1)
        ) % PRIME
    return g[1]


def eval_mod(p, zs, q):
    """The polynomial p at z = zs, q = q, mod PRIME."""
    total = 0
    for m in p.monomials():
        term = m.coeff * pow(q, m.q_exp, PRIME)
        for z, e in zip(zs, m.z_exps):
            term = term * pow(z, e, PRIME) % PRIME
        total += term
    return total % PRIME


def det_mod(rows):
    """The determinant of a square matrix of residues mod PRIME, by
    Gaussian elimination."""
    m = [list(row) for row in rows]
    det = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % PRIME
        inv = pow(m[c][c], -1, PRIME)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % PRIME
            m[r] = [(x - f * y) % PRIME for x, y in zip(m[r], m[c])]
    return det % PRIME
