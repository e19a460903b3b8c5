"""Independent reference values the workload checks compare against.

Nothing here calls a qfib arithmetic or summation routine: counts come from
a plain integer recurrence, and weighted sums are evaluated modulo a large
prime by a board-position DP built straight from WeightScheme.qexp.
Polynomials produced by qfib are read only through their public
``monomials()`` listing.
"""

PRIME = (1 << 61) - 1


def kfib(n, k):
    """F_n with parts <= k: F_0 = 1, F_{n<0} = 0, F_n = F_{n-1} + ... + F_{n-k}."""
    if n < 0:
        return 0
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(f[max(0, m - k) : m]))
    return f[n]


def miles_sign(n, k):
    """Value of the unweighted shifted Toeplitz minor: 1 for odd k, else (-1)^(n-1)."""
    return 1 if (k % 2 == 1 or (n - 1) % 2 == 0) else -1


def coeff_sum(poly):
    """The polynomial at z = q = 1."""
    return sum(m.coeff for m in poly.monomials())


def collapse_q1(poly):
    """The polynomial at q = 1, as a map from z exponent vectors to nonzero
    coefficients; equal maps mean equal polynomials identically in z."""
    out = {}
    for m in poly.monomials():
        out[m.z_exps] = out.get(m.z_exps, 0) + m.coeff
    return {z: c for z, c in out.items() if c}


def eval_mod(poly, points, p=PRIME):
    """The polynomial at each (zs, q) in points, modulo p."""
    monos = [(m.coeff, m.z_exps, m.q_exp) for m in poly.monomials()]
    values = []
    for zs, q in points:
        qpow = {}
        zpow = [{} for _ in zs]
        total = 0
        for coeff, z_exps, q_exp in monos:
            t = qpow.get(q_exp)
            if t is None:
                t = qpow[q_exp] = pow(q, q_exp, p)
            term = coeff * t
            for cache, z, e in zip(zpow, zs, z_exps):
                t = cache.get(e)
                if t is None:
                    t = cache[e] = pow(z, e, p)
                term = term * t % p
            total += term
        values.append(total % p)
    return values


def weighted_sum_mod(w, n, kcap, before, after, zs, q, p=PRIME):
    """F_n(zs; q) mod p with tiles of length <= kcap, by a DP over board
    positions: G(pos) = sum_i zs[i-1] q^(weight of a length-i tile at pos) G(pos+i).

    The appended boards contribute the declared shift factors
    q^(B(i) before + C(i) after) per tile of length i.
    """
    if n < 0:
        return 0
    g = [0] * (n + 2)
    g[n + 1] = 1
    for pos in range(n, 0, -1):
        acc = 0
        for i in range(1, min(kcap, n - pos + 1) + 1):
            e = w.qexp(i, pos, n - pos - i + 1) + w.b(i) * before + w.c(i) * after
            acc += zs[i - 1] * pow(q, e, p) * g[pos + i]
        g[pos] = acc % p
    return g[1]
