"""Pure-Python term kernels: the inner loops behind all polynomial arithmetic.

A polynomial is stored as a dict mapping a *packed key* to a nonzero integer
coefficient.  The key packs the whole exponent vector of a monomial
z1^e1 * ... * zk^ek * q^eq into one integer:

    key = e1 << (Q_BITS + (k-1)*Z_BITS) | e2 << (Q_BITS + (k-2)*Z_BITS)
          | ... | ek << Q_BITS | eq

Fields never overlap (the Poly layer enforces e_i < 2**Z_BITS and
eq < 2**Q_BITS before any arithmetic), so multiplying two monomials is a
single integer addition of their keys.  Comparing packed keys as integers is
plain lexicographic order on (e1, ..., ek, eq).  mul_add_terms is the one
loop over term pairs, for products, the term window and the determinant.
"""

import collections
import itertools

Z_BITS = 16
Q_BITS = 32
Z_MASK = (1 << Z_BITS) - 1
Q_MASK = (1 << Q_BITS) - 1


def add_terms(a, b):
    """Merged sum of two term dicts, zero coefficients dropped."""
    if len(b) > len(a):
        a, b = b, a
    out = dict(a)
    for key, coeff in b.items():
        c = out.get(key, 0) + coeff
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def sub_terms(a, b):
    out = dict(a)
    for key, coeff in b.items():
        c = out.get(key, 0) - coeff
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def mul_terms(a, b):
    """Distributive product a * b into a fresh dict (see mul_add_terms)."""
    return mul_add_terms({}, a, b, 1)


def mul_add_terms(acc, a, b, sign):
    """acc + sign * a * b in place (acc must not be a or b), zeros dropped;
    the rows are the shorter operand's terms."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, va in a.items():
        if sign < 0:
            va = -va
        for kb, vb in b.items():
            key = ka + kb
            c = get(key, 0) + va * vb
            if c:
                acc[key] = c
            else:
                del acc[key]
    return acc


def divide_terms(a, z, e):
    """a / (z_l q^e) for the z-key z of one variable z_l (1 in its field),
    or None unless every term of a holds z_l and q^e, so that no field of
    a key borrows."""
    held = Z_MASK * z << Q_BITS
    m = (z << Q_BITS) + e
    out = {}
    for key, coeff in a.items():
        if not key & held or key & Q_MASK < e:
            return None
        out[key - m] = coeff
    return out


def scalar_mul_terms(a, c):
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    return {key: coeff * c for key, coeff in a.items()}


def shift_q_terms(a, shifts):
    """Apply z_i -> z_i * q^(e_i): each term's q field grows by sum(e_i * z_i).

    `shifts` is a tuple of (bit_offset, multiplier) pairs for the variables
    with nonzero multiplier.  Distinct keys stay distinct (the added amount is
    a function of the untouched z fields), so no merging is needed.
    """
    out = {}
    for key, coeff in a.items():
        delta = 0
        for off, mult in shifts:
            delta += ((key >> off) & Z_MASK) * mult
        out[key + delta] = coeff
    return out


def times_q_terms(a, e):
    """Multiply by q^e: every key's q field grows by e."""
    return {key + e: coeff for key, coeff in a.items()}


def eval_terms(a, zoffsets, zvals, qval):
    """Exact integer evaluation at z_i = zvals[i], q = qval."""
    total = 0
    for key, coeff in a.items():
        term = coeff
        eq = key & Q_MASK
        if eq:
            term *= qval**eq
        for off, v in zip(zoffsets, zvals):
            e = (key >> off) & Z_MASK
            if e:
                term *= v**e
        total += term
    return total


def sum_tilings_terms(n, maxpart, deltas):
    """Accumulate the weighted sum over all tilings of an n-board.

    deltas[i-1][sigma-1] is the packed key contribution of a tile of length i
    starting at position sigma: (1 << zshift_i) + q_exponent.  Because packed
    monomial products are key sums, the weight of a tiling is just the sum of
    its tiles' deltas, and every tiling contributes coefficient 1.

    The enumeration splits at the middle cell c = ceil(n/2).  Exactly one
    tile (i, s) of each tiling covers c, so the tiling is, uniquely, a tiling
    of cells 1..s-1, that tile, and a tiling of cells s+i..n.  The key lists
    of every prefix (cells 1..p, p < c) and every suffix (the last j cells,
    j <= n - c) are built level by level; each covering tile then joins its
    prefix and suffix lists pairwise.  That is still one key per tiling,
    added from the tiles' own deltas and merged only once at the end.  Besides
    the result, memory holds only the half-board lists, each about the
    square root of the tiling count.
    """
    if n < 0:
        return {}
    if n == 0:
        return {0: 1}
    mid = (n + 1) // 2
    pre = _prefix_keys(mid, maxpart, deltas)
    # the last j cells, read backwards, are the first j cells of the
    # reversed board, whose tile starts run backwards too
    suf = _prefix_keys(n - mid + 1, maxpart, [row[::-1] for row in deltas])
    joins = []  # (delta of a tile covering mid, shorter side, longer side)
    for i in range(1, maxpart + 1):
        for s in range(max(1, mid - i + 1), min(mid, n - i + 1) + 1):
            left, right = pre[s - 1], suf[n - s - i + 1]
            if len(left) > len(right):
                left, right = right, left
            joins.append((deltas[i - 1][s - 1], left, right))
    keys = (map((a + d).__add__, right) for d, left, right in joins for a in left)
    return dict(collections.Counter(itertools.chain.from_iterable(keys)))


def _prefix_keys(levels, maxpart, deltas):
    """keys[p]: the keys of the tilings of cells 1..p, one per tiling, for
    p < levels, each level extending the shorter ones by one tile."""
    keys = [[0]]
    for p in range(1, levels):
        cur = []
        for i in range(1, min(maxpart, p) + 1):
            cur += map(deltas[i - 1][p - i].__add__, keys[p - i])
        keys.append(cur)
    return keys
