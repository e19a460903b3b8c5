"""q-packed arithmetic, and the rules that route the first-tile recursion
(tiling.weighted_sum_recursive) and the minor determinant
(lattice.determinant) onto it.

A q-packed polynomial is a Kronecker substitution q -> 2^W in q alone: a
dict from z-key (packed key >> Q_BITS) to a pair (lo, x) standing for
q^lo * P(q) with x = P(2^W), where lo starts as that z-monomial's least q
exponent.  Each z-monomial has its own offset, so z-monomials whose q
exponents sit far apart cost nothing extra.  A product is one integer
multiply per pair of z-monomials (z-keys add, offsets add, the x's
multiply); a sum shifts the x with the larger offset.  q -> 2^W is a ring
homomorphism, so only the coefficients of the final result need to fit in
W bits for q_unpack to read them back, whatever the size of the
intermediate x's.

Each caller bounds its coefficients and asks its rule below for W; a rule
returns None where the q exponents are too sparse to pack, and the caller
runs the same computation on Poly terms.  Both rings take
mul_add(acc, a, b, sign) = acc + sign * a * b: q_mul_add with the width
bound, or poly_mul_add.
"""

import operator

from ._kernels_py import Q_BITS, Q_MASK
from .polyring import Poly

# The packed window pays for every q slot from a z-monomial's least to its
# largest exponent, the Poly window for every term, and a Poly term with a
# W-bit coefficient costs about as much more as a W-bit slot does.  So the
# choice rests on slots per term (_q_slots_and_terms), not on W.  Timed on
# 107 boards, each on both windows (built-in schemes at k = 2..4 and n up to
# 300; generic schemes with B and C up to 10^5 at k = 2..4 and n = 12..60):
# at up to 14 slots per estimated term the packed window won 44 of 56
# boards and lost none that took over 10 ms by more than 1.4x.  On 12 of
# the 17 built-in boards it was 6-32x faster (maj-lp k=2 n=200: 0.94 s
# against 30 s), on the other 5 0.8-1.1x.  Past 14 the Poly window won 50
# of 51, by up to 7000x where B and C run in the hundred thousands, and
# there the packed window also ran out of a 1 GB address space.
_SLOTS_PER_TERM = 14

# Largest packed integer, in bits, that determinant() allows: W times the
# q degree bound.  Above it (q-sparse entries, as from weights with large B
# or C values) the expansion runs on Poly terms.  On random generic schemes
# at k = 2..4 the packed path was up to 10x faster below 2^17 bits and up to
# 7x slower between 2^17 and 2^19; the built-in schemes need at most 45k
# bits at k = 6.
_PACKED_BITS = 1 << 17


def recursion_width(n: int, k: int, span: int, count: int) -> int | None:
    """W for the recursion on an n-board with parts <= k, whose tilings
    span `span` q exponents and number `count`, or None for Poly terms."""
    slots, terms = _q_slots_and_terms(n, k, span, count)
    if slots > _SLOTS_PER_TERM * terms:
        return None
    return count.bit_length() + 1


def determinant_width(bound: int, qb: int) -> int | None:
    """W for a determinant whose coefficients are at most `bound` in
    absolute value and whose q degree is at most qb, or None for Poly terms."""
    width = bound.bit_length() + 2
    return None if width * (qb + 1) > _PACKED_BITS else width


def _q_slots_and_terms(n: int, k: int, span: int, count: int) -> tuple[int, int]:
    """The q slots of a packed n-board sum, and a bound on its terms.

    The slots are the z-monomials of an n-board, one per multiset of tile
    lengths, times the q span of all its tilings.  The terms are bounded by
    the count of tilings, and per z-monomial by
    prod_{i<k} (c_i (n - i c_i) + 1) when it has c_i tiles of length i: in a
    separable scheme its q exponent is affine in the sums S_i of the tile
    starts over its i-tiles, S_i takes at most c_i (n - i c_i) + 1 values,
    and sum_i i S_i is fixed.  Both sums over z-monomials run as one
    knapsack over tile lengths.
    """
    zmons = [1] + [0] * n
    bound = [1] + [0] * n
    for i in range(1, k):
        factors = [c * (n - i * c) + 1 for c in range(1, n // i + 1)]
        for m in range(n, i - 1, -1):
            bound[m] += sum(map(operator.mul, bound[m - i :: -i], factors))
        for m in range(i, n + 1):
            zmons[m] += zmons[m - i]
    # tiles of length k add a factor 1 whatever their count
    slots = sum(zmons[n::-k]) * (span + 1)
    return slots, min(count, sum(bound[n::-k]))


def poly_mul_add(acc: Poly, a: Poly, b: Poly, sign: int) -> Poly:
    return acc + a * b if sign > 0 else acc - a * b


def q_pack(p: Poly, width: int) -> dict[int, tuple[int, int]]:
    """p in q-packed form with digits of `width` bits."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for key, c in p._terms.items():
        groups.setdefault(key >> Q_BITS, []).append((key & Q_MASK, c))
    out = {}
    for z, terms in groups.items():
        lo = min(q for q, _ in terms)
        out[z] = (lo, sum(c << width * (q - lo) for q, c in terms))
    return out


def q_mul_add(acc: dict, a: dict, b: dict, sign: int, width: int) -> dict:
    """acc + sign * a * b on q-packed forms, updating acc in place; a
    z-monomial whose x becomes 0 is dropped."""
    get = acc.get
    for za, (la, xa) in a.items():
        if sign < 0:
            xa = -xa
        for zb, (lb, xb) in b.items():
            z = za + zb
            lo = la + lb
            x = xa * xb
            cur = get(z)
            if cur is not None:
                l0, x0 = cur
                if l0 == lo:
                    x += x0
                elif l0 < lo:
                    x = x0 + (x << width * (lo - l0))
                    lo = l0
                else:
                    x += x0 << width * (l0 - lo)
                if not x:
                    del acc[z]
                    continue
            acc[z] = (lo, x)
    return acc


def q_unpack(k: int, packed: dict, width: int) -> Poly:
    """The polynomial whose q-packed form is `packed`, read as balanced
    digits: exact when width >= 2 and every coefficient c has
    |c| < 2^(width - 1).  Its degree bounds are read off its terms on
    first use."""
    base = 1 << width
    half = base >> 1
    mask = base - 1
    # Eight digits fill `width` whole bytes.  Adding half to each digit makes
    # them all nonnegative, so the bytes of x + bias split into independent
    # blocks of eight digits; x + bias stays below 2^(width * digits) once
    # |x| < 2^(width * (digits - 1)).
    block_bias = sum(half << width * t for t in range(8)).to_bytes(width, "little")
    terms = {}
    for z, (lo, x) in packed.items():
        key = (z << Q_BITS) + lo
        if x.bit_length() < 64 * width:
            # Short x: peeling digits off the low end is cheaper, although
            # each step shifts the whole of x.  Timed on random balanced
            # digits at widths 8, 24, 64 and 160: peeling was 3-4x faster at
            # 4-8 digits, the two met between 32 digits (width 160) and 128
            # (width 8), and bytes were 1.3-4.5x faster at 256.  At 64 digits
            # the slower one was within 1.3x of the faster for widths 8-64.
            # The verify-grid determinants decode at most 11 digits (widths
            # 25-44); the long boards average 1 (inv-prlp) to about 500
            # (maj-lp) digits per z-monomial (widths 29-76).
            while x:
                d = x & mask
                if d >= half:
                    d -= base
                if d:
                    terms[key] = d
                x = (x - d) >> width
                key += 1
            continue
        blocks = (x.bit_length() // width + 9) // 8
        y = x + int.from_bytes(block_bias * blocks, "little")
        data = y.to_bytes(blocks * width, "little")
        for start in range(0, blocks * width, width):
            chunk = int.from_bytes(data[start : start + width], "little")
            for _ in range(8):
                d = (chunk & mask) - half
                if d:
                    terms[key] = d
                chunk >>= width
                key += 1
    return Poly._wrap(k, terms)
