"""q-packed arithmetic, and ring(width): the whole arithmetic that the
first-tile recursion (tiling.weighted_sum_recursive) and the minor
determinant (lattice.determinant) run on, at the width each one's rule
gives.  One q exponent per z-monomial (one_q_per_z) gives a closed form
(tiling._one_q_sums).

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
"""

import itertools
import operator
import sys
import types

from . import _kernels_py
from ._kernels_py import Q_BITS, Q_MASK, Z_BITS, Z_MASK
from .polyring import Poly

# The packed window pays for every q slot from a z-monomial's least to its
# largest exponent, the term window for every term, and a term with a
# W-bit coefficient costs about as much more as a W-bit slot does.  So the
# choice rests on slots per term (_q_slots_and_terms), not on W.  Timed
# against the in-place term ring (_kernels_py.mul_add_terms), each board on
# both windows, best of 3 (Python 3.11, 2 vCPUs): the 12 built-in boards of
# maj-lp, maj-rlp, maj-prlp and rb-lpi at k = 2..4 (n = 45..240) and 120
# generic schemes with B and C drawn log-uniformly up to 10^5 at k = 2..4
# and n = 12..60.  (The inv-* boards, one q per z-monomial, take the closed
# form and never reach this rule.)  At up to 8 slots per estimated term the
# packed window won 43 of 46 boards (median 4.4x; the 12 q-dense built-in
# boards 12-25x) and lost none by more than 1.4x (36 ms).  Past 8 the term
# window won 45 of the 56 boards run on both (median above 3.1x); the
# packed window won 11, by up to 7.3x, and ran out of a 1.5 GB address
# space on 6 more, two at 10 and 12 slots per term whose term window took
# 2.7 and 15 s.
_SLOTS_PER_TERM = 8

# Largest packed integer, in bits, that determinant() allows: W times the
# q degree bound.  Above it (q-sparse entries, as from weights with large B
# or C values) the expansion runs on plain terms.  On random generic schemes
# at k = 2..4 the packed path was up to 10x faster below 2^17 bits and up to
# 7x slower between 2^17 and 2^19; the built-in schemes need at most 45k
# bits at k = 6.  The inv-* minors pack too, though their sums have one q
# per z-monomial: the minor's entries do not.  Timed against the in-place
# term ring, built-in and A-twisted, summed over n = 1..6 at k = 4 and
# n = 1..3 at k = 6 (Python 3.11, 2 vCPUs): packing was 2.1-2.4x faster for
# inv-lp and inv-prlp at k = 4 and 10-15x at k = 6; for inv-rlp, whose
# determinant is one monomial, the term ring was 10% faster at k = 4 and
# 8-12% slower at k = 6, too little for a rule of its own.
_PACKED_BITS = 1 << 17


def ring(width: int | None) -> types.SimpleNamespace:
    """The arithmetic of the q-packed ring with digits of `width` bits
    (q_pack, q_mul_add, q_divide, q_unpack), or for None of Poly's term
    dicts (_kernels_py.mul_add_terms, divide_terms).  A caller bounds its
    coefficients and takes the width from its rule (recursion_width,
    determinant_width): None where packing costs more than plain terms.

    mono(z, e) is the monomial z q^e for a z-key z (packed key >> Q_BITS)
    and pack(p) is the Poly p, as values of the ring.  mul_add(acc, a, b,
    sign) adds sign * a * b into acc in place, dropping zeros, and returns
    it; acc is the caller's own dict, started from {}, never a or b.  a and
    b are only read: a packed pair is a tuple where q_pack and mono build
    it and a two-item list, a cell, where q_mul_add does, and no cell of a
    or b enters acc, so a result passed back in stays as it was.
    divide(a, z, e) is a / (z_l q^e) for the z-key z of one variable z_l,
    into a fresh dict, or None where that leaves a remainder.  scale(k, r,
    exps) is r under z_l -> z_l q^exps[l-1], l = 1..k, into a fresh dict;
    an exponent may be negative where every term of r keeps a q exponent
    >= 0.  unpack(k, r) wraps a result once, as a Poly in k variables.  The
    term kernels are looked up when ring is called and the packed ones at
    every call, so a patched kernel is the one that runs."""
    if width is None:
        shift = _kernels_py.shift_q_terms
        return types.SimpleNamespace(
            mono=lambda z, e: {(z << Q_BITS) + e: 1},
            pack=lambda p: p._terms,
            mul_add=_kernels_py.mul_add_terms,
            divide=_kernels_py.divide_terms,
            scale=lambda k, r, exps: shift(r, _z_shifts(k, exps, Q_BITS)),
            unpack=Poly._wrap,
        )
    return types.SimpleNamespace(
        mono=lambda z, e: {z: (e, 1)},
        pack=lambda p: q_pack(p, width),
        mul_add=lambda acc, a, b, sign: q_mul_add(acc, a, b, sign, width),
        divide=lambda a, z, e: q_divide(a, z, e, width),
        scale=lambda k, r, exps: q_scale(r, _z_shifts(k, exps, 0), width),
        unpack=lambda k, r: q_unpack(k, r, width),
    )


def _z_shifts(k: int, exps, base: int) -> tuple[tuple[int, int], ...]:
    # (bit offset of z_l's field, exps[l-1]) for each l with a shift, in
    # keys whose z fields start `base` bits up: Q_BITS in packed keys, 0 in
    # z-keys
    return tuple((base + (k - l) * Z_BITS, e) for l, e in enumerate(exps, 1) if e)


def recursion_width(n: int, k: int, span: int, count: int) -> int | None:
    """W for the recursion on an n-board with parts <= k, whose tilings
    span `span` q exponents and number `count`, or None for plain terms.

    W is bitlen(count) + 1, raised to 64: q_unpack casts long x's of
    64-bit digits a word at a time.  Wider digits stay as narrow as the
    count and read by byte blocks, which were no slower there than digits
    rounded up to whole words."""
    slots, terms = _q_slots_and_terms(n, k, span, count)
    if slots > _SLOTS_PER_TERM * terms:
        return None
    return max(64, count.bit_length() + 1)


def determinant_width(bound: int, qb: int) -> int | None:
    """W for a determinant whose coefficients are at most `bound` in
    absolute value and whose q degree is at most qb, or None for plain terms."""
    width = bound.bit_length() + 2
    return None if width * (qb + 1) > _PACKED_BITS else width


def one_q_per_z(rows) -> bool:
    """Whether every z-monomial of a board has one q exponent: rows[i-1]
    holds the packed keys (or the q exponents) of a tile of length i at
    starts 1, 2, ..., and each row must step by lam * i per start for one
    lam; see tiling._one_q_sums.  A row with one start sets no step."""
    ref = None  # (step, i) of the first row with two starts
    for i, row in enumerate(rows, 1):
        if len(row) < 2:
            continue
        step = row[1] - row[0]
        if any(b - a != step for a, b in itertools.pairwise(row)):
            return False
        if ref is None:
            ref = step, i
        elif step * ref[1] != ref[0] * i:
            return False
    return True


def _q_slots_and_terms(n: int, k: int, span: int, count: int) -> tuple[int, int]:
    """The q slots of a packed n-board sum, and a bound on its terms.

    The slots are the z-monomials of an n-board, one per multiset of tile
    lengths, times the q span of all its tilings.  The terms are bounded by
    the count of tilings, and per z-monomial by
    prod_{i<k} (c_i (n - i c_i) + 1) when it has c_i tiles of length i: in a
    separable scheme its q exponent is affine in the sums S_i of the tile
    starts over its i-tiles, with slope B(i) - C(i) in S_i, S_i takes at
    most c_i (n - i c_i) + 1 values, and sum_i i S_i is fixed.  Both sums
    over z-monomials run as one knapsack over tile lengths.
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
    z_total = sum(zmons[n::-k])
    return z_total * (span + 1), min(count, sum(bound[n::-k]))


def q_pack(p: Poly, width: int) -> dict[int, tuple[int, int]]:
    """p in q-packed form with digits of `width` bits: one pass over the
    keys from the largest down, so each z-monomial's terms arrive together,
    q falling, and its x is built Horner-style."""
    terms = p._terms
    out = {}
    z0 = lo = x = None
    for key in sorted(terms, reverse=True):
        z = key >> Q_BITS
        q = key & Q_MASK
        if z == z0:
            x = (x << width * (lo - q)) + terms[key]
        else:
            if z0 is not None:
                out[z0] = (lo, x)
            z0, x = z, terms[key]
        lo = q
    if z0 is not None:
        out[z0] = (lo, x)
    return out


def q_mul_add(acc: dict, a: dict, b: dict, sign: int, width: int) -> dict:
    """acc + sign * a * b on q-packed forms, in place as ring's mul_add; a
    z-monomial whose x becomes 0 is dropped."""
    get = acc.get
    for za, (la, xa) in a.items():
        if sign < 0:
            xa = -xa
        for zb, (lb, xb) in b.items():
            z = za + zb
            lo = la + lb
            # every recursion tile has coefficient 1: no copy of xb
            prod = xb if xa == 1 else xa * xb
            cell = get(z)
            if cell is None:
                acc[z] = [lo, prod]
                continue
            l0, x0 = cell
            if l0 == lo:
                x = x0 + prod
            elif l0 < lo:
                x = x0 + (prod << width * (lo - l0))
            else:
                x = prod + (x0 << width * (l0 - lo))
                cell[0] = lo
            if x:
                cell[1] = x
            else:
                del acc[z]
    return acc


def q_divide(a: dict, z: int, e: int, width: int) -> dict | None:
    """a / (z_l q^e) on q-packed forms, for the z-key z of one variable z_l
    (1 in its field), or None unless every z-monomial of a holds z_l and
    has q^e: an offset lo >= e, or an x whose low width * (e - lo) bits are
    0.  The result is a fresh dict of pairs.  x is divided exactly as an
    integer, so a = quotient * z_l q^e holds under q -> 2^W even where an
    intermediate's digits pass W bits, and a determinant read back by
    q_unpack stays exact."""
    held = Z_MASK * z
    out = {}
    for za, (lo, x) in a.items():
        if not za & held:
            return None
        if lo < e:
            shift = width * (e - lo)
            if x & ((1 << shift) - 1):
                return None
            x >>= shift
            lo = e
        out[za - z] = (lo - e, x)
    return out


def q_scale(packed: dict, shifts, width: int) -> dict:
    """packed under z_l -> z_l q^e for each (offset, e) in shifts, offset
    the bit offset of z_l's field in a z-key, as ring's scale: only the
    offsets move.  An offset that falls below 0 is raised back to 0 by an
    exact division of x, whose digits below it are 0 when every term keeps
    a q exponent >= 0."""
    out = {}
    for z, (lo, x) in packed.items():
        for off, e in shifts:
            lo += (z >> off & Z_MASK) * e
        if lo < 0:
            x >>= width * -lo
            lo = 0
        out[z] = (lo, x)
    return out


def q_unpack(k: int, packed: dict, width: int) -> Poly:
    """The polynomial whose q-packed form is `packed`, read as balanced
    digits: exact when width >= 2 and every coefficient c has
    |c| < 2^(width - 1).  Its degree bounds are read off its terms on
    first use."""
    base = 1 << width
    half = base >> 1
    mask = base - 1
    # a 64-bit digit is a machine word, in the order to_bytes writes
    cast = width == 64 and sys.byteorder == "little"
    # Peeling digits off the low end shifts the whole of x at every step;
    # the cast and the byte blocks are linear, with a fixed cost per x.
    # Timed on random balanced digits (best of 5, Python 3.11, 2 vCPUs):
    # the cast met peeling at 16 digits and was 1.3-3x faster at 64.  The
    # byte blocks met peeling between 32 digits (width 160) and 128 (width
    # 8), and were 1.3-4.5x faster at 256.  The recursion's digits are at
    # least a word wide (recursion_width); the determinant's stay as narrow
    # as its bound, so its long x's (generic schemes with moderate B or C)
    # read byte blocks.
    short = (16 if cast else 64) * width
    # Eight digits fill `width` whole bytes.  Adding half to each digit makes
    # them all nonnegative, so the bytes of x + bias split into independent
    # blocks of eight digits; x + bias stays below 2^(width * digits) once
    # |x| < 2^(width * (digits - 1)).
    block_bias = sum(half << width * t for t in range(8)).to_bytes(width, "little")
    terms = {}
    for z, (lo, x) in packed.items():
        key = (z << Q_BITS) + lo
        if x.bit_length() < short:
            while x:
                d = x & mask
                if d >= half:
                    d -= base
                if d:
                    terms[key] = d
                x = (x - d) >> width
                key += 1
        elif cast:
            # Adding half to every digit makes each one a nonnegative word
            # of x + bias; flipping the word's top bit back leaves the digit
            # in two's complement.  One word more than bitlen(x) fills keeps
            # x + bias in [0, 2^(64 * n_digits)): |x| < 2^(64 * (n_digits -
            # 1) - 1), and the bias is about 2^(64 * n_digits - 1).
            # x = 2^(64 * j - 1) - 1 does need that word, a digit -2^63
            # below a 1.
            n_digits = x.bit_length() // 64 + 2
            bias = int.from_bytes((bytes(7) + b"\x80") * n_digits, "little")
            data = memoryview(((x + bias) ^ bias).to_bytes(n_digits * 8, "little"))
            digits = data.cast("q").tolist()
            terms.update(itertools.compress(zip(itertools.count(key), digits), digits))
        else:
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
