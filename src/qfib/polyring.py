"""Exact sparse polynomials in z_1, ..., z_k and q over arbitrary-precision ints.

This is the value type for every weighted count in the package: a polynomial
is a finite sum of monomials c * z1^e1 * ... * zk^ek * q^eq with nonzero
integer coefficients, kept in canonical merged form (no two stored terms share
an exponent vector, no zero coefficients).  Equality is exact.

Internally each exponent vector lives in a single packed integer key (see
_kernels_py for the layout), so monomial multiplication is one integer
addition.  The packing caps exponents at 2**16 - 1 per z variable and
2**32 - 1 for q; a CapacityError is raised before any arithmetic could
overflow a field.  Term order for printing and JSON is graded lexicographic
on (e1, ..., ek, eq), highest first.

Text grammar (produced by format, accepted by parse):

    poly   := ["-"] term (("+" | "-") term)*
    term   := coeff | [coeff "*"] factor ("*" factor)*
    factor := ("z" index | "q") ["^" exponent]

coeff, index and exponent are runs of ASCII digits; leading zeros are
allowed.  Spaces may stand around "*", "+" and "-" and at either end, but
not around "^" or inside a number.  format writes "0" for the zero
polynomial, " + " and " - " between terms, coefficient 1 and exponent 1
implicit, exponent-0 factors omitted and the factors in the order z1, ...,
zk, q.  parse also reads factors in any order and a variable named more than
once, whose exponents add up; every term is range-checked as a whole.

JSON form (produced by to_json_dict, accepted by from_json_dict):

    {"k": k, "terms": [{"coeff": "-3", "z": [e1, ..., ek], "q": eq}, ...]}

coeff is written as a decimal string so that any size survives a JSON
reader; it is read as an int or a string of ASCII digits with an optional
leading "-".  z is a list of k ints and q an int.  Terms are written in
canonical order and read in any order, repeats adding up.

Python limits int/str conversion to sys.get_int_max_str_digits() digits
(4300 by default).  parse raises PolyParseError at the first digit of a
longer number and from_json_dict raises PolyJsonError on a longer
coefficient string; format and to_json_dict keep Python's ValueError for a
coefficient that long, which no CLI output comes near.
"""

import operator
import re
import struct
from typing import Iterable, Iterator, NamedTuple

from ._backend import kernels as _k
from ._kernels_py import Q_BITS, Q_MASK, Z_BITS, Z_MASK
from .errors import (
    CapacityError,
    InvalidShiftError,
    PolyJsonError,
    PolyParseError,
    RingMismatchError,
)


class Monomial(NamedTuple):
    """One term: coeff * z1^z_exps[0] * ... * zk^z_exps[k-1] * q^q_exp."""

    coeff: int
    z_exps: tuple[int, ...]
    q_exp: int


def _zoffsets(k: int) -> tuple[int, ...]:
    # Bit offset of each z_i field; z_1 is the most significant.
    return tuple(Q_BITS + (k - i) * Z_BITS for i in range(1, k + 1))


def _pack(k: int, z_exps, q_exp: int) -> int:
    key = q_exp
    off = Q_BITS + (k - 1) * Z_BITS
    for e in z_exps:
        key += e << off
        off -= Z_BITS
    return key


def _z_exps(k: int, z: int) -> tuple[int, ...]:
    """Exponents of the z-monomial z = key >> Q_BITS."""
    # tuple() of a list, not of a generator: that one over-allocates and
    # shrinks, and raised cli-session's peak RSS by 0.3 MB
    return tuple([(z >> (k - i) * Z_BITS) & Z_MASK for i in range(1, k + 1)])


class Poly:
    """Immutable sparse polynomial over Z in z_1..z_k and q.

    All operations return new instances; values can be shared freely across
    threads.  _bounds is a pair of upper bounds (see degree_bounds) that
    keeps packed-field overflow checks O(1).  An operation sets it only
    where it knows the bounds without looking at its terms (a product, a
    shift, a sum of two values with bounds); otherwise it is None until
    degree_bounds reads the exact bounds off the terms and keeps them.
    """

    __slots__ = ("k", "_terms", "_bounds")

    def __init__(self, k: int, terms=None):
        _check_ring_size(k)
        terms = {} if terms is None else terms
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        self.k = k
        self._terms = terms
        self._bounds = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def _wrap(cls, k: int, terms: dict, bounds=None) -> "Poly":
        # terms must hold no zero coefficient; bounds as in _bounds
        self = object.__new__(cls)
        self.k = k
        self._terms = terms
        self._bounds = bounds
        return self

    @classmethod
    def zero(cls, k: int) -> "Poly":
        return cls.constant(k, 0)

    @classmethod
    def one(cls, k: int) -> "Poly":
        return cls.constant(k, 1)

    @classmethod
    def constant(cls, k: int, c: int) -> "Poly":
        _check_ring_size(k)
        return cls._wrap(k, {0: c} if c else {}, (0, 0))

    @classmethod
    def monomial(cls, k: int, coeff: int, z_exps, q_exp: int = 0) -> "Poly":
        return cls.from_monomials(k, [(coeff, z_exps, q_exp)])

    @classmethod
    def from_monomials(cls, k: int, monomials: Iterable) -> "Poly":
        """Sum of (coeff, z_exps, q_exp) terms in one pass; every term is
        checked before it merges, even one that later cancels."""
        _check_ring_size(k)
        # The big-endian fields of one struct record are the packed key's
        # fields, and struct range-checks them in C; its error is then
        # turned into the error class the per-field checks name.
        pack = struct.Struct(f">{k}HI").pack
        from_bytes = int.from_bytes
        terms: dict[int, int] = {}
        get = terms.get
        zb = qb = 0
        for coeff, z_exps, q_exp in monomials:
            z_exps = tuple(z_exps)
            try:
                key = from_bytes(pack(*z_exps, q_exp), "big")
            except struct.error:
                _check_term(k, z_exps, q_exp)
                raise
            terms[key] = get(key, 0) + coeff
            e = max(z_exps)
            if e > zb:
                zb = e
            if q_exp > qb:
                qb = q_exp
        # the bounds cover every term merged, a cancelled one too
        self = cls(k, terms)
        self._bounds = zb, qb
        return self

    # ------------------------------------------------------------------
    # ring operations

    def _check_ring(self, other: "Poly"):
        if self.k != other.k:
            raise RingMismatchError(
                f"mixed rings: k={self.k} vs k={other.k}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.k, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        return Poly._wrap(
            self.k, _k.add_terms(self._terms, other._terms), _max_bounds(self, other)
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.k, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        return Poly._wrap(
            self.k, _k.sub_terms(self._terms, other._terms), _max_bounds(self, other)
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly._wrap(self.k, _k.scalar_mul_terms(self._terms, -1), self._bounds)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly._wrap(self.k, _k.scalar_mul_terms(self._terms, other), self._bounds)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        (zb, qb), (ozb, oqb) = self.degree_bounds, other.degree_bounds
        bounds = zb + ozb, qb + oqb
        check_capacity(*bounds)
        return Poly._wrap(self.k, _k.mul_terms(self._terms, other._terms), bounds)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InvalidShiftError(f"polynomial power must be a nonnegative int, got {n!r}")
        result = Poly.one(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.k == other.k and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    # ------------------------------------------------------------------
    # specialization

    def substitute_z_scale(self, exps) -> "Poly":
        """Substitute z_i -> z_i * q^(exps[i-1]); exponents must be >= 0."""
        exps = tuple(exps)
        if len(exps) != self.k:
            raise RingMismatchError(
                f"expected {self.k} shift exponents, got {len(exps)}"
            )
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise InvalidShiftError(f"shift exponents must be nonnegative ints, got {e!r}")
        if not any(exps) or not self._terms:
            return self
        zb, qb = self.degree_bounds
        qb += zb * sum(exps)
        if qb > Q_MASK:
            raise CapacityError(f"q degree bound {qb} exceeds packed-key capacity")
        offs = _zoffsets(self.k)
        shifts = tuple((offs[i], e) for i, e in enumerate(exps) if e)
        terms = _k.shift_q_terms(self._terms, shifts)
        # qb above only guards the packed field.  The result's own q bound
        # is read off its keys, one pass at C speed, because it is often
        # k times smaller and the determinant picks its route by it.
        return Poly._wrap(self.k, terms, (zb, max(map(Q_MASK.__and__, terms))))

    def times_q(self, e: int) -> "Poly":
        """Multiply by the monomial q^e."""
        if not isinstance(e, int) or e < 0:
            raise InvalidShiftError(f"q power must be a nonnegative int, got {e!r}")
        if e == 0 or not self._terms:
            return self
        zb, qb = self.degree_bounds
        if qb + e > Q_MASK:
            raise CapacityError(f"q degree bound {qb + e} exceeds packed-key capacity")
        return Poly._wrap(self.k, _k.times_q_terms(self._terms, e), (zb, qb + e))

    def evaluate(self, z_vals, q_val: int) -> int:
        z_vals = tuple(z_vals)
        if len(z_vals) != self.k:
            raise RingMismatchError(f"expected {self.k} z values, got {len(z_vals)}")
        return _k.eval_terms(self._terms, _zoffsets(self.k), z_vals, q_val)

    # ------------------------------------------------------------------
    # inspection and serialization

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree_bounds(self) -> tuple[int, int]:
        """Upper bounds on any single z exponent and on the q exponent,
        exact when read off the terms: on first use, for a value given no
        bounds (Poly(k, terms), parse and q_unpack results, sums with
        those).  The read is kept; threads that race on it store equal pairs.
        """
        if self._bounds is None:
            self._bounds = _read_bounds(self.k, self._terms)
        return self._bounds

    @property
    def l1_norm(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(c) for c in self._terms.values())

    def _canonical_keys(self) -> list:
        # Graded lex, highest first, with each z-monomial's degree summed once.
        offs = _zoffsets(self.k)
        zdeg: dict[int, int] = {}
        for key in self._terms:
            z = key >> Q_BITS
            if z not in zdeg:
                zdeg[z] = sum((key >> off) & Z_MASK for off in offs)
        return sorted(
            self._terms,
            key=lambda key: (zdeg[key >> Q_BITS] + (key & Q_MASK), key),
            reverse=True,
        )

    def monomials(self) -> Iterator[Monomial]:
        """Terms in canonical order (graded lex, highest first)."""
        z_exps: dict[int, tuple[int, ...]] = {}
        for key in self._canonical_keys():
            zs = z_exps.get(key >> Q_BITS)
            if zs is None:
                zs = z_exps[key >> Q_BITS] = _z_exps(self.k, key >> Q_BITS)
            yield Monomial(self._terms[key], zs, key & Q_MASK)

    def format(self) -> str:
        if not self._terms:
            return "0"
        # The z factors are rendered once per z-monomial; per term only the
        # q factor and the coefficient are.
        z_text: dict[int, str] = {}
        out = []
        for key in self._canonical_keys():
            body = z_text.get(key >> Q_BITS)
            if body is None:
                body = z_text[key >> Q_BITS] = "*".join(
                    f"z{i}" if e == 1 else f"z{i}^{e}"
                    for i, e in enumerate(_z_exps(self.k, key >> Q_BITS), start=1)
                    if e
                )
            q = key & Q_MASK
            if q:
                q_part = "q" if q == 1 else f"q^{q}"
                body = f"{body}*{q_part}" if body else q_part
            coeff = self._terms[key]
            mag = abs(coeff)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            out.append(f" - {body}" if coeff < 0 else f" + {body}")
        out[0] = f"-{out[0][3:]}" if out[0][1] == "-" else out[0][3:]
        return "".join(out)

    __str__ = format

    def __repr__(self):
        return f"Poly.parse({self.format()!r}, k={self.k})"

    def to_json_dict(self) -> dict:
        terms = self._terms
        keys = self._canonical_keys()
        # each z-monomial is decoded once; every term gets its own z list
        exps = {z: _z_exps(self.k, z) for z in set(map(Q_BITS.__rrshift__, keys))}
        return {
            "k": self.k,
            "terms": [
                {"coeff": str(terms[key]), "z": [*exps[key >> Q_BITS]], "q": key & Q_MASK}
                for key in keys
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Poly":
        try:
            k, rows = data["k"], data["terms"]
        except (KeyError, TypeError):
            raise PolyJsonError('a JSON polynomial is an object with "k" and "terms"') from None
        if not isinstance(rows, list):
            raise PolyJsonError(f'"terms" must be a list, got {type(rows).__name__}')
        return cls.from_monomials(k, map(_json_term, rows))

    # ------------------------------------------------------------------
    # parsing

    @classmethod
    def parse(cls, text: str, k: int) -> "Poly":
        """The polynomial written in the text grammar (module docstring).

        One regex match reads each term.  A term's z factors are decoded once
        per distinct text, and its key is packed and range-checked before the
        next term is read, so errors come in text order.
        """
        _check_ring_size(k)
        n = len(text)
        pos = _SPACES.match(text).end()
        if pos == n:
            raise PolyParseError("empty input", pos)
        sign = 1
        if text[pos] == "-":
            sign = -1
            pos += 1
        match = _TERM.match
        z_decoded: dict[str, tuple[int, int, list]] = {}
        terms: dict[int, int] = {}
        get = terms.get
        while True:
            m = match(text, pos)
            if m is None:
                raise _factor_error(text, _SPACES.match(text, pos).end(), "expected a term")
            c, z, q = m.groups()
            try:
                coeff = sign * int(c) if c else sign
            except ValueError:
                raise _too_long(c, m.start(1)) from None
            if z is None:
                zkey = ze = 0
            else:
                hit = z_decoded.get(z)
                if hit is None:
                    z_exps = [0] * k
                    _add_factors(z, m.start(2), k, z_exps)
                    # the key is meaningful only when the largest exponent fits
                    hit = z_decoded[z] = (_pack(k, z_exps, 0), max(z_exps), z_exps)
                zkey, ze, z_exps = hit
            if q is None:
                qe = 0
            elif q == "q":
                qe = 1
            elif q == "q^":
                raise PolyParseError("expected a number", m.end(3))
            else:
                try:
                    qe = int(q[2:])
                except ValueError:
                    raise _too_long(q[2:], m.start(3) + 2) from None
            pos = m.end()
            sep = text[pos : pos + 1]
            if sep == "*":
                z_exps = list(z_exps) if z else [0] * k
                while sep == "*":
                    more = _MORE.match(text, pos)
                    if more is None:
                        raise _factor_error(
                            text, _SPACES.match(text, pos + 1).end(), "expected a factor"
                        )
                    qe += _add_factors(more[1], more.start(1), k, z_exps)
                    pos = more.end()
                    sep = text[pos : pos + 1]
                zkey = _pack(k, z_exps, 0)
                ze = max(z_exps)
            if ze > Z_MASK:
                raise CapacityError(f"z exponent {ze} exceeds field capacity {Z_MASK}")
            if qe > Q_MASK:
                raise CapacityError(f"q exponent {qe} exceeds field capacity {Q_MASK}")
            key = zkey + qe
            terms[key] = get(key, 0) + coeff
            if sep == "+":
                sign = 1
            elif sep == "-":
                sign = -1
            elif sep:
                raise PolyParseError(f"expected '+' or '-', found {sep!r}", pos)
            else:
                return cls(k, terms)
            pos += 1


def _too_long(digits: str, pos: int) -> PolyParseError:
    # int() raises ValueError on ASCII digits only past Python's int/str
    # conversion limit; the readers convert inside try blocks, which cost
    # nothing until they raise, instead of calling a checking helper per term.
    return PolyParseError(f"a number of {len(digits)} digits is too long", pos)


def _check_ring_size(k):
    if not isinstance(k, int) or k < 1:
        raise RingMismatchError(f"ring needs a positive variable count, got {k!r}")


def _check_term(k: int, z_exps: tuple, q_exp):
    """Raise the error for the first field of a term that does not fit its
    place in the packed key."""
    if len(z_exps) != k:
        raise RingMismatchError(f"expected {k} z exponents, got {len(z_exps)}")
    for e in z_exps:
        if not isinstance(e, int) or e < 0:
            raise InvalidShiftError(f"z exponents must be nonnegative ints, got {e!r}")
        if e > Z_MASK:
            raise CapacityError(f"z exponent {e} exceeds field capacity {Z_MASK}")
    if not isinstance(q_exp, int) or q_exp < 0:
        raise InvalidShiftError(f"q exponent must be a nonnegative int, got {q_exp!r}")
    if q_exp > Q_MASK:
        raise CapacityError(f"q exponent {q_exp} exceeds field capacity {Q_MASK}")


def _max_bounds(a: Poly, b: Poly):
    # a sum's bounds: the larger of each, when both summands carry bounds
    a, b = a._bounds, b._bounds
    return a and b and (max(a[0], b[0]), max(a[1], b[1]))


def _read_bounds(k: int, terms: dict) -> tuple[int, int]:
    # the exact bounds at C speed, each z field read over the z-monomials;
    # no terms read (0, 0)
    zs = set(map(Q_BITS.__rrshift__, terms)) or {0}
    zb = max(max(map(Z_MASK.__and__, map((i * Z_BITS).__rrshift__, zs))) for i in range(k))
    return zb, max(map(Q_MASK.__and__, terms), default=0)


_decimal = re.compile(r"-?[0-9]+").fullmatch


def _json_term(t) -> tuple:
    """(coeff, z, q) of one JSON term; z and q are checked as they pack."""
    try:
        coeff, z, q = t["coeff"], t["z"], t["q"]
    except (KeyError, TypeError):
        raise PolyJsonError('a JSON term is an object with "coeff", "z" and "q"') from None
    if type(coeff) is str and _decimal(coeff):
        try:
            coeff = int(coeff)
        except ValueError:  # past Python's int/str conversion limit
            raise PolyJsonError(f"coefficient of {len(coeff)} characters is too long") from None
    elif type(coeff) is not int:
        raise PolyJsonError(f"a coefficient must be an int or a decimal string, got {coeff!r}")
    if type(z) is not list:
        raise PolyJsonError(f"z exponents must be a list, got {type(z).__name__}")
    return coeff, z, q


# The start of one term of the text grammar, with the spaces around it: the
# coefficient, a run of up to 64 z factors (with the "*" before a q that
# follows them) and one q factor, each group optional.  Every term format
# writes ends there; parse reads any further factors in chunks with _MORE.
# A group's text is well formed except that an exponent may be empty
# ("z1^", reported at its position); index ranges are checked while
# decoding.  Factors never follow a digit, so "2z1" ends the term after "2".
# The matcher keeps state for every repeat of a part longer than one
# character until the match ends, and possessive repeats need Python 3.11,
# so each such repeat is capped: memory stays bounded however long a term.
_F = r"(?:z[0-9]+|q)(?:\^[0-9]*)?"
_ZF = r"z[0-9]+(?:\^[0-9]*)?"
_TERM = re.compile(
    r" *(?:([0-9]+)(?: *\* *(?=z[0-9]|q))?|(?=z[0-9]|q))"
    rf"(?:(?<![0-9])({_ZF}(?: *\* *{_ZF}){{0,63}}(?: *\* *(?=q))?)?"
    r"((?<![0-9^])q(?:\^[0-9]*)?)?)? *"
)
_MORE = re.compile(rf"\* *({_F}(?: *\* *{_F}){{0,63}}) *")
_FACTOR = re.compile(r"([zq])([0-9]*)(?:\^([0-9]*))?")
_SPACES = re.compile(" *")


def _add_factors(text: str, base: int, k: int, z_exps: list) -> int:
    """Add the exponents of the factors in `text`, which starts at position
    `base` of the parsed string, into z_exps; return the q exponent."""
    q = 0
    for f in _FACTOR.finditer(text):
        var, index, exp = f.groups()
        if var == "z":
            try:
                i = int(index)
            except ValueError:
                raise _too_long(index, base + f.start(2)) from None
            if not 1 <= i <= k:
                raise PolyParseError(f"variable z{i} outside ring with k={k}", base + f.end(2))
        if exp is None:
            e = 1
        elif exp:
            try:
                e = int(exp)
            except ValueError:
                raise _too_long(exp, base + f.start(3)) from None
        else:
            raise PolyParseError("expected a number", base + f.end())
        if var == "q":
            q += e
        else:
            z_exps[i - 1] += e
    return q


def _factor_error(text: str, pos: int, at_end: str) -> PolyParseError:
    # pos is where a factor (or a term) must start but no pattern matched:
    # an ASCII digit would have begun a coefficient, "q" always matches and
    # "z" followed by a digit would have matched too.
    if pos == len(text):
        return PolyParseError(at_end, pos)
    if text[pos] == "z":
        return PolyParseError("expected a number", pos + 1)
    return PolyParseError(f"expected a factor, found {text[pos]!r}", pos)


def check_capacity(zb: int, qb: int):
    """Raise CapacityError unless z exponents up to zb and q exponents up to
    qb fit their fields of the packed key."""
    if zb > Z_MASK or qb > Q_MASK:
        raise CapacityError(
            f"product degree bounds (z<= {zb}, q<= {qb}) exceed packed-key capacity"
        )


def diff_witness(a: Poly, b: Poly) -> str | None:
    """First differing term of two polynomials, or None when they are equal.

    The witness names the monomial (in canonical order over the union of
    supports) together with both coefficients.
    """
    if a.k != b.k:
        raise RingMismatchError(f"mixed rings: k={a.k} vs k={b.k}")
    if a == b:
        return None
    at, bt = a._terms, b._terms
    # the keys whose coefficients differ
    keys = [*map(operator.itemgetter(0), at.items() ^ bt.items())]
    zdeg = {z: sum(_z_exps(a.k, z)) for z in {key >> Q_BITS for key in keys}}
    # the first of them in canonical order has the largest (total degree, key)
    key = max(keys, key=lambda key: (zdeg[key >> Q_BITS] + (key & Q_MASK), key))
    name = Poly.monomial(a.k, 1, _z_exps(a.k, key >> Q_BITS), key & Q_MASK).format()
    return f"coefficient of {name}: {at.get(key, 0)} != {bt.get(key, 0)}"
