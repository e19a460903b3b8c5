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

JSON form (written by to_json, accepted by from_json_dict):

    {"k": k, "terms": [{"coeff": "-3", "z": [e1, ..., ek], "q": eq}, ...]}

to_json writes this text with the separators of json.dumps, and
to_json_dict is that text read back by json.loads.  coeff is written as a
decimal string so that any size survives a JSON reader; it is read as an
int or a string of ASCII digits with an optional leading "-".  z is a list
of k ints and q an int, neither a bool.  Terms are written in canonical
order and read in any order, repeats adding up.

Each reader has two paths, and the input picks one.  Input exactly in the
writer's form (format's text, where a coefficient may also carry leading
zeros or an explicit 1 and q may be q^1; to_json's form as json.loads
returns it) is read at C speed: str methods and C-level maps over the
input, each distinct z-part, q exponent or z list decoded once.  Anything
else (other spacing, factors in another order or named twice, repeated
terms, int coefficients, anything malformed) goes to the full reader, which
is the only source of errors: for text, _read_terms, one character at a
time; for JSON, from_monomials, one term at a time.  Where both paths read
an input they give the same value.

Python limits int/str conversion to sys.get_int_max_str_digits() digits
(4300 by default).  parse raises PolyParseError at the first digit of a
longer number and from_json_dict raises PolyJsonError on a longer
coefficient string; format and to_json keep Python's ValueError for a
coefficient that long, which no CLI output comes near.
"""

import functools
import itertools
import json
import operator
import struct
from typing import Callable, Iterable, Iterator, NamedTuple

from . import _fastread
from ._backend import kernels as _k
from ._kernels_py import Q_BITS, Q_MASK, Z_BITS, Z_MASK
from .errors import (
    CapacityError,
    DomainError,
    InvalidShiftError,
    PolyJsonError,
    PolyParseError,
    RingMismatchError,
)


# from_monomials packs keys with these struct codes; other widths fail here
_Z_CODE, _Q_CODE = ({8: "B", 16: "H", 32: "I", 64: "Q"}[bits] for bits in (Z_BITS, Q_BITS))


class Monomial(NamedTuple):
    """One term: coeff * z1^z_exps[0] * ... * zk^z_exps[k-1] * q^q_exp."""

    coeff: int
    z_exps: tuple[int, ...]
    q_exp: int


def _zoffsets(k: int) -> tuple[int, ...]:
    # Bit offset of each z_i field; z_1 is the most significant.
    return tuple(Q_BITS + (k - i) * Z_BITS for i in range(1, k + 1))


def _pack(k: int, z_exps, q_exp: int) -> int:
    return q_exp + sum(map(operator.lshift, z_exps, _zoffsets(k)))


def _z_exps(k: int, z: int) -> tuple[int, ...]:
    """Exponents of the z-monomial z = key >> Q_BITS."""
    # tuple() of a list, not of a generator: that one over-allocates and
    # shrinks, and raised cli-session's peak RSS by 0.3 MB
    return tuple([(z >> (k - i) * Z_BITS) & Z_MASK for i in range(1, k + 1)])


def _term_order(k: int, keys) -> tuple[dict, Callable[[int], int]]:
    """The exponents of each z-monomial among keys, each decoded once, and
    the sort key of the canonical term order (graded lex on (e1, ..., ek,
    eq)), which runs from the largest sort key down: the total degree above
    the key's own bits, one int per term where a sort would hold a tuple."""
    exps = {z: _z_exps(k, z) for z in set(map(Q_BITS.__rrshift__, keys))}
    zdeg = {z: sum(es) for z, es in exps.items()}
    width = Q_BITS + k * Z_BITS
    return exps, lambda key: (zdeg[key >> Q_BITS] + (key & Q_MASK)) << width | key


def _first_in_order(k: int, keys) -> int:
    # The first of keys in the canonical order, the one with the largest
    # sort key of _term_order.  No z field of a key exceeds that field of
    # the keys' bitwise or, so while those fields sum below Z_MASK no key's
    # z exponents reach it, and, as 2^Z_BITS = 1 (mod Z_MASK), a key's z
    # degree is (key >> Q_BITS) % Z_MASK: the sort keys are made by C-level
    # maps, with no decode or call per key.
    if sum(_z_exps(k, functools.reduce(operator.or_, keys) >> Q_BITS)) >= Z_MASK:
        return max(keys, key=_term_order(k, keys)[1])
    width = Q_BITS + k * Z_BITS
    zdeg = map(Z_MASK.__rmod__, map(Q_BITS.__rrshift__, keys))
    degree = map(operator.add, zdeg, map(Q_MASK.__and__, keys))
    return max(map(operator.or_, map(width.__rlshift__, degree), keys)) & ((1 << width) - 1)


class Poly:
    """Immutable sparse polynomial over Z in z_1..z_k and q.

    All operations return new instances; values can be shared freely across
    threads.  _bounds is a pair of upper bounds (see degree_bounds) that
    keeps packed-field overflow checks O(1).  An operation sets it only
    where it knows the bounds without looking at its terms (a product, a
    shift, a sum of two values with bounds); otherwise it is None until
    degree_bounds reads the exact bounds off the terms and keeps them.
    Poly(k, terms) takes a dict from packed key to int (not bool)
    coefficient: it drops zeros and rejects any other coefficient and a key
    outside range(1 << (Q_BITS + k * Z_BITS)).
    """

    __slots__ = ("k", "_terms", "_bounds")

    def __init__(self, k: int, terms=None):
        check_k(k)
        terms = {} if terms is None else terms
        if not set(map(type, terms.values())) <= {int}:
            _check_coeff(next(c for c in terms.values() if type(c) is not int))
        terms = _drop_zeros(terms)
        if terms:
            _check_keys(k, terms)
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
        check_k(k)
        _check_coeff(c)
        return cls._wrap(k, {0: c} if c else {}, (0, 0))

    @classmethod
    def monomial(cls, k: int, coeff: int, z_exps, q_exp: int = 0) -> "Poly":
        return cls.from_monomials(k, [(coeff, z_exps, q_exp)])

    @classmethod
    def from_monomials(cls, k: int, monomials: Iterable) -> "Poly":
        """Sum of (coeff, z_exps, q_exp) terms in one pass; every term is
        checked before it merges, even one that later cancels."""
        check_k(k)
        # The big-endian fields of one struct record are the packed key's
        # fields, and struct range-checks them in C; its error is then
        # turned into the error class the per-field checks name.
        pack = struct.Struct(f">{k}{_Z_CODE}{_Q_CODE}").pack
        from_bytes = int.from_bytes
        terms: dict[int, int] = {}
        get = terms.get
        zb = qb = 0
        for coeff, z_exps, q_exp in monomials:
            if type(coeff) is not int:
                _check_coeff(coeff)
            z_exps = tuple(z_exps)
            if type(q_exp) is bool or bool in map(type, z_exps):
                # struct would pack a bool as 0 or 1
                _check_term(k, z_exps, q_exp)
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
        return cls._wrap(k, _drop_zeros(terms), (zb, qb))

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
            _check_coeff(other)  # True would pass as 1
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
        if type(n) is bool or not isinstance(n, int) or n < 0:
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
            if type(e) is bool or not isinstance(e, int) or e < 0:
                raise InvalidShiftError(f"shift exponents must be nonnegative ints, got {e!r}")
        if not any(exps) or not self._terms:
            return self
        zb, qb = self.degree_bounds
        qb += zb * sum(exps)
        check_capacity(zb, qb)
        offs = _zoffsets(self.k)
        shifts = tuple((offs[i], e) for i, e in enumerate(exps) if e)
        terms = _k.shift_q_terms(self._terms, shifts)
        # qb above only guards the packed field.  The result's own q bound
        # is read off its keys, one pass at C speed, because it is often
        # k times smaller and the determinant picks its route by it.
        return Poly._wrap(self.k, terms, (zb, max(map(Q_MASK.__and__, terms))))

    def times_q(self, e: int) -> "Poly":
        """Multiply by the monomial q^e."""
        if type(e) is bool or not isinstance(e, int) or e < 0:
            raise InvalidShiftError(f"q power must be a nonnegative int, got {e!r}")
        if e == 0 or not self._terms:
            return self
        zb, qb = self.degree_bounds
        check_capacity(zb, qb + e)
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
        return sum(map(abs, self._terms.values()))

    def _canonical(self) -> tuple[list, dict]:
        # the keys in canonical order and each z-monomial's exponents
        exps, order = _term_order(self.k, self._terms)
        return sorted(self._terms, key=order, reverse=True), exps

    def monomials(self) -> Iterator[Monomial]:
        """Terms in canonical order (graded lex, highest first)."""
        keys, exps = self._canonical()
        for key in keys:
            yield Monomial(self._terms[key], exps[key >> Q_BITS], key & Q_MASK)

    def format(self) -> str:
        if not self._terms:
            return "0"
        keys, exps = self._canonical()
        # The z factors are rendered once per z-monomial; per term only the
        # q factor and the coefficient are.
        z_text = {z: _z_text(es) for z, es in exps.items()}
        out = []
        for key in keys:
            body = z_text[key >> Q_BITS]
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

    def to_json(self) -> str:
        """The JSON form as text (module docstring), written straight from
        the sorted keys: no dict or list is built per term."""
        terms = self._terms
        keys, exps = self._canonical()
        # Each z list is rendered once per z-monomial, with the JSON text
        # around it; per term only the coefficient and q are.
        z_json = {z: f'", "z": [{", ".join(map(str, es))}], "q": ' for z, es in exps.items()}
        body = ", ".join(
            [f'{{"coeff": "{terms[key]}{z_json[key >> Q_BITS]}{key & Q_MASK}}}' for key in keys]
        )
        return f'{{"k": {self.k}, "terms": [{body}]}}'

    def to_json_dict(self) -> dict:
        """The JSON form as Python values, read back from to_json."""
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Poly":
        """The polynomial in the JSON form (module docstring), as Python
        values.

        Data exactly as to_json writes it is read by _fastread.read_json at
        C speed.  Anything else goes through from_monomials one term at a
        time, which checks each term before it merges, and is the only
        source of errors.
        """
        read = _fastread.read_json(data)
        if read is not None:
            return cls._wrap(*read)
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

        Text exactly in format's form is read by _fastread.read_text at C
        speed.  Anything else goes to _read_terms, which is the only source
        of errors.
        """
        check_k(k)
        if not isinstance(text, str):  # _read_terms would call bytes a syntax error
            raise TypeError(f"expected a str, got {type(text).__name__}")
        terms = _fastread.read_text(text, k)
        if terms is None:
            terms = _read_terms(text, k)
        return cls._wrap(k, terms)


_DIGITS = frozenset("0123456789")  # not a str, which has "" in it


def _read_terms(text: str, k: int) -> dict[int, int]:
    """The terms of text in the text grammar, read one character at a time.

    Each term is range-checked before the text after it is read, so the
    error raised is the first in the text.  Repeated monomials merge in
    order of first appearance; zero coefficients are dropped.  Numbers are
    read inline: a helper call per number made the reader a tenth slower.
    """
    offsets = (0, *_zoffsets(k))  # offsets[i] and z_exps[i] are z_i's
    digits = _DIGITS
    pos = 0
    while (c := text[pos : pos + 1]) == " ":
        pos += 1
    if not c:
        raise PolyParseError("empty input", pos)
    sign = 1
    if c == "-":
        sign = -1
        pos += 1
    terms: dict[int, int] = {}
    get = terms.get
    while True:
        while (c := text[pos : pos + 1]) == " ":
            pos += 1
        coeff = sign
        z_exps = [0] * (k + 1)
        zkey = q_exp = 0
        first = True
        try:
            while True:
                if c == "z" or c == "q":
                    var = c
                    pos = end = pos + 1
                    if var == "z":
                        while (c := text[end : end + 1]) in digits:
                            end += 1
                        i = int(text[pos:end])
                        if not 1 <= i <= k:
                            raise PolyParseError(f"variable z{i} outside ring with k={k}", end)
                        pos = end
                    else:
                        c = text[pos : pos + 1]
                    e = 1
                    if c == "^":
                        pos = end = pos + 1
                        while (c := text[end : end + 1]) in digits:
                            end += 1
                        e = int(text[pos:end])
                        pos = end
                    if var == "z":
                        z_exps[i] += e
                        zkey += e << offsets[i]
                    else:
                        q_exp += e
                elif c in digits and first:
                    end = pos + 1
                    while (c := text[end : end + 1]) in digits:
                        end += 1
                    coeff *= int(text[pos:end])
                    pos = end
                elif c:
                    raise PolyParseError(f"expected a factor, found {c!r}", pos)
                else:
                    raise PolyParseError("expected a term" if first else "expected a factor", pos)
                while c == " ":
                    pos += 1
                    c = text[pos : pos + 1]
                if c != "*":
                    break
                pos += 1
                while (c := text[pos : pos + 1]) == " ":
                    pos += 1
                first = False
        except PolyParseError:
            raise
        except ValueError:  # int(text[pos:end]): no digits, or past the int/str limit
            if end == pos:
                raise PolyParseError("expected a number", pos) from None
            raise PolyParseError(f"a number of {end - pos} digits is too long", pos) from None
        ze = max(z_exps)
        if ze > Z_MASK:
            raise CapacityError(f"z exponent {ze} exceeds field capacity {Z_MASK}")
        if q_exp > Q_MASK:
            raise CapacityError(f"q exponent {q_exp} exceeds field capacity {Q_MASK}")
        key = zkey + q_exp
        terms[key] = get(key, 0) + coeff
        if c == "+":
            sign = 1
        elif c == "-":
            sign = -1
        elif c:
            raise PolyParseError(f"expected '+' or '-', found {c!r}", pos)
        else:
            return _drop_zeros(terms)
        pos += 1


def check_k(k):
    """The one rule for k, a ring's variable count and a maximum tile length.
    A bool is refused: True would pass as 1 and be written as "True"."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive int, got {k!r}")


def _check_coeff(c):
    # True or 2.5 would be stored as given and written as "True" or "2.5"
    if type(c) is not int:
        raise DomainError(f"coefficients must be ints, got {c!r}")


def _check_term(k: int, z_exps: tuple, q_exp):
    """Raise the error for the first field of a term that does not fit its
    place in the packed key."""
    if len(z_exps) != k:
        raise RingMismatchError(f"expected {k} z exponents, got {len(z_exps)}")
    for e in z_exps:
        if type(e) is bool or not isinstance(e, int) or e < 0:
            raise InvalidShiftError(f"z exponents must be nonnegative ints, got {e!r}")
        if e > Z_MASK:
            raise CapacityError(f"z exponent {e} exceeds field capacity {Z_MASK}")
    if type(q_exp) is bool or not isinstance(q_exp, int) or q_exp < 0:
        raise InvalidShiftError(f"q exponent must be a nonnegative int, got {q_exp!r}")
    if q_exp > Q_MASK:
        raise CapacityError(f"q exponent {q_exp} exceeds field capacity {Q_MASK}")


def _drop_zeros(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c} if 0 in terms.values() else terms


def _check_keys(k: int, terms: dict):
    """Raise the error _check_term raises for a key that is not a packed key
    of the k-variable ring, reading the keys at C speed."""
    if not set(map(type, terms)) <= {int} or min(terms) < 0:
        bad = next(key for key in terms if type(key) is not int or key < 0)
        raise InvalidShiftError(f"packed keys must be nonnegative ints, got {bad!r}")
    top = max(terms)
    if top >> (Q_BITS + k * Z_BITS):
        raise CapacityError(f"packed key {top} exceeds the capacity of a {k}-variable ring")


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


def _json_term(t) -> tuple:
    """(coeff, z, q) of one JSON term; z and q are checked as they pack."""
    try:
        coeff, z, q = t["coeff"], t["z"], t["q"]
    except (KeyError, TypeError):
        raise PolyJsonError('a JSON term is an object with "coeff", "z" and "q"') from None
    # -?[0-9]+: str.isdigit alone also takes digits outside ASCII
    if type(coeff) is str and (digits := coeff.removeprefix("-")).isdigit() and digits.isascii():
        try:
            coeff = int(coeff)
        except ValueError:  # past Python's int/str conversion limit
            raise PolyJsonError(f"coefficient of {len(coeff)} characters is too long") from None
    elif type(coeff) is not int:
        raise PolyJsonError(f"a coefficient must be an int or a decimal string, got {coeff!r}")
    if type(z) is not list:
        raise PolyJsonError(f"z exponents must be a list, got {type(z).__name__}")
    return coeff, z, q


def _z_text(z_exps) -> str:
    # a z-monomial as format writes it: "z1^2*z3", "" for no z factor
    return "*".join(f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in enumerate(z_exps, start=1) if e)


def check_capacity(zb: int, qb: int):
    """Raise CapacityError unless z exponents up to zb and q exponents up to
    qb fit their fields of the packed key."""
    if zb > Z_MASK or qb > Q_MASK:
        raise CapacityError(
            f"degree bounds (z<= {zb}, q<= {qb}) exceed packed-key capacity"
        )


def diff_witness(a: Poly, b: Poly) -> str | None:
    """First differing term of two polynomials, or None when they are equal.

    The witness names the monomial (in canonical order over the union of
    supports) together with both coefficients.
    """
    a._check_ring(b)
    if a == b:
        return None
    at, bt = a._terms, b._terms
    small, big = (at, bt) if len(at) <= len(bt) else (bt, at)
    # the keys on one side only, and the shared keys whose coefficients
    # differ (big.get(key, c) is c where the key is on the small side only)
    values = small.values()
    differ = map(operator.ne, map(big.get, small, values), values)
    keys = [*at.keys() ^ bt.keys(), *itertools.compress(small, differ)]
    # the first of them in canonical order: the largest (total degree, key)
    key = _first_in_order(a.k, keys)
    name = Poly.monomial(a.k, 1, _z_exps(a.k, key >> Q_BITS), key & Q_MASK).format()
    return f"coefficient of {name}: {at.get(key, 0)} != {bt.get(key, 0)}"
