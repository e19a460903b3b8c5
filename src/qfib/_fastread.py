"""Fast readers for the text and JSON forms that polyring's writers emit.

Poly.parse and Poly.from_json_dict call read_text and read_json first.
Each returns None for any input not exactly in its writer's form, and the
caller then reads the input with its full reader, the only source of
errors.  Accepted input is read at C speed: str methods and C-level maps,
with each distinct z-part, q exponent or z list decoded once; a z-part is
decoded by the full text reader, so the text grammar has one decoder.

These readers live apart from polyring only to keep module compilation
small: where no bytecode cache is written, every process compiles qfib from
source, and with them inside polyring.py its compilation peaked 0.4 MB
higher (tracemalloc) and cli-session's peak RSS read about 0.2 MB higher.
polyring imports this module; its helpers are looked up on it at call time.
"""

import itertools
import operator

from . import polyring
from ._kernels_py import Q_BITS, Q_MASK, Z_MASK
from .errors import CapacityError


# The fast text reader takes slices of about this many characters, so that
# the strings and tuples it makes per term stay within tens of kB however
# long the text.  Slices four times longer were only 4-5% faster on the
# maj-rlp k=4 n=20 table, and held 60 kB more at the peak.
TEXT_CHUNK = 1024


class _NotWritten(Exception):
    """Part of the input is not in the writer's form; read it all again
    with the full reader."""


class _Decoded(dict):
    # each key decoded by decode(key) on its first lookup; a hit is one
    # dict lookup at C speed
    __slots__ = ("decode",)

    def __init__(self, decode, known=()):
        super().__init__(known)
        self.decode = decode

    def __missing__(self, key):
        value = self[key] = self.decode(key)
        return value


def read_text(text, k: int) -> dict | None:
    """The terms of text if it is exactly in format's form, else None.

    A coefficient may be any run of ASCII digits (an explicit 1 or leading
    zeros read as parse reads them) and q may be written q^1; everything
    else must be as format writes it, every monomial once.  The text is cut
    before a separator about every TEXT_CHUNK characters, and a text with
    no separator in the next TEXT_CHUNK characters after that is left to
    the full reader, so no slice is longer than 2 * TEXT_CHUNK.  In each
    slice an implicit coefficient 1 and q exponent 1 are made explicit, the
    slice is split on the separators and each term into coefficient, z-part
    and q exponent, all with str methods; each distinct z-part and q
    exponent is decoded once.
    """
    if type(text) is not str:
        return None
    start = 1 if text.startswith("-") else 0
    n = len(text)
    if start == n:
        return None
    z_keys = _Decoded(lambda z: _written_z(z, k), {"": 0})
    q_exps = _Decoded(_written_q, {"": 0, "^1": 1})
    terms: dict[int, int] = {}
    count = 0
    pos = start
    try:
        while pos < n:
            end = text.find(" ", pos + TEXT_CHUNK, pos + 2 * TEXT_CHUNK)
            if end < 0:
                if n - pos > 2 * TEXT_CHUNK:  # a very long term: read it in full
                    return None
                end = n
            elif text[end - 1] in "+-":  # the second space of a separator
                end -= 2
            chunk = text[pos:end]
            if pos == start:
                chunk = (" - " if start else " + ") + chunk
            pos = end
            if " + -" in chunk:  # "1 + -z1" is not in the grammar
                return None
            for sep in (" + ", " - "):
                chunk = chunk.replace(sep + "z", sep + "1*z").replace(sep + "q", sep + "1*q")
            # with the coefficient explicit every q-part follows a "*"; with
            # an explicit exponent 1 as well, its exponent is all after "*q"
            chunk = chunk.replace("*q + ", "*q^1 + ").replace("*q - ", "*q^1 - ")
            if chunk.endswith("*q"):
                chunk += "^1"
            empty, *pieces = chunk.replace(" - ", " + -").split(" + ")
            if empty:
                return None
            # every "*" after a coefficient must have a z-part after it; each
            # list of parts is freed as soon as it is split further
            left, _, q_tails = zip(*map(str.partition, pieces, itertools.repeat("*q")))
            count += len(pieces)
            del pieces
            coeffs, stars, z_parts = zip(*map(str.partition, left, itertools.repeat("*")))
            del left
            if stars.count("*") != len(z_parts) - z_parts.count("") or not _decimals(coeffs):
                return None
            keys = map(
                operator.or_, map(z_keys.__getitem__, z_parts), map(q_exps.__getitem__, q_tails)
            )
            terms.update(zip(keys, map(int, coeffs)))
    except (ValueError, _NotWritten):
        return None
    return polyring._drop_zeros(terms) if len(terms) == count else None


def _decimals(strings) -> bool:
    """Whether each string is ASCII digits after its leading "-"s
    (bytes.isdigit takes ASCII digits only), in one pass that keeps
    nothing.  int() then refuses all but one leading "-", so each string
    that is read is -?[0-9]+, as the full readers require."""
    minus = itertools.repeat("-")
    return all(map(bytes.isdigit, map(str.encode, map(str.lstrip, strings, minus))))


def _written_z(text: str, k: int) -> int:
    """The packed key of a z-part exactly as format writes it: text that
    the full reader reads as one monomial, rendered back as the same text
    (which also refuses a coefficient, q factors and other spacing)."""
    try:
        (key,) = polyring._read_terms(text, k)
    except (ValueError, CapacityError):  # its errors, or not one term
        raise _NotWritten from None
    if polyring._z_text(polyring._z_exps(k, key >> Q_BITS)) != text:
        raise _NotWritten
    return key


def _written_q(text: str) -> int:
    """The exponent e of "^e", the end of a q-part as format writes it."""
    digits = text[1:]
    if text[:1] != "^" or not digits.isascii() or not digits.isdigit():
        raise _NotWritten
    e = int(digits)
    if not 1 < e <= Q_MASK or str(e) != digits:
        raise _NotWritten
    return e


def read_json(data) -> tuple | None:
    """(k, terms) of data if it is exactly in to_json's form read back by
    json.loads, else None.

    That form: "k" a positive int; "terms" a list of dicts, each with a
    decimal string "coeff", a list "z" of k ints in the z field's range and
    an int "q" in the q field's range; every monomial once.  Each check is
    one C-level pass over a column of the rows that builds no list (a
    string joined from every coefficient raised cli-session's peak RSS by
    about 0.2 MB) and each distinct z list is packed once.
    """
    if type(data) is not dict:
        return None
    k, rows = data.get("k"), data.get("terms")
    if type(k) is not int or k < 1 or type(rows) is not list:
        return None
    if not rows:
        return k, {}

    def column(name):
        return map(operator.itemgetter(name), rows)

    try:
        # exact types: a float or a bool would hash as the int it equals
        # and find that int's cached z key
        if (
            set(map(type, rows)) != {dict}
            or set(map(type, column("coeff"))) != {str}
            or not _decimals(column("coeff"))
            or set(map(type, column("z"))) != {list}
            or not set(map(type, itertools.chain.from_iterable(column("z")))) <= {int}
            or set(map(type, column("q"))) != {int}
            or min(column("q")) < 0
            or max(column("q")) > Q_MASK
        ):
            return None
        z_keys = _Decoded(lambda z: _written_z_list(z, k))
        keys = map(operator.or_, map(z_keys.__getitem__, map(tuple, column("z"))), column("q"))
        terms = dict(zip(keys, map(int, column("coeff"))))
    except (KeyError, ValueError, _NotWritten):
        return None
    if len(terms) != len(rows):
        return None
    return k, polyring._drop_zeros(terms)


def _written_z_list(z: tuple, k: int) -> int:
    # the packed key of a JSON z list whose entries are ints
    if len(z) != k or min(z) < 0 or max(z) > Z_MASK:
        raise _NotWritten
    return polyring._pack(k, z, 0)
