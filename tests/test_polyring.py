"""Polynomial ring: examples with hand-computed values, properties, errors."""

import json
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qfib.errors import (
    CapacityError,
    InvalidShiftError,
    PolyJsonError,
    PolyParseError,
    QfibError,
    RingMismatchError,
)
from qfib.polyring import Monomial, Poly, diff_witness
from qfib.qpacked import q_mul_add, q_pack, q_unpack


def P(text, k=2):
    return Poly.parse(text, k)


# ----------------------------------------------------------------------
# construction and arithmetic examples


def test_add_merges_like_terms():
    assert P("z1*q") + P("z1*q") == P("2*z1*q")
    # all but one term cancel, and no zero coefficient is kept
    total = P("5*q^10 - 3*q^20") + P("-5*q^10 + 3*q^20 + q^30")
    assert total == P("q^30") and total.n_terms == 1


def test_add_zero_is_identity():
    p = P("z1^3 + 2*z1*z2*q")
    assert p + Poly.zero(2) == p


def test_add_disjoint_supports():
    assert P("z1^3") + P("2*z1*z2*q") == P("z1^3 + 2*z1*z2*q")


def test_mul_monomials():
    assert P("z1") * P("z2*q") == P("z1*z2*q")


def test_mul_one_is_identity():
    p = P("z1^3 + 2*z1*z2*q")
    assert p * Poly.one(2) == p
    assert 0 * p == Poly.zero(2)


def _naive_product(a: Poly, b: Poly) -> Poly:
    # independent double-loop oracle over explicit monomial lists
    out = Poly.zero(a.k)
    for ma in a.monomials():
        for mb in b.monomials():
            out = out + Poly.monomial(
                a.k,
                ma.coeff * mb.coeff,
                tuple(x + y for x, y in zip(ma.z_exps, mb.z_exps)),
                ma.q_exp + mb.q_exp,
            )
    return out


def test_square_of_binomial():
    p = P("z1 + z2*q")
    expected = P("z1^2 + 2*z1*z2*q + z2^2*q^2")
    assert p * p == expected
    assert _naive_product(p, p) == expected
    # the cross terms cancel while the product accumulates
    assert P("z1 - z2*q") * P("z1 + z2*q") == P("z1^2 - z2^2*q^2")


def test_substitute_z_scale_examples():
    assert P("z1*z2").substitute_z_scale((1, 2)) == P("z1*z2*q^3")
    p = P("z1^3 + 2*z1*z2*q")
    assert p.substitute_z_scale((0, 0)) == p
    assert P("z2^2*q").substitute_z_scale((0, 3)) == P("z2^2*q^7")


def test_evaluate_examples():
    assert P("z1^3 + 2*z1*z2*q").evaluate((1, 1), 1) == 3
    assert Poly.zero(2).evaluate((5, 7), 11) == 0
    assert P("z1^2*q^2").evaluate((2, 1), 3) == 36


def test_negative_evaluation_point():
    assert P("z1 - z2*q").evaluate((-2, 3), -1) == -2 - 3 * -1


# ----------------------------------------------------------------------
# text format and parsing


def test_format_zero_and_constants():
    assert Poly.zero(2).format() == "0"
    assert Poly.one(2).format() == "1"
    assert Poly.constant(2, -3).format() == "-3"


def test_format_canonical_order():
    # graded lex on (z1, z2, q), highest first
    assert P("z1^3 + 2*z1*z2*q").format() == "z1^3 + 2*z1*z2*q"
    assert (P("z1*z2*q") + P("z1^3*q^3") + P("z1*z2*q^2")).format() == (
        "z1^3*q^3 + z1*z2*q^2 + z1*z2*q"
    )


def test_format_negative_terms():
    assert (Poly.zero(2) - P("z2^3*q^4")).format() == "-z2^3*q^4"
    assert (P("z1") - P("z2")).format() == "z1 - z2"


def test_parse_monomial():
    p = Poly.parse("z2^2*q^7", 2)
    assert list(p.monomials()) == [Monomial(1, (0, 2), 7)]


def test_parse_rejects_bad_input():
    with pytest.raises(PolyParseError):
        Poly.parse("z1 + ", 2)
    with pytest.raises(PolyParseError):
        Poly.parse("z3", 2)
    with pytest.raises(PolyParseError):
        Poly.parse("q^", 2)
    with pytest.raises(PolyParseError):
        Poly.parse("", 2)
    err = None
    try:
        Poly.parse("z1 * * z2", 2)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.pos >= 0 and "position" in str(err)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-z1 + 2", "-z1 + 2"),
        ("- 3*q", "-3*q"),
        ("z01", "z1"),
        ("007*z1^0*q^01", "7*q"),
        ("q*z2*z1^2*q", "z1^2*z2*q^2"),
        ("2 *z2 * z1+z1*z2 - q", "3*z1*z2 - q"),
        ("+z1", (PolyParseError, 0)),
        ("z1 z2", (PolyParseError, 3)),
        ("2*3", (PolyParseError, 2)),
        ("2z1", (PolyParseError, 1)),
        ("q ^2", (PolyParseError, 2)),
        ("z1^2^3", (PolyParseError, 4)),
        ("z1q", (PolyParseError, 2)),
        ("z1\n", (PolyParseError, 2)),
        ("1 + -z1", (PolyParseError, 4)),
        ("-", (PolyParseError, 1)),
        ("z1^65535*z1", (CapacityError, None)),
        # a term is checked before the text after it is read
        ("z1^65536 z2", (CapacityError, None)),
    ],
)
def test_parse_accepts_exactly_the_grammar(text, expected):
    # outcomes and error positions of the character-by-character reader
    # this parser replaced
    if isinstance(expected, str):
        assert Poly.parse(text, 2).format() == expected
        return
    error, pos = expected
    with pytest.raises(error) as info:
        Poly.parse(text, 2)
    if pos is not None:
        assert info.value.pos == pos


@pytest.mark.parametrize("text, pos", [("z\u00b2", 1), ("z1^\u00b2", 3), ("\u0663*z1", 0)])
def test_parse_reads_ascii_digits_only(text, pos):
    # superscript two and Arabic-Indic three are digits to str.isdigit
    with pytest.raises(PolyParseError) as info:
        Poly.parse(text, 2)
    assert info.value.pos == pos


def test_parse_long_terms_in_any_order():
    # terms longer than the parser's 64-factor chunks, factors interleaved
    factors = ["z2", "q^2", "z1^3", "q"] * 50
    text = "*".join(factors) + " - 5*" + " * ".join(reversed(factors))
    assert Poly.parse(text, 2) == Poly.monomial(2, -4, (150, 50), 150)
    bad = "*".join(factors) + "*z3"
    with pytest.raises(PolyParseError) as info:
        Poly.parse(bad, 2)
    assert info.value.pos == len(bad)


_LONG = "7" * 5000  # past Python's default int/str limit of 4300 digits


@pytest.mark.parametrize(
    "before, after, pos",
    [
        ("", "", 0),
        ("z1 - ", "*z2", 5),
        ("z", "", 1),
        ("z1^", "", 3),
        ("3*z2*z1^", "", 8),
        ("q^", "", 2),
        ("2*z1*q^", "", 7),
    ],
)
def test_parse_reports_numbers_too_long_to_read(before, after, pos):
    # int() alone raises a bare ValueError, not a QfibError, on these
    with pytest.raises(PolyParseError) as info:
        Poly.parse(before + _LONG + after, 2)
    assert info.value.pos == pos


@pytest.mark.parametrize("sign", ["", "-"])
def test_json_reader_reports_coefficients_too_long_to_read(sign):
    term = {"coeff": sign + _LONG, "z": [1], "q": 0}
    with pytest.raises(PolyJsonError):
        Poly.from_json_dict({"k": 1, "terms": [term]})


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        P("z1", 2) + P("z1", 3)
    with pytest.raises(RingMismatchError):
        P("z1", 2) * P("z1", 3)


def test_invalid_shift_raises():
    with pytest.raises(InvalidShiftError):
        P("z1").substitute_z_scale((-1, 0))
    with pytest.raises(RingMismatchError):
        P("z1").substitute_z_scale((1,))


def test_capacity_guard():
    big = Poly.monomial(1, 1, (60000,), 0)
    with pytest.raises(CapacityError):
        big * big
    with pytest.raises(CapacityError):
        Poly.monomial(1, 1, (1 << 16,), 0)


def test_json_roundtrip():
    p = P("z1^3 - 2*z1*z2*q + 7")
    data = json.loads(json.dumps(p.to_json_dict()))
    assert Poly.from_json_dict(data) == p
    assert data["terms"][0]["coeff"] == "1"
    assert data["terms"][1]["coeff"] == "-2"


@pytest.mark.parametrize(
    "data, error",
    [
        ({"k": 2, "terms": [{"coeff": "1", "z": [1, 0], "q": 2.7}]}, InvalidShiftError),
        ({"k": 2, "terms": [{"coeff": "1", "z": [1, 0], "q": "2"}]}, InvalidShiftError),
        ({"k": 2, "terms": [{"coeff": "1", "z": [1.0, 0], "q": 2}]}, InvalidShiftError),
        ({"k": 2, "terms": [{"coeff": "1", "z": [1, 0]}]}, PolyJsonError),
        ({"k": 2, "terms": [{"z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": 2.0, "z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": "1_0", "z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": " 1", "z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": "+1", "z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": "\u0663", "z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": True, "z": [1, 0], "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [{"coeff": "1", "z": 1, "q": 0}]}, PolyJsonError),
        ({"k": 2, "terms": [["1", [1, 0], 0]]}, PolyJsonError),
        ({"k": 2, "terms": {"coeff": "1"}}, PolyJsonError),
        ({"k": 2}, PolyJsonError),
        ({"terms": []}, PolyJsonError),
        ([], PolyJsonError),
        ({"k": 0, "terms": []}, RingMismatchError),
    ],
)
def test_json_reader_is_strict(data, error):
    # the reader used to truncate a float q or coefficient, read "1_0" as
    # 10 and raise KeyError or TypeError on a malformed object
    with pytest.raises(error) as info:
        Poly.from_json_dict(data)
    assert isinstance(info.value, QfibError)


def test_json_reader_coefficient_forms():
    term = {"z": [1, 0], "q": 0}
    assert Poly.from_json_dict({"k": 2, "terms": [{"coeff": -7, **term}]}) == P("-7*z1")
    assert Poly.from_json_dict({"k": 2, "terms": [{"coeff": "-007", **term}]}) == P("-7*z1")


def _json_form(monos):
    return {"k": 2, "terms": [{"coeff": str(c), "z": list(z), "q": q} for c, z, q in monos]}


@pytest.mark.parametrize(
    "text, monos, canonical",
    [
        ("z1 + z1 - 2*z1", [(1, (1, 0), 0), (1, (1, 0), 0), (-2, (1, 0), 0)], "0"),
        ("z1*q + z2 + z1*q", [(1, (1, 0), 1), (1, (0, 1), 0), (1, (1, 0), 1)], "2*z1*q + z2"),
        (
            "q^2 - 3 - q^2 + 5",
            [(1, (0, 0), 2), (-3, (0, 0), 0), (-1, (0, 0), 2), (5, (0, 0), 0)],
            "2",
        ),
    ],
)
def test_readers_merge_repeated_terms(text, monos, canonical):
    for p in (
        Poly.parse(text, 2),
        Poly.from_json_dict(_json_form(monos)),
        Poly.from_monomials(2, monos),
    ):
        assert p.format() == canonical
        assert Poly.parse(p.format(), 2) == p
        assert Poly.from_json_dict(p.to_json_dict()) == p


@pytest.mark.parametrize(
    "text, monos, error",
    [
        ("z1^65536 - z1^65536", [(1, (1 << 16, 0), 0), (-1, (1 << 16, 0), 0)], CapacityError),
        ("q^4294967296", [(0, (0, 0), 1 << 32)], CapacityError),
        (None, [(1, (-1, 0), 0), (-1, (-1, 0), 0)], InvalidShiftError),
        (None, [(1, (0, 0), -1)], InvalidShiftError),
        (None, [(1, (1,), 0)], RingMismatchError),
    ],
)
def test_readers_check_every_term(text, monos, error):
    # each term is checked as Poly.monomial checks it, even when it cancels
    with pytest.raises(error):
        Poly.from_json_dict(_json_form(monos))
    with pytest.raises(error):
        Poly.from_monomials(2, monos)
    if text is not None:
        with pytest.raises(error):
            Poly.parse(text, 2)


def test_stored_zeros_are_dropped():
    # Poly(k, terms) keeps the canonical form: a zero coefficient is absent
    for p in (Poly(2, {0: 0}), Poly(2, {0: 0}) + Poly.zero(2)):
        assert p == Poly.zero(2)
        assert not p and p.n_terms == 0
    assert Poly(2, {0: 0, 1: 2}) == P("2*q")


def test_diff_witness():
    assert diff_witness(P("z1 + q"), P("z1 + q")) is None
    w = diff_witness(P("z1 + 3*q"), P("z1 + 5*q"))
    assert w == "coefficient of q: 3 != 5"
    # a coefficient stored as 0 counts as absent
    assert diff_witness(Poly(2, {0: 0}), Poly.zero(2)) is None
    assert diff_witness(Poly(2, {0: 0, 1: 2}), Poly.zero(2)) == "coefficient of q: 2 != 0"


# ----------------------------------------------------------------------
# properties

_small_monos = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 3),
)
_polys = st.lists(_small_monos, max_size=5).map(
    lambda monos: Poly.from_monomials(2, monos)
)


def _reference_witness(a, b):
    # the definition: the first differing term in canonical order (graded
    # lex, highest first) over the sorted union of both supports
    ca = {(m.z_exps, m.q_exp): m.coeff for m in a.monomials()}
    cb = {(m.z_exps, m.q_exp): m.coeff for m in b.monomials()}
    for z, q in sorted(ca.keys() | cb.keys(), key=lambda t: (sum(t[0]) + t[1], t), reverse=True):
        if ca.get((z, q), 0) != cb.get((z, q), 0):
            name = Poly.monomial(a.k, 1, z, q).format()
            return f"coefficient of {name}: {ca.get((z, q), 0)} != {cb.get((z, q), 0)}"
    return None


@st.composite
def _nearby_pairs(draw):
    # a at k = 1..4 and b = a plus a few terms, so the supports overlap and
    # differ in a handful of coefficients, dropped terms or new ones
    k = draw(st.integers(1, 4))
    mono = st.tuples(
        st.integers(-3, 3), st.lists(st.integers(0, 3), min_size=k, max_size=k), st.integers(0, 5)
    )
    a = Poly.from_monomials(k, draw(st.lists(mono, max_size=12)))
    return a, a + Poly.from_monomials(k, draw(st.lists(mono, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_nearby_pairs())
def test_diff_witness_is_the_first_canonical_difference(pair):
    a, b = pair
    assert diff_witness(a, b) == _reference_witness(a, b)
    assert diff_witness(b, a) == _reference_witness(b, a)


def _exact_bounds(p):
    # the definition: the largest z and q exponents of the canonical terms
    monos = list(p.monomials())
    return (
        max((e for m in monos for e in m.z_exps), default=0),
        max((m.q_exp for m in monos), default=0),
    )


# the steps of a chain; each builds a value from the latest one, a, and any
# earlier one, b
_STEPS = ("parse", "monomials", "terms", "repack", "add", "sub", "neg", "mul", "scale",
          "shift", "times_q")
# the values whose bounds are read off their own terms, so are exact
_EXACT = {"parse", "terms", "repack"}


@seed(2012)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degree_bounds_never_fall_below_the_terms(data):
    # Bounds below the terms' would let check_capacity pass a product whose
    # exponents carry into the next field of the packed key.  Each value is
    # checked on a copy, so the read is not kept and later sums still meet
    # values that carry no bounds.
    k = data.draw(st.integers(1, 3))
    mono = st.tuples(
        st.integers(-3, 3), st.lists(st.integers(0, 4), min_size=k, max_size=k), st.integers(0, 6)
    )
    pool = [Poly.from_monomials(k, data.draw(st.lists(mono, max_size=5)))]
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(_STEPS))
        a, b = pool[-1], data.draw(st.sampled_from(pool))
        if step == "parse":
            p = Poly.parse(a.format(), k)
        elif step == "monomials":
            p = Poly.from_monomials(k, data.draw(st.lists(mono, max_size=5)))
        elif step == "terms":
            # some coefficients zeroed: Poly(k, terms) drops them
            p = Poly(k, {key: c * data.draw(st.integers(0, 1)) for key, c in a._terms.items()})
        elif step == "repack":
            width = a.l1_norm.bit_length() + 2
            p = q_unpack(k, q_pack(a, width), width)
        elif step == "add":
            p = a + b
        elif step == "sub":
            p = a - b
        elif step == "neg":
            p = -a
        elif step == "mul" and a.n_terms * b.n_terms <= 300:
            p = a * b
        elif step in ("mul", "scale"):
            p = a * data.draw(st.integers(-2, 2))
        elif step == "shift":
            p = a.substitute_z_scale(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
        else:
            p = a.times_q(data.draw(st.integers(0, 3)))
        zb, qb = Poly._wrap(k, p._terms, p._bounds).degree_bounds
        ez, eq = _exact_bounds(p)
        assert zb >= ez and qb >= eq, (step, p, (zb, qb))
        if step in _EXACT:
            assert (zb, qb) == (ez, eq), (step, p)
        pool.append(p)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-3, 3))
def test_evaluate_is_ring_homomorphism(a, b, zs, q):
    assert (a * b).evaluate(zs, q) == a.evaluate(zs, q) * b.evaluate(zs, q)
    assert (a + b).evaluate(zs, q) == a.evaluate(zs, q) + b.evaluate(zs, q)


@settings(max_examples=60, deadline=None)
@given(
    _polys,
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_shift_composition(p, e, f):
    ef = tuple(x + y for x, y in zip(e, f))
    assert p.substitute_z_scale(e).substitute_z_scale(f) == p.substitute_z_scale(ef)


@settings(max_examples=80, deadline=None)
@given(_polys)
def test_parse_format_roundtrip(p):
    assert Poly.parse(p.format(), 2) == p


@settings(max_examples=80, deadline=None)
@given(_polys)
def test_to_json_dict_matches_monomials(p):
    # the definition the direct writer replaced
    assert p.to_json_dict() == {
        "k": p.k,
        "terms": [
            {"coeff": str(m.coeff), "z": list(m.z_exps), "q": m.q_exp} for m in p.monomials()
        ],
    }
    terms = p.to_json_dict()["terms"]
    assert len({id(t["z"]) for t in terms}) == len(terms)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, st.sampled_from((1, -1)))
def test_q_packed_product(a, b, sign):
    # balanced digits wide enough for every coefficient of a, b and a * b
    width = (max(a.l1_norm, 1) * max(b.l1_norm, 1)).bit_length() + 2
    assert q_unpack(2, q_pack(a, width), width) == a
    acc = q_mul_add({}, q_pack(a, width), q_pack(b, width), sign, width)
    assert q_unpack(2, acc, width) == a * b * sign


def _balanced_digits(x, width):
    # reference decoder: peel off one balanced digit at a time
    base = 1 << width
    digits = []
    while x:
        d = x & (base - 1)
        if d >= base >> 1:
            d -= base
        digits.append(d)
        x = (x - d) >> width
    return digits


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 70),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6)), min_size=1, max_size=3,
             unique_by=lambda t: t[0]),
    st.integers(0, 2**32),
)
def test_q_unpack_round_trip(width, groups, seed):
    # at least 500 digits per z-monomial, digits at the balanced extremes
    # +-(2^(width-1) - 1), and a negative leading digit
    rnd = random.Random(seed)
    top = (1 << (width - 1)) - 1
    monos = []
    for z1, lo in groups:
        n_digits = rnd.randint(500, 600)
        for j in range(n_digits):
            c = rnd.choice((top, -top, 0, 1, -1, rnd.randint(-top, top)))
            monos.append((c, (z1, 0), lo + j))
        monos.append((-rnd.randint(1, top), (z1, 0), lo + n_digits))
    p = Poly.from_monomials(2, monos)
    assert q_unpack(2, q_pack(p, width), width) == p
    # any integer x, short or long, decodes to the digits the
    # one-at-a-time reader finds; x = 2^(width * j - 1) - 1 needs two
    # digits more than its bit length fills
    size = width * rnd.randint(1, 600)
    xs = [rnd.getrandbits(size) - rnd.getrandbits(size)]
    for j in range(60, 74):
        xs += [(1 << width * j - 1) - 1, -(1 << width * j - 1), (1 << width * j) - 1]
    for x in xs:
        expected = {q: d for q, d in enumerate(_balanced_digits(x, width)) if d}
        got = q_unpack(1, {0: (0, x)}, width)
        assert {m.q_exp: m.coeff for m in got.monomials()} == expected


def _reference_format(k, monos):
    # independent renderer: merge, drop zeros, sort graded lex on
    # (z1..zk, q) highest first, then print term by term
    merged = {}
    for c, zs, q in monos:
        merged[zs, q] = merged.get((zs, q), 0) + c
    ordered = sorted(
        ((zs, q, c) for (zs, q), c in merged.items() if c),
        key=lambda t: (sum(t[0]) + t[1], t[0], t[1]),
        reverse=True,
    )
    if not ordered:
        return "0", []
    text = ""
    for zs, q, c in ordered:
        factors = [f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in enumerate(zs, 1) if e]
        if q:
            factors.append("q" if q == 1 else f"q^{q}")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not text:
            text = f"-{body}" if c < 0 else body
        else:
            text += f" - {body}" if c < 0 else f" + {body}"
    return text, [Monomial(c, zs, q) for zs, q, c in ordered]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(
        st.sampled_from((1, -1, 2, -3, 10**30, -(10**30))),
        st.tuples(*[st.integers(0, 3)] * k),
        st.integers(0, 5) | st.integers(0, (1 << 32) - 1),
    ), max_size=12),
)))
def test_format_matches_reference_renderer(case):
    k, monos = case
    p = Poly.from_monomials(k, monos)
    text, ordered = _reference_format(k, monos)
    assert p.format() == text
    assert list(p.monomials()) == ordered
    assert Poly.parse(text, k) == p
