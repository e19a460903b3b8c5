"""Polynomial ring: examples with hand-computed values, properties, errors."""

import copy
import json
import random
import types
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qfib import _fastread, _kernels_py, polyring, qpacked
from qfib.errors import (
    CapacityError,
    DomainError,
    InvalidShiftError,
    PolyJsonError,
    PolyParseError,
    QfibError,
    RingMismatchError,
)
from qfib.layered import builtin_scheme
from qfib.polyring import Monomial, Poly, diff_witness
from qfib.qpacked import q_divide, q_mul_add, q_pack, q_unpack
from qfib.tiling import fibonacci_k, weighted_sum_recursive


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
    with pytest.raises(TypeError):
        Poly.parse(b"z1", 2)
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
    # outcomes and error positions, the same for every reader since the
    # first character-by-character one
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


def test_full_reader_reads_a_respelled_table():
    # the maj-rlp k=4 n=20 table with its terms reversed, each term's
    # factors reversed and spaces around every operator: the fast reader
    # declines it, and the full reader reads the same polynomial
    text = weighted_sum_recursive(20, 4, builtin_scheme("maj-rlp", 4)).format()

    def respell(term):
        parts = term.split("*")
        head = parts[:1] if parts[0].isdigit() else []
        return " * ".join(head + parts[len(head):][::-1])

    spaced = "  +  ".join(map(respell, reversed(text.split(" + "))))
    assert spaced != text and _fastread.read_text(spaced, 4) is None
    assert Poly.parse(spaced, 4) == Poly.parse(text, 4)
    # an error past the table is placed by the full reader
    with pytest.raises(PolyParseError) as info:
        Poly.parse(text + " + 2z1", 4)
    assert info.value.pos == len(text) + 4


def test_parse_long_terms_in_any_order():
    # terms of 200 and of 100,000 factors, interleaved, in both spacings
    for factors, z_exps, q_exp in (
        (["z2", "q^2", "z1^3", "q"] * 50, (150, 50), 150),
        (["q^9", "z2^2", "z1", "z2^0"] * 25000, (25000, 50000), 225000),
    ):
        text = "*".join(factors) + " - 5*" + " * ".join(reversed(factors))
        assert Poly.parse(text, 2) == Poly.monomial(2, -4, z_exps, q_exp)
        bad = "*".join(factors) + "*z3"
        with pytest.raises(PolyParseError) as info:
            Poly.parse(bad, 2)
        assert info.value.pos == len(bad)


@pytest.mark.parametrize(
    "bad, offset, message",
    [
        ("z3", 2, "variable z3 outside ring with k=2"),
        ("z2^", 3, "expected a number"),
        ("z", 1, "expected a number"),
        ("* z1", 0, "expected a factor, found '*'"),
        ("2", 0, "expected a factor, found '2'"),
        ("z1 z2", 3, "expected '+' or '-', found 'z'"),
    ],
)
def test_parse_reports_errors_past_64_factors(bad, offset, message):
    # an error after the 70th factor of a term: past 64 factors, where a
    # reader that matches factors in chunks of 64 starts its second chunk
    factors = ["z2", "q^2", "z1^3", "q"] * 20
    head = " * ".join(factors[:70]) + " * "
    text = head + bad + " * " + " * ".join(factors[70:])
    with pytest.raises(PolyParseError) as info:
        Poly.parse(text, 2)
    assert str(info.value) == f"{message} (at position {len(head) + offset})"


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


# ----------------------------------------------------------------------
# the two reader paths: the writers' own form at C speed, the rest in full


def _outcome(read):
    # everything a reader's caller can see: the terms in order and the
    # bounds, or the error class, message and position
    try:
        p = read()
    except QfibError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return p.k, list(p._terms.items()), p._bounds


def _full_parse(text, k):
    with mock.patch.object(_fastread, "read_text", lambda text, k: None):
        return _outcome(lambda: Poly.parse(text, k))


def _full_json(data):
    with mock.patch.object(_fastread, "read_json", lambda data: None):
        return _outcome(lambda: Poly.from_json_dict(data))


@pytest.mark.parametrize("pair, k, n", [("maj-rlp", 4, 20), ("inv-lp", 3, 12), ("maj-lp", 1, 9)])
def test_fast_readers_take_the_writers_form(pair, k, n):
    p = weighted_sum_recursive(n, k, builtin_scheme(pair, k))
    for q in (p, Poly.constant(k, 7) - p.times_q(3), Poly.zero(k), Poly.constant(k, -2)):
        assert q.to_json() == json.dumps(q.to_json_dict())
        assert _fastread.read_text(q.format(), k) == q._terms
        read = _fastread.read_json(json.loads(q.to_json()))
        assert read == (k, q._terms, q.degree_bounds)
        assert _outcome(lambda: Poly.parse(q.format(), k)) == _full_parse(q.format(), k)


def _mono(k):
    return st.tuples(
        st.integers(-300, 300), st.lists(st.integers(0, 3), min_size=k, max_size=k),
        st.integers(0, 12),
    )


# characters a mutation may insert: the grammar's own, a space, a
# superscript two and an Arabic-Indic three (str.isdigit takes both), and
# characters that int() skips or reads
_TEXT_NOISE = "0123456789zq^*+- \u00b2\u0663_."


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_paths_agree(data):
    # a text in format's form, with up to three characters inserted, deleted
    # or replaced: the fast reader either declines or gives exactly what the
    # full reader gives, and parse gives what the full reader gives
    k = data.draw(st.integers(1, 3))
    text = Poly.from_monomials(k, data.draw(st.lists(_mono(k), max_size=8))).format()
    mutations = data.draw(st.integers(0, 3))
    for _ in range(mutations):
        i = data.draw(st.integers(0, len(text)))
        noise = data.draw(st.sampled_from(_TEXT_NOISE))
        cut = data.draw(st.sampled_from((0, 1)))
        text = text[:i] + noise * data.draw(st.integers(0, 1)) + text[i + cut :]
    # slices that cut these texts in several places; every term is shorter
    chunk = data.draw(st.sampled_from((32, 64, _fastread.TEXT_CHUNK)))
    with mock.patch.object(_fastread, "TEXT_CHUNK", chunk):
        fast = _fastread.read_text(text, k)
        full = _full_parse(text, k)
        assert _outcome(lambda: Poly.parse(text, k)) == full
    if fast is not None:
        assert full == (k, list(fast.items()), None)
    elif not mutations:
        raise AssertionError(f"the fast reader declined format's own {text!r}")


# values a mutation may put in place of a coefficient, a z entry or q
_JSON_NOISE = (True, False, 1.0, 2.5, "+5", "\u0663", " 1", "07", "-0", "0", "1_0", -1, None,
               1 << 40, 5, "5", [], (1, 0))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_json_paths_agree(data):
    # to_json's form read back, with up to three values changed or terms
    # repeated: the fast reader either declines or gives exactly what the
    # full reader gives (bounds included), and from_json_dict gives what
    # the full reader gives
    k = data.draw(st.integers(1, 3))
    p = Poly.from_monomials(k, data.draw(st.lists(_mono(k), max_size=8)))
    form = json.loads(p.to_json())
    rows = form["terms"]
    mutations = data.draw(st.integers(0, 3)) if rows else 0
    for _ in range(mutations):
        row = data.draw(st.sampled_from(rows))
        field = data.draw(st.sampled_from(("coeff", "z", "q", "z entry", "repeat", "drop")))
        noise = data.draw(st.sampled_from(_JSON_NOISE))
        if field == "z entry" and type(row.get("z")) is list and row["z"]:
            row["z"][data.draw(st.integers(0, len(row["z"]) - 1))] = noise
        elif field == "repeat":
            rows.append(copy.deepcopy(row))
        elif field == "drop":
            row.pop(data.draw(st.sampled_from(("coeff", "z", "q"))), None)
        elif field in row:
            row[field] = noise
    fast = _fastread.read_json(form)
    full = _full_json(form)
    assert _outcome(lambda: Poly.from_json_dict(form)) == full
    if fast is not None:
        assert full == (fast[0], list(fast[1].items()), fast[2])
    elif not mutations:
        raise AssertionError(f"the fast reader declined to_json's own {form!r}")


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


def test_monomial_refuses_bool_exponents():
    # Poly.monomial(2, 1, (True, 0), True) used to format as z1*q
    for z, q in (((True, 0), True), ((True, 0), 1), ((1, False), 0), ((1, 0), False)):
        with pytest.raises(InvalidShiftError):
            Poly.monomial(2, 1, z, q)


def test_shifts_refuse_bool_exponents():
    # True used to act as 1: p.times_q(True) was p.times_q(1)
    p = P("z1 + q")
    for exps in ((True, 0), (0, False)):
        with pytest.raises(InvalidShiftError):
            p.substitute_z_scale(exps)
    with pytest.raises(InvalidShiftError):
        p.times_q(True)
    # p ** True was p and p ** False was 1
    for n in (True, False):
        with pytest.raises(InvalidShiftError):
            p**n


@pytest.mark.parametrize(
    "make, value",
    [
        pytest.param(lambda: Poly(2, {0: True}), True, id="init-bool"),
        pytest.param(lambda: Poly(2, {0: False}), False, id="init-false"),
        pytest.param(lambda: Poly(2, {0: 2.5}), 2.5, id="init-float"),
        pytest.param(lambda: Poly(2, {0: 1, 5: None}), None, id="init-none"),
        pytest.param(lambda: Poly.constant(2, True), True, id="constant-bool"),
        pytest.param(lambda: Poly.zero(2) + True, True, id="add-bool"),
        # p * True, True * p and p * False were p, p and 0
        pytest.param(lambda: P("z1") * True, True, id="mul-bool"),
        pytest.param(lambda: True * P("z1"), True, id="rmul-bool"),
        pytest.param(lambda: P("z1") * False, False, id="mul-false"),
        pytest.param(lambda: Poly.monomial(2, 2.5, (0, 1)), 2.5, id="monomial-float"),
        pytest.param(
            lambda: Poly.from_monomials(2, [(1, (0, 0), 0), (-1.0, (0, 0), 0)]), -1.0,
            id="from-monomials-cancelled",
        ),
    ],
)
def test_coefficients_must_be_ints(make, value):
    # these used to be stored as given, and to_json wrote "True", "2.5" or
    # "None", which from_json_dict refuses
    with pytest.raises(DomainError, match=f"got {value!r}$"):
        make()


def test_float_scalars_are_not_coefficients():
    # as with +, Python raises TypeError for a float operand
    p = P("z1")
    for op in (lambda: p * 2.5, lambda: 2.5 * p, lambda: p + 2.5):
        with pytest.raises(TypeError):
            op()


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
        ({"k": 0, "terms": []}, DomainError),
        ({"k": 2, "terms": [{"coeff": "3", "z": [True, 0], "q": True}]}, InvalidShiftError),
        ({"k": 2, "terms": [{"coeff": "3", "z": [1, False], "q": 0}]}, InvalidShiftError),
        ({"k": 2, "terms": [{"coeff": "3", "z": [1, 0], "q": True}]}, InvalidShiftError),
        ({"k": 2, "terms": [{"coeff": "3", "z": [1, 0], "q": 0}] * 2 + [
            {"coeff": "3", "z": [True, 0], "q": 0}]}, InvalidShiftError),
    ],
)
def test_json_reader_is_strict(data, error):
    # the reader used to truncate a float q or coefficient, read "1_0" as
    # 10, read a bool exponent as 0 or 1 and raise KeyError or TypeError on
    # a malformed object
    with pytest.raises(error) as info:
        Poly.from_json_dict(data)
    assert isinstance(info.value, QfibError)


@pytest.mark.parametrize("k", [0, -1, 2.0, None, True])
def test_one_k_rule(k):
    # a ring's variable count and a maximum tile length are checked by one
    # rule, so each entry point refuses a bad k with the same error; True
    # used to pass as 1, and to_json then wrote it as the non-JSON "True"
    calls = [
        lambda: Poly.zero(k),
        lambda: Poly.parse("1", k),
        lambda: Poly.from_json_dict({"k": k, "terms": []}),
        lambda: fibonacci_k(1, k),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"k must be a positive int, got {k!r}"}


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
        # struct packs a bool as 0 or 1: True used to read as 1
        (None, [(1, (True, 0), 0)], InvalidShiftError),
        (None, [(1, (0, 0), True)], InvalidShiftError),
        (None, [(1, (1, 0), 0), (-1, (1, False), 2)], InvalidShiftError),
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


def test_terms_keys_must_be_packed_keys_of_the_ring():
    # a key below 0 or with bits above the k z fields is no monomial of the
    # ring; it used to print as z1^65535*q^4294967295 or compare unequal to
    # the monomial it printed as
    assert Poly(1, {(1 << 47) + 5: 1}) == P("z1^32768*q^5", 1)
    with pytest.raises(InvalidShiftError):
        Poly(1, {-1: 1})
    with pytest.raises(CapacityError):
        Poly(1, {(1 << 48) + 5: 1})
    with pytest.raises(CapacityError):
        Poly(2, {1 << 64: 1})
    for bad in ({0.5: 1}, {"q": 1}, {1: 1, 2.5: 3}):
        with pytest.raises(InvalidShiftError):
            Poly(1, bad)
    # a stored zero is dropped before the check, so its key is never read
    assert Poly(1, {-1: 0}) == Poly.zero(1)


@pytest.mark.parametrize("k", [1, 2, 20])
def test_struct_packer_matches_the_key_layout(k):
    # from_monomials packs each key as one struct record, _pack shifts each
    # field into place and monomials decodes the key: all three must agree
    # on the edge values of every field
    z_mask, q_mask = _kernels_py.Z_MASK, _kernels_py.Q_MASK
    for e in (0, 1, z_mask):
        for z in ((e,) * k, (e,) + (0,) * (k - 1), (0,) * (k - 1) + (e,)):
            for q in (0, 1, z_mask, q_mask):
                key = polyring._pack(k, z, q)
                assert Poly.from_monomials(k, [(1, z, q)])._terms == {key: 1}
                assert [*Poly(k, {key: 1}).monomials()] == [Monomial(1, z, q)]


def test_checked_readers_check_each_term_once(monkeypatch):
    # parse and from_monomials range-check every term as they read it; they
    # do not pay for Poly(k, terms)'s key check as well
    def refuse(*args):
        raise AssertionError("key check called")

    monkeypatch.setattr(polyring, "_check_keys", refuse)
    assert P("z1^2*q + 3 - 3").n_terms == 1
    assert Poly.from_monomials(2, [(1, (1, 0), 2), (2, (0, 0), 0), (-2, (0, 0), 0)]).n_terms == 1
    with pytest.raises(AssertionError):
        Poly(2, {5: 1})


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
    # a at k = 1..5 and b = a plus a few terms, so the supports overlap in
    # terms of equal coefficients and differ in a handful of coefficients,
    # dropped terms or new ones; or one side is empty
    k = draw(st.integers(1, 5))
    mono = st.tuples(
        st.integers(-3, 3), st.lists(st.integers(0, 3), min_size=k, max_size=k), st.integers(0, 5)
    )
    a = Poly.from_monomials(k, draw(st.lists(mono, max_size=12)))
    b = a + Poly.from_monomials(k, draw(st.lists(mono, max_size=4)))
    return (Poly.zero(k), b) if draw(st.booleans()) and draw(st.booleans()) else (a, b)


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


def _q_pack_reference(p, width):
    # the definition: each z-monomial's terms, offset by its least q exponent
    groups = {}
    for m in p.monomials():
        groups.setdefault(m.z_exps, []).append((m.q_exp, m.coeff))
    out = {}
    for z_exps, terms in groups.items():
        lo = min(q for q, _ in terms)
        z = next(iter(Poly.monomial(p.k, 1, z_exps, 0)._terms)) >> _kernels_py.Q_BITS
        out[z] = (lo, sum(c << width * (q - lo) for q, c in terms))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_pack_round_trip_on_sparse_q(data):
    # negative coefficients, q exponents up to 10^4 apart and z-monomials
    # with one term or many; the pairs are the definition's, and unpacking
    # gives the polynomial back
    k = data.draw(st.integers(1, 4))
    mono = st.tuples(
        st.integers(-50, 50).filter(bool),
        st.lists(st.integers(0, 2), min_size=k, max_size=k),
        st.one_of(st.integers(0, 3), st.integers(0, 10**4)),
    )
    p = Poly.from_monomials(k, data.draw(st.lists(mono, max_size=30)))
    width = max(p.l1_norm, 1).bit_length() + 2
    packed = q_pack(p, width)
    assert packed == _q_pack_reference(p, width)
    assert q_unpack(k, packed, width) == p


@settings(max_examples=60, deadline=None)
@given(_polys, st.integers(1, 2), st.integers(0, 5), st.booleans())
def test_divide_by_a_monomial(p, l, e, packed):
    # p * z_l q^e divides back to p in either ring; p itself divides only
    # where every term holds z_l and q^e
    width = max(p.l1_norm, 1).bit_length() + 2
    z = 1 << (2 - l) * _kernels_py.Z_BITS
    m = Poly.monomial(2, 1, (2 - l, l - 1), e)
    if packed:
        divide = lambda t: q_divide(q_pack(t, width), z, e, width)
        read = lambda f: q_unpack(2, f, width)
    else:
        divide = lambda t: _kernels_py.divide_terms(t._terms, z, e)
        read = lambda f: Poly(2, f)
    assert read(divide(p * m)) == p
    exact = all(mono.z_exps[l - 1] and mono.q_exp >= e for mono in p.monomials())
    quotient = divide(p)
    assert (quotient is not None) == exact
    if exact:
        assert read(quotient) * m == p


@settings(max_examples=60, deadline=None)
@given(_polys, st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(0, 9), st.booleans())
def test_scale_and_its_inverse(p, exps, pad, packed):
    # scale is substitute_z_scale in either ring, and negative exponents
    # undo it.  A packed offset below its z-monomial's least q exponent (x's
    # low digits 0, as a cancelling sum leaves it) can fall below 0 on the
    # way back.
    width = max(p.l1_norm, 1).bit_length() + 2
    ring = qpacked.ring(width if packed else None)
    shifted = p.substitute_z_scale(exps)
    form = ring.pack(shifted)
    if packed:
        low = lambda lo: max(lo - pad, 0)
        form = {z: (low(lo), x << width * (lo - low(lo))) for z, (lo, x) in form.items()}
    assert ring.unpack(2, ring.scale(2, ring.pack(p), exps)) == shifted
    assert ring.unpack(2, ring.scale(2, form, [-e for e in exps])) == p


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


@pytest.mark.parametrize("width", [64, 128, 192])
@pytest.mark.parametrize("n_digits", [1, 63, 64, 65, 600])
def test_q_unpack_word_widths(width, n_digits, monkeypatch):
    # W = 64 reads long x's a word at a time on a little-endian host and by
    # byte blocks on a big-endian one, as it reads wider digits anywhere;
    # short x's are peeled digit by digit.  All give the balanced digits, at
    # the extremes +-(2^(width-1) - 1) and under a negative leading digit
    _check_word_width(width, n_digits)
    if width == 64:
        monkeypatch.setattr(qpacked, "sys", types.SimpleNamespace(byteorder="big"))
        _check_word_width(width, n_digits)


def _check_word_width(width, n_digits):
    rnd = random.Random(width * 1000 + n_digits)
    top = (1 << (width - 1)) - 1
    for lead in (-top, -1):
        digits = [
            rnd.choice((top, -top, 0, 1, -1, rnd.randint(-top, top))) for _ in range(n_digits - 1)
        ]
        digits.append(lead)
        x = sum(d << width * j for j, d in enumerate(digits))
        expected = {j + 7: d for j, d in enumerate(digits) if d}
        for packed in ({0: (7, x)}, {0: [7, x]}):
            got = q_unpack(1, packed, width)
            assert {m.q_exp: m.coeff for m in got.monomials()} == expected
        p = Poly.from_monomials(2, [(d, (1, 2), q) for q, d in expected.items()])
        assert q_unpack(2, q_pack(p, width), width) == p
    # x = 2^(width * j - 1) - 1 needs a digit more than its bit length fills
    j = n_digits
    for x in ((1 << width * j - 1) - 1, -(1 << width * j - 1), (1 << width * j) - 1):
        expected = {q: d for q, d in enumerate(_balanced_digits(x, width)) if d}
        got = q_unpack(1, {0: (0, x)}, width)
        assert {m.q_exp: m.coeff for m in got.monomials()} == expected


def _packed_forms(rnd, width, cells):
    # a q-packed form of a random polynomial, its pairs as tuples or cells
    p = Poly.from_monomials(
        2,
        [(rnd.randint(-9, 9), (rnd.randint(0, 3), rnd.randint(0, 3)), rnd.randint(0, 12))
         for _ in range(rnd.randint(1, 12))],
    )
    return {z: list(pair) if cells else pair for z, pair in q_pack(p, width).items()}


def test_q_mul_add_changes_only_its_accumulator():
    # the window and the minors pass earlier results back in as a and b;
    # updating acc's cells in place must never reach them
    width = 64
    for seed in range(30):
        rnd = random.Random(seed)
        a, b, c = (_packed_forms(rnd, width, seed % 2) for _ in range(3))
        saved = copy.deepcopy((a, b, c))
        pa, pb, pc = (q_unpack(2, f, width) for f in saved)
        acc = q_mul_add({}, a, b, 1, width)
        assert (a, b) == saved[:2]
        again = q_mul_add({}, acc, c, -1, width)
        # later sums into both accumulators, with their earlier inputs
        q_mul_add(acc, c, a, 1, width)
        q_mul_add(acc, b, c, -1, width)
        q_mul_add(again, a, acc, 1, width)
        assert (a, b, c) == saved
        assert q_unpack(2, acc, width) == pa * pb + pc * pa - pb * pc
        assert q_unpack(2, again, width) == -pa * pb * pc + pa * (pa * pb + pc * pa - pb * pc)
        # a one-term tile of coefficient 1 times a suffix sum starts a new
        # sum whose cells share the suffix sum's ints; adding into it leaves
        # the suffix sum as it was
        tile = {rnd.randint(0, 5): (rnd.randint(0, 4), 1)}
        total = q_mul_add({}, tile, a, 1, width)
        q_mul_add(total, b, c, 1, width)
        assert a == saved[0]
        assert q_unpack(2, total, width) == q_unpack(2, tile, width) * pa + pb * pc


def _random_terms(rnd, size):
    # a term dict of the 2-variable ring, coefficients other than 1 included
    coeffs = (1, -1, 2, -3, 7, 10**30, -(10**30))
    return Poly.from_monomials(
        2,
        [(rnd.choice(coeffs), (rnd.randint(0, 3), rnd.randint(0, 3)), rnd.randint(0, 6))
         for _ in range(size)],
    )._terms


def _naive_mul_add(acc, a, b, sign):
    # acc + sign * a * b by a plain double loop over the term pairs
    out = dict(acc)
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + sign * va * vb
    return {key: c for key, c in out.items() if c}


def _check_mul_add(acc, a, b, sign):
    # acc updated in place and returned, a and b only read, no zero kept
    saved = copy.deepcopy((a, b))
    expected = _naive_mul_add(acc, a, b, sign)
    got = _kernels_py.mul_add_terms(acc, a, b, sign)
    assert got is acc
    assert (a, b) == saved
    assert acc == expected


def test_mul_add_terms_is_acc_plus_sign_times_product():
    # both product kernels against the double loop, which runs no kernel
    for seed in range(300):
        rnd = random.Random(seed)
        # rows of every length, into an empty acc and a full one
        a, b = (_random_terms(rnd, rnd.choice((0, 1, 5, 9, 200))) for _ in range(2))
        sign = rnd.choice((1, -1))
        acc = _random_terms(rnd, rnd.choice((0, 0, rnd.randint(1, 12))))
        if seed % 7 == 0:
            # a one-term tile of coefficient 1, as the recursion's are
            a = {rnd.randint(0, 3) << 32 + 16: 1}
        if seed % 5 == 0:
            # full cancellation: acc is exactly -sign * a * b
            acc = {key: -sign * c for key, c in _naive_mul_add({}, a, b, 1).items()}
        assert _kernels_py.mul_terms(a, b) == _naive_mul_add({}, a, b, 1), seed
        _check_mul_add(acc, a, b, sign)
        if seed % 5 == 0:
            assert acc == {}


def test_mul_add_terms_edge_rows():
    rnd = random.Random(1)
    short = _random_terms(rnd, 5)
    long = _random_terms(rnd, 200)
    for b in (short, long):
        # an empty operand leaves acc as it was
        for a, other in (({}, b), (b, {})):
            _check_mul_add({1: 3}, a, other, -1)
            assert _kernels_py.mul_terms(a, other) == {}
        # a one-term factor of coefficient 1, into an empty and a full acc
        one = {1 << 48: 1}
        _check_mul_add({}, one, b, 1)
        _check_mul_add(dict(short), one, b, 1)
        assert _kernels_py.mul_terms(one, b) == _naive_mul_add({}, one, b, 1)
        # sign -1 on a nonempty acc, and on an empty one with a row of
        # coefficient -1
        _check_mul_add(dict(long), {5: 2, 1 << 32: -1}, b, -1)
        _check_mul_add({}, {5: -1}, b, -1)
        # the first row cancels acc exactly and the next refills it
        a = {7: 1, 1 << 49: 1}
        acc = {key: -c for key, c in _naive_mul_add({}, {7: 1}, b, 1).items()}
        _check_mul_add(acc, a, b, 1)
        assert acc == _naive_mul_add({}, {1 << 49: 1}, b, 1)


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


_Z_MASK = _kernels_py.Z_MASK


@st.composite
def _wide_pairs(draw):
    # as _nearby_pairs, with z exponents whose sum can reach Z_MASK, where
    # the sum of a key's z fields is no longer its z part modulo Z_MASK
    k = draw(st.integers(2, 4))
    z = st.sampled_from(
        [0, 1, 2, _Z_MASK // k - 1, _Z_MASK // k, _Z_MASK // 2 + 1, _Z_MASK - 1, _Z_MASK]
    )
    mono = st.tuples(
        st.integers(-3, 3), st.lists(z, min_size=k, max_size=k), st.integers(0, 5)
    )
    a = Poly.from_monomials(k, draw(st.lists(mono, max_size=12)))
    return a, a + Poly.from_monomials(k, draw(st.lists(mono, min_size=1, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_wide_pairs())
def test_diff_witness_with_wide_z_exponents(pair):
    a, b = pair
    assert diff_witness(a, b) == _reference_witness(a, b)
    assert diff_witness(b, a) == _reference_witness(b, a)


def test_diff_witness_where_z_fields_sum_past_z_mask():
    # z1^65535*z2 and z1^2*z2^2: the z parts modulo Z_MASK give degrees 1
    # and 4, the exponents 65536 and 4
    a = Poly.from_monomials(2, [(1, (_Z_MASK, 1), 0), (1, (2, 2), 0)])
    assert diff_witness(a, Poly.zero(2)) == "coefficient of z1^65535*z2: 1 != 0"


def test_diff_witness_where_q_takes_the_degree_past_z_mask():
    # z1*q^65534 has total degree 65535: key % Z_MASK reads it as 0
    a = Poly.from_monomials(2, [(1, (1, 0), _Z_MASK - 1), (1, (2, 2), 0)])
    assert diff_witness(a, Poly.zero(2)) == "coefficient of z1*q^65534: 1 != 0"


@pytest.mark.parametrize("seed", range(40))
def test_first_in_order_is_the_largest_sort_key(seed):
    # small keys take the total degree from key % Z_MASK; wide z fields or
    # a large q field send the keys to the sort key of _term_order.  Each
    # case draws its fields from one range, so some cases sit near the
    # bound on either side.
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    ztop = rng.choice([3, 40, _Z_MASK // (k + 1), _Z_MASK // k, _Z_MASK])
    qtop = rng.choice([0, 5, 1000, _Z_MASK - 1, _Z_MASK, 1 << 20, polyring.Q_MASK])
    keys = list({
        polyring._pack(k, [rng.randint(0, ztop) for _ in range(k)], rng.randint(0, qtop))
        for _ in range(rng.randint(1, 300))
    })
    order = polyring._term_order(k, keys)[1]
    assert polyring._first_in_order(k, keys) == max(keys, key=order)
