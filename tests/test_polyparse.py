import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitflex.exactpoly import MultiPoly, NonHomogeneousError
from orbitflex.exactpoly.unipoly import ZeroPolynomialError
from orbitflex.polyparse import (
    ParseError,
    UnknownVariableError,
    _tokenize,
    parse_expression,
    parse_form,
)
from helpers import (
    CURVE_VARS,
    parse_expression_by_multipoly,
    random_expression,
    random_homogeneous,
    random_multipoly,
    tokenize_by_characters,
)

V = CURVE_VARS
X = MultiPoly.var(V, "x")
Y = MultiPoly.var(V, "y")
Z = MultiPoly.var(V, "z")


def test_fermat_cubic():
    poly, d = parse_form("x^3 + y^3 + z^3")
    assert poly == X**3 + Y**3 + Z**3
    assert d == 3


def test_klein_quartic_explicit_multiplication():
    poly, d = parse_form("x^3*y + y^3*z + z^3*x")
    assert poly == X**3 * Y + Y**3 * Z + Z**3 * X
    assert d == 4


def test_klein_quartic_juxtaposition():
    poly, d = parse_form("x^3y + y^3z + z^3x")
    assert poly == X**3 * Y + Y**3 * Z + Z**3 * X
    assert d == 4


def test_non_homogeneous_rejected():
    with pytest.raises(NonHomogeneousError):
        parse_form("x^2 + y^3")


def test_whitespace_insensitive():
    a, _ = parse_form(" x ^ 3 + y^3 +\tz^3 ")
    b, _ = parse_form("x^3+y^3+z^3")
    assert a == b


def test_rational_coefficients():
    # 1/2 x^2 + 3/4 y^2 times 4, the lcm of its denominators
    assert parse_expression("1/2x^2 + 3/4y^2") == 2 * X**2 + 3 * Y**2
    assert parse_expression("2/4x - 3y") == X - 6 * Y
    assert parse_expression("1/2x^3 + 1/2y^3") == X**3 + Y**3
    assert parse_expression("-6/3x*y") == -2 * X * Y
    assert parse_expression("1/2x - 1/2x").is_zero()


def test_integer_coefficient_juxtaposition():
    assert parse_expression("2x") == 2 * X
    assert parse_expression("3(x+y)z^2") == 3 * (X + Y) * Z**2


def test_unary_minus_binds_below_power():
    assert parse_expression("-x^2") == -(X**2)
    assert parse_expression("-x^2 + x^2").is_zero()
    assert parse_expression("x^3 - -y^3") == X**3 + Y**3


def test_binary_minus_not_swallowed_by_juxtaposition():
    assert parse_expression("x - y") == X - Y
    assert parse_expression("x*-y") == -(X * Y)


def test_parenthesized_powers():
    assert parse_expression("(x+y)^2") == (X + Y) ** 2
    assert parse_expression("(" * 100 + "x" + ")" * 100) == X


def test_unknown_variable_with_position():
    with pytest.raises(UnknownVariableError) as err:
        parse_form("x^3 + w^3")
    assert err.value.position == 6


def test_syntax_errors_carry_position():
    cases = [("x^^3", 2), ("x^3 + ", 6), ("(x+y", 4), ("x/y", 1),
             # nested too deeply: parentheses, then a chain of unary minus
             ("(" * 2000 + "x" + ")" * 2000, 0), ("x + " + "-" * 5000 + "y", 0),
             # digits that str.isdigit accepts but int does not read
             ("x²+y^2", 1), ("6①", 1), ("₃x", 0)]
    for text, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert err.value.position == pos
    with pytest.raises(ParseError, match=r"^unexpected character '²' \(at position 1\)$"):
        parse_expression("x²+y^2")


def test_decimal_digits_of_any_script():
    assert parse_expression("٣x^3+y^3+z^3") == 3 * X**3 + Y**3 + Z**3
    assert parse_expression("𝟘x + 1/𝟚y") == Y


def test_empty_expression_rejected():
    with pytest.raises(ParseError):
        parse_form("   ")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_expression("1/0x^3")


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        parse_form("x^3 - x^3")


def test_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse_expression("x^-2")


def test_constant_power_size_guard():
    # exponent x bit length of the larger of the base's coefficient 1-norm
    # and denominator: 2 has two bits, 1/3 two, 4x three (1-norm 4), x + y
    # two, 1/3x two (denominator 3); -1, 0 and x (1-norm 1) are exempt
    assert parse_expression("2^32768") == MultiPoly.const(V, 2**32768)
    for text, pos in (("2^32769", 2), ("x*(1/3)^32769", 8), ("(2^300)^300", 8),
                      ("5z* (4x)^3591443783", 9), ("(x + y)^32769", 8), ("(1/3x)^32769", 7)):
        with pytest.raises(ParseError, match="power exceeds") as err:
            parse_expression(text)
        assert err.value.position == pos
    assert parse_expression("(-1)^999999 + 0^999999") == MultiPoly.const(V, -1)
    assert parse_expression("(2/4x)^3") == X**3
    assert parse_expression("x^70000") == X**70000


def test_roundtrip_with_canonical_printer():
    rng = random.Random(43)
    for _ in range(40):
        p = random_multipoly(rng, max_degree=4, max_terms=6, coeff_range=9)
        assert parse_expression(str(p)) == p
    for _ in range(10):
        p = random_homogeneous(rng, rng.randint(1, 4))
        assert parse_expression(str(p)) == p


def test_roundtrip_with_fraction_coefficients():
    # 7/3 x^2 y - 1/2 z^3 parses to its cleared form, which round-trips.
    p = parse_expression("7/3*x^2*y - 1/2*z^3")
    assert p == 14 * X**2 * Y - 3 * Z**3
    assert parse_expression(str(p)) == p


def test_reported_degree_matches_common_degree():
    _, d = parse_form("x^5*y + 2y^6 - z^6")
    assert d == 6


def outcome(parse, text):
    """The parsed polynomial (or tokens), or the class, text and position
    of the ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def differential_texts() -> list[str]:
    """Edge cases, then 2000 random expressions, a quarter of them with a
    stray, missing or replaced character."""
    rng = random.Random(34)
    texts = ["5z* (4x)^3591443783", "1/0x^3", "(" * 2000 + "x" + ")" * 2000,
             "x + " + "-" * 5000 + "y", "   ", "x^^3", "x/y", "x^3 + w^3", "x^-2",
             "2^32768", "2^32769", "x*(1/2)^32769", "(2^300)^300", "(1/3x)^32769",
             "(-1)^999999 + 0^999999", "x^70000 - x^70000"]
    for _ in range(2000):
        text = random_expression(rng)
        if rng.random() < 0.25:
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice("+-*^/()xyzw0 1#") + text[i + rng.randint(0, 1):]
        texts.append(text)
    return texts


# Beyond ASCII: a letter, a no-break space, digits that int() does not
# read, and decimal digits of other scripts.
NON_ASCII = "wé\u00a0²₃①٣𝟘"


def test_scanner_matches_character_loop():
    # Differential test against the scanner that walked the characters:
    # the same tokens, or the same error at the same place.  The one
    # difference: a digit that int() does not read is an error at once,
    # where the loop went on to a later error or none.
    rng = random.Random(35)
    texts = differential_texts()
    for text in texts[:2000]:
        i = rng.randint(0, len(text))
        texts.append(text[:i] + rng.choice(NON_ASCII) + text[i:])
    non_decimal = 0
    for text in texts:
        want = outcome(tokenize_by_characters, text)
        got = outcome(_tokenize, text)
        if got != want:
            i = next(i for i, c in enumerate(text) if c.isdigit() and not c.isdecimal())
            assert isinstance(want, list) or want[2] > i, text
            assert got == (ParseError, f"unexpected character {text[i]!r} (at position {i})", i)
            non_decimal += 1
    assert non_decimal > 100


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("xyz0123456789+-*^/() " + NON_ASCII), max_size=20))
def test_only_parse_errors_within_the_text(text):
    text = re.sub(r"(\d)\d+", r"\1", text)  # single digits: no huge powers
    try:
        parse_expression(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


def test_term_maps_parse_as_multipoly_arithmetic():
    # Differential test against the parser whose partial results are
    # MultiPolys: the same polynomial, or the same error at the same place.
    texts = differential_texts()
    results = [outcome(parse_expression_by_multipoly, text) for text in texts]
    for text, want in zip(texts, results):
        assert outcome(parse_expression, text) == want, text
    errors = [r for r in results if isinstance(r, tuple)]
    zeros = [r for r in results if isinstance(r, MultiPoly) and r.is_zero()]
    assert len(errors) > 300 and len(zeros) > 100
    assert len({r[1] for r in errors}) > 8
