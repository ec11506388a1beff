"""Parser for textual homogeneous plane-curve equations.

Accepts expressions over the variables x, y, z with integer or rational
coefficients, in the notation the curves are usually written in, e.g.::

    x^3 + y^3 + z^3
    x^3*y + y^3*z + z^3*x
    x^3y + y^3z + z^3x          (juxtaposition is multiplication)
    1/2x^4 - 2(x + y)^2*z^2

Grammar (EBNF)::

    form     = expr ;
    expr     = term { ("+" | "-") term } ;
    term     = signed { "*" signed | factor } ;   (* juxtaposition = "*" *)
    signed   = "-" signed | factor ;
    factor   = atom [ "^" natural ] ;
    atom     = rational | variable | "(" expr ")" ;
    rational = natural [ "/" natural ] ;
    variable = "x" | "y" | "z" ;

A natural is a run of decimal digits, as ``int`` reads them; "/" only
appears inside numeric literals.  Whitespace is insignificant, and any
other character is a syntax error.  Every rejection carries the
offending position; that includes a power whose exponent times the
bit length of N exceeds MAX_CONSTANT_POWER_BITS, for N > 1 the larger of
the base's coefficient 1-norm and denominator, so no power builds a
coefficient or denominator longer than that.

Denominators are cleared: a partial result is an integer term map P,
``{(i, j, k): c}`` for the nonzero terms c*x^i*y^j*z^k, and a denominator
D > 0, and the gcd of D and P's content is divided out at the end.  So
the parsed polynomial is the expression times the lcm of its coefficient
denominators (a form scaled by a constant defines the same curve), and
integer input parses to itself.  Sums, products and powers work on the
term maps; one ``MultiPoly`` is built, and checked, from the final map.
A parsed form must be homogeneous and nonzero; ``parse_form`` returns it
with its degree.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .exactpoly import MultiPoly, NonHomogeneousError
from .exactpoly.unipoly import ZeroPolynomialError

CURVE_VARS = ("x", "y", "z")
MAX_CONSTANT_POWER_BITS = 2**16


class ParseError(ValueError):
    """Syntax error with the 0-based position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """A letter other than x, y, z appeared in the expression."""


Terms = dict[tuple[int, int, int], int]  # nonzero coefficients only
Scaled = tuple[Terms, int]  # (P, D) stands for P / D, with D > 0
_ONE = (0, 0, 0)
_UNIT = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def _reduced(p: Terms, den: int) -> Scaled:
    """(P/g, D/g) for g the gcd of D and the coefficients of P."""
    if den == 1:
        return p, den
    g = gcd(den, *p.values())
    return {e: c // g for e, c in p.items()}, den // g


def _sum(p: Terms, a: int, q: Terms, b: int) -> Terms:
    """a*P + b*Q."""
    out = {e: a * c for e, c in p.items()}
    for e, c in q.items():
        out[e] = out.get(e, 0) + b * c
    return {e: c for e, c in out.items() if c}


def _product(p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for (a0, a1, a2), ca in p.items():
        for (b0, b1, b2), cb in q.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _power(p: Terms, n: int) -> Terms:
    result = {_ONE: 1}
    while n:
        if n & 1:
            result = _product(result, p)
        p = _product(p, p) if n > 1 else p
        n >>= 1
    return result


# A token is (kind, text, position); kind is "num" (decimal digits, as
# int() reads them), "var", "end" (text "") or the character itself.
Token = tuple[str, str, int]
_TOKEN = re.compile(r"\s*(?:(\d+)|(\S))")


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        num, c = m.groups()
        if num:
            tokens.append(("num", num, m.start(1)))
        elif c in "+-*^/()":
            tokens.append((c, c, m.start(2)))
        elif c in CURVE_VARS:
            tokens.append(("var", c, m.start(2)))
        elif c.isalpha():
            raise UnknownVariableError(f"unknown variable {c!r}", m.start(2))
        else:
            raise ParseError(f"unexpected character {c!r}", m.start(2))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens in reverse: ``tokens[-1]`` is the
    next one, and ``pop()`` consumes it."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)[::-1]

    def take(self, kind: str) -> Token:
        """Consume the next token, which must be of this kind."""
        tok = self.tokens.pop()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    # expr = term { ("+" | "-") term }
    def expr(self) -> Scaled:
        acc, den = self.term()
        while self.tokens[-1][0] in ("+", "-"):
            sign = 1 if self.tokens.pop()[0] == "+" else -1
            rhs, rden = self.term()
            common = lcm(den, rden)
            acc, den = _sum(acc, common // den, rhs, sign * common // rden), common
        return acc, den

    # term = signed { "*" signed | factor }; a bare "-" never continues a
    # term, so "x - y" stays a subtraction rather than x * (-y).
    def term(self) -> Scaled:
        acc, den = self.signed()
        while True:
            kind = self.tokens[-1][0]
            if kind == "*":
                self.tokens.pop()
                rhs, rden = self.signed()
            elif kind in ("num", "var", "("):
                rhs, rden = self.factor()
            else:
                return acc, den
            acc, den = _product(acc, rhs), den * rden

    def signed(self) -> Scaled:
        if self.tokens[-1][0] == "-":
            self.tokens.pop()
            p, den = self.signed()
            return {e: -c for e, c in p.items()}, den
        return self.factor()

    # factor = atom [ "^" natural ]
    def factor(self) -> Scaled:
        base = self.atom()
        if self.tokens[-1][0] != "^":
            return base
        self.tokens.pop()
        _, digits, pos = self.take("num")
        exponent = int(digits)
        p, den = _reduced(*base)
        bound = max(sum(map(abs, p.values())), den)
        if bound > 1 and exponent * bound.bit_length() > MAX_CONSTANT_POWER_BITS:
            raise ParseError(f"power exceeds {MAX_CONSTANT_POWER_BITS} coefficient bits", pos)
        return _power(p, exponent), den**exponent

    def atom(self) -> Scaled:
        kind, text, pos = self.tokens.pop()
        if kind == "num":
            value = int(text)
            terms = {_ONE: value} if value else {}
            if self.tokens[-1][0] != "/":
                return terms, 1
            self.tokens.pop()
            _, digits, pos = self.take("num")
            if den := int(digits):
                return terms, den
            raise ParseError("zero denominator in rational literal", pos)
        if kind == "var":
            return {_UNIT[text]: 1}, 1
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)


def parse_expression(text: str) -> MultiPoly:
    """Parse an expression over x, y, z without the homogeneity checks;
    returns it times the lcm of its coefficient denominators."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    try:
        poly, den = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
    kind, rest, pos = parser.tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected {rest!r} after expression", pos)
    return MultiPoly(CURVE_VARS, _reduced(poly, den)[0])


def parse_form(text: str) -> tuple[MultiPoly, int]:
    """Parse a homogeneous nonzero form; returns (polynomial, degree)."""
    poly = parse_expression(text)
    if poly.is_zero():
        raise ZeroPolynomialError("expression simplifies to the zero polynomial")
    if not poly.is_homogeneous():
        degs = sorted({sum(e) for e in poly.terms})
        raise NonHomogeneousError(f"expression is not homogeneous: term degrees {degs}")
    return poly, poly.homogeneous_degree()
