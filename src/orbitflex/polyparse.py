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

Exponents are nonnegative integer literals; "/" only appears inside
numeric literals.  Whitespace is insignificant.  Every rejection carries
the offending position; that includes a power whose exponent times the
bit length of N exceeds MAX_CONSTANT_POWER_BITS, for N > 1 the larger of
the base's coefficient 1-norm and denominator, so no power builds a
coefficient or denominator longer than that.

Denominators are cleared: a partial result is an integer polynomial P
and a denominator D > 0, and the gcd of D and P's content is divided out
at the end.  So the parsed polynomial is the expression times the lcm of
its coefficient denominators (a form scaled by a constant defines the
same curve), and integer input parses to itself.  A parsed form must be
homogeneous and nonzero; ``parse_form`` returns it with its degree.
"""

from __future__ import annotations

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


Scaled = tuple[MultiPoly, int]  # (P, D) stands for P / D, with D > 0


def _reduced(p: MultiPoly, den: int) -> Scaled:
    """(P/g, D/g) for g the gcd of D and the coefficients of P."""
    if den == 1:
        return p, den
    g = gcd(den, *p.terms.values())
    return MultiPoly(p.variables, {e: c // g for e, c in p.terms.items()}), den // g


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            if c in CURVE_VARS:
                tokens.append(_Token("var", c, i))
                i += 1
                continue
            raise UnknownVariableError(f"unknown variable {c!r}", i)
        if c in "+-*^/()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value or 'end of input'!r}", tok.pos)
        return self.advance()

    # expr = term { ("+" | "-") term }
    def expr(self) -> Scaled:
        acc, den = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs, rden = self.term()
            if rden != den:
                common = lcm(den, rden)
                acc, rhs, den = acc * (common // den), rhs * (common // rden), common
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc, den

    # term = signed { "*" signed | factor }; a bare "-" never continues a
    # term, so "x - y" stays a subtraction rather than x * (-y).
    def term(self) -> Scaled:
        acc, den = self.signed()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                rhs, rden = self.signed()
            elif tok.kind in ("num", "var", "("):
                rhs, rden = self.factor()
            else:
                return acc, den
            acc, den = acc * rhs, den * rden

    def signed(self) -> Scaled:
        if self.peek().kind == "-":
            self.advance()
            p, den = self.signed()
            return -p, den
        return self.factor()

    # factor = atom [ "^" natural ]
    def factor(self) -> Scaled:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        tok = self.expect("num")
        exponent = int(tok.value)
        p, den = _reduced(*base)
        bound = max(sum(map(abs, p.terms.values())), den)
        if bound > 1 and exponent * bound.bit_length() > MAX_CONSTANT_POWER_BITS:
            raise ParseError(f"power exceeds {MAX_CONSTANT_POWER_BITS} coefficient bits", tok.pos)
        return p**exponent, den**exponent

    def atom(self) -> Scaled:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = MultiPoly.const(CURVE_VARS, int(tok.value))
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("num")
                den = int(den_tok.value)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", den_tok.pos)
                return value, den
            return value, 1
        if tok.kind == "var":
            self.advance()
            return MultiPoly.var(CURVE_VARS, tok.value), 1
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {tok.value or 'end of input'!r}", tok.pos)


def parse_expression(text: str) -> MultiPoly:
    """Parse an expression over x, y, z without the homogeneity checks;
    returns it times the lcm of its coefficient denominators."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    try:
        poly, den = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"unexpected {end.value!r} after expression", end.pos)
    return _reduced(poly, den)[0]


def parse_form(text: str) -> tuple[MultiPoly, int]:
    """Parse a homogeneous nonzero form; returns (polynomial, degree)."""
    poly = parse_expression(text)
    if poly.is_zero():
        raise ZeroPolynomialError("expression simplifies to the zero polynomial")
    if not poly.is_homogeneous():
        degs = sorted({sum(e) for e in poly.terms})
        raise NonHomogeneousError(f"expression is not homogeneous: term degrees {degs}")
    return poly, poly.homogeneous_degree()
