"""Shared generators for randomized tests (all deterministic via seeds),
the reference algorithms that differential tests compare against, the
pointwise flex-order oracle, the flex-order predegree as one expanded
polynomial, the character-loop scanner and the expression parser on
``MultiPoly`` arithmetic, and checks on forked children."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, gcd, lcm
from typing import Sequence

import pytest

from orbitflex.exactpoly import (
    MultiPoly,
    det3,
    factor_integer,
    gradient,
    is_prime,
    linear_substitute,
)
from orbitflex.exactpoly.elimination import (
    _dense_in,
    _divexact_scalar,
    _horner,
    prs_subresultants,
)
from orbitflex.exactpoly.unipoly import (
    IntPoly,
    _deg,
    _divides,
    _primitive,
    _trim,
)
from orbitflex import flexlab
from orbitflex.flexlab import PlaneCurve, SingularCurveError, check_smooth, random_unimodular
from orbitflex.polyparse import (
    MAX_CONSTANT_POWER_BITS,
    ParseError,
    UnknownVariableError,
    _tokenize,
)

CURVE_VARS = ("x", "y", "z")


def random_multipoly(
    rng: random.Random,
    variables: tuple[str, ...] = CURVE_VARS,
    max_degree: int = 3,
    max_terms: int = 5,
    coeff_range: int = 5,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = rng.randint(-coeff_range, coeff_range)
    return MultiPoly(variables, terms)


def random_homogeneous(
    rng: random.Random, degree: int, coeff_range: int = 4
) -> MultiPoly:
    """Random homogeneous ternary form with all monomials present."""
    terms = {}
    for combo in combinations_with_replacement(range(3), degree):
        exps = [0, 0, 0]
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = rng.randint(-coeff_range, coeff_range)
    return MultiPoly(CURVE_VARS, terms)


def random_smooth_curve(rng: random.Random, degree: int) -> PlaneCurve:
    """Draw random small-coefficient forms until one certifies smooth."""
    while True:
        form = random_homogeneous(rng, degree)
        if form.is_zero() or not form.is_homogeneous():
            continue
        if form.total_degree() != degree:
            continue
        try:
            return check_smooth(form)
        except SingularCurveError:
            continue


def random_valid_profile(rng: random.Random, d: int) -> dict[int, int]:
    """Random flex profile with weighted total 3d(d-2) and orders <= d-2."""
    remaining = 3 * d * (d - 2)
    counts: dict[int, int] = {}
    while remaining:
        r = rng.randint(1, min(d - 2, remaining))
        counts[r] = counts.get(r, 0) + 1
        remaining -= r
    return counts


def expanded_flex_order_predegree(d: int, profile: dict[int, int]) -> int:
    """The flex-order route written out: P(d) in factored form minus, for
    each flex of order r, r(r-1) times a cubic in r with coefficients in d."""
    total = d * (d - 2) * (
        d**6 + 2 * d**5 + 4 * d**4 + 8 * d**3 - 1356 * d**2 + 5280 * d - 5319
    )
    for r, n in profile.items():
        total -= n * r * (r - 1) * (
            6 * r**3
            + (75 - 24 * d) * r**2
            + (28 * d**2 - 240 * d + 393) * r
            + 196 * d**2
            - 960 * d
            + 1125
        )
    return total


def planted_flex_curve(rng: random.Random, d: int, r: int) -> tuple[PlaneCurve, tuple[int, ...]]:
    """A smooth curve of degree d with a flex of order exactly r at a known
    rational point, and that point.

    F = y*G + x**(r+2)*H, with G of degree d-1 and H of degree d-r-2 and
    G(0,0,1)*H(0,0,1) != 0, meets its tangent y = 0 at (0:0:1) in
    x**(r+2)*H(x, 0, z); a random unimodular M moves the flex to
    adj(M) (0:0:1), since (F o M)(M^-1 q) = F(q).  Forms that are not
    smooth are drawn again.
    """
    x, y = (MultiPoly.var(CURVE_VARS, v) for v in "xy")
    while True:
        g, h = random_homogeneous(rng, d - 1), random_homogeneous(rng, d - r - 2)
        if g.evaluate((0, 0, 1)) * h.evaluate((0, 0, 1)) == 0:
            continue
        m = random_unimodular(rng, 2)
        moved = linear_substitute(y * g + x ** (r + 2) * h, m)
        try:
            curve = check_smooth(moved)
        except SingularCurveError:
            continue
        return curve, tuple(adjugate(m)[i][2] for i in range(3))


def adjugate(m: list[list[int]]) -> list[list[int]]:
    """The adjugate of a 3x3 matrix: m times it is det(m) times the identity."""
    return [
        [
            m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]


# ----------------------------------------------------------------------
# Reference algorithms kept as differential oracles
# ----------------------------------------------------------------------


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """Sylvester matrix of f and g in ``var`` (f's coefficient rows first)."""
    fd = list(reversed(f.coefficients_in(var)))  # descending powers
    gd = list(reversed(g.coefficients_in(var)))
    m, n = len(fd) - 1, len(gd) - 1
    zero = MultiPoly.zero(fd[0].variables)
    rows = [[zero] * i + fd + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gd + [zero] * (m - 1 - i) for i in range(m)]
    return rows


def bareiss_det_int(matrix: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pk * m[i][j] - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def newton_interpolate(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    """Coefficients (lowest first) of the polynomial through (xs[i], ys[i])."""
    k = len(xs)
    diffs = list(ys)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        carry = [Fraction(0)] + coeffs[:-1]
        for j in range(k):
            coeffs[j] = carry[j] - xs[i] * coeffs[j]
        coeffs[0] += diffs[i]
    return coeffs


def sylvester_resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Res_var(f, g) of bivariate f, g as the Sylvester determinant."""
    rest = tuple(v for v in f.variables if v != var)
    return _interpolated_det(sylvester_matrix(f, g, var), rest)


def sylvester_first_subresultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """sres_1 of bivariate f, g of degrees m, n >= 1 in ``var``: the
    determinant of the Sylvester matrix without the last row of each block
    and without the last two columns."""
    n = g.degree_in(var)
    rows = sylvester_matrix(f, g, var)
    rest = tuple(v for v in f.variables if v != var)
    return _interpolated_det([row[:-2] for row in rows[: n - 1] + rows[n:-1]], rest)


def _interpolated_det(rows: list[list[MultiPoly]], rest: tuple[str, ...]) -> MultiPoly:
    """Determinant of a matrix of univariate integer polynomials.

    The matrix is evaluated at t = 0 .. k-1 with k - 1 the sum of the row
    degrees, each integer determinant comes from Bareiss elimination, and
    the values are interpolated over the rationals.
    """
    k = 1 + sum(max(entry.total_degree() or 0 for entry in row) for row in rows)
    points = list(range(k))
    values = [
        Fraction(bareiss_det_int([[e.evaluate((t,)) for e in row] for row in rows]))
        for t in points
    ]
    coeffs = newton_interpolate(points, values)
    assert all(c.denominator == 1 for c in coeffs), coeffs
    return MultiPoly(rest, {(i,): int(c) for i, c in enumerate(coeffs)})


def resultant_at_naturals(f: MultiPoly, g: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """(Res, sres_1) in ``var`` of bivariate integer f, g from the same
    remainder sequences as ``resultant``, evaluated at x = 0 .. k-1 instead
    of the balanced points and reassembled by ``interpolate_scaled``."""
    fi, gi = _dense_in(f, var), _dense_in(g, var)
    m, n = len(fi) - 1, len(gi) - 1
    k = n * f.total_degree() + m * g.total_degree() - m * n + 1
    values, sres1 = zip(
        *(
            prs_subresultants([_horner(c, t) for c in fi], [_horner(c, t) for c in gi])
            for t in range(k)
        )
    )
    rest = tuple(v for v in f.variables if v != var)
    return tuple(
        MultiPoly(rest, {(i,): c for i, c in enumerate(interpolate_scaled(vs, 0)) if c})
        for vs in (values, sres1)
    )


def interpolate_scaled(values: Sequence[int], lo: int) -> IntPoly:
    """Integer coefficients, lowest first, of the polynomial through
    (lo + i, values[i]) for i = 0 .. k-1.

    Newton's forward-difference form sum_j D^j / j! * (t-lo)...(t-lo-j+1) is
    accumulated by Horner's rule with every coefficient D^j multiplied by
    (k-1)!/j!, so the sum stays integral; (k-1)! divides the result exactly.
    """
    k = len(values)
    diffs = list(values)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    coeffs: IntPoly = []
    weight = 1  # (k-1)! / j!
    for j in range(k - 1, -1, -1):
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= (j + lo) * c
        shifted[0] += diffs[j] * weight
        coeffs = shifted
        weight *= j
    return _divexact_scalar(_trim(coeffs), factorial(k - 1))


def pseudo_rem_by_passes(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact pseudo-remainder: lc(b)**(deg a - deg b + 1) * a reduced mod b.

    ``b`` is nonzero and deg a >= deg b.  Each pass scales all of a by
    lc(b) and cancels its top coefficient; a pass that drops the degree by
    more than one still owes the skipped powers of lc(b), applied at the end.
    """
    a = list(a)
    dd = _deg(b)
    lead = b[-1]
    owed = _deg(a) - dd + 1
    while _deg(a) >= dd and a:
        shift = _deg(a) - dd
        top = a[-1]
        a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= top * bc
        _trim(a)
        owed -= 1
    if owed > 0:
        scale = lead**owed
        a = [c * scale for c in a]
    return a


def poly_mul(*polys: list[int]) -> list[int]:
    """Product of integer coefficient lists (lowest degree first)."""
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def gcd_prs(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials by the primitive pseudo-remainder
    sequence (lowest degree first)."""
    a, b = (f, g) if _deg(f) >= _deg(g) else (g, f)
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        r = _primitive(pseudo_rem_by_passes(a, b))
        a, b = b, r
    return _primitive(a)


def _mod_monic_gcd(a: list[int], b: list[int], m: int) -> list[int]:
    """Monic gcd over GF(m) by the Euclidean algorithm."""
    while b:
        inv = pow(b[-1], m - 2, m)
        bm = [(c * inv) % m for c in b]
        r = list(a)
        while len(r) >= len(bm) and r:
            q = r[-1] % m
            if q:
                off = len(r) - len(bm)
                for i, c in enumerate(bm):
                    r[off + i] = (r[off + i] - q * c) % m
            _trim(r)
        a, b = bm, _trim(r)
    if not a:
        return []
    inv = pow(a[-1], m - 2, m)
    return [(c * inv) % m for c in a]


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def gcd_multimodular(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials by a small-prime modular
    algorithm: monic gcds modulo primes below 2**31, combined by CRT until
    the symmetric lift is stable and divides both inputs."""
    f, g = _primitive(_trim(list(f))), _primitive(_trim(list(g)))
    if not f or not g:
        return f or g
    if _deg(f) == 0 or _deg(g) == 0:
        return [1]
    lead_gcd = gcd(f[-1], g[-1])
    best_deg: int | None = None
    combined: list[int] = []
    modulus = 1
    p = 1 << 31
    while True:
        p -= 1
        if not is_prime(p) or f[-1] % p == 0 or g[-1] % p == 0:
            continue
        hp = _mod_monic_gcd(_trim([c % p for c in f]), _trim([c % p for c in g]), p)
        d = len(hp) - 1
        if d == 0:
            return [1]
        scaled = [(c * lead_gcd) % p for c in hp]
        if best_deg is None or d < best_deg:
            best_deg, combined, modulus = d, scaled, p
            continue
        if d > best_deg:
            continue  # unlucky prime
        prev = [_sym(c, modulus) for c in combined]
        inv = pow(modulus % p, p - 2, p)
        combined = [
            a + modulus * (((b - a) * inv) % p) for a, b in zip(combined, scaled)
        ]
        modulus *= p
        if [_sym(c, modulus) for c in combined] != prev:
            continue
        candidate = _primitive(_trim([_sym(c, modulus) for c in combined]))
        if _divides(candidate, f) and _divides(candidate, g):
            return candidate


def hessian_cofactor(form: MultiPoly) -> MultiPoly:
    """Hessian determinant of a ternary form by cofactor expansion of the
    matrix of second partials, multiplied out as ``MultiPoly``s."""
    firsts = [form.diff(v) for v in form.variables]
    return det3([[fi.diff(v) for v in form.variables] for fi in firsts])


def substitute_expanded(form: MultiPoly, matrix: list[list[int]]) -> MultiPoly:
    """form(M @ (x, y, z)) expanded as the sum of c * prod (row . (x, y, z))**e
    over the terms of the form, multiplied out as ``MultiPoly``s with each
    row's powers built once."""
    vs = form.variables
    powers = []
    for r, row in enumerate(matrix):
        image = sum((m * MultiPoly.var(vs, v) for m, v in zip(row, vs)), MultiPoly.zero(vs))
        top = max((e[r] for e in form.terms), default=0)
        pw = [MultiPoly.const(vs, 1)]
        for _ in range(top):
            pw.append(pw[-1] * image)
        powers.append(pw)
    out: dict = {}
    for exps, c in form.terms.items():
        term = MultiPoly.const(vs, c)
        for pw, k in zip(powers, exps):
            term = term * pw[k]
        for e, tc in term.terms.items():
            out[e] = out.get(e, 0) + tc
    return MultiPoly(vs, out)


def ordered_triples_brute_force(multiplicities: tuple[int, ...]) -> int:
    """Sum of m_i * m_j * m_k over ordered triples of distinct support
    points, enumerated one by one."""
    ms = multiplicities
    return sum(ms[i] * ms[j] * ms[k] for i, j, k in permutations(range(len(ms)), 3))


def rational_roots_by_divisors(ints: list[int]) -> list[Fraction]:
    """Rational roots of a nonzero integer polynomial by the rational root
    test over every divisor pair of the trailing and leading coefficients.
    Factors both coefficients, and returns only the zero root when either
    has more than 4096 divisors."""
    roots: list[Fraction] = []
    val = next(i for i, c in enumerate(ints) if c != 0)
    if val > 0:
        roots.append(Fraction(0))
        ints = ints[val:]
    if len(ints) < 2:
        return roots
    lead, trail = abs(ints[-1]), abs(ints[0])
    num_divs = _divisors(trail)
    den_divs = _divisors(lead)
    if num_divs is None or den_divs is None:
        return roots
    seen = set()
    for a in num_divs:
        for q in den_divs:
            for cand in (Fraction(a, q), Fraction(-a, q)):
                if cand in seen:
                    continue
                seen.add(cand)
                num, den, n = cand.numerator, cand.denominator, len(ints) - 1
                if sum(c * num**i * den ** (n - i) for i, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return roots


def _divisors(n: int, cap: int = 4096) -> list[int] | None:
    divs = [1]
    for prime, exp in factor_integer(n):
        divs = [d * prime**k for d in divs for k in range(exp + 1)]
        if len(divs) > cap:
            return None
    return divs


# ----------------------------------------------------------------------
# The character-loop scanner and the expression parser on MultiPoly
# arithmetic
# ----------------------------------------------------------------------


def tokenize_by_characters(text: str) -> list[tuple[str, str, int]]:
    """``polyparse._tokenize`` as a loop over the characters.  A number is
    a run of characters that ``str.isdigit`` accepts, which ``int`` rejects
    unless every one is a decimal digit."""
    tokens = []
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
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            if c in CURVE_VARS:
                tokens.append(("var", c, i))
                i += 1
                continue
            raise UnknownVariableError(f"unknown variable {c!r}", i)
        if c in "+-*^/()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


Scaled = tuple[MultiPoly, int]  # (P, D) stands for P / D, with D > 0


def _reduced(p: MultiPoly, den: int) -> Scaled:
    """(P/g, D/g) for g the gcd of D and the coefficients of P."""
    if den == 1:
        return p, den
    g = gcd(den, *p.terms.values())
    return MultiPoly(p.variables, {e: c // g for e, c in p.terms.items()}), den // g


class _MultiPolyParser:
    """The grammar of ``orbitflex.polyparse`` on the same ``(kind, text,
    position)`` tokens, with every partial result a ``MultiPoly`` over x, y, z and a denominator."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def expr(self) -> Scaled:
        acc, den = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs, rden = self.term()
            if rden != den:
                common = lcm(den, rden)
                acc, rhs, den = acc * (common // den), rhs * (common // rden), common
            acc = acc + rhs if op == "+" else acc - rhs
        return acc, den

    def term(self) -> Scaled:
        acc, den = self.signed()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
                rhs, rden = self.signed()
            elif kind in ("num", "var", "("):
                rhs, rden = self.factor()
            else:
                return acc, den
            acc, den = acc * rhs, den * rden

    def signed(self) -> Scaled:
        if self.peek()[0] == "-":
            self.advance()
            p, den = self.signed()
            return -p, den
        return self.factor()

    def factor(self) -> Scaled:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        _, digits, pos = self.expect("num")
        exponent = int(digits)
        p, den = _reduced(*base)
        bound = max(sum(map(abs, p.terms.values())), den)
        if bound > 1 and exponent * bound.bit_length() > MAX_CONSTANT_POWER_BITS:
            raise ParseError(f"power exceeds {MAX_CONSTANT_POWER_BITS} coefficient bits", pos)
        return p**exponent, den**exponent

    def atom(self) -> Scaled:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            value = MultiPoly.const(CURVE_VARS, int(text))
            if self.peek()[0] == "/":
                self.advance()
                _, digits, den_pos = self.expect("num")
                den = int(digits)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", den_pos)
                return value, den
            return value, 1
        if kind == "var":
            self.advance()
            return MultiPoly.var(CURVE_VARS, text), 1
        if kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)


def parse_expression_by_multipoly(text: str) -> MultiPoly:
    """``polyparse.parse_expression`` with MultiPoly arithmetic throughout:
    the expression times the lcm of its coefficient denominators."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _MultiPolyParser(_tokenize(text))
    try:
        poly, den = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
    kind, rest, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {rest!r} after expression", pos)
    return _reduced(poly, den)[0]


def random_expression(rng: random.Random, depth: int = 6) -> str:
    """Expression text over x, y, z: integer and rational literals,
    parentheses, powers, juxtaposition, chains of unary minus and sums that
    cancel, nested at most ``depth`` deep so that it stays small."""
    if depth == 0 or rng.random() < 0.1:
        leaf = rng.randrange(6)
        if leaf < 3:
            return CURVE_VARS[leaf]
        return str(rng.choice([0, 1, 2, 3, 12])) + (f"/{rng.randint(0, 12)}" if leaf == 5 else "")

    def sub() -> str:
        return random_expression(rng, depth - 1)

    kind = rng.choice("(^^++***-0")
    if kind == "(":
        return f"({sub()})"
    if kind == "^":
        base = random_expression(rng, 0) if rng.random() < 0.5 else f"({sub()})"
        return f"{base}^{rng.randint(0, 3)}"
    if kind == "+":
        return f"{sub()} {rng.choice('+-')} {sub()}"
    if kind == "*":
        return f"{sub()}{rng.choice(['*', '', ' '])}{sub()}"
    if kind == "-":
        return "-" * rng.randint(1, 4) + sub()
    part = sub()
    return f"{part} - ({part})" if rng.random() < 0.5 else f"({part}) - {part}"


# ----------------------------------------------------------------------
# The pointwise flex-order oracle
# ----------------------------------------------------------------------


class PointNotOnCurveError(ValueError):
    """A point claimed to lie on the curve does not."""


def flex_order_at(curve: PlaneCurve, point: Sequence[int | Fraction]) -> int:
    """Flex order r at a rational point of the curve (0 = not a flex).

    With v a second point of the tangent line, F(s*q + t*v) is the sum of
    s**(d-k) * t**k * (D_v**k F)(q) / k! over k, D_v = sum v_i d/dx_i; so
    r + 2, the order of vanishing of F along the line at q, is the first
    k with (D_v**k F)(q) != 0.
    """
    den = lcm(*(Fraction(c).denominator for c in point))
    q = tuple(int(c * den) for c in point)
    if len(q) != 3 or all(c == 0 for c in q):
        raise ValueError(f"not a projective point: {point}")
    form = curve.form
    if form.evaluate(q) != 0:
        raise PointNotOnCurveError(f"{point} does not lie on the curve")
    a, b, c = (p.evaluate(q) for p in gradient(form))
    # Vectors spanning the tangent line a*x + b*y + c*z = 0; the point
    # itself lies on it by the Euler identity.  They are all zero exactly
    # when the gradient vanishes at q.
    for v in ((b, -a, 0), (c, 0, -a), (0, c, -b)):
        cross = (
            q[1] * v[2] - q[2] * v[1],
            q[2] * v[0] - q[0] * v[2],
            q[0] * v[1] - q[1] * v[0],
        )
        if any(x != 0 for x in cross):
            break
    else:
        raise ValueError(f"curve is singular at {point}")
    derivative, k = form, 0
    while not derivative.is_zero():
        if derivative.evaluate(q) != 0:
            return k - 2
        derivative = sum(vi * derivative.diff(x) for vi, x in zip(v, form.variables))
        k += 1
    raise ValueError("tangent line is contained in the curve")


needs_fork = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"),
    reason="forking a child needs os.fork and os.sched_getaffinity",
)


def serially(monkeypatch, compute):
    """compute() with flexlab's forking threshold out of reach."""
    with monkeypatch.context() as m:
        m.setattr(flexlab, "PARALLEL_MIN_DEGREE", 10**9)
        return compute()


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
