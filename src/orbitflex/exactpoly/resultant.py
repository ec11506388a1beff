"""Resultants of bivariate polynomials by evaluation and interpolation.

``resultant(f, g, var)`` eliminates ``var`` from two polynomials over the
same two variables and returns a polynomial in the other one, x say.  The
value is the determinant of the Sylvester matrix with the rows carrying
f's coefficients first, but the matrix is never built:

* denominators are cleared per argument, using
  Res(a*f, b*g) = a**n * b**m * Res(f, g) for degrees m, n in ``var``;
* with D, E the total degrees of f and g, the result has degree at most
  k - 1 = n*D + m*E - m*n in x (3d(d-2) for a curve and its Hessian);
* at each of the points x = 0, 1, ..., k-1 the resultant of the two
  integer polynomials in ``var`` comes from the subresultant polynomial
  remainder sequence over Z (Collins 1967; Brown & Traub 1971; Cohen,
  GTM 138, Algorithm 3.3.7), taken at the formal degrees m, n even where
  a leading coefficient vanishes;
* the k values are reassembled by Newton interpolation on integer forward
  differences scaled by (k-1)!, which is divided back out exactly at the
  end (Collins 1971).

All arithmetic is on Python integers, and identical inputs give identical
term maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .multipoly import MultiPoly, common_denominator
from .unipoly import IntPoly, ZeroPolynomialError, _deg, _pseudo_rem, _trim


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of bivariate f and g with respect to ``var``.

    Returns a polynomial over the remaining variable.  When one argument
    is constant in ``var`` the usual convention applies:
    Res(f, g) = f**deg(g) if deg(f) = 0, and 1 if both degrees are 0.
    """
    if f.variables != g.variables:
        raise ValueError(f"operands over {f.variables} and {g.variables}")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("resultant of the zero polynomial is undefined")
    if len(f.variables) != 2:
        raise ValueError(f"resultant needs two variables, got {f.variables}")
    fc = f.coefficients_in(var)
    gc = g.coefficients_in(var)
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    fi, a = _integer_coefficients(fc)
    gi, b = _integer_coefficients(gc)
    k = n * f.total_degree() + m * g.total_degree() - m * n + 1
    values = [
        _resultant_at_formal_degrees(
            [_horner(c, t) for c in fi], [_horner(c, t) for c in gi], m, n
        )
        for t in range(k)
    ]
    coeffs = _interpolate(values)
    scale = a**n * b**m
    if scale != 1:
        coeffs = [Fraction(c, scale) for c in coeffs]
    return MultiPoly(fc[0].variables, {(i,): c for i, c in enumerate(coeffs) if c})


def _integer_coefficients(cs: Sequence[MultiPoly]) -> tuple[list[IntPoly], int]:
    """Dense integer coefficient lists of ``den * c`` for each c, and ``den``."""
    den = common_denominator(q for c in cs for q in c.terms.values())
    out: list[IntPoly] = []
    for c in cs:
        dense = [0] * ((c.total_degree() or 0) + 1)
        for (e,), q in c.terms.items():
            dense[e] = q.numerator * (den // q.denominator)
        out.append(dense)
    return out, den


def _horner(coeffs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _resultant_at_formal_degrees(f: IntPoly, g: IntPoly, m: int, n: int) -> int:
    """Res_{m,n}(f, g) of integer polynomials with deg f <= m, deg g <= n.

    Expanding the Sylvester determinant along its first column removes a
    vanished leading coefficient one degree at a time.
    """
    f, g = _trim(f), _trim(g)
    mf, ng = _deg(f), _deg(g)
    if mf < m and ng < n:
        return 0
    if ng < n:
        return f[-1] ** (n - ng) * _prs_resultant(f, g)
    if mf < m:
        sign = -1 if n * (m - mf) % 2 else 1
        return sign * g[-1] ** (m - mf) * _prs_resultant(f, g)
    return _prs_resultant(f, g)


def _prs_resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b) at the actual degrees, by the subresultant PRS."""
    if not a or not b:
        return 0
    da, db = _deg(a), _deg(b)
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 and db % 2:
            sign = -1
    if db == 0:
        return sign * b[0] ** da
    g = h = 1
    while db > 0:
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _pseudo_rem(a, b)
        if not r:
            return 0
        a, b = b, _divexact_scalar(r, g * h**delta)
        da, db = db, _deg(b)
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    return sign * (b[0] ** da // h ** (da - 1))


def _interpolate(values: Sequence[int]) -> IntPoly:
    """Integer coefficients, lowest first, of the polynomial through
    (t, values[t]) for t = 0 .. k-1.

    Newton's forward-difference form sum_j D^j / j! * t(t-1)...(t-j+1) is
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
            shifted[i] -= j * c
        shifted[0] += diffs[j] * weight
        coeffs = shifted
        weight *= j
    return _divexact_scalar(_trim(coeffs), factorial(k - 1))


def _divexact_scalar(p: IntPoly, s: int) -> IntPoly:
    """Divide every coefficient by the integer s; raises if not exact."""
    out = []
    for c in p:
        q, r = divmod(c, s)
        if r:
            raise ValueError("integer polynomial division is not exact")
        out.append(q)
    return out
