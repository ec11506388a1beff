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
  remainder sequence over Z (Collins 1967; Brown & Traub 1971; Brown
  1978), taken at the formal degrees m, n even where a leading
  coefficient vanishes; the same sequence gives the first principal
  subresultant coefficient sres_1 on request;
* the k values are reassembled by Newton interpolation on integer forward
  differences scaled by (k-1)!, which is divided back out exactly at the
  end (Collins 1971).

All arithmetic is on Python integers, and identical inputs give identical
term maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, Sequence

from .multipoly import MultiPoly, common_denominator
from .unipoly import IntPoly, ZeroPolynomialError, _deg, _pseudo_rem, _trim


def resultant(
    f: MultiPoly,
    g: MultiPoly,
    var: str,
    *,
    first_subresultant: list[Callable[[], MultiPoly]] | None = None,
) -> MultiPoly:
    """Resultant of bivariate f and g with respect to ``var``.

    Returns a polynomial over the remaining variable.  When one argument
    is constant in ``var`` the usual convention applies:
    Res(f, g) = f**deg(g) if deg(f) = 0, and 1 if both degrees are 0.

    When ``first_subresultant`` is a list, a function of no arguments is
    appended to it that returns the first principal subresultant
    coefficient sres_1: the determinant of the Sylvester submatrix with
    the first n-1 rows of f, the first m-1 rows of g and the first m+n-2
    columns, for degrees m, n >= 1 in ``var``.  Its values are read off
    the same remainder sequences as the resultant's, and are interpolated
    only when the function is called.  Where both leading coefficients
    survive, a point x0 with sres_1(x0) != 0 has gcd(f(x0, .), g(x0, .))
    of degree at most 1.
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
    if first_subresultant is not None and min(m, n) < 1:
        raise ValueError("sres_1 needs both degrees in the variable to be at least 1")
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    fi, a = _integer_coefficients(fc)
    gi, b = _integer_coefficients(gc)
    k = n * f.total_degree() + m * g.total_degree() - m * n + 1
    values, sres1 = zip(
        *(
            _subresultants_at_formal_degrees(
                [_horner(c, t) for c in fi], [_horner(c, t) for c in gi], m, n
            )
            for t in range(k)
        )
    )
    rest = fc[0].variables
    if first_subresultant is not None:
        # sres_1 has degree at most (n-1)D + (m-1)E - mn + 1 < k in x, and
        # sres_1(a*f, b*g) = a**(n-1) * b**(m-1) * sres_1(f, g).
        scale = a ** (n - 1) * b ** (m - 1)
        first_subresultant.append(partial(_from_values, sres1, scale, rest))
    return _from_values(values, a**n * b**m, rest)


def _from_values(values: Sequence[int], scale: int, variables: tuple[str, ...]) -> MultiPoly:
    """The polynomial through (t, values[t] / scale), t = 0 .. k-1."""
    coeffs = _interpolate(values)
    if scale != 1:
        coeffs = [Fraction(c, scale) for c in coeffs]
    return MultiPoly(variables, {(i,): c for i, c in enumerate(coeffs) if c})


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


def _subresultants_at_formal_degrees(
    f: IntPoly, g: IntPoly, m: int, n: int
) -> tuple[int, int]:
    """(Res, sres_1) at the formal degrees m, n >= 1 of integer polynomials
    with deg f <= m, deg g <= n.

    Expanding the Sylvester matrix, or the sres_1 submatrix, along its
    first column removes a vanished leading coefficient one degree at a
    time.  For sres_1 this stops at formal degree 1: at degrees (m, 1) the
    submatrix holds only rows of g, at (1, n) only rows of f, and it is
    empty (determinant 1) when the other degree is 1 too, or else has a
    zero first column, since that formal leading coefficient is zero.
    """
    f, g = _trim(f), _trim(g)
    mf, ng = _deg(f), _deg(g)
    if mf < m and ng < n:
        return 0, int(m + n == 2)
    res, sres1 = _prs_subresultants(f, g)
    if ng < n:
        lead = f[-1]
        res *= lead ** (n - ng)
        if ng < 1:
            sres1, ng = int(m == 1), 1
        return res, lead ** (n - ng) * sres1
    if mf < m:
        lead = g[-1]
        res *= (-lead if n % 2 else lead) ** (m - mf)
        if mf < 1:
            sres1, mf = int(n == 1), 1
        return res, (lead if n % 2 else -lead) ** (m - mf) * sres1
    return res, sres1


def _prs_subresultants(a: IntPoly, b: IntPoly) -> tuple[int, int]:
    """(Res(a, b), sres_1(a, b)) at the actual degrees, by the subresultant PRS.

    The signed variant of Brown (1978) divides each pseudo-remainder by
    -lc(R_{i-1}) * c**delta, which makes R_i the subresultant S_{n_{i-1}-1}
    of the Sylvester convention above and -c_i the principal subresultant
    coefficient sres_{n_i}, where n_i = deg R_i.  So Res = -c at the step
    that reaches degree 0, and sres_1 = -c at the step that reaches degree
    1, or 0 when the chain skips it.  The sres_1 value is only meaningful
    when both degrees are at least 1.
    """
    if not a or not b:
        return 0, 0
    da, db = _deg(a), _deg(b)
    res_sign = sres1_sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        res_sign = -1 if da * db % 2 else 1
        sres1_sign = -1 if (da - 1) * (db - 1) % 2 else 1
    lead_prev, c = 1, -1  # lc(R_{i-1}) and c_{i-1}, chosen to fit the first step
    sres1 = 0
    while True:
        delta = da - db
        c_prev = c
        if delta:
            c = (-b[-1]) ** delta // c ** (delta - 1)
        if db == 0:
            return res_sign * -c, sres1_sign * sres1
        if db == 1:
            sres1 = -c
        r = _pseudo_rem(a, b)
        if not r:
            return 0, sres1_sign * sres1
        a, b, lead_prev = b, _divexact_scalar(r, -lead_prev * c_prev**delta), b[-1]
        da, db = db, _deg(b)


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
