"""Resultants of bivariate integer polynomials by evaluation and interpolation.

``resultant(f, g, var)`` eliminates ``var`` from two polynomials over the
same two variables and returns a polynomial in the other one, x say.  The
value is the determinant of the Sylvester matrix with the rows carrying
f's coefficients first, but the matrix is never built.  Both arguments
have integer coefficients and a nonzero constant top coefficient in
``var``, of degrees m, n >= 1, so neither degree drops at a point:

* with D, E the total degrees of f and g, the result has degree at most
  k - 1 = n*D + m*E - m*n in x (3d(d-2) for a curve and its Hessian);
* at each of the balanced points x = -floor(k/2), ..., k-1-floor(k/2),
  whose values are smaller than at 0, ..., k-1, the resultant of the two
  integer polynomials in ``var`` comes from the subresultant polynomial
  remainder sequence over Z (Collins 1967; Brown & Traub 1971; Brown
  1978); the same sequence gives the first principal subresultant
  coefficient sres_1 on request;
* the k values are reassembled by Newton interpolation on integer forward
  differences scaled by (k-1)!, which is divided back out exactly at the
  end (Collins 1971).

All arithmetic is on Python integers, and identical inputs give identical
term maps.
"""

from __future__ import annotations

from functools import partial
from math import factorial
from typing import Callable, Sequence

from .multipoly import MultiPoly
from .unipoly import IntPoly, ZeroPolynomialError, _deg, _pseudo_rem, _trim


def resultant(
    f: MultiPoly,
    g: MultiPoly,
    var: str,
    *,
    first_subresultant: list[Callable[[], MultiPoly]] | None = None,
) -> MultiPoly:
    """Resultant in ``var`` of bivariate integer polynomials f and g.

    Returns an integer polynomial over the remaining variable.  Each
    argument needs positive degree in ``var`` and a nonzero constant top
    coefficient in ``var``; else it raises ValueError.

    When ``first_subresultant`` is a list, a function of no arguments is
    appended to it that returns the first principal subresultant
    coefficient sres_1: the determinant of the Sylvester submatrix with
    the first n-1 rows of f, the first m-1 rows of g and the first m+n-2
    columns, for the degrees m, n in ``var``.  Its values are read off the
    same remainder sequences as the resultant's, and are interpolated only
    when the function is called.  A point x0 with sres_1(x0) != 0 has
    gcd(f(x0, .), g(x0, .)) of degree at most 1.
    """
    if f.variables != g.variables:
        raise ValueError(f"operands over {f.variables} and {g.variables}")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("resultant of the zero polynomial is undefined")
    if len(f.variables) != 2:
        raise ValueError(f"resultant needs two variables, got {f.variables}")
    fi, gi = _dense_in(f, var), _dense_in(g, var)
    m, n = len(fi) - 1, len(gi) - 1
    k = n * f.total_degree() + m * g.total_degree() - m * n + 1
    lo = -(k // 2)
    values, sres1 = zip(*[
        prs_subresultants([_horner(c, t) for c in fi], [_horner(c, t) for c in gi])
        for t in range(lo, lo + k)
    ])
    rest = tuple(v for v in f.variables if v != var)
    if first_subresultant is not None:
        # sres_1 has degree at most (n-1)D + (m-1)E - mn + 1 < k in x.
        first_subresultant.append(partial(_from_values, sres1, rest))
    return _from_values(values, rest)


def _dense_in(p: MultiPoly, var: str) -> list[IntPoly]:
    """Coefficients of p in ``var``, lowest power first, each a dense
    integer list in the other variable; checks the input contract."""
    i = p._var_index(var)
    rows: list[IntPoly] = [[] for _ in range(p.degree_in(var) + 1)]
    for e, c in p.terms.items():
        row, j = rows[e[i]], e[1 - i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    if len(rows) == 1:
        raise ValueError(f"resultant needs positive degree in {var!r}")
    if len(rows[-1]) != 1:
        raise ValueError(f"the top coefficient in {var!r} must be a constant")
    return rows


def _from_values(values: Sequence[int], variables: tuple[str, ...]) -> MultiPoly:
    """The polynomial through the balanced points of ``_interpolate``."""
    return MultiPoly(variables, {(i,): c for i, c in enumerate(_interpolate(values)) if c})


def _horner(coeffs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def prs_subresultants(a: IntPoly, b: IntPoly) -> tuple[int, int]:
    """(Res(a, b), sres_1(a, b)) of integer polynomials of positive degree,
    by the subresultant PRS.

    The signed variant of Brown (1978) divides each pseudo-remainder by
    -lc(R_{i-1}) * c**delta, which makes R_i the subresultant S_{n_{i-1}-1}
    of the Sylvester convention above and -c_i the principal subresultant
    coefficient sres_{n_i}, where n_i = deg R_i.  So Res = -c at the step
    that reaches degree 0, and sres_1 = -c at the step that reaches degree
    1, or 0 when the chain skips it.
    """
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
    (lo + i, values[i]) for i = 0 .. k-1, with lo = -floor(k/2).

    Newton's forward-difference form sum_j D^j / j! * (t-lo)...(t-lo-j+1) is
    accumulated by Horner's rule with every coefficient D^j multiplied by
    (k-1)!/j!, so the sum stays integral; (k-1)! divides the result exactly.
    """
    k = len(values)
    lo = -(k // 2)
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


def _divexact_scalar(p: IntPoly, s: int) -> IntPoly:
    """Divide every coefficient by the integer s; raises if not exact."""
    out = []
    for c in p:
        q, r = divmod(c, s)
        if r:
            raise ValueError("integer polynomial division is not exact")
        out.append(q)
    return out
