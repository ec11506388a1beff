"""SymPy as an oracle that shares no code with this package.

Every other differential test compares against this repository's own
reference algorithms, so a misconception they share would pass them all.
Here one projection of each curve (the first coordinate change at seed 0
that keeps the centre off the curve and off its Hessian) is checked
against SymPy: the curve-Hessian resultant term by term, its squarefree
decomposition factor by factor, and the certified profile, which SymPy
decides again from its own first subresultant.  Curves built in SymPy
with a node planted by a unimodular change check that each
``SingularCurveError`` witness kills the form and its three partials.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from orbitflex.exactpoly import (  # noqa: E402
    MultiPoly,
    hessian_determinant,
    linear_substitute,
    resultant,
    squarefree_decompose,
)
from orbitflex.flexlab import (  # noqa: E402
    DEGREE_SHORT,
    INITIAL_BOUND,
    NOT_SEPARATING,
    SingularCurveError,
    _int_poly,
    _integer_form,
    _profile_once,
    check_smooth,
    random_unimodular,
)
from orbitflex.polyparse import parse_form  # noqa: E402
from helpers import random_smooth_curve  # noqa: E402

X, Y = sympy.symbols("x y")

# Named curves and their profiles.  All but the Klein quartic have flexes
# of order >= 2, so their resultants have repeated factors and the
# subresultant certificate is checked too.
NAMED = {
    "x^3*y + y^3*z + z^3*x": {1: 24},
    "x^4 + y^4 + z^4": {2: 12},
    "x^5 + y^5 + z^5": {3: 15},
    "x^4*y + y^4*z + z^4*x": {1: 39, 2: 3},
}
RANDOM = [(3, i) for i in range(17)] + [(4, i) for i in range(14)] + [(5, i) for i in range(5)]


def as_sympy(p):
    """A bivariate MultiPoly in (x, y) as a SymPy polynomial in y over Z[x]."""
    return sympy.Poly.from_dict({(b, a): c for (a, b), c in p.terms.items()}, Y, X)


def first_projection(form):
    rng = random.Random(0)
    while True:
        m = random_unimodular(rng, INITIAL_BOUND)
        g = linear_substitute(form, m)
        hess = hessian_determinant(g)
        if g.evaluate((0, 1, 0)) and hess.evaluate((0, 1, 0)):
            return m, g.dehomogenize("z"), hess.dehomogenize("z")


def sympy_profile(d, g, h, factors):
    """The reason that _profile_once must give, or its certified counts,
    decided by SymPy alone from the squarefree factors of the resultant of
    g and h."""
    if sum(k * f.degree() for f, k in factors) != 3 * d * (d - 2):
        return DEGREE_SHORT
    repeated = [f for f, k in factors if k > 1]
    if repeated:
        s1 = sympy.Poly(0, X)
        for p in h.subresultants(g):
            if p.degree(Y) == 1:
                s1 = sympy.Poly(p.as_expr(), Y).LC().as_poly(X)
        if any(sympy.gcd(f, s1).degree() > 0 for f in repeated):
            return NOT_SEPARATING
    return {k: f.degree() for f, k in factors}


def check_projection(form, d):
    form = _integer_form(form)
    m, gz, hz = first_projection(form)
    g, h = as_sympy(gz), as_sympy(hz)
    ours = resultant(gz, hz, "y")
    # SymPy 1.14's resultant(f, g) drops the sign (-1)^(deg f * deg g) when
    # deg f < deg g: resultant(y**3, y**5 + y + 1, y) gives -1 where the
    # Sylvester determinant is 1.  With the larger degree first it is right.
    sign = (-1) ** (gz.degree_in("y") * hz.degree_in("y"))
    ref = sign * h.resultant(g)
    assert ours.terms == {e: int(c) for e, c in ref.as_dict().items()}
    _, factors = ref.sqf_list()
    theirs = sorted((k, [int(c) for c in reversed(f.all_coeffs())]) for f, k in factors)
    assert squarefree_decompose(_int_poly(ours)) == theirs
    reason, counts = _profile_once(form, d, m)
    profile = reason or counts
    assert profile == sympy_profile(d, g, h, factors)
    return profile


def test_sympy_resultant_sign_convention():
    # By hand, Res(y^3, g) = g(0)^3 = 1 and Res(g, y^3) = (-1)^15 for
    # g = y^5 + y + 1: SymPy with the larger degree first, and this package.
    assert sympy.resultant(Y**5 + Y + 1, Y**3, Y) == -1
    y = MultiPoly.var(("x", "y"), "y")
    assert resultant(y**3, y**5 + y + 1, "y").terms == {(0,): 1}


@pytest.mark.parametrize("d, index", RANDOM)
def test_random_curve_projection(d, index):
    curve = random_smooth_curve(random.Random(1000 * d + index), d)
    assert check_projection(curve.form, d) == {1: 3 * d * (d - 2)}


@pytest.mark.parametrize("source", NAMED)
def test_named_curve_projection(source):
    form, d = parse_form(source)
    assert check_projection(form, d) == NAMED[source]


# ----------------------------------------------------------------------
# Witnesses of singular curves
# ----------------------------------------------------------------------

XS, YS, ZS = sympy.symbols("x y z")


def planted_node_curve(seed):
    """A curve with a node at M^-1 (0:0:1), built in SymPy: a form with a
    node at (0:0:1) (a nondegenerate quadratic part in x, y times z^(d-2)
    and random terms of degree >= 3 in x, y), composed with a random
    unimodular M = L*U.  Returns the SymPy form and the planted point."""
    rng = random.Random(seed)
    d = rng.randint(3, 6)

    def nz():
        return rng.choice([-3, -2, -1, 1, 2, 3])

    a, c = nz(), nz()
    form = (a * XS**2 + rng.randint(-3, 3) * XS * YS + c * YS**2) * ZS ** (d - 2)
    for k in range(3, d + 1):
        for i in range(k + 1):
            form += rng.randint(-3, 3) * XS**i * YS ** (k - i) * ZS ** (d - k)
    lower = sympy.Matrix([[1, 0, 0], [nz(), 1, 0], [nz(), nz(), 1]])
    upper = sympy.Matrix([[1, nz(), nz()], [0, 1, nz()], [0, 0, 1]])
    m = lower * upper
    image = m * sympy.Matrix([XS, YS, ZS])
    moved = sympy.expand(form.subs(dict(zip((XS, YS, ZS), image)), simultaneous=True))
    point = tuple(m.inv() * sympy.Matrix([0, 0, 1]))
    return moved, point


@pytest.mark.parametrize("seed", range(10))
def test_singular_curve_witness_is_singular(seed):
    expr, planted = planted_node_curve(seed)
    poly = sympy.Poly(expr, XS, YS, ZS)
    assert all(e.subs(dict(zip((XS, YS, ZS), planted))) == 0
               for e in (expr, *(sympy.diff(expr, v) for v in (XS, YS, ZS))))
    form = MultiPoly(("x", "y", "z"), {e: int(c) for e, c in poly.as_dict().items()})
    with pytest.raises(SingularCurveError) as err:
        check_smooth(form)
    witness = err.value.witness
    assert witness is not None and all(type(c) is int for c in witness)
    assert any(witness)
    at = dict(zip((XS, YS, ZS), witness))
    assert expr.subs(at) == 0
    assert all(sympy.diff(expr, v).subs(at) == 0 for v in (XS, YS, ZS))
