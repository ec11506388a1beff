import random
from fractions import Fraction

import pytest

from orbitflex.exactpoly import (
    MultiPoly,
    NonHomogeneousError,
    SingularMatrixError,
    VariableMismatchError,
    det3,
    hessian_determinant,
    linear_substitute,
)
from orbitflex.flexlab import random_unimodular
from orbitflex.polyparse import parse_expression
from helpers import (
    CURVE_VARS,
    hessian_cofactor,
    random_homogeneous,
    random_multipoly,
    substitute_expanded,
)

V = CURVE_VARS
X = MultiPoly.var(V, "x")
Y = MultiPoly.var(V, "y")
Z = MultiPoly.var(V, "z")
RATIONAL_FORMS = [
    {(4, 0, 0): Fraction(1, 2), (1, 3, 0): Fraction(-1, 3), (0, 1, 3): Fraction(5, 7),
     (2, 1, 1): 3},
    {(3, 0, 0): 1, (0, 2, 1): Fraction(2, 9), (1, 1, 1): Fraction(-4, 15)},
    {(0, 0, 5): Fraction(-1, 6)},
]


def test_binomial_expansion():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2


def test_multiplication_by_zero_annihilates():
    p = X**3 + 2 * Y * Z
    assert (p * MultiPoly.zero(V)).is_zero()


def test_additive_inverse():
    p = X**3 + Y**3 + Z**3
    assert (p + (-p)).is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(40):
        a = random_multipoly(rng)
        b = random_multipoly(rng)
        c = random_multipoly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_variable_mismatch_rejected():
    p = MultiPoly.var(("x", "y"), "x")
    with pytest.raises(VariableMismatchError):
        p + X


def test_zero_degree_sentinel():
    assert MultiPoly.zero(V).total_degree() is None
    assert MultiPoly.const(V, 5).total_degree() == 0


def test_differentiate_examples():
    F = X**3 + Y**3 + Z**3
    assert F.diff("x") == 3 * X**2
    G = X**3 * Y + Y**3 * Z + Z**3 * X
    assert G.diff("y") == X**3 + 3 * Y**2 * Z


def test_euler_identity_random_homogeneous():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(1, 5)
        F = random_homogeneous(rng, d)
        lhs = X * F.diff("x") + Y * F.diff("y") + Z * F.diff("z")
        assert lhs == d * F


def test_hessian_fermat_cubic():
    # diag(6x, 6y, 6z) has determinant 216xyz
    assert hessian_determinant(X**3 + Y**3 + Z**3) == 216 * X * Y * Z


def test_hessian_triple_line_vanishes():
    assert hessian_determinant(X**3).is_zero()


def test_hessian_degree_of_smooth_quartic():
    h = hessian_determinant(X**4 + Y**4 + Z**4)
    assert h.homogeneous_degree() == 6


def test_hessian_rejects_non_homogeneous():
    with pytest.raises(NonHomogeneousError):
        hessian_determinant(X**2 + Y**3)


def test_hessian_rejects_rational_coefficients():
    # A rational form cannot be built, so it never reaches the Hessian.
    for terms in RATIONAL_FORMS:
        with pytest.raises(TypeError, match="integer coefficient"):
            hessian_determinant(MultiPoly(V, terms))


def test_linear_substitute_identity():
    p = X**3 * Y + Z**4
    assert linear_substitute(p, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == p


def test_linear_substitute_swap_symmetry():
    p = X**4 + Y**4 + Z**4
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert linear_substitute(p, swap) == p


def test_linear_substitute_composition_with_adjugate():
    # M * adj(M) = det(M) * I, so substituting both scales a homogeneous
    # form by det^degree.
    rng = random.Random(3)
    m = [[2, 1, 0], [1, 1, 1], [0, 3, 1]]
    det = 2 * (1 - 3) - 1 * (1 - 0) + 0
    assert det == -5
    adj = [
        [-2, -1, 1],
        [-1, 2, -2],
        [3, -6, 1],
    ]
    for _ in range(5):
        d = rng.randint(1, 3)
        p = random_homogeneous(rng, d)
        composed = linear_substitute(linear_substitute(p, m), adj)
        assert composed == det**d * p


def test_linear_substitute_rejects_singular():
    with pytest.raises(SingularMatrixError):
        linear_substitute(X, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_linear_substitute_matches_expansion_oracle():
    rng = random.Random(67)
    bounds = [3 * 2**k for k in range(6)]  # the retry bounds 3 .. 96
    cases = []
    for d in range(1, 13):
        for coeff in (1, 9, 10**30):
            form = random_homogeneous(rng, d, coeff_range=coeff)
            for sign in (1, -1):
                cases.append((sign * form, random_unimodular(rng, bounds[len(cases) % 6])))
    cases.append((MultiPoly.zero(V), [[2, 1, 0], [1, 1, 1], [0, 3, 1]]))
    # A single monomial whose image coefficient c*m**d is the packing bound
    # itself, of either sign.
    for d, m, c in ((1, 2, 1), (5, 3, 7), (12, 96, 10**30)):
        for sign in (1, -1):
            cases.append((sign * c * X**d, [[m, 0, 0], [0, 1, 0], [0, 0, 1]]))
    for form, m in cases:
        assert linear_substitute(form, m).terms == substitute_expanded(form, m).terms, (form, m)


def test_linear_substitute_rejects_non_homogeneous():
    with pytest.raises(NonHomogeneousError):
        linear_substitute(X**2 + Y, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_linear_substitute_rejects_rational_coefficients():
    rng = random.Random(71)
    for terms in RATIONAL_FORMS:
        with pytest.raises(TypeError, match="integer coefficient"):
            linear_substitute(MultiPoly(V, terms), random_unimodular(rng, 3))
    with pytest.raises(TypeError):
        Fraction(1, 2) * X


def test_rational_coefficients_stay_exact():
    # The parser clears denominators: 1/3 x + 1/6 x = 1/2 x, times 2.
    assert parse_expression("1/3x + 1/6x") == X
    assert parse_expression("1/3x + 1/6y") == 2 * X + Y
    # (1/2 x + 1/3 y)^2 - 1/4 x^2 = 1/3 xy + 1/9 y^2, times 9
    assert parse_expression("(1/2x + 1/3y)^2 - 1/4x^2") == 3 * X * Y + Y**2


def test_canonical_string_ordering():
    p = Z**3 + X * Y * Z - 2 * X**2 * Y + 1
    assert str(p) == "-2*x^2*y + x*y*z + z^3 + 1"


def test_hessian_transforms_covariantly():
    # Hess(F o M) = det(M)^2 * Hess(F) o M
    rng = random.Random(101)
    m = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    det = det3(m)
    assert det == 3
    for _ in range(5):
        F = random_homogeneous(rng, rng.randint(2, 4))
        lhs = hessian_determinant(linear_substitute(F, m))
        rhs = det**2 * linear_substitute(hessian_determinant(F), m)
        assert lhs == rhs


def test_hessian_matches_cofactor_oracle():
    rng = random.Random(61)
    forms = []
    for d in range(2, 11):
        for bound in (1, 9, 10**30):
            form = random_homogeneous(rng, d, coeff_range=bound)
            if not form.is_zero():
                forms.append(form)
    forms += [
        # Hessian matrices +-[[2, 2, 2], [2, -2, 2], [2, 2, -2]], determinant
        # +-4 * M**3 = +-32 with M = 2: a packing two bits narrower overflows
        X**2 - Y**2 - Z**2 + 2 * X * Y + 2 * X * Z + 2 * Y * Z,
        -(X**2) + Y**2 + Z**2 - 2 * X * Y - 2 * X * Z - 2 * Y * Z,
        # zero Hessians: a triple line and a cone
        X**3,
        (X + Y) ** 4,
        # a dense Fermat form of degree 12
        linear_substitute(X**12 + Y**12 + Z**12, [[1, 2, -1], [0, 1, 3], [1, 0, 1]]),
    ]
    for form in forms:
        want = hessian_cofactor(form)
        assert hessian_determinant(form).terms == want.terms, form


def test_integral_coefficients_stay_int():
    from orbitflex.exactpoly import gradient, resultant
    from orbitflex.flexlab import check_smooth, flex_profile

    def all_int(p):
        return all(type(c) is int for c in p.terms.values())

    with pytest.raises(TypeError):
        MultiPoly.const(V, Fraction(6, 3))
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): Fraction(1, 2)})
    assert type(MultiPoly.monomial(V, (1, 0, 0), True).coefficient((1, 0, 0))) is int
    assert all_int(True * X + Y)
    with pytest.raises(TypeError):
        MultiPoly.const(V, 1.0)
    with pytest.raises(TypeError):
        MultiPoly(V, {(1, 0, 0): 0.5})
    with pytest.raises(TypeError):
        X.evaluate((Fraction(1, 2), 1, 1))

    # The centre (2:1:1) of the projection from (0:1:0) is on neither the
    # curve nor its Hessian, as the resultant requires.
    F = X**4 + X * Y**3 + Y * Z**3
    G = linear_substitute(F, [[1, 2, 0], [0, 1, 1], [1, 1, 1]])
    H = hessian_determinant(G)
    assert G.evaluate((0, 1, 0)) and H.evaluate((0, 1, 0))
    R = resultant(G.dehomogenize("z"), H.dehomogenize("z"), "y")
    for p in [G, H, R, *gradient(G)]:
        assert not p.is_zero() and all_int(p)

    # The parser returns the rational form times 42, the lcm of its
    # denominators; scaling by a constant changes no profile.
    cleared = parse_expression("1/2x^4 + 1/3x*y^3 + 5/7y*z^3")
    assert cleared == 21 * X**4 + 14 * X * Y**3 + 30 * Y * Z**3
    assert flex_profile(check_smooth(cleared)) == flex_profile(check_smooth(6 * cleared))
