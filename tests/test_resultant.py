import random
from collections import Counter
from fractions import Fraction
from importlib import import_module

import pytest

from orbitflex.exactpoly import (
    MultiPoly,
    ZeroPolynomialError,
    hessian_determinant,
    linear_substitute,
    resultant,
)
from orbitflex.exactpoly.resultant import _interpolate, prs_subresultants
from orbitflex.exactpoly.unipoly import _pseudo_rem
from orbitflex.flexlab import random_unimodular

from helpers import (
    interpolate_scaled,
    newton_interpolate,
    poly_mul,
    pseudo_rem_by_passes,
    random_homogeneous,
    resultant_at_naturals,
    sylvester_first_subresultant,
    sylvester_matrix,
    sylvester_resultant,
)

# Univariate cases carry an unused second variable: resultant() takes
# bivariate input only.
T = ("s", "t")
t = MultiPoly.var(T, "t")


def rand_poly_in_t(rng: random.Random, deg: int) -> MultiPoly:
    terms = {(0, i): rng.randint(-4, 4) for i in range(deg)}
    terms[(0, deg)] = rng.choice([1, 2, 3, -2])
    return MultiPoly(T, terms)


def test_linear_pair_by_hand():
    # Sylvester matrix [[1, -1], [1, -2]] has determinant -1.
    assert resultant(t - 1, t - 2, "t").coefficient((0,)) == -1


def test_quadratic_pair_product_formula():
    # lc(f)^deg(g) * prod g(roots of f) with roots +-i: (i^2-1)((-i)^2-1) = 4
    assert resultant(t**2 + 1, t**2 - 1, "t").coefficient((0,)) == 4


def test_sylvester_layout_convention():
    # f = a t^2 + b t + c, g = d t + e gives det [[a,b,c],[d,e,0],[0,d,e]]
    #                                        = a e^2 - b d e + c d^2.
    a, b, c, d, e = 2, 3, 5, 7, 11
    f = a * t**2 + b * t + c
    g = d * t + e
    m = sylvester_matrix(f, g, "t")
    flat = [[entry.coefficient((0,)) for entry in row] for row in m]
    assert flat == [[a, b, c], [d, e, 0], [0, d, e]]
    expected = a * e**2 - b * d * e + c * d**2
    assert sylvester_resultant(f, g, "t").coefficient((0,)) == expected
    assert resultant(f, g, "t").coefficient((0,)) == expected


def test_multiplicative_in_second_argument():
    rng = random.Random(23)
    for _ in range(30):
        f = rand_poly_in_t(rng, rng.randint(1, 3))
        g = rand_poly_in_t(rng, rng.randint(1, 3))
        h = rand_poly_in_t(rng, rng.randint(1, 3))
        assert resultant(f, g * h, "t") == resultant(f, g, "t") * resultant(f, h, "t")


def test_swap_sign_rule():
    rng = random.Random(29)
    for _ in range(30):
        f = rand_poly_in_t(rng, rng.randint(1, 4))
        g = rand_poly_in_t(rng, rng.randint(1, 4))
        sign = (-1) ** (f.degree_in("t") * g.degree_in("t"))
        assert resultant(f, g, "t") == sign * resultant(g, f, "t")


def test_common_root_forces_zero():
    rng = random.Random(31)
    for _ in range(10):
        shared = t - rng.randint(-5, 5)
        f = shared * rand_poly_in_t(rng, 2)
        g = shared * rand_poly_in_t(rng, 1)
        assert resultant(f, g, "t").is_zero()


def test_zero_input_rejected():
    with pytest.raises(ZeroPolynomialError):
        resultant(MultiPoly.zero(T), t, "t")
    with pytest.raises(ZeroPolynomialError):
        resultant(t, MultiPoly.zero(T), "t")


def test_degree_zero_rejected():
    c = MultiPoly.const(T, 3)
    g = t**2 + 1
    for pair in ((c, g), (g, c), (c, c)):
        with pytest.raises(ValueError, match="positive degree"):
            resultant(*pair, "t")


def test_rational_coefficient_rejected():
    # A rational argument cannot be built, so it never reaches the resultant.
    with pytest.raises(TypeError, match="integer coefficient"):
        resultant(MultiPoly(T, {(0, 2): 1, (0, 0): Fraction(1, 2)}), t - 1, "t")
    with pytest.raises(TypeError, match="integer coefficient"):
        resultant(t - 1, MultiPoly(T, {(0, 2): Fraction(2, 3), (0, 0): 1}), "t")


def test_non_constant_leading_coefficient_rejected():
    s = MultiPoly.var(T, "s")
    for f, g in ((s * t**2 + 1, t - 1), (t - 1, (s + 1) * t + s)):
        with pytest.raises(ValueError, match="top coefficient"):
            resultant(f, g, "t")


W = ("u", "v")
u = MultiPoly.var(W, "u")
v = MultiPoly.var(W, "v")


def rand_bivariate(rng: random.Random) -> MultiPoly:
    """Random integer polynomial of degree <= 3 in u and 1..4 in v whose
    top v-coefficient is a nonzero constant."""
    top = rng.randint(1, 4)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[(rng.randint(0, 3), rng.randint(0, top - 1))] = rng.randint(-5, 5)
    return MultiPoly(W, terms) + rng.choice([1, -1, 2, -3]) * v**top


def rand_pairs(rng: random.Random) -> list[tuple[MultiPoly, MultiPoly]]:
    """320 pairs from ``rand_bivariate``; in every tenth, g is multiplied
    by f, a common factor of positive degree in v."""
    pairs = []
    for i in range(320):
        f, g = rand_bivariate(rng), rand_bivariate(rng)
        pairs.append((f, g * f if i % 10 == 2 else g))
    return pairs


def test_bareiss_and_interpolation_agree():
    """resultant() equals the Sylvester + integer Bareiss oracle term for term."""
    pairs = rand_pairs(random.Random(37))
    zeros = 0
    for f, g in pairs:
        want = sylvester_resultant(f, g, "v")
        got = resultant(f, g, "v")
        assert got.variables == want.variables == ("u",)
        assert got.terms == want.terms
        assert all(type(c) is int for c in got.terms.values())
        zeros += got.is_zero()
    assert zeros >= 32


def first_subresultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    out = []
    resultant(f, g, var, first_subresultant=out)
    return out[0]()


def test_first_subresultant_by_hand():
    # m = n = 2: the submatrix is [[a, b], [d, e]]; swapping f and g
    # changes its sign by (-1)**((m-1)(n-1)).
    a, b, c, d, e, h = 2, 3, 5, 7, 11, 13
    f = a * t**2 + b * t + c
    g = d * t**2 + e * t + h
    assert first_subresultant(f, g, "t").coefficient((0,)) == a * e - b * d
    assert first_subresultant(g, f, "t").coefficient((0,)) == b * d - a * e
    # a cubic and its derivative: det [[1, 0, p], [3, 0, p], [0, 3, 0]] = 6p
    W2 = ("p", "t")
    p, s = MultiPoly.var(W2, "p"), MultiPoly.var(W2, "t")
    six_p = 6 * MultiPoly.var(("p",), "p")
    assert first_subresultant(s**3 + p * s + 1, 3 * s**2 + p, "t") == six_p
    # both of degree 1: the empty determinant
    assert first_subresultant(t - 1, 2 * t + 3, "t").coefficient((0,)) == 1


def test_first_subresultant_matches_sylvester_oracle():
    """sres_1 read off the remainder sequences equals the Sylvester-submatrix
    determinant term for term, also where the sequence skips degree 1."""
    rng = random.Random(41)
    pairs = rand_pairs(rng)
    for _ in range(40):
        # even in v: the remainder sequence goes 4, 2, 0 and skips degree 1
        c0, c1 = rng.randint(-3, 3) * u + rng.randint(-3, 3), rng.randint(1, 3) * u
        pairs.append((v**4 + c1 * v**2 + c0, v**2 + rng.randint(-3, 3) * u + 1))
    skipped = 0
    for f, g in pairs:
        want = sylvester_first_subresultant(f, g, "v")
        got = first_subresultant(f, g, "v")
        assert got.variables == want.variables == ("u",)
        assert got.terms == want.terms, (f, g)
        skipped += got.is_zero() and not resultant(f, g, "v").is_zero()
    assert skipped >= 40


def test_balanced_points_match_natural_points_oracle():
    """The balanced evaluation points give the same resultant and sres_1,
    term for term, as the points 0 .. k-1, also for curve-Hessian pairs."""
    pairs = rand_pairs(random.Random(43))
    for d, seed in ((4, 1), (5, 2)):
        form = random_homogeneous(random.Random(seed), d)
        g = linear_substitute(form, random_unimodular(random.Random(seed), 3))
        pairs.append((g.dehomogenize("z"), hessian_determinant(g).dehomogenize("z")))
    for f, g in pairs:
        var = f.variables[1]
        want_res, want_sres1 = resultant_at_naturals(f, g, var)
        assert resultant(f, g, var).terms == want_res.terms, (f, g)
        assert first_subresultant(f, g, var).terms == want_sres1.terms, (f, g)


def test_interpolation_matches_scaled_and_rational_oracles():
    rng = random.Random(47)
    for k in range(1, 41):
        for bits in (1, 64, 2000):
            # degree below k - 1 too, down to the zero polynomial
            want = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(k - 2, k))]
            while want and want[-1] == 0:
                want.pop()
            lo = -(k // 2)
            points = list(range(lo, lo + k))
            values = [sum(c * t**i for i, c in enumerate(want)) for t in points]
            assert _interpolate(values) == interpolate_scaled(values, lo) == want, (k, bits)
            rational = newton_interpolate(points, list(map(Fraction, values)))
            assert rational == want + [0] * (k - len(want)), (k, bits)


def test_interpolation_rejects_values_of_a_non_integer_polynomial():
    # t(t-1)/2 is an integer at every integer t, but its coefficients are not.
    for k in range(3, 12):
        lo = -(k // 2)
        with pytest.raises(ValueError, match="not exact"):
            _interpolate([t * (t - 1) // 2 for t in range(lo, lo + k)])


def test_remainder_sequence_matches_the_pass_by_pass_oracle(monkeypatch):
    """The pseudo-remainder, with its one-pass normal step, gives what a pass
    per unit of degree gap gives, alone and inside the remainder sequence,
    on random pairs with degree gaps above 1, common factors, a first
    argument of lower degree, and chains that skip degree 1."""
    rng = random.Random(53)

    def poly(deg, size):
        return [rng.randint(-size, size) for _ in range(deg)] + [rng.choice([1, -1, 3, -7, size])]

    pairs = []
    for i in range(600):
        size = rng.choice([3, 100, 2**40])
        a, b = poly(rng.randint(1, 9), size), poly(rng.randint(1, 9), size)
        if i % 5 == 0:  # common factor: zero remainder
            shared = poly(rng.randint(1, 3), 5)
            a, b = poly_mul(a, shared), poly_mul(b, shared)
        if i % 7 == 0:  # polynomials in y^2: the chain skips degree 1
            a, b = _even(a), _even(b)
        pairs.append((a, b))
    got = [prs_subresultants(a, b) for a, b in pairs]
    monkeypatch.setattr(import_module("orbitflex.exactpoly.resultant"), "_pseudo_rem", pseudo_rem_by_passes)
    kinds = Counter()
    for (a, b), mine in zip(pairs, got):
        want = prs_subresultants(a, b)
        assert mine == want, (a, b)
        big, small = (a, b) if len(a) >= len(b) else (b, a)
        assert _pseudo_rem(big, small) == pseudo_rem_by_passes(big, small), (a, b)
        kinds["normal"] += len(big) == len(small) + 1
        kinds["swap"] += len(a) < len(b)
        kinds["gap"] += abs(len(a) - len(b)) > 1
        kinds["zero"] += want[0] == 0
        kinds["skip"] += want[1] == 0 and want[0] != 0
    assert min(kinds.values()) >= 30, kinds


def _even(p):
    """p(y^2)."""
    out = []
    for c in p:
        out += [c, 0]
    return out[:-1]


def test_first_subresultant_needs_positive_degrees():
    with pytest.raises(ValueError):
        resultant(MultiPoly.const(T, 3), t**2 + 1, "t", first_subresultant=[])


def test_fermat_curve_hessian_pair_matches_oracle():
    form = MultiPoly(("x", "y", "z"), {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    g = linear_substitute(form, random_unimodular(random.Random(0), 3))
    h = hessian_determinant(g)
    g_aff, h_aff = g.dehomogenize("z"), h.dehomogenize("z")
    got = resultant(g_aff, h_aff, "y")
    assert got.total_degree() == 3 * 6 * 4
    assert got.terms == sylvester_resultant(g_aff, h_aff, "y").terms


def test_elimination_finds_projection():
    # Res_y of (y - x^2, y - x - 2) vanishes exactly at intersection x-values.
    W = ("x", "y")
    x = MultiPoly.var(W, "x")
    y = MultiPoly.var(W, "y")
    r = resultant(y - x**2, y - x - 2, "y")
    # roots of x^2 - x - 2 = (x-2)(x+1), up to sign
    vals = [r.evaluate((2,)), r.evaluate((-1,))]
    assert vals == [0, 0]
    assert r.evaluate((1,)) != 0


def test_three_variables_rejected():
    W = ("u", "v", "w")
    u, v, w = (MultiPoly.var(W, n) for n in W)
    with pytest.raises(ValueError):
        resultant(u * v + w**2 + 1, v**2 - u * w, "w")
    # eliminating v of f and f*g gives 0 (common factor)
    B = ("u", "v")
    u, v = (MultiPoly.var(B, n) for n in B)
    f = v + u
    assert resultant(f, f * (v**2 - u), "v").is_zero()
