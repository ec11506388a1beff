import random
from fractions import Fraction

import pytest

from orbitflex.exactpoly import UniPoly, ZeroPolynomialError, gcd, squarefree_decompose

from helpers import gcd_prs


def lin(root: int) -> UniPoly:
    """t - root"""
    return UniPoly([-root, 1])


def test_squarefree_known_example():
    f = lin(1) * lin(1) * lin(-1)
    assert squarefree_decompose(f) == [(1, lin(-1)), (2, lin(1))]


def test_squarefree_pure_power():
    assert squarefree_decompose(UniPoly([0, 0, 0, 0, 0, 1])) == [(5, UniPoly([0, 1]))]


def test_squarefree_of_squarefree_input():
    f = lin(1) * lin(2) * lin(-3)
    assert squarefree_decompose(f) == [(1, f)]


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        squarefree_decompose(UniPoly([]))


def test_squarefree_reconstructs_input_up_to_unit():
    rng = random.Random(13)
    for _ in range(20):
        roots = rng.sample(range(-8, 9), rng.randint(1, 4))
        mults = [rng.randint(1, 4) for _ in roots]
        f = UniPoly([rng.choice([2, 3, -5])])
        for root, mult in zip(roots, mults):
            for _ in range(mult):
                f = f * lin(root)
        product = UniPoly([1])
        for i, g in squarefree_decompose(f):
            for _ in range(i):
                product = product * g
        ratio = f.leading() / product.leading()
        assert f == product * ratio


def test_squarefree_factors_pairwise_coprime():
    f = lin(1) * lin(1) * lin(2) * lin(2) * lin(2) * lin(-4)
    dec = squarefree_decompose(f)
    mults = [i for i, _ in dec]
    assert mults == sorted(set(mults))
    for idx, (_, g) in enumerate(dec):
        for _, h in dec[idx + 1 :]:
            assert gcd(g, h).degree == 0


def test_gcd_basic_properties():
    rng = random.Random(17)
    for _ in range(20):
        f = lin(rng.randint(-5, 5)) * lin(rng.randint(-5, 5))
        g = lin(rng.randint(-5, 5))
        h = lin(rng.randint(-5, 5)) * UniPoly([rng.randint(1, 3)])
        left = gcd(f * h, g * h)
        right = gcd(f, g) * h
        assert left == right.monic()


def test_gcd_with_zero():
    f = UniPoly([2, 4])
    assert gcd(f, UniPoly([])) == f.monic()
    assert gcd(UniPoly([]), UniPoly([])).is_zero()


def test_gcd_of_coprime_is_one():
    assert gcd(UniPoly([1, 0, 1]), UniPoly([-1, 0, 1])).degree == 0


def test_divmod_invariant():
    rng = random.Random(19)
    for _ in range(20):
        f = UniPoly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))])
        g = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_degree_sentinel_and_leading():
    assert UniPoly([]).degree is None
    assert UniPoly([0, 0, 3]).degree == 2
    with pytest.raises(ZeroPolynomialError):
        UniPoly([]).leading()


def test_large_multiplicity_structure():
    # profile-shaped input: distinct factors at multiplicities 1..4
    f = UniPoly([1])
    parts = {1: lin(5), 2: lin(-2), 3: lin(7), 4: lin(0)}
    for mult, g in parts.items():
        for _ in range(mult):
            f = f * g
    dec = dict(squarefree_decompose(f))
    assert set(dec) == {1, 2, 3, 4}
    for mult, g in parts.items():
        assert dec[mult] == g


def test_modular_gcd_agrees_with_pseudo_remainder_gcd():
    from orbitflex.exactpoly.unipoly import _gcd_modular, _primitive

    rng = random.Random(97)
    for _ in range(40):
        shared = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [
            rng.randint(1, 9)
        ]
        fa = [rng.randint(-50, 50) for _ in range(rng.randint(1, 5))] + [
            rng.randint(1, 50)
        ]
        fb = [rng.randint(-50, 50) for _ in range(rng.randint(1, 5))] + [
            rng.randint(1, 50)
        ]

        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return out

        f = _primitive(mul(shared, fa))
        g = _primitive(mul(shared, fb))
        got = _gcd_modular(f, g)
        want = gcd_prs(f, g)
        assert got == want


def test_modular_gcd_huge_coefficients():
    from orbitflex.exactpoly.unipoly import gcd_int_poly

    shared = [10**40 + 1, -(3**50), 1]
    f = [0, 10**30, 7]
    g = [5, 0, 0, 11]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    h = gcd_int_poly(mul(shared, f), mul(shared, g))
    # f and g are coprime, so the gcd is the (primitive) shared factor
    assert h == shared
