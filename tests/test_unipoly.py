import random

import pytest

from orbitflex.exactpoly import ZeroPolynomialError, gcd, squarefree_decompose
from orbitflex.exactpoly.unipoly import _gcd_modular, _primitive

from helpers import gcd_prs


def lin(root: int) -> list[int]:
    """t - root"""
    return [-root, 1]


def mul(*polys: list[int]) -> list[int]:
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def test_squarefree_known_example():
    f = mul(lin(1), lin(1), lin(-1))
    assert squarefree_decompose(f) == [(1, lin(-1)), (2, lin(1))]


def test_squarefree_pure_power():
    assert squarefree_decompose([0, 0, 0, 0, 0, 1]) == [(5, [0, 1])]


def test_squarefree_of_squarefree_input():
    f = mul(lin(1), lin(2), lin(-3))
    assert squarefree_decompose(f) == [(1, f)]


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        squarefree_decompose([])


def test_squarefree_reconstructs_input_up_to_unit():
    rng = random.Random(13)
    for _ in range(20):
        roots = rng.sample(range(-8, 9), rng.randint(1, 4))
        mults = [rng.randint(1, 4) for _ in roots]
        f = [rng.choice([2, 3, -5])]
        for root, mult in zip(roots, mults):
            for _ in range(mult):
                f = mul(f, lin(root))
        product = [1]
        for i, g in squarefree_decompose(f):
            for _ in range(i):
                product = mul(product, g)
        # f = (lc f / lc product) * product
        assert [product[-1] * c for c in f] == [f[-1] * c for c in product]


def test_squarefree_factors_pairwise_coprime():
    f = mul(lin(1), lin(1), lin(2), lin(2), lin(2), lin(-4))
    dec = squarefree_decompose(f)
    mults = [i for i, _ in dec]
    assert mults == sorted(set(mults))
    for idx, (_, g) in enumerate(dec):
        for _, h in dec[idx + 1 :]:
            assert gcd(g, h) == [1]


def test_gcd_basic_properties():
    rng = random.Random(17)
    for _ in range(20):
        f = mul(lin(rng.randint(-5, 5)), lin(rng.randint(-5, 5)))
        g = lin(rng.randint(-5, 5))
        h = mul(lin(rng.randint(-5, 5)), [rng.randint(1, 3)])
        left = gcd(mul(f, h), mul(g, h))
        right = mul(gcd(f, g), h)
        assert left == _primitive(right)


def test_gcd_with_zero():
    f = [2, 4]
    assert gcd(f, []) == [1, 2]
    assert gcd([], []) == []


def test_gcd_of_coprime_is_one():
    assert gcd([1, 0, 1], [-1, 0, 1]) == [1]


def test_large_multiplicity_structure():
    # profile-shaped input: distinct factors at multiplicities 1..4
    f = [1]
    parts = {1: lin(5), 2: lin(-2), 3: lin(7), 4: lin(0)}
    for mult, g in parts.items():
        for _ in range(mult):
            f = mul(f, g)
    dec = dict(squarefree_decompose(f))
    assert set(dec) == {1, 2, 3, 4}
    for mult, g in parts.items():
        assert dec[mult] == g


def test_modular_gcd_agrees_with_pseudo_remainder_gcd():
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

        f = _primitive(mul(shared, fa))
        g = _primitive(mul(shared, fb))
        got = _gcd_modular(f, g)
        want = gcd_prs(f, g)
        assert got == want


def test_modular_gcd_huge_coefficients():
    shared = [10**40 + 1, -(3**50), 1]
    f = [0, 10**30, 7]
    g = [5, 0, 0, 11]

    h = gcd(mul(shared, f), mul(shared, g))
    # f and g are coprime, so the gcd is the (primitive) shared factor
    assert h == shared
