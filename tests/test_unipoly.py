import random
from fractions import Fraction
from math import gcd as int_gcd

import pytest

from orbitflex.exactpoly import ZeroPolynomialError, gcd, rational_roots, squarefree_decompose
from orbitflex.exactpoly import unipoly
from orbitflex.exactpoly.unipoly import _divides, _primitive

from helpers import gcd_multimodular, gcd_prs, rational_roots_by_divisors

P = 2**31 - 1  # the first prime of the gcd_multimodular oracle


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

    def rand_poly(deg: int, bound: int) -> list[int]:
        return [rng.randint(-bound, bound) for _ in range(deg)] + [
            rng.choice([-1, 1]) * rng.randint(1, bound)
        ]

    def with_shared(shared: list[int], deg: int, bound: int) -> tuple:
        f = mul(shared, rand_poly(rng.randint(0, deg), bound))
        return f, mul(shared, rand_poly(rng.randint(0, deg), bound))

    pairs = [with_shared(rand_poly(rng.randint(0, 3), 9), 5, 50) for _ in range(40)]
    pairs += [  # large common factors
        with_shared(rand_poly(rng.randint(1, 20), 10**40), 6, 10 ** rng.randint(1, 40))
        for _ in range(20)
    ]
    pairs += [  # coprime with overwhelming probability
        with_shared([1], 12, 10**20) for _ in range(20)
    ]
    pairs += [
        # coprime over Q, equal mod P
        ([0, 1], [-P, 1]),
        ([1, 0, 1], [1 + P, 0, 1]),
        (mul([3, 1], [0, 1]), mul([3, 1], [-P, 1])),
        # P divides a leading coefficient
        ([1, P], [1, 1]),
        ([1, 1], [1, P]),
        (mul([3, P], [5, 2, 1]), mul([-1, 7], [5, 2, 1])),
        (mul([1, P], [2, 1]), mul([1, 5 * P], [2, 1])),
        (mul([1, P], [1, 1]), mul([1, P], [2, 1])),  # the gcd vanishes mod P
        # constants and zero
        ([], []),
        ([], [4, -6, 2]),
        ([-3, 0, 9], []),
        ([6], [4]),
        ([-7], [1, 2, 1]),
        ([1, 2, 1], [12]),
    ]
    for f, g in pairs:
        got = gcd(f, g)
        assert got == gcd_prs(f, g) == gcd_multimodular(f, g), (f, g)


def test_pack_unpack_round_trip():
    # balanced digits in [-2**(b-1), 2**(b-1)), the top one positive
    rng = random.Random(5)
    for b in (2, 3, 8, 64, 200):
        half = 1 << (b - 1)
        for _ in range(20):
            digits = [-half, -1, 0, 1, half - 1, rng.randrange(-half, half)]
            p = rng.choices(digits, k=rng.randint(0, 8)) + [rng.randint(1, half - 1)]
            assert unipoly._unpack(unipoly._pack(p, b), b) == p
        # a digit +2**(b-1) has the same value as -2**(b-1) plus a carry
        assert unipoly._pack([half, 0, 1], b) == unipoly._pack([-half, 1, 1], b)
        assert unipoly._unpack(unipoly._pack([1, half, 0, 1], b), b) == [1, -half, 1, 1]


def test_heuristic_gcd_retries_after_a_false_candidate(monkeypatch):
    # At the first point xi = 8, gcd(f(8), g(8)) = 10 has the digits of x + 2,
    # which divides f but not g; at xi = 16 the gcd is 2, whose primitive
    # part is 1.
    f, g = [2, 1], [2 + 10 * P, 1]
    candidates = []
    unpack = unipoly._unpack

    def spy(n: int, b: int) -> list[int]:
        candidates.append(unpack(n, b))
        return candidates[-1]

    monkeypatch.setattr(unipoly, "_unpack", spy)
    assert gcd(f, g) == [1]
    assert candidates == [[2, 1], [2]]
    assert _divides(candidates[0], f) and not _divides(candidates[0], g)


def test_modular_gcd_huge_coefficients():
    shared = [10**40 + 1, -(3**50), 1]
    f = [0, 10**30, 7]
    g = [5, 0, 0, 11]

    h = gcd(mul(shared, f), mul(shared, g))
    # f and g are coprime, so the gcd is the (primitive) shared factor
    assert h == shared


def _planted(rng, roots, others):
    """content * prod (q x - a) over the roots a/q, times the ``others``."""
    content = [rng.choice([-6, -2, -1, 1, 3, 10])]
    return mul(content, *([-r.numerator, r.denominator] for r in roots), *others)


# x^2 - 2, x^2 + x + 1, x^3 - 3, 9x^2 + 5: no rational root.
_NO_RATIONAL_ROOT = ([-2, 0, 1], [1, 1, 1], [-3, 0, 0, 1], [5, 0, 9])


def test_rational_roots_agree_with_divisor_search():
    rng = random.Random(83)
    for _ in range(200):
        roots = [
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))
        ]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 2)))  # repeated
        if rng.random() < 0.2:
            roots.append(Fraction(0))
        p = _planted(rng, roots, rng.sample(_NO_RATIONAL_ROOT, rng.randint(0, 2)))
        expected = sorted(set(roots))
        assert sorted(rational_roots_by_divisors(p)) == expected
        assert [Fraction(a, q) for a, q in rational_roots(p)] == expected


def test_rational_roots_with_large_prime_factors():
    # Coefficients a divisor search would have to factor: large primes and
    # products of two of them, as in (x^2 - 1000003 z^2)^2 + y^4.
    rng = random.Random(89)
    big = [1000003, 2**61 - 1, 1000003 * 1000033, (2**31 - 1) * (2**61 - 1)]
    others = _NO_RATIONAL_ROOT + ([-1000003, 0, 1], [2**61 - 1, 0, 1000033])
    for _ in range(40):
        roots = [
            Fraction(rng.choice(big) * rng.choice([-1, 1]), rng.choice([1, 3, 1000033, 2**31 - 1]))
            for _ in range(rng.randint(0, 3))
        ]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 1)))
        p = _planted(rng, roots, rng.sample(others, rng.randint(0, 2)))
        found = rational_roots(p)
        assert [Fraction(a, q) for a, q in found] == sorted(set(roots))
        assert all(q > 0 and int_gcd(a, q) == 1 for a, q in found)


def test_rational_roots_order_zero_among_negative_and_positive():
    # x (x + 2) (2x - 1): the root 0 takes its place in the order.
    assert rational_roots(mul([0, 1], lin(-2), [-1, 2])) == [(-2, 1), (0, 1), (1, 2)]
    assert rational_roots([0, 0, 0, 1]) == [(0, 1)]
    assert rational_roots([7]) == []
