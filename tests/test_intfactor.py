import math
import random

import pytest

from orbitflex.exactpoly import factor_integer, format_factorization, is_prime


def test_known_factorizations():
    assert factor_integer(216) == [(2, 3), (3, 3)]
    assert factor_integer(14318256) == [(2, 4), (3, 1), (317, 1), (941, 1)]
    assert factor_integer(1) == []


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_remultiplication_random():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 10**9)
        factors = factor_integer(n)
        assert math.prod(p**e for p, e in factors) == n
        assert all(is_prime(p) for p, _ in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_pollard_rho_semiprime():
    p, q = 1000003, 1000033
    assert factor_integer(p * q) == [(p, 1), (q, 1)]


def test_prime_power():
    assert factor_integer(3**12) == [(3, 12)]


def test_is_prime_edge_cases():
    assert not is_prime(1)
    assert is_prime(2)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(341)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_format():
    assert format_factorization(factor_integer(216)) == "2^3*3^3"
    assert format_factorization(factor_integer(14280)) == "2^3*3*5*7*17"
    assert format_factorization([]) == "1"
