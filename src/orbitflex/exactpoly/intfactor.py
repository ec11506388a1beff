"""Exact integer factorization: trial division, then Pollard rho.

Sized for the numbers this package produces (predegrees up to ~10^8 for the
tabulated range, somewhat larger for bigger degrees); primality testing is
deterministic Miller-Rabin with a base set proven correct far beyond that.
"""

from __future__ import annotations

from math import gcd

# Witnesses proving primality for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        # Batch gcds: multiply |x - y| differences mod n before each gcd.
        q = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            q = q * abs(x - y) % n
            count += 1
            if q == 0:
                d = gcd(abs(x - y), n)
                break
            if count % 64 == 0:
                d = gcd(q, n)
        if d == 1:
            d = gcd(q, n)
        if 1 < d < n:
            return d
        c += 1  # cycle degenerated; restart with a new polynomial


def factor_integer(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 49
    while p * p <= n and p < 10_000:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


def format_factorization(factors: list[tuple[int, int]]) -> str:
    """Render a factorization like ``2^3*3^3`` (``1`` for the empty one)."""
    if not factors:
        return "1"
    return "*".join(str(p) if e == 1 else f"{p}^{e}" for p, e in factors)
