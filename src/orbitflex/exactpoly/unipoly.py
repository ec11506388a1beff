"""Dense univariate polynomials over the integers.

A polynomial is an ``IntPoly``: a list of Python integers, lowest degree
first, with no trailing zeros, so the leading coefficient of a nonzero
polynomial is always nonzero and ``[]`` is the zero polynomial.  Callers
with rational coefficients clear denominators first; gcds and squarefree
factors are only defined up to a unit, and are returned primitive with a
positive leading coefficient.

The gcd of integer polynomials is computed by a small-prime modular
algorithm with CRT reconstruction and a final divisibility check.
Squarefree decomposition is the derivative-gcd recursion of Yun, valid in
characteristic zero.
"""

from __future__ import annotations

from math import gcd as int_gcd
from typing import Iterator

from .intfactor import is_prime

IntPoly = list[int]  # dense, lowest degree first, no trailing zeros


class ZeroPolynomialError(ValueError):
    """An operation required a nonzero polynomial."""


# ----------------------------------------------------------------------
# Integer-coefficient helpers
# ----------------------------------------------------------------------


def _trim(p: IntPoly) -> IntPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deg(p: IntPoly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def _content(p: IntPoly) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _primitive(p: IntPoly) -> IntPoly:
    """Divide out the content and normalize the leading sign to +."""
    if not p:
        return []
    g = _content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _derivative(p: IntPoly) -> IntPoly:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _divexact(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact division of integer polynomials; raises if not exact."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return []
    num = list(num)
    dd = _deg(den)
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        top = num[k + dd]
        if top % lead:
            raise ValueError("integer polynomial division is not exact")
        q = top // lead
        quot[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num[:dd]):
        raise ValueError("integer polynomial division left a remainder")
    return _trim(quot)


# -- modular arithmetic ------------------------------------------------


def _mod_reduce(p: IntPoly, m: int) -> list[int]:
    return _trim([c % m for c in p])


def _mod_monic_gcd(a: list[int], b: list[int], m: int) -> list[int]:
    """Monic gcd over GF(m) by the Euclidean algorithm."""
    while b:
        inv = pow(b[-1], m - 2, m)
        bm = [(c * inv) % m for c in b]
        r = list(a)
        while len(r) >= len(bm) and r:
            q = r[-1] % m
            if q:
                off = len(r) - len(bm)
                for i, c in enumerate(bm):
                    r[off + i] = (r[off + i] - q * c) % m
            _trim(r)
            if not r:
                break
        a, b = bm, _trim(r)
    if not a:
        return []
    inv = pow(a[-1], m - 2, m)
    return [(c * inv) % m for c in a]


_PRIME_CACHE: list[int] = []
_PRIME_NEXT = [(1 << 31) - 1]


def _prime_pool() -> Iterator[int]:
    i = 0
    while True:
        while i >= len(_PRIME_CACHE):
            n = _PRIME_NEXT[0]
            while not is_prime(n):
                n -= 2
            _PRIME_CACHE.append(n)
            _PRIME_NEXT[0] = n - 2
        yield _PRIME_CACHE[i]
        i += 1


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _gcd_modular(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd of primitive integer polynomials."""
    lead_gcd = int_gcd(f[-1], g[-1])
    best_deg: int | None = None
    combined: list[int] = []
    modulus = 1
    stable = 0
    for p in _prime_pool():
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue
        hp = _mod_monic_gcd(_mod_reduce(f, p), _mod_reduce(g, p), p)
        d = len(hp) - 1
        if d == 0:
            return [1]
        if best_deg is None or d < best_deg:
            best_deg = d
            scaled = [(c * lead_gcd) % p for c in hp]
            combined = list(scaled)
            modulus = p
            stable = 0
        elif d > best_deg:
            continue  # unlucky prime
        else:
            prev = list(combined)
            inv = pow(modulus % p, p - 2, p)
            new: list[int] = []
            scaled = [(c * lead_gcd) % p for c in hp]
            for i in range(best_deg + 1):
                a = combined[i] if i < len(combined) else 0
                b = scaled[i] if i < len(scaled) else 0
                t = ((b - a) * inv) % p
                new.append(a + modulus * t)
            modulus *= p
            combined = new
            if [_sym(c, modulus) for c in combined] == [
                _sym(c, modulus // p) for c in prev
            ]:
                stable += 1
            else:
                stable = 0
        if stable >= 1:
            candidate = _primitive(_trim([_sym(c, modulus) for c in combined]))
            if candidate and _divides(candidate, f) and _divides(candidate, g):
                return candidate
            stable = 0


def _divides(d: IntPoly, p: IntPoly) -> bool:
    try:
        _divexact(p, d)
    except ValueError:
        return False
    return True


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact pseudo-remainder: lc(b)**(deg a - deg b + 1) * a reduced mod b.

    ``b`` is nonzero and deg a >= deg b.  A reduction pass that drops the
    degree by more than one still owes the skipped powers of lc(b); they
    are applied at the end.
    """
    a = list(a)
    dd = _deg(b)
    lead = b[-1]
    owed = _deg(a) - dd + 1
    while _deg(a) >= dd and a:
        shift = _deg(a) - dd
        top = a[-1]
        a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= top * bc
        _trim(a)
        owed -= 1
    if owed > 0:
        scale = lead**owed
        a = [c * scale for c in a]
    return a


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd of integer polynomials (positive leading coefficient).

    The gcd of two zero polynomials is the zero polynomial ``[]``.
    """
    f = _primitive(_trim(list(f)))
    g = _primitive(_trim(list(g)))
    if not f:
        return g
    if not g:
        return f
    if _deg(f) == 0 or _deg(g) == 0:
        return [1]
    return _gcd_modular(f, g)


def squarefree_decompose(f: IntPoly) -> list[tuple[int, IntPoly]]:
    """Yun decomposition: f = unit * prod g_i**i over the rationals.

    Returns [(multiplicity, g_i)] with squarefree, pairwise coprime,
    primitive factors of positive leading coefficient; multiplicities are
    distinct and ascending, and a constant gives [].  Raises on zero input.
    """
    f = _primitive(_trim(list(f)))
    if not f:
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    if _deg(f) < 1:
        return []
    fp = _derivative(f)
    g = gcd(f, fp)
    out: list[tuple[int, IntPoly]] = []
    if _deg(g) == 0:
        return [(1, f)]
    c = _divexact(f, g)
    d = [x - y for x, y in _pad(_divexact(fp, g), _derivative(c))]
    _trim(d)
    i = 1
    while _deg(c) > 0:
        a = gcd(c, d)
        if _deg(a) > 0:
            out.append((i, a))
        c = _divexact(c, a) if _deg(a) > 0 else c
        d = _divexact(d, a) if _deg(a) > 0 else d
        d = [x - y for x, y in _pad(d, _derivative(c))]
        _trim(d)
        i += 1
    return out


def _pad(a: IntPoly, b: IntPoly) -> Iterator[tuple[int, int]]:
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
