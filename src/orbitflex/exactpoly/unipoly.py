"""Dense univariate polynomials over the integers.

A polynomial is an ``IntPoly``: a list of Python integers, lowest degree
first, with no trailing zeros, so the leading coefficient of a nonzero
polynomial is always nonzero and ``[]`` is the zero polynomial.  Callers
with rational coefficients clear denominators first; gcds and squarefree
factors are only defined up to a unit, and are returned primitive with a
positive leading coefficient.

The gcd of integer polynomials is the heuristic gcd GCDHEU (Char, Geddes
& Gonnet 1989; Liao & Fateman 1995): both polynomials are packed into
integers at a power of two, one big-integer gcd is taken, and its digits
are accepted once they divide both inputs.  Squarefree decomposition is
the derivative-gcd recursion of Yun, valid in characteristic zero.
``rational_roots`` finds the rational roots without factoring any
coefficient, by Hensel lifting simple roots modulo a small prime.
"""

from __future__ import annotations

from itertools import count, repeat, zip_longest
from math import gcd as int_gcd
from operator import mul, sub

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


def _sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


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


def _divides(d: IntPoly, p: IntPoly) -> bool:
    try:
        _divexact(p, d)
    except ValueError:
        return False
    return True


# -- heuristic gcd -----------------------------------------------------


def _pack(p: IntPoly, b: int) -> int:
    """p(2**b), by shifts."""
    acc = 0
    for c in reversed(p):
        acc = (acc << b) + c
    return acc


def _unpack(n: int, b: int) -> IntPoly:
    """The polynomial whose coefficients are the balanced base-2**b digits
    of n >= 0, each in [-2**(b-1), 2**(b-1))."""
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    out: IntPoly = []
    while n:
        c = n & mask
        n >>= b
        if c >= half:
            c -= 1 << b
            n += 1
        out.append(c)
    return out


def _gcd_heuristic(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd of primitive nonconstant integer polynomials (GCDHEU).

    At xi = 2**b > 2m + 2, with m the smaller max norm of f and g, the
    candidate h is the primitive part of the polynomial h0 whose
    coefficients are the balanced base-xi digits of gcd(f(xi), g(xi))
    (Char, Geddes & Gonnet 1989).  A candidate that divides both f and g
    is the gcd G: otherwise G = h*k with deg k >= 1, and k(xi) divides
    cont(h0) < xi/2, while every root of k is a root of f and of g, below
    1 + m in modulus, so |k(xi)| > xi - 1 - m > xi/2.  A rejected
    candidate grows b by half.  The loop ends: gcd(f(xi), g(xi)) =
    gamma * |G(xi)| where gamma divides Res(f/G, g/G), which is nonzero
    and does not depend on xi, so once xi > 2 |Res(f/G, g/G) G| the
    digits are the coefficients of +-gamma*G and h = G.
    """
    b = (2 * min(max(map(abs, f)), max(map(abs, g))) + 2).bit_length()
    while True:
        h = _primitive(_unpack(int_gcd(_pack(f, b), _pack(g, b)), b))
        if _divides(h, f) and _divides(h, g):
            return h
        b += b // 2


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact pseudo-remainder: lc(b)**(deg a - deg b + 1) * a reduced mod b.

    ``b`` has positive degree and deg a >= deg b.  After that scaling, long
    division by b has integer quotient coefficients, each the top
    coefficient divided by lc(b).  A normal step, deg a = n + 1 with
    n = deg b, is formed in one pass: lc(b)^2 a - (lc(b) a_top y + q0) b
    with q0 = lc(b) a_n - a_top b_(n-1), whose y^(n+1) and y^n terms cancel.
    """
    lead, low = b[-1], b[:-1]
    if len(a) == len(b) + 1:
        top = a[-1]
        lead2, q1, q0 = lead * lead, lead * top, lead * a[-2] - top * b[-2]
        return _trim([lead2 * ai - q1 * bp - q0 * bi for ai, bp, bi in zip(a, [0] + b, low)])
    scale = lead ** (len(a) - len(b) + 1)
    a = [c * scale for c in a]
    for shift in range(len(a) - len(b), -1, -1):
        q = a.pop() // lead
        a[shift:] = map(sub, a[shift:], map(mul, low, repeat(q)))
    return _trim(a)


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd of integer polynomials (positive leading coefficient).

    The gcd of two zero polynomials is the zero polynomial ``[]``.
    """
    f = _primitive(_trim(list(f)))
    g = _primitive(_trim(list(g)))
    if not f or not g:
        return f or g
    if _deg(f) == 0 or _deg(g) == 0:
        return [1]
    return _gcd_heuristic(f, g)


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
    c = _divexact(f, g)
    d = _sub(_divexact(fp, g), _derivative(c))
    out: list[tuple[int, IntPoly]] = []
    i = 1
    while _deg(c) > 0:
        a = gcd(c, d)
        if _deg(a) > 0:
            out.append((i, a))
            c, d = _divexact(c, a), _divexact(d, a)
        d = _sub(d, _derivative(c))
        i += 1
    return out


def rational_roots(p: IntPoly) -> list[tuple[int, int]]:
    """All rational roots a/q of a nonzero integer polynomial, in lowest
    terms with q > 0, as pairs (a, q) in increasing order of a/q, found
    without factoring any coefficient.

    A root a/q of the squarefree part s, in lowest terms, makes lc*a/q an
    integer of size at most |lc*c|, c the lowest nonzero coefficient.  Each
    such root is a simple root modulo a prime that divides neither lc nor s'
    at a root of s; it is Hensel-lifted until the modulus exceeds 2|lc*c|,
    and lc*root, balanced and divided by lc, is kept when q*x - a divides s,
    which by Gauss's lemma is exactly when s(a/q) = 0.
    """
    s = _divexact(p, gcd(p, _derivative(p)))
    if s[-1] < 0:
        s = [-c for c in s]
    ds = _derivative(s)
    lead = s[-1]
    for prime in (n for n in count(2) if lead % n and is_prime(n)):
        residues = [r for r in range(prime) if _value_mod(s, r, prime) == 0]
        if all(_value_mod(ds, r, prime) for r in residues):
            break
    bound = 2 * abs(lead * next(c for c in s if c))
    roots = []
    for r in residues:
        m = prime
        while m <= bound:
            m *= m
            r = (r - _value_mod(s, r, m) * pow(_value_mod(ds, r, m), -1, m)) % m
        n = lead * r % m
        n = n - m if 2 * n > m else n
        g = int_gcd(n, lead)
        a, q = n // g, lead // g
        if _divides([-a, q], s):
            roots.append((a, q))
    return sorted(roots, key=lambda root: root[0] * lead // root[1])  # lc * root, lc > 0


def _value_mod(p: IntPoly, x: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc
