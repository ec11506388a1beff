"""Smoothness checking and flex profiles of plane curves.

A point q of a smooth curve C is a flex of order r when the tangent line
at q meets C with intersection multiplicity r + 2; r = 1 is a simple
flex, r = 2 a hyperflex.  The weighted flex count of a smooth degree-d
curve is always 3d(d-2).

``flex_profile`` counts flexes of each order over the algebraic closure
without ever leaving exact rational arithmetic: flex orders equal the
local intersection multiplicities of the curve with its Hessian, and
after a random integer shear with small entries those multiplicities
are read off the squarefree decomposition of the curve-Hessian resultant.
Each coordinate change is certified before its profile is used: the
resultant must have the exact expected degree 3d(d-2), which a resultant
on the line z = 0 decides first, and the projection must separate the
intersection points, which a squarefree resultant proves at once and the
first subresultant proves otherwise (Gonzalez-Vega & El Kahoui 1996).
So a certified profile is proved; a second, different shear is drawn as
a cross-check and must agree.  After the curve is scaled to integer
coefficients every step runs on Python integers, and the whole
computation is deterministic given the seed.

``check_smooth`` certifies that the three partial derivatives share no
projective zero, by eliminating one variable from two pairs of partials
and taking a gcd of the resulting binary forms; ``random_unimodular``
coordinates make the elimination free of extraneous factors, so a
trivial gcd is a proof of smoothness.  A nontrivial gcd triggers an
attempt to exhibit a rational singular point, then a retry in new
coordinates.  Two partials that share a component prove the curve
singular without naming a point, so the witness search goes on too.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd as int_gcd
from typing import Callable, Mapping, Sequence

from .exactpoly import (
    IntPoly,
    MultiPoly,
    gradient,
    hessian_determinant,
    is_prime,
    linear_substitute,
    resultant,
    squarefree_decompose,
)
from .exactpoly.multipoly import common_denominator
from .exactpoly.resultant import _prs_subresultants
from .exactpoly.unipoly import _derivative, _divexact, _primitive
from .exactpoly.unipoly import gcd as poly_gcd

RETRY_BUDGET = 8
INITIAL_BOUND = 3
INITIAL_SHEAR_BOUND = 2

Point = tuple[Fraction, Fraction, Fraction]


class SingularCurveError(Exception):
    """The form defines a singular curve.

    ``witness`` is a projective point killing all three partials when one
    with rational coordinates was found, else None.
    """

    def __init__(self, message: str, witness: Point | None = None):
        super().__init__(message if witness is None else f"{message}; witness {witness}")
        self.witness = witness


class GenericityFailureError(RuntimeError):
    """No generic coordinate change was found within the retry budget."""


class PointNotOnCurveError(ValueError):
    """A point claimed to lie on the curve does not."""


class InconsistentProfileError(ValueError):
    """A flex profile fails the weighted-count constraint for its degree."""


@dataclass(frozen=True)
class PlaneCurve:
    """A homogeneous ternary form certified smooth by ``check_smooth``."""

    form: MultiPoly
    degree: int


class FlexProfile:
    """Multiset {flex order r >= 1 -> count over the algebraic closure}."""

    __slots__ = ("degree", "_counts")

    def __init__(self, degree: int, counts: Mapping[int, int]):
        if type(degree) is not int:
            raise InconsistentProfileError(f"degree must be an integer, got {degree!r}")
        clean = {r: n for r, n in counts.items() if n != 0}
        for r, n in clean.items():
            if type(r) is not int or type(n) is not int or r < 1 or n < 0:
                raise InconsistentProfileError(f"invalid profile entry {r!r}: {n!r}")
            if r > degree - 2:
                raise InconsistentProfileError(
                    f"flex order {r} exceeds d-2 = {degree - 2} (a line meets the"
                    " curve with multiplicity at most d)"
                )
        weighted = sum(r * n for r, n in clean.items())
        if weighted != 3 * degree * (degree - 2):
            raise InconsistentProfileError(
                f"weighted flex count {weighted} != 3d(d-2) = {3*degree*(degree-2)}"
            )
        self.degree = degree
        self._counts = dict(sorted(clean.items()))

    @property
    def counts(self) -> dict[int, int]:
        return dict(self._counts)

    def count(self, order: int) -> int:
        return self._counts.get(order, 0)

    def items(self) -> list[tuple[int, int]]:
        return list(self._counts.items())

    def weighted_total(self) -> int:
        return sum(r * n for r, n in self._counts.items())

    def flexes_of_order_above(self, threshold: int) -> int:
        """Number of flexes with order strictly greater than ``threshold``."""
        return sum(n for r, n in self._counts.items() if r > threshold)

    def power_sum(self, power: int) -> int:
        """Sum of (flex order)**power over all flexes."""
        return sum(n * r**power for r, n in self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlexProfile):
            return NotImplemented
        return self.degree == other.degree and self._counts == other._counts

    def __hash__(self) -> int:
        return hash((self.degree, tuple(self._counts.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{r}: {n}" for r, n in self._counts.items())
        return f"FlexProfile(d={self.degree}, {{{body}}})"


@dataclass(frozen=True)
class FlexSums:
    """The power sums f^(r) = sum_q (flex order of q)**r for r = 2..5."""

    f2: int
    f3: int
    f4: int
    f5: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.f2, self.f3, self.f4, self.f5)


def f_sums(profile: FlexProfile) -> FlexSums:
    return FlexSums(*(profile.power_sum(r) for r in range(2, 6)))


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _integer_form(p: MultiPoly) -> MultiPoly:
    """Rescale to coprime integer coefficients (profile-invariant)."""
    terms = p.terms
    den = common_denominator(terms.values())
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    content = int_gcd(*ints.values())
    if content > 1:
        ints = {e: v // content for e, v in ints.items()}
    return MultiPoly(p.variables, ints)


def _int_poly(p: MultiPoly) -> IntPoly:
    """Primitive coefficient list of a univariate integer polynomial."""
    if p.is_zero():
        return []
    dense = [0] * (p.total_degree() + 1)
    for (e,), c in p.terms.items():
        dense[e] = c
    return _primitive(dense)


def random_unimodular(rng: random.Random, bound: int) -> list[list[int]]:
    """Random integer matrix of determinant +-1 for ``check_smooth``.

    Built as (signed permutation) * L * U with unit-triangular L, U whose
    off-diagonal entries are nonzero draws from [-bound, bound]; sparse
    rows are avoided because they tend to align the projection with the
    distinguished points of symmetric curves.
    """

    def nz() -> int:
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        return c

    lower = [[1, 0, 0], [nz(), 1, 0], [nz(), nz(), 1]]
    upper = [[1, nz(), nz()], [0, 1, nz()], [0, 0, 1]]
    m = [
        [sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    order = [0, 1, 2]
    rng.shuffle(order)
    m = [m[i] for i in order]
    for i in range(3):
        if rng.random() < 0.5:
            m[i] = [-c for c in m[i]]
    return m


def random_shear(rng: random.Random, bound: int, tried: set) -> list[list[int]]:
    """Random shear [[1, a, 0], [0, 1, 0], [c, b, 1]], determinant 1, centre
    (a : 1 : b): a, b, c are nonzero in [-bound, bound], and (a, b, c) is new
    to ``tried`` and added to it; the box doubles while all of it is tried.
    Shears fix (0:0:1), which ``check_smooth`` needs moved."""
    while sum(max(map(abs, t)) <= bound for t in tried) == (2 * bound) ** 3:
        bound *= 2
    box = [v for v in range(-bound, bound + 1) if v]
    while True:
        a, b, c = (rng.choice(box) for _ in range(3))
        if (a, b, c) not in tried:
            tried.add((a, b, c))
            return [[1, a, 0], [0, 1, 0], [c, b, 1]]


def _apply_matrix(m: Sequence[Sequence[int]], v: Sequence[Fraction]) -> Point:
    return tuple(sum(Fraction(m[i][j]) * v[j] for j in range(3)) for i in range(3))


def _normalize_point(v: Sequence[Fraction]) -> Point:
    den = common_denominator(v)
    ints = [c.numerator * (den // c.denominator) for c in v]
    g = int_gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    lead = next((c for c in ints if c != 0), 1)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints)


# ----------------------------------------------------------------------
# Smoothness
# ----------------------------------------------------------------------

_COORDINATE_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def check_smooth(form: MultiPoly) -> PlaneCurve:
    """Certify that a ternary form of degree >= 3 defines a smooth curve.

    Returns a PlaneCurve on success.  Raises SingularCurveError when the
    gradient has a common projective zero (with the point as witness when
    a rational one is found), or GenericityFailureError when the retry
    budget runs out without either a certificate or a witness.
    """
    if len(form.variables) != 3:
        raise ValueError(f"expected a ternary form, got variables {form.variables}")
    d = form.homogeneous_degree()
    if d < 3:
        raise ValueError(f"curve degree must be at least 3, got {d}")
    f = _integer_form(form)
    partials = gradient(f)
    for i, p in enumerate(partials):
        if p.is_zero():
            # The form misses variable i entirely; the corresponding
            # coordinate point kills all three partials.
            witness = tuple(Fraction(1 if j == i else 0) for j in range(3))
            raise SingularCurveError("gradient vanishes identically in one direction", witness)

    rng = random.Random(0x5EED)
    bound = INITIAL_BOUND
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    obstructed = shared = 0
    for attempt in range(RETRY_BUDGET):
        m = identity if attempt == 0 else random_unimodular(rng, bound)
        if attempt > 0:
            bound *= 2
        g = linear_substitute(f, m) if attempt > 0 else f
        grads = gradient(g)
        for pt in _COORDINATE_POINTS:
            if all(p.evaluate(pt) == 0 for p in grads):
                raise SingularCurveError(
                    "all partial derivatives vanish at a coordinate point",
                    _normalize_point(_apply_matrix(m, tuple(map(Fraction, pt)))),
                )
        # Clean elimination needs the top z-coefficient of each partial to
        # be a nonzero constant, i.e. no partial vanishing at (0:0:1).
        if any(p.evaluate((0, 0, 1)) == 0 for p in grads):
            continue
        a, b, c = (p.dehomogenize("y") for p in grads)
        r1 = resultant(a, b, "z")
        r2 = resultant(a, c, "z")
        if r1.is_zero() or r2.is_zero():
            # Two partials share a component, which meets the third partial
            # in singular points; new coordinates may name one.
            shared += 1
            continue
        deg_form = (d - 1) ** 2
        common = _binary_common_roots(r1, r2, deg_form, deg_form)
        if common is None:
            return PlaneCurve(form=form, degree=d)
        obstructed += 1
        witness = _find_rational_witness(grads, common)
        if witness is not None:
            raise SingularCurveError(
                "all partial derivatives vanish at a rational point",
                _normalize_point(_apply_matrix(m, witness)),
            )
    if shared:
        raise SingularCurveError("two partial derivatives share a positive-dimensional component")
    detail = (
        "; the gradient system kept common roots under every projection but"
        " none with rational coordinates, so the curve is most likely"
        " singular at irrational points"
        if obstructed
        else ""
    )
    raise GenericityFailureError(
        f"could not certify smoothness within {RETRY_BUDGET} coordinate changes{detail}"
    )


def _binary_common_roots(
    r1: MultiPoly, r2: MultiPoly, deg1: int, deg2: int
) -> list[tuple[Fraction, Fraction]] | None:
    """Common projective roots of two binary forms given dehomogenized.

    ``r1``/``r2`` are the y=1 specializations of forms of degree ``deg1``
    and ``deg2`` in (x, y).  Returns None when there is no common root
    (the smoothness certificate), otherwise a list of the rational common
    roots found, as (x0, y0) pairs -- possibly empty when every common
    root is irrational.
    """
    u1 = _int_poly(r1)
    u2 = _int_poly(r2)
    val1 = next(i for i, cc in enumerate(u1) if cc != 0)
    val2 = next(i for i, cc in enumerate(u2) if cc != 0)
    g = poly_gcd(u1[val1:], u2[val2:])
    root_at_zero = val1 > 0 and val2 > 0
    root_at_infinity = len(u1) - 1 < deg1 and len(u2) - 1 < deg2
    if len(g) == 1 and not root_at_zero and not root_at_infinity:
        return None
    found: list[tuple[Fraction, Fraction]] = []
    if root_at_zero:
        found.append((Fraction(0), Fraction(1)))
    if root_at_infinity:
        found.append((Fraction(1), Fraction(0)))
    if len(g) > 1:
        found.extend((t, Fraction(1)) for t in _rational_roots(g))
    return found


def _rational_roots(ints: IntPoly) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial, in increasing
    order, found without factoring any coefficient.

    A root a/q of the squarefree part p, in lowest terms, makes lc*a/q an
    integer of size at most |lc*c|, c the lowest nonzero coefficient.  Each
    such root is a simple root modulo a prime that divides neither lc nor p'
    at a root of p; it is Hensel-lifted until the modulus exceeds 2|lc*c|,
    and lc*root, balanced and divided by lc, is tested exactly.
    """
    p = _divexact(ints, poly_gcd(ints, _derivative(ints)))
    dp = _derivative(p)
    lead = p[-1]
    for prime in (n for n in count(2) if lead % n and is_prime(n)):
        residues = [r for r in range(prime) if _value_mod(p, r, prime) == 0]
        if all(_value_mod(dp, r, prime) for r in residues):
            break
    bound = 2 * abs(lead * next(c for c in p if c))
    roots = []
    for r in residues:
        m = prime
        while m <= bound:
            m *= m
            r = (r - _value_mod(p, r, m) * pow(_value_mod(dp, r, m), -1, m)) % m
        n = lead * r % m
        cand = Fraction(n - m if 2 * n > m else n, lead)
        if _vanishes_at(p, cand.numerator, cand.denominator):
            roots.append(cand)
    return sorted(roots)


def _value_mod(p: IntPoly, x: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _vanishes_at(p: IntPoly, a: int, q: int) -> bool:
    """Whether p(a/q) = 0, tested as sum p[i] * a**i * q**(n-i) = 0."""
    acc = 0
    scale = 1
    for c in reversed(p):
        acc = acc * a + c * scale
        scale *= q
    return acc == 0


def _find_rational_witness(
    grads: Sequence[MultiPoly], candidates: list[tuple[Fraction, Fraction]]
) -> Point | None:
    """A rational common zero of the partials over a candidate (x0 : y0).
    No fibre p(x0, y0, z) is zero: each p has a constant top z-coefficient."""
    for x0, y0 in candidates:
        h: IntPoly = []
        for p in grads:  # the fibre p(x0, y0, z), read off p's coefficients in z
            fibre = {(k,): c.evaluate((x0, y0)) for k, c in enumerate(p.coefficients_in("z"))}
            h = poly_gcd(h, _int_poly(_integer_form(MultiPoly(("z",), fibre))))
        if len(h) == 1:
            continue
        for z0 in _rational_roots(h):
            point = (x0, y0, z0)
            if all(p.evaluate(point) == 0 for p in grads):
                return point
    return None


# ----------------------------------------------------------------------
# Flex orders and profiles
# ----------------------------------------------------------------------


def flex_order_at(curve: PlaneCurve, point: Sequence[int | Fraction]) -> int:
    """Flex order r at a rational point of the curve (0 = not a flex).

    With v a second point of the tangent line, F(s*q + t*v) is the sum of
    s**(d-k) * t**k * (D_v**k F)(q) / k! over k, D_v = sum v_i d/dx_i; so
    r + 2, the order of vanishing of F along the line at q, is the first
    k with (D_v**k F)(q) != 0.
    """
    q = tuple(Fraction(c) for c in point)
    if len(q) != 3 or all(c == 0 for c in q):
        raise ValueError(f"not a projective point: {point}")
    form = curve.form
    if form.evaluate(q) != 0:
        raise PointNotOnCurveError(f"{point} does not lie on the curve")
    a, b, c = (p.evaluate(q) for p in gradient(form))
    # Vectors spanning the tangent line a*x + b*y + c*z = 0; the point
    # itself lies on it by the Euler identity.  They are all zero exactly
    # when the gradient vanishes at q.
    for v in ((b, -a, Fraction(0)), (c, Fraction(0), -a), (Fraction(0), c, -b)):
        cross = (
            q[1] * v[2] - q[2] * v[1],
            q[2] * v[0] - q[0] * v[2],
            q[0] * v[1] - q[1] * v[0],
        )
        if any(x != 0 for x in cross):
            break
    else:
        raise ValueError(f"curve is singular at {point}")
    derivative, k = form, 0
    while not derivative.is_zero():
        if derivative.evaluate(q) != 0:
            return k - 2
        derivative = sum(vi * derivative.diff(x) for vi, x in zip(v, form.variables))
        k += 1
    raise ValueError("tangent line is contained in the curve")


# Why a coordinate change is rejected, as counted by flex_profile.
CENTRE_ON_CURVE = "centre on curve"
HESSIAN_ZERO_AT_CENTRE = "Hessian zero at centre"
DEGREE_SHORT = "resultant degree short"
NOT_SEPARATING = "not separating"


def flex_profile(curve: PlaneCurve, seed: int = 0) -> FlexProfile:
    """Flex-order multiset of a smooth curve, deterministic given seed.

    Draws shears until one is certified by ``_profile_once``; its profile
    is proved.  A second, different shear is drawn as a cross check: it
    passes when its profile agrees or is certified itself, and a certified
    disagreement is a defect and raises.  The bound on the shear entries
    doubles after each rejected coordinate change only.
    """
    d = curve.degree
    form = _integer_form(curve.form)
    rng = random.Random(seed)
    bound = INITIAL_SHEAR_BOUND
    tried: set[tuple[int, int, int]] = set()
    proved: dict[int, int] | None = None
    rejected: Counter[str] = Counter()
    for _ in range(RETRY_BUDGET):
        outcome = _profile_once(form, d, random_shear(rng, bound, tried), proved)
        if isinstance(outcome, str):
            rejected[outcome] += 1
            bound *= 2
        elif proved is None:
            proved = outcome
        elif outcome != proved:
            raise RuntimeError(f"two certified flex profiles disagree: {proved}, {outcome}")
        else:
            return FlexProfile(d, proved)
    tally = ", ".join(f"{reason} x {n}" for reason, n in rejected.items())
    raise GenericityFailureError(
        f"no two agreeing certified flex profiles within {RETRY_BUDGET} coordinate"
        f" changes (rejected: {tally})"
    )


def _profile_once(
    form: MultiPoly,
    d: int,
    m: Sequence[Sequence[int]],
    proved: Mapping[int, int] | None = None,
) -> dict[int, int] | str:
    """Certified multiplicity profile under one coordinate change, or the
    reason the change is rejected.  A profile equal to ``proved``, one
    already certified under another change, needs no certificate of its own.

    The change puts the projection centre at (0:1:0).  When neither the
    curve nor its Hessian passes through it, both have constant leading
    coefficients in y; when the resultant R in x also has degree 3d(d-2),
    no intersection point lies on the line at infinity, and a root of R
    has multiplicity the sum of the intersection numbers in its fibre
    (Fulton, Algebraic Curves).  The projection separates when every fibre
    over a multiple root holds a single point; the multiplicities are then
    the flex orders.  A simple root needs nothing, and sres_1(x0) != 0 puts
    a single point over x0, so gcd(P, sres_1) = 1, with P the product of
    the squarefree factors of multiplicity >= 2, certifies the profile; it
    is checked factor by factor.
    """
    g = linear_substitute(form, m)
    if g.evaluate((0, 1, 0)) == 0:
        return CENTRE_ON_CURVE
    hess = hessian_determinant(g)
    if hess.is_zero() or hess.evaluate((0, 1, 0)) == 0:
        return HESSIAN_ZERO_AT_CENTRE
    if _degree_short(g, hess):
        return DEGREE_SHORT
    sres1: list[Callable[[], MultiPoly]] = []
    res = resultant(
        g.dehomogenize("z"), hess.dehomogenize("z"), "y", first_subresultant=sres1
    )
    if res.degree_in("x") != 3 * d * (d - 2):
        return DEGREE_SHORT
    factors = squarefree_decompose(_int_poly(res))
    counts = {mult: len(factor) - 1 for mult, factor in factors}
    repeated = [factor for mult, factor in factors if mult > 1]
    if repeated and counts != proved:
        s1 = _int_poly(sres1[0]())
        if any(len(poly_gcd(factor, s1)) > 1 for factor in repeated):
            return NOT_SEPARATING
    return counts


def _degree_short(g: MultiPoly, hess: MultiPoly) -> bool:
    """Whether Res_y(g(x, y, 1), hess(x, y, 1)) has degree below 3d(d-2): its
    top coefficient is Res_y(g(1, y, 0), hess(1, y, 0)) when the leading
    coefficients in y are constants (Fulton, Algebraic Curves, 5.3)."""
    on_line = (_int_poly(p.dehomogenize("x").coefficients_in("z")[0]) for p in (g, hess))
    return _prs_subresultants(*on_line)[0] == 0
