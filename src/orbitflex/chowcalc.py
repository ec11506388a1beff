"""Symbolic derivation of the blow-up correction integrals.

The predegree computation resolves the translation map by a sequence of
blow-ups of the P^8 of 3x3 matrices; each blow-up center subtracts a
correction integral

    integral over the center of  (1 + pulled-back point-condition)^8
                                 / (total Chern class of the normal bundle),

of which only the piece in the center's dimension survives.  This module
mechanizes those integrals from first principles: classes live in a
truncated graded ring on four degree-1 generators

    k  -- hyperplane class of the dual plane of kernel lines,
    h  -- hyperplane class restricted to the curve factor,
    e  -- exceptional class of the first blow-up (pulled back),
    f  -- exceptional class of the later flex blow-ups (pulled back),

with coefficients in Z[d, j] (d the curve degree, j the blow-up level,
both formal).  A class is a ``MultiPoly`` over (k, h, e, f, d, j) truncated
above degree 4 in k, h, e, f; d and j carry degree 0.

Integration pushes powers of a fiber class down a P^1-bundle P(E) -> B
(base classes pass through by the projection formula) and ends on the
dual plane x curve (k^3 = h^2 = 0, k^2*h evaluates to d) or on a plane
(k^3 = h = 0, k^2 evaluates to 1).  The exceptional class restricts to
c1(O(-1)) on each fiber, so its i-th power pushes down to
(-1)^i s_{i-1}(E), with s(E) = 1/c(E) the Segre class (Fulton,
*Intersection Theory*, 3.1-3.2): each image is derived from c(E) alone.

Four centers occur.  Their dimensions, point-condition pullbacks,
normal-bundle Chern classes and the classes c(E) of the bundles pushed
down are hard-wired data; the expansions, the pushforwards, and the
closed-form answers are all derived here and checked as exact polynomial
identities by ``verify_identities``.

    name      dim  point-condition     c(normal bundle)
    "first"    3   d*k + d*h           (1+k+h)^9 (1+d*h) / ((1+k)^3 (1+h)^3)
    "second"   4   d*k + d*h - e       (1+e)(1+k+d*h-e)^3
    "flex"     3   d*k - 2e            (1+e)(1+k-2e)^3
    "higher"   4   d*k - 2e - (j-2)f   (1+f)(1+k-2e-(j-2)f)^3

    name      c(E) of each bundle pushed down, in order
    "first"    none: the center is the dual plane x curve itself
    "second"   1 + 3k - (2d-6)h + 3k^2 - (3d-9)k*h    (e to dual plane x curve)
    "flex"     1 + 3k + 3k^2                          (e to a plane)
    "higher"   1 + e, then 1 + 3k + 3k^2              (f one level down, then e)

Each c(E) is read back from the images of e^i and f^i that earlier
releases tabulated by hand; the tests keep those images as the oracle.
1 + 3k + 3k^2 is c(T) for T the tangent bundle of a plane with hyperplane
class k; the first-directions class is c(T (x) T_C) for T that of the dual
plane, as c1(T_C) = -(d-3)h by adjunction and h^2 = 0; 1 + e is c(O + O(e)).

Every class is truncated above ``TOP_DEGREE`` = 4, the largest center
dimension, which is exact for all four centers (see the constant).  A
center's data is built only when its integral is derived, so importing
the module does no algebra, and ``verify_identities`` derives each
integral once per call, keeping nothing between calls.

The "flex" center recurs once per flex; the "higher" center at level j
recurs once per flex of order above j - 2.  Setting j = 2 in the derived
"higher" integral must reproduce the "flex" integral, and assembling
d^8 minus all corrections for an all-simple-flex curve must reproduce
the closed form P(d); both are part of the identity checks.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .exactpoly import MultiPoly
from .orbitformulas import (
    cyclic_curve_degree_closed_form,
    fermat_predegree,
    fermat_predegree_factored,
    first_blowup_term,
    flex_blowup_term,
    flex_contribution,
    higher_blowup_term,
    second_blowup_term,
    simple_flex_predegree,
)

COEFF_VARS = ("d", "j")
GENERATORS = ("k", "h", "e", "f")
VARIABLES = GENERATORS + COEFF_VARS  # the exponent order of a monomial

# The largest center dimension.  Truncating every class here is exact:
# the degree-k part of a product or an inverse depends only on the parts
# of degree <= k of its factors, and an integral reads only the part in
# its center's dimension.
TOP_DEGREE = 4

Monomial = tuple[int, int, int, int, int, int]  # exponents of k, h, e, f, d, j


def _degree(mono: Monomial) -> int:
    return mono[0] + mono[1] + mono[2] + mono[3]


def variable(name: str) -> "GradedClass":
    """One of k, h, e, f (degree 1) or d, j (degree 0), as a class."""
    return GradedClass.var(VARIABLES, name)


class NonUnitDenominatorError(ValueError):
    """Inversion of a class whose constant term is not 1."""


class GradedClass(MultiPoly):
    """Element of the graded ring on k, h, e, f over Z[d, j], truncated
    above degree ``TOP_DEGREE``: a ``MultiPoly`` over ``VARIABLES`` whose
    products, inverses and quotients drop every term above that degree."""

    __slots__ = ()

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, int]):
        # The engine builds every class from int coefficients itself, so
        # MultiPoly's per-term validation is skipped.
        if tuple(variables) != VARIABLES:
            raise ValueError(f"a class lives over {VARIABLES}, not {variables}")
        kept = {m: c for m, c in terms.items() if c and _degree(m) <= TOP_DEGREE}
        object.__setattr__(self, "variables", VARIABLES)
        object.__setattr__(self, "_terms", kept)
        object.__setattr__(self, "_hash", None)

    def graded_part(self, degree: int) -> "GradedClass":
        return GradedClass(VARIABLES, {m: c for m, c in self._terms.items() if _degree(m) == degree})

    def __mul__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Monomial, int] = {}
        right = [(mb, cb, _degree(mb)) for mb, cb in o._terms.items()]
        for ma, ca in self._terms.items():
            room = TOP_DEGREE - _degree(ma)
            for mb, cb, db in right:
                if db > room:
                    continue
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2],
                     ma[3] + mb[3], ma[4] + mb[4], ma[5] + mb[5])
                out[m] = out.get(m, 0) + ca * cb
        return GradedClass(VARIABLES, out)

    __rmul__ = __mul__

    def inverse(self) -> "GradedClass":
        """Reciprocal by geometric series; requires constant term 1."""
        constant = self.graded_part(0)
        if constant != 1:
            raise NonUnitDenominatorError(f"constant term is {constant}, not 1")
        positive = self - 1
        result = power = GradedClass.const(VARIABLES, 1)
        for i in range(1, TOP_DEGREE + 1):
            power = power * positive
            if power.is_zero():
                break
            result = result + (-1) ** i * power
        return result

    def __truediv__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()


# ----------------------------------------------------------------------
# Bases, push-downs and the four centers
# ----------------------------------------------------------------------


class _Base(NamedTuple):
    """A base that integrals end on, given by its point class k^a*h^b,
    which integrates to d^v.  The base relations: a monomial in k, h with
    an exponent above the point class's vanishes."""

    a: int
    b: int
    v: int

    def reduce(self, cls: GradedClass) -> GradedClass:
        kept = {m: c for m, c in cls.terms.items() if m[0] <= self.a and m[1] <= self.b}
        return GradedClass(VARIABLES, kept)

    def integrate(self, cls: GradedClass) -> MultiPoly:
        """The integral of a class of the base's dimension in k, h, over Z[d, j]."""
        out: dict[tuple[int, int], int] = {}
        for mono, coeff in cls.terms.items():
            if mono[2] or mono[3] or mono[0] + mono[1] != self.a + self.b:
                raise ValueError(f"cannot integrate monomial {mono} over the base")
            if mono[:2] == (self.a, self.b):
                key = (mono[4] + self.v, mono[5])
                out[key] = out.get(key, 0) + coeff
        return MultiPoly(COEFF_VARS, out)


_DUAL_PLANE_X_CURVE = _Base(2, 1, 1)  # k^3 = h^2 = 0; k^2*h evaluates to d
_PLANE = _Base(2, 0, 0)  # k^3 = h = 0; k^2 evaluates to 1


def _push_down(cls: GradedClass, fiber: str, chern: GradedClass, base: _Base) -> GradedClass:
    """Push a class down the P^1-bundle P(E) -> ``base`` whose fiber class
    is the generator ``fiber`` and whose c(E) is ``chern``: fiber^i goes to
    (-1)^i s_{i-1}(E), with s(E) = 1/c(E) reduced by the base relations,
    and base factors pass through unchanged (projection formula)."""
    segre = base.reduce(chern.inverse())
    images = [GradedClass.zero(VARIABLES)]
    images += [(-1) ** i * segre.graded_part(i - 1) for i in range(1, TOP_DEGREE + 1)]
    at = GENERATORS.index(fiber)
    out = GradedClass.zero(VARIABLES)
    for mono, coeff in cls.terms.items():
        rest = mono[:at] + (0,) + mono[at + 1 :]
        out = out + GradedClass(VARIABLES, {rest: coeff}) * images[mono[at]]
    return out


class Center(NamedTuple):
    """Intersection-theoretic data of one blow-up center: a class on it is
    integrated by pushing it down each (fiber, c(E), base) of ``bundles``
    in order and then integrating over ``base``."""

    dim: int
    point_class: GradedClass
    normal_chern: GradedClass
    bundles: tuple[tuple[str, GradedClass, _Base], ...]
    base: _Base

    def integrate(self, cls: GradedClass) -> MultiPoly:
        for bundle in self.bundles:
            cls = _push_down(cls, *bundle)
        return self.base.integrate(cls)


def _center(name: str) -> Center:
    """Build the data of one center, as tabulated in the module docstring."""
    k, h, e, f, d, j = (variable(v) for v in VARIABLES)
    plane_tangent = ("e", 1 + 3 * k + 3 * k**2, _PLANE)
    if name == "first":
        chern = (1 + k + h) ** 9 * (1 + d * h) / ((1 + k) ** 3 * (1 + h) ** 3)
        return Center(3, d * k + d * h, chern, (), _DUAL_PLANE_X_CURVE)
    if name == "second":
        directions = 1 + 3 * k - (2 * d - 6) * h + 3 * k**2 - (3 * d - 9) * k * h
        chern = (1 + e) * (1 + k + d * h - e) ** 3
        bundles = (("e", directions, _DUAL_PLANE_X_CURVE),)
        return Center(4, d * k + d * h - e, chern, bundles, _DUAL_PLANE_X_CURVE)
    if name == "flex":
        chern = (1 + e) * (1 + k - 2 * e) ** 3
        return Center(3, d * k - 2 * e, chern, (plane_tangent,), _PLANE)
    if name == "higher":
        point = d * k - 2 * e - (j - 2) * f
        chern = (1 + f) * (1 + k - 2 * e - (j - 2) * f) ** 3
        # The level below lies over a plane, so the plane's relations hold there.
        return Center(4, point, chern, (("f", 1 + e, _PLANE), plane_tangent), _PLANE)
    raise KeyError(name)


def correction_integral(stage_name: str) -> MultiPoly:
    """The per-center correction, exactly, as an element of Z[d, j].

    Only the "higher" stage actually involves j; the others return
    polynomials in d alone.
    """
    center = _center(stage_name)
    integrand = (1 + center.point_class) ** 8 / center.normal_chern
    return center.integrate(integrand.graded_part(center.dim))


# ----------------------------------------------------------------------
# Assembly and identity checks
# ----------------------------------------------------------------------


def _d_only(p: MultiPoly) -> MultiPoly:
    """Reinterpret a Z[d, j] polynomial not involving j as Z[d]."""
    out: dict[tuple[int], int] = {}
    for (ed, ej), c in p.terms.items():
        if ej:
            raise ValueError(f"polynomial unexpectedly involves j: {p}")
        out[(ed,)] = c
    return MultiPoly(("d",), out)


def _simple_flex_assembly(
    i_first: MultiPoly, i_second: MultiPoly, i_flex: MultiPoly
) -> MultiPoly:
    """d^8 minus the two base corrections and 3d(d-2) flex corrections, in Z[d]."""
    d = MultiPoly.var(COEFF_VARS, "d")
    return _d_only(d**8 - i_first - i_second - 3 * d * (d - 2) * i_flex)


def verify_identities() -> list[tuple[str, bool, str, str]]:
    """Derive each correction integral once and check the closed forms.

    Returns (name, passed, derived, expected) tuples; every comparison is
    an exact polynomial identity in Z[d] or Z[d, j].
    """
    d, j = (MultiPoly.var(COEFF_VARS, v) for v in COEFF_VARS)
    checks: list[tuple[str, bool, str, str]] = []

    def record(name: str, derived: MultiPoly, expected: MultiPoly) -> None:
        checks.append((name, derived == expected, str(derived), str(expected)))

    i_first = correction_integral("first")
    i_second = correction_integral("second")
    i_flex = correction_integral("flex")
    i_higher = correction_integral("higher")

    record("first-center-integral", i_first, first_blowup_term(d))
    record("second-center-integral", i_second, second_blowup_term(d))
    record("flex-center-integral", i_flex, flex_blowup_term(d))
    record("higher-center-integral", i_higher, higher_blowup_term(j, d))
    at_level_2: dict[tuple[int, int], int] = {}
    for (a, k), c in i_higher.terms.items():
        at_level_2[a, 0] = at_level_2.get((a, 0), 0) + c * 2**k
    record("higher-at-level-2-matches-flex", MultiPoly(COEFF_VARS, at_level_2), i_flex)

    dp = MultiPoly.var(("d",), "d")
    assembled = _simple_flex_assembly(i_first, i_second, i_flex)
    record("predegree-assembly", assembled, simple_flex_predegree(dp))
    record(
        "simple-flex-factored-form",
        dp * (dp - 2) * (
            dp**6 + 2 * dp**5 + 4 * dp**4 + 8 * dp**3 - 1356 * dp**2 + 5280 * dp - 5319
        ),
        simple_flex_predegree(dp),
    )
    record(
        "fermat-family-identity",
        fermat_predegree(dp),
        fermat_predegree_factored(dp),
    )
    record(
        "cyclic-family-identity",
        simple_flex_predegree(dp) + 3 * flex_contribution(dp - 3, dp),
        (dp**2 - 3 * dp + 3) * cyclic_curve_degree_closed_form(dp),
    )
    return checks
