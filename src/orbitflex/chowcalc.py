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
both formal).  A class is one map from exponent tuples (k, h, e, f, d, j)
to plain numbers; d and j carry degree 0.

Integration pushes powers of a fiber class down a P^1-bundle P(E) -> B
(base classes pass through by the projection formula) and ends on the
dual plane x curve (k^3 = h^2 = 0, k^2*h evaluates to d) or on a plane
(k^3 = h = 0, k^2 evaluates to 1).  The exceptional class restricts to
c1(O(-1)) on each fiber, so its i-th power pushes down to
(-1)^i s_{i-1}(E), with s(E) = 1/c(E) the Segre class (Fulton,
*Intersection Theory*, 3.1-3.2): each table is derived from c(E) alone.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

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

Coeff = int | Fraction
Monomial = tuple[int, int, int, int, int, int]  # exponents of k, h, e, f, d, j
_ONE: Monomial = (0, 0, 0, 0, 0, 0)


def _degree(mono: Monomial) -> int:
    return mono[0] + mono[1] + mono[2] + mono[3]


def coeff_d() -> "GradedClass":
    """The curve degree d, as a class of degree 0."""
    return GradedClass({(0, 0, 0, 0, 1, 0): 1})


def coeff_j() -> "GradedClass":
    """The blow-up level j, as a class of degree 0."""
    return GradedClass({(0, 0, 0, 0, 0, 1): 1})


class NonUnitDenominatorError(ValueError):
    """Inversion of a class whose constant term is not 1."""


class GradedClass:
    """Element of the graded ring on k, h, e, f over Z[d, j], truncated
    above degree ``TOP_DEGREE``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff]):
        self._terms = {m: c for m, c in terms.items() if c and _degree(m) <= TOP_DEGREE}

    # -- construction --------------------------------------------------

    @classmethod
    def unit(cls) -> "GradedClass":
        return cls({_ONE: 1})

    @classmethod
    def generator(cls, name: str) -> "GradedClass":
        i = GENERATORS.index(name)
        return cls({tuple(1 if m == i else 0 for m in range(6)): 1})

    @classmethod
    def zero(cls) -> "GradedClass":
        return cls({})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Coeff]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def graded_part(self, degree: int) -> "GradedClass":
        return GradedClass({m: c for m, c in self._terms.items() if _degree(m) == degree})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations -------------------------------------------------

    def _coerce(self, other: object) -> "GradedClass | None":
        if isinstance(other, GradedClass):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedClass({_ONE: other})
        return None

    def __add__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in o._terms.items():
            out[m] = out.get(m, 0) + c
        return GradedClass(out)

    __radd__ = __add__

    def __neg__(self) -> "GradedClass":
        return GradedClass({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Monomial, Coeff] = {}
        right = [(mb, cb, _degree(mb)) for mb, cb in o._terms.items()]
        for ma, ca in self._terms.items():
            room = TOP_DEGREE - _degree(ma)
            for mb, cb, db in right:
                if db > room:
                    continue
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2],
                     ma[3] + mb[3], ma[4] + mb[4], ma[5] + mb[5])
                out[m] = out.get(m, 0) + ca * cb
        return GradedClass(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedClass":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = GradedClass.unit()
        for _ in range(n):
            result = result * self
        return result

    def inverse(self) -> "GradedClass":
        """Reciprocal by geometric series; requires constant term 1."""
        constant = self.graded_part(0)
        if constant != GradedClass.unit():
            raise NonUnitDenominatorError(f"constant term is {constant}, not 1")
        positive = self - 1
        result = GradedClass.unit()
        power = GradedClass.unit()
        for i in range(1, TOP_DEGREE + 1):
            power = power * positive
            if power.is_zero():
                break
            result = result + (-1) ** i * power
        return result

    def __truediv__(self, other: "GradedClass") -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for mono in sorted(self._terms, key=lambda m: (_degree(m), m)):
            factors = [g if p == 1 else f"{g}^{p}" for g, p in zip(VARIABLES, mono) if p]
            coeff = self._terms[mono]
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            bits.append("*".join(factors))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"GradedClass({self!s})"


# ----------------------------------------------------------------------
# Bases and pushforward tables
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
        return GradedClass(kept)

    def integrate(self, cls: GradedClass) -> MultiPoly:
        """The integral of a class of the base's dimension in k, h, over Z[d, j]."""
        out: dict[tuple[int, int], Coeff] = {}
        for mono, coeff in cls.terms.items():
            if mono[2] or mono[3] or mono[0] + mono[1] != self.a + self.b:
                raise ValueError(f"cannot integrate monomial {mono} over the base")
            if mono[:2] == (self.a, self.b):
                key = (mono[4] + self.v, mono[5])
                out[key] = out.get(key, 0) + coeff
        return MultiPoly(COEFF_VARS, out)


_DUAL_PLANE_X_CURVE = _Base(2, 1, 1)  # k^3 = h^2 = 0; k^2*h evaluates to d
_PLANE = _Base(2, 0, 0)  # k^3 = h = 0; k^2 evaluates to 1

_evaluate_on_base = _DUAL_PLANE_X_CURVE.integrate
_evaluate_on_plane = _PLANE.integrate


@dataclass(frozen=True)
class PushforwardTable:
    """Substitution of powers of one fiber class by base classes.

    ``fiber`` is the index of the fiber generator in (k, h, e, f);
    ``images`` lists the image of fiber^i at position i.  Base factors of
    a monomial multiply the image unchanged (projection formula).
    """

    name: str
    fiber: int
    images: tuple[GradedClass, ...]

    @classmethod
    def from_chern(
        cls, name: str, fiber: str, chern: GradedClass, base: _Base
    ) -> "PushforwardTable":
        """The table of a P^1-bundle P(E) over ``base``, from c(E): fiber^i
        goes to (-1)^i s_{i-1}(E), with s(E) = 1/c(E) reduced by the base
        relations."""
        segre = base.reduce(chern.inverse())
        images = [GradedClass.zero()]
        images += [(-1) ** i * segre.graded_part(i - 1) for i in range(1, TOP_DEGREE + 1)]
        return cls(name, GENERATORS.index(fiber), tuple(images))

    def apply(self, cls: GradedClass) -> GradedClass:
        out = GradedClass.zero()
        for mono, coeff in cls.terms.items():
            i = mono[self.fiber]
            if i >= len(self.images):
                raise ValueError(f"no pushforward image for fiber power {i} in table {self.name}")
            base = mono[: self.fiber] + (0,) + mono[self.fiber + 1 :]
            out = out + GradedClass({base: coeff}) * self.images[i]
        return out


def _stage_table(stage: str) -> PushforwardTable:
    """The one fiber-class substitution of a stage, from the c(E) column
    of the module docstring."""
    d = coeff_d()
    one = GradedClass.unit()
    k, h, e = (GradedClass.generator(g) for g in ("k", "h", "e"))
    if stage == "second":
        chern = one + 3 * k - (2 * d - 6) * h + 3 * k**2 - (3 * d - 9) * k * h
        return PushforwardTable.from_chern("first-directions", "e", chern, _DUAL_PLANE_X_CURVE)
    if stage == "flex":
        return PushforwardTable.from_chern("flex-plane", "e", one + 3 * k + 3 * k**2, _PLANE)
    if stage == "higher":
        # The level below lies over a plane, so the plane's relations hold there.
        return PushforwardTable.from_chern("higher-levels", "f", one + e, _PLANE)
    raise ValueError(f"no single pushforward table for stage {stage!r}")


# ----------------------------------------------------------------------
# The four centers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CenterSpec:
    """Intersection-theoretic data of one blow-up center.

    A class on the center is integrated by applying ``tables`` in order
    and then ``evaluate`` on the final base.
    """

    name: str
    dim: int
    point_class: GradedClass
    normal_chern: GradedClass
    tables: tuple[PushforwardTable, ...]
    evaluate: Callable[[GradedClass], MultiPoly]

    def integrate(self, cls: GradedClass) -> MultiPoly:
        for table in self.tables:
            cls = table.apply(cls)
        return self.evaluate(cls)


def _center_spec(name: str) -> CenterSpec:
    """Build the data of one center, as tabulated in the module docstring."""
    d = coeff_d()
    j = coeff_j()
    one = GradedClass.unit()
    k, h, e, f = (GradedClass.generator(g) for g in GENERATORS)
    if name == "first":
        chern = (one + k + h) ** 9 * (one + d * h) / ((one + k) ** 3 * (one + h) ** 3)
        return CenterSpec(name, 3, d * k + d * h, chern, (), _evaluate_on_base)
    if name == "second":
        chern = (one + e) * (one + k + d * h - e) ** 3
        tables = (_stage_table("second"),)
        return CenterSpec(name, 4, d * k + d * h - e, chern, tables, _evaluate_on_base)
    if name == "flex":
        chern = (one + e) * (one + k - 2 * e) ** 3
        tables = (_stage_table("flex"),)
        return CenterSpec(name, 3, d * k - 2 * e, chern, tables, _evaluate_on_plane)
    if name == "higher":
        point = d * k - 2 * e - (j - 2) * f
        chern = (one + f) * (one + k - 2 * e - (j - 2) * f) ** 3
        tables = (_stage_table("higher"), _stage_table("flex"))
        return CenterSpec(name, 4, point, chern, tables, _evaluate_on_plane)
    raise KeyError(name)


def correction_integral(stage_name: str) -> MultiPoly:
    """The per-center correction, exactly, as an element of Z[d, j].

    Only the "higher" stage actually involves j; the others return
    polynomials in d alone.
    """
    stage = _center_spec(stage_name)
    integrand = (GradedClass.unit() + stage.point_class) ** 8 / stage.normal_chern
    return stage.integrate(integrand.graded_part(stage.dim))


# ----------------------------------------------------------------------
# Assembly and identity checks
# ----------------------------------------------------------------------


def _d_only(p: MultiPoly) -> MultiPoly:
    """Reinterpret a Z[d, j] polynomial not involving j as Z[d]."""
    out: dict[tuple[int], Fraction] = {}
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
    at_level_2: dict[tuple[int, int], int | Fraction] = {}
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
