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
both formal).  Integration happens through pushforward tables that
replace powers of a fiber class by classes on the base of the relevant
projective bundle -- base classes pass through multiplicatively by the
projection formula -- followed by evaluation of the degree-3 monomials in
k, h on the dual-plane x curve base (k^2*h evaluates to d, everything
else to 0) or of k^2 on a plane (evaluates to 1).

Four centers occur.  Their dimensions, point-condition pullbacks and
normal-bundle Chern classes are hard-wired data; the expansions, the
pushforwards, and the closed-form answers are all derived here and
checked as exact polynomial identities by ``verify_identities``.

    name       dim   point-condition      c(normal bundle)
    "first"     3    d*k + d*h            (1+k+h)^9 (1+d*h) / ((1+k)^3 (1+h)^3)
    "second"    4    d*k + d*h - e        (1+e)(1+k+d*h-e)^3
    "flex"      3    d*k - 2e             (1+e)(1+k-2e)^3
    "higher"    4    d*k - 2e - (j-2)f    (1+f)(1+k-2e-(j-2)f)^3

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
from typing import Callable, Mapping

from .exactpoly import MultiPoly
from .flexlab import FlexProfile
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

# The largest center dimension.  Truncating every class here is exact:
# the degree-k part of a product or an inverse depends only on the parts
# of degree <= k of its factors, and an integral reads only the part in
# its center's dimension.
TOP_DEGREE = 4

CoeffPoly = MultiPoly  # always over COEFF_VARS in this module


def coeff_const(n: int | Fraction) -> CoeffPoly:
    return MultiPoly.const(COEFF_VARS, n)


def coeff_d() -> CoeffPoly:
    return MultiPoly.var(COEFF_VARS, "d")


def coeff_j() -> CoeffPoly:
    return MultiPoly.var(COEFF_VARS, "j")


class NonUnitDenominatorError(ValueError):
    """Inversion of a class whose constant term is not 1."""


Monomial = tuple[int, int, int, int]  # exponents of k, h, e, f


class GradedClass:
    """Element of the graded ring on k, h, e, f over Z[d, j], truncated
    above degree ``TOP_DEGREE``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, CoeffPoly]):
        self._terms = {
            mono: coeff
            for mono, coeff in terms.items()
            if sum(mono) <= TOP_DEGREE and not coeff.is_zero()
        }

    # -- construction --------------------------------------------------

    @classmethod
    def unit(cls) -> "GradedClass":
        return cls({(0, 0, 0, 0): coeff_const(1)})

    @classmethod
    def generator(cls, name: str) -> "GradedClass":
        i = GENERATORS.index(name)
        mono = tuple(1 if m == i else 0 for m in range(4))
        return cls({mono: coeff_const(1)})

    @classmethod
    def zero(cls) -> "GradedClass":
        return cls({})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, CoeffPoly]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> CoeffPoly:
        return self._terms.get((0, 0, 0, 0), coeff_const(0))

    def graded_part(self, degree: int) -> "GradedClass":
        return GradedClass({m: c for m, c in self._terms.items() if sum(m) == degree})

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
            return GradedClass({(0, 0, 0, 0): coeff_const(other)})
        if isinstance(other, MultiPoly):
            return GradedClass({(0, 0, 0, 0): other})
        return None

    def __add__(self, other: object) -> "GradedClass":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in o._terms.items():
            out[m] = out[m] + c if m in out else c
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
        out: dict[Monomial, CoeffPoly] = {}
        for ma, ca in self._terms.items():
            for mb, cb in o._terms.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2], ma[3] + mb[3])
                if sum(m) > TOP_DEGREE:
                    continue
                prod = ca * cb
                out[m] = out[m] + prod if m in out else prod
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
        if self.constant_term() != coeff_const(1):
            raise NonUnitDenominatorError(
                f"constant term is {self.constant_term()}, not 1"
            )
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
        for mono in sorted(self._terms, key=lambda m: (sum(m), m)):
            factors = [
                g if p == 1 else f"{g}^{p}"
                for g, p in zip(GENERATORS, mono)
                if p > 0
            ]
            coeff = str(self._terms[mono])
            lhs = f"({coeff})" if len(self._terms[mono]) > 1 else coeff
            bits.append("*".join(([lhs] if lhs != "1" or not factors else []) + factors) or "1")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"GradedClass({self!s})"


# ----------------------------------------------------------------------
# Pushforward tables
# ----------------------------------------------------------------------


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

    def apply(self, cls: GradedClass) -> GradedClass:
        out = GradedClass.zero()
        for mono, coeff in cls.terms.items():
            i = mono[self.fiber]
            if i >= len(self.images):
                raise ValueError(
                    f"no pushforward image for fiber power {i} in table {self.name}"
                )
            base = list(mono)
            base[self.fiber] = 0
            carrier = GradedClass({tuple(base): coeff})
            out = out + carrier * self.images[i]
        return out


def _table_first_directions() -> PushforwardTable:
    """e-powers down the direction bundle over the dual-plane x curve base."""
    d = coeff_d()
    k, h = GradedClass.generator("k"), GradedClass.generator("h")
    return PushforwardTable(
        name="first-directions",
        fiber=2,
        images=(
            GradedClass.zero(),
            -GradedClass.unit(),
            -3 * k + (2 * d - 6) * h,
            -6 * k**2 + (9 * d - 27) * k * h,
            (24 * d - 72) * k**2 * h,
        ),
    )


def _table_flex_plane() -> PushforwardTable:
    """e-powers down the flex-supported bundle; h restricts to 0 there."""
    k = GradedClass.generator("k")
    return PushforwardTable(
        name="flex-plane",
        fiber=2,
        images=(GradedClass.zero(), -GradedClass.unit(), -3 * k, -6 * k**2),
    )


def _table_higher() -> PushforwardTable:
    """f-powers down one level of the iterated flex blow-ups."""
    e = GradedClass.generator("e")
    return PushforwardTable(
        name="higher-levels",
        fiber=3,
        images=(GradedClass.zero(), -GradedClass.unit(), -e, -(e**2), -(e**3)),
    )


# The one fiber-class substitution of each stage that has one; shared by
# ``pushforward`` and ``_center_spec``.
_STAGE_TABLES: dict[str, Callable[[], PushforwardTable]] = {
    "second": _table_first_directions,
    "flex": _table_flex_plane,
    "higher": _table_higher,
}


def _evaluate_on_base(cls: GradedClass) -> CoeffPoly:
    """Integrate a degree-3 class in k, h over the dual-plane x curve base:
    k^2*h evaluates to d; k^3, k*h^2, h^3 evaluate to 0."""
    total = coeff_const(0)
    for mono, coeff in cls.terms.items():
        if mono[2] or mono[3] or sum(mono) != 3:
            raise ValueError(f"cannot integrate monomial {mono} over the base")
        if mono[:2] == (2, 1):
            total = total + coeff * coeff_d()
    return total


def _evaluate_on_plane(cls: GradedClass) -> CoeffPoly:
    """Integrate a degree-2 class in k over a plane: k^2 evaluates to 1."""
    total = coeff_const(0)
    for mono, coeff in cls.terms.items():
        if mono != (2, 0, 0, 0):
            raise ValueError(f"cannot integrate monomial {mono} over a plane")
        total = total + coeff
    return total


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
    evaluate: Callable[[GradedClass], CoeffPoly]

    def integrate(self, cls: GradedClass) -> CoeffPoly:
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
        tables = (_STAGE_TABLES["second"](),)
        return CenterSpec(name, 4, d * k + d * h - e, chern, tables, _evaluate_on_base)
    if name == "flex":
        chern = (one + e) * (one + k - 2 * e) ** 3
        tables = (_STAGE_TABLES["flex"](),)
        return CenterSpec(name, 3, d * k - 2 * e, chern, tables, _evaluate_on_plane)
    if name == "higher":
        point = d * k - 2 * e - (j - 2) * f
        chern = (one + f) * (one + k - 2 * e - (j - 2) * f) ** 3
        tables = (_STAGE_TABLES["higher"](), _STAGE_TABLES["flex"]())
        return CenterSpec(name, 4, point, chern, tables, _evaluate_on_plane)
    raise KeyError(name)


def pushforward(cls: GradedClass, stage: str) -> GradedClass:
    """One fiber-class substitution step on the named stage.

    The "second" stage pushes powers of e to the dual-plane x curve base,
    "flex" pushes powers of e to a plane, "higher" pushes powers of f one
    level down; base classes carry through by the projection formula.
    """
    if stage not in _STAGE_TABLES:
        raise ValueError(f"no single pushforward table for stage {stage!r}")
    return _STAGE_TABLES[stage]().apply(cls)


def correction_integral(stage_name: str) -> CoeffPoly:
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


def _d_only(p: CoeffPoly) -> MultiPoly:
    """Reinterpret a Z[d, j] polynomial not involving j as Z[d]."""
    out: dict[tuple[int], Fraction] = {}
    for (ed, ej), c in p.terms.items():
        if ej:
            raise ValueError(f"polynomial unexpectedly involves j: {p}")
        out[(ed,)] = c
    return MultiPoly(("d",), out)


def _simple_flex_assembly(
    i_first: CoeffPoly, i_second: CoeffPoly, i_flex: CoeffPoly
) -> MultiPoly:
    """d^8 minus the two base corrections and 3d(d-2) flex corrections, in Z[d]."""
    d = coeff_d()
    return _d_only(d**8 - i_first - i_second - 3 * d * (d - 2) * i_flex)


def predegree_via_chow(
    d: int | None, profile: "FlexProfile | Mapping[int, int] | None" = None
) -> "int | MultiPoly":
    """Predegree assembled from the derived correction integrals.

    Numeric mode: ``d`` an integer with a valid profile for it.  Symbolic
    mode: ``d = None`` with ``profile = None`` meaning the all-simple
    profile of 3d(d-2) simple flexes; returns the polynomial in Z[d].
    """
    if d is None:
        if profile is not None:
            raise ValueError("symbolic mode supports only the all-simple profile")
        return _simple_flex_assembly(
            correction_integral("first"),
            correction_integral("second"),
            correction_integral("flex"),
        )
    if profile is None:
        raise ValueError("numeric mode needs a flex profile")
    flexes = FlexProfile(d, dict(profile.items()))
    i_higher = correction_integral("higher")
    total = (
        Fraction(d) ** 8
        - correction_integral("first").evaluate((d, 0))
        - correction_integral("second").evaluate((d, 0))
    )
    for j in range(2, max(flexes.counts, default=0) + 2):
        total -= flexes.flexes_of_order_above(j - 2) * i_higher.evaluate((d, j))
    if total.denominator != 1:
        raise RuntimeError(f"assembled predegree {total} is not an integer")
    return int(total)


def verify_identities() -> list[tuple[str, bool, str, str]]:
    """Derive each correction integral once and check the closed forms.

    Returns (name, passed, derived, expected) tuples; every comparison is
    an exact polynomial identity in Z[d] or Z[d, j].
    """
    d = coeff_d()
    j = coeff_j()
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
