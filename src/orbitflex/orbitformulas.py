"""Closed-form predegree and degree formulas for orbit closures.

The predegree of the orbit closure of a smooth plane curve of degree d
(the degree multiplied by the order of the curve's projective stabilizer)
depends only on d and the flex profile.  Three independent routes compute
it:

* ``predegree_by_blowup_sum``   -- d^8 minus one correction term per
  blow-up center, summed over blow-up levels j >= 2 and flexes of order
  above j - 2;
* ``predegree_by_flex_orders``  -- a closed form in d plus one summand
  per flex order;
* ``predegree_by_power_sums``   -- a closed form in d and the four power
  sums f^(2)..f^(5) of the flex orders.

All three agree exactly on every valid profile, which the test suite
checks at random; the symbolic Chow engine re-derives the per-center
correction terms from scratch.

Every formula here is written generically in its degree argument, so it
accepts a plain integer as well as a polynomial-valued ``d`` (an element
of an exact polynomial ring), and the symbolic mode yields identities in
Z[d] checked by coefficient comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .exactpoly import MultiPoly, factor_integer
from .flexlab import FlexProfile, FlexSums, f_sums
from .flexlab import InconsistentProfileError  # noqa: F401 (part of this module's API)

DLike = Union[int, MultiPoly]


class NonDivisibleError(ValueError):
    """A claimed automorphism order does not divide the predegree."""


def d_symbol() -> MultiPoly:
    """The formal degree variable, for symbolic Z[d] computations."""
    return MultiPoly.var(("d",), "d")


def _require_degree(d: DLike, minimum: int = 3) -> None:
    if isinstance(d, int) and d < minimum:
        raise ValueError(f"degree must be at least {minimum}, got {d}")


# ----------------------------------------------------------------------
# Per-center correction terms (the blow-up summation route)
# ----------------------------------------------------------------------


def first_blowup_term(d: DLike) -> DLike:
    """Correction from the center of rank-one matrices over the curve."""
    return d * (10 * d - 9) * (14 * d**2 - 33 * d + 21)


def second_blowup_term(d: DLike) -> DLike:
    """Correction from the bundle of tangent-image directions."""
    return d * (2 * d - 3) * (322 * d**2 - 1257 * d + 1233)


def flex_blowup_term(d: DLike) -> DLike:
    """Per-flex correction at the first flex-supported center."""
    return 196 * d**2 - 960 * d + 1125


def higher_blowup_term(j: DLike, d: DLike) -> DLike:
    """Per-flex correction at blow-up level j >= 2 (level 2 is the flex term)."""
    return (
        30 * j**4
        - 96 * (d - 1) * j**3
        + 12 * (d - 1) * (7 * d - 11) * j**2
        + 84 * (d - 1) ** 2 * j
        - 7 * (2 * d - 3) * (22 * d - 39)
    )


def predegree_by_blowup_sum(d: int, profile: "FlexProfile | Mapping[int, int]") -> int:
    """Predegree as d^8 minus the per-center corrections.

    A flex of order r is hit by the blow-ups at levels j = 2 .. r + 1, so
    the level-j term is weighted by the number of flexes of order > j - 2.
    """
    _require_degree(d)
    flexes = FlexProfile(d, dict(profile.items()))
    total = d**8 - first_blowup_term(d) - second_blowup_term(d)
    for j in range(2, max(flexes.counts, default=0) + 2):
        total -= flexes.flexes_of_order_above(j - 2) * higher_blowup_term(j, d)
    return total


# ----------------------------------------------------------------------
# Closed forms in the flex data
# ----------------------------------------------------------------------


def predegree_by_flex_orders(d: int, profile: "FlexProfile | Mapping[int, int]") -> int:
    """Predegree from the profile, one summand per flex order."""
    _require_degree(d)
    items = FlexProfile(d, dict(profile.items())).items()
    total = d * (d - 2) * (
        d**6 + 2 * d**5 + 4 * d**4 + 8 * d**3 - 1356 * d**2 + 5280 * d - 5319
    )
    for r, n in items:
        total -= n * r * (r - 1) * (
            6 * r**3
            + (75 - 24 * d) * r**2
            + (28 * d**2 - 240 * d + 393) * r
            + 196 * d**2
            - 960 * d
            + 1125
        )
    return total


def predegree_by_power_sums(d: int, sums: FlexSums) -> int:
    """Predegree from d and the power sums f^(2)..f^(5) alone."""
    _require_degree(d)
    return (
        d**8
        - 8 * d * (98 * d**3 - 492 * d**2 + 843 * d - 486)
        - (168 * d**2 - 720 * d + 732) * sums.f2
        - (28 * d**2 - 216 * d + 318) * sums.f3
        - (69 - 24 * d) * sums.f4
        - 6 * sums.f5
    )


def simple_flex_predegree(d: DLike) -> DLike:
    """P(d): the predegree of a curve all of whose flexes are simple.

    Works symbolically (polynomial d) as well as numerically; for the
    general curve of degree >= 4 this is the orbit-closure degree itself.
    """
    _require_degree(d)
    return d**8 - 1372 * d**4 + 7992 * d**3 - 15879 * d**2 + 10638 * d


def flex_contribution(k: DLike, d: DLike) -> DLike:
    """Deviation from P(d) caused by one flex of order k (0 for k <= 1)."""
    if isinstance(k, int) and k < 0:
        raise ValueError(f"flex order must be nonnegative, got {k}")
    return -(
        k
        * (k - 1)
        * (
            (28 * k + 196) * d**2
            - (24 * k**2 + 240 * k + 960) * d
            + (6 * k**3 + 75 * k**2 + 393 * k + 1125)
        )
    )


def orbit_degree(predegree: int, aut_order: int) -> int:
    """Orbit-closure degree = predegree / |stabilizer|; must divide exactly."""
    if aut_order < 1:
        raise ValueError(f"automorphism order must be positive, got {aut_order}")
    if predegree % aut_order != 0:
        raise NonDivisibleError(
            f"automorphism order {aut_order} does not divide predegree {predegree}"
        )
    return predegree // aut_order


# ----------------------------------------------------------------------
# Named curve families
# ----------------------------------------------------------------------


def fermat_predegree(d: DLike) -> DLike:
    """Predegree of x^d + y^d + z^d, whose 3d flexes all have order d - 2."""
    _require_degree(d)
    return simple_flex_predegree(d) + 3 * d * flex_contribution(d - 2, d)


def fermat_predegree_factored(d: DLike) -> DLike:
    """The same predegree in product form (divisible by d^2 by inspection)."""
    _require_degree(d)
    return d**2 * (d - 2) * (d**5 + 2 * d**4 - 26 * d**3 - 7 * d**2 + 192 * d - 192)


def cyclic_curve_degree(d: int) -> int:
    """Orbit-closure degree of x^(d-1)y + y^(d-1)z + z^(d-1)x for d >= 5.

    The curve has three flexes of order d - 3, all other flexes simple,
    and a stabilizer of order 3(d^2 - 3d + 3).
    """
    _require_degree(d, minimum=5)
    pre = simple_flex_predegree(d) + 3 * flex_contribution(d - 3, d)
    return orbit_degree(pre, 3 * (d**2 - 3 * d + 3))


def cyclic_curve_degree_closed_form(d: DLike) -> DLike:
    """The published closed form for the cyclic family degree, times 3."""
    return d**6 + 3 * d**5 + 6 * d**4 - 21 * d**3 - 1354 * d**2 + 5463 * d - 5508


# ----------------------------------------------------------------------
# Table and automorphism bounds
# ----------------------------------------------------------------------


def table_rows(d_from: int, d_to: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """(d, P(d), prime factorization) for each degree in the range."""
    if not 3 <= d_from <= d_to:
        raise ValueError(f"need 3 <= d_from <= d_to, got {d_from}..{d_to}")
    out = []
    for d in range(d_from, d_to + 1):
        p = simple_flex_predegree(d)
        out.append((d, p, factor_integer(p)))
    return out


# Degrees where the Hurwitz formula rules out one extra prime beyond the
# generic bound p <= 2g + 1.
_HURWITZ_EXCLUSIONS = {4: 5, 6: 17, 10: 59}

AUT_BOUND_RANGE = (3, 10)


def aut_lcm_bound(d: int) -> int:
    """Upper bound for the l.c.m. of stabilizer orders of smooth curves of
    degree d with only simple flexes.

    Starting from P(d), every prime power p^a with p > 2g + 1 = d^2-3d+3
    is removed (no automorphism of such prime order exists on a curve of
    genus g), along with the hand-verified Hurwitz exclusions for
    d = 4, 6, 10.  Verified range: 3 <= d <= 10.
    """
    lo, hi = AUT_BOUND_RANGE
    if not lo <= d <= hi:
        raise ValueError(f"automorphism bound is only verified for {lo} <= d <= {hi}")
    genus_bound = d**2 - 3 * d + 3
    excluded = _HURWITZ_EXCLUSIONS.get(d)
    out = 1
    for p, e in factor_integer(simple_flex_predegree(d)):
        if p > genus_bound or p == excluded:
            continue
        out *= p**e
    return out


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PredegreeReport:
    """Predegree of one curve with the per-route values and derived data."""

    degree: int
    profile: FlexProfile
    sums: FlexSums
    predegree: int
    routes: dict[str, int]
    factorization: list[tuple[int, int]]
    aut_order: int | None = None
    orbit_degree: int | None = None


def build_report(
    d: int,
    profile: "FlexProfile | Mapping[int, int]",
    aut_order: int | None = None,
) -> PredegreeReport:
    """Compute the predegree by all three routes and package the result.

    Raises RuntimeError if the routes ever disagree (they cannot, unless
    the implementation is broken) and NonDivisibleError when a supplied
    automorphism order fails the divisibility constraint.
    """
    if not isinstance(profile, FlexProfile):
        profile = FlexProfile(d, dict(profile))
    sums = f_sums(profile)
    routes = {
        "blowup_sum": predegree_by_blowup_sum(d, profile),
        "flex_orders": predegree_by_flex_orders(d, profile),
        "power_sums": predegree_by_power_sums(d, sums),
    }
    values = set(routes.values())
    if len(values) != 1:
        raise RuntimeError(f"predegree routes disagree: {routes}")
    pre = values.pop()
    degree = orbit_degree(pre, aut_order) if aut_order is not None else None
    return PredegreeReport(
        degree=d,
        profile=profile,
        sums=sums,
        predegree=pre,
        routes=routes,
        factorization=factor_integer(pre),
        aut_order=aut_order,
        orbit_degree=degree,
    )
