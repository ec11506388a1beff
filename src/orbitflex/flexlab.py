"""Smoothness checking and flex profiles of plane curves.

A point q of a smooth curve C is a flex of order r when the tangent line
at q meets C with intersection multiplicity r + 2; r = 1 is a simple
flex, r = 2 a hyperflex.  The weighted flex count of a smooth degree-d
curve is always 3d(d-2).

``flex_profile`` counts flexes of each order over the algebraic closure
without ever leaving exact integer arithmetic: flex orders equal the
local intersection multiplicities of the curve with its Hessian, and
after a random integer shear with small entries those multiplicities
are read off the squarefree decomposition of the curve-Hessian resultant.
Each coordinate change gives a record ``(reason, counts)`` whose reason
is None exactly when the change is certified: the resultant has degree
3d(d-2), which a resultant on the line z = 0 decides first, and the
projection separates the intersection points, which a squarefree
resultant proves at once and the first subresultant proves otherwise
(Gonzalez-Vega & El Kahoui 1996).  A certified profile is proved, and a
second shear must give the same counts.  Everything runs on Python
integers, deterministically given the seed.

From degree 7 on, given two CPUs, a forked child (``_beside``) computes
the second smoothness resultant, or the records of the projections that
``flex_profile`` would draw next if the current one were certified.  The
output cannot change: the child draws from copies of the generator, so
the caller redraws the same shears; a record depends only on the form
and the shear; and the caller judges every record, as a serial run does.

``check_smooth`` certifies that the three partial derivatives share no
projective zero, by eliminating one variable from two pairs of partials
and taking a gcd of the resulting binary forms; ``random_unimodular``
coordinates make the elimination free of extraneous factors, so a
trivial gcd is a proof of smoothness.  A nontrivial gcd triggers an
attempt to exhibit a rational singular point, a primitive integer
triple, then a retry in new coordinates.  Two partials that share a
component prove the curve singular without naming a point, so the
witness search goes on too.
"""

from __future__ import annotations

import marshal
import os
import random
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd as int_gcd
from typing import Callable, Iterator, Mapping, Sequence

from .exactpoly import (
    IntPoly,
    MultiPoly,
    gcd as poly_gcd,
    gradient,
    hessian_determinant,
    linear_substitute,
    prs_subresultants,
    rational_roots,
    resultant,
    squarefree_decompose,
)

RETRY_BUDGET = 8
INITIAL_BOUND = 3
INITIAL_SHEAR_BOUND = 2
# Lowest curve degree that gets a forked child (``_beside``).  On a shared
# 2-CPU Xeon VM (Python 3.11), 100 in-process rounds of the benchmark's
# random-lowdeg workload (500 ops, d = 3..6, seed 1) took 3.75 / 4.11 /
# 3.99 s at 7, 4.00 / 4.97 / 4.04 s at 6 and 4.77 / 5.07 / 4.82 s at 5:
# a fork costs more than a projection of degree 5 or 6 saves.
PARALLEL_MIN_DEGREE = 7

Point = tuple[int, int, int]


class SingularCurveError(Exception):
    """The form defines a singular curve.

    ``witness`` is a projective point killing all three partials, as a
    primitive integer triple, when one with rational coordinates was
    found, else None.  The message shows it as a triple of ``Fraction``s.
    """

    def __init__(self, message: str, witness: Point | None = None):
        super().__init__(
            message if witness is None else f"{message}; witness {tuple(map(Fraction, witness))}"
        )
        self.witness = witness


class GenericityFailureError(RuntimeError):
    """No generic coordinate change was found within the retry budget."""


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
    """Divide out the content (profile-invariant)."""
    content = int_gcd(*p.terms.values())
    if content <= 1:
        return p
    return MultiPoly(p.variables, {e: c // content for e, c in p.terms.items()})


def _int_poly(p: MultiPoly) -> IntPoly:
    """Coefficient list of a univariate integer polynomial."""
    if p.is_zero():
        return []
    dense = [0] * (p.total_degree() + 1)
    for (e,), c in p.terms.items():
        dense[e] = c
    return dense


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


def _apply_matrix(m: Sequence[Sequence[int]], v: Sequence[int]) -> Point:
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _normalize_point(v: Sequence[int]) -> Point:
    """The primitive triple for (v), its first nonzero entry positive."""
    g = int_gcd(*v)
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


@contextmanager
def _beside(d: int, work: Callable, instead: Callable) -> Iterator[Callable]:
    """Run ``work`` in a forked child while the with-block runs; yields a
    function that returns its value, sent back in ``marshal`` format, or
    ``instead()`` when there is no child: below degree PARALLEL_MIN_DEGREE,
    with fewer than two CPUs or more than one thread (forking a threaded
    process can deadlock), or when the fork fails or the child dies.  The
    child is killed and reaped when the block ends, or raises.
    """
    if (
        d < PARALLEL_MIN_DEGREE
        or not hasattr(os, "sched_getaffinity")  # where it exists, so does os.fork
        or threading.active_count() > 1
        or len(os.sched_getaffinity(0)) < 2
    ):
        yield instead
        return
    fds: tuple[int, ...] = ()
    try:
        fds = answers_in, answers_out = os.pipe()
        pid = os.fork()
    except OSError:  # such as EAGAIN from fork
        for fd in fds:
            os.close(fd)
        yield instead
        return
    if pid == 0:
        try:
            os.close(answers_in)
            with open(answers_out, "wb") as answers:
                marshal.dump(work(), answers)
        finally:
            os._exit(0)
    try:
        os.close(answers_out)
        with open(answers_in, "rb") as answers:
            def value():
                try:
                    return marshal.load(answers)
                except EOFError:  # the child died
                    return instead()

            yield value
    finally:
        os.kill(pid, 9)  # SIGKILL: its work may take seconds, or not be wanted
        os.waitpid(pid, 0)


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
            witness = tuple(1 if j == i else 0 for j in range(3))
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
                    _normalize_point(_apply_matrix(m, pt)),
                )
        # Clean elimination needs the top z-coefficient of each partial to
        # be a nonzero constant, i.e. no partial vanishing at (0:0:1).
        if any(p.evaluate((0, 0, 1)) == 0 for p in grads):
            continue
        a, b, c = (p.dehomogenize("y") for p in grads)
        second = partial(_eliminate_z, a, c)
        with _beside(d, second, second) as beside:
            u1, u2 = _eliminate_z(a, b), beside()
        if not u1 or not u2:
            # Two partials share a component, which meets the third partial
            # in singular points; new coordinates may name one.
            shared += 1
            continue
        deg_form = (d - 1) ** 2
        common = _binary_common_roots(u1, u2, deg_form, deg_form)
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
        "; the gradient system kept common roots under every projection that"
        f" reached the elimination ({obstructed} of {RETRY_BUDGET}) but none with"
        " rational coordinates, so the curve is most likely singular at"
        " irrational points"
        if obstructed
        else ""
    )
    raise GenericityFailureError(
        f"could not certify smoothness within {RETRY_BUDGET} coordinate changes{detail}"
    )


def _eliminate_z(a: MultiPoly, b: MultiPoly) -> IntPoly:
    return _int_poly(resultant(a, b, "z"))


def _binary_common_roots(
    u1: IntPoly, u2: IntPoly, deg1: int, deg2: int
) -> list[tuple[int, int]] | None:
    """Common projective roots of two binary forms given dehomogenized.

    ``u1``/``u2`` are the y=1 specializations of forms of degree ``deg1``
    and ``deg2`` in (x, y).  Returns None when there is no common root
    (the smoothness certificate), otherwise a list of the rational common
    roots found, as integer pairs (x0, y0) -- possibly empty when every
    common root is irrational.
    """
    g = poly_gcd(u1, u2)
    root_at_infinity = len(u1) - 1 < deg1 and len(u2) - 1 < deg2
    if len(g) == 1 and not root_at_infinity:
        return None
    return ([(1, 0)] if root_at_infinity else []) + rational_roots(g)


def _find_rational_witness(
    grads: Sequence[MultiPoly], candidates: list[tuple[int, int]]
) -> Point | None:
    """A rational common zero of the partials over a candidate (x0 : y0).
    The z-coefficients of each partial p are forms in (x, y), so the fibre
    p(x0, y0, z) is an integer polynomial; none is zero, because each p has
    a constant top z-coefficient."""
    for x0, y0 in candidates:
        h: IntPoly = []
        for p in grads:
            h = poly_gcd(h, [c.evaluate((x0, y0)) for c in p.coefficients_in("z")])
        if len(h) == 1:
            continue
        for a, q in rational_roots(h):
            point = (x0 * q, y0 * q, a)
            if all(p.evaluate(point) == 0 for p in grads):
                return point
    return None


# ----------------------------------------------------------------------
# Flex orders and profiles
# ----------------------------------------------------------------------


# Why a coordinate change is rejected, as counted by flex_profile.
CENTRE_ON_CURVE = "centre on curve"
HESSIAN_ZERO_AT_CENTRE = "Hessian zero at centre"
DEGREE_SHORT = "resultant degree short"
NOT_SEPARATING = "not separating"


def flex_profile(curve: PlaneCurve, seed: int = 0) -> FlexProfile:
    """Flex-order multiset of a smooth curve, deterministic given seed.

    Draws shears and judges each ``_profile_once`` record by one rule:
    counts equal to the proved profile accept, certified or not; otherwise
    a reason rejects, and the bound on the shear entries doubles; the
    first certified record proves its counts, and a certified disagreement
    is a defect and raises.
    """
    d = curve.degree
    form = _integer_form(curve.form)
    rng = random.Random(seed)
    bound = INITIAL_SHEAR_BOUND
    tried: set[tuple[int, int, int]] = set()
    proved: dict[int, int] | None = None
    rejected: Counter[str] = Counter()
    ahead: dict = {}  # records by shear, computed by a child
    for attempt in range(RETRY_BUDGET):
        m = random_shear(rng, bound, tried)
        record = ahead.get(tuple(map(tuple, m)))
        if record is None and proved is None:
            n = RETRY_BUDGET - attempt - 1
            with _beside(d, partial(_draws_ahead, form, d, rng, bound, tried, n), dict) as drawn:
                record = _profile_once(form, d, m)
                if record[0] is None:
                    ahead = drawn()
        elif record is None:
            record = _profile_once(form, d, m)
        reason, counts = record
        if proved is not None and counts == proved:
            return FlexProfile(d, proved)
        if reason is not None:
            rejected[reason] += 1
            bound *= 2
        elif proved is None:
            proved = counts
        else:
            raise RuntimeError(f"two certified flex profiles disagree: {proved}, {counts}")
    tally = ", ".join(f"{reason} x {n}" for reason, n in rejected.items())
    raise GenericityFailureError(
        f"no two agreeing certified flex profiles within {RETRY_BUDGET} coordinate"
        f" changes (rejected: {tally})"
    )


def _draws_ahead(form: MultiPoly, d: int, rng: random.Random, bound: int, tried: set, n: int):
    """Records by shear of the next n draws of ``flex_profile`` once a
    profile is proved, up to the first with counts; runs in a child, on
    its copies of ``rng`` and ``tried``."""
    records = {}
    for _ in range(n):
        m = random_shear(rng, bound, tried)
        records[tuple(map(tuple, m))] = record = _profile_once(form, d, m)
        if record[1] is not None:
            break
        bound *= 2
    return records


def _profile_once(form: MultiPoly, d: int, m: Sequence[Sequence[int]]) -> tuple:
    """(reason, counts) for one coordinate change: the reason to reject
    it, None exactly when the projection is certified, and the resultant's
    multiplicity profile, None when the resultant was not computed.  Both
    are plain values, so a record crosses a pipe in ``marshal`` format.

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
    is checked factor by factor, and a failure gives NOT_SEPARATING with
    the counts.  The Hessian is divided by its integer content first, which
    only scales R and sres_1 by constants.
    """
    g = linear_substitute(form, m)
    if g.evaluate((0, 1, 0)) == 0:
        return CENTRE_ON_CURVE, None
    hess = _integer_form(hessian_determinant(g))
    if hess.is_zero() or hess.evaluate((0, 1, 0)) == 0:
        return HESSIAN_ZERO_AT_CENTRE, None
    if _degree_short(g, hess):
        return DEGREE_SHORT, None
    sres1: list[Callable[[], MultiPoly]] = []
    res = resultant(
        g.dehomogenize("z"), hess.dehomogenize("z"), "y", first_subresultant=sres1
    )
    if res.degree_in("x") != 3 * d * (d - 2):
        return DEGREE_SHORT, None
    factors = squarefree_decompose(_int_poly(res))
    counts = {mult: len(factor) - 1 for mult, factor in factors}
    repeated = [factor for mult, factor in factors if mult > 1]
    s1 = _int_poly(sres1[0]()) if repeated else []
    if any(len(poly_gcd(factor, s1)) > 1 for factor in repeated):
        return NOT_SEPARATING, counts
    return None, counts


def _degree_short(g: MultiPoly, hess: MultiPoly) -> bool:
    """Whether Res_y(g(x, y, 1), hess(x, y, 1)) has degree below 3d(d-2): its
    top coefficient is Res_y(g(1, y, 0), hess(1, y, 0)) when the leading
    coefficients in y are constants (Fulton, Algebraic Curves, 5.3)."""
    on_line = (_int_poly(p.dehomogenize("x").coefficients_in("z")[0]) for p in (g, hess))
    return prs_subresultants(*on_line)[0] == 0
