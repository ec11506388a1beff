import errno
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitflex.exactpoly import (
    MultiPoly,
    det3,
    gradient,
    hessian_determinant,
    linear_substitute,
    resultant,
)
from orbitflex import cli, flexlab
from orbitflex.flexlab import (
    CENTRE_ON_CURVE,
    DEGREE_SHORT,
    NOT_SEPARATING,
    FlexProfile,
    GenericityFailureError,
    PlaneCurve,
    INITIAL_BOUND,
    INITIAL_SHEAR_BOUND,
    SingularCurveError,
    _profile_once,
    check_smooth,
    f_sums,
    flex_profile,
    random_shear,
    random_unimodular,
)
from orbitflex.polyparse import parse_form
from helpers import (
    PointNotOnCurveError,
    adjugate,
    assert_reaped,
    flex_order_at,
    needs_fork,
    planted_flex_curve,
    random_homogeneous,
    random_smooth_curve,
    serially,
)


def curve(src: str) -> PlaneCurve:
    form, _ = parse_form(src)
    return check_smooth(form)


# ----------------------------------------------------------------------
# check_smooth
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_fermat_curves_are_smooth(d):
    c = curve(f"x^{d} + y^{d} + z^{d}")
    assert isinstance(c, PlaneCurve) and c.degree == d


def test_cusp_is_singular_with_witness():
    form, _ = parse_form("x^2*z - y^3")
    with pytest.raises(SingularCurveError) as err:
        check_smooth(form)
    assert err.value.witness == (0, 0, 1)


def test_triangle_is_singular():
    form, _ = parse_form("x*y*z")
    with pytest.raises(SingularCurveError) as err:
        check_smooth(form)
    assert err.value.witness is not None


def test_singular_interior_point():
    # (x^2 + y^2 - 2z^2) has gradient zero nowhere, but its square's
    # gradient vanishes along the whole conic; use a nodal cubic instead:
    # y^2 z = x^2 (x + z) has a node at (0:0:1).
    form, _ = parse_form("y^2*z - x^3 - x^2*z")
    with pytest.raises(SingularCurveError) as err:
        check_smooth(form)
    assert err.value.witness == (0, 0, 1)


def test_off_axis_rational_singularity():
    for src in (
        # translate the cusp x^2 z = y^3 by x -> x + z, y -> y + z:
        # singular point moves to (-1 : -1 : 1).
        "(x + z)^2*z - (y + z)^3",
        # five lines, singular at several rational points; a rational root
        # search over divisors gave up on the coefficients here.
        "y*(x - 2*z)*(x + y - 2*z)*(2*x - 3*y - 2*z)*(2*x + 3*y + 2*z)",
    ):
        form, _ = parse_form(src)
        with pytest.raises(SingularCurveError) as err:
            check_smooth(form)
        assert err.value.witness is not None
        x0, y0, z0 = err.value.witness
        grads = [form.diff(v) for v in ("x", "y", "z")]
        assert all(g.evaluate((x0, y0, z0)) == 0 for g in grads)


def assert_singular_witness(form, witness):
    assert witness is not None
    assert all(g.evaluate(witness) == 0 for g in (form, *gradient(form)))


@pytest.mark.parametrize(
    "src",
    [
        # the first attempt skips this curve, whose F_x vanishes at
        # (0:0:1); adding x*z^2 + y*z^2 to the cubic makes it reach the
        # resultant
        "z*(x^3 + y^3 + z^3)",
        "z*(x^3 + y^3 + x*z^2 + y*z^2 + z^3)",
        # the singular ops of benchmark round 592 of random-lowdeg at
        # seeds 2 and 3: each curve contains the line z = 0
        "7*x^3*z + 14*x^2*y*z + 16*x^2*z^2 + 9*x*y^2*z + 19*x*y*z^2 + 15*x*z^3"
        " + 2*y^3*z + 8*y^2*z^2 + 12*y*z^3 + 7*z^4",
        "2*x^2*z + 7*x*y*z - 2*x*z^2 + 5*y^2*z - 2*y*z^2 - 2*z^3",
    ],
)
def test_curve_containing_line_z_gets_a_witness(src):
    # F_x and F_y share the factor z in the given coordinates, so their
    # resultant is zero and names no point; new coordinates find one.
    form, _ = parse_form(src)
    with pytest.raises(SingularCurveError) as err:
        check_smooth(form)
    assert_singular_witness(form, err.value.witness)


def test_line_times_curve_through_a_point_of_the_line_gets_a_witness():
    # z*G with G through (a:b:0) is singular there.
    rng = random.Random(83)
    x, y, z = (MultiPoly.var(("x", "y", "z"), v) for v in "xyz")
    for d in (3, 4, 5, 6):
        for _ in range(3):
            a, b = rng.randint(-4, 4), rng.randint(1, 4)
            g = (b * x - a * y) * random_homogeneous(rng, d - 2) + z * random_homogeneous(rng, d - 2)
            form = z * g
            with pytest.raises(SingularCurveError) as err:
                check_smooth(form)
            assert_singular_witness(form, err.value.witness)


def test_repeated_component_has_no_witness():
    # The partials share the doubled line under every coordinate change.
    form, _ = parse_form("(x + 2*y + 3*z)^2*(x^2 + y^2 + z^2)")
    with pytest.raises(SingularCurveError, match="share a positive-dimensional component") as err:
        check_smooth(form)
    assert err.value.witness is None


def test_low_degree_rejected():
    form = MultiPoly((("x", "y", "z")), {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    with pytest.raises(ValueError):
        check_smooth(form)


def test_random_smooth_curves_certify(subtests=None):
    rng = random.Random(47)
    for d in (3, 4, 5):
        c = random_smooth_curve(rng, d)
        assert isinstance(c, PlaneCurve) and c.degree == d


# ----------------------------------------------------------------------
# flex_order_at
# ----------------------------------------------------------------------


def test_fermat_cubic_flex_order():
    c = curve("x^3 + y^3 + z^3")
    assert flex_order_at(c, (1, -1, 0)) == 1


def test_hyperflex_of_special_quartic():
    c = curve("x^4 + x*y^3 + y*z^3")
    assert flex_order_at(c, (0, 0, 1)) == 2
    assert flex_order_at(c, (0, 1, 0)) == 1


def test_non_flex_point_gives_zero():
    # (0:0:1) on y^2 z = x^3 + x z^2 is an ordinary point of the cubic.
    c = curve("y^2*z - x^3 - x*z^2")
    assert flex_order_at(c, (0, 0, 1)) == 0


def test_point_not_on_curve_rejected():
    c = curve("x^3 + y^3 + z^3")
    with pytest.raises(PointNotOnCurveError):
        flex_order_at(c, (1, 1, 1))


FERMAT_FLEXES = ((1, -1, 0), (1, 0, -1), (0, 1, -1))


def test_fermat_flex_orders_scale_with_degree():
    # The three rational flexes exist only for odd degree, and carry the
    # profile's only order.
    for d in (3, 5, 7):
        c = curve(f"x^{d} + y^{d} + z^{d}")
        assert flex_profile(c).counts == {d - 2: 3 * d}
        for q in FERMAT_FLEXES:
            assert flex_order_at(c, q) == d - 2


def test_rational_point_with_fraction_coordinates():
    c = curve("y^2*z - x^3 - x*z^2")
    # (x, y) = (1/2)... seek a rational point: x=0,y=0 done; use scaled
    # projective coordinates of the same point to check invariance.
    assert flex_order_at(c, (Fraction(0), Fraction(0), Fraction(3))) == 0


def test_flex_order_errors():
    # the line z = 0 and a conic meeting it at (1:0:0) and (0:1:0)
    line_and_conic = PlaneCurve(parse_form("z*(x*y - z^2)")[0], 3)
    with pytest.raises(ValueError, match="not a projective point"):
        flex_order_at(line_and_conic, (0, 0, 0))
    with pytest.raises(ValueError, match="tangent line is contained"):
        flex_order_at(line_and_conic, (1, 1, 0))
    with pytest.raises(ValueError, match="singular"):
        flex_order_at(line_and_conic, (1, 0, 0))
    with pytest.raises(PointNotOnCurveError):
        flex_order_at(line_and_conic, (0, 0, 1))


KNOWN_ORDERS = [
    ("x^3 + y^3 + z^3", FERMAT_FLEXES),
    ("x^5 + y^5 + z^5", FERMAT_FLEXES),
    ("x^7 + y^7 + z^7", FERMAT_FLEXES),
    ("x^4 + x*y^3 + y*z^3", ((0, 0, 1), (0, 1, 0))),
    ("x^3*y + y^3*z + z^3*x", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ("y^2*z - x^3 - x*z^2", ((0, 0, 1),)),
]


def test_flex_order_invariant_under_coordinate_change():
    # (F o M)(M^-1 q) = F(q), and adj(M) is M^-1 up to the sign det(M).
    rng = random.Random(5)
    for src, points in KNOWN_ORDERS:
        c = curve(src)
        for bound in (3, 12, 48):
            m = random_unimodular(rng, bound)
            adj = adjugate(m)
            moved = PlaneCurve(linear_substitute(c.form, m), c.degree)
            for q in points:
                pulled_back = [sum(adj[i][j] * q[j] for j in range(3)) for i in range(3)]
                assert flex_order_at(moved, pulled_back) == flex_order_at(c, q), (src, m, q)


# ----------------------------------------------------------------------
# flex_profile
# ----------------------------------------------------------------------


def test_klein_quartic_profile():
    assert flex_profile(curve("x^3*y + y^3*z + z^3*x")).counts == {1: 24}


def test_fermat_quartic_profile():
    assert flex_profile(curve("x^4 + y^4 + z^4")).counts == {2: 12}


def test_one_hyperflex_quartic_profile():
    assert flex_profile(curve("x^4 + x*y^3 + y*z^3")).counts == {2: 1, 1: 22}


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_fermat_profiles(d):
    assert flex_profile(curve(f"x^{d} + y^{d} + z^{d}")).counts == {d - 2: 3 * d}


@pytest.mark.parametrize("d", [5, 6])
def test_cyclic_curve_profiles(d):
    prof = flex_profile(curve(f"x^{d-1}*y + y^{d-1}*z + z^{d-1}*x"))
    assert prof.count(d - 3) == 3
    assert prof.weighted_total() == 3 * d * (d - 2)
    assert prof.counts == {d - 3: 3, 1: 3 * (d * d - 3 * d + 3)}


def test_profile_seed_independence():
    # Seeds 134, 147 and 150 once gave {1: 22, 2: 1}: two projections that
    # each merged two simple flexes into one fibre agreed with each other.
    c = curve("x^3*y + y^3*z + z^3*x")
    wrong = [s for s in range(200) if flex_profile(c, seed=s).counts != {1: 24}]
    assert wrong == []


def _shear(a, b, c):
    """Determinant 1, projection centre (a : 1 : b)."""
    return [[1, a, 0], [0, 1, 0], [c, b, 1]]


def test_klein_shear_sweep():
    # 32 of the 125 small shears put two simple flexes of the Klein quartic
    # in one fibre, which looks exactly like a hyperflex; each must be
    # rejected, and every certified shear must give the true profile.
    form = curve("x^3*y + y^3*z + z^3*x").form
    verdicts = Counter()
    r = range(-2, 3)
    for m in [_shear(a, b, c) for a in r for b in r for c in r]:
        reason, counts = _profile_once(form, 4, m)
        if reason is None:
            assert counts == {1: 24}, m
        verdicts[reason or "certified"] += 1
    assert verdicts == {
        "certified": 52,
        NOT_SEPARATING: 32,
        DEGREE_SHORT: 36,
        CENTRE_ON_CURVE: 5,
    }


def _draws(monkeypatch, matrices):
    """Make flex_profile draw ``matrices`` in turn; returns the bounds it
    asked for."""
    bounds = []

    def draw(rng, bound, tried):
        bounds.append(bound)
        return matrices[len(bounds) - 1]

    monkeypatch.setattr(flexlab, "random_shear", draw)
    return bounds


def test_tangent_projection_needs_a_proved_profile(monkeypatch):
    # The centre (-1 : 1 : 1) lies on x + y = 0, the tangent at the flex
    # (1 : -1 : 0) of order 3: the profile is right, but the fibre gcd has
    # a double root, so the certificate fails.  As a cross-check of the
    # profile already certified under another projection it is accepted as
    # it stands; as a first projection it is rejected.
    quintic = curve("x^5 + y^5 + z^5")
    tangent, certified = _shear(-1, 1, 0), _shear(2, 2, 2)
    assert _profile_once(quintic.form, 5, tangent) == (NOT_SEPARATING, {3: 15})
    assert _profile_once(quintic.form, 5, certified) == (None, {3: 15})
    bounds = _draws(monkeypatch, [certified, tangent])
    assert flex_profile(quintic).counts == {3: 15}
    assert bounds == [INITIAL_SHEAR_BOUND] * 2
    bounds = _draws(monkeypatch, [tangent, certified, tangent])
    assert flex_profile(quintic).counts == {3: 15}
    assert bounds == [INITIAL_SHEAR_BOUND] + [2 * INITIAL_SHEAR_BOUND] * 2


def test_genericity_failure_counts_rejections_by_reason(monkeypatch):
    # verdicts of these shears on the Fermat cubic
    centre_on_curve, hessian_zero = _shear(-1, 0, 0), _shear(-2, 0, 0)
    degree_short, not_separating = _shear(-2, -2, -1), _shear(-2, 1, -2)
    cubic = curve("x^3 + y^3 + z^3")
    bounds = _draws(
        monkeypatch,
        [centre_on_curve, not_separating, hessian_zero, degree_short]
        + [not_separating] * 3
        + [centre_on_curve],
    )
    with pytest.raises(GenericityFailureError) as err:
        flex_profile(cubic)
    assert str(err.value) == (
        "no two agreeing certified flex profiles within 8 coordinate changes"
        " (rejected: centre on curve x 2, not separating x 4,"
        " Hessian zero at centre x 1, resultant degree short x 1)"
    )
    assert bounds == [INITIAL_SHEAR_BOUND * 2**i for i in range(8)]


def test_bound_grows_only_after_a_rejection(monkeypatch):
    good, bad = _shear(-2, -2, -2), _shear(-2, 1, -2)
    cubic = curve("x^3 + y^3 + z^3")
    bounds = _draws(monkeypatch, [good, bad, good])
    assert flex_profile(cubic).counts == {1: 9}
    assert bounds == [INITIAL_SHEAR_BOUND, INITIAL_SHEAR_BOUND, 2 * INITIAL_SHEAR_BOUND]


def _in_caller(monkeypatch, curve, seed):
    """The profile, the shears that flex_profile draws and the number of
    projections it computes, all in the calling process: a forked child
    counts in its own copy."""
    draws, projected = [], []
    draw, once = flexlab.random_shear, flexlab._profile_once

    def record_draw(rng, bound, tried):
        draws.append(draw(rng, bound, tried))
        return draws[-1]

    def record_projection(form, d, m):
        projected.append(m)
        return once(form, d, m)

    with monkeypatch.context() as m:
        m.setattr(flexlab, "random_shear", record_draw)
        m.setattr(flexlab, "_profile_once", record_projection)
        return flex_profile(curve, seed=seed), draws, len(projected)


@needs_fork
@pytest.mark.parametrize(
    "src, seed, forks, projected",
    [
        ("x^7 + y^7 + z^7", 0, 1, 1),
        ("x^7 + y^7 + z^7", 3, 2, 2),
        ("x^7 + y^7 + z^7", 6, 2, 2),
        ("x^6*y + y^6*z + z^6*x", 0, 1, 1),
    ],
)
def test_projections_ahead_in_a_child_match_a_serial_run(
    two_cpus, monkeypatch, src, seed, forks, projected
):
    # At seeds 3 and 6 the first projection of the Fermat curve is not
    # separating, so the helper computing ahead of it is killed, and the
    # next projection forks a new one; the caller computes only the
    # projections up to the first certified one.  The curve is certified
    # serially, so that the profile forks the first helper.
    c = serially(monkeypatch, lambda: curve(src))
    in_caller = lambda: _in_caller(monkeypatch, c, seed)  # noqa: E731
    profile, draws, serial_projected = serially(monkeypatch, in_caller)
    assert serial_projected == len(draws)
    start = len(two_cpus)
    assert in_caller() == (profile, draws, projected)
    assert len(two_cpus) == start + forks


@needs_fork
def test_genericity_failure_with_a_child_matches_a_serial_run(two_cpus, monkeypatch):
    # A rejection, a certified shear, then six rejections that the child
    # computes ahead; on the Fermat septic, (a : 1 : b) = (-1 : 1 : 0) lies
    # on the curve and the Hessian vanishes at (0 : 1 : b).  The helper
    # computing ahead of the rejection is killed, and the certified shear
    # forks a new one, which sees the drawn shears.
    shears = [_shear(-1, 0, 1), _shear(2, 2, -2)]
    shears += [_shear(0, b, c) for b, c in ((1, 1), (2, 1), (1, 2))]
    shears += [_shear(-1, 0, c) for c in (2, 3, 4)]
    septic = serially(monkeypatch, lambda: curve("x^7 + y^7 + z^7"))

    def failure():
        bounds, projected = _draws(monkeypatch, shears), []
        once = flexlab._profile_once
        with monkeypatch.context() as m:
            m.setattr(flexlab, "_profile_once", lambda *args: projected.append(1) or once(*args))
            with pytest.raises(GenericityFailureError) as err:
                flex_profile(septic)
        return str(err.value), bounds, len(projected)

    message, bounds, projected = serially(monkeypatch, failure)
    assert message == (
        "no two agreeing certified flex profiles within 8 coordinate changes"
        " (rejected: centre on curve x 4, Hessian zero at centre x 3)"
    )
    assert projected == 8
    forks = len(two_cpus)
    assert failure() == (message, bounds, 2)
    assert len(two_cpus) == forks + 2


SHEAR_BOX = [_shear(a, b, c) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2) for c in (-2, -1, 1, 2)]


def test_degree_short_test_matches_resultant_degree():
    # Over the whole draw box at bound 2, the one-point test rejects exactly
    # the shears whose full resultant falls short of degree 3d(d-2).
    sources = [
        "x^3*y + y^3*z + z^3*x",
        "x^5 + y^5 + z^5",
        "x^6 + y^6 + z^6",
        "x^4*y + y^4*z + z^4*x",
        "x^4 + x*y^3 + y*z^3",
    ]
    curves = [curve(src) for src in sources]
    rng = random.Random(2026)
    curves += [random_smooth_curve(rng, d) for d in (3, 4, 4, 5, 5)]
    short = 0
    for c in curves:
        d, form = c.degree, flexlab._integer_form(c.form)
        for m in SHEAR_BOX:
            g = linear_substitute(form, m)
            hess = hessian_determinant(g)
            if g.evaluate((0, 1, 0)) == 0 or hess.evaluate((0, 1, 0)) == 0:
                continue
            res = resultant(g.dehomogenize("z"), hess.dehomogenize("z"), "y")
            rejects = flexlab._degree_short(g, hess)
            assert rejects == (res.degree_in("x") != 3 * d * (d - 2)), (c.form, m)
            short += rejects
    assert short >= 60


def test_content_free_hessian_gives_the_same_records(monkeypatch):
    # Dividing the Hessian by its integer content scales R and sres_1 by
    # constants, which moves no degree, multiplicity or gcd.  Cyclic 4 is
    # the Klein quartic.
    sources = [f"x^{d} + y^{d} + z^{d}" for d in range(3, 10)]
    sources += [f"x^{d-1}*y + y^{d-1}*z + z^{d-1}*x" for d in range(4, 9)]
    curves = [curve(src) for src in sources]
    rng = random.Random(33)
    curves += [random_smooth_curve(rng, 3 + i % 4) for i in range(20)]
    cases = []
    for c in curves:
        tried: set = set()
        shears = [random_shear(rng, INITIAL_SHEAR_BOUND, tried) for _ in range(4)]
        cases += [(flexlab._integer_form(c.form), c.degree, m) for m in shears]
    content_free = [_profile_once(*case) for case in cases]
    monkeypatch.setattr(flexlab, "_integer_form", lambda p: p)
    assert [_profile_once(*case) for case in cases] == content_free
    reasons = Counter(reason for reason, _ in content_free)
    assert reasons[None] and reasons[DEGREE_SHORT] and reasons[NOT_SEPARATING], reasons


def test_one_call_never_projects_twice_the_same_way(monkeypatch):
    # At bound 2 the box holds 64 shears, so over 200 seeds some second
    # draw would repeat the first if draws were not checked against it.
    seen = []
    once = flexlab._profile_once

    def record(form, d, m):
        seen[-1].append(m)
        return once(form, d, m)

    monkeypatch.setattr(flexlab, "_profile_once", record)
    cubic = curve("x^3 + y^3 + z^3")
    for seed in range(200):
        seen.append([])
        flex_profile(cubic, seed=seed)
        assert len(seen[-1]) >= 2
        assert len({tuple(map(tuple, m)) for m in seen[-1]}) == len(seen[-1]), seed


def _entries(m):
    """(a, b, c) of the shear [[1, a, 0], [0, 1, 0], [c, b, 1]]."""
    assert m == _shear(m[0][1], m[2][1], m[2][0])
    return m[0][1], m[2][1], m[2][0]


def test_shear_redraws_a_tried_shear():
    first = random_shear(random.Random(5), 2, set())
    tried = {_entries(first)}
    assert random_shear(random.Random(5), 2, tried) != first
    assert len(tried) == 2


class _CountingRandom(random.Random):
    """Fails after ``limit`` draws instead of looping for ever."""

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.left = limit

    def getrandbits(self, k):
        self.left -= 1
        assert self.left >= 0, "the redraw loop did not end"
        return super().getrandbits(k)


def test_shear_redraw_ends_when_the_box_is_exhausted():
    tried = {_entries(m) for m in SHEAR_BOX}
    drawn = _entries(random_shear(_CountingRandom(0, 10_000), 2, tried))
    assert 2 < max(map(abs, drawn)) <= 4 and len(tried) == 65
    # The bound-1 box, one shear per sign pattern, drawn out one by one.
    tried = set()
    rng = _CountingRandom(1, 10_000)
    for _ in range(8):
        random_shear(rng, 1, tried)
    assert tried == {(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)}
    assert max(map(abs, _entries(random_shear(rng, 1, tried)))) == 2


def test_certified_disagreement_raises(monkeypatch):
    # An unseparated record that disagrees is rejected; a certified one raises.
    outcomes = iter([(None, {1: 9}), (NOT_SEPARATING, {1: 7, 2: 1}), (None, {1: 7, 2: 1})])
    monkeypatch.setattr(flexlab, "_profile_once", lambda *args: next(outcomes))
    with pytest.raises(RuntimeError, match="disagree"):
        flex_profile(curve("x^3 + y^3 + z^3"))


def test_profile_matches_pointwise_orders():
    # Rational flexes found independently must carry the profile's orders.
    c = curve("x^4 + x*y^3 + y*z^3")
    prof = flex_profile(c)
    assert flex_order_at(c, (0, 0, 1)) == 2 and prof.count(2) == 1
    klein = curve("x^3*y + y^3*z + z^3*x")
    prof_k = flex_profile(klein)
    for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert flex_order_at(klein, pt) == 1
    assert prof_k.count(1) == 24


def test_planted_flexes_are_in_the_profile():
    # Non-symmetric curves with one flex of known order r at a known point:
    # for r >= 2 the resultant has a repeated factor, so the profile needs
    # the first-subresultant certificate.
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randint(4, 7)
        r = rng.randint(1, d - 2)
        c, point = planted_flex_curve(rng, d, r)
        assert flex_profile(c).count(r) >= 1, (c.form, r)
        assert flex_order_at(c, point) == r, (c.form, point)


def test_weighted_total_for_random_curves():
    rng = random.Random(53)
    for d in (3, 4):
        c = random_smooth_curve(rng, d)
        prof = flex_profile(c, seed=5)
        assert prof.weighted_total() == 3 * d * (d - 2)


# ----------------------------------------------------------------------
# FlexProfile / FlexSums types
# ----------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        FlexProfile(4, {1: 23})  # weighted total off by one
    with pytest.raises(ValueError):
        FlexProfile(4, {3: 8})  # order exceeds d - 2
    with pytest.raises(ValueError):
        FlexProfile(4, {1: 26, -1: 2})


def test_f_sums_examples():
    assert f_sums(FlexProfile(4, {1: 24})).as_tuple() == (24, 24, 24, 24)
    assert f_sums(FlexProfile(4, {2: 12})).as_tuple() == (48, 96, 192, 384)
    assert f_sums(FlexProfile(3, {1: 9})).as_tuple() == (9, 9, 9, 9)


def test_f_sums_monotone():
    rng = random.Random(59)
    for _ in range(20):
        d = rng.randint(3, 9)
        from helpers import random_valid_profile

        sums = f_sums(FlexProfile(d, random_valid_profile(rng, d)))
        assert sums.f2 <= sums.f3 <= sums.f4 <= sums.f5


def test_random_unimodular_determinant():
    rng = random.Random(61)
    for _ in range(200):
        m = random_unimodular(rng, rng.choice([3, 6, 12]))
        assert det3(m) in (1, -1)


def test_whole_conic_of_singular_points():
    form, _ = parse_form("(x^2 + y^2 + z^2)^2")
    with pytest.raises(SingularCurveError):
        check_smooth(form)


def test_irrational_singularities_cannot_be_certified():
    # Singular exactly at (+-sqrt(2) : 1 : 0): no rational witness exists
    # and no projection can certify smoothness, so the check reports that
    # it ran out of coordinate changes rather than guessing either way.
    form, _ = parse_form("(x^2 - 2y^2)^2 + z^3*x")
    with pytest.raises(GenericityFailureError) as err:
        check_smooth(form)
    assert "irrational" in str(err.value)


def test_witness_over_the_root_at_infinity(monkeypatch):
    # Singular at (1:0:1) only.  In the original coordinates, the only ones
    # tried here, no partial vanishes at (0:0:1), and the two resultants
    # both drop degree: their common root is (1:0), whose fibre holds the
    # singular point.
    form, _ = parse_form(
        "2*x^3 - 5*x^2*z + x*y^2 + 3*x*y*z + 4*x*z^2 - y^3 - 3*y^2*z - 3*y*z^2 - z^3"
    )
    assert [p.evaluate((0, 0, 1)) for p in gradient(form)] == [4, -3, -3]
    monkeypatch.setattr(flexlab, "RETRY_BUDGET", 1)
    with pytest.raises(SingularCurveError) as err:
        check_smooth(form)
    assert err.value.witness == (1, 0, 1)


def _small_rational_points(form, bound=3):
    """All projective points with integer coordinates in [-bound, bound]
    lying on the curve, normalized."""
    seen = set()
    for x0 in range(-bound, bound + 1):
        for y0 in range(-bound, bound + 1):
            for z0 in range(-bound, bound + 1):
                if (x0, y0, z0) == (0, 0, 0):
                    continue
                if form.evaluate((x0, y0, z0)) != 0:
                    continue
                from math import gcd

                g = gcd(gcd(abs(x0), abs(y0)), abs(z0))
                pt = (x0 // g, y0 // g, z0 // g)
                lead = next(c for c in pt if c != 0)
                if lead < 0:
                    pt = tuple(-c for c in pt)
                seen.add(pt)
    return sorted(seen)


@pytest.mark.parametrize(
    "src",
    ["x^3 + y^3 + z^3", "x^3*y + y^3*z + z^3*x", "x^4 + x*y^3 + y*z^3"],
)
def test_point_search_orders_are_dominated_by_profile(src):
    # every rational flex found by brute-force point search must carry an
    # order the profile accounts for, never exceeding its count
    c = curve(src)
    prof = flex_profile(c)
    found: dict[int, int] = {}
    for pt in _small_rational_points(c.form):
        r = flex_order_at(c, pt)
        if r >= 1:
            found[r] = found.get(r, 0) + 1
    assert found, f"expected at least one rational flex on {src}"
    for r, n in found.items():
        assert n <= prof.count(r), (r, n, prof.counts)


def test_profiles_safe_to_run_in_parallel():
    sources = ["x^3 + y^3 + z^3", "x^4 + y^4 + z^4",
               "x^3*y + y^3*z + z^3*x", "x^4 + x*y^3 + y*z^3"]
    curves = [curve(s) for s in sources]
    sequential = [flex_profile(c, seed=4) for c in curves]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda c: flex_profile(c, seed=4), curves))
    assert sequential == parallel


def test_fractional_coefficients_reach_same_profile():
    half, _ = parse_form("1/2x^3 + 1/2y^3 + 1/2z^3")
    prof = flex_profile(check_smooth(half))
    assert prof.counts == {1: 9}


def test_degree_seven_families():
    assert flex_profile(curve("x^7 + y^7 + z^7")).counts == {5: 21}
    prof = flex_profile(curve("x^6*y + y^6*z + z^6*x"))
    assert prof.counts == {4: 3, 1: 93}


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(
    d=st.integers(3, 5),
    curve_seed=st.integers(0, 2**32 - 1),
    matrix_seed=st.integers(0, 2**32 - 1),
)
def test_profile_invariant_under_unimodular_change(d, curve_seed, matrix_seed):
    form = random_smooth_curve(random.Random(curve_seed), d).form
    m = random_unimodular(random.Random(matrix_seed), INITIAL_BOUND)
    moved = linear_substitute(form, m)
    assert flex_profile(check_smooth(moved)) == flex_profile(check_smooth(form))


# ----------------------------------------------------------------------
# The helper process: the process rules of _beside
# ----------------------------------------------------------------------


# flexlab's helper process (``_beside``) computes whole resultants: the
# second smoothness elimination, and the flex projections after the
# current one.  ``two_cpus`` stops any helper before and after each test.
FERMAT_7 = "x^7 + y^7 + z^7"


def smooth_curve(src: str):
    return check_smooth(parse_form(src)[0])


def in_child_only(owner: int, child_does, caller_does):
    """A stand-in that runs ``child_does`` in a forked child and
    ``caller_does`` in the process ``owner``."""
    return lambda *args: (caller_does if os.getpid() == owner else child_does)(*args)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_exception_in_callers_half_kills_the_child_at_once(two_cpus, monkeypatch, error):
    # Serially, so that the helper forked below runs the stand-in.
    curve = serially(monkeypatch, lambda: smooth_curve(FERMAT_7))
    want = serially(monkeypatch, lambda: flex_profile(curve))

    def interrupted(*args):
        raise error("interrupted")

    # A child's projections that would take a minute.
    stand_in = in_child_only(os.getpid(), lambda *args: time.sleep(60), interrupted)
    with monkeypatch.context() as m:
        m.setattr(flexlab, "_profile_once", stand_in)
        forks, start = len(two_cpus), time.monotonic()
        with pytest.raises(error):
            flex_profile(curve)
        assert time.monotonic() - start < 10
    assert len(two_cpus) == forks + 1
    assert_reaped(two_cpus)
    assert flex_profile(curve) == want


@needs_fork
def test_child_dying_mid_job_is_replaced_by_serial_values(two_cpus, monkeypatch):
    form = parse_form(FERMAT_7)[0]
    want = serially(monkeypatch, lambda: flex_profile(check_smooth(form), seed=3))
    owner = os.getpid()
    dying = lambda *args: os._exit(1)  # noqa: E731
    monkeypatch.setattr(flexlab, "_eliminate_z", in_child_only(owner, dying, flexlab._eliminate_z))
    monkeypatch.setattr(flexlab, "_profile_once", in_child_only(owner, dying, flexlab._profile_once))
    forks = len(two_cpus)
    assert flex_profile(check_smooth(form), seed=3) == want
    # one smoothness child; at seed 3 the first projection is rejected and
    # the second certified, each with a child
    assert len(two_cpus) == forks + 3


@needs_fork
def test_truncated_answer_is_replaced_by_serial_values(two_cpus, monkeypatch):
    form = parse_form(FERMAT_7)[0]
    want = serially(monkeypatch, lambda: flex_profile(check_smooth(form), seed=3))

    def half_then_die(answer, file):
        data = pickle.dumps(answer)
        file.write(data[: len(data) // 2])
        file.flush()
        os._exit(1)

    monkeypatch.setattr(pickle, "dump", in_child_only(os.getpid(), half_then_die, pickle.dump))
    forks = len(two_cpus)
    assert flex_profile(check_smooth(form), seed=3) == want
    assert len(two_cpus) == forks + 3


@needs_fork
def test_fork_failure_falls_back_to_serial_with_identical_output(two_cpus, monkeypatch, capsys):
    argv = ["--json", "flexes", "x^8 + y^8 + z^8"]
    assert serially(monkeypatch, lambda: cli.main(argv)) == 0
    want = capsys.readouterr()
    failed = []

    def no_fork():
        failed.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert failed


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def forbidden():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", forbidden, raising=False)
    assert flex_profile(smooth_curve(FERMAT_7), seed=3).counts == {5: 21}


@needs_fork
def test_profiles_on_several_threads_never_fork(two_cpus, monkeypatch):
    """Smoothness and flex profiles of degree-7 curves, which fork on the
    main thread, agree when run on threads, where nothing forks."""
    sources = [FERMAT_7, "x^6*y + y^6*z + z^6*x", "x^7 + y^7 + z^7 + x^3*y^2*z^2"]
    forms = [parse_form(src)[0] for src in sources]
    sequential = [flex_profile(check_smooth(f), seed=4) for f in forms]
    assert two_cpus

    def forbidden():
        raise AssertionError("forked with several threads running")

    monkeypatch.setattr(os, "fork", forbidden)
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(lambda f: flex_profile(check_smooth(f), seed=4), forms))
    assert threaded == sequential


def test_fresh_process_leaves_no_child_behind():
    # A child still running would hold the captured stdout open, and the
    # call would time out instead of returning.
    proc = subprocess.run(
        [sys.executable, "-m", "orbitflex", "flexes", "x^8 + y^8 + z^8"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("curve degree: 8\n")
    assert proc.stderr == ""


@needs_fork
def test_one_helper_serves_every_call(two_cpus, monkeypatch):
    # No first projection of these curves is rejected at seed 0, so no
    # helper is killed: six calls, one fork.
    sources = [FERMAT_7, "x^6*y + y^6*z + z^6*x", "x^8 + y^8 + z^8"]
    profiles = lambda: [flex_profile(smooth_curve(src)) for src in sources]  # noqa: E731
    want = serially(monkeypatch, profiles)
    assert profiles() == want
    assert len(two_cpus) == 1


@needs_fork
def test_a_process_forked_from_the_caller_never_uses_its_helper(two_cpus):
    curve = smooth_curve(FERMAT_7)
    helper = flexlab._helper
    want = flex_profile(curve)
    assert helper is not None and flexlab._helper is helper
    verdict_in, verdict_out = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            # The copies of the caller's pipes are closed, and a profile
            # here forks a helper of this process's own.
            dropped = flexlab._helper is None and helper.requests.closed and helper.answers.closed
            same = flex_profile(curve) == want and flexlab._helper is not None
            flexlab._stop_helper()
            os.write(verdict_out, bytes([dropped, same]))
        finally:
            os._exit(0)
    os.close(verdict_out)
    with open(verdict_in, "rb") as verdict:
        assert verdict.read() == bytes([True, True])
    assert os.waitpid(pid, 0)[1] == 0
    # The caller's helper is untouched: it still answers, and nothing forks.
    assert flex_profile(curve) == want
    assert flexlab._helper is helper
    assert len(two_cpus) == 2


@needs_fork
def test_helper_exits_when_its_caller_is_killed():
    script = (
        "import os, time\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from orbitflex import flexlab\n"
        "from orbitflex.polyparse import parse_form\n"
        f"flexlab.flex_profile(flexlab.check_smooth(parse_form({FERMAT_7!r})[0]))\n"
        "print(flexlab._helper.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        assert int(caller.stdout.readline()) > 0
        os.kill(caller.pid, signal.SIGKILL)
        # The helper holds the caller's stdout, which reaches EOF only once
        # the helper has exited too: at EOF on its request pipe.
        assert caller.communicate(timeout=5)[0] == ""
    finally:
        caller.kill()
        caller.wait()


@needs_fork
def test_helper_is_reaped_at_exit():
    # atexit runs its functions last registered first, so ``reaped``, which
    # is registered before flexlab is imported, runs after flexlab's own.
    script = (
        "import atexit, os\n"
        "def reaped():\n"
        "    try:\n"
        "        os.waitpid(helper.pid, os.WNOHANG)\n"
        "        print('not reaped')\n"
        "    except ChildProcessError:\n"
        "        print('reaped', helper.requests.closed and helper.answers.closed)\n"
        "atexit.register(reaped)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from orbitflex import flexlab\n"
        "from orbitflex.polyparse import parse_form\n"
        f"flexlab.flex_profile(flexlab.check_smooth(parse_form({FERMAT_7!r})[0]))\n"
        "helper = flexlab._helper\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "reaped True\n", "")


@needs_fork
def test_a_caller_that_ignores_sigchld_gets_a_serial_runs_output():
    # With SIGCHLD ignored, the system reaps the helper as it dies, so there
    # is no child left to wait for; at --seed 6 the first projection of the
    # Fermat septic is rejected, so the helper is killed.
    script = (
        "import os, signal, sys\n"
        "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from orbitflex import cli\n"
        f"sys.exit(cli.main(['--seed', '6', 'flexes', {FERMAT_7!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    serial = subprocess.run(
        [sys.executable, "-c", script.replace("{0, 1}", "{0}")], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == serial.stdout
