import random

import pytest

from orbitflex.chowcalc import (
    TOP_DEGREE,
    VARIABLES,
    GradedClass,
    NonUnitDenominatorError,
    PushforwardTable,
    _center_spec,
    _evaluate_on_base,
    _evaluate_on_plane,
    _simple_flex_assembly,
    _stage_table,
    coeff_d,
    correction_integral,
    verify_identities,
)
from orbitflex.exactpoly import MultiPoly
from orbitflex.orbitformulas import (
    first_blowup_term,
    higher_blowup_term,
    second_blowup_term,
    simple_flex_predegree,
)


def gens():
    return (
        GradedClass.unit(),
        GradedClass.generator("k"),
        GradedClass.generator("h"),
        GradedClass.generator("e"),
        GradedClass.generator("f"),
    )


# ----------------------------------------------------------------------
# Truncated ring arithmetic
# ----------------------------------------------------------------------


def test_geometric_series_inverse():
    one, k, h, e, f = gens()
    assert (one + k).inverse() == one - k + k**2 - k**3 + k**4


def test_unit_times_inverse_is_one():
    one, k, h, e, f = gens()
    d = coeff_d()
    u = one + d * h
    assert u * u.inverse() == one


def test_unit_inverse_property_random():
    rng = random.Random(67)
    one, k, h, e, f = gens()
    basis = [k, h, e, f]
    for _ in range(15):
        u = one
        for g in basis:
            u = u + rng.randint(-3, 3) * g
        u = u + rng.randint(-2, 2) * k * h + rng.randint(-2, 2) * e * f
        assert u * u**-1 == one


def test_non_unit_denominator_rejected():
    one, k, h, e, f = gens()
    with pytest.raises(NonUnitDenominatorError):
        (2 * one + k).inverse()
    with pytest.raises(NonUnitDenominatorError):
        k.inverse()


def test_truncation_drops_high_degrees():
    one, k, h, e, f = gens()
    assert (k**3 * h**2).is_zero()
    assert not (k**2 * h**2).is_zero()


def random_class_terms(rng):
    """Up to six terms of generator degree <= TOP_DEGREE, with d and j
    exponents up to 2 on top."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, TOP_DEGREE)):
            exps[rng.randrange(4)] += 1
        terms[(*exps, rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-3, 3)
    return terms


def truncated(p):
    return MultiPoly(VARIABLES, {m: c for m, c in p.terms.items() if sum(m[:4]) <= TOP_DEGREE})


def test_class_arithmetic_matches_multipoly():
    # d and j are exponents of degree 0: sums, products and inverses equal
    # MultiPoly arithmetic over all six variables, truncated in k, h, e, f.
    rng = random.Random(79)
    one = MultiPoly.const(VARIABLES, 1)
    for _ in range(40):
        a, b = random_class_terms(rng), random_class_terms(rng)
        pa, pb = MultiPoly(VARIABLES, a), MultiPoly(VARIABLES, b)
        assert (GradedClass(a) + GradedClass(b)).terms == (pa + pb).terms
        assert (GradedClass(a) * GradedClass(b)).terms == truncated(pa * pb).terms
        unit = {m: c for m, c in a.items() if sum(m[:4])}
        unit[(0,) * 6] = 1
        rest = one - MultiPoly(VARIABLES, unit)
        series, power = one, one
        for _ in range(TOP_DEGREE):
            power = truncated(power * rest)
            series = series + power
        assert GradedClass(unit).inverse().terms == series.terms


# ----------------------------------------------------------------------
# Pushforward tables
# ----------------------------------------------------------------------


def hand_written_images():
    """The pushforward images as tabulated by hand, before the tables were
    derived from Segre classes: the oracle for the derived tables."""
    one, k, h, e, f = gens()
    d = coeff_d()
    zero = GradedClass.zero()
    return {
        "second": (
            zero,
            -one,
            -3 * k + (2 * d - 6) * h,
            -6 * k**2 + (9 * d - 27) * k * h,
            (24 * d - 72) * k**2 * h,
        ),
        "flex": (zero, -one, -3 * k, -6 * k**2),
        "higher": (zero, -one, -e, -(e**2), -(e**3)),
    }


def test_derived_images_match_hand_written_tables():
    for stage, images in hand_written_images().items():
        derived = _stage_table(stage).images
        assert len(derived) == TOP_DEGREE + 1
        assert derived[: len(images)] == images
        assert all(image.is_zero() for image in derived[len(images) :])


def test_pushforward_e_squared_second_stage():
    one, k, h, e, f = gens()
    d = coeff_d()
    assert _stage_table("second").apply(e**2) == -3 * k + (2 * d - 6) * h


def test_pushforward_projection_formula_example():
    one, k, h, e, f = gens()
    assert _stage_table("second").apply(k * e) == -k


def test_pushforward_f_squared_higher_stage():
    one, k, h, e, f = gens()
    assert _stage_table("higher").apply(f**2) == -e


def test_pushforward_unit_is_zero_on_every_stage():
    for stage in ("second", "flex", "higher"):
        one = GradedClass.unit()
        assert _stage_table(stage).apply(one).is_zero()


def test_pushforward_linear_over_base_classes():
    rng = random.Random(71)
    one, k, h, e, f = gens()
    second = _stage_table("second")
    for i in range(5):
        base = k ** rng.randint(0, 2) * h ** rng.randint(0, 1)
        assert second.apply(base * e**i) == base * second.apply(e**i)


# ----------------------------------------------------------------------
# Correction integrals
# ----------------------------------------------------------------------


def as_d_poly(expr):
    out = {}
    for (ed, ej), c in expr.terms.items():
        assert ej == 0
        out[(ed,)] = c
    return MultiPoly(("d",), out)


def test_first_integral_closed_form():
    d = MultiPoly.var(("d",), "d")
    assert as_d_poly(correction_integral("first")) == d * (10 * d - 9) * (
        14 * d**2 - 33 * d + 21
    )


def test_second_integral_closed_form():
    d = MultiPoly.var(("d",), "d")
    assert as_d_poly(correction_integral("second")) == d * (2 * d - 3) * (
        322 * d**2 - 1257 * d + 1233
    )


def test_flex_integral_closed_form():
    d = MultiPoly.var(("d",), "d")
    assert as_d_poly(correction_integral("flex")) == 196 * d**2 - 960 * d + 1125


def test_higher_integral_closed_form():
    dj = ("d", "j")
    d = MultiPoly.var(dj, "d")
    j = MultiPoly.var(dj, "j")
    expected = (
        30 * j**4
        - 96 * (d - 1) * j**3
        + 12 * (d - 1) * (7 * d - 11) * j**2
        + 84 * (d - 1) ** 2 * j
        - 7 * (2 * d - 3) * (22 * d - 39)
    )
    assert correction_integral("higher") == expected


def test_higher_integral_at_level_two_is_flex_integral():
    higher = correction_integral("higher")
    flex = correction_integral("flex")
    for d in range(3, 10):
        assert higher.evaluate((d, 2)) == flex.evaluate((d, 0))


@pytest.mark.parametrize(
    "name, derived",
    [
        ("first", "140*d^4 - 456*d^3 + 507*d^2 - 189*d"),
        ("second", "644*d^4 - 3480*d^3 + 6237*d^2 - 3699*d"),
        ("flex", "196*d^2 - 960*d + 1125"),
        (
            "higher",
            "84*d^2*j^2 - 96*d*j^3 + 30*j^4 + 84*d^2*j - 216*d*j^2 + 96*j^3"
            " - 308*d^2 - 168*d*j + 132*j^2 + 1008*d + 84*j - 819",
        ),
    ],
)
def test_derived_integral_text(name, derived):
    assert str(correction_integral(name)) == derived


def test_numeric_spot_values():
    assert correction_integral("first").evaluate((3, 0)) == 3024
    assert correction_integral("first").evaluate((4, 0)) == 14012
    assert correction_integral("second").evaluate((3, 0)) == 3240
    assert correction_integral("second").evaluate((4, 0)) == 27140
    assert correction_integral("flex").evaluate((3, 0)) == 9
    assert correction_integral("flex").evaluate((4, 0)) == 421


def test_expand_truncated_reproduces_first_integrand():
    # degree-3 part of (1+dk+dh)^8 (1+k)^3 (1+h)^3 / ((1+k+h)^9 (1+dh)),
    # integrated over the base, equals the first correction term.
    one, k, h, e, f = gens()
    d = coeff_d()
    expr = (
        (one + d * k + d * h) ** 8
        * (one + k) ** 3
        * (one + h) ** 3
        / ((one + k + h) ** 9 * (one + d * h))
    )
    integral = _center_spec("first").integrate(expr.graded_part(3))
    assert integral == correction_integral("first")


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def test_symbolic_assembly_matches_simple_flex_polynomial():
    dp = MultiPoly.var(("d",), "d")
    assembled = _simple_flex_assembly(
        correction_integral("first"), correction_integral("second"), correction_integral("flex")
    )
    assert assembled == simple_flex_predegree(dp)


def test_numeric_assembly_examples():
    assembled = _simple_flex_assembly(
        correction_integral("first"), correction_integral("second"), correction_integral("flex")
    )
    assert [assembled.evaluate((d,)) for d in (3, 4, 5, 10)] == [216, 14280, 188340, 92790480]


def test_chow_route_agrees_with_formula_routes():
    # The blow-up-sum route subtracts these terms at every (d, j) a
    # profile of degree d reaches, so the derived integrals give the same
    # predegree term by term; test_orbitformulas checks the three routes.
    first, second, higher = (correction_integral(s) for s in ("first", "second", "higher"))
    for d in range(3, 9):
        assert first.evaluate((d, 0)) == first_blowup_term(d)
        assert second.evaluate((d, 0)) == second_blowup_term(d)
        for j in range(2, d):
            assert higher.evaluate((d, j)) == higher_blowup_term(j, d)


def test_verify_identities_all_pass():
    checks = verify_identities()
    assert len(checks) == 9
    failed = [name for name, ok, _, _ in checks if not ok]
    assert failed == []


def test_import_builds_no_class():
    # Centers are built when their integral is derived, never at import.
    import subprocess
    import sys

    code = (
        "import gc, orbitflex.cli\n"
        "from orbitflex.chowcalc import GradedClass\n"
        "print(sum(isinstance(o, GradedClass) for o in gc.get_objects()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_identity_checks_have_teeth():
    # A corrupted pushforward image must change the derived integral: the
    # verification is sensitive to the table data, not vacuously true.
    one, k, h, e, f = gens()
    good = correction_integral("flex")
    bad_table = PushforwardTable(
        name="flex-plane-corrupted",
        fiber=2,
        images=(
            GradedClass.zero(),
            -one,
            -3 * k,
            -5 * (k**2),  # true image is -6*k^2
        ),
    )
    stage = _center_spec("flex")
    integrand = ((one + stage.point_class) ** 8 / stage.normal_chern).graded_part(3)
    assert stage.integrate(integrand) == good
    corrupted = _evaluate_on_plane(bad_table.apply(integrand))
    assert corrupted != good


def test_corrupted_point_class_changes_integral():
    one, k, h, e, f = gens()
    stage = _center_spec("first")
    d = coeff_d()
    wrong_point = d * k + (d - 1) * h
    integrand = (one + wrong_point) ** 8 / stage.normal_chern
    corrupted = _evaluate_on_base(integrand.graded_part(3))
    assert corrupted != correction_integral("first")
