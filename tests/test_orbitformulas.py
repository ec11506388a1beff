import random

import pytest

from orbitflex.exactpoly import MultiPoly
from orbitflex.flexlab import FlexProfile, FlexSums, f_sums
from orbitflex.orbitformulas import (
    InconsistentProfileError,
    NonDivisibleError,
    aut_lcm_bound,
    build_report,
    cyclic_curve_degree_closed_form,
    fermat_predegree,
    fermat_predegree_factored,
    flex_contribution,
    orbit_degree,
    predegree_by_blowup_sum,
    predegree_by_flex_orders,
    predegree_by_power_sums,
    simple_flex_predegree,
    table_rows,
)
from orbitflex.pgl2 import TupleConfig
from helpers import expanded_flex_order_predegree, random_valid_profile

TABLE = {
    3: (216, "2^3*3^3"),
    4: (14280, "2^3*3*5*7*17"),
    5: (188340, "2^2*3*5*43*73"),
    6: (1119960, "2^3*3^3*5*17*61"),
    7: (4508280, "2^3*3^2*5*7*1789"),
    8: (14318256, "2^4*3*317*941"),
    9: (38680740, "2^2*3^6*5*7*379"),
    10: (92790480, "2^4*3*5*59*6553"),
}


# ----------------------------------------------------------------------
# The three routes
# ----------------------------------------------------------------------


def test_blowup_sum_examples():
    assert predegree_by_blowup_sum(4, {1: 24}) == 14280
    assert predegree_by_blowup_sum(3, {1: 9}) == 216
    assert predegree_by_blowup_sum(4, {2: 12}) == 10752


def test_flex_orders_examples():
    assert predegree_by_flex_orders(4, {1: 24}) == 14280
    assert predegree_by_flex_orders(4, {2: 1, 1: 22}) == 13986
    assert predegree_by_flex_orders(5, {1: 45}) == 188340


def test_power_sums_examples():
    assert predegree_by_power_sums(3, FlexSums(9, 9, 9, 9)) == 216
    assert predegree_by_power_sums(4, FlexSums(24, 24, 24, 24)) == 14280
    assert predegree_by_power_sums(4, FlexSums(48, 96, 192, 384)) == 10752


def test_route_agreement_random_profiles():
    rng = random.Random(79)
    for d in range(3, 13):
        for _ in range(10):
            profile = random_valid_profile(rng, d)
            a = predegree_by_blowup_sum(d, profile)
            b = predegree_by_flex_orders(d, profile)
            c = predegree_by_power_sums(d, f_sums(FlexProfile(d, profile)))
            assert a == b == c


def test_inconsistent_profile_rejected():
    with pytest.raises(InconsistentProfileError):
        predegree_by_blowup_sum(4, {1: 23})
    with pytest.raises(InconsistentProfileError):
        predegree_by_flex_orders(4, {3: 8})


def test_non_integer_degree_or_profile_rejected():
    # Floats once ran through every route: build_report(4, {1: 24.0}) gave
    # the predegree 14280.0, and TupleConfig((2.5, 1.5)) a predegree of 0.0.
    rejected = [
        lambda: build_report(4, {1: 24.0}),
        lambda: build_report(4.0, {1: 24}),
        lambda: build_report(4, {1.0: 24}),
        lambda: FlexProfile(3, {True: 9}),
        lambda: FlexProfile(4, {1: "24"}),
        lambda: predegree_by_power_sums(4.0, FlexSums(24, 24, 24, 24)),
        lambda: simple_flex_predegree(4.0),
        lambda: TupleConfig((2.5, 1.5)),
        lambda: TupleConfig((True, 2)),
    ]
    for call in rejected:
        with pytest.raises(ValueError):
            call()


# ----------------------------------------------------------------------
# P(d), f_k(d)
# ----------------------------------------------------------------------


def test_simple_flex_predegree_values():
    assert simple_flex_predegree(3) == 216
    assert simple_flex_predegree(4) == 14280
    assert simple_flex_predegree(10) == 92790480


def test_simple_flex_predegree_rejects_low_degree():
    with pytest.raises(ValueError):
        simple_flex_predegree(2)


def test_factored_and_expanded_forms_agree_symbolically():
    d = MultiPoly.var(("d",), "d")
    factored = d * (d - 2) * (
        d**6 + 2 * d**5 + 4 * d**4 + 8 * d**3 - 1356 * d**2 + 5280 * d - 5319
    )
    assert factored == simple_flex_predegree(d)


def test_flex_contribution_examples():
    assert flex_contribution(1, 4) == 0
    assert flex_contribution(0, 7) == 0
    d = MultiPoly.var(("d",), "d")
    assert flex_contribution(2, d) == -6 * (84 * d**2 - 512 * d + 753)
    assert flex_contribution(3, d) == -6 * (280 * d**2 - 1896 * d + 3141)
    assert flex_contribution(2, 4) == -294


def test_hyperflex_linearity_for_quartics():
    for n in range(0, 13):
        profile = {2: n, 1: 24 - 2 * n}
        assert predegree_by_flex_orders(4, profile) == 14280 - 294 * n


def test_negativity_of_flex_contributions():
    for k in range(2, 21):
        for d in range(k + 2, 41):
            assert flex_contribution(k, d) < 0


def test_flex_orders_route_equals_the_expanded_polynomial():
    # The route is P(d) plus flex_contribution per flex; the oracle is the
    # same predegree expanded into one polynomial in d and the orders.
    fermat_quartic = {2: 12}
    assert (predegree_by_flex_orders(4, fermat_quartic)
            == expanded_flex_order_predegree(4, fermat_quartic) == 10752)
    rng = random.Random(83)
    for _ in range(2000):
        d = rng.randint(3, 40)
        profile = random_valid_profile(rng, d)
        assert predegree_by_flex_orders(d, profile) == expanded_flex_order_predegree(d, profile)


# ----------------------------------------------------------------------
# Degrees and families
# ----------------------------------------------------------------------


def test_orbit_degree_examples():
    assert orbit_degree(14280, 168) == 85
    assert orbit_degree(10752, 96) == 112
    assert orbit_degree(13986, 9) == 1554
    assert orbit_degree(216, 18) == 12
    assert orbit_degree(216, 36) == 6
    assert orbit_degree(216, 54) == 4


def test_orbit_degree_non_divisible():
    with pytest.raises(NonDivisibleError):
        orbit_degree(10752, 97)
    with pytest.raises(ValueError):
        orbit_degree(10752, 0)


def test_fermat_predegree_values():
    assert fermat_predegree(4) == 10752
    assert fermat_predegree(3) == 216  # order d-2 = 1 is simple
    assert fermat_predegree(4) == simple_flex_predegree(4) + 12 * flex_contribution(2, 4)


def test_fermat_identity_symbolic():
    d = MultiPoly.var(("d",), "d")
    assert fermat_predegree(d) == fermat_predegree_factored(d)
    assert fermat_predegree_factored(d) == d**2 * (d - 2) * (
        d**5 + 2 * d**4 - 26 * d**3 - 7 * d**2 + 192 * d - 192
    )


def test_fermat_predegree_divisible_by_stabilizer():
    for d in range(3, 11):
        assert fermat_predegree(d) % (6 * d * d) == 0


def test_cyclic_curve_degree_value():
    # x^4*y + y^4*z + z^4*x: three flexes of order 2, stabilizer of order 39
    assert build_report(5, {1: 39, 2: 3}, aut_order=39).orbit_degree == 4694
    # cross-check: (P(5) + 3 f_2(5)) / 39 with f_2(5) = -1758
    assert flex_contribution(2, 5) == -1758
    assert (188340 + 3 * -1758) // 39 == 4694


def test_cyclic_identity_symbolic():
    d = MultiPoly.var(("d",), "d")
    numerator = simple_flex_predegree(d) + 3 * flex_contribution(d - 3, d)
    assert numerator == (d**2 - 3 * d + 3) * cyclic_curve_degree_closed_form(d)


# ----------------------------------------------------------------------
# Table and bounds
# ----------------------------------------------------------------------


def test_table_rows_match_published_values():
    from orbitflex.exactpoly import format_factorization

    rows = table_rows(3, 10)
    assert [d for d, _, _ in rows] == list(range(3, 11))
    for d, p, factors in rows:
        expected_p, expected_f = TABLE[d]
        assert p == expected_p
        assert format_factorization(factors) == expected_f


def test_table_rows_bad_range():
    with pytest.raises(ValueError):
        table_rows(2, 5)
    with pytest.raises(ValueError):
        table_rows(6, 5)


def test_aut_lcm_bounds():
    expected = {3: 216, 4: 168, 5: 60, 6: 1080, 7: 2520, 8: 48, 9: 102060, 10: 240}
    for d, bound in expected.items():
        assert aut_lcm_bound(d) == bound


def test_aut_lcm_bound_range():
    with pytest.raises(ValueError):
        aut_lcm_bound(11)
    with pytest.raises(ValueError):
        aut_lcm_bound(2)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def test_build_report_assembles_routes_and_degree():
    report = build_report(4, {1: 24}, aut_order=168)
    assert report.predegree == 14280
    assert set(report.routes.values()) == {14280}
    assert report.orbit_degree == 85
    assert report.factorization == [(2, 3), (3, 1), (5, 1), (7, 1), (17, 1)]


def test_build_report_rejects_bad_aut():
    with pytest.raises(NonDivisibleError):
        build_report(4, {2: 12}, aut_order=97)


def test_published_examples_divisible_by_aut_orders():
    cases = [
        (4, {1: 24}, 168),
        (4, {2: 12}, 96),
        (4, {2: 1, 1: 22}, 9),
        (3, {1: 9}, 54),
        (5, {2: 3, 1: 39}, 39),
        (6, {3: 3, 1: 63}, 3 * (36 - 18 + 3)),
    ]
    for d, profile, aut in cases:
        report = build_report(d, profile, aut_order=aut)
        assert report.predegree % aut == 0
