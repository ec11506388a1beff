"""Exact flex profiles and orbit-closure degrees of smooth plane curves.

Computes, in exact rational arithmetic, the flex profile of a smooth
plane curve of degree d >= 3 and the predegree/degree of its orbit
closure under the projective linear group, by three mutually checking
routes: closed-form formulas, a per-blow-up correction summation, and a
symbolic Chow-ring engine that derives the correction integrals from
truncated graded-ring expansions and push-downs along P^1-bundles.
"""

from .chowcalc import correction_integral, verify_identities
from .exactpoly import (
    MultiPoly,
    factor_integer,
    hessian_determinant,
    linear_substitute,
    resultant,
    squarefree_decompose,
)
from .flexlab import (
    FlexProfile,
    FlexSums,
    GenericityFailureError,
    InconsistentProfileError,
    PlaneCurve,
    PointNotOnCurveError,
    SingularCurveError,
    check_smooth,
    f_sums,
    flex_order_at,
    flex_profile,
)
from .orbitformulas import (
    NonDivisibleError,
    PredegreeReport,
    aut_lcm_bound,
    build_report,
    fermat_predegree,
    flex_contribution,
    orbit_degree,
    predegree_by_blowup_sum,
    predegree_by_flex_orders,
    predegree_by_power_sums,
    simple_flex_predegree,
    table_rows,
)
from .pgl2 import TupleConfig, pgl2_oracle, pgl2_predegree
from .polyparse import ParseError, parse_form

__version__ = "0.1.0"
