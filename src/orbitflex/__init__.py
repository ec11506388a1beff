"""Exact flex profiles and orbit-closure degrees of smooth plane curves.

Computes, in exact integer arithmetic, the flex profile of a smooth
plane curve of degree d >= 3 and the predegree/degree of its orbit
closure under the projective linear group, by three mutually checking
routes: closed-form formulas, a per-blow-up correction summation, and a
symbolic Chow-ring engine that derives the correction integrals from
truncated graded-ring expansions and push-downs along P^1-bundles.

The names below are imported from their modules at first use (PEP 562),
so that a process loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the names it exports from the package.
_EXPORTS = {
    "chowcalc": "correction_integral verify_identities",
    "exactpoly": "MultiPoly factor_integer hessian_determinant linear_substitute resultant"
    " squarefree_decompose",
    "flexlab": "check_smooth flex_profile",
    "orbitformulas": "NonDivisibleError PredegreeReport aut_lcm_bound build_report"
    " fermat_predegree flex_contribution orbit_degree predegree_by_blowup_sum"
    " predegree_by_flex_orders predegree_by_power_sums simple_flex_predegree table_rows",
    "pgl2": "TupleConfig pgl2_oracle pgl2_predegree",
    "polyparse": "ParseError parse_form",
    "profiles": "FlexProfile FlexSums GenericityFailureError InconsistentProfileError"
    " PlaneCurve SingularCurveError f_sums",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
