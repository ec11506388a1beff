"""What a cold start loads: each subcommand imports only the modules it
runs, and the package exports its names lazily (PEP 562) without changing
what they are."""

import os
import subprocess
import sys
from functools import cache
from importlib import import_module
from pathlib import Path

import pytest

import orbitflex

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name the package exported when it imported all its modules, with
# the module it was imported from.
EXPORTS = {
    "chowcalc": ["correction_integral", "verify_identities"],
    "exactpoly": [
        "MultiPoly",
        "factor_integer",
        "hessian_determinant",
        "linear_substitute",
        "resultant",
        "squarefree_decompose",
    ],
    "flexlab": [
        "FlexProfile",
        "FlexSums",
        "GenericityFailureError",
        "InconsistentProfileError",
        "PlaneCurve",
        "SingularCurveError",
        "check_smooth",
        "f_sums",
        "flex_profile",
    ],
    "orbitformulas": [
        "NonDivisibleError",
        "PredegreeReport",
        "aut_lcm_bound",
        "build_report",
        "fermat_predegree",
        "flex_contribution",
        "orbit_degree",
        "predegree_by_blowup_sum",
        "predegree_by_flex_orders",
        "predegree_by_power_sums",
        "simple_flex_predegree",
        "table_rows",
    ],
    "pgl2": ["TupleConfig", "pgl2_oracle", "pgl2_predegree"],
    "polyparse": ["ParseError", "parse_form"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _imported(*args: str) -> set[str]:
    """Modules a fresh interpreter imports, as ``-X importtime`` lists them."""
    proc = _fresh("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


@cache
def _bare() -> frozenset[str]:
    return frozenset(_imported("-c", "pass"))


def _cold_start(*argv: str) -> set[str]:
    return _imported("-m", "orbitflex", *argv)


SUBCOMMANDS = {
    "flexes": ("flexes", "x^3 + y^3 + z^3"),
    "predegree": ("predegree", "x^3 + y^3 + z^3"),
    "degree": ("degree", "x^4 + y^4 + z^4", "--aut", "96"),
    "table": ("table", "--from", "3", "--to", "12"),
    "verify-chow": ("verify-chow",),
    "pgl2": ("pgl2", "--multiplicities", "2,1,1"),
    "bound": ("bound", "6"),
}


@pytest.mark.parametrize("argv", [("bound", "6"), ("table", "--from", "3", "--to", "12")])
def test_formula_commands_load_no_curve_pipeline(argv):
    loaded = _cold_start(*argv)
    assert "orbitflex.orbitformulas" in loaded
    assert not loaded & {"orbitflex.flexlab", "orbitflex.polyparse", "orbitflex.chowcalc"}


def test_smooth_predegree_loads_no_chow_engine():
    loaded = _cold_start("predegree", "x^3 + y^3 + z^3")
    assert "orbitflex.flexlab" in loaded
    assert "orbitflex.chowcalc" not in loaded


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS)
def test_no_subcommand_loads_dataclasses_or_fractions(argv):
    # pickle is for the helper process, which no curve here (d <= 4) forks.
    extra = {"dataclasses", "fractions", "pickle"} - _bare()
    assert not _cold_start(*argv) & extra


@pytest.mark.parametrize("module, name", NAMES)
def test_lazy_export_is_the_object_of_its_module(module, name):
    assert getattr(orbitflex, name) is getattr(import_module(f"orbitflex.{module}"), name)
    assert name in dir(orbitflex) and name in orbitflex.__all__


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from orbitflex import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)
    assert set(orbitflex.__all__) == {name for _, name in NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitflex.no_such_name  # noqa: B018
    assert not hasattr(orbitflex, "no_such_name")


def test_exactpoly_resultant_stays_the_function():
    # exactpoly.resultant is the function the package exports, defined in
    # the submodule exactpoly.elimination; importing that submodule must
    # not rebind the name.
    script = (
        "import orbitflex.exactpoly.elimination\n"
        "import orbitflex.exactpoly as e\n"
        "from orbitflex.exactpoly import resultant\n"
        "import orbitflex\n"
        "assert callable(e.resultant) and resultant is e.resultant is orbitflex.resultant\n"
    )
    proc = _fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
