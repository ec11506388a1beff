import json
import time
from pathlib import Path

import pytest

from orbitflex import cli
from orbitflex.cli import main

KLEIN = "x^3*y + y^3*z + z^3*x"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--from", "3", "--to", "10")
    assert code == 0
    for value in ("216", "14280", "188340", "1119960", "4508280",
                  "14318256", "38680740", "92790480"):
        assert value in out
    assert "2^3*3^3" in out and "2^4*3*317*941" in out


def test_table_json_integers_are_strings(capsys):
    code, out, _ = run(capsys, "--json", "table", "--from", "3", "--to", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["predegree"] == "216"
    assert payload["rows"][1]["factorization"] == [["2", "3"], ["3", "1"], ["5", "1"], ["7", "1"], ["17", "1"]]


def test_predegree_klein_with_aut(capsys):
    code, out, _ = run(capsys, "predegree", KLEIN, "--aut", "168")
    assert code == 0
    assert "predegree: 14280" in out
    assert "orbit degree: 85" in out


@pytest.mark.parametrize("seed", ["134", "147", "150"])
def test_klein_degree_at_seeds_that_once_merged_flexes(capsys, seed):
    # At these seeds two projections each put two simple flexes in one
    # fibre and agreed on {1: 22, 2: 1}; degree then exited 1 with
    # "168 does not divide predegree 13986".
    code, out, err = run(capsys, "--seed", seed, "degree", KLEIN, "--aut", "168")
    assert (code, err) == (0, "")
    assert "flex profile: order 1 x 24" in out and "orbit degree: 85" in out


def test_curve_starting_with_minus_after_double_dash(capsys):
    # Without "--", argparse reads "-x^3+y^3+z^3" as an unknown option.
    code, out, err = run(capsys, "--json", "predegree", "--", "-x^3+y^3+z^3")
    assert (code, err) == (0, "")
    assert json.loads(out)["profile"] == {"1": "9"}


def test_degree_requires_divisibility(capsys):
    code, _, err = run(capsys, "degree", "x^4+y^4+z^4", "--aut", "97")
    assert code == 1
    assert "97" in err


def test_degree_fermat_quartic(capsys):
    code, out, _ = run(capsys, "degree", "x^4+y^4+z^4", "--aut", "96")
    assert code == 0
    assert "orbit degree: 112" in out


def test_flexes_output(capsys):
    code, out, _ = run(capsys, "flexes", "x^4+y^4+z^4")
    assert code == 0
    assert "order 2 x 12" in out
    assert "f2=48 f3=96 f4=192 f5=384" in out


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "flexes", "x^3 + ")
    assert code == 2
    assert "position" in err
    for text in ["(" * 2000 + "x^3+y^3+z^3" + ")" * 2000, "x^3 + " + "-" * 5000 + "y^3+z^3"]:
        code, out, err = run(capsys, "flexes", text)
        assert (code, out) == (2, "")
        assert err == "input error: expression nested too deeply (at position 0)\n"


def test_non_decimal_digit_is_a_syntax_error_at_its_position(capsys):
    code, out, err = run(capsys, "flexes", "x²+y^3+z^3")
    assert (code, out) == (2, "")
    assert err == "input error: unexpected character '²' (at position 1)\n"


def test_huge_constant_power_exits_two_at_once(capsys):
    for text in ("5z* 4^3591443783", "5z* (4x)^3591443783"):
        start = time.perf_counter()
        code, out, err = run(capsys, "flexes", text)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "power exceeds" in err


def test_non_homogeneous_exit_code(capsys):
    code, _, err = run(capsys, "flexes", "x^2 + y^3")
    assert code == 2


def test_singular_curve_exit_code(capsys):
    code, _, err = run(capsys, "flexes", "x^2*z - y^3")
    assert code == 2
    assert "witness" in err


VERIFY_CHOW_NAMES = (
    "first-center-integral",
    "second-center-integral",
    "flex-center-integral",
    "higher-center-integral",
    "higher-at-level-2-matches-flex",
    "predegree-assembly",
    "simple-flex-factored-form",
    "fermat-family-identity",
    "cyclic-family-identity",
)


def test_verify_chow_all_pass(capsys):
    code, out, err = run(capsys, "verify-chow")
    assert code == 0
    assert err == ""
    passes = "".join(f"PASS {n}\n" for n in VERIFY_CHOW_NAMES)
    assert out == passes + "9/9 identities hold\n"


def test_verify_chow_json(capsys):
    code, out, err = run(capsys, "--json", "verify-chow")
    assert code == 0
    assert err == ""
    entries = ",\n".join(
        f'    {{\n      "name": "{n}",\n      "passed": true\n    }}'
        for n in VERIFY_CHOW_NAMES
    )
    assert out == (
        '{\n  "all_passed": true,\n  "command": "verify-chow",\n'
        f'  "identities": [\n{entries}\n  ]\n}}\n'
    )


def test_pgl2_command(capsys):
    code, out, _ = run(capsys, "pgl2", "--multiplicities", "2,1,1")
    assert code == 0
    assert "formula: 12" in out and "oracle:  12" in out


def test_pgl2_many_points_is_fast(capsys):
    # The oracle is one pass over the points, not a sum over ordered triples.
    start = time.perf_counter()
    code, out, _ = run(capsys, "pgl2", "--multiplicities", ",".join(["1"] * 3000))
    assert time.perf_counter() - start < 0.5
    assert code == 0
    value = 3000 * 2999 * 2998
    assert f"formula: {value}" in out and f"oracle:  {value}" in out


def test_pgl2_bad_list(capsys):
    code, _, err = run(capsys, "pgl2", "--multiplicities", "2,x")
    assert code == 2


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "4")
    assert code == 0
    assert "168" in out


def test_bound_out_of_range(capsys):
    code, _, err = run(capsys, "bound", "11")
    assert code == 2


def test_byte_identical_reruns(capsys):
    code1, out1, _ = run(capsys, "--seed", "3", "predegree", KLEIN)
    code2, out2, _ = run(capsys, "--seed", "3", "predegree", KLEIN)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_and_text_carry_same_numbers(capsys):
    _, text, _ = run(capsys, "degree", "x^4+y^4+z^4", "--aut", "96")
    _, js, _ = run(capsys, "--json", "degree", "x^4+y^4+z^4", "--aut", "96")
    payload = json.loads(js)
    assert f"predegree: {payload['predegree']}" in text
    assert f"orbit degree: {payload['orbit_degree']}" in text
    for route, value in payload["routes"].items():
        assert f"via {route.replace('_', ' ')}: {value}" in text


def test_curve_from_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("x^3 + y^3 + z^3\n")
    code, out, _ = run(capsys, "flexes", "--from-file", str(path))
    assert code == 0
    assert "order 1 x 9" in out


def test_inline_curve_and_file_conflict(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("x^4 + y^4 + z^4\n")
    code, out, err = run(capsys, "flexes", "x^3+y^3+z^3", "--from-file", str(path))
    assert (code, out) == (2, "")
    assert err == "input error: give an inline curve or --from-file, not both\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_missing_file(capsys, tmp_path, kind):
    path = "/nonexistent/curve.txt" if kind == "missing" else str(tmp_path)
    code, _, err = run(capsys, "flexes", "--from-file", path)
    assert code == 2
    assert err.startswith("input error: ")


def test_json_schema_key_sets(capsys):
    _, out, _ = run(capsys, "--json", "flexes", "x^3+y^3+z^3")
    payload = json.loads(out)
    assert set(payload) == {"command", "curve", "curve_degree", "profile",
                            "weighted_total", "sums"}
    assert set(payload["sums"]) == {"f2", "f3", "f4", "f5"}

    _, out, _ = run(capsys, "--json", "predegree", "x^3+y^3+z^3")
    payload = json.loads(out)
    assert set(payload) == {"command", "curve", "curve_degree", "profile",
                            "sums", "predegree", "routes", "factorization",
                            "aut_order", "orbit_degree"}
    assert payload["aut_order"] is None and payload["orbit_degree"] is None
    assert set(payload["routes"]) == {"blowup_sum", "flex_orders", "power_sums"}

    _, out, _ = run(capsys, "--json", "bound", "5")
    assert set(json.loads(out)) == {"command", "d", "bound"}

    _, out, _ = run(capsys, "--json", "pgl2", "--multiplicities", "1,1,1,1")
    assert set(json.loads(out)) == {"command", "multiplicities", "d",
                                    "formula", "oracle", "agree"}


def test_fractional_coefficient_curve_through_cli(capsys):
    code, out, _ = run(capsys, "flexes", "1/2x^3 + 1/2y^3 + 1/2z^3")
    assert code == 0
    assert "order 1 x 9" in out


@pytest.mark.parametrize("seed", ["0", "1"])
def test_rational_curve_runs_as_its_cleared_form(capsys, seed):
    # The parser clears denominators, so 1/2x^3 + y^3 + z^3 runs as
    # x^3 + 2y^3 + 2z^3: the same stdout, apart from the echoed curve.
    runs = []
    for text in ("1/2x^3 + y^3 + z^3", "x^3 + 2y^3 + 2z^3"):
        flexes = run(capsys, "--seed", seed, "flexes", text)
        code, out, err = run(capsys, "--seed", seed, "--json", "predegree", text)
        payload = json.loads(out)
        assert payload.pop("curve") == text
        runs.append((flexes, code, err, payload))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == 0 and "order 1 x 9" in runs[0][0][1]


def test_genericity_failure_exits_one():
    # Singular only at irrational points: neither certificate nor witness.
    # Each curve runs in its own process with a timeout, so a search that
    # does not end fails the test instead of hanging the suite.
    import subprocess
    import sys

    for curve in ("(x^2 - 2y^2)^2 + z^3*x", "(x^2 - 1000003*z^2)^2 + y^4"):
        proc = subprocess.run(
            [sys.executable, "-m", "orbitflex", "flexes", curve],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1, curve
        assert "could not certify" in proc.stderr
        assert "most likely singular at irrational points" in proc.stderr


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "orbitflex", "bound", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "168" in proc.stdout


def test_missing_curve_argument(capsys):
    code, _, err = run(capsys, "flexes")
    assert code == 2
    assert "no curve" in err


def test_output_bytes_match_golden(capsys):
    # stdout, stderr and exit code of flexes, predegree and degree on the
    # Fermat, Klein and cyclic families, a rational-coefficient quartic and
    # three singular curves, at seeds 0 and 1: a change inside the curve
    # pipeline must keep every byte.
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    for case in golden:
        assert run(capsys, *case["argv"]) == (case["code"], case["out"], case["err"]), case["argv"]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call; a SystemExit
    from argparse counts as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_reused_with_nothing_kept_between_calls(capsys, monkeypatch, tmp_path):
    # One long sequence on the parser built once per process.  Every call
    # must print what a freshly built parser prints, and what the golden
    # file holds where it has the call (a missing --seed is --seed 0), so
    # no curve, --aut, --from-file or --seed of an earlier call survives.
    assert cli._build_parser() is cli._build_parser()
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    want = {tuple(case["argv"]): (case["code"], case["out"], case["err"]) for case in golden}
    path = tmp_path / "curve.txt"
    path.write_text("x^3 + y^3 + z^3\n")
    seq = []
    for case in golden:
        argv = case["argv"]
        seq += [argv, argv[2:]]  # the same call at the default seed
        if argv[2:4] == ["degree", "x^4+y^4+z^4"]:
            seq += [["degree", "x^4+y^4+z^4"],  # usage error: --aut is required
                    ["predegree", "x^4+y^4+z^4"],  # no aut order printed
                    ["flexes", "--from-file", str(path)],
                    ["flexes", "x^4+y^4+z^4", "--from-file", str(path)],
                    ["--json", "predegree"],  # no curve given
                    ["predegree", "x^3+y^3+z^3"],
                    ["--help"], ["degree", "--help"], ["bound", "x"], ["frobnicate"]]
    for json_flag in ([], ["--json"]):
        seq += [[*json_flag, "table", "--from", "3", "--to", "6"], [*json_flag, "verify-chow"],
                [*json_flag, "pgl2", "--multiplicities", "2,1,1"], [*json_flag, "bound", "5"],
                [*json_flag, "--seed", "4", "flexes", "--from-file", str(path)]]
    codes = set()
    for argv in seq:
        got = outcome(capsys, argv)
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            assert outcome(capsys, argv) == got, argv
        default_seed = argv if argv[:1] == ["--seed"] else ["--seed", "0", *argv]
        assert got == want.get(tuple(default_seed), got), argv
        codes.add(got[0])
    assert codes == {0, 1, 2}
