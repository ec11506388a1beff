"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402


def _smoke_ops(workload: str):
    ops = make_round(workload, 0, 0)
    if workload == "named-highdeg":
        # Reduced size: the Klein quartic is the one cheap named curve.
        ops = [op for op in ops if "klein" in op.label]
    return ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_round_is_correct_and_traced_spans_add_up(workload):
    tracer = Tracer()
    tally = worker.Tally()
    for op_id, op in enumerate(_smoke_ops(workload)):
        tally.check(op, worker.execute(op))
        with tracer.installed():
            out, _ = tracer.run_op(op_id, lambda: worker.execute(op))
        tally.check(op, out)
    assert tally.failures == []
    unscaled = dict.fromkeys(range(len(_smoke_ops(workload))), 1.0)
    metrics = layer_metrics(tracer.spans, unscaled)  # raises if self times do not add up
    assert set(metrics) | {"trace.overhead_frac"} == set(PER_LAYER_UNITS)
    if workload == "symbolic":
        assert metrics["resultant.calls"] == 0 and metrics["resultant.self_s"] == 0
        assert metrics["chowcalc.correction_integral.calls"] > 0
    else:
        assert metrics["resultant.calls"] > 0
        assert metrics["flexlab.projections_per_profile"] >= 2
        assert metrics["polyparse.parse_form.self_s"] > 0


def test_tracer_restores_the_program():
    from orbitflex import cli, flexlab

    before = (cli.main, flexlab.resultant)
    with Tracer().installed():
        assert flexlab.resultant is not before[1]
    assert (cli.main, flexlab.resultant) == before


def test_work_clock_leaves_out_the_speed_samples():
    meter = Speedometer()
    with meter.sampling():
        wall, work = perf_counter_ns(), meter.clock()
        while perf_counter_ns() - wall < 500_000_000:
            pass
        wall, work = perf_counter_ns() - wall, meter.clock() - work
        samples, stolen = list(meter._samples), meter._stolen_ns
        factor = meter.factor()
    assert len(samples) >= 3 and sum(samples) == stolen
    assert abs(wall - work - stolen) < 1_000_000
    assert factor > 0


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_rounds_are_seeded():
    def argvs(seed, index):
        return [op.argv or op.label for op in make_round("random-lowdeg", seed, index)]

    assert argvs(4, 2) == argvs(4, 2)
    assert argvs(4, 2) != argvs(5, 2)


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src" / "orbitflex", tmp_path / "src" / "orbitflex", ignore=ignore)
    return tmp_path


def _run(root: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", "symbolic", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def test_command_prints_every_end_to_end_metric(tmp_path):
    proc = _run(_checkout(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_injected_wrong_answer_fails_the_command(tmp_path):
    root = _checkout(tmp_path)
    formulas = root / "src" / "orbitflex" / "orbitformulas.py"
    text = formulas.read_text()
    assert "p = simple_flex_predegree(d)\n" in text
    formulas.write_text(text.replace("p = simple_flex_predegree(d)\n", "p = simple_flex_predegree(d) + 2\n"))
    proc = _run(root)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "failed_frac = 0.0 " not in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert proc.stdout == ""
