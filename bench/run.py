"""orbitflex benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload named-highdeg --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; it uses the package under ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
traced run that gives the per-layer metrics (see ``worker.py``).  Each
workload runs in its own child process, which reports its own peak RSS.

Every metric is printed by name and unit, then the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same object, with the run environment and the first
failures, is written to ``bench/results/``; a traced run also writes its
spans there.  Exit status 0 only when every op's output was right.

Op times are in reference seconds: wall seconds scaled by machine-speed
samples taken while the ops run, so that a noisy host does not swamp the
comparison between commits (see ``speed.py``).  The raw wall figures are
printed too.  ``setup_s`` is scaled by bare interpreter starts (``python
-c pass``) taken between the measured starts: a cold start is mostly
process creation and imports, which the in-process kernel does not stand
for, while a bare start is subject to the same host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_STARTS = 15
SETUP_ARGV = ("-m", "orbitflex", "bound", "6")
SETUP_STDOUT = "d = 6: automorphism l.c.m. bound 1080\n"
BARE_ARGV = ("-c", "pass")
# Wall seconds of a bare interpreter start on the machine that defined the
# benchmark (2-core Intel Xeon VM, Python 3.11.7); setup_s is reported at
# this reference speed.
REFERENCE_BARE_START_S = 0.05
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "resultant.calls": "count",
    "resultant.self_s": "s",
    "resultant.self_s.smooth": "s",
    "resultant.self_s.profile": "s",
    "resultant.out_degree_max": "degree",
    "resultant.out_coeff_bits_max": "bits",
    "flexlab.check_smooth.self_s": "s",
    "flexlab.flex_profile.self_s": "s",
    "flexlab.projections_per_profile": "count/profile",
    "flexlab.smooth_projections_per_curve": "count/curve",
    "multipoly.linear_substitute.calls": "count",
    "multipoly.linear_substitute.self_s": "s",
    "multipoly.hessian_determinant.calls": "count",
    "multipoly.hessian_determinant.self_s": "s",
    "multipoly.gradient.self_s": "s",
    "unipoly.squarefree_decompose.self_s": "s",
    "unipoly.gcd.self_s": "s",
    "intfactor.factor_integer.calls": "count",
    "intfactor.factor_integer.self_s": "s",
    "intfactor.factor_integer.input_bits_max": "bits",
    "orbitformulas.build_report.self_s": "s",
    "orbitformulas.table_rows.self_s": "s",
    "chowcalc.verify_identities.self_s": "s",
    "chowcalc.correction_integral.calls": "count",
    "chowcalc.correction_integral.self_s": "s",
    "polyparse.parse_form.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _start(argv: tuple[str, ...], expect_stdout: str = "") -> float:
    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout != expect_stdout:
        raise BenchError(f"`{' '.join(argv)}` failed: exit {proc.returncode}, {proc.stderr.strip()[-300:]}")
    return elapsed


def measure_setup() -> tuple[float, float]:
    """Cold start of ``orbitflex bound 6``: the median over starts of its
    wall time relative to the bare starts just before and after it, at the
    reference bare-start time; and the median raw wall time.

    One unmeasured start first writes the bytecode caches, as an installed
    package would have them.
    """
    bare = _start(BARE_ARGV)
    ratios, walls = [], []
    for i in range(SETUP_STARTS + 1):
        wall = _start(SETUP_ARGV, SETUP_STDOUT)
        after = _start(BARE_ARGV)
        if i:
            walls.append(wall)
            ratios.append(wall / ((bare + after) / 2))
        bare = after
    return statistics.median(ratios) * REFERENCE_BARE_START_S, statistics.median(walls)


def run_worker(args: argparse.Namespace, spans_path: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(spans_path),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def timing_metrics(op_ns: list[float]) -> dict[str, float]:
    op_s = sorted(ns / 1e9 for ns in op_ns)
    return {
        "ops_per_s": len(op_s) / sum(op_s),
        "op_s.p50": nearest_rank(op_s, 0.5),
        "op_s.p90": nearest_rank(op_s, 0.9),
    }


def end_to_end(result: dict, setup: tuple[float, float]) -> tuple[dict[str, float], list[str]]:
    n = len(result["op_ns"])
    beyond = n - math.ceil(0.9 * n)
    metrics = timing_metrics(result["op_ref_ns"])
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    metrics["setup_s"] = setup[0]
    raw = timing_metrics(result["op_ns"])
    notes = [
        f"ops: {n} in {result['rounds']} rounds, {sum(result['op_ns']) / 1e9:.3f} s busy"
        " (closed loop, 1 client)",
        f"op_s.p90 rests on {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: read it as the slowest op class)"),
        f"setup_s: median of {SETUP_STARTS} cold starts of `orbitflex bound 6`",
        "times below are at reference speed; unscaled: "
        + ", ".join(f"{k} = {v!r}" for k, v in raw.items())
        + f", setup_s = {setup[1]!r}",
    ]
    return metrics, notes


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "orbitflex" / "__init__.py").is_file():
            raise BenchError(f"no orbitflex package under {SRC}")
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans_path = RESULTS / f"{stem}.spans.jsonl"
        setup = None if args.trace else measure_setup()
        result = run_worker(args, spans_path)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, units = result["metrics"], PER_LAYER_UNITS
        notes = [f"traced: {result['ops']} ops in {result['rounds']} rounds, each also run untraced",
                 f"spans: {spans_path.relative_to(ROOT)}"]
    else:
        metrics, notes = end_to_end(result, setup)
        units = END_TO_END_UNITS
    env = environment()
    failed, attempted = result["failed"], result["attempted"]
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} ops failed)")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "env": env, "notes": notes, "failures": result["failures"]}, fh, indent=1)
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
