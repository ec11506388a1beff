"""Runs one workload in its own process; ``run.py`` starts it.

Closed loop, one client, no threads: each op is issued only after the
previous one finished and was checked.  CLI ops go through
``orbitflex.cli.main(argv)`` with stdout and stderr captured; library ops
call ``orbitflex.orbitformulas.build_report``, looked up at call time so
that the traced run sees it wrapped.

Untraced (``--trace 0``): whole rounds run until ``--seconds`` have passed;
only the ops' own wall time is measured.  Traced (``--trace 1``): a fixed
number of rounds, set by ``--seconds`` and the workload's nominal round
time, runs every op twice, untraced and traced, in alternating order; the
traced runs give the per-layer metrics and the pair gives the overhead.

Ops are timed on the speedometer's work clock while it samples machine
speed (see ``speed.py``); after every ``WINDOW_NS`` of op time, the
samples taken meanwhile give the factor that scales those ops to
reference time.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, layer_metrics  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import NOMINAL_ROUND_S, WORKLOADS, Op, Outcome, make_round  # noqa: E402

from orbitflex import cli, orbitformulas  # noqa: E402

MAX_FAILURES_SHOWN = 5
WINDOW_NS = 1_000_000_000


def execute(op: Op) -> Outcome:
    """Issue one op; a traceback counts as an outcome, not a crash."""
    out = Outcome()
    try:
        if op.argv is not None:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                out.code = cli.main(list(op.argv))
            out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
        else:
            out.value = orbitformulas.build_report(*op.report)
    except SystemExit as exc:
        out.error = f"SystemExit({exc.code})"
    except Exception:
        out.error = traceback.format_exc(limit=-3)
    return out


def timed(op: Op, clock: Callable[[], int]) -> tuple[Outcome, int]:
    start = clock()
    out = execute(op)
    return out, clock() - start


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: Op, out: Outcome) -> None:
        self.attempted += 1
        try:
            reason = op.check(out)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    budget = int(seconds * 1e9)
    meter = Speedometer()
    op_ns: list[int] = []
    op_ref_ns: list[float] = []
    pending: list[int] = []
    pending_ns = busy = rounds = 0
    with meter.sampling():
        while busy < budget:
            for op in make_round(workload, seed, rounds):
                out, ns = timed(op, meter.clock)
                tally.check(op, out)
                op_ns.append(ns)
                pending.append(ns)
                pending_ns += ns
                busy += ns
                if pending_ns >= WINDOW_NS:
                    factor = meter.factor()
                    op_ref_ns += [n * factor for n in pending]
                    pending, pending_ns = [], 0
            rounds += 1
        factor = meter.factor()
    op_ref_ns += [n * factor for n in pending]
    return {"rounds": rounds, "op_ns": op_ns, "op_ref_ns": op_ref_ns}


def run_traced(workload: str, seed: int, seconds: float, tally: Tally, spans_path: Path) -> dict:
    rounds = max(1, int(seconds / (2 * NOMINAL_ROUND_S[workload])))
    meter = Speedometer()
    tracer = Tracer(meter.clock)
    factors: dict[int, float] = {}
    pending: list[int] = []
    pending_ns = plain_ns = traced_ns = 0
    op_id = 0
    with meter.sampling():
        for index in range(rounds):
            for op in make_round(workload, seed, index):
                for traced_run in ((False, True) if op_id % 2 == 0 else (True, False)):
                    if traced_run:
                        with tracer.installed():
                            out, ns = tracer.run_op(op_id, lambda: execute(op))
                        traced_ns += ns
                    else:
                        out, ns = timed(op, meter.clock)
                        plain_ns += ns
                    pending_ns += ns
                    tally.check(op, out)
                pending.append(op_id)
                if pending_ns >= WINDOW_NS:
                    factors.update(dict.fromkeys(pending, meter.factor()))
                    pending, pending_ns = [], 0
                op_id += 1
        factors.update(dict.fromkeys(pending, meter.factor()))
    tracer.dump(str(spans_path))
    metrics = layer_metrics(tracer.spans, factors)
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1
    return {"rounds": rounds, "ops": op_id, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    tally = Tally()
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds, tally, args.spans)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, tally)
    result.update(
        attempted=tally.attempted,
        failed=len(tally.failures),
        failures=tally.failures[:MAX_FAILURES_SHOWN],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
