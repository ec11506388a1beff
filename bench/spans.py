"""Spans recorded from outside the program, at its module boundaries.

``Tracer.installed()`` replaces each public function listed in
``BOUNDARIES`` *as bound in the calling module's namespace* (for example
``orbitflex.flexlab.resultant``, which is what ``flex_profile`` looks up)
with a wrapper that records a span and restores the original on exit.  No
file of the program changes.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; all times are integer nanoseconds of one clock, so for every op
the self times of its spans add up exactly to the op's wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter_ns
from typing import Callable, Iterator

# (module, attribute) -> layer name used in the metrics.
BOUNDARIES = {
    ("cli", "main"): "cli.main",
    ("cli", "parse_form"): "polyparse.parse_form",
    ("cli", "check_smooth"): "flexlab.check_smooth",
    ("cli", "flex_profile"): "flexlab.flex_profile",
    ("cli", "build_report"): "orbitformulas.build_report",
    ("orbitformulas", "build_report"): "orbitformulas.build_report",
    ("flexlab", "linear_substitute"): "multipoly.linear_substitute",
    ("flexlab", "hessian_determinant"): "multipoly.hessian_determinant",
    ("flexlab", "gradient"): "multipoly.gradient",
    ("flexlab", "resultant"): "resultant",
    ("flexlab", "squarefree_decompose"): "unipoly.squarefree_decompose",
    ("flexlab", "poly_gcd"): "unipoly.gcd",
    ("orbitformulas", "factor_integer"): "intfactor.factor_integer",
    ("orbitformulas", "table_rows"): "orbitformulas.table_rows",
    ("chowcalc", "correction_integral"): "chowcalc.correction_integral",
    ("chowcalc", "verify_identities"): "chowcalc.verify_identities",
}

ROOT = "op"
SMOOTH = "flexlab.check_smooth"
PROFILE = "flexlab.flex_profile"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "ok", "size")

    def __init__(self, name: str, parent: int | None, op: int, start: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.ok = False
        self.size: tuple[int, int] | None = None
        self.start = start
        self.end = start

    def as_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def _coeff_bits(poly) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


def _size(layer: str, args: tuple, result) -> tuple[int, int] | None:
    """Size facts kept for the layers whose output size matters."""
    if layer == "resultant":
        return (result.total_degree() or 0, _coeff_bits(result))
    if layer == "intfactor.factor_integer":
        return (args[0].bit_length(), 0)
    return None


class Tracer:
    """Records spans timed by ``clock``, a nanosecond counter."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _record(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None, self._op, self.clock())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
            span.ok = True
            return result
        finally:
            span.end = self.clock()
            self._stack.pop()
            if span.ok:
                span.size = _size(name, args, result)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self._record(layer, fn, args, kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        saved = []
        try:
            for (module, attr), layer in BOUNDARIES.items():
                mod = import_module(f"orbitflex.{module}")
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(layer, original))
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def run_op(self, op_id: int, fn: Callable[[], object]) -> tuple[object, int]:
        """Run one op under a root span; returns its result and wall ns."""
        self._op = op_id
        first = len(self.spans)
        result = self._record(ROOT, fn, (), {})
        root = self.spans[first]
        return result, root.end - root.start

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span, after checking the span tree of each op.

    Raises RuntimeError when a child is not nested in its parent or a
    span has a negative self time, i.e. when the self times of an op would
    not add up to its wall time.
    """
    selfs = [s.end - s.start for s in spans]
    for i, s in enumerate(spans):
        if s.parent is None:
            if s.name != ROOT:
                raise RuntimeError(f"span {i} ({s.name}) has no parent op")
            continue
        p = spans[s.parent]
        if p.op != s.op or s.start < p.start or s.end > p.end:
            raise RuntimeError(f"span {i} ({s.name}) is not nested in span {s.parent}")
        selfs[s.parent] -= s.end - s.start
    wall: dict[int, int] = defaultdict(int)
    total: dict[int, int] = defaultdict(int)
    for s, own in zip(spans, selfs):
        if own < 0:
            raise RuntimeError(f"span {s.name} of op {s.op} has negative self time")
        total[s.op] += own
        if s.parent is None:
            wall[s.op] += s.end - s.start
    if total != wall:
        raise RuntimeError("layer self times do not add up to the op wall times")
    return selfs


def _nearest(spans: list[Span], index: int, names: tuple[str, ...]) -> str | None:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return spans[parent].name
        parent = spans[parent].parent
    return None


def layer_metrics(spans: list[Span], factors: dict[int, float]) -> dict[str, float]:
    """Per-layer totals over every traced op.

    ``factors`` maps each op to the factor that turns its wall time into
    reference time (see ``speed.py``); times are reported scaled.
    """
    selfs = [own * factors[s.op] for s, own in zip(spans, self_times(spans))]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    under: dict[tuple[str, str | None], int] = defaultdict(int)
    res_s = {SMOOTH: 0.0, PROFILE: 0.0}
    res_degree = res_bits = factor_bits = 0
    profiles_ok = 0
    for i, (s, own) in enumerate(zip(spans, selfs)):
        self_s[s.name] += own / 1e9
        calls[s.name] += 1
        if s.name == PROFILE and s.ok:
            profiles_ok += 1
        if s.name in ("resultant", "multipoly.linear_substitute"):
            owner = _nearest(spans, i, (SMOOTH, PROFILE))
            under[(s.name, owner)] += 1
            if s.name == "resultant" and owner is not None:
                res_s[owner] += own / 1e9
        if s.size is not None and s.name == "resultant":
            res_degree, res_bits = max(res_degree, s.size[0]), max(res_bits, s.size[1])
        if s.size is not None and s.name == "intfactor.factor_integer":
            factor_bits = max(factor_bits, s.size[0])

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "resultant.calls": calls["resultant"],
        "resultant.self_s": self_s["resultant"],
        "resultant.self_s.smooth": res_s[SMOOTH],
        "resultant.self_s.profile": res_s[PROFILE],
        "resultant.out_degree_max": res_degree,
        "resultant.out_coeff_bits_max": res_bits,
        "flexlab.check_smooth.self_s": self_s[SMOOTH],
        "flexlab.flex_profile.self_s": self_s[PROFILE],
        "flexlab.projections_per_profile": ratio(under[("multipoly.linear_substitute", PROFILE)], profiles_ok),
        "flexlab.smooth_projections_per_curve": ratio(
            under[("multipoly.linear_substitute", SMOOTH)], calls[SMOOTH]
        ),
        "multipoly.linear_substitute.calls": calls["multipoly.linear_substitute"],
        "multipoly.linear_substitute.self_s": self_s["multipoly.linear_substitute"],
        "multipoly.hessian_determinant.calls": calls["multipoly.hessian_determinant"],
        "multipoly.hessian_determinant.self_s": self_s["multipoly.hessian_determinant"],
        "multipoly.gradient.self_s": self_s["multipoly.gradient"],
        "unipoly.squarefree_decompose.self_s": self_s["unipoly.squarefree_decompose"],
        "unipoly.gcd.self_s": self_s["unipoly.gcd"],
        "intfactor.factor_integer.calls": calls["intfactor.factor_integer"],
        "intfactor.factor_integer.self_s": self_s["intfactor.factor_integer"],
        "intfactor.factor_integer.input_bits_max": factor_bits,
        "orbitformulas.build_report.self_s": self_s["orbitformulas.build_report"],
        "orbitformulas.table_rows.self_s": self_s["orbitformulas.table_rows"],
        "chowcalc.verify_identities.self_s": self_s["chowcalc.verify_identities"],
        "chowcalc.correction_integral.calls": calls["chowcalc.correction_integral"],
        "chowcalc.correction_integral.self_s": self_s["chowcalc.correction_integral"],
        "polyparse.parse_form.self_s": self_s["polyparse.parse_form"],
        "cli.main.self_s": self_s["cli.main"],
    }
