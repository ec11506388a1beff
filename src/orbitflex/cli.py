"""Command-line front end.

Subcommands
-----------
flexes <curve>              flex profile and power sums
predegree <curve> [--aut N] predegree by all three routes, factored
degree <curve> --aut N      orbit-closure degree with divisibility check
table --from A --to B       P(d) with factorizations over a degree range
verify-chow                 re-derive and check every polynomial identity
pgl2 --multiplicities ...   point-tuple predegree, formula and oracle
bound <d>                   automorphism l.c.m. bound for degree d

Curves are inline expressions over x, y, z (see the parser grammar), or
``--from-file`` to read the expression from a file.  ``--seed`` controls
only the randomized coordinate changes of the flex computation; output is
byte-identical for identical invocation and seed.  ``--json`` switches to
a machine format in which every integer is a decimal string (predegrees
overflow doubles long before d reaches 20).

Exit codes: 0 success; 1 mathematical inconsistency (failed identity,
non-divisible automorphism order, no certified flex profile); 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from typing import Sequence

from . import chowcalc, orbitformulas
from .exactpoly import format_factorization
from .flexlab import (
    FlexProfile,
    SingularCurveError,
    check_smooth,
    f_sums,
    flex_profile,
)
from .orbitformulas import NonDivisibleError, build_report
from .pgl2 import TupleConfig, pgl2_oracle, pgl2_predegree
from .polyparse import ParseError, parse_form

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2

# What a subcommand returns: the JSON payload, the text lines, and None or
# the message of a failed check.
_Result = tuple[dict, list[str], str | None]


def _stringify(value: object) -> object:
    """JSON payload with every integer rendered as a decimal string."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def _load_curve(args: argparse.Namespace) -> str:
    if args.from_file:
        if args.curve is not None:
            raise ValueError("give an inline curve or --from-file, not both")
        with open(args.from_file, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    if args.curve is None:
        raise ParseError("no curve given", 0)
    return args.curve


def _profile_of(source: str, seed: int):
    form, _ = parse_form(source)
    curve = check_smooth(form)
    return curve, flex_profile(curve, seed=seed)


def _profile_lines(profile: FlexProfile) -> list[str]:
    parts = [f"order {r} x {n}" for r, n in profile.items()]
    return [
        f"flex profile: {', '.join(parts)}",
        f"weighted total: {profile.weighted_total()} (= 3d(d-2))",
    ]


def _cmd_flexes(args: argparse.Namespace) -> _Result:
    source = _load_curve(args)
    curve, profile = _profile_of(source, args.seed)
    sums = f_sums(profile)
    payload = {
        "command": "flexes",
        "curve": source,
        "curve_degree": curve.degree,
        "profile": dict(profile.items()),
        "weighted_total": profile.weighted_total(),
        "sums": asdict(sums),
    }
    lines = [f"curve degree: {curve.degree}"]
    lines += _profile_lines(profile)
    lines.append(f"power sums: f2={sums.f2} f3={sums.f3} f4={sums.f4} f5={sums.f5}")
    return payload, lines, None


def _cmd_report(args: argparse.Namespace) -> _Result:
    """The ``predegree`` and ``degree`` subcommands."""
    source = _load_curve(args)
    curve, profile = _profile_of(source, args.seed)
    report = build_report(curve.degree, profile, aut_order=args.aut)
    payload = {
        "command": args.command,
        "curve": source,
        "curve_degree": report.degree,
        "profile": dict(report.profile.items()),
        "sums": asdict(report.sums),
        "predegree": report.predegree,
        "routes": dict(report.routes),
        "factorization": [list(pe) for pe in report.factorization],
        "aut_order": report.aut_order,
        "orbit_degree": report.orbit_degree,
    }
    lines = [f"curve degree: {report.degree}"]
    lines += _profile_lines(report.profile)
    lines.append(f"predegree: {report.predegree}")
    for route, value in report.routes.items():
        lines.append(f"  via {route.replace('_', ' ')}: {value}")
    lines.append(f"factorization: {format_factorization(report.factorization)}")
    if report.aut_order is not None:
        lines.append(f"aut order: {report.aut_order}")
        lines.append(f"orbit degree: {report.orbit_degree}")
    return payload, lines, None


def _cmd_table(args: argparse.Namespace) -> _Result:
    rows = orbitformulas.table_rows(args.d_from, args.d_to)
    payload = {
        "command": "table",
        "rows": [
            {
                "d": d,
                "predegree": p,
                "factorization": [list(pe) for pe in fs],
                "factored": format_factorization(fs),
            }
            for d, p, fs in rows
        ],
    }
    width = max(len(str(p)) for _, p, _ in rows)
    lines = [f" d  {'P(d)'.rjust(width)}  factored"]
    for d, p, fs in rows:
        lines.append(f"{d:2d}  {str(p).rjust(width)}  {format_factorization(fs)}")
    return payload, lines, None


def _cmd_verify_chow(args: argparse.Namespace) -> _Result:
    checks = chowcalc.verify_identities()
    all_ok = all(ok for _, ok, _, _ in checks)
    payload = {
        "command": "verify-chow",
        "identities": [{"name": name, "passed": ok} for name, ok, _, _ in checks],
        "all_passed": all_ok,
    }
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok, _, _ in checks]
    lines.append(f"{sum(ok for _, ok, _, _ in checks)}/{len(checks)} identities hold")
    return payload, lines, None if all_ok else "at least one polynomial identity failed"


def _cmd_pgl2(args: argparse.Namespace) -> _Result:
    try:
        ms = tuple(int(s) for s in args.multiplicities.split(","))
        cfg = TupleConfig(ms)
    except ValueError as exc:
        raise ParseError(f"bad multiplicity list: {exc}", 0) from exc
    formula = pgl2_predegree(cfg)
    oracle = pgl2_oracle(cfg)
    agree = formula == oracle
    payload = {
        "command": "pgl2",
        "multiplicities": list(ms),
        "d": cfg.d,
        "formula": formula,
        "oracle": oracle,
        "agree": agree,
    }
    lines = [f"d = {cfg.d}, multiplicities {ms}", f"formula: {formula}", f"oracle:  {oracle}"]
    return payload, lines, None if agree else "formula and combinatorial oracle disagree"


def _cmd_bound(args: argparse.Namespace) -> _Result:
    value = orbitformulas.aut_lcm_bound(args.d)
    payload = {"command": "bound", "d": args.d, "bound": value}
    return payload, [f"d = {args.d}: automorphism l.c.m. bound {value}"], None


@cache  # built once per process; parse_args leaves the tree unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitflex",
        description="Flex profiles and orbit-closure degrees of smooth plane curves",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the coordinate randomization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve(p: argparse.ArgumentParser) -> None:
        p.add_argument("curve", nargs="?", help="inline curve expression over x, y, z")
        p.add_argument("--from-file", help="read the curve expression from a file")

    p = sub.add_parser("flexes", help="flex profile of a smooth curve")
    add_curve(p)
    p.set_defaults(func=_cmd_flexes)

    p = sub.add_parser("predegree", help="predegree of the orbit closure")
    add_curve(p)
    p.add_argument("--aut", type=int, help="order of the automorphism group")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("degree", help="orbit-closure degree (needs --aut)")
    add_curve(p)
    p.add_argument("--aut", type=int, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("table", help="P(d) table with factorizations")
    p.add_argument("--from", dest="d_from", type=int, required=True)
    p.add_argument("--to", dest="d_to", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify-chow", help="check the derived polynomial identities")
    p.set_defaults(func=_cmd_verify_chow)

    p = sub.add_parser("pgl2", help="predegree of a point tuple on the line")
    p.add_argument("--multiplicities", required=True, help="comma-separated, e.g. 2,1,1")
    p.set_defaults(func=_cmd_pgl2)

    p = sub.add_parser("bound", help="automorphism l.c.m. bound")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_bound)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Print the result, then map a failed check or an error to its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        payload, lines, failure = args.func(args)
    except (NonDivisibleError, RuntimeError) as exc:
        lines, failure = None, str(exc)
    except (SingularCurveError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if lines is not None:
        print(json.dumps(_stringify(payload), sort_keys=True, indent=2)
              if args.json else "\n".join(lines))
    if failure is None:
        return EXIT_OK
    print(f"inconsistent: {failure}", file=sys.stderr)
    return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
