"""Seeded inputs and exact output checks for the orbitflex benchmark.

Each workload is an endless stream of *rounds*; a round is a fixed mix of
ops, drawn afresh from ``random.Random(f"{workload}/{seed}/{round}")`` so
that the same seed always gives the same inputs and a run of whole rounds
always has the same op mix.  An op is one user-level request: a CLI
invocation (its argv) or one public library call.  Every op carries the
exact check of its own output.

The input generators are the benchmark's own on purpose: they do not use
``tests/helpers.py``, so refactoring the tests cannot shift the workload.
They also never call the program, so generating an input costs nothing the
program could optimise.

Workloads, and the layer each is meant to load:

* ``named-highdeg`` -- ``degree``/``flexes`` on the Fermat curves of degree
  8 and 9, the cyclic curves of degree 7 and 8, and the Klein quartic.  The
  curve-Hessian resultant dominates here and its coefficients are largest.
* ``random-lowdeg`` -- ``predegree`` on random smooth curves of degree 3..6
  plus one curve per round that is singular at a hidden rational point
  (expected outcome: exit 2 with a witness).  Short ops, so parsing, the
  smoothness certificate, the formula routes and CLI formatting all weigh.
* ``symbolic`` -- ``verify-chow``, ``table`` over a wide degree range and
  library ``build_report`` on random valid profiles for d = 3..40.  Never
  touches flexlab's curve pipeline, so a curve-pipeline optimisation should
  change nothing here.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

WORKLOADS = ("named-highdeg", "random-lowdeg", "symbolic")

# Reference seconds one round takes at the commit that defined the
# benchmark (2-core Intel Xeon, Python 3.11).  Only used to size the traced
# run, whose op set must not depend on timing so that its counts repeat
# exactly.
NOMINAL_ROUND_S = {"named-highdeg": 8.1, "random-lowdeg": 0.51, "symbolic": 0.21}


@dataclass
class Outcome:
    """What one op produced: exit code and captured streams for CLI ops,
    the return value for library ops, or the exception that escaped."""

    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


@dataclass(frozen=True)
class Op:
    """One user-level request and the check of its output.

    CLI ops set ``argv``; library ops set ``report``, the (degree, profile)
    arguments of ``orbitflex.orbitformulas.build_report``.  ``check``
    returns None when the outcome is exactly right, else a reason.
    """

    label: str
    check: Callable[[Outcome], str | None]
    argv: tuple[str, ...] | None = None
    report: tuple[int, dict[int, int]] | None = None


# ----------------------------------------------------------------------
# Exact reference values (from the paper and the acceptance criteria)
# ----------------------------------------------------------------------

PINNED_TABLE = {
    3: (216, "2^3*3^3"),
    4: (14280, "2^3*3*5*7*17"),
    5: (188340, "2^2*3*5*43*73"),
    6: (1119960, "2^3*3^3*5*17*61"),
    7: (4508280, "2^3*3^2*5*7*1789"),
    8: (14318256, "2^4*3*317*941"),
    9: (38680740, "2^2*3^6*5*7*379"),
    10: (92790480, "2^4*3*5*59*6553"),
}

CHOW_IDENTITIES = {
    "first-center-integral",
    "second-center-integral",
    "flex-center-integral",
    "higher-center-integral",
    "higher-at-level-2-matches-flex",
    "predegree-assembly",
    "simple-flex-factored-form",
    "fermat-family-identity",
    "cyclic-family-identity",
}


def simple_flex_predegree(d: int) -> int:
    """P(d), the predegree when every flex is simple."""
    return d**8 - 1372 * d**4 + 7992 * d**3 - 15879 * d**2 + 10638 * d


def flex_contribution(k: int, d: int) -> int:
    """Change of the predegree caused by one flex of order k."""
    return -(
        k
        * (k - 1)
        * (
            (28 * k + 196) * d**2
            - (24 * k**2 + 240 * k + 960) * d
            + (6 * k**3 + 75 * k**2 + 393 * k + 1125)
        )
    )


def predegree_of(d: int, profile: dict[int, int]) -> int:
    return simple_flex_predegree(d) + sum(n * flex_contribution(r, d) for r, n in profile.items())


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in bases:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------
# Ternary forms as {(i, j, k): int} for x^i y^j z^k
# ----------------------------------------------------------------------

Form = dict[tuple[int, int, int], int]


def monomials(d: int) -> list[tuple[int, int, int]]:
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def _mul(a: Form, b: Form) -> Form:
    out: Form = {}
    for (ea, ca), (eb, cb) in product(a.items(), b.items()):
        e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
        out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(form: Form, m: list[list[int]]) -> Form:
    """F(M v): replace each variable by the matching row of M."""
    rows = [{(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]} for r in m]
    rows = [{e: c for e, c in r.items() if c} for r in rows]
    out: Form = {}
    for exps, coeff in form.items():
        term: Form = {(0, 0, 0): coeff}
        for row, power in zip(rows, exps):
            for _ in range(power):
                term = _mul(term, row)
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def partial(form: Form, var: int) -> Form:
    out: Form = {}
    for e, c in form.items():
        if e[var]:
            de = list(e)
            de[var] -= 1
            out[tuple(de)] = c * e[var]
    return out


def evaluate(form: Form, point: tuple[Fraction, ...]) -> Fraction:
    return sum(
        (c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2] for e, c in form.items()),
        Fraction(0),
    )


def format_form(form: Form) -> str:
    parts = []
    for e in sorted(form, reverse=True):
        c = form[e]
        factors = [v if p == 1 else f"{v}^{p}" for v, p in zip("xyz", e) if p]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def random_unimodular(rng: random.Random) -> list[list[int]]:
    """Signed permutation times two unit-triangular shears with entries +-1."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(2):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-c for c in row] if rng.random() < 0.5 else row for row in m]


def random_smooth_form(rng: random.Random, d: int) -> Form:
    """A random small-coefficient form that is smooth by construction.

    F = a x^d + b y^d + c z^d + p G with p a prime not dividing d and
    a, b, c prime to p.  Mod p, F is a diagonal Fermat curve, smooth over
    the algebraic closure of F_p; a singular point over Q-bar would reduce
    to a singular point mod p, so F is smooth over Q.
    """
    p = next(q for q in (2, 3, 5, 7) if d % q)
    units = [u for u in range(-2 * p, 2 * p + 1) if u % p]
    form = {e: p * rng.randint(-2, 2) for e in monomials(d)}
    for i in range(3):
        e = [0, 0, 0]
        e[i] = d
        form[tuple(e)] = rng.choice(units)
    return {e: c for e, c in form.items() if c}


def random_singular_form(rng: random.Random, d: int) -> Form:
    """A random form with a node at a hidden rational point.

    Start from a form without the monomials z^d, x z^(d-1), y z^(d-1), so
    all partials vanish at (0:0:1); require a nondegenerate tangent cone
    there, then hide the point by a random unimodular change.
    """
    while True:
        base = {e: rng.randint(-3, 3) for e in monomials(d) if e[2] <= d - 2}
        a, b, c = (base.get((2, 0, d - 2), 0), base.get((1, 1, d - 2), 0), base.get((0, 2, d - 2), 0))
        if b * b - 4 * a * c != 0:
            break
    return substitute({e: c for e, c in base.items() if c}, random_unimodular(rng))


def random_valid_profile(rng: random.Random, d: int) -> dict[int, int]:
    """Random {order: count} with weighted total 3d(d-2) and orders <= d-2."""
    remaining = 3 * d * (d - 2)
    counts: dict[int, int] = {}
    while remaining:
        r = rng.randint(1, min(d - 2, remaining))
        counts[r] = counts.get(r, 0) + 1
        remaining -= r
    return counts


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _json_ok(out: Outcome) -> tuple[dict | None, str | None]:
    if out.error is not None:
        return None, f"raised {out.error}"
    if out.code != 0:
        return None, f"exit {out.code}: {out.stderr.strip()[:200]}"
    try:
        return json.loads(out.stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def _factorization_reason(value: int, factors: list[tuple[int, int]]) -> str | None:
    primes = [p for p, _ in factors]
    if primes != sorted(set(primes)) or not all(is_prime(p) and e >= 1 for p, e in factors):
        return f"factorization {factors} is not in sorted prime form"
    product_ = 1
    for p, e in factors:
        product_ *= p**e
    if product_ != value:
        return f"factorization {factors} does not multiply back to {value}"
    return None


def _profile_reason(d: int, profile: dict[int, int]) -> str | None:
    if sum(r * n for r, n in profile.items()) != 3 * d * (d - 2):
        return f"weighted flex total of {profile} is not 3d(d-2)"
    if any(r < 1 or r > d - 2 or n < 1 for r, n in profile.items()):
        return f"profile {profile} has an order outside 1..d-2"
    return None


def _power_sums(profile: dict[int, int]) -> list[int]:
    return [sum(n * r**k for r, n in profile.items()) for k in range(2, 6)]


def check_curve_op(
    command: str, d: int, expected: dict[int, int] | None = None, aut: int | None = None,
    orbit: int | None = None,
) -> Callable[[Outcome], str | None]:
    """Exit 0 and a right JSON payload for ``command`` on a smooth curve."""

    def check(out: Outcome) -> str | None:
        payload, reason = _json_ok(out)
        if reason:
            return reason
        if payload["command"] != command or int(payload["curve_degree"]) != d:
            return f"payload is for {payload['command']!r}, degree {payload['curve_degree']}"
        profile = {int(r): int(n) for r, n in payload["profile"].items()}
        reason = _profile_reason(d, profile)
        if reason:
            return reason
        if expected is not None and profile != expected:
            return f"profile {profile} != pinned {expected}"
        if [int(payload["sums"][f"f{k}"]) for k in range(2, 6)] != _power_sums(profile):
            return f"power sums {payload['sums']} do not match the profile"
        if command == "flexes":
            return None if int(payload["weighted_total"]) == 3 * d * (d - 2) else "wrong weighted_total"
        pre = int(payload["predegree"])
        if pre != predegree_of(d, profile):
            return f"predegree {pre} != {predegree_of(d, profile)}"
        if any(int(v) != pre for v in payload["routes"].values()) or len(payload["routes"]) != 3:
            return f"routes disagree: {payload['routes']}"
        reason = _factorization_reason(pre, [(int(p), int(e)) for p, e in payload["factorization"]])
        if reason:
            return reason
        if aut is not None:
            if int(payload["aut_order"]) != aut or int(payload["orbit_degree"]) * aut != pre:
                return f"orbit degree {payload['orbit_degree']} * {aut} != {pre}"
            if orbit is not None and int(payload["orbit_degree"]) != orbit:
                return f"orbit degree {payload['orbit_degree']} != pinned {orbit}"
        return None

    return check


_WITNESS = re.compile(r"witness \(Fraction\((-?\d+), (\d+)\), Fraction\((-?\d+), (\d+)\), Fraction\((-?\d+), (\d+)\)\)")


def check_singular_op(form: Form) -> Callable[[Outcome], str | None]:
    """Exit 2 with a witness that really is a singular point of ``form``."""

    def check(out: Outcome) -> str | None:
        if out.error is not None:
            return f"raised {out.error}"
        if out.code != 2:
            return f"singular curve gave exit {out.code}, want 2"
        if "Traceback" in out.stderr:
            return "traceback on stderr"
        match = _WITNESS.search(out.stderr)
        if match is None:
            return f"no witness in {out.stderr.strip()[:200]!r}"
        nums = [int(g) for g in match.groups()]
        point = tuple(Fraction(nums[i], nums[i + 1]) for i in (0, 2, 4))
        if all(c == 0 for c in point):
            return "witness is the zero vector"
        polys = [form] + [partial(form, v) for v in range(3)]
        if any(evaluate(p, point) != 0 for p in polys):
            return f"witness {point} is not a singular point of the curve"
        return None

    return check


def check_table_op(d_from: int, d_to: int) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        payload, reason = _json_ok(out)
        if reason:
            return reason
        rows = payload["rows"]
        if [int(r["d"]) for r in rows] != list(range(d_from, d_to + 1)):
            return "table rows do not cover the requested range"
        for row in rows:
            d, pre = int(row["d"]), int(row["predegree"])
            if pre != simple_flex_predegree(d):
                return f"P({d}) = {pre}, want {simple_flex_predegree(d)}"
            if d in PINNED_TABLE and row["factored"] != PINNED_TABLE[d][1]:
                return f"P({d}) factored as {row['factored']}, want {PINNED_TABLE[d][1]}"
            reason = _factorization_reason(pre, [(int(p), int(e)) for p, e in row["factorization"]])
            if reason:
                return reason
        return None

    return check


def check_verify_chow(out: Outcome) -> str | None:
    payload, reason = _json_ok(out)
    if reason:
        return reason
    results = {item["name"]: item["passed"] for item in payload["identities"]}
    if set(results) != CHOW_IDENTITIES or not all(results.values()) or payload["all_passed"] is not True:
        return f"identity results {results}"
    return None


def check_report(d: int, profile: dict[int, int]) -> Callable[[Outcome], str | None]:
    def check(out: Outcome) -> str | None:
        if out.error is not None:
            return f"raised {out.error}"
        report = out.value
        want = predegree_of(d, profile)
        if report.degree != d or report.profile.counts != profile:
            return "report echoes the wrong degree or profile"
        if report.predegree != want or set(report.routes.values()) != {want}:
            return f"predegree {report.predegree} / routes {report.routes} != {want}"
        if list(report.sums.as_tuple()) != _power_sums(profile):
            return "power sums are wrong"
        return _factorization_reason(want, report.factorization)

    return check


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

KLEIN = "x^3*y + y^3*z + z^3*x"


def _named_round(rng: random.Random) -> list[Op]:
    curves = []
    for d in (8, 9):
        pre = d * d * (d - 2) * (d**5 + 2 * d**4 - 26 * d**3 - 7 * d**2 + 192 * d - 192)
        curves.append((f"fermat{d}", f"x^{d} + y^{d} + z^{d}", d, {d - 2: 3 * d}, 6 * d * d, pre // (6 * d * d)))
    for d in (7, 8):
        closed = d**6 + 3 * d**5 + 6 * d**4 - 21 * d**3 - 1354 * d**2 + 5463 * d - 5508
        profile = {1: 3 * d * (d - 2) - 3 * (d - 3), d - 3: 3}
        curves.append((f"cyclic{d}", f"x^{d-1}*y + y^{d-1}*z + z^{d-1}*x", d, profile, 3 * (d * d - 3 * d + 3), closed // 3))
    curves.append(("klein", KLEIN, 4, {1: 24}, 168, 85))
    # The curves run with the CLI's default --seed, as a user types them, so
    # every round does the same algebra and only the op order and the
    # choice of subcommand vary: a round's cost then does not depend on
    # which projections the seed happens to draw (Fermat d=9 takes 3.4 s to
    # 8.6 s depending on --seed).
    ops = []
    for name, src, d, profile, aut, orbit in curves:
        if rng.random() < 0.5:
            argv = ("--json", "flexes", src)
            ops.append(Op(f"flexes {name}", check_curve_op("flexes", d, profile), argv=argv))
        else:
            argv = ("--json", "degree", src, "--aut", str(aut))
            ops.append(Op(f"degree {name}", check_curve_op("degree", d, profile, aut, orbit), argv=argv))
    rng.shuffle(ops)
    return ops


def _lowdeg_round(rng: random.Random) -> list[Op]:
    ops = []
    for d in (3, 4, 5, 6):
        src = format_form(random_smooth_form(rng, d))
        argv = ("--json", "--seed", str(rng.randrange(1 << 16)), "predegree", src)
        ops.append(Op(f"predegree smooth d={d}", check_curve_op("predegree", d), argv=argv))
    d = rng.randint(3, 6)
    form = random_singular_form(rng, d)
    argv = ("--json", "--seed", str(rng.randrange(1 << 16)), "predegree", format_form(form))
    ops.append(Op(f"predegree singular d={d}", check_singular_op(form), argv=argv))
    rng.shuffle(ops)
    return ops


def _symbolic_round(rng: random.Random) -> list[Op]:
    # 1 verify-chow, 12 tables and 76 reports, two for each d = 3..40: the
    # p50 of a run lands inside the reports and the p90 inside the tables,
    # not on a boundary between op kinds.  Report times vary widely with
    # the profile, so the run needs thousands of them, every degree equally
    # often, for its p50 not to move with the seed.
    ops = [Op("verify-chow", check_verify_chow, argv=("--json", "verify-chow"))]
    for _ in range(12):
        lo, hi = rng.randint(3, 6), rng.randint(30, 40)
        argv = ("--json", "table", "--from", str(lo), "--to", str(hi))
        ops.append(Op(f"table {lo}..{hi}", check_table_op(lo, hi), argv=argv))
    for d in 2 * list(range(3, 41)):
        profile = random_valid_profile(rng, d)
        ops.append(Op(f"build_report d={d}", check_report(d, profile), report=(d, profile)))
    rng.shuffle(ops)
    return ops


_ROUNDS = {"named-highdeg": _named_round, "random-lowdeg": _lowdeg_round, "symbolic": _symbolic_round}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of round ``index`` of ``workload`` under ``seed``."""
    return _ROUNDS[workload](random.Random(f"{workload}/{seed}/{index}"))
