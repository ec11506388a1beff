"""The CLI contract on generated input: every run of ``main`` returns 0, 1
or 2, or exits through argparse with 0 (help) or 2 (usage error).  No
input may end in a traceback.

Inputs stay small so the property runs in seconds: numbers in curve text
are single digits, so no exponent exceeds 4, and a curve that parses to a
degree above 6 is discarded before the CLI sees it.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitflex.cli import main
from orbitflex.polyparse import parse_form

# The grammar's alphabet, one character that is not in it, and a few
# whole factors.
CURVE_TOKENS = list("xyz01234+-*^/() ") + ["w", "x^2", "y^3", "z^4", "x*y", "(x+y+z)"]
COMMANDS = ["flexes", "predegree", "degree", "table", "verify-chow", "pgl2", "bound", "nope"]


def power(var: str, e: int) -> str:
    """var^e written with exponents of at most 4."""
    return "*".join([f"{var}^4"] * (e // 4) + ([f"{var}^{e % 4}"] if e % 4 else []))


@st.composite
def form_text(draw):
    """A degree-d form: x^d + y^d + z^d (smooth) or the cyclic
    x^(d-1)y + y^(d-1)z + z^(d-1)x (smooth for d >= 3), plus a few terms
    with small coefficients, so that smooth and singular curves both come up."""
    d = draw(st.sampled_from([3, 4, 5, 6, 2]))
    if draw(st.booleans()):
        terms = [power(v, d) for v in "xyz"]
    else:
        terms = [f"{power(u, d - 1)}*{v}" for u, v in ("xy", "yz", "zx")]
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, d))
        b = draw(st.integers(0, d - a))
        coeff = draw(st.sampled_from(["-", "2", "-3", "3/2", "(-1)"]))
        terms.append(coeff + "*".join(power(v, e) for v, e in zip("xyz", (a, b, d - a - b)) if e))
    return " + ".join(terms)


soup = st.lists(st.sampled_from(CURVE_TOKENS), max_size=14).map("".join)
curve_text = st.one_of(form_text(), form_text(), soup).map(lambda s: re.sub(r"(\d)\d+", r"\1", s))
integer = st.integers(-3, 40).map(str)
number = st.one_of(integer, integer, integer, st.sampled_from(["", "x", "1.5", "-0", "1e3"]))


def small_enough(text: str) -> bool:
    try:
        _, d = parse_form(text)
    except Exception:  # rejected input goes to the CLI as it is
        return True
    return d <= 6


@st.composite
def argv(draw):
    args = []
    if draw(st.booleans()):
        args.append("--json")
    if draw(st.booleans()):
        args += ["--seed", draw(number)]
    command = draw(st.sampled_from(COMMANDS))
    args.append(command)
    if command in ("flexes", "predegree", "degree"):
        text = draw(curve_text)
        assume(small_enough(text))
        args.append(text)
        if command == "degree" or command == "predegree" and draw(st.booleans()):
            args += ["--aut", draw(number)]
    elif command == "table":
        args += ["--from", draw(number), "--to", draw(number)]
    elif command == "pgl2":
        args += ["--multiplicities", ",".join(draw(st.lists(number, min_size=1, max_size=5)))]
    elif command == "bound":
        args.append(draw(number))
    if draw(st.integers(0, 4)) == 0:
        extra = st.sampled_from(["--json", "--help", "--aut", "--from-file", "3", "x^3"])
        args += draw(st.lists(extra, min_size=1, max_size=2))
    return args


@settings(max_examples=120, deadline=None)
@given(argv())
def test_cli_ends_in_a_documented_exit_code(args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:
            assert exc.code in (0, 2), args
            return
    assert code in (0, 1, 2), args
