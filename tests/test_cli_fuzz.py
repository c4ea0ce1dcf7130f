"""Input-contract fuzzing of the command line.

Argument vectors are drawn from each subcommand's own flags, as the parser
declares them, with valid and malformed values: nan, inf, negative and huge
numbers, junk shorthands.  Every vector must end in a documented exit code
with a message, never a traceback.  The work per example is bounded:
``--trials`` at most 2,000, ``--n`` at most 4,096 and at most 3 couplings.
"""

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.cli import build_parser, main
from twostate.scenarios import builtin_names, builtin_parameters

PARSER = build_parser()
COMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices

JUNK = st.sampled_from(["", "junk", "1e999", "0x10", "--", "spin:", "spin:1:2:3", "pauli-q", "up-w"])


def mostly(valid):
    """``valid`` three times in four, junk otherwise."""
    return st.one_of(valid, valid, valid, JUNK)


def numbers(typical: float = 1.0):
    """Numbers near ``typical`` or anywhere: nan, inf, zero, negative, huge and tiny."""
    return mostly(st.one_of(
        st.floats(0.5, 2).map(lambda scale: repr(scale * typical)),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["0", "-0.0", "1", "-1", "1e-300", "1e300"]),
    ))


ANGLES = numbers()
SPIN = st.one_of(st.builds("spin:{}".format, ANGLES), st.builds("spin:{}:{}".format, ANGLES, ANGLES))
STATES = mostly(st.one_of(st.sampled_from(["up-z", "down-z", "up-x", "down-x", "up-y", "down-y"]), SPIN))
OBSERVABLES = mostly(st.one_of(st.sampled_from(["pauli-x", "pauli-y", "pauli-z"]), SPIN))
# the oracle's cost grows with --trials and the pointer's with --n: both stay bounded
BOUNDED = {
    "trials": mostly(st.one_of(st.integers(-2, 2000), st.integers(100, 2000)).map(str)),
    "n": mostly(st.integers(-1, 4096).map(str)),
    "seed": mostly(st.integers(-2**65, 2**65).map(str)),
    "couplings": mostly(st.lists(numbers(0.1), max_size=3).map(",".join)),
}
TEXT = {"state": STATES, "pre": STATES, "post": STATES, "obs": OBSERVABLES, "measure": OBSERVABLES,
        "builtin": mostly(st.sampled_from(builtin_names())), "file": st.just("no-such-scenario.json")}
# how often a flag is given, in percent: scenario needs exactly one of --builtin and --file, and
# each catalog parameter suits only some builtins
PRESENCE = {"builtin": 90, "file": 10, **{p: 5 for name in builtin_names() for p in builtin_parameters(name)}}


def values(command: str, action: argparse.Action):
    if action.choices is not None:
        return mostly(st.sampled_from(list(action.choices)))
    if command == "simulate" and action.dest == "post":  # simulate's --post is an observable
        return OBSERVABLES
    if action.dest in BOUNDED:
        return BOUNDED[action.dest]
    if action.type is float:
        return numbers(action.default or 1.0)
    return TEXT[action.dest]


@st.composite
def argvs(draw, command: str):
    argv = [command]
    flags = {}
    for action in COMMANDS[command]._actions:
        if action.dest in ("help", "out") or not action.option_strings:
            continue
        flag = action.option_strings[0]
        if draw(st.integers(0, 99)) >= PRESENCE.get(action.dest, 90 if action.required else 30):
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        repeats = draw(st.integers(1, 3)) if isinstance(action, argparse._AppendAction) else 1
        for _ in range(repeats):
            flags[action.dest] = draw(values(command, action))
            argv.append(f"{flag}={flags[action.dest]}")
    # left out, --trials is the library's 100,000, unless --mode analytic runs no oracle
    takes_trials = any(action.dest == "trials" for action in COMMANDS[command]._actions)
    if takes_trials and "trials" not in flags and flags.get("mode") != "analytic":
        argv.append(f"--trials={draw(BOUNDED['trials'])}")
    return argv


def check(argv: list[str], allowed=frozenset({0, 2, 3, 4})) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    assert code in allowed, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code not in (0, 1):  # a failed check is reported in the report itself, on stdout
        assert err.getvalue().strip(), (argv, code)


@given(st.sampled_from(sorted(set(COMMANDS) - {"paper-checks"})).flatmap(argvs))
@settings(max_examples=300, deadline=None)
def test_every_argument_vector_exits_with_a_documented_code(argv):
    check(argv)


@given(argvs("paper-checks"))
@settings(max_examples=8, deadline=None)
def test_paper_checks_argument_vectors_exit_with_a_documented_code(argv):
    check(argv, allowed=frozenset({0, 1, 2}))  # 1: a check failed, as a tiny --z makes it
