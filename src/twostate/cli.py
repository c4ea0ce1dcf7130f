"""Command-line front end.

Thin adapters over the library: every number printed comes straight from the
same calls a user would make in Python.  Exit codes are stable: 0 success,
1 failed checks, 2 input error, 3 undefined quantity (zero denominator or
orthogonal selections), 4 runtime rejection (post-selection starved).

State and observable shorthands (qubits only; use scenario files for higher
dimensions): ``up-z``, ``down-z``, ``up-x``, ``down-x``, ``up-y``, ``down-y``,
``spin:THETA[:PHI]`` for states; ``pauli-x``, ``pauli-y``, ``pauli-z``,
``spin:THETA[:PHI]`` for observables.  Angles are radians.

Each subcommand imports the layers it reads, so importing this module loads
none of them and a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientAcceptedTrialsError,
    NormalizationError,
    ObservableError,
    PointerGridError,
    TwoStateError,
    ZeroDenominatorError,
    ZeroOverlapError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_REJECTED = 4

_STATES = {  # spin_state angles (theta, phi)
    "up-z": (0.0,),
    "down-z": (np.pi,),
    "up-x": (np.pi / 2,),
    "down-x": (np.pi / 2, np.pi),
    "up-y": (np.pi / 2, np.pi / 2),
    "down-y": (np.pi / 2, -np.pi / 2),
}


class CliError(Exception):
    """Input that argparse accepted but the domain rejects; exits 2."""


def parse_state(text: str):
    from .algebra import spin_state

    if text in _STATES:
        return spin_state(*_STATES[text])
    if text.startswith("spin:"):
        return spin_state(*_angles(text))
    raise CliError(
        f"unknown state {text!r}; expected one of {', '.join(_STATES)} or spin:THETA[:PHI]"
    )


def parse_observable(text: str):
    from .algebra import pauli, spin_observable

    if text.startswith("pauli-") and text[6:] in ("x", "y", "z"):
        return pauli(text[6:])
    if text.startswith("spin:"):
        angles = _angles(text)
        try:  # a huge angle can round the two spin projectors apart
            return spin_observable(*angles)
        except (ObservableError, NormalizationError) as exc:
            raise CliError(f"observable {text!r}: {exc}") from None
    raise CliError(
        f"unknown observable {text!r}; expected pauli-x|pauli-y|pauli-z or spin:THETA[:PHI]"
    )


def _angles(text: str) -> tuple[float, ...]:
    parts = text.split(":")[1:]
    if not 1 <= len(parts) <= 2:
        raise CliError(f"bad angle spec {text!r}; expected spin:THETA[:PHI]")
    try:
        angles = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"bad angle in {text!r}: {exc}") from None
    if not np.isfinite(angles).all():
        raise CliError(f"bad angle in {text!r}: angles must be finite")
    return angles


def _cell(value) -> str:
    from .scenarios import _fmt

    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(args, rows: list[dict], document=None, text: str | None = None) -> None:
    """Write a result in ``--format`` to ``--out``, or stdout: ``rows`` are the CSV,
    and the JSON and the text table unless ``document`` or ``text`` replaces them."""
    if args.format == "json":
        text = json.dumps(rows if document is None else document, indent=2) + "\n"
    elif args.format == "csv":
        if not rows:
            raise CliError(f"{args.command} produced no per-outcome rows to write as CSV")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    elif text is None:
        width = {k: max(len(k), *(len(_cell(r[k])) for r in rows)) for k in rows[0]}
        lines = ["  ".join(k.ljust(width[k]) for k in rows[0])]
        for r in rows:
            lines.append("  ".join(_cell(r[k]).ljust(width[k]) for k in r))
        text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write --out {args.out}: {exc}") from None


def _distribution_rows(dist) -> list[dict]:
    return [
        {"eigenvalue": e, "probability": p}
        for e, p in zip(dist.eigenvalues, dist.probabilities)
    ]


def cmd_born(args) -> int:
    from .rules import born_probabilities

    dist = born_probabilities(parse_state(args.state), parse_observable(args.obs))
    _emit(args, _distribution_rows(dist))
    return EXIT_OK


def cmd_abl(args) -> int:
    from .rules import TwoStateVector, abl_probabilities

    tsv = TwoStateVector(parse_state(args.pre), parse_state(args.post))
    dist = abl_probabilities(tsv, parse_observable(args.obs))
    _emit(args, _distribution_rows(dist))
    return EXIT_OK


def cmd_weak(args) -> int:
    from .rules import TwoStateVector, weak_value
    from .scenarios import _encode_complex, _fmt_complex

    tsv = TwoStateVector(parse_state(args.pre), parse_state(args.post))
    value = weak_value(tsv, parse_observable(args.obs).operator)
    re, im = _encode_complex(value)
    _emit(args, [{"re": re, "im": im}], {"weak_value": [re, im]}, f"weak value: {_fmt_complex(value)}\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .montecarlo import MeasureStage, simulate

    pre = parse_state(args.pre)
    stages = [
        MeasureStage(parse_observable(text), f"m{i}")
        for i, text in enumerate(args.measure or [])
    ]
    stats = simulate(
        pre, stages, (parse_observable(args.post), args.select), args.trials, args.seed
    )
    pairs = [("acceptance", stats.acceptance)]
    pairs += [(st.label, stat) for st in stats.stages for stat in stats.conditional(st.label)]
    rows = [
        {"stage": label, "eigenvalue": s.eigenvalue, "frequency": s.frequency, "se": s.std_error, "count": s.count}
        for label, s in pairs
    ]
    _emit(args, rows)
    return EXIT_OK


def _given(args, *names: str) -> dict:
    """The named options the user set; the library supplies every other default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


@cache
def _builtin_params() -> tuple[str, ...]:
    """Catalog parameters, which become --flags of the same name; which_path_stage is --no-which-path."""
    from .scenarios import builtin_names, builtin_parameters

    return tuple(dict.fromkeys(
        p for name in builtin_names() for p in builtin_parameters(name) if p != "which_path_stage"
    ))


def cmd_scenario(args) -> int:
    from .scenarios import builtin, builtin_names, load_scenario, run_scenario

    if bool(args.builtin) == bool(args.file):
        raise CliError("give exactly one of --builtin NAME or --file PATH")
    oracle = _given(args, "trials", "seed", "z")
    if args.mode == "analytic" and oracle:
        raise CliError(f"--{next(iter(oracle))} sets the Monte-Carlo oracle, which --mode analytic does not run")
    params = _given(args, *_builtin_params())
    if args.no_which_path:
        params["which_path_stage"] = False
    if args.file and params:
        name = next(iter(params))
        flag = "--no-which-path" if name == "which_path_stage" else f"--{name.replace('_', '-')}"
        raise CliError(f"{flag} sets a builtin parameter and cannot be used with --file")
    if args.builtin:
        try:
            spec = builtin(args.builtin, **params)
        except ValueError as exc:
            raise CliError(f"{exc}\navailable builtins: {', '.join(builtin_names())}") from None
    else:
        try:
            document = json.loads(Path(args.file).read_text())
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CliError(f"cannot read --file {args.file}: {exc}") from None
        spec = load_scenario(document)
    report = run_scenario(spec, mode=args.mode, **oracle)
    _emit(args, report.csv_rows(), report.to_dict(), report.to_text())
    return EXIT_OK


def cmd_paper_checks(args) -> int:
    from .checks import run_paper_checks

    report = run_paper_checks(trials=args.trials, seed=args.seed, **_given(args, "z"))
    _emit(args, report.csv_rows(), report.to_dict(), report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_pointer_sweep(args) -> int:
    from .pointer import CouplingSpec, couple, make_gaussian_pointer, post_selected_mean_shift
    from .rules import TwoStateVector, weak_value

    pre = parse_state(args.pre)
    post = parse_state(args.post)
    obs = parse_observable(args.obs)
    wv = weak_value(TwoStateVector(pre, post), obs.operator)
    if not np.isfinite(span := args.span * args.sigma) and np.isfinite([args.span, args.sigma]).all():
        raise CliError(f"pointer grid (--span × --sigma): {args.span!r} × {args.sigma!r} overflows")
    try:
        pointer = make_gaussian_pointer(sigma=args.sigma, n=args.n, span=span)
    except (PointerGridError, ValueError) as exc:
        raise CliError(f"pointer grid (--sigma, --span, --n): {exc}") from None
    try:
        couplings = [float(c) for c in args.couplings.split(",") if c]
    except ValueError as exc:
        raise CliError(f"bad --couplings: {exc}") from None
    if not couplings:
        raise CliError("--couplings must list at least one value")
    if not all(np.isfinite(lam) and lam > 0 for lam in couplings):
        raise CliError(f"--couplings must be finite numbers > 0, got {args.couplings}")
    largest = float(np.max(np.abs(obs.eigenvalues)))
    for lam in couplings:  # the mean of a sigma-scaled grid resolves shifts well above sigma * eps only
        if not lam * largest > 1e4 * np.finfo(float).eps * args.sigma:
            raise CliError(f"--couplings {lam!r} shifts the pointer by at most {lam * largest!r}, "
                           f"not above 1e4 * eps * --sigma: the grid cannot resolve it")
        if lam * largest > pointer.span / 4:  # couple's own bound, checked before any coupling runs
            raise CliError(f"--couplings {lam!r} shifts the pointer by up to {lam * largest!r}, beyond the "
                           f"grid's span/4 = {pointer.span / 4!r} (--span × --sigma / 4)")
    rows = []
    for lam in couplings:
        shift = post_selected_mean_shift(couple(pre, pointer, CouplingSpec(lam, obs)), post)
        per = shift / lam
        rows.append(
            {
                "coupling": lam,
                "shift": shift,
                "shift_per_coupling": per,
                "weak_value_re": wv.real,
                "abs_error": abs(per - wv.real),
            }
        )
    _emit(args, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .montecarlo import Z_THRESHOLD
    from .pointer import DEFAULT_N, DEFAULT_SPAN_SIGMAS
    from .scenarios import DEFAULT_SEED, DEFAULT_TRIALS, builtin_names

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("table", "json", "csv"), default="table")
    output.add_argument("--out", help="write output to this path instead of stdout")

    selections = argparse.ArgumentParser(add_help=False)
    selections.add_argument("--pre", required=True)
    selections.add_argument("--post", required=True)
    selections.add_argument("--obs", required=True)

    threshold = argparse.ArgumentParser(add_help=False)
    threshold.add_argument("--z", type=float, help=f"agreement threshold in standard errors (default {Z_THRESHOLD:g})")

    # not a parent: parents share their Action objects, so scenario's defaults
    # would leak into simulate's and paper-checks'
    def sampling(p, trials, seed, note=""):
        p.add_argument("--trials", type=int, default=trials, help="Monte-Carlo trials" + note)
        p.add_argument("--seed", type=int, default=seed, help="master random seed" + note)

    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Conditional probabilities, weak values, and Monte-Carlo "
        "validation for pre- and post-selected quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("born", parents=[output], help="single-measurement outcome distribution")
    p.add_argument("--state", required=True)
    p.add_argument("--obs", required=True)
    p.set_defaults(func=cmd_born)

    p = sub.add_parser("abl", parents=[selections, output],
                       help="conditional distribution between two selections")
    p.set_defaults(func=cmd_abl)

    p = sub.add_parser("weak", parents=[selections, output], help="weak value of an observable")
    p.set_defaults(func=cmd_weak)

    p = sub.add_parser("simulate", parents=[output], help="run the Monte-Carlo oracle ad hoc")
    p.add_argument("--pre", required=True)
    p.add_argument("--measure", action="append", help="intermediate observable (repeatable)")
    p.add_argument("--post", required=True, help="final observable")
    p.add_argument("--select", type=float, default=1.0, help="post-selected eigenvalue")
    sampling(p, DEFAULT_TRIALS, DEFAULT_SEED)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", parents=[output, threshold], help="run a builtin or file scenario")
    p.add_argument("--builtin", help=f"one of: {', '.join(builtin_names())}")
    p.add_argument("--file", help="scenario JSON document")
    p.add_argument("--mode", choices=("analytic", "oracle", "both"), default="both")
    sampling(p, None, None, f" (default: the scenario's own; {DEFAULT_TRIALS} and {DEFAULT_SEED} for a builtin)")
    for name in _builtin_params():
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    p.add_argument("--no-which-path", action="store_true",
                   help="drop the intermediate path detector from interferometer builtins")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("paper-checks", parents=[output, threshold], help="run the full validation battery")
    sampling(p, DEFAULT_TRIALS, DEFAULT_SEED)
    p.set_defaults(func=cmd_paper_checks)

    p = sub.add_parser("pointer-sweep", parents=[selections, output],
                       help="post-selected pointer shifts over a coupling sweep")
    p.add_argument("--couplings", default="0.1,0.05,0.025", help="comma-separated strengths")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--span", type=float, default=DEFAULT_SPAN_SIGMAS, help="grid span in units of sigma")
    p.set_defaults(func=cmd_pointer_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    for arg in sys.argv[1:] if argv is None else argv:  # argparse < 3.12 reads --flag=-- as an empty list
        flag, eq, value = arg.partition("=")
        if flag.startswith("--") and eq and value == "--":
            parser.error(f"argument {flag}: expected one argument")
    args = parser.parse_args(argv)
    trials, z = getattr(args, "trials", None), getattr(args, "z", None)
    try:
        if trials is not None and trials < 1:
            raise CliError("--trials must be >= 1")
        if z is not None and not (np.isfinite(z) and z > 0):
            raise CliError(f"--z must be a finite number > 0, got {z}")
        return args.func(args)
    except (ZeroDenominatorError, ZeroOverlapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except InsufficientAcceptedTrialsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (CliError, TwoStateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
