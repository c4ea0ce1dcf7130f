"""Command-line front end.

Thin adapters over the library: every number printed comes straight from the
same calls a user would make in Python.  Exit codes are stable: 0 success,
1 failed checks, 2 input error, 3 undefined quantity (zero denominator or
orthogonal selections), 4 runtime rejection (post-selection starved).

State and observable shorthands (qubits only; use scenario files for higher
dimensions): ``up-z``, ``down-z``, ``up-x``, ``down-x``, ``up-y``, ``down-y``,
``spin:THETA[:PHI]`` for states; ``pauli-x``, ``pauli-y``, ``pauli-z``,
``spin:THETA[:PHI]`` for observables.  Angles are radians.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import SpectralObservable, StateVector, pauli, spin_observable, spin_state
from .checks import run_paper_checks
from .errors import (
    InsufficientAcceptedTrialsError,
    TwoStateError,
    ZeroDenominatorError,
    ZeroOverlapError,
)
from .montecarlo import MeasureStage, simulate
from .pointer import CouplingSpec, make_gaussian_pointer, post_selected_mean_shift
from .rules import TwoStateVector, abl_probabilities, born_probabilities, weak_value
from .scenarios import builtin, builtin_names, builtin_parameters, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_REJECTED = 4

_STATES = {
    "up-z": lambda: spin_state(0.0),
    "down-z": lambda: spin_state(np.pi),
    "up-x": lambda: spin_state(np.pi / 2),
    "down-x": lambda: spin_state(np.pi / 2, np.pi),
    "up-y": lambda: spin_state(np.pi / 2, np.pi / 2),
    "down-y": lambda: spin_state(np.pi / 2, -np.pi / 2),
}


class CliError(Exception):
    """Input that argparse accepted but the domain rejects; exits 2."""


def parse_state(text: str) -> StateVector:
    if text in _STATES:
        return _STATES[text]()
    if text.startswith("spin:"):
        return spin_state(*_angles(text))
    raise CliError(
        f"unknown state {text!r}; expected one of {', '.join(_STATES)} or spin:THETA[:PHI]"
    )


def parse_observable(text: str) -> SpectralObservable:
    if text.startswith("pauli-") and text[6:] in ("x", "y", "z"):
        return pauli(text[6:])
    if text.startswith("spin:"):
        return spin_observable(*_angles(text))
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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g} {sign} {abs(z.imag):.12g}i"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", out)
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), out)
        return
    width = {k: max(len(k), *(len(_cell(r[k])) for r in rows)) for k in rows[0]}
    lines = ["  ".join(k.ljust(width[k]) for k in rows[0])]
    for r in rows:
        lines.append("  ".join(_cell(r[k]).ljust(width[k]) for k in r))
    _emit("\n".join(lines) + "\n", out)


def _distribution_rows(dist) -> list[dict]:
    return [
        {"eigenvalue": e, "probability": p}
        for e, p in zip(dist.eigenvalues, dist.probabilities)
    ]


def cmd_born(args) -> int:
    dist = born_probabilities(parse_state(args.state), parse_observable(args.obs))
    _emit_rows(_distribution_rows(dist), args.format, args.out)
    return EXIT_OK


def cmd_abl(args) -> int:
    tsv = TwoStateVector(parse_state(args.pre), parse_state(args.post))
    dist = abl_probabilities(tsv, parse_observable(args.obs))
    _emit_rows(_distribution_rows(dist), args.format, args.out)
    return EXIT_OK


def cmd_weak(args) -> int:
    tsv = TwoStateVector(parse_state(args.pre), parse_state(args.post))
    value = weak_value(tsv, parse_observable(args.obs).operator)
    if args.format == "json":
        _emit(json.dumps({"weak_value": [value.real, value.imag]}) + "\n", args.out)
    elif args.format == "csv":
        _emit(f"re,im\n{_fmt(value.real)},{_fmt(value.imag)}\n", args.out)
    else:
        _emit(f"weak value: {_fmt_complex(value)}\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    pre = parse_state(args.pre)
    stages = [
        MeasureStage(parse_observable(text), f"m{i}")
        for i, text in enumerate(args.measure or [])
    ]
    stats = simulate(
        pre, stages, (parse_observable(args.post), args.select), args.trials, args.seed
    )
    rows = [
        {
            "stage": "acceptance",
            "eigenvalue": stats.selected_eigenvalue,
            "frequency": stats.acceptance.frequency,
            "se": stats.acceptance.std_error,
            "count": stats.accepted,
        }
    ]
    for st in stats.stages:
        for stat in stats.conditional(st.label):
            rows.append(
                {
                    "stage": st.label,
                    "eigenvalue": stat.eigenvalue,
                    "frequency": stat.frequency,
                    "se": stat.std_error,
                    "count": stat.count,
                }
            )
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


# catalog parameters become --flags of the same name; which_path_stage is --no-which-path
_BUILTIN_PARAMS = tuple(dict.fromkeys(
    p for name in builtin_names() for p in builtin_parameters(name) if p != "which_path_stage"
))


def cmd_scenario(args) -> int:
    if bool(args.builtin) == bool(args.file):
        raise CliError("give exactly one of --builtin NAME or --file PATH")
    if args.builtin:
        params = {
            name: getattr(args, name) for name in _BUILTIN_PARAMS if getattr(args, name) is not None
        }
        if args.no_which_path:
            params["which_path_stage"] = False
        try:
            spec = builtin(args.builtin, **params)
        except ValueError as exc:
            raise CliError(f"{exc}\navailable builtins: {', '.join(builtin_names())}") from None
    else:
        try:
            document = json.loads(Path(args.file).read_text())
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from None
        spec = load_scenario(document)
    report = run_scenario(spec, mode=args.mode, trials=args.trials, seed=args.seed, z=args.z)

    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
        return EXIT_OK
    if args.format == "csv":
        rows = report.csv_rows()
        if not rows:
            raise CliError("scenario produced no per-outcome rows to write as CSV")
        _emit_rows(rows, "csv", args.out)
        return EXIT_OK

    lines = [f"scenario: {report.scenario}  (mode={report.mode})"]
    for note in report.notes:
        lines.append(f"  note: {note}")
    if report.acceptance_analytic is not None:
        lines.append(f"  acceptance probability: {_fmt(report.acceptance_analytic)}")
    if report.acceptance is not None:
        a = report.acceptance
        lines.append(
            f"  acceptance sampled: {a.frequency:.6f}±{a.std_error:.6f} ({a.count} accepted)"
        )
    for st in report.stages:
        lines.append(f"  stage {st.label}:")
        for i, eig in enumerate(st.eigenvalues):
            parts = [f"    {_fmt(eig)}:"]
            if st.analytic is not None:
                parts.append(f"analytic {_fmt(st.analytic[i])}")
            if st.frequencies is not None:
                parts.append(f"sampled {st.frequencies[i]:.6f}±{st.std_errors[i]:.6f}")
            if st.z_scores is not None:
                parts.append(f"z {st.z_scores[i]:.2f}")
            lines.append(" ".join(parts))
        if st.passed is not None:
            lines.append(f"    verdict: {'pass' if st.passed else 'FAIL'}")
    for w in report.weak:
        lines.append(f"  weak probe {w.label} (strength {_fmt(w.strength)}): {_fmt_complex(w.value)}")
        if w.shift_per_strength is not None:
            lines.append(
                f"    pointer shift/strength {_fmt(w.shift_per_strength)}, "
                f"extrapolated {_fmt(w.extrapolated)}, "
                f"verdict: {'pass' if w.passed else 'FAIL'}"
            )
    if report.reality is not None:
        for e in report.reality.entries:
            if e.error is not None:
                lines.append(f"  reality {e.label}: undefined ({e.error})")
            else:
                lines.append(
                    f"  reality {e.label}: eigenvalue {_fmt(e.eigenvalue)} with "
                    f"p = {_fmt(e.probability)}"
                    + ("  [element of reality]" if e.certain else "")
                )
    for label, audit in report.product_audits:
        lines.append(
            f"  product {label}: ({_fmt_complex(audit.ab_weak)}) vs "
            f"({_fmt_complex(audit.a_weak * audit.b_weak)})"
            + ("  [product rule fails]" if audit.failed else "")
        )
    if report.passed is not None:
        lines.append(f"verdict: {'pass' if report.passed else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_paper_checks(args) -> int:
    report = run_paper_checks(trials=args.trials, seed=args.seed, z=args.z)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit_rows(report.csv_rows(), "csv", args.out)
    else:
        _emit(report.to_text(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_pointer_sweep(args) -> int:
    pre = parse_state(args.pre)
    post = parse_state(args.post)
    obs = parse_observable(args.obs)
    wv = weak_value(TwoStateVector(pre, post), obs.operator)
    pointer = make_gaussian_pointer(sigma=args.sigma, n=args.n, span=args.span * args.sigma)
    try:
        couplings = [float(c) for c in args.couplings.split(",") if c]
    except ValueError as exc:
        raise CliError(f"bad --couplings: {exc}") from None
    if not couplings:
        raise CliError("--couplings must list at least one value")
    if not all(np.isfinite(lam) and lam > 0 for lam in couplings):
        raise CliError(f"--couplings must be finite numbers > 0, got {args.couplings}")
    rows = []
    for lam in couplings:
        shift = post_selected_mean_shift(pre, post, CouplingSpec(lam, obs), pointer)
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
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trials", type=int, default=100_000, help="Monte-Carlo trials")
    common.add_argument("--seed", type=int, default=7, help="master random seed")
    common.add_argument("--z", type=float, default=4.0, help="agreement threshold in standard errors")
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--out", help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="twostate",
        description="Conditional probabilities, weak values, and Monte-Carlo "
        "validation for pre- and post-selected quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("born", parents=[common], help="single-measurement outcome distribution")
    p.add_argument("--state", required=True)
    p.add_argument("--obs", required=True)
    p.set_defaults(func=cmd_born)

    p = sub.add_parser("abl", parents=[common], help="conditional distribution between two selections")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--obs", required=True)
    p.set_defaults(func=cmd_abl)

    p = sub.add_parser("weak", parents=[common], help="weak value of an observable")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--obs", required=True)
    p.set_defaults(func=cmd_weak)

    p = sub.add_parser("simulate", parents=[common], help="run the Monte-Carlo oracle ad hoc")
    p.add_argument("--pre", required=True)
    p.add_argument("--measure", action="append", help="intermediate observable (repeatable)")
    p.add_argument("--post", required=True, help="final observable")
    p.add_argument("--select", type=float, default=1.0, help="post-selected eigenvalue")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", parents=[common], help="run a builtin or file scenario")
    p.add_argument("--builtin", help=f"one of: {', '.join(builtin_names())}")
    p.add_argument("--file", help="scenario JSON document")
    p.add_argument("--mode", choices=("analytic", "oracle", "both"), default="both")
    for name in _BUILTIN_PARAMS:
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    p.add_argument("--no-which-path", action="store_true",
                   help="drop the intermediate path detector from interferometer builtins")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("paper-checks", parents=[common], help="run the full validation battery")
    p.set_defaults(func=cmd_paper_checks)

    p = sub.add_parser("pointer-sweep", parents=[common],
                       help="post-selected pointer shifts over a coupling sweep")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--couplings", default="0.1,0.05,0.025", help="comma-separated strengths")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--span", type=float, default=64.0, help="grid span in units of sigma")
    p.set_defaults(func=cmd_pointer_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trials < 1:
            raise CliError("--trials must be >= 1")
        if not (np.isfinite(args.z) and args.z > 0):
            raise CliError(f"--z must be a finite number > 0, got {args.z}")
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
