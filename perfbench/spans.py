"""Span tracing installed from outside the package.

``install`` wraps the public functions, constructors and alternate
constructors (public classmethods) of each layer module of ``twostate`` and
rebinds every name other modules imported, so a call is caught wherever it is
made (``checks.simulate``, ``scenarios.simulate``, ``cli.run_scenario``, ...).
Spans stay in memory as parallel arrays and are written as JSONL at the end.
Nothing under ``src/`` changes; ``restore`` undoes every patch.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

LAYERS = ("algebra", "rules", "montecarlo", "pointer", "scenarios", "checks", "cli")

# Rows of the paper-checks battery, in report order.
CHECK_ROWS = (
    "spin-chain-recombination",
    "recombination-random-qubits",
    "recombination-mach-zehnder",
    "conditional-vs-unconditioned",
    "swap-symmetry",
    "certain-outcome-weak-value",
    "product-rule-failure",
    "oracle-agreement",
    "erasure-retrodiction",
    "pointer-strong-lobes",
    "pointer-weak-convergence",
    "builtin-scenarios",
)

# Public algebra callables that build an observable or a state.
OBSERVABLE_BUILDERS = frozenset({
    "algebra.SpectralObservable",
    "algebra.SpectralObservable.from_hermitian",
    "algebra.SpectralObservable.from_eigenbasis",
    "algebra.pauli",
    "algebra.spin_observable",
    "algebra.state_projector_observable",
    "algebra.bell_basis",
    "algebra.which_path",
    "algebra.detector_basis",
    "algebra.identity_observable",
    "algebra.expand_observable",
})
STATE_BUILDERS = frozenset({
    "algebra.StateVector",
    "algebra.StateVector.normalized",
    "algebra.basis_state",
    "algebra.spin_state",
})

ZERO_BRANCH = 1e-30  # pointer.couple skips branches below this squared norm


class Tracer:
    """Spans as parallel arrays: name, start and end (ns), parent index, operation id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.op = 0
        self._stack = [-1]
        self.trials = 0
        self.accepted = 0
        self.fft_points = 0

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(i, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # hooks that record counts where the work happens
    def _simulated(self, i, stats, args, kwargs):
        self.trials += stats.trials
        self.accepted += stats.accepted

    def _coupled(self, i, joint, args, kwargs):
        system, pointer, coupling = _bind(args, kwargs, ("system", "pointer", "coupling"))
        live = sum(
            1 for proj in coupling.observable.projectors
            if np.vdot(proj @ system.amps, proj @ system.amps).real >= ZERO_BRANCH
        )
        self.fft_points += live * pointer.positions.size

    def _checked(self, i, result, args, kwargs):
        row = getattr(result, "name", None)
        if row in CHECK_ROWS:
            self.names[i] = f"checks.row.{row}"

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": self.starts[i], "end_ns": self.ends[i],
                                     "parent": self.parents[i], "op": self.ops[i]}, separators=(",", ":")) + "\n")


def _bind(args, kwargs, names):
    values = list(args) + [kwargs[n] for n in names[len(args):]]
    return values[: len(names)]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public callables; returns a function that undoes it."""
    hooks = {"montecarlo.simulate": tracer._simulated, "pointer.couple": tracer._coupled}
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, Callable] = {}

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer in LAYERS:
        mod = importlib.import_module(f"twostate.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            span = f"{layer}.{name}"
            if inspect.isfunction(obj):
                after = hooks.get(span) or (tracer._checked if layer == "checks" and name.startswith("check_") else None)
                replaced[id(obj)] = tracer.wrap(span, obj, after)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                if "__init__" in obj.__dict__:
                    patch(obj, "__init__", tracer.wrap(span, obj.__dict__["__init__"]))
                for attr, member in list(obj.__dict__.items()):
                    if isinstance(member, classmethod) and not attr.startswith("_"):
                        patch(obj, attr, classmethod(tracer.wrap(f"{span}.{attr}", member.__func__)))
    for modname, mod in list(sys.modules.items()):
        if modname != "twostate" and not modname.startswith("twostate."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and not attr.startswith("__"):
                patch(mod, attr, wrapped)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return restore


# ---------------------------------------------------------------------------
# deriving metrics from spans


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def group_time(names, starts, ends, parents, group) -> int:
    """Time inside spans of ``group``, counting a span nested in another of the group once."""
    total = 0
    for i, name in enumerate(names):
        if name not in group:
            continue
        p = parents[i]
        while p >= 0 and names[p] not in group:
            p = parents[p]
        if p < 0:
            total += ends[i] - starts[i]
    return total


def per_layer_metrics(tracer: Tracer, ops: int, overhead_pct: float) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``ops`` traced operations."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    counts = Counter(names)
    own = self_times(starts, ends, parents)

    def ms(*group):
        return group_time(names, starts, ends, parents, frozenset(group)) / 1e6 / ops

    def self_ms(name):
        return sum(t for n, t in zip(names, own) if n == name) / 1e6 / ops

    simulate_ms = ms("montecarlo.simulate") * ops
    metrics = {
        "algebra.observable.calls": counts["algebra.SpectralObservable"] / ops,
        "algebra.observable.ms": ms(*OBSERVABLE_BUILDERS),
        "algebra.state.calls": counts["algebra.StateVector"] / ops,
        "algebra.state.ms": ms(*STATE_BUILDERS),
        "rules.abl.calls": counts["rules.abl_probabilities"] / ops,
        "rules.abl.ms": ms("rules.abl_probabilities"),
        "rules.weak_value.ms": ms("rules.weak_value"),
        "rules.total_probability.ms": ms("rules.total_probability_check"),
        "montecarlo.simulate.calls": counts["montecarlo.simulate"] / ops,
        "montecarlo.simulate.ms": simulate_ms / ops,
        "montecarlo.trials": tracer.trials / ops,
        "montecarlo.accept_ratio": tracer.accepted / tracer.trials if tracer.trials else 0.0,
        "montecarlo.mtrials_per_s": tracer.trials / simulate_ms / 1e3 if simulate_ms else 0.0,
        "montecarlo.compare.ms": ms("montecarlo.compare_to_abl"),
        "scenarios.load.ms": ms("scenarios.load_scenario"),
        "scenarios.analytic.ms": ms("scenarios.analytic_predictions"),
        "scenarios.run.self_ms": self_ms("scenarios.run_scenario"),
        "pointer.couple.calls": counts["pointer.couple"] / ops,
        "pointer.couple.ms": ms("pointer.couple"),
        "pointer.fft_points": tracer.fft_points / ops,
        "pointer.mean_shift.self_ms": self_ms("pointer.post_selected_mean_shift"),
        "pointer.momentum.ms": ms("pointer.post_selected_momentum_mean"),
    }
    for row in CHECK_ROWS:
        metrics[f"checks.{row}.ms"] = ms(f"checks.row.{row}")
    metrics["cli.main.self_ms"] = self_ms("cli.main")
    metrics["cli.parser.ms"] = ms("cli.build_parser")
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def layer_shares(tracer: Tracer, wall_ns: int) -> dict[str, float]:
    """Share of the traced wall time spent in each layer's own code (self time)."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, t in zip(tracer.names, own):
        shares[name.split(".", 1)[0]] += t / wall_ns
    shares["outside"] = 1.0 - sum(shares.values())
    return shares


def per_layer_units() -> dict[str, str]:
    """Unit of each per-layer metric; every count and time is per traced operation."""
    special = {
        "montecarlo.trials": "trials/op",
        "montecarlo.accept_ratio": "fraction",
        "montecarlo.mtrials_per_s": "Mtrials/s",
        "pointer.fft_points": "points/op",
        "trace.overhead_pct": "%",
    }
    names = per_layer_metrics(Tracer(), 1, 0.0)
    return {name: special.get(name, "calls/op" if name.endswith(".calls") else "ms/op") for name in names}
