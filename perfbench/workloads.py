"""The benchmark's four workloads: seeded inputs, one operation, and its output gate.

Every workload is a fixed cycle of inputs built from the workload seed before
timing starts.  ``run`` performs one operation through the public API of
``twostate`` and returns its output; ``check`` compares that output with a
reference computed outside the timed region and raises ``GateError`` on any
mismatch.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import twostate as ts
from twostate import cli

# Tags keep the random streams of different purposes disjoint.
_DEEP_TAG, _ORDER_TAG, _POINTER_TAG, _QUERY_TAG = 11, 12, 13, 14

BATTERY_TRIALS = 100_000
BATTERY_POOL = tuple(range(16))  # paper-checks seeds whose report digests are recorded
BATTERY_BLOCK = 3  # pool seeds a run cycles through, picked by the workload seed
DEEP_TRIALS = 200_000
DEEP_POOL = 8  # recorded scenarios per shape
POINTER_GRIDS = ((4096, 64), (65536, 256), (262144, 256))  # (n, span in sigmas)
POINTER_COUPLINGS = (0.0125, 0.025, 0.05, 0.1, 0.2, 1.0, 3.0, 10.0)
POINTER_CYCLES = 8
WEAK_TRIALS = 20_000
QUERY_POINTS = 512
ANALYTIC_SUM_TOL = 1e-12
NUMERIC_TOL = 1e-12


class GateError(Exception):
    """An operation's output disagrees with its reference."""


@dataclass(frozen=True)
class Shape:
    name: str
    dim: int
    stages: int
    ranks: tuple[int, ...]  # rank of each branch of every measurement stage

    @property
    def paths(self) -> int:
        return len(self.ranks) ** self.stages


SHAPES = (
    Shape("rank1-d8", 8, 5, (1,) * 8),
    Shape("rank1-d4", 4, 7, (1,) * 4),
    Shape("qubit", 2, 14, (1, 1)),
    Shape("degenerate-d8", 8, 14, (4, 4)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]  # seed -> the op inputs, cycled in order
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, dict], None]  # (input, output, recorded references)
    warmup: int  # ops run untimed before measuring
    block: int  # consecutive ops (whole cycles of input kinds) timed as one throughput sample


def _raise_unless(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def _order(seed: int, size: int, stream: int = 0) -> list[int]:
    return [int(i) for i in np.random.default_rng([_ORDER_TAG, stream, seed]).permutation(size)]


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _encode_vector(v) -> list:
    return [[float(a.real), float(a.imag)] for a in v]


def _encode_matrix(m) -> list:
    return [_encode_vector(row) for row in m]


def _explicit_observable(basis: np.ndarray, ranks: tuple[int, ...]) -> dict:
    branches, start = [], 0
    for k, rank in enumerate(ranks):
        block = basis[:, start:start + rank]
        start += rank
        branches.append({"eigenvalue": float(k + 1), "projector": _encode_matrix(block @ block.conj().T)})
    return {"explicit": branches}


def _spin_up(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])


def _spin_matrix(theta: float, phi: float) -> np.ndarray:
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    return np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])


def _random_angles(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(0.0, math.pi)), float(rng.uniform(-math.pi, math.pi))


# ---------------------------------------------------------------------------
# battery: the full paper-checks validation run, in process


def battery_argv(pool_seed: int) -> list[str]:
    return ["paper-checks", "--trials", str(BATTERY_TRIALS), "--seed", str(pool_seed)]


def battery_inputs(seed: int) -> list[list[str]]:
    """A fixed cycle of recorded pool seeds, so each block position always sees the same input."""
    return [battery_argv(BATTERY_POOL[i]) for i in _order(seed, len(BATTERY_POOL))[:BATTERY_BLOCK]]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``twostate`` command line in process: exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def battery_check(argv: list[str], output: tuple[int, str], reference: dict) -> None:
    code, text = output
    _raise_unless(code == 0, f"paper-checks {argv} exited {code}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    _raise_unless(digest == reference["battery"][argv[-1]], f"paper-checks --seed {argv[-1]}: report digest {digest}")


# ---------------------------------------------------------------------------
# deep-timeline: long scenarios whose cost is collapse-path enumeration


def scenario_document(shape_index: int, entry: int) -> str:
    """Scenario JSON for one recorded pool entry of one shape.

    Measurement stages alternate with random unitaries; the post-selection
    is one rank-1 branch of a random basis.
    """
    shape = SHAPES[shape_index]
    rng = np.random.default_rng([_DEEP_TAG, shape_index, entry])
    dim = shape.dim
    timeline = []
    for k in range(shape.stages):
        timeline.append({"unitary": _encode_matrix(_unitary(rng, dim))})
        timeline.append({"measure": {"observable": _explicit_observable(_unitary(rng, dim), shape.ranks),
                                     "label": f"m{k}"}})
    pre = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    doc = {
        "name": f"{shape.name}-{entry}",
        "dim": dim,
        "pre": _encode_vector(pre / np.linalg.norm(pre)),
        "timeline": timeline,
        "post": {"observable": _explicit_observable(_unitary(rng, dim), (1,) * dim), "select": 1.0},
        "trials": DEEP_TRIALS,
        "seed": int(rng.integers(2**31)),
    }
    return json.dumps(doc)


def deep_inputs(seed: int) -> list[tuple[str, str]]:
    """Cycles of one scenario per shape; each shape walks its pool in a seeded order."""
    orders = [_order(seed, DEEP_POOL, stream=s) for s in range(len(SHAPES))]
    return [
        (f"{s}:{orders[s][c]}", scenario_document(s, orders[s][c]))
        for c in range(DEEP_POOL)
        for s in range(len(SHAPES))
    ]


def run_document(text: str) -> str:
    spec = ts.load_scenario(text)
    report = ts.run_scenario(spec, mode="both")
    return json.dumps(report.to_dict())


def deep_run(item: tuple[str, str]) -> str:
    return run_document(item[1])


def tally_digest(report: dict) -> str:
    """sha256 of the integer oracle tallies: accepted count and per-stage accepted counts."""
    accepted = report["acceptance"]["count"]
    counts = [[round(f * accepted) for f in stage["frequencies"]] for stage in report["stages"]]
    return hashlib.sha256(json.dumps([accepted, counts]).encode()).hexdigest()


def deep_check(item: tuple[str, str], output: str, reference: dict) -> None:
    report = json.loads(output)
    _raise_unless(report["passed"] is True, f"scenario {item[0]} did not pass")
    for stage in report["stages"]:
        defect = abs(math.fsum(stage["analytic"]) - 1.0)
        _raise_unless(defect <= ANALYTIC_SUM_TOL, f"scenario {item[0]} stage {stage['label']}: sum defect {defect}")
    digest = tally_digest(report)
    _raise_unless(digest == reference["deep-timeline"][item[0]], f"scenario {item[0]}: tally digest {digest}")


# ---------------------------------------------------------------------------
# pointer: FFT-grid pointer sweeps at three grid sizes plus one weak-value scenario


def _spin_text(theta: float, phi: float) -> str:
    return f"spin:{theta!r}:{phi!r}"


def _overlapping_angles(rng: np.random.Generator, floor: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Pre and post spin angles with |<post|pre>|^2 >= floor."""
    while True:
        pre, post = _random_angles(rng), _random_angles(rng)
        if abs(np.vdot(_spin_up(*post), _spin_up(*pre))) ** 2 >= floor:
            return pre, post


def _weak_document(rng: np.random.Generator) -> tuple[str, complex]:
    """A qubit weak-measurement scenario and its weak value, computed directly."""
    while True:
        pre = rng.normal(size=2) + 1j * rng.normal(size=2)
        pre /= np.linalg.norm(pre)
        u1, u2 = _unitary(rng, 2), _unitary(rng, 2)
        obs, post = _random_angles(rng), _random_angles(rng)
        pre_t = u1 @ pre
        post_t = u2.conj().T @ _spin_up(*post)
        overlap = np.vdot(post_t, pre_t)
        if abs(overlap) ** 2 >= 0.25:
            break
    doc = {
        "name": "weak",
        "dim": 2,
        "pre": _encode_vector(pre),
        "timeline": [
            {"unitary": _encode_matrix(u1)},
            {"weak_measure": {"operator": {"spin": {"theta": obs[0], "phi": obs[1]}},
                              "strength": 0.05, "label": "w"}},
            {"unitary": _encode_matrix(u2)},
        ],
        "post": {"observable": {"spin": {"theta": post[0], "phi": post[1]}}, "select": 1.0},
        "trials": WEAK_TRIALS,
        "seed": int(rng.integers(2**31)),
    }
    weak = complex(np.vdot(post_t, _spin_matrix(*obs) @ pre_t) / overlap)
    return json.dumps(doc), weak


def pointer_inputs(seed: int) -> list[tuple]:
    rng = np.random.default_rng([_POINTER_TAG, seed])
    items = []
    for _ in range(POINTER_CYCLES):
        pre, post = _overlapping_angles(rng, 0.2)
        for n, span in POINTER_GRIDS:
            argv = ["pointer-sweep", "--pre", _spin_text(*pre), "--post", _spin_text(*post),
                    "--obs", "pauli-z", "--couplings", ",".join(repr(c) for c in POINTER_COUPLINGS),
                    "--n", str(n), "--span", str(span), "--format", "csv"]
            items.append(("sweep", argv, (pre, post)))
        items.append(("weak",) + _weak_document(rng))
    return items


def gaussian_pointer_shift(pre: np.ndarray, post: np.ndarray, eigenvalues, projectors,
                           coupling: float, sigma: float = 1.0) -> float:
    """Exact post-selected mean shift of a Gaussian pointer at any coupling.

    With c_j = <post|P_j|pre> and G_jk = exp(-λ²(a_j - a_k)²/8σ²) the shift is
    Σ c̄_j c_k G_jk λ(a_j + a_k)/2 / Σ c̄_j c_k G_jk.
    """
    a = np.asarray(eigenvalues, dtype=float)
    c = np.array([np.vdot(post, p @ pre) for p in projectors])
    weights = np.outer(c.conj(), c) * np.exp(-coupling**2 * (a[:, None] - a[None, :]) ** 2 / (8 * sigma**2))
    return float((np.sum(weights * coupling * (a[:, None] + a[None, :]) / 2) / np.sum(weights)).real)


_PAULI_Z_EIGENVALUES = (1.0, -1.0)
_PAULI_Z_PROJECTORS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def pointer_run(item: tuple) -> Any:
    return run_cli(item[1]) if item[0] == "sweep" else run_document(item[1])


def pointer_check(item: tuple, output: Any, reference: dict) -> None:
    if item[0] == "weak":
        report = json.loads(output)
        _raise_unless(report["passed"] is True, "weak scenario did not pass")
        value = complex(*report["weak"][0]["value"])
        _raise_unless(abs(value - item[2]) <= NUMERIC_TOL, f"weak value {value} vs {item[2]}")
        return
    code, text = output
    _raise_unless(code == 0, f"pointer-sweep exited {code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    _raise_unless(len(rows) == len(POINTER_COUPLINGS), f"pointer-sweep printed {len(rows)} rows")
    pre, post = (_spin_up(*angles) for angles in item[2])
    weak = np.vdot(post, _spin_matrix(0.0, 0.0) @ pre) / np.vdot(post, pre)
    for lam, row in zip(POINTER_COUPLINGS, rows):
        _raise_unless(float(row["coupling"]) == lam, f"coupling {row['coupling']} vs {lam}")
        exact = gaussian_pointer_shift(pre, post, _PAULI_Z_EIGENVALUES, _PAULI_Z_PROJECTORS, lam)
        shift = float(row["shift"])
        _raise_unless(abs(shift - exact) <= NUMERIC_TOL, f"shift at {lam}: {shift} vs {exact}")
        wv = float(row["weak_value_re"])
        _raise_unless(abs(wv - weak.real) <= NUMERIC_TOL, f"weak value {wv} vs {weak.real}")


# ---------------------------------------------------------------------------
# queries: many small library calls, one parameter point per operation


def query_inputs(seed: int) -> list[tuple[float, ...]]:
    rng = np.random.default_rng([_QUERY_TAG, seed])
    points = []
    while len(points) < QUERY_POINTS:
        (pre, post) = _overlapping_angles(rng, 0.1)
        points.append(pre + post + _random_angles(rng))
    return points


def query_run(point: tuple[float, ...]) -> tuple:
    pre = ts.spin_state(point[0], point[1])
    post = ts.spin_state(point[2], point[3])
    tsv = ts.TwoStateVector(pre, post)
    observables = (
        ("x", ts.pauli("x")),
        ("y", ts.pauli("y")),
        ("z", ts.pauli("z")),
        ("n", ts.spin_observable(point[4], point[5])),
    )
    rows = tuple(
        (ts.abl_probabilities(tsv, obs), ts.born_probabilities(pre, obs), ts.weak_value(tsv, obs.operator))
        for _, obs in observables
    )
    reality = ts.elements_of_reality(tsv, observables)
    audit = ts.product_rule_audit(tsv, observables[0][1].operator, observables[3][1].operator)
    return rows, reality, audit


_QUERY_AXES = ((math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0))  # x, y, z as (theta, phi)


def query_check(point: tuple[float, ...], output: tuple, reference: dict) -> None:
    rows, reality, audit = output
    pre, post = _spin_up(point[0], point[1]), _spin_up(point[2], point[3])
    overlap = np.vdot(post, pre)
    matrices = [_spin_matrix(*axis) for axis in _QUERY_AXES + ((point[4], point[5]),)]
    for (abl, born, weak), mat in zip(rows, matrices):
        amps = []
        for eig, p_abl, p_born in zip(abl.eigenvalues, abl.probabilities, born.probabilities):
            proj = (np.eye(2) + eig * mat) / 2
            amps.append(np.vdot(post, proj @ pre))
            _raise_unless(abs(p_born - np.vdot(pre, proj @ pre).real) <= NUMERIC_TOL, "born probability")
        expected = np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)
        _raise_unless(np.max(np.abs(np.array(abl.probabilities) - expected)) <= NUMERIC_TOL, "ABL probability")
        _raise_unless(abs(weak - np.vdot(post, mat @ pre) / overlap) <= NUMERIC_TOL, "weak value")
        _raise_unless(born.eigenvalues == abl.eigenvalues, "eigenvalue order")
    _raise_unless(len(reality.entries) == len(matrices), "elements-of-reality entries")
    product = np.vdot(post, matrices[0] @ matrices[3] @ pre) / overlap
    _raise_unless(abs(audit.ab_weak - product) <= NUMERIC_TOL, "product-rule weak value")


WORKLOADS = {
    "battery": Workload("battery", battery_inputs, run_cli, battery_check, warmup=0, block=BATTERY_BLOCK),
    "deep-timeline": Workload("deep-timeline", deep_inputs, deep_run, deep_check,
                              warmup=0, block=len(SHAPES)),
    "pointer": Workload("pointer", pointer_inputs, pointer_run, pointer_check,
                        warmup=len(POINTER_GRIDS) + 1, block=len(POINTER_GRIDS) + 1),
    "queries": Workload("queries", query_inputs, query_run, query_check, warmup=64, block=256),
}


def describe(name: str) -> dict:
    """The shape of a workload's inputs, for the result record."""
    if name == "battery":
        return {"command": "paper-checks", "trials": BATTERY_TRIALS, "seed_pool": list(BATTERY_POOL),
                "seeds_per_run": BATTERY_BLOCK}
    if name == "deep-timeline":
        return {"trials": DEEP_TRIALS, "pool_per_shape": DEEP_POOL, "shapes": [
            {"name": s.name, "d": s.dim, "measure_stages": s.stages, "branch_ranks": list(s.ranks),
             "collapse_paths": s.paths} for s in SHAPES]}
    if name == "pointer":
        return {"couplings": list(POINTER_COUPLINGS), "weak_trials": WEAK_TRIALS, "grids": [
            {"n": n, "span_sigmas": span, "joint_array_bytes": 2 * n * 16} for n, span in POINTER_GRIDS]}
    return {"points": QUERY_POINTS, "observables": ["pauli x", "pauli y", "pauli z", "random spin axis"]}
