"""The benchmark's output gates, run at a fraction of its cost.

``perfbench/workloads.py`` holds the gates the benchmark applies to every
operation: the sha256 of a 100,000-trial ``paper-checks`` report and the
oracle tallies of the deep-timeline scenarios, both recorded in
``perfbench/reference.json``, the closed-form Gaussian-pointer shift at every
coupling of a ``pointer-sweep``, and direct formulas for each query.  The
report pins elsewhere in the suite run at fewer trials, so a change that moves
only a 100,000-trial digest would pass them.  These tests import the
benchmark's own module unchanged and apply its gates to one battery seed, to
entry 0 of each deep-timeline shape, to one cycle of pointer inputs and to a
few query points.

The benchmark also bounds ``peak_rss_mb`` by 10%; the memory guard below
bounds the traced peak of single ``simulate`` calls so that a sampler that
holds more at once shows here first.
"""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from twostate.montecarlo import simulate
from twostate.scenarios import builtin, load_scenario

from test_montecarlo import BOUNDARY_TIMELINES, random_timeline

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def test_battery_report_digest_at_100000_trials():
    argv = WORKLOADS.battery_argv(0)
    assert argv == ["paper-checks", "--trials", "100000", "--seed", "0"]
    WORKLOADS.battery_check(argv, WORKLOADS.run_cli(argv), REFERENCE)


@pytest.mark.parametrize("shape", range(len(WORKLOADS.SHAPES)), ids=[s.name for s in WORKLOADS.SHAPES])
def test_deep_timeline_tallies(shape):
    item = (f"{shape}:0", WORKLOADS.scenario_document(shape, 0))
    WORKLOADS.deep_check(item, WORKLOADS.deep_run(item), REFERENCE)


POINTER_CYCLE = len(WORKLOADS.POINTER_GRIDS) + 1  # one sweep per grid, then the weak scenario


@pytest.mark.parametrize("index", range(POINTER_CYCLE),
                         ids=[f"sweep-n{n}" for n, _ in WORKLOADS.POINTER_GRIDS] + ["weak"])
def test_pointer_gate(index):
    # each sweep shift within 1e-12 of the closed-form Gaussian mean; the weak value within 1e-12
    item = WORKLOADS.pointer_inputs(0)[index]
    assert item[0] == ("weak" if index == POINTER_CYCLE - 1 else "sweep")
    WORKLOADS.pointer_check(item, WORKLOADS.pointer_run(item), REFERENCE)


def test_queries_gate():
    for point in WORKLOADS.query_inputs(0)[:16]:
        WORKLOADS.query_check(point, WORKLOADS.query_run(point), REFERENCE)


# tracemalloc peak of one simulate call, in MiB, measured with the per-stage
# path matrix and lexsort tally (rank2-d4-13: with per-chunk live tables past
# 4096 states; rank4-d8-16: with the table bound checked before a measurement
# is weighed); a call may hold at most 1 MiB more
SIMULATE_PEAK_MIB = {"rank1-d8": 2.26, "rank1-d4": 2.23, "qubit": 3.26, "degenerate-d8": 8.02, "erasure": 0.19,
                     "rank2-d4-13": 2.92, "rank4-d8-16": 10.02}


def _peak_mib(pre, stages, post, trials: int, seed: int) -> float:
    tracemalloc.start()
    try:
        simulate(pre, stages, post, trials, seed)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _simulate_peak_mib(spec, trials: int) -> float:
    return _peak_mib(spec.pre, list(spec.timeline), (spec.post_observable, spec.post_select), trials, spec.seed)


@pytest.mark.parametrize("shape", range(len(WORKLOADS.SHAPES)), ids=[s.name for s in WORKLOADS.SHAPES])
def test_deep_timeline_simulate_memory(shape):
    spec = load_scenario(WORKLOADS.scenario_document(shape, 0))
    name = WORKLOADS.SHAPES[shape].name
    assert _simulate_peak_mib(spec, WORKLOADS.DEEP_TRIALS) <= SIMULATE_PEAK_MIB[name] + 1.0


def test_erasure_simulate_memory():
    assert _simulate_peak_mib(builtin("erasure"), 100_000) <= SIMULATE_PEAK_MIB["erasure"] + 1.0


def test_boundary_timeline_simulate_memory():
    peak = _peak_mib(*random_timeline(*BOUNDARY_TIMELINES["rank2-d4-13"]), 12345, 5)
    assert peak <= SIMULATE_PEAK_MIB["rank2-d4-13"] + 1.0


def test_stopped_static_walk_simulate_memory():
    # 16 rank-4 stages on d=8: the call-level walk stops at the bound of
    # 32,768 states, and the chunks walk m15 and the post-selection on live tables
    peak = _peak_mib(*random_timeline(5, 8, 16, (4, 4)), 40_000, 3)
    assert peak <= SIMULATE_PEAK_MIB["rank4-d8-16"] + 1.0
