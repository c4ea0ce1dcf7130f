"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import twostate  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_a_synthetic_nested_trace():
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and b [50, 90]
    names = ["root", "a", "c", "b"]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [30, 20, 10, 40]
    assert spans.group_time(names, starts, ends, parents, {"a", "c"}) == 30
    assert spans.group_time(names, starts, ends, parents, {"c", "b"}) == 50
    assert spans.group_time(names, starts, ends, parents, {"root", "c"}) == 100


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed_and_differ_between_seeds(name):
    make = workloads.WORKLOADS[name].inputs
    assert repr(make(3)).encode() == repr(make(3)).encode()
    assert repr(make(3)) != repr(make(4))


def _runner(name):
    workload = workloads.WORKLOADS[name]
    return run.Runner(workload, workload.inputs(0), {"battery": {}, "deep-timeline": {}})


def test_a_tampered_report_digest_fails_the_operation():
    runner = _runner("battery")
    argv = runner.inputs[0]
    output = (0, "validation report\n")
    runner.reference["battery"][argv[-1]] = workloads.hashlib.sha256(output[1].encode()).hexdigest()
    runner.check(argv, output, raised=False)
    assert runner.failed == 0
    runner.reference["battery"][argv[-1]] = "0" * 64
    runner.check(argv, output, raised=False)
    assert runner.failed == 1


@pytest.mark.parametrize("row, delta", [(0, 1e-9), (-1, 1e-11)])  # the last row is the shift at coupling 10
def test_a_tampered_pointer_shift_fails_the_operation(row, delta):
    runner = _runner("pointer")
    item = runner.inputs[0]
    assert item[0] == "sweep" and item[1][item[1].index("--n") + 1] == "4096"
    (code, text), raised = runner.run(item)
    runner.check(item, (code, text), raised)
    assert runner.failed == 0
    header, *rows = text.splitlines()
    cells = rows[row].split(",")
    assert header.split(",")[1] == "shift"
    cells[1] = repr(float(cells[1]) + delta)
    rows[row] = ",".join(cells)
    tampered = "\n".join([header, *rows]) + "\n"
    runner.check(item, (code, tampered), raised=False)
    assert runner.failed == 1


def test_a_tampered_weak_value_fails_a_query():
    runner = _runner("queries")
    point = runner.inputs[0]
    output, raised = runner.run(point)
    runner.check(point, output, raised)
    assert runner.failed == 0
    rows, reality, audit = output
    abl, born, weak = rows[0]
    runner.check(point, (((abl, born, weak + 1e-9),) + rows[1:], reality, audit), raised=False)
    assert runner.failed == 1


def test_a_raising_operation_counts_as_failed():
    runner = _runner("queries")
    runner.check(runner.inputs[0], None, raised=True)
    assert (runner.failed, runner.attempted) == (1, 0)


def test_tracing_catches_imported_names_and_restores_them():
    original = twostate.checks.simulate
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert twostate.checks.simulate is twostate.montecarlo.simulate is twostate.simulate
        assert twostate.checks.simulate is not original
        twostate.run_scenario(twostate.builtin("spin-zz-xi"), mode="both", trials=2000)
    finally:
        restore()
    assert twostate.checks.simulate is original and twostate.scenarios.simulate is original
    assert "scenarios.run_scenario" in tracer.names
    assert tracer.trials == 2000
    run_index = tracer.names.index("scenarios.run_scenario")
    simulate_index = tracer.names.index("montecarlo.simulate")
    assert tracer.parents[simulate_index] == run_index
    metrics = spans.per_layer_metrics(tracer, 1, 0.0)
    assert metrics["montecarlo.simulate.calls"] == 1
    assert set(metrics) == set(spans.per_layer_units())


def test_closed_form_pointer_shift_is_the_eigenvalue_for_an_eigenstate():
    up = workloads._spin_up(0.0, 0.0)
    shift = workloads.gaussian_pointer_shift(up, up, workloads._PAULI_Z_EIGENVALUES,
                                             workloads._PAULI_Z_PROJECTORS, 3.0)
    assert shift == pytest.approx(3.0, abs=1e-15)
