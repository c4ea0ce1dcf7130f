"""Validation battery: statuses, low-power degradation, determinism."""

import dataclasses
import hashlib
import json
import types

import numpy as np
import pytest

from twostate import checks, scenarios
from twostate.checks import (
    check_builtin_scenarios,
    check_certain_outcome_weak_value,
    check_conditional_counterexample,
    check_erasure_retrodiction,
    check_oracle_agreement,
    check_product_rule_failure,
    check_recombination_random,
    check_spin_chain_recombination,
    check_swap_symmetry,
    run_paper_checks,
)
from twostate.errors import InsufficientAcceptedTrialsError
from twostate.montecarlo import OutcomeComparison, Verdict, derive_seed


def test_all_rows_pass_at_moderate_trials():
    report = run_paper_checks(trials=20_000, seed=7)
    assert report.passed
    assert {r.status for r in report.results} == {"pass"}


def test_low_trials_warn_instead_of_fail():
    report = run_paper_checks(trials=1_000, seed=7)
    assert report.passed  # warns are not failures
    statuses = {r.name: r.status for r in report.results}
    assert statuses["conditional-vs-unconditioned"] == "warn"
    assert "fail" not in statuses.values()


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("trials", [1, 2, 5, 10, 50, 100, 1000])
def test_statistical_rows_pass_or_warn_at_any_budget(trials, seed):
    # the trial-dependent rows, with the sub-seeds run_paper_checks gives
    # them: a budget below an accepted-count floor warns, never fails or raises
    rows = (
        check_conditional_counterexample(derive_seed(seed, 2), trials),
        check_oracle_agreement(derive_seed(seed, 5), trials),
        check_erasure_retrodiction(derive_seed(seed, 6), trials),
        check_builtin_scenarios(derive_seed(seed, 8), trials),
    )
    assert {r.name: r.status for r in rows if r.status not in ("pass", "warn")} == {}


@pytest.mark.pin
def test_statistical_rows_at_every_budget_are_pinned():
    # byte-level pin of the 84 results above, WARN summaries included; the
    # battery digests run only where every row passes
    rows = [
        dataclasses.astuple(row)
        for seed in (0, 7, 2**64 - 1)
        for trials in (1, 2, 5, 10, 50, 100, 1000)
        for row in (
            check_conditional_counterexample(derive_seed(seed, 2), trials),
            check_oracle_agreement(derive_seed(seed, 5), trials),
            check_erasure_retrodiction(derive_seed(seed, 6), trials),
            check_builtin_scenarios(derive_seed(seed, 8), trials),
        )
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "4ce116e4a9a8bde7b11ac22538c8a5bb4b704d2406091b09d1e4debb20e9b867"
    )


def test_erasure_starvation_wins_over_a_failing_branch():
    # a branch above the floor exceeds z, yet a starved branch makes the row warn
    assert check_erasure_retrodiction(derive_seed(2**64 - 1, 6), 1000) == checks.CheckResult(
        "erasure-retrodiction", "warn",
        "35 branch(es) below the accepted-trials floor at trials=1000; max |z| = 4.61")


def test_counterexample_separation_required_at_scale():
    result = check_conditional_counterexample(3, trials=100_000)
    assert result.status == "pass"
    assert "vs unconditioned" in result.summary


def test_builtin_scenarios_starvation_warns():
    # tandem-mz accepts ~8.6% of runs; 1000 trials sits under the floor
    result = check_builtin_scenarios(7, trials=1_000)
    assert result.status == "warn"
    assert "tandem-mz" in result.summary


def test_oracle_agreement_fails_at_a_seed_the_battery_size_allows():
    # README's example: 50 z-tests at z = 4 fail a correct build at about one seed in 100
    assert check_oracle_agreement(derive_seed(1047, 5), 100_000) == checks.CheckResult(
        "oracle-agreement", "fail", "scenario 17: |z| = 4.05 exceeds 4.0")


@pytest.mark.parametrize("failing, starved", [(0, 1), (1, 0)])
def test_builtin_scenarios_failure_wins_over_starvation(monkeypatch, failing, starved):
    names = checks.builtin_names()
    def stub(spec, **kwargs):
        if spec.name == names[starved]:
            raise InsufficientAcceptedTrialsError("below the floor")
        return types.SimpleNamespace(passed=spec.name != names[failing])
    monkeypatch.setattr(checks, "run_scenario", stub)
    assert check_builtin_scenarios(7, 100_000) == checks.CheckResult(
        "builtin-scenarios", "fail", f"failing scenario(s): {names[failing]}")


def _gate(z_score):
    """A one-entry verdict at z = 4 whose two outcomes have |z| = ``z_score``."""
    return Verdict((tuple(
        OutcomeComparison(eig, 0.5, 0.5, 0.05, sign * z_score, z_score <= 4) for eig, sign in ((1.0, 1), (-1.0, -1))
    ),))


def test_oracle_agreement_failure_wins_over_starvation(monkeypatch):
    # scenario 0 starves, 2 and 3 fail: the row names 2 with its own |z|
    runs = iter(range(50))
    def simulate(*args):
        run = next(runs)
        if run == 0:
            raise InsufficientAcceptedTrialsError("below the floor")
        return run
    monkeypatch.setattr(checks, "simulate", simulate)
    monkeypatch.setattr(checks, "compare_to_abl", lambda run, predicted, z: _gate({2: 5.0, 3: 7.0}.get(run, 1.0)))
    assert check_oracle_agreement(7, 100_000) == checks.CheckResult(
        "oracle-agreement", "fail", "scenario 2: |z| = 5.00 exceeds 4.0")


@pytest.mark.parametrize("row, through_scenario, direct", [
    (check_conditional_counterexample, 1, 0),
    (check_erasure_retrodiction, 20, 0),
    (check_oracle_agreement, 0, 50),
])
def test_scenario_rows_sample_through_the_scenario_entry_point(monkeypatch, row, through_scenario, direct):
    # builtin scenarios run through scenarios._sampled; oracle-agreement's random
    # triples are no scenarios and check the conditional rule at their own call
    calls = {checks: 0, scenarios: 0}
    for module in calls:
        def counted(*args, _module=module, _real=module.simulate):
            calls[_module] += 1
            return _real(*args)
        monkeypatch.setattr(module, "simulate", counted)
    row(7, 2_000)
    assert calls == {checks: direct, scenarios: through_scenario}


def test_erasure_warns_with_a_starved_and_a_failing_branch(monkeypatch):
    # the first branch compared starves and the second fails
    calls, real = iter(range(80)), checks.compare_counts
    def compare_counts(*args):
        call = next(calls)
        if call == 0:
            raise InsufficientAcceptedTrialsError("below the floor")
        return _gate(5.0).outcomes if call == 1 else real(*args)
    monkeypatch.setattr(checks, "compare_counts", compare_counts)
    assert check_erasure_retrodiction(derive_seed(7, 6), 20_000) == checks.CheckResult(
        "erasure-retrodiction", "warn",
        "1 branch(es) below the accepted-trials floor at trials=20000; max |z| = 5.00")


def test_product_rule_row_is_deterministic():
    assert check_product_rule_failure() == check_product_rule_failure()


def test_report_text_is_stable():
    a = run_paper_checks(trials=5_000, seed=11).to_text()
    b = run_paper_checks(trials=5_000, seed=11).to_text()
    assert a == b
    assert a.endswith("overall: PASS\n")


@pytest.mark.pin
def test_report_text_digest_is_pinned():
    # byte-level pin of the whole battery report; any change to a number,
    # a verdict or the rendering moves it
    text = run_paper_checks(trials=20_000, seed=7).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "584f608a5154ffa82158ce7e9c65f210dc4c5e34dbae1b897a6ae061da680bed"
    )


@pytest.mark.pin
def test_report_json_digest_is_pinned():
    # the same pin for the structured report that --format json prints
    doc = run_paper_checks(trials=20_000, seed=7).to_dict()
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "6db2d69ecf7bca3b87fdfd839b741934a52ffab4dd6dafa0909471661fc5c4a2"
    )


def test_numpy_integer_seed_derives_the_sub_seeds():
    report = run_paper_checks(trials=1000, seed=np.int64(3))
    assert report.to_dict() == run_paper_checks(trials=1000, seed=3).to_dict()
    assert type(report.seed) is int


def test_numpy_integer_trials_report_serializes():
    report = run_paper_checks(trials=np.int64(1000), seed=3)
    assert type(report.trials) is int
    assert json.dumps(report.to_dict()) == json.dumps(run_paper_checks(trials=1000, seed=3).to_dict())


@pytest.mark.parametrize("z", [float("nan"), float("inf"), -1.0, 0, True, "4"])
def test_z_must_be_finite_and_positive(z):
    # nan or -1 used to run the battery and turn every statistical row to FAIL
    with pytest.raises(ValueError) as info:
        run_paper_checks(trials=1000, seed=3, z=z)
    assert str(info.value) == f"z must be a finite number > 0, got {z!r}"


def test_a_row_called_directly_refuses_a_bad_z():
    # the erasure row compares through compare_counts alone; with nan it warned
    with pytest.raises(ValueError, match="z must be a finite number > 0, got nan"):
        check_erasure_retrodiction(3, 1000, z=float("nan"))


@pytest.mark.parametrize("field, value", [("seed", True), ("seed", 2.5), ("trials", True), ("trials", 2.5)])
def test_non_integer_trials_or_seed_is_named_as_given(field, value):
    # a bool seed ran as 1 and reported seed=True; a float seed died naming a derived sub-seed
    with pytest.raises(ValueError) as info:
        run_paper_checks(**{"trials": 1000, "seed": 3, field: value})
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


# summary strings of the four analytic sweeps, recorded before they were
# evaluated on stacked arrays; they do not depend on the trial budget
ANALYTIC_ROWS = {
    0: (
        "max recombination error 1.110e-15 over 200 angle pairs; at (pi/3, pi/2): final 0.5/0.5, conditional up 0.75/0.75, total 0.75",
        "max recombination error 6.661e-16 over 1000 random triples (tol 1e-10)",
        "max conditional deviation 3.331e-16, max weak-value conjugation deviation 4.441e-15 over 500 qubit/qutrit cases (tol 1e-12)",
        "max |weak value - certain eigenvalue| = 9.022e-15 over 500 scenarios (tol 1e-9)",
    ),
    7: (
        "max recombination error 1.110e-15 over 200 angle pairs; at (pi/3, pi/2): final 0.5/0.5, conditional up 0.75/0.75, total 0.75",
        "max recombination error 4.441e-16 over 1000 random triples (tol 1e-10)",
        "max conditional deviation 3.331e-16, max weak-value conjugation deviation 3.662e-15 over 500 qubit/qutrit cases (tol 1e-12)",
        "max |weak value - certain eigenvalue| = 1.348e-14 over 500 scenarios (tol 1e-9)",
    ),
    15: (
        "max recombination error 1.221e-15 over 200 angle pairs; at (pi/3, pi/2): final 0.5/0.5, conditional up 0.75/0.75, total 0.75",
        "max recombination error 4.441e-16 over 1000 random triples (tol 1e-10)",
        "max conditional deviation 4.441e-16, max weak-value conjugation deviation 3.972e-15 over 500 qubit/qutrit cases (tol 1e-12)",
        "max |weak value - certain eigenvalue| = 1.587e-14 over 500 scenarios (tol 1e-9)",
    ),
    2**64 - 1: (
        "max recombination error 9.992e-16 over 200 angle pairs; at (pi/3, pi/2): final 0.5/0.5, conditional up 0.75/0.75, total 0.75",
        "max recombination error 3.331e-16 over 1000 random triples (tol 1e-10)",
        "max conditional deviation 3.331e-16, max weak-value conjugation deviation 4.094e-15 over 500 qubit/qutrit cases (tol 1e-12)",
        "max |weak value - certain eigenvalue| = 1.035e-14 over 500 scenarios (tol 1e-9)",
    ),
}


@pytest.mark.pin
@pytest.mark.parametrize("seed", sorted(ANALYTIC_ROWS))
def test_analytic_rows_are_pinned(seed):
    rows = (
        check_spin_chain_recombination(seed),
        check_recombination_random(derive_seed(seed, 1)),
        check_swap_symmetry(derive_seed(seed, 3)),
        check_certain_outcome_weak_value(derive_seed(seed, 4)),
    )
    assert {r.status for r in rows} == {"pass"}
    assert tuple(r.summary for r in rows) == ANALYTIC_ROWS[seed]


def test_analytic_rows_are_unchanged_through_the_scalar_fallback(monkeypatch):
    # every stacked observable rejected: each case goes through the scalar
    # constructors and rules, which must give the same rows
    monkeypatch.setattr(checks, "_spectra_ok", lambda eigs, projs: np.zeros(projs.shape[:-3], dtype=bool))
    seed = 7
    rows = (
        check_spin_chain_recombination(seed),
        check_recombination_random(derive_seed(seed, 1)),
        check_swap_symmetry(derive_seed(seed, 3)),
        check_certain_outcome_weak_value(derive_seed(seed, 4)),
    )
    assert tuple(r.summary for r in rows) == ANALYTIC_ROWS[seed]


class TestScalarFallbacks:
    """Each sweep's scalar path, reached by patching the stacked helper its row calls (seed 7's sub-seeds)."""

    @staticmethod
    def _counted(monkeypatch, name):
        calls, real = [], getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda *args: calls.append(args) or real(*args))
        return calls

    @staticmethod
    def _first_row_suspect(monkeypatch):
        real = checks._recombination
        def patched(*args):
            r = real(*args)
            return r._replace(suspect=r.suspect | (np.arange(r.suspect.size) == 0))
        monkeypatch.setattr(checks, "_recombination", patched)

    def test_spin_chain_rebuilds_a_suspect_row_through_the_scalar_rule(self, monkeypatch):
        unpatched = check_spin_chain_recombination(7)
        self._first_row_suspect(monkeypatch)
        calls = self._counted(monkeypatch, "total_probability_check")
        assert check_spin_chain_recombination(7) == unpatched
        assert len(calls) == 2  # the suspect row, then the (pi/3, pi/2) pin

    def test_recombination_random_returns_the_scalar_rules_fail(self, monkeypatch):
        # the scalar rule passes every valid triple, so its FAIL is reached only with the rule itself patched
        real = checks.total_probability_check
        self._first_row_suspect(monkeypatch)
        monkeypatch.setattr(checks, "total_probability_check",
                            lambda *args: dataclasses.replace(real(*args), max_abs_error=2e-10, passed=False))
        assert check_recombination_random(derive_seed(7, 1)) == checks.CheckResult(
            "recombination-random-qubits", "fail", "recombination error 2.000e-10 exceeds 1e-10")

    def test_swap_symmetry_runs_the_scalar_rules_where_the_stack_refuses(self, monkeypatch):
        unpatched = check_swap_symmetry(derive_seed(7, 3))
        real = checks._weak_values
        def first_refused(post, matrices, pre):
            weak, ok = real(post, matrices, pre)
            return weak, ok & (np.arange(ok.size) > 0)
        monkeypatch.setattr(checks, "_weak_values", first_refused)
        calls = self._counted(monkeypatch, "weak_value")
        assert check_swap_symmetry(derive_seed(7, 3)) == unpatched
        assert len(calls) == 2 * 16  # both orders of each stack's first case: 500 cases in 8 stacks, 2 dimensions

    def test_certain_outcome_merges_an_irregular_draw_through_from_hermitian(self, monkeypatch):
        unpatched = check_certain_outcome_weak_value(derive_seed(7, 4))
        real, calls = checks._hermitian_branches, []
        def fifth_irregular(mat):
            calls.append(mat)
            eigs, projs, regular = real(mat)
            return eigs, projs, regular and len(calls) != 5
        monkeypatch.setattr(checks, "_hermitian_branches", fifth_irregular)
        assert check_certain_outcome_weak_value(derive_seed(7, 4)) == unpatched
        assert len(calls) >= 500

    def test_certain_outcome_skips_a_kind_2_draw_of_fewer_than_3_branches(self, monkeypatch):
        # the third draw is kind 2; a matrix with a doubled eigenvalue merges to 2 branches and is drawn again
        real, drawn, skipped = checks._random_hermitian, [], []
        def degenerate_third(rng, dim):
            drawn.append(real(rng, dim))
            return np.diag([1.0, 1.0] + [2.0] * (dim - 2)) if len(drawn) == 3 else drawn[-1]
        real_scenario = checks._certain_scenario
        def watched(rng, kind):
            case = real_scenario(rng, kind)
            if case is None:
                skipped.append(kind)
            return case
        monkeypatch.setattr(checks, "_random_hermitian", degenerate_third)
        monkeypatch.setattr(checks, "_certain_scenario", watched)
        result = check_certain_outcome_weak_value(derive_seed(7, 4))
        assert skipped == [2] and len(drawn) == 501
        assert result.status == "pass"
        assert result.summary.endswith(" over 500 scenarios (tol 1e-9)")

    def test_certain_outcome_fails_a_scenario_that_is_not_certain(self, monkeypatch):
        real = checks._abl_rows
        def first_halved(posts, projs, pre):
            probs, ok = real(posts, projs, pre)
            return probs * np.where(np.arange(len(probs)) == 0, 0.5, 1.0)[:, None, None], ok
        monkeypatch.setattr(checks, "_abl_rows", first_halved)
        result = check_certain_outcome_weak_value(derive_seed(7, 4))
        assert (result.name, result.status) == ("certain-outcome-weak-value", "fail")
        p = float(result.summary.removeprefix("constructed scenario is not certain: p = "))
        assert abs(p - 0.5) <= 1e-12
