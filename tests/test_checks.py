"""Validation battery: statuses, low-power degradation, determinism."""

import hashlib
import json

import numpy as np
import pytest

from twostate import checks
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
from twostate.montecarlo import derive_seed


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


def test_counterexample_separation_required_at_scale():
    result = check_conditional_counterexample(3, trials=100_000)
    assert result.status == "pass"
    assert "vs unconditioned" in result.summary


def test_builtin_scenarios_starvation_warns():
    # tandem-mz accepts ~8.6% of runs; 1000 trials sits under the floor
    result = check_builtin_scenarios(7, trials=1_000)
    assert result.status == "warn"
    assert "tandem-mz" in result.summary


def test_product_rule_row_is_deterministic():
    assert check_product_rule_failure() == check_product_rule_failure()


def test_report_text_is_stable():
    a = run_paper_checks(trials=5_000, seed=11).to_text()
    b = run_paper_checks(trials=5_000, seed=11).to_text()
    assert a == b
    assert a.endswith("overall: PASS\n")


def test_report_text_digest_is_pinned():
    # byte-level pin of the whole battery report; any change to a number,
    # a verdict or the rendering moves it
    text = run_paper_checks(trials=20_000, seed=7).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "584f608a5154ffa82158ce7e9c65f210dc4c5e34dbae1b897a6ae061da680bed"
    )


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
