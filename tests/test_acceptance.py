"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the prints) in addition to pytest's own verdicts.
"""

import time

import numpy as np
import pytest

from twostate.algebra import basis_state, spin_observable
from twostate.checks import (
    check_certain_outcome_weak_value,
    check_erasure_retrodiction,
    check_oracle_agreement,
    check_pointer_strong,
    check_pointer_weak_convergence,
    check_recombination_interferometer,
    check_recombination_random,
    check_swap_symmetry,
)
from twostate.cli import main
from twostate.montecarlo import chunk_rng, derive_seed
from twostate.rules import born_probabilities, total_probability_check
from twostate.scenarios import builtin, run_scenario

TRIALS = 100_000
SEED = 7
UP_Z = basis_state(2, 0)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_spin_chain_identity():
    start = time.perf_counter()
    rng = chunk_rng(SEED, 2**40)
    worst = 0.0
    for _ in range(200):
        t_ab, t_bc = rng.uniform(0.05, np.pi - 0.05, size=2)
        rep = total_probability_check(
            UP_Z, spin_observable(t_ab), spin_observable(t_ab + t_bc)
        )
        recombined = sum(
            w * c.probability(1.0)
            for w, c in zip(rep.final_probabilities, rep.conditionals)
            if c is not None
        )
        worst = max(worst, abs(recombined - np.cos(t_ab / 2) ** 2))
    pin = total_probability_check(
        UP_Z, spin_observable(np.pi / 3), spin_observable(np.pi / 3 + np.pi / 2)
    )
    values = (
        pin.final_probabilities[0],
        pin.final_probabilities[1],
        pin.conditionals[0].probability(1.0),
        pin.conditionals[1].probability(1.0),
        pin.recombined.probability(1.0),
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-12
        and np.allclose(values, (0.5, 0.5, 0.75, 0.75, 0.75), atol=1e-12, rtol=0)
        and elapsed < 1.0
    )
    report(
        "1 spin-chain recombination identity",
        ok,
        f"max error {worst:.2e} over 200 pairs, pinned values {values}, {elapsed:.2f}s",
    )


def test_criterion_2_generalized_consistency():
    start = time.perf_counter()
    random_part = check_recombination_random(SEED + 1)
    mz_part = check_recombination_interferometer()
    elapsed = time.perf_counter() - start
    ok = random_part.status == "pass" and mz_part.status == "pass" and elapsed < 5.0
    report(
        "2 generalized total-probability consistency",
        ok,
        f"{random_part.summary}; {mz_part.summary}; {elapsed:.2f}s",
    )


def test_criterion_3_conditional_counterexample():
    start = time.perf_counter()
    spec = builtin("spin-zz-xi", theta=np.pi / 3)
    born = born_probabilities(spec.pre, spec.timeline[0].observable).probability(1.0)
    probe = run_scenario(spec, mode="both", trials=TRIALS, seed=derive_seed(SEED + 2, 1)).stages[0]
    up = probe.eigenvalues.index(1.0)
    frequency, se = probe.frequencies[up], probe.std_errors[up]
    z_born = (frequency - born) / se
    elapsed = time.perf_counter() - start
    ok = (
        abs(born - 0.75) <= 1e-12
        and abs(probe.analytic[up] - 0.9) <= 1e-12
        and abs(probe.z_scores[up]) <= 4
        and abs(z_born) >= 50
        and elapsed < 10.0
    )
    report(
        "3 conditional vs unconditioned counterexample",
        ok,
        f"0.75 vs 0.9; sampled {frequency:.5f}, |z| {abs(probe.z_scores[up]):.2f} / "
        f"{abs(z_born):.1f}, {elapsed:.2f}s",
    )


def test_criterion_4_swap_symmetry():
    result = check_swap_symmetry(SEED + 3)
    report("4 swap symmetry and weak-value conjugation", result.status == "pass", result.summary)


def test_criterion_5_certainty_forces_weak_value():
    result = check_certain_outcome_weak_value(SEED + 4)
    report("5 certain outcome forces the weak value", result.status == "pass", result.summary)


def test_criterion_6_product_rule_failure():
    rep = run_scenario(builtin("reality-pair"), mode="analytic")
    entries = {e.label: e for e in rep.reality.entries}
    audit = dict(rep.product_audits)["sz*sx"]
    product_of_weaks = audit.a_weak * audit.b_weak
    ok = (
        entries["sz"].certain
        and entries["sx"].certain
        and entries["sz"].probability == 1.0
        and entries["sx"].probability == 1.0
        and audit.ab_weak == pytest.approx(-1.0, abs=1e-12)
        and product_of_weaks == pytest.approx(1.0, abs=1e-12)
        and audit.failed
    )
    report(
        "6 product-rule failure for joint certainties",
        ok,
        f"sz p={entries['sz'].probability}, sx p={entries['sx'].probability}, "
        f"(ab)_w={audit.ab_weak.real:.1f} vs a_w*b_w={product_of_weaks.real:.1f}",
    )


def test_criterion_7_oracle_agreement():
    start = time.perf_counter()
    result = check_oracle_agreement(SEED + 5, TRIALS, z=4.0)
    elapsed = time.perf_counter() - start
    ok = result.status == "pass" and elapsed < 60.0
    report("7 oracle agreement on random scenarios", ok, f"{result.summary}; {elapsed:.2f}s")


def test_criterion_8_erasure_retrodiction():
    result = check_erasure_retrodiction(SEED + 6, TRIALS, z=4.0)
    report("8 erased-past retrodiction symmetry", result.status == "pass", result.summary)


def test_criterion_9_pointer_model():
    strong = check_pointer_strong(SEED + 7, z=4.0)
    weak = check_pointer_weak_convergence()
    ok = strong.status == "pass" and weak.status == "pass"
    report("9 pointer model strong/weak regimes", ok, f"{strong.summary}; {weak.summary}")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    first = tmp_path / "run1.txt"
    second = tmp_path / "run2.txt"
    code1 = main(["paper-checks", "--seed", "7", "--trials", str(TRIALS), "--out", str(first)])
    code2 = main(["paper-checks", "--seed", "7", "--trials", str(TRIALS), "--out", str(second)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    report(
        "10 byte-identical validation reports",
        ok,
        f"exit codes {code1}/{code2}, {len(first.read_bytes())} bytes each",
    )
