#!/usr/bin/env python3
"""The sampling oracle: collapse-by-collapse simulation with discarding.

Nothing in the conditional rule needs to be taken on faith: prepare a state,
sample each intermediate measurement with ordinary single-measurement
weights, collapse, sample the final measurement, and throw away every run
whose final outcome is not the selected one.  The surviving relative
frequencies estimate the conditional probabilities.  Runs are seeded and
chunked, so every number below reproduces exactly.
"""

import numpy as np

from twostate import (
    MeasureStage,
    ScenarioSpec,
    TwoStateVector,
    abl_probabilities,
    born_probabilities,
    builtin,
    compare_to_abl,
    pauli,
    run_scenario,
    simulate,
    spin_observable,
    spin_state,
    state_projector_observable,
)

up_z = spin_state(0)
TRIALS = 200_000

print("=" * 70)
print("1. Sampled conditionals vs the analytic rule")
print("=" * 70)
probe = spin_observable(np.pi / 3)
stats = simulate(
    up_z, [MeasureStage(probe, "probe")], post=(pauli("z"), 1.0), trials=TRIALS, seed=11
)
predicted = abl_probabilities(TwoStateVector(up_z, up_z), probe)
print(f"trials {stats.trials}, accepted {stats.accepted} "
      f"({stats.acceptance.frequency:.4f} of runs survive the post-selection)")
for comp in compare_to_abl(stats, predicted, z=4).outcomes:
    print(
        f"   outcome {comp.eigenvalue:+.0f}: sampled {comp.frequency:.5f} ± "
        f"{comp.std_error:.5f}, predicted {comp.predicted:.5f}, z = {comp.z_score:+.2f}"
    )

print()
print("=" * 70)
print("2. The two regimes of the tilted-probe experiment, side by side")
print("=" * 70)
spec = builtin("spin-zz-xi", theta=np.pi / 3)
born = born_probabilities(spec.pre, spec.timeline[0].observable).probability(1.0)
probe = run_scenario(spec, trials=TRIALS, seed=14).stages[0]
up = probe.eigenvalues.index(1.0)
print("Nothing measured in between -> the unconditioned prediction applies:")
print(f"   hypothetical probe would show up with p = {born:.6f}")
print("Probe actually measured (builtin spin-zz-xi) -> the conditional rule applies:")
print(f"   sampled frequency {probe.frequencies[up]:.5f} ± {probe.std_errors[up]:.5f}")
print(f"   conditional prediction {probe.analytic[up]:.6f} "
      f"(|z| = {abs(probe.z_scores[up]):.2f})")
print(f"   distance from the unconditioned 0.75: "
      f"{abs(probe.frequencies[up] - born) / probe.std_errors[up]:.0f} standard errors")

print()
print("=" * 70)
print("3. Probing before vs after an intermediate measurement")
print("=" * 70)
print("With identical preparation and post-selection (both up-z), a probe of")
print("sy before an sx measurement behaves exactly like a probe after it:")
sy, sx = MeasureStage(pauli("y"), "probe"), MeasureStage(pauli("x"), "middle")
probes = []
for when, timeline, seed in (("before", (sy, sx), 17), ("after", (sx, sy), 18)):
    spec = ScenarioSpec(
        name=f"probe-{when}", dim=2, pre=up_z, timeline=timeline,
        post_observable=state_projector_observable(up_z), post_select=1.0,
    )
    report = run_scenario(spec, trials=TRIALS, seed=seed)
    probes.append(next(st for st in report.stages if st.label == "probe"))
    cells = ", ".join(
        f"sy={e:+.0f}: {f:.5f}±{se:.5f} (analytic {p:.2f})"
        for e, f, se, p in zip(probes[-1].eigenvalues, probes[-1].frequencies,
                               probes[-1].std_errors, probes[-1].analytic)
    )
    print(f"   {when:>6} sx:  {cells}; verdict {'pass' if report.passed else 'FAIL'}")
early, late = probes
gap = max(
    abs(fe - fl) / np.hypot(se, sl)
    for fe, fl, se, sl in zip(early.frequencies, late.frequencies, early.std_errors, late.std_errors)
)
print(f"   largest discrepancy: {gap:.2f} combined standard errors")

print()
print("=" * 70)
print("4. Erasing the prepared past with an entangling measurement")
print("=" * 70)
print("Retrodicting a past measurement from a later outcome is normally")
print("blocked by the preparation: it acts as a boundary condition.  Entangle")
print("the particle with an ancilla via a Bell-basis measurement first, leave")
print("the ancilla alone, and the particle's past becomes effectively unknown.")
print("Then, given a later sx = +1, the in-between sy retrodicts 50/50 in")
print("every Bell branch, whatever state was prepared:")
spec = builtin("erasure", theta=0.4, phi=2.0)
stats = simulate(
    spec.pre, list(spec.timeline), (spec.post_observable, spec.post_select),
    trials=TRIALS, seed=19,
)
for branch in (1.0, 2.0, 3.0, 4.0):
    cond = stats.conditional_given("sy", {"bell": branch})
    cells = ", ".join(
        f"sy={s.eigenvalue:+.0f}: {s.frequency:.4f}±{s.std_error:.4f}" for s in cond
    )
    print(f"   bell branch {branch:.0f}:  {cells}")
