#!/usr/bin/env python3
"""Declarative scenarios: describe an experiment once, run it twice.

A scenario document names a preparation, a timeline of unitaries and
measurements, and one post-selection outcome.  The same description drives
two independent engines: the analytic conditional rules (a forward pass of
the prepared state and a backward pass of the post-selection) and the seeded
Monte-Carlo sampler.  'both' mode runs the two
against each other and attaches a per-outcome verdict.
"""

import json

from twostate import builtin, builtin_names, load_scenario, run_scenario, to_document

print("=" * 70)
print("1. The builtin catalog")
print("=" * 70)
for name in builtin_names():
    spec = builtin(name)
    stages = ", ".join(
        type(e).__name__.replace("Stage", "").lower() for e in spec.timeline
    ) or "(empty timeline)"
    print(f"   {name:12} dim {spec.dim}  timeline: {stages}")

print()
print("=" * 70)
print("2. Analytic vs sampled, per outcome")
print("=" * 70)
report = run_scenario(builtin("tandem-mz"), mode="both", trials=200_000, seed=5)
print(f"scenario {report.scenario}: acceptance {report.acceptance_analytic:.6f} "
      f"analytic, {report.acceptance.frequency:.6f}±{report.acceptance.std_error:.6f} sampled")
for row in report.csv_rows():
    print(
        f"   stage {row['stage']}, outcome {row['eigenvalue']:+.0f}: "
        f"analytic {row['analytic']:.6f}, sampled {row['frequency']:.6f}±{row['se']:.6f}, "
        f"z = {row['z']:+.2f}, pass = {row['pass']}"
    )

print()
print("=" * 70)
print("3. Scenarios are plain JSON")
print("=" * 70)
document = """
{
  "name": "tilted-probe",
  "dim": 2,
  "pre": [1, 0],
  "timeline": [
    {"measure": {"observable": {"spin": {"theta": 1.0471975511965976, "phi": 0}},
                 "label": "probe"}}
  ],
  "post": {"observable": {"pauli": "z"}, "select": 1},
  "trials": 150000,
  "seed": 21
}
"""
spec = load_scenario(document)
report = run_scenario(spec, mode="both")
probe = report.stages[0]
print("loaded from text, the tilted-probe scenario reproduces the 0.9 value:")
for i, eig in enumerate(probe.eigenvalues):
    print(
        f"   probe = {eig:+.0f}: analytic {probe.analytic[i]:.6f}, "
        f"sampled {probe.frequencies[i]:.6f}±{probe.std_errors[i]:.6f}"
    )
print(f"   verdict: {'pass' if probe.passed else 'FAIL'}")

print()
print("round-tripping a builtin through its document form is lossless:")
doc = to_document(builtin("sharp-shanks"))
assert to_document(load_scenario(doc)) == doc
print(f"   sharp-shanks document: {len(json.dumps(doc))} bytes, reload equal: True")

print()
print("=" * 70)
print("4. Seeded runs are exactly reproducible")
print("=" * 70)
a = run_scenario(builtin("erasure"), mode="oracle", trials=50_000, seed=9)
b = run_scenario(builtin("erasure"), mode="oracle", trials=50_000, seed=9)
identical = a.stages[0].frequencies == b.stages[0].frequencies and (
    a.acceptance.count == b.acceptance.count
)
print(f"   two erasure runs, same seed: identical tallies = {identical}")
print(f"   accepted {a.acceptance.count} of {a.trials} trials both times")
