"""End-to-end validation battery.

Every quantitative claim the library is built around is checked here, each as
one named, independently runnable check:

* the three-spin-chain recombination identity and its randomized version,
* the generalized total-probability consistency over random triples and the
  balanced-interferometer instance,
* the counterexample where the conditional rule departs from the
  unconditioned single-measurement prediction (0.9 vs 0.75 at θ = π/3),
* swap symmetry of conditionals and conjugation of weak values,
* certain outcomes forcing the matching weak value,
* the product-rule failure for jointly certain outcomes,
* Monte-Carlo agreement with the conditional rule across random scenarios,
* erased-past retrodiction symmetry in every entangling-measurement branch,
* the pointer model in its projective and weak regimes.

A report renders deterministically for a fixed (trials, seed): two runs are
byte-identical.  Statistical checks hold no z arithmetic of their own: every
sampled distribution goes through ``montecarlo.compare_counts`` (directly, via
``compare_to_abl`` or via ``run_scenario``), and a check degrades to "warn"
when one of them has fewer than ``MIN_ACCEPTED`` accepted trials (per Bell
branch for erasure) or when every trial is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    SpectralObservable,
    StateVector,
    basis_state,
    beamsplitter,
    detector_basis,
    pauli,
    spin_observable,
    spin_state,
    state_projector_observable,
    which_path,
)
from .errors import InsufficientAcceptedTrialsError
from .montecarlo import (
    MeasureStage,
    chunk_rng,
    compare_counts,
    compare_to_abl,
    derive_seed,
    simulate,
)
from .pointer import CouplingSpec, make_gaussian_pointer, post_selected_mean_shift, couple, post_selected_pointer
from .rules import (
    OutcomeDistribution,
    TwoStateVector,
    abl_probabilities,
    born_probabilities,
    total_probability_check,
    weak_value,
)
from .scenarios import ScenarioSpec, _record, builtin, builtin_names, run_scenario

SEED_STREAM_CHUNK = 2**48  # far above any simulate() chunk index


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "warn"
    summary: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _seed_stream(seed: int) -> np.random.Generator:
    """Master stream for sub-seeds and randomized inputs; disjoint from
    the per-chunk simulation streams by construction."""
    return chunk_rng(seed, SEED_STREAM_CHUNK)


def _random_state(rng: np.random.Generator, dim: int) -> StateVector:
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _random_observable(rng: np.random.Generator, dim: int) -> SpectralObservable:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return SpectralObservable.from_hermitian((m + m.conj().T) / 2)


def check_spin_chain_recombination(seed: int, samples: int = 200) -> CheckResult:
    """Final-branch-weighted conditionals recombine to cos²(θ_ab/2)."""
    rng = _seed_stream(seed)
    up_a = basis_state(2, 0)
    worst = 0.0
    for _ in range(samples):
        t_ab, t_bc = rng.uniform(0.05, np.pi - 0.05, size=2)
        report = total_probability_check(
            up_a, spin_observable(t_ab), spin_observable(t_ab + t_bc)
        )
        worst = max(worst, abs(report.recombined.probability(1.0) - np.cos(t_ab / 2) ** 2))
        closed_form_1f = (
            np.cos(t_ab / 2) ** 2 * np.cos(t_bc / 2) ** 2
            + np.sin(t_ab / 2) ** 2 * np.sin(t_bc / 2) ** 2
        )
        worst = max(worst, abs(report.final_probabilities[0] - closed_form_1f))

    pin = total_probability_check(
        up_a, spin_observable(np.pi / 3), spin_observable(np.pi / 3 + np.pi / 2)
    )
    pin_vals = (
        pin.final_probabilities[0],
        pin.final_probabilities[1],
        pin.conditionals[0].probability(1.0),
        pin.conditionals[1].probability(1.0),
        pin.recombined.probability(1.0),
    )
    pin_ok = np.allclose(pin_vals, (0.5, 0.5, 0.75, 0.75, 0.75), atol=1e-12, rtol=0)
    ok = worst <= 1e-12 and bool(pin_ok)
    return CheckResult(
        "spin-chain-recombination",
        _status(ok),
        f"max recombination error {worst:.3e} over {samples} angle pairs; "
        f"at (pi/3, pi/2): final {_fmt(pin_vals[0])}/{_fmt(pin_vals[1])}, "
        f"conditional up {_fmt(pin_vals[2])}/{_fmt(pin_vals[3])}, total {_fmt(pin_vals[4])}",
    )


def check_recombination_random(seed: int, n: int = 1000) -> CheckResult:
    """Generalized consistency for random qubit (pre, middle, final) triples."""
    rng = _seed_stream(seed)
    worst = 0.0
    for _ in range(n):
        pre = _random_state(rng, 2)
        mid = _random_observable(rng, 2)
        fin = _random_observable(rng, 2)
        report = total_probability_check(pre, mid, fin)
        worst = max(worst, report.max_abs_error)
        if not report.passed:
            return CheckResult(
                "recombination-random-qubits",
                "fail",
                f"recombination error {report.max_abs_error:.3e} exceeds 1e-10",
            )
    return CheckResult(
        "recombination-random-qubits",
        "pass",
        f"max recombination error {worst:.3e} over {n} random triples (tol 1e-10)",
    )


def check_recombination_interferometer() -> CheckResult:
    """Balanced-interferometer instance of the recombination identity."""
    pre = StateVector(np.array([1, 1j]) / np.sqrt(2))  # state just after the input splitter
    final = detector_basis(beamsplitter())
    report = total_probability_check(pre, which_path(), final)
    d1, d2 = report.final_probabilities
    p_u = report.recombined.probability(1.0)
    ok = (
        report.passed
        and abs(d1 - 0.5) <= 1e-12
        and abs(d2 - 0.5) <= 1e-12
        and abs(p_u - 0.5) <= 1e-12
    )
    return CheckResult(
        "recombination-mach-zehnder",
        _status(ok),
        f"detector weights {_fmt(d1)}/{_fmt(d2)} with the path measured, "
        f"recombined path-u probability {_fmt(p_u)}, "
        f"max error {report.max_abs_error:.3e}",
    )


def check_conditional_counterexample(seed: int, trials: int, z: float = 4.0) -> CheckResult:
    """Conditioning on the later outcome changes the prediction: 0.9 vs 0.75.

    Runs the ``spin-zz-xi`` scenario at θ = π/3 with seed
    ``derive_seed(seed, 1)`` and compares the probe's +1 row, found by
    eigenvalue, with both predictions.
    """
    spec = builtin("spin-zz-xi", theta=np.pi / 3)
    probe = spec.timeline[0].observable
    predictions = (
        abl_probabilities(TwoStateVector(spec.pre, spec.pre), probe),
        born_probabilities(spec.pre, probe),
    )
    abl, born = (dist.probability(1.0) for dist in predictions)
    exact_ok = abs(born - 0.75) <= 1e-12 and abs(abl - 0.9) <= 1e-12
    summary = f"unconditioned {_fmt(born)} vs conditional {_fmt(abl)}; "
    try:
        stats = simulate(
            spec.pre, spec.timeline, (spec.post_observable, spec.post_select), trials, derive_seed(seed, 1)
        )
        vs_abl, vs_born = (
            next(o for o in compare_to_abl(stats, dist, z=z).outcomes if abs(o.eigenvalue - 1.0) <= 1e-12)
            for dist in predictions
        )
    except InsufficientAcceptedTrialsError as exc:
        status = "warn" if exact_ok else "fail"
        return CheckResult("conditional-vs-unconditioned", status, summary + f"{exc} at trials={trials}")
    agree_ok = vs_abl.passed
    separated = abs(vs_born.z_score) >= 50
    summary += (
        f"sampled {vs_abl.frequency:.6f}±{vs_abl.std_error:.6f} "
        f"({stats.accepted} accepted), |z| vs conditional {abs(vs_abl.z_score):.2f}, "
        f"vs unconditioned {abs(vs_born.z_score):.1f}"
    )
    if exact_ok and agree_ok and not separated and stats.accepted < 20_000:
        # the 50-SE separation needs ~1e4 accepted trials of statistical power
        return CheckResult(
            "conditional-vs-unconditioned", "warn", summary + "; low power for 50-SE separation"
        )
    return CheckResult(
        "conditional-vs-unconditioned", _status(exact_ok and agree_ok and separated), summary
    )


def check_swap_symmetry(seed: int, n: int = 500) -> CheckResult:
    """Conditionals are invariant, and weak values conjugate, under pre/post swap."""
    rng = _seed_stream(seed)
    worst_abl = worst_weak = 0.0
    for i in range(n):
        dim = 2 if i % 2 == 0 else 3
        pre = _random_state(rng, dim)
        post = _random_state(rng, dim)
        while abs(np.vdot(post.amps, pre.amps)) < 0.05:
            post = _random_state(rng, dim)
        tsv = TwoStateVector(pre, post)
        obs = _random_observable(rng, dim)
        forward = np.asarray(abl_probabilities(tsv, obs).probabilities)
        backward = np.asarray(abl_probabilities(tsv.swapped(), obs).probabilities)
        worst_abl = max(worst_abl, float(np.max(np.abs(forward - backward))))
        op = obs.operator
        worst_weak = max(
            worst_weak,
            abs(weak_value(tsv.swapped(), op) - np.conj(weak_value(tsv, op))),
        )
    ok = worst_abl <= 1e-12 and worst_weak <= 1e-12
    return CheckResult(
        "swap-symmetry",
        _status(ok),
        f"max conditional deviation {worst_abl:.3e}, max weak-value conjugation "
        f"deviation {worst_weak:.3e} over {n} qubit/qutrit cases (tol 1e-12)",
    )


def check_certain_outcome_weak_value(seed: int, n: int = 500) -> CheckResult:
    """An outcome certain under the conditional rule pins the weak value."""
    rng = _seed_stream(seed)
    worst = 0.0
    count = 0
    while count < n:
        kind = count % 3
        dim = int(rng.integers(3 if kind == 2 else 2, 6))
        obs = _random_observable(rng, dim)
        k = obs.num_branches
        if kind == 2 and k < 3:
            continue
        branch = int(rng.integers(0, k))
        if kind == 0:  # prepared inside an eigenspace
            pre = StateVector.normalized(obs.projectors[branch] @ _random_state(rng, dim).amps)
            post = _random_state(rng, dim)
            while abs(np.vdot(post.amps, pre.amps)) < 0.1:
                post = _random_state(rng, dim)
        elif kind == 1:  # post-selected inside an eigenspace
            post = StateVector.normalized(obs.projectors[branch] @ _random_state(rng, dim).amps)
            pre = _random_state(rng, dim)
            while abs(np.vdot(post.amps, pre.amps)) < 0.1:
                pre = _random_state(rng, dim)
        else:  # neither boundary state is an eigenstate, yet one branch is certain
            others = [j for j in range(k) if j != branch]
            j_pre, j_post = rng.choice(others, size=2, replace=False)
            shared = StateVector.normalized(
                obs.projectors[branch] @ _random_state(rng, dim).amps
            )
            pre = StateVector.normalized(
                0.8 * shared.amps
                + 0.6 * StateVector.normalized(obs.projectors[j_pre] @ _random_state(rng, dim).amps).amps
            )
            post = StateVector.normalized(
                0.8 * shared.amps
                + 0.6 * StateVector.normalized(obs.projectors[j_post] @ _random_state(rng, dim).amps).amps
            )
        tsv = TwoStateVector(pre, post)
        dist = abl_probabilities(tsv, obs)
        if dist.probabilities[branch] < 1 - 1e-12:
            return CheckResult(
                "certain-outcome-weak-value",
                "fail",
                f"constructed scenario is not certain: p = {dist.probabilities[branch]!r}",
            )
        wv = weak_value(tsv, obs.operator)
        worst = max(worst, abs(wv - obs.eigenvalues[branch]))
        count += 1
    return CheckResult(
        "certain-outcome-weak-value",
        _status(worst <= 1e-9),
        f"max |weak value - certain eigenvalue| = {worst:.3e} over {n} scenarios (tol 1e-9)",
    )


def check_product_rule_failure() -> CheckResult:
    """Two jointly certain outcomes whose operator product is weakly -1."""
    report = run_scenario(builtin("reality-pair"), mode="analytic")
    by_label = {e.label: e for e in report.reality.entries}
    sz, sx = by_label["sz"], by_label["sx"]
    audit = dict(report.product_audits)["sz*sx"]
    ok = (
        sz.certain and sx.certain
        and abs(sz.probability - 1.0) <= 1e-15
        and abs(sx.probability - 1.0) <= 1e-15
        and sz.eigenvalue == 1.0 and sx.eigenvalue == 1.0
        and abs(audit.ab_weak - (-1.0)) <= 1e-12
        and abs(audit.a_weak * audit.b_weak - 1.0) <= 1e-12
        and audit.failed
    )
    return CheckResult(
        "product-rule-failure",
        _status(ok),
        f"sz=+1 certain (p={_fmt(sz.probability)}), sx=+1 certain (p={_fmt(sx.probability)}); "
        f"product weak value {_fmt(audit.ab_weak.real)} != "
        f"{_fmt((audit.a_weak * audit.b_weak).real)} = product of weak values",
    )


def check_oracle_agreement(seed: int, trials: int, n: int = 50, z: float = 4.0) -> CheckResult:
    """Sampled conditionals match the analytic rule across random scenarios."""
    rng = _seed_stream(seed)
    max_z = 0.0
    warns = 0
    for i in range(n):
        while True:
            pre = _random_state(rng, 2)
            post = _random_state(rng, 2)
            obs = _random_observable(rng, 2)
            amps = [np.vdot(post.amps, p @ pre.amps) for p in obs.projectors]
            acceptance = float(sum(abs(a) ** 2 for a in amps))
            if acceptance >= 0.05:
                break
        spec = ScenarioSpec(
            f"oracle-agreement-{i}", 2, pre, (MeasureStage(obs, "m"),), state_projector_observable(post), 1.0
        )
        try:
            stage = run_scenario(spec, trials=trials, seed=int(rng.integers(0, 2**32)), z=z).stages[0]
        except InsufficientAcceptedTrialsError:
            warns += 1
            continue
        max_z = max(max_z, max(abs(zs) for zs in stage.z_scores))
        if not stage.passed:
            return CheckResult(
                "oracle-agreement",
                "fail",
                f"scenario {i}: |z| = {max_z:.2f} exceeds {z}",
            )
    if warns:
        return CheckResult(
            "oracle-agreement",
            "warn",
            f"{warns}/{n} scenarios below the accepted-trials floor at trials={trials}",
        )
    return CheckResult(
        "oracle-agreement",
        "pass",
        f"max |z| = {max_z:.2f} over {n} random scenarios x {trials} trials (threshold {z})",
    )


def check_erasure_retrodiction(seed: int, trials: int, n: int = 20, z: float = 4.0) -> CheckResult:
    """After the entangling measurement, the in-between spin-y retrodicts 50/50
    in every branch, for any prepared particle state."""
    rng = _seed_stream(seed)
    max_z = 0.0
    low_power = 0
    for _ in range(n):
        theta = float(rng.uniform(np.pi / 6, 5 * np.pi / 6))
        phi = float(rng.uniform(0, 2 * np.pi))
        spec = builtin("erasure", theta=theta, phi=phi)
        sub_seed = int(rng.integers(0, 2**32))
        try:
            stats = simulate(
                spec.pre,
                list(spec.timeline),
                (spec.post_observable, spec.post_select),
                trials,
                sub_seed,
            )
        except InsufficientAcceptedTrialsError:
            low_power += 4
            continue
        for branch in (1.0, 2.0, 3.0, 4.0):
            try:
                cond = stats.conditional_given("sy", {"bell": branch})
                half = OutcomeDistribution(tuple(s.eigenvalue for s in cond), (0.5, 0.5))
                outcomes = compare_counts(half, [s.count for s in cond], sum(s.count for s in cond), z)
            except InsufficientAcceptedTrialsError:
                low_power += 1
                continue
            max_z = max(max_z, *(abs(o.z_score) for o in outcomes))
    if low_power:
        return CheckResult(
            "erasure-retrodiction",
            "warn",
            f"{low_power} branch(es) below the accepted-trials floor at trials={trials}; max |z| = {max_z:.2f}",
        )
    return CheckResult(
        "erasure-retrodiction",
        _status(max_z <= z),
        f"max |z| vs 1/2 = {max_z:.2f} over {n} prepared states x 4 branches "
        f"(threshold {z})",
    )


def check_pointer_strong(seed: int, samples: int = 10_000, z: float = 4.0) -> CheckResult:
    """λ = 10σ lobe frequencies reproduce the conditional probabilities."""
    pre = spin_state(1.1, 0.2)
    post = spin_state(2.0, -0.7)
    obs = pauli("z")
    coupling = CouplingSpec(10.0, obs)
    pointer = make_gaussian_pointer()
    positions, probs = post_selected_pointer(couple(pre, pointer, coupling), post)
    rng = _seed_stream(derive_seed(seed, 1))
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(samples), side="right")
    sampled = positions[idx]
    lobes = coupling.strength * obs.eigenvalues
    nearest = np.argmin(np.abs(sampled[:, None] - lobes[None, :]), axis=1)
    predicted = abl_probabilities(TwoStateVector(pre, post), obs)
    outcomes = compare_counts(predicted, np.bincount(nearest, minlength=lobes.size), samples, z)
    max_z = max(abs(o.z_score) for o in outcomes)
    return CheckResult(
        "pointer-strong-lobes",
        _status(all(o.passed for o in outcomes)),
        f"max |z| = {max_z:.2f} between lobe frequencies ({samples} readouts) "
        f"and the conditional rule (threshold {z})",
    )


def check_pointer_weak_convergence() -> CheckResult:
    """shift/λ converges to Re(A_w) at least quadratically as λ shrinks."""
    pre = spin_state(2.2, 0.3)
    post = spin_state(0.7, -0.5)
    obs = pauli("z")
    wv = weak_value(TwoStateVector(pre, post), obs.operator)
    pointer = make_gaussian_pointer()
    errors = []
    for lam in (0.1, 0.05, 0.025):
        shift = post_selected_mean_shift(pre, post, CouplingSpec(lam, obs), pointer)
        errors.append(abs(shift / lam - wv.real))
    ratios = [errors[1] / errors[0], errors[2] / errors[1]]
    ok = all(r <= 0.3 for r in ratios)
    return CheckResult(
        "pointer-weak-convergence",
        _status(ok),
        f"Re(A_w) = {_fmt(wv.real)}; errors {errors[0]:.3e} -> {errors[1]:.3e} -> "
        f"{errors[2]:.3e}, halving ratios {ratios[0]:.3f}, {ratios[1]:.3f} (<= 0.3)",
    )


def check_builtin_scenarios(seed: int, trials: int, z: float = 4.0) -> CheckResult:
    """Every catalog scenario passes oracle-vs-analytic at the z threshold."""
    failures, starved = [], []
    names = builtin_names()
    for i, name in enumerate(names):
        try:
            report = run_scenario(builtin(name), mode="both", trials=trials, seed=derive_seed(seed, 100 + i), z=z)
        except InsufficientAcceptedTrialsError:
            starved.append(name)
            continue
        if report.passed is False:
            failures.append(name)
    if failures:
        return CheckResult(
            "builtin-scenarios", "fail", f"failing scenario(s): {', '.join(failures)}"
        )
    if starved:
        return CheckResult(
            "builtin-scenarios", "warn",
            f"below the accepted-trials floor at trials={trials}: {', '.join(starved)}",
        )
    return CheckResult(
        "builtin-scenarios", "pass",
        f"all {len(names)} catalog scenarios agree with the oracle at z = {z} ({trials} trials each)",
    )


@dataclass(frozen=True)
class ChecksReport:
    trials: int
    seed: int
    z: float
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not any(r.failed for r in self.results)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.results)
        lines = [
            f"validation report  (trials={self.trials}, seed={self.seed}, z={_fmt(self.z)})",
            "",
        ]
        for r in self.results:
            lines.append(f"{r.name.ljust(width)}  {r.status.upper():4}  {r.summary}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {**_record(self), "results": self.csv_rows(), "passed": self.passed}

    def csv_rows(self) -> list[dict]:
        return [_record(r) for r in self.results]


def run_paper_checks(trials: int = 100_000, seed: int = 7, z: float = 4.0) -> ChecksReport:
    """Run the whole battery with one master seed; deterministic output."""
    results = (
        check_spin_chain_recombination(seed),
        check_recombination_random(derive_seed(seed, 1)),
        check_recombination_interferometer(),
        check_conditional_counterexample(derive_seed(seed, 2), trials, z),
        check_swap_symmetry(derive_seed(seed, 3)),
        check_certain_outcome_weak_value(derive_seed(seed, 4)),
        check_product_rule_failure(),
        check_oracle_agreement(derive_seed(seed, 5), trials, z=z),
        check_erasure_retrodiction(derive_seed(seed, 6), trials, z=z),
        check_pointer_strong(derive_seed(seed, 7), z=z),
        check_pointer_weak_convergence(),
        check_builtin_scenarios(derive_seed(seed, 8), trials, z=z),
    )
    return ChecksReport(trials=trials, seed=seed, z=z, results=results)
