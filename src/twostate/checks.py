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
``compare_to_abl`` or via ``run_scenario``), which refuses a ``z`` that is not
a finite number > 0.  Rows that run a builtin scenario sample it through
``scenarios._sampled``; oracle-agreement's random triples are no scenarios and
check ``abl_probabilities`` against ``simulate`` directly.  A distribution with
fewer than ``MIN_ACCEPTED`` accepted trials (per Bell branch for erasure), or
whose every trial is rejected, is starved and not compared.  oracle-agreement
(all 50 triples), erasure-retrodiction and pointer-strong-lobes each gather
their comparisons in one ``montecarlo.Verdict``.  Each row's precedence:

* oracle-agreement and builtin-scenarios: a failure gives "fail", else a
  starved comparison gives "warn";
* erasure-retrodiction: a starved branch gives "warn", even when another
  branch fails;
* conditional-vs-unconditioned: starved gives "warn", as does a sample of
  fewer than 20,000 accepted trials that does not show the 50-SE separation;
* pointer-strong-lobes draws a fixed 10,000 readouts and cannot starve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    SpectralObservable,
    StateVector,
    _hermitian_branches,
    _spin_projectors,
    _unit_rows,
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
    Verdict,
    Z_THRESHOLD,
    _integer,
    _threshold,
    chunk_rng,
    compare_counts,
    compare_to_abl,
    derive_seed,
    simulate,
)
from .pointer import (CouplingSpec, _sample_cells, couple, make_gaussian_pointer, post_selected_mean_shift,
                      post_selected_pointer)
from .rules import (
    OutcomeDistribution,
    TwoStateVector,
    _abl_rows,
    _modulus,
    _recombination,
    _weak_values,
    abl_probabilities,
    born_probabilities,
    total_probability_check,
    weak_value,
)
from .scenarios import (
    DEFAULT_SEED, DEFAULT_TRIALS, _fmt, _record, _sampled, analytic_predictions, builtin, builtin_names,
    run_scenario,
)

SEED_STREAM_CHUNK = 2**48  # far above any simulate() chunk index
STACK_ROWS = 64  # random inputs evaluated per stack: keeps a sweep's arrays and drawn cases near 0.3 MB


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


def _seed_stream(seed: int) -> np.random.Generator:
    """Master stream for sub-seeds and randomized inputs; disjoint from
    the per-chunk simulation streams by construction."""
    return chunk_rng(seed, SEED_STREAM_CHUNK)


def _random_state(rng: np.random.Generator, dim: int) -> StateVector:
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def _amps(states) -> np.ndarray:
    return np.array([s.amps for s in states])


def _random_observable(rng: np.random.Generator, dim: int) -> SpectralObservable:
    return SpectralObservable.from_hermitian(_random_hermitian(rng, dim))


def check_spin_chain_recombination(seed: int) -> CheckResult:
    """Final-branch-weighted conditionals recombine to cos²(θ_ab/2)."""
    samples = 200
    t_ab, t_bc = _seed_stream(seed).uniform(0.05, np.pi - 0.05, size=(samples, 2)).T
    up_a = basis_state(2, 0)
    middle, final = _spin_projectors(t_ab), _spin_projectors(t_ab + t_bc)
    # both angles in [0.05, pi - 0.05]: each ABL denominator is >= 2 sin²(0.025) cos²(0.025) ≈ 1.25e-3
    r = _recombination(np.repeat(up_a.amps[None], samples, axis=0), middle, final)
    # float_power squares through libm's pow, as ``x ** 2`` of a float scalar does;
    # an array's ``** 2`` multiplies, which rounds otherwise in about 1 case in 1000
    cos_ab, cos_bc, sin_ab, sin_bc = (
        np.float_power(f(t / 2), 2) for f, t in ((np.cos, t_ab), (np.cos, t_bc), (np.sin, t_ab), (np.sin, t_bc))
    )
    recombined_up = np.clip(r.recombined[:, 0], 0.0, 1.0)  # branch 0 is eigenvalue +1
    closed_form_1f = cos_ab * cos_bc + sin_ab * sin_bc
    worst = float(np.max([np.abs(recombined_up - cos_ab), np.abs(r.final[:, 0] - closed_form_1f)], initial=0.0))

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


def check_recombination_random(seed: int) -> CheckResult:
    """Generalized consistency for random qubit (pre, middle, final) triples."""
    n = 1000
    # one draw per triple, in the order of _random_state and two _random_observable calls
    draws = _seed_stream(seed).normal(size=(n, 20))
    worst = 0.0
    for start in range(0, n, STACK_ROWS):
        block = draws[start : start + STACK_ROWS]
        pre_amps = block[:, 0:2] + 1j * block[:, 2:4]
        m = block[:, 4:].reshape(-1, 2, 2, 2, 2)  # (triple, middle/final, re/im, 2, 2)
        m = m[:, :, 0] + 1j * m[:, :, 1]
        mats = (m + m.conj().swapaxes(-1, -2)) / 2
        _, projs, regular = _hermitian_branches(mats)
        r = _recombination(_unit_rows(pre_amps, normalize=True), projs[:, 0], projs[:, 1])
        errors = r.error
        # near-degenerate and guarded triples go through the scalar rule, as does
        # the first failing one, whose report ends the check
        for i in np.flatnonzero(~regular.all(axis=1) | r.suspect | ~(errors <= 1e-10)):
            report = total_probability_check(
                StateVector.normalized(pre_amps[i]),
                SpectralObservable.from_hermitian(mats[i, 0]),
                SpectralObservable.from_hermitian(mats[i, 1]),
            )
            errors[i] = report.max_abs_error
            if not report.passed:
                return CheckResult(
                    "recombination-random-qubits",
                    "fail",
                    f"recombination error {report.max_abs_error:.3e} exceeds 1e-10",
                )
        worst = float(np.max(errors, initial=worst))
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


def check_conditional_counterexample(seed: int, trials: int, z: float = Z_THRESHOLD) -> CheckResult:
    """Conditioning on the later outcome changes the prediction: 0.9 vs 0.75.

    Runs the ``spin-zz-xi`` scenario at θ = π/3 with seed
    ``derive_seed(seed, 1)`` and compares the probe's +1 row, found by
    eigenvalue, with both predictions.
    """
    spec = builtin("spin-zz-xi", theta=np.pi / 3)
    probe = spec.timeline[0].observable
    predictions = (analytic_predictions(spec).distributions[0], born_probabilities(spec.pre, probe))
    plus = probe.branch_index(1.0)
    abl, born = (dist.probabilities[plus] for dist in predictions)
    exact_ok = abs(born - 0.75) <= 1e-12 and abs(abl - 0.9) <= 1e-12
    summary = f"unconditioned {_fmt(born)} vs conditional {_fmt(abl)}; "
    try:
        stats = _sampled(spec, trials, derive_seed(seed, 1))
        vs_abl, vs_born = (compare_to_abl(stats, dist, z=z).outcomes[plus] for dist in predictions)
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


def _swap_deviations(pre, post, eigs, projs) -> tuple[np.ndarray, np.ndarray]:
    """Per case: max |ABL(pre, post) - ABL(post, pre)| and |weak(post, pre) - conj weak(pre, post)|."""
    forward = _abl_rows(post[:, None], projs, pre)[0]
    backward = _abl_rows(pre[:, None], projs, post)[0]
    op = np.einsum("nj,njkl->nkl", eigs, projs)
    weak, weak_swapped = _weak_values(post, op, pre), _weak_values(pre, op, post)
    abl_dev = np.abs(np.clip(forward[:, 0], 0.0, 1.0) - np.clip(backward[:, 0], 0.0, 1.0)).max(axis=-1)
    return abl_dev, _modulus(weak_swapped - np.conj(weak))


def _swap_case(rng: np.random.Generator, dim: int) -> tuple[StateVector, StateVector, np.ndarray]:
    """Pre and post with overlap at least 0.05, then a Hermitian matrix."""
    pre = _random_state(rng, dim)
    post = _random_state(rng, dim)
    while abs(np.vdot(post.amps, pre.amps)) < 0.05:
        post = _random_state(rng, dim)
    return pre, post, _random_hermitian(rng, dim)


def check_swap_symmetry(seed: int) -> CheckResult:
    """Conditionals are invariant, and weak values conjugate, under pre/post swap."""
    n = 500
    rng = _seed_stream(seed)
    worst_abl = worst_weak = 0.0
    for start in range(0, n, STACK_ROWS):
        cases = [_swap_case(rng, 2 if i % 2 == 0 else 3) for i in range(start, min(start + STACK_ROWS, n))]
        abl_dev, weak_dev, regular = np.zeros(len(cases)), np.zeros(len(cases)), np.zeros(len(cases), dtype=bool)
        for dim in {pre.dim for pre, _, _ in cases}:
            rows = [i for i, (pre, _, _) in enumerate(cases) if pre.dim == dim]
            eigs, projs, regular[rows] = _hermitian_branches(np.array([cases[i][2] for i in rows]))
            pre, post = (_amps(cases[i][side] for i in rows) for side in (0, 1))
            # overlap >= 0.05, so each ABL denominator is >= 0.05²/k >= 8.3e-4 (Cauchy–Schwarz, k <= 3)
            abl_dev[rows], weak_dev[rows] = _swap_deviations(pre, post, eigs, projs)
        for i in np.flatnonzero(~regular):  # in case order
            pre, post, mat = cases[i]
            obs = SpectralObservable.from_hermitian(mat)  # merges near-degenerate branches, or raises
            abl_dev[i : i + 1], weak_dev[i : i + 1] = _swap_deviations(
                pre.amps[None], post.amps[None], obs.eigenvalues[None], obs.projectors[None]
            )
        worst_abl = float(np.max(abl_dev, initial=worst_abl))
        worst_weak = float(np.max(weak_dev, initial=worst_weak))
    ok = worst_abl <= 1e-12 and worst_weak <= 1e-12
    return CheckResult(
        "swap-symmetry",
        _status(ok),
        f"max conditional deviation {worst_abl:.3e}, max weak-value conjugation "
        f"deviation {worst_weak:.3e} over {n} qubit/qutrit cases (tol 1e-12)",
    )


class _Scenario(NamedTuple):
    pre: StateVector
    post: StateVector
    eigenvalues: np.ndarray
    projectors: np.ndarray
    branch: int  # the branch that is certain


def _certain_scenario(rng: np.random.Generator, kind: int) -> _Scenario | None:
    """One scenario of the given kind; None when kind 2 draws fewer than 3 branches."""
    dim = int(rng.integers(3 if kind == 2 else 2, 6))
    mat = _random_hermitian(rng, dim)
    eigs, projs, regular = _hermitian_branches(mat)
    if not regular:  # from_hermitian merges near-degenerate branches, or raises
        obs = SpectralObservable.from_hermitian(mat)
        eigs, projs = obs.eigenvalues, obs.projectors
    k = eigs.size
    if kind == 2 and k < 3:
        return None
    branch = int(rng.integers(0, k))
    if kind < 2:  # kind 0 is prepared, kind 1 post-selected, inside an eigenspace
        inside = StateVector.normalized(projs[branch] @ _random_state(rng, dim).amps)
        other = _random_state(rng, dim)
        while abs(np.vdot(other.amps, inside.amps)) < 0.1:
            other = _random_state(rng, dim)
        pre, post = (inside, other) if kind == 0 else (other, inside)
    else:  # neither boundary state is an eigenstate, yet one branch is certain
        others = [j for j in range(k) if j != branch]
        j_pre, j_post = rng.choice(others, size=2, replace=False)
        shared = StateVector.normalized(projs[branch] @ _random_state(rng, dim).amps)
        pre = StateVector.normalized(
            0.8 * shared.amps
            + 0.6 * StateVector.normalized(projs[j_pre] @ _random_state(rng, dim).amps).amps
        )
        post = StateVector.normalized(
            0.8 * shared.amps
            + 0.6 * StateVector.normalized(projs[j_post] @ _random_state(rng, dim).amps).amps
        )
    return _Scenario(pre, post, eigs, projs, branch)


def check_certain_outcome_weak_value(seed: int) -> CheckResult:
    """An outcome certain under the conditional rule pins the weak value."""
    n = 500
    rng = _seed_stream(seed)
    worst, done = 0.0, 0
    while done < n:
        cases = []
        while len(cases) < min(STACK_ROWS, n - done):
            case = _certain_scenario(rng, (done + len(cases)) % 3)
            if case is not None:
                cases.append(case)
        certainty, deviation = np.zeros(len(cases)), np.zeros(len(cases))
        groups: dict[tuple[int, int], list[int]] = {}
        for i, case in enumerate(cases):  # one stack per (branch count, dimension)
            groups.setdefault(case.projectors.shape[:2], []).append(i)
        for rows in groups.values():
            pre, post = _amps(cases[i].pre for i in rows), _amps(cases[i].post for i in rows)
            eigs = np.array([cases[i].eigenvalues for i in rows])
            projs = np.array([cases[i].projectors for i in rows])
            picked = np.arange(len(rows)), np.array([cases[i].branch for i in rows])
            # kinds 0, 1: overlap >= 0.1, so the certain branch's denominator is >= 0.01; kind 2: overlap 0.64
            probs = _abl_rows(post[:, None], projs, pre)[0]
            weak = _weak_values(post, np.einsum("nj,njkl->nkl", eigs, projs), pre)
            certainty[rows] = np.clip(probs[:, 0][picked], 0.0, 1.0)
            deviation[rows] = _modulus(weak - eigs[picked])
        for i in np.flatnonzero(certainty < 1 - 1e-12):  # the first, in scenario order, ends the check
            return CheckResult(
                "certain-outcome-weak-value",
                "fail",
                f"constructed scenario is not certain: p = {float(certainty[i])!r}",
            )
        worst = float(np.max(deviation, initial=worst))
        done += len(cases)
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


def check_oracle_agreement(seed: int, trials: int, z: float = Z_THRESHOLD) -> CheckResult:
    """Sampled conditionals match the analytic rule across random scenarios."""
    n = 50
    rng = _seed_stream(seed)
    compared = []
    for _ in range(n):
        while True:
            pre = _random_state(rng, 2)
            post = _random_state(rng, 2)
            obs = _random_observable(rng, 2)
            amps = [np.vdot(post.amps, p @ pre.amps) for p in obs.projectors]
            acceptance = float(sum(abs(a) ** 2 for a in amps))
            if acceptance >= 0.05:
                break
        try:
            stats = simulate(pre, (MeasureStage(obs, "m"),), (state_projector_observable(post), 1.0), trials,
                             int(rng.integers(0, 2**32)))
            compared.append(compare_to_abl(stats, abl_probabilities(TwoStateVector(pre, post), obs), z).outcomes)
        except InsufficientAcceptedTrialsError:
            compared.append(None)
    verdict = Verdict(tuple(compared))
    failing = verdict.first_failure
    if failing is not None:  # failure wins over starvation
        own_z = max(abs(o.z_score) for o in verdict.compared[failing])
        return CheckResult("oracle-agreement", "fail", f"scenario {failing}: |z| = {own_z:.2f} exceeds {z}")
    if verdict.starved:
        return CheckResult("oracle-agreement", "warn",
                           f"{verdict.starved}/{n} scenarios below the accepted-trials floor at trials={trials}")
    return CheckResult("oracle-agreement", "pass",
                       f"max |z| = {verdict.max_z:.2f} over {n} random scenarios x {trials} trials (threshold {z})")


def check_erasure_retrodiction(seed: int, trials: int, z: float = Z_THRESHOLD) -> CheckResult:
    """After the entangling measurement, the in-between spin-y retrodicts 50/50
    in every branch, for any prepared particle state."""
    n = 20
    rng = _seed_stream(seed)
    compared = []
    for _ in range(n):
        theta = float(rng.uniform(np.pi / 6, 5 * np.pi / 6))
        phi = float(rng.uniform(0, 2 * np.pi))
        spec = builtin("erasure", theta=theta, phi=phi)
        try:
            stats = _sampled(spec, trials, int(rng.integers(0, 2**32)))
        except InsufficientAcceptedTrialsError:
            compared += [None] * 4
            continue
        for branch in (1.0, 2.0, 3.0, 4.0):
            try:
                cond = stats.conditional_given("sy", {"bell": branch})
                half = OutcomeDistribution(tuple(s.eigenvalue for s in cond), (0.5, 0.5))
                compared.append(compare_counts(half, [s.count for s in cond], sum(s.count for s in cond), z))
            except InsufficientAcceptedTrialsError:
                compared.append(None)
    verdict = Verdict(tuple(compared))
    if verdict.starved:  # starvation wins over failure
        return CheckResult("erasure-retrodiction", "warn",
                           f"{verdict.starved} branch(es) below the accepted-trials floor at trials={trials}; "
                           f"max |z| = {verdict.max_z:.2f}")
    return CheckResult("erasure-retrodiction", _status(verdict.passed),
                       f"max |z| vs 1/2 = {verdict.max_z:.2f} over {n} prepared states x 4 branches (threshold {z})")


def check_pointer_strong(seed: int, z: float = Z_THRESHOLD) -> CheckResult:
    """λ = 10σ lobe frequencies reproduce the conditional probabilities."""
    samples = 10_000
    pre = spin_state(1.1, 0.2)
    post = spin_state(2.0, -0.7)
    obs = pauli("z")
    coupling = CouplingSpec(10.0, obs)
    pointer = make_gaussian_pointer()
    positions, probs = post_selected_pointer(couple(pre, pointer, coupling), post)
    rng = _seed_stream(derive_seed(seed, 1))
    sampled = positions[_sample_cells(probs, rng, samples)]
    lobes = coupling.strength * obs.eigenvalues
    nearest = np.argmin(np.abs(sampled[:, None] - lobes[None, :]), axis=1)
    predicted = abl_probabilities(TwoStateVector(pre, post), obs)
    verdict = Verdict((compare_counts(predicted, np.bincount(nearest, minlength=lobes.size), samples, z),))
    return CheckResult("pointer-strong-lobes", _status(verdict.passed),
                       f"max |z| = {verdict.max_z:.2f} between lobe frequencies ({samples} readouts) "
                       f"and the conditional rule (threshold {z})")


def check_pointer_weak_convergence() -> CheckResult:
    """shift/λ converges to Re(A_w) at least quadratically as λ shrinks."""
    pre = spin_state(2.2, 0.3)
    post = spin_state(0.7, -0.5)
    obs = pauli("z")
    wv = weak_value(TwoStateVector(pre, post), obs.operator)
    pointer = make_gaussian_pointer()
    errors = []
    for lam in (0.1, 0.05, 0.025):
        shift = post_selected_mean_shift(couple(pre, pointer, CouplingSpec(lam, obs)), post)
        errors.append(abs(shift / lam - wv.real))
    ratios = [errors[1] / errors[0], errors[2] / errors[1]]
    ok = all(r <= 0.3 for r in ratios)
    return CheckResult(
        "pointer-weak-convergence",
        _status(ok),
        f"Re(A_w) = {_fmt(wv.real)}; errors {errors[0]:.3e} -> {errors[1]:.3e} -> "
        f"{errors[2]:.3e}, halving ratios {ratios[0]:.3f}, {ratios[1]:.3f} (<= 0.3)",
    )


def check_builtin_scenarios(seed: int, trials: int, z: float = Z_THRESHOLD) -> CheckResult:
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


def run_paper_checks(
    trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, z: float = Z_THRESHOLD
) -> ChecksReport:
    """Run the whole battery with one master seed; deterministic output."""
    trials, seed, z = _integer("trials", trials), _integer("seed", seed), _threshold(z)
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
