"""Analytic predictions for pre- and post-selected quantum systems.

The central object is the two-state vector: the state prepared in the past
and transported forward to the time of interest, paired with the state found
later and transported backward.  Given both, conditional outcome
probabilities for an intermediate measurement follow the ABL rule

    Prob(a_i) = |⟨post|P_i|pre⟩|² / Σ_j |⟨post|P_j|pre⟩|²,

and weakly coupled measurements read out the weak value
⟨post|A|pre⟩ / ⟨post|pre⟩.  This module also provides the total-probability
decomposition that recombines ABL conditionals over the branches of a final
measurement back into the unconditioned Born distribution, and the
element-of-reality / product-rule reports built on top of these rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    LinearOperator,
    SpectralObservable,
    StateVector,
    inner_product,
)
from .errors import DimensionMismatchError, ZeroDenominatorError, ZeroOverlapError

DENOMINATOR_FLOOR = 1e-14
OVERLAP_FLOOR = 1e-14
PROBABILITY_SLACK = 1e-12  # tolerated negative float noise, clipped on output


@dataclass(frozen=True)
class TwoStateVector:
    """Forward state and backward state, both already transported to time t."""

    pre: StateVector
    post: StateVector
    overlap: complex = field(init=False)

    def __post_init__(self):
        if self.pre.dim != self.post.dim:
            raise DimensionMismatchError(
                f"pre dim {self.pre.dim} vs post dim {self.post.dim}"
            )
        object.__setattr__(self, "overlap", inner_product(self.post, self.pre))

    @property
    def dim(self) -> int:
        return self.pre.dim

    def swapped(self) -> "TwoStateVector":
        """The time-reversed description with pre and post interchanged."""
        return TwoStateVector(pre=self.post, post=self.pre)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Eigenvalues with their probabilities; sums to 1, clipped to [0, 1]."""

    eigenvalues: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = [float(p) for p in self.probabilities]
        if not all(-PROBABILITY_SLACK <= p <= 1 + PROBABILITY_SLACK for p in probs):
            raise ValueError(f"probability outside [0,1] beyond float noise: {np.array(probs)}")
        if abs(sum(probs) - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
        clipped = tuple(min(max(p, 0.0), 1.0) for p in probs)  # keeps -0.0, as np.clip does
        object.__setattr__(self, "eigenvalues", tuple(float(e) for e in self.eigenvalues))
        object.__setattr__(self, "probabilities", clipped)

    def probability(self, eigenvalue: float, tol: float = 1e-9) -> float:
        for eig, p in zip(self.eigenvalues, self.probabilities):
            if abs(eig - eigenvalue) <= tol:
                return p
        raise ValueError(f"eigenvalue {eigenvalue!r} not present")

    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.eigenvalues, self.probabilities))


def born_probabilities(psi: StateVector, observable: SpectralObservable) -> OutcomeDistribution:
    """Outcome distribution ⟨ψ|P_i|ψ⟩ for a single measurement on state ψ."""
    if psi.dim != observable.dim:
        raise DimensionMismatchError(f"state dim {psi.dim} vs observable dim {observable.dim}")
    probs = np.einsum("i,kij,j->k", psi.amps.conj(), observable.projectors, psi.amps).real
    total = probs.sum()
    return OutcomeDistribution(tuple(observable.eigenvalues), tuple(probs / total))


def abl_probabilities(tsv: TwoStateVector, observable: SpectralObservable) -> OutcomeDistribution:
    """Conditional outcome distribution for a measurement between the two selections."""
    if tsv.dim != observable.dim:
        raise DimensionMismatchError(f"state dim {tsv.dim} vs observable dim {observable.dim}")
    amps = np.einsum("i,kij,j->k", tsv.post.amps.conj(), observable.projectors, tsv.pre.amps)
    weights = np.abs(amps) ** 2
    denom = weights.sum()
    if denom <= DENOMINATOR_FLOOR:
        raise ZeroDenominatorError(
            "post-selection unreachable through every branch of this measurement"
        )
    return OutcomeDistribution(tuple(observable.eigenvalues), tuple(weights / denom))


def weak_value(tsv: TwoStateVector, operator: LinearOperator) -> complex:
    """⟨post|A|pre⟩ / ⟨post|pre⟩; generally complex."""
    if tsv.dim != operator.dim:
        raise DimensionMismatchError(f"state dim {tsv.dim} vs operator dim {operator.dim}")
    if abs(tsv.overlap) <= OVERLAP_FLOOR:
        raise ZeroOverlapError("weak value undefined for orthogonal pre/post states")
    numerator = complex(np.vdot(tsv.post.amps, operator.matrix @ tsv.pre.amps))
    return numerator / tsv.overlap


@dataclass(frozen=True)
class RealityEntry:
    label: str
    eigenvalue: float | None
    probability: float | None
    certain: bool
    error: str | None = None


@dataclass(frozen=True)
class RealityReport:
    entries: tuple[RealityEntry, ...]

    @property
    def elements(self) -> tuple[RealityEntry, ...]:
        return tuple(e for e in self.entries if e.certain)


def elements_of_reality(
    tsv: TwoStateVector,
    observables: Sequence[tuple[str, SpectralObservable]],
    tol: float = 1e-10,
) -> RealityReport:
    """Which outcomes would a strong measurement yield with certainty?

    For each labeled observable, reports the most probable eigenvalue under
    the conditional rule and flags it as an element of reality when its
    probability reaches 1 within ``tol``.  Several mutually incompatible
    observables may qualify at once.  A zero-denominator observable is
    recorded in place rather than aborting the whole report.
    """
    if not (0 < tol < 0.5):
        raise ValueError(f"tol must lie in (0, 0.5), got {tol!r}")
    entries = []
    for label, obs in observables:
        try:
            dist = abl_probabilities(tsv, obs)
        except ZeroDenominatorError as exc:
            entries.append(RealityEntry(label, None, None, False, error=str(exc)))
            continue
        prob = max(dist.probabilities)
        idx = dist.probabilities.index(prob)  # first maximum, as np.argmax
        entries.append(
            RealityEntry(label, dist.eigenvalues[idx], prob, certain=prob >= 1 - tol)
        )
    return RealityReport(tuple(entries))


@dataclass(frozen=True)
class ProductRuleReport:
    a_weak: complex
    b_weak: complex
    ab_weak: complex
    discrepancy: complex  # (AB)_w - A_w·B_w
    failed: bool


def product_rule_audit(
    tsv: TwoStateVector,
    a: LinearOperator,
    b: LinearOperator,
    tol: float = 1e-10,
) -> ProductRuleReport:
    """Compare (AB)_w against A_w·B_w; flags failure when they differ.

    Any operators are accepted, Hermitian or not; restricting to observables
    is left to the caller.
    """
    a_w = weak_value(tsv, a)
    b_w = weak_value(tsv, b)
    ab_w = weak_value(tsv, a @ b)
    disc = ab_w - a_w * b_w
    return ProductRuleReport(a_w, b_w, ab_w, disc, failed=abs(disc) > tol)


@dataclass(frozen=True)
class TotalProbabilityReport:
    """Recombination of per-final-branch conditionals against the direct rule."""

    intermediate_eigenvalues: tuple[float, ...]
    final_eigenvalues: tuple[float, ...]
    final_probabilities: tuple[float, ...]  # Prob(f) with the intermediate measurement performed
    conditionals: tuple[OutcomeDistribution | None, ...]  # None for zero-weight final branches
    recombined: OutcomeDistribution
    direct: OutcomeDistribution
    max_abs_error: float
    passed: bool


def _rank_one_vector(projector: np.ndarray) -> StateVector:
    vals, vecs = np.linalg.eigh(projector)
    return StateVector(vecs[:, int(np.argmax(vals))])


def total_probability_check(
    pre: StateVector,
    intermediate: SpectralObservable,
    final: SpectralObservable,
    tol: float = 1e-10,
) -> TotalProbabilityReport:
    """Verify Σ_f Prob(f)·Prob(a_i|f) = Born(a_i) when the intermediate runs.

    Prob(f) is the probability of final branch f conditioned on the
    intermediate measurement having actually been performed:
    Σ_i ⟨pre|P_i Q_f P_i|pre⟩.  For a rank-1 final branch the conditional is
    the ABL distribution with that branch's unit vector as the post state;
    degenerate branches use the equivalent generalized weights
    ⟨pre|P_i Q_f P_i|pre⟩ directly.  Zero-weight final branches are skipped.
    """
    if pre.dim != intermediate.dim or pre.dim != final.dim:
        raise DimensionMismatchError(
            f"dims differ: state {pre.dim}, intermediate {intermediate.dim}, final {final.dim}"
        )
    branch_states = [p @ pre.amps for p in intermediate.projectors]  # unnormalized P_i|pre⟩
    k_mid = intermediate.num_branches

    final_probs: list[float] = []
    conditionals: list[OutcomeDistribution | None] = []
    recombined = np.zeros(k_mid)
    for q in final.projectors:
        weights = np.array([np.vdot(v, q @ v).real for v in branch_states])
        weights = np.clip(weights, 0.0, None)
        w_f = float(weights.sum())
        final_probs.append(w_f)
        if w_f <= 1e-15:
            conditionals.append(None)
            continue
        if round(np.trace(q).real) == 1:
            post = _rank_one_vector(q)
            cond = abl_probabilities(TwoStateVector(pre, post), intermediate)
        else:
            cond = OutcomeDistribution(tuple(intermediate.eigenvalues), tuple(weights / w_f))
        conditionals.append(cond)
        recombined += w_f * np.asarray(cond.probabilities)

    recombined_dist = OutcomeDistribution(
        tuple(intermediate.eigenvalues), tuple(recombined / recombined.sum())
    )
    direct = born_probabilities(pre, intermediate)
    err = float(np.max(np.abs(np.asarray(recombined_dist.probabilities) - np.asarray(direct.probabilities))))
    return TotalProbabilityReport(
        intermediate_eigenvalues=tuple(intermediate.eigenvalues),
        final_eigenvalues=tuple(final.eigenvalues),
        final_probabilities=tuple(final_probs),
        conditionals=tuple(conditionals),
        recombined=recombined_dist,
        direct=direct,
        max_abs_error=err,
        passed=err <= tol,
    )


def transport_forward(state: StateVector, unitaries: Sequence[LinearOperator]) -> StateVector:
    """Carry a forward-evolving state through a list of unitaries in order."""
    amps = state.amps
    for u in unitaries:
        amps = u.matrix @ amps
    return StateVector(amps)


def transport_backward(state: StateVector, unitaries: Sequence[LinearOperator]) -> StateVector:
    """Carry a backward-evolving state back through unitaries (adjoint, reversed)."""
    amps = state.amps
    for u in reversed(unitaries):
        amps = u.matrix.conj().T @ amps
    return StateVector(amps)
