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
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    LinearOperator,
    SpectralObservable,
    StateVector,
    _branch_of,
    _dot,
    _unit_rows,
    inner_product,
)
from .errors import DimensionMismatchError, ZeroDenominatorError, ZeroOverlapError

DENOMINATOR_FLOOR = 1e-14
OVERLAP_FLOOR = 1e-14
PROBABILITY_SLACK = 1e-12  # tolerated negative float noise, clipped on output
VERDICT_TOL = 1e-10  # certainty, product-rule failure and recombination verdicts
ZERO_WEIGHT = 1e-15  # a branch of smaller weight is dead, here and in the Monte-Carlo oracle


@dataclass(frozen=True)
class TwoStateVector:
    """Forward state and backward state, both already transported to time t."""

    pre: StateVector
    post: StateVector
    overlap: complex = field(init=False)
    # the ABL distributions given so far, by observable identity; each entry holds its
    # observable, so the id cannot pass to another object while the entry lives
    _conditionals: dict = field(init=False, default_factory=dict, repr=False, compare=False)

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

    def probability(self, eigenvalue: float) -> float:
        return self.probabilities[_branch_of(self.eigenvalues, eigenvalue, "this distribution")]

    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.eigenvalues, self.probabilities))


def born_probabilities(psi: StateVector, observable: SpectralObservable) -> OutcomeDistribution:
    """Outcome distribution ⟨ψ|P_i|ψ⟩ for a single measurement on state ψ."""
    if psi.dim != observable.dim:
        raise DimensionMismatchError(f"state dim {psi.dim} vs observable dim {observable.dim}")
    probs = np.einsum("i,kij,j->k", psi.amps.conj(), observable.projectors, psi.amps).real
    total = probs.sum()
    return OutcomeDistribution(observable._values, tuple((probs / total).tolist()))


def abl_probabilities(tsv: TwoStateVector, observable: SpectralObservable) -> OutcomeDistribution:
    """Conditional outcome distribution for a measurement between the two selections.

    ``tsv`` keeps each distribution it gives, so asking again for the same
    observable object returns the same distribution without evaluating it.
    """
    entry = tsv._conditionals.get(id(observable))
    if entry is None:
        entry = tsv._conditionals[id(observable)] = (observable, _abl_distribution(tsv, observable))
    return entry[1]


def _abl_distribution(tsv: TwoStateVector, observable: SpectralObservable) -> OutcomeDistribution:
    if tsv.dim != observable.dim:
        raise DimensionMismatchError(f"state dim {tsv.dim} vs observable dim {observable.dim}")
    amps = np.einsum("i,kij,j->k", tsv.post.amps.conj(), observable.projectors, tsv.pre.amps)
    weights = np.abs(amps) ** 2
    denom = weights.sum()
    if denom <= DENOMINATOR_FLOOR:
        raise ZeroDenominatorError(
            "post-selection unreachable through every branch of this measurement"
        )
    return OutcomeDistribution(observable._values, tuple((weights / denom).tolist()))


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
) -> RealityReport:
    """Which outcomes would a strong measurement yield with certainty?

    For each labeled observable, reports the most probable eigenvalue under
    the conditional rule and flags it as an element of reality when its
    probability reaches 1 within ``VERDICT_TOL``.  Several mutually incompatible
    observables may qualify at once.  A zero-denominator observable is
    recorded in place rather than aborting the whole report.
    """
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
            RealityEntry(label, dist.eigenvalues[idx], prob, certain=prob >= 1 - VERDICT_TOL)
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
) -> ProductRuleReport:
    """Compare (AB)_w against A_w·B_w; flags failure when they differ.

    Any operators are accepted, Hermitian or not; restricting to observables
    is left to the caller.
    """
    a_w = weak_value(tsv, a)
    b_w = weak_value(tsv, b)
    ab_w = weak_value(tsv, a @ b)
    disc = ab_w - a_w * b_w
    return ProductRuleReport(a_w, b_w, ab_w, disc, failed=abs(disc) > VERDICT_TOL)


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


def _distributions_suspect(probs: np.ndarray) -> np.ndarray:
    """Rows of a (..., k) stack that ``OutcomeDistribution`` may reject.

    The range test is the constructor's own; the sum test flags anything
    within half its tolerance, because Python's ``sum`` may round otherwise
    than numpy's.  The constructor decides a flagged row.
    """
    in_range = (probs >= -PROBABILITY_SLACK) & (probs <= 1 + PROBABILITY_SLACK)
    return ~in_range.all(axis=-1) | ~(np.abs(probs.sum(axis=-1) - 1.0) <= 0.5e-10)


def _abl_rows(posts: np.ndarray, projs: np.ndarray, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``abl_probabilities`` for n inputs, each against f post states.

    ``posts`` (n, f, d) and ``pre`` (n, d) hold unit amplitudes, ``projs``
    (n, k, d, d) the branches.  Returns the (n, f, k) probabilities before
    clipping and the (n, f) mask the scalar rule accepts; it decides the rest.
    """
    weights = np.abs(np.einsum("nfi,nkij,nj->nfk", posts.conj(), projs, pre)) ** 2
    denominators = weights.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rejected rows only
        probs = weights / denominators[..., None]
    return probs, (denominators > DENOMINATOR_FLOOR) & ~_distributions_suspect(probs)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise as ``abs`` of a Python or numpy complex scalar rounds it.

    Scalars go through libm's ``hypot``; ``np.abs`` of a complex array takes
    a vectorized path that differs in the last bit in about a third of cases.
    """
    return np.hypot(z.real, z.imag)


def _weak_values(post: np.ndarray, matrices: np.ndarray, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``weak_value`` for n inputs: unit ``post`` and ``pre`` (n, d), operators (n, d, d).

    Returns the values and the mask of inputs whose overlap clears the floor.
    Each row divides with Python's own complex ``/``, as ``weak_value`` does,
    so the two round alike; numpy's complex division rounds otherwise.
    """
    overlap = _dot(post.conj(), pre)
    ok = _modulus(overlap) > OVERLAP_FLOOR
    numerator = _dot(post.conj(), (matrices @ pre[..., None])[..., 0])
    quotients = [a / b for a, b in zip(numerator.tolist(), np.where(ok, overlap, 1.0).tolist())]
    return np.array(quotients, dtype=complex), ok


class _Recombination(NamedTuple):
    """``total_probability_check``'s arithmetic over a leading axis of n inputs.

    Probability stacks are as computed, before ``OutcomeDistribution``
    clips them; ``error`` is taken between the clipped ones.
    """

    final: np.ndarray  # (n, m) Prob(f) with the intermediate measurement performed
    live: np.ndarray  # (n, m) final branches with weight above ZERO_WEIGHT
    unreachable: np.ndarray  # (n, m) live rank-1 branches that StateVector or the ABL rule may reject
    conditionals: np.ndarray  # (n, m, k)
    recombined: np.ndarray  # (n, k)
    direct: np.ndarray  # (n, k)
    error: np.ndarray  # (n,) max |recombined - direct|
    suspect: np.ndarray  # (n,) inputs where a scalar constructor or rule may raise


def _recombination(pre: np.ndarray, mid_projs: np.ndarray, fin_projs: np.ndarray) -> _Recombination:
    """Recombine per-final-branch conditionals for n inputs at once.

    ``pre`` (n, d) holds unit amplitudes, ``mid_projs`` (n, k, d, d) and
    ``fin_projs`` (n, m, d, d) the branch projectors.  Every operation
    reproduces the one-input arithmetic bit for bit; inputs where a guard
    may trip are flagged in ``suspect``, not raised.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # dead branches and flagged inputs only
        branch_states = (mid_projs @ pre[:, None, :, None])[..., 0]  # (n, k, d) unnormalized P_i|pre⟩
        projected = (fin_projs[:, :, None] @ branch_states[:, None, ..., None])[..., 0]  # (n, m, k, d)
        weights = np.clip(_dot(branch_states.conj()[:, None], projected).real, 0.0, None)
        final = weights.sum(axis=-1)
        live = final > ZERO_WEIGHT
        rank_one = np.rint(np.trace(fin_projs, axis1=-2, axis2=-1).real) == 1
        vals, vecs = np.linalg.eigh(fin_projs)
        posts = np.take_along_axis(vecs, vals.argmax(axis=-1)[..., None, None], axis=-1)[..., 0]
        posts, post_ok = _unit_rows(posts)
        abl, abl_ok = _abl_rows(posts, mid_projs, pre)
        conditionals = np.where(rank_one[..., None], abl, weights / final[..., None])
        unreachable = live & rank_one & ~(post_ok & abl_ok)
        contributions = np.where(live[..., None], final[..., None] * np.clip(conditionals, 0.0, 1.0), 0.0)
        recombined = np.zeros(mid_projs.shape[:2])
        for f in range(fin_projs.shape[1]):
            recombined = recombined + contributions[:, f]
        recombined = recombined / recombined.sum(axis=-1, keepdims=True)
        direct = np.einsum("ni,nkij,nj->nk", pre.conj(), mid_projs, pre).real
        direct = direct / direct.sum(axis=-1, keepdims=True)
    error = np.abs(np.clip(recombined, 0.0, 1.0) - np.clip(direct, 0.0, 1.0)).max(axis=-1)
    suspect = (
        (unreachable | live & _distributions_suspect(conditionals)).any(axis=-1)
        | _distributions_suspect(recombined)
        | _distributions_suspect(direct)
    )
    return _Recombination(final, live, unreachable, conditionals, recombined, direct, error, suspect)


def total_probability_check(
    pre: StateVector,
    intermediate: SpectralObservable,
    final: SpectralObservable,
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
    r = _recombination(pre.amps[None], intermediate.projectors[None], final.projectors[None])
    eigenvalues = tuple(intermediate.eigenvalues)
    conditionals: list[OutcomeDistribution | None] = []
    for f in range(final.num_branches):
        if not r.live[0, f]:
            conditionals.append(None)
            continue
        if r.unreachable[0, f]:  # the scalar rule raises its usual error
            abl_probabilities(TwoStateVector(pre, _rank_one_vector(final.projectors[f])), intermediate)
        conditionals.append(OutcomeDistribution(eigenvalues, tuple(r.conditionals[0, f])))
    recombined = OutcomeDistribution(eigenvalues, tuple(r.recombined[0]))
    direct = OutcomeDistribution(eigenvalues, tuple(r.direct[0]))
    err = float(r.error[0])
    return TotalProbabilityReport(
        intermediate_eigenvalues=eigenvalues,
        final_eigenvalues=tuple(final.eigenvalues),
        final_probabilities=tuple(r.final[0].tolist()),
        conditionals=tuple(conditionals),
        recombined=recombined,
        direct=direct,
        max_abs_error=err,
        passed=err <= VERDICT_TOL,
    )

