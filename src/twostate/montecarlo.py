"""Seeded Monte-Carlo oracle for sequential projective measurements.

This is the brute-force counterpart to the analytic rules: prepare, walk a
timeline of unitaries and collapse-sampled measurements, sample the final
measurement, and keep only runs whose final outcome matches the
post-selection.  Conditional frequencies over the kept runs estimate the
analytic conditional probabilities, with binomial standard errors.

Determinism contract
--------------------
Trials are partitioned into fixed chunks of 4096.  Chunk ``k`` of a run with
seed ``s``, 0 ≤ s < 2**64, draws from
``numpy.random.Generator(Philox(key=[s, k]))`` (Philox is counter-based with a
128-bit key, so substreams are independent by construction); other seeds are
rejected rather than reduced.  A sub-run's seed, ``derive_seed(s, offset)``, is
``s + offset`` mod 2**64.  Within a chunk, one uniform array is consumed per
measurement stage and one for the final measurement, in timeline order.
Tallies are plain integer sums, so the result for a given ``(seed, trials)``
pair is identical no matter how chunks are scheduled.  Golden tests pin the
derivation and complete tallies of fixed runs.

Branch sampling is inverse-CDF over branches in observable order, with the
cumulative weights renormalized so the last entry is exactly 1.  Branches of
Born weight below 1e-15 get exact weight 0, so a null vector is never
normalized.

Each trial carries an index into a table of distinct states.  A collapse
onto a rank-1 branch forgets the history, so every parent maps to one child;
a higher-rank branch keeps one child per (parent, branch).  While all
reachable states fit in one chunk, the table and its CDFs are built once per
call; from the first stage where they would not, each chunk keeps a live
table of the states its trials reach, never more than min(chunk, reached).
Cost grows with the number of stages, not of collapse paths, and there is no
cap on paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .algebra import (
    SpectralObservable,
    StateVector,
    Unitary,
)
from .errors import (
    AllRejectedError,
    DimensionMismatchError,
    InsufficientAcceptedTrialsError,
)
from .rules import OutcomeDistribution

CHUNK_SIZE = 4096
ZERO_WEIGHT = 1e-15
MIN_ACCEPTED = 100  # accepted trials below which a distribution is not compared


@dataclass(frozen=True)
class UnitaryStage:
    unitary: Unitary

    @property
    def dim(self) -> int:
        return self.unitary.dim


@dataclass(frozen=True)
class MeasureStage:
    observable: SpectralObservable
    label: str

    @property
    def dim(self) -> int:
        return self.observable.dim


Stage = Union[UnitaryStage, MeasureStage]


def derive_seed(seed: int, offset: int) -> int:
    """The seed of a sub-run: ``seed + offset`` reduced mod 2**64."""
    return (seed + offset) % 2**64


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The documented substream derivation: (seed, chunk) → Philox key."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an integer in [0, 2**64)")
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class OutcomeStat:
    eigenvalue: float
    count: int
    frequency: float
    std_error: float


@dataclass(frozen=True)
class StageTally:
    label: str
    eigenvalues: tuple[float, ...]
    counts_all: tuple[int, ...]  # over every trial
    counts_accepted: tuple[int, ...]  # over post-selected trials only


def _binomial_se(p: float, total: int) -> float:
    return float(np.sqrt(p * (1 - p) / total))


def _freq_stats(eigenvalues, counts, total) -> tuple[OutcomeStat, ...]:
    return tuple(
        OutcomeStat(float(eig), int(count), count / total, _binomial_se(count / total, total))
        for eig, count in zip(eigenvalues, counts)
    )


@dataclass(frozen=True)
class EnsembleStats:
    """Tallies from one simulate() run; all statistics derive from integers."""

    trials: int
    accepted: int
    seed: int
    stages: tuple[StageTally, ...]
    joint_accepted: tuple[tuple[tuple[float, ...], int], ...]  # (outcome tuple, count)
    post_eigenvalues: tuple[float, ...]
    post_counts: tuple[int, ...]
    selected_eigenvalue: float

    @property
    def acceptance(self) -> OutcomeStat:
        return _freq_stats((self.selected_eigenvalue,), (self.accepted,), self.trials)[0]

    def _stage(self, label: str | None) -> StageTally:
        if label is None:
            if len(self.stages) != 1:
                raise ValueError("label required when the run has multiple measurement stages")
            return self.stages[0]
        for st in self.stages:
            if st.label == label:
                return st
        raise ValueError(f"no measurement stage labeled {label!r}")

    def conditional(self, label: str | None = None) -> tuple[OutcomeStat, ...]:
        """Per-outcome frequency ± SE among accepted trials for one stage."""
        st = self._stage(label)
        return _freq_stats(st.eigenvalues, st.counts_accepted, self.accepted)

    def conditional_given(
        self, label: str, given: dict[str, float], tol: float = 1e-9
    ) -> tuple[OutcomeStat, ...]:
        """Conditional frequencies for one stage, additionally fixing other stages.

        ``given`` maps stage labels to required eigenvalues; counts come from
        the accepted-run joint tallies.
        """
        labels = [st.label for st in self.stages]
        target = labels.index(self._stage(label).label)
        fixed = {labels.index(self._stage(k).label): v for k, v in given.items()}
        st = self._stage(label)
        counts = np.zeros(len(st.eigenvalues), dtype=np.int64)
        for outcome, count in self.joint_accepted:
            if all(abs(outcome[i] - v) <= tol for i, v in fixed.items()):
                j = int(np.argmin([abs(e - outcome[target]) for e in st.eigenvalues]))
                counts[j] += count
        total = int(counts.sum())
        if total == 0:
            raise InsufficientAcceptedTrialsError("no accepted trials match the given outcomes")
        return _freq_stats(st.eigenvalues, counts, total)


def _born_cdf(weights: np.ndarray) -> np.ndarray:
    """Inverse-CDF rows over branches, one per state: weights below
    ZERO_WEIGHT count as 0 and the last entry is exactly 1."""
    weights = np.where(weights < ZERO_WEIGHT, 0.0, weights)
    cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    return cum


def _collapse(states: np.ndarray, observable: SpectralObservable):
    """Unnormalized collapsed states P_j|s⟩ indexed [branch, state] and Born
    weights indexed [state, branch], for a table of states (one per row)."""
    collapsed = states @ observable.projectors.transpose(0, 2, 1)
    weights = (collapsed.real**2 + collapsed.imag**2).sum(axis=2).T
    return collapsed, weights


def _sample(cum: np.ndarray, node: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per trial, the number of CDF entries of its state at or below its
    uniform; the last entry is 1 and never counts."""
    branch = np.zeros(u.size, dtype=np.intp)
    for column in cum.T[:-1]:
        branch += u >= column[node]
    return branch


def _children(collapsed, weights, observable, parent, branch):
    """Distinct post-collapse states for (parent, branch) pairs, and each
    pair's index among them.

    A rank-1 branch forgets the history, so all its pairs share one child;
    a higher-rank branch keeps one child per (parent, branch).
    """
    n_states, n_branch = weights.shape
    rank_one = np.rint(np.trace(observable.projectors, axis1=1, axis2=2).real) == 1
    key = np.where(rank_one[branch], n_states, parent) * n_branch + branch
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    p, b = parent[first], branch[first]
    return collapsed[b, p] / np.sqrt(weights[p, b])[:, None], index


def _tally_paths(paths: np.ndarray, counts: np.ndarray):
    """Sum ``counts`` over equal columns of ``paths`` (one row per stage);
    the distinct columns come back in lexicographic order."""
    order = np.lexsort(paths[::-1]) if len(paths) else np.arange(paths.shape[1])
    paths, counts = paths[:, order], counts[order]
    first = np.ones(paths.shape[1], dtype=bool)
    first[1:] = (paths[:, 1:] != paths[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    return paths[:, starts], np.add.reduceat(counts, starts)


def _static_tables(pre: StateVector, stages: Sequence[Stage], bound: int):
    """Branch tables shared by every chunk.

    Walks the timeline over all reachable states while their number stays
    within ``bound``; rank-1 stages keep it at most the branch count.  Returns
    one (cum, child) pair per measurement stage covered, the state table
    where the walk stopped, and the stages left for per-chunk tables.
    """
    states = pre.amps[None, :]
    tables = []
    for i, stage in enumerate(stages):
        if isinstance(stage, UnitaryStage):
            states = states @ stage.unitary.matrix.T
            continue
        collapsed, weights = _collapse(states, stage.observable)
        parent, branch = np.nonzero(weights >= ZERO_WEIGHT)
        children, index = _children(collapsed, weights, stage.observable, parent, branch)
        if len(children) > bound:
            return tables, states, stages[i:]
        child = np.zeros(weights.shape, dtype=np.intp)
        child[parent, branch] = index
        tables.append((_born_cdf(weights), child))
        states = children
    return tables, states, []


def simulate(
    pre: StateVector,
    stages: Sequence[Stage],
    post: tuple[SpectralObservable, float],
    trials: int,
    seed: int,
) -> EnsembleStats:
    """Run ``trials`` prepare/measure/post-select experiments.

    Each trial starts in ``pre``, applies unitary stages exactly, samples
    every measurement stage with Born weights and collapses, then samples the
    final observable and is accepted iff the outcome equals the selected
    eigenvalue.  Raises AllRejectedError when nothing survives.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    post_obs, selected = post
    sel_idx = post_obs.branch_index(selected)
    dim = pre.dim
    for stage in stages:
        if not isinstance(stage, (UnitaryStage, MeasureStage)):
            raise TypeError(f"unsupported stage type {type(stage).__name__}")
        if stage.dim != dim:
            raise DimensionMismatchError(f"stage dim {stage.dim} vs system dim {dim}")
    if post_obs.dim != dim:
        raise DimensionMismatchError(f"post observable dim {post_obs.dim} vs system dim {dim}")
    measure_stages = [s for s in stages if isinstance(s, MeasureStage)]
    labels = [s.label for s in measure_stages]
    if len(set(labels)) != len(labels):
        raise ValueError(f"measurement stage labels must be unique, got {labels}")

    # the final measurement is sampled like the others, as one more stage
    walk = [*stages, MeasureStage(post_obs, "post")]
    tables, static_states, tail = _static_tables(pre, walk, min(trials, CHUNK_SIZE))
    n_branches = [st.observable.num_branches for st in measure_stages]
    path_dtype = np.min_scalar_type(max(n_branches + [post_obs.num_branches]))

    stage_counts_all = [np.zeros(k, dtype=np.int64) for k in n_branches]
    stage_counts_acc = [np.zeros(k, dtype=np.int64) for k in n_branches]
    post_counts = np.zeros(post_obs.num_branches, dtype=np.int64)
    joint = []

    n_chunks = (trials + CHUNK_SIZE - 1) // CHUNK_SIZE
    for k in range(n_chunks):
        m = min(CHUNK_SIZE, trials - k * CHUNK_SIZE)
        rng = chunk_rng(seed, k)
        node = np.zeros(m, dtype=np.intp)
        paths = np.empty((len(measure_stages) + 1, m), dtype=path_dtype)
        for i, (cum, child) in enumerate(tables):
            paths[i] = br = _sample(cum, node, rng.random(m))
            node = child[node, br]
        # live-state table: one row per distinct state some trial of this chunk holds
        states, i = static_states, len(tables)
        for stage in tail:
            if isinstance(stage, UnitaryStage):
                states = states @ stage.unitary.matrix.T
                continue
            collapsed, weights = _collapse(states, stage.observable)
            paths[i] = br = _sample(_born_cdf(weights), node, rng.random(m))
            states, node = _children(collapsed, weights, stage.observable, node, br)
            i += 1
        accepted = paths[:-1, paths[-1] == sel_idx]

        for i, n in enumerate(n_branches):
            stage_counts_all[i] += np.bincount(paths[i], minlength=n)
            stage_counts_acc[i] += np.bincount(accepted[i], minlength=n)
        post_counts += np.bincount(paths[-1], minlength=post_counts.size)
        joint.append(_tally_paths(accepted, np.ones(accepted.shape[1], dtype=np.int64)))

    accepted_total = int(post_counts[sel_idx])
    if accepted_total == 0:
        raise AllRejectedError("zero accepted trials; conditional frequencies undefined")
    joint_paths, joint_counts = zip(*joint)
    joint_paths, joint_counts = _tally_paths(
        np.concatenate(joint_paths, axis=1), np.concatenate(joint_counts)
    )

    tallies = tuple(
        StageTally(
            label=st.label,
            eigenvalues=tuple(float(e) for e in st.observable.eigenvalues),
            counts_all=tuple(int(c) for c in stage_counts_all[i]),
            counts_accepted=tuple(int(c) for c in stage_counts_acc[i]),
        )
        for i, st in enumerate(measure_stages)
    )
    joint_accepted = tuple(
        (tuple(tallies[d].eigenvalues[j] for d, j in enumerate(path)), count)
        for path, count in zip(joint_paths.T.tolist(), joint_counts.tolist())
    )
    return EnsembleStats(
        trials=trials,
        accepted=accepted_total,
        seed=seed,
        stages=tallies,
        joint_accepted=joint_accepted,
        post_eigenvalues=tuple(float(e) for e in post_obs.eigenvalues),
        post_counts=tuple(int(c) for c in post_counts),
        selected_eigenvalue=float(selected),
    )


@dataclass(frozen=True)
class OutcomeComparison:
    eigenvalue: float
    predicted: float
    frequency: float
    std_error: float
    z_score: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    stage: str
    accepted: int
    z_threshold: float
    outcomes: tuple[OutcomeComparison, ...]
    passed: bool


def compare_counts(
    predicted: OutcomeDistribution, counts: Sequence[int], total: int, z: float = 4.0
) -> tuple[OutcomeComparison, ...]:
    """Per-outcome agreement test of ``counts`` out of ``total`` accepted
    trials, in the order of ``predicted``: |frequency - predicted| ≤ z·SE.

    SE is the binomial error of the observed frequency.  When the frequency
    is degenerate (0 or 1, hence SE = 0): an exactly degenerate prediction
    must match exactly; otherwise the prediction's own binomial SE is used.
    Raises InsufficientAcceptedTrialsError below MIN_ACCEPTED accepted trials,
    ValueError when there is not one count per predicted outcome.
    """
    if len(counts) != len(predicted.eigenvalues):
        raise ValueError(f"{len(counts)} counts for {len(predicted.eigenvalues)} predicted outcomes")
    if total < MIN_ACCEPTED:
        raise InsufficientAcceptedTrialsError(f"{total} accepted trials < floor {MIN_ACCEPTED}")
    outcomes = []
    for stat, p in zip(_freq_stats(predicted.eigenvalues, counts, total), predicted.probabilities):
        se = stat.std_error
        if se == 0.0 and (p <= 1e-12 or p >= 1 - 1e-12):
            ok = abs(stat.frequency - p) <= 1e-12
            z_score = 0.0 if ok else float("inf")
        else:
            se = se or _binomial_se(p, total)
            z_score = (stat.frequency - p) / se
            ok = abs(z_score) <= z
        outcomes.append(OutcomeComparison(stat.eigenvalue, p, stat.frequency, se, z_score, ok))
    return tuple(outcomes)


def compare_to_abl(
    stats: EnsembleStats,
    predicted: OutcomeDistribution,
    z: float = 4.0,
    stage_label: str | None = None,
) -> ComparisonReport:
    """``compare_counts`` of one stage's accepted tallies, matched to
    ``predicted`` by eigenvalue."""
    stage = stats._stage(stage_label)
    counts = []
    for eig in predicted.eigenvalues:
        hits = [c for e, c in zip(stage.eigenvalues, stage.counts_accepted) if abs(e - eig) <= 1e-9]
        if len(hits) != 1:
            raise ValueError(f"predicted eigenvalue {eig!r} does not match the sampled stage")
        counts.append(hits[0])
    outcomes = compare_counts(predicted, counts, stats.accepted, z)
    return ComparisonReport(stage.label, stats.accepted, z, outcomes, all(o.passed for o in outcomes))
