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
rejected rather than reduced.  One generator per call is re-keyed to
``[s, k]`` with counter 0 at each chunk, which replays that stream.  A
sub-run's seed, ``derive_seed(s, offset)``, is ``s + offset`` mod 2**64.
Within a chunk, one uniform array is consumed per measurement stage and one
for the final measurement, in timeline order.  Golden tests pin the
derivation and complete tallies of fixed runs.

Branch sampling is inverse-CDF over branches in observable order, with the
cumulative weights renormalized so the last entry is exactly 1.  Branches of
Born weight below 1e-15 get exact weight 0, so a null vector is never
normalized.

Each trial carries an index into a table of distinct states; a rank-1
collapse forgets the history, a higher-rank one keeps one child per (parent,
branch).  The tables are built once per call while states × branches at each
measurement is at most min(trials, chunk × the widest measurement's branch
count), so the state table never holds more amplitudes than one chunk's
widest collapse; from the first measurement past that bound, checked before
it is weighed, each chunk keeps a live table of the states its trials reach,
at most min(chunk, reached).  Born weights are collapsed chunk / branches
states at a time; a child is formed only for a distinct reached (parent,
branch) pair, by collapsing the parent onto that branch's projector alone,
chunk rows at a time, so no (branch, state, dim) tensor over a table is built.

Each trial also carries a mixed-radix path code: stage 0 is the most
significant digit, the final outcome the least, and past 2**63 paths it is a
Python integer.  Tallies are integer sums over the codes, so a result does
not depend on how chunks are scheduled.  Up to 4096 paths, a bincount per
chunk fills a table of every path whose marginals and accepted slice give
every tally; beyond, each chunk's accepted codes are sorted and summed, then
merged.  Cost grows with the stages, not the paths, and neither is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .algebra import SpectralObservable, StateVector, Unitary, _branch_of
from .errors import AllRejectedError, DimensionMismatchError, InsufficientAcceptedTrialsError
from .rules import OutcomeDistribution

CHUNK_SIZE = 4096
ZERO_WEIGHT = 1e-15
MIN_ACCEPTED = 100  # accepted trials below which a distribution is not compared
Z_THRESHOLD = 4.0  # default agreement threshold, in standard errors


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


def _integer(name: str, value) -> int:
    """``value`` as a Python int, else ValueError naming it as given (numpy's integers count, bools do not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def derive_seed(seed: int, offset: int) -> int:
    """The seed of a sub-run: ``seed + offset`` reduced mod 2**64."""
    return (_integer("seed", seed) + offset) % 2**64


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The documented substream derivation: (seed, chunk) → Philox key."""
    if not 0 <= _integer("seed", seed) < 2**64:
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
    # each distinct accepted path in path-code order: its branch indices as
    # uint16, stage-major, and its count as int64
    joint_paths: bytes
    joint_counts: bytes
    post_eigenvalues: tuple[float, ...]
    post_counts: tuple[int, ...]
    selected_eigenvalue: float

    def _joint(self) -> tuple[np.ndarray, np.ndarray]:
        """The accepted paths' branch indices, one row per measurement stage, and their counts."""
        counts = np.frombuffer(self.joint_counts, dtype=np.int64)
        return np.frombuffer(self.joint_paths, dtype=np.uint16).reshape(len(self.stages), counts.size), counts

    @cached_property
    def joint_accepted(self) -> tuple[tuple[tuple[float, ...], int], ...]:
        """(outcome tuple, count) per distinct accepted path, in path-code order."""
        paths, counts = self._joint()
        return tuple(
            (tuple(self.stages[d].eigenvalues[j] for d, j in enumerate(path)), count)
            for path, count in zip(paths.T.tolist(), counts.tolist())
        )

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

    def conditional_given(self, label: str, given: dict[str, float]) -> tuple[OutcomeStat, ...]:
        """Conditional frequencies for one stage, additionally fixing other stages.

        ``given`` maps stage labels to required eigenvalues, each naming one
        branch of its stage (else ValueError); counts come from the
        accepted-run joint tallies (none match: InsufficientAcceptedTrialsError).
        """
        st = self._stage(label)
        paths, counts = self._joint()
        keep = np.ones(counts.size, dtype=bool)
        for name, value in given.items():
            fixed = self._stage(name)
            try:
                branch = _branch_of(fixed.eigenvalues, value, f"stage {fixed.label!r}")
            except ValueError as exc:
                raise ValueError(f"given {exc}") from None
            keep &= paths[self.stages.index(fixed)] == branch
        matched = _branch_counts(paths[self.stages.index(st)][keep], counts[keep], len(st.eigenvalues))
        total = sum(matched)
        if total == 0:
            raise InsufficientAcceptedTrialsError("no accepted trials match the given outcomes")
        return _freq_stats(st.eigenvalues, matched, total)


def _branch_counts(row: np.ndarray, counts: np.ndarray, n: int) -> tuple[int, ...]:
    """Integer sums of ``counts`` per branch index 0..n-1 given in ``row``."""
    return tuple(int(counts[row == j].sum()) for j in range(n))


def _born_cdf(weights: np.ndarray) -> np.ndarray:
    """Inverse-CDF rows over branches, one per state: weights below
    ZERO_WEIGHT count as 0 and the last entry is exactly 1."""
    cum = np.where(weights < ZERO_WEIGHT, 0.0, weights)
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    cum[:, -1] = 1.0
    return cum


def _born_weights(states: np.ndarray, observable: SpectralObservable) -> np.ndarray:
    """Born weights ‖P_j|s⟩‖² indexed [state, branch] for a table of states
    (one per row), collapsed CHUNK_SIZE // branches states at a time, so no
    block holds more than CHUNK_SIZE × dim amplitudes."""
    step = CHUNK_SIZE // observable.num_branches
    weights = np.empty((len(states), observable.num_branches))
    for r in range(0, len(states), step):
        collapsed = states[r:r + step] @ observable.projectors.transpose(0, 2, 1)
        weights[r:r + step] = (collapsed.real**2 + collapsed.imag**2).sum(axis=2).T
    return weights


def _sample(cum: np.ndarray, node: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per trial, the number of CDF entries of its state at or below its
    uniform; the last entry is 1 and never counts."""
    branch = np.zeros(u.size, dtype=np.intp)
    for column in cum.T[:-1]:
        branch += u >= (column[node] if len(column) > 1 else column[0])
    return branch


def _children(states, weights, observable, parent, branch):
    """The distinct normalized states P_b|s_p⟩ / ‖P_b|s_p⟩‖ of the given
    (parent, branch) pairs, each collapsed onto its own branch's projector
    alone, CHUNK_SIZE rows at a time, and each given pair's index among them.

    A rank-1 branch forgets the history, so all its pairs share one child;
    a higher-rank branch keeps one child per (parent, branch).
    """
    n_states, n_branch = weights.shape
    rank_one = np.rint(np.trace(observable.projectors, axis1=1, axis2=2).real) == 1
    key = np.where(rank_one[branch], n_states, parent) * n_branch + branch
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    p, b = parent[first], branch[first]
    children = np.empty((len(p), states.shape[1]), dtype=states.dtype)
    for j, projector in enumerate(observable.projectors):
        rows = np.flatnonzero(b == j)
        for r in range(0, len(rows), CHUNK_SIZE):
            block = rows[r:r + CHUNK_SIZE]
            children[block] = states[p[block]] @ projector.T
    children /= np.sqrt(weights[p, b])[:, None]
    return children, index


def _tally(codes: np.ndarray, counts: np.ndarray):
    """Sum ``counts`` over equal ``codes``; the distinct codes come back sorted."""
    order = np.argsort(codes)
    codes, counts = codes[order], counts[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[starts], np.add.reduceat(counts, starts)


def _static_tables(pre: StateVector, stages: Sequence[Stage], bound: int):
    """Branch tables shared by every chunk, built while each measurement's
    states × branches is at most ``bound``: one (cum, child) pair per stage
    covered, ``child`` flat over (state, branch) and None for the final stage;
    the state table where the walk stopped; the stages left for live tables."""
    states = pre.amps[None, :]
    tables = []
    for i, stage in enumerate(stages):
        if isinstance(stage, UnitaryStage):
            states = states @ stage.unitary.matrix.T
            continue
        final = i == len(stages) - 1  # no state after the final measurement is read
        if not final and len(states) * stage.observable.num_branches > bound:
            return tables, states, stages[i:]
        weights = _born_weights(states, stage.observable)
        if final:
            tables.append((_born_cdf(weights), None))
            break
        parent, branch = np.nonzero(weights >= ZERO_WEIGHT)
        states, index = _children(states, weights, stage.observable, parent, branch)
        child = np.zeros(weights.shape, dtype=np.intp)
        child[parent, branch] = index
        tables.append((_born_cdf(weights), child.ravel()))
    return tables, states, []


def _chunk_rngs(seed: int, chunks):
    """``(k, chunk_rng(seed, k))`` for each k of ``chunks``: one Philox, re-keyed with counter 0."""
    rng = chunk_rng(seed, 0)
    state = rng.bit_generator.state
    for k in chunks:
        state["state"]["key"][1] = k
        rng.bit_generator.state = state
        yield k, rng


def _branches(tables, states, tail, rng, m: int):
    """One chunk of ``m`` trials: each measurement stage's sampled branches
    in timeline order, from one ``rng.random(m)`` per stage."""
    node = np.zeros(m, dtype=np.intp)
    for cum, child in tables:
        br = _sample(cum, node, rng.random(m))
        if child is not None:
            node = child[node * cum.shape[1] + br]
        yield br
    if tail:  # live-state table: one row per distinct state some trial of this chunk holds
        used, node = np.unique(node, return_inverse=True)
        states = states[used]
    for stage in tail:
        if isinstance(stage, UnitaryStage):
            states = states @ stage.unitary.matrix.T
            continue
        weights = _born_weights(states, stage.observable)
        br = _sample(_born_cdf(weights), node, rng.random(m))
        if stage is not tail[-1]:
            states, node = _children(states, weights, stage.observable, node, br)
        yield br


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
    eigenvalue.  Raises AllRejectedError when nothing survives; ValueError
    when ``trials`` or ``seed`` is no integer (numpy's count, bools do not).
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
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
    radix = [st.observable.num_branches for st in walk if isinstance(st, MeasureStage)]
    # the state table holds no more amplitudes than one chunk's widest collapse
    tables, static_states, tail = _static_tables(pre, walk, min(trials, CHUNK_SIZE * max(radix)))
    size = math.prod(radix)  # path codes: mixed radix, stage 0 most significant
    dense = size <= CHUNK_SIZE  # then one table of every path per call
    table = np.zeros(size if dense else 0, dtype=np.int64)
    counts_all = [np.zeros(n, dtype=np.int64) for n in radix]
    joint = []

    for k, rng in _chunk_rngs(seed, range((trials + CHUNK_SIZE - 1) // CHUNK_SIZE)):
        m = min(CHUNK_SIZE, trials - k * CHUNK_SIZE)
        code = 0 if size < 2**63 else np.zeros(m, dtype=object)  # Python integers past int64
        for i, br in enumerate(_branches(tables, static_states, tail, rng, m)):
            code = code * radix[i] + br
            if not dense:
                counts_all[i] += np.bincount(br, minlength=radix[i])
        if dense:
            table += np.bincount(code, minlength=size)
        else:
            accepted = code[br == sel_idx] // radix[-1]
            joint.append(_tally(accepted, np.ones(len(accepted), dtype=np.int64)))

    if dense:
        counts_all = [np.moveaxis(table.reshape(radix), i, 0).reshape(n, -1).sum(1) for i, n in enumerate(radix)]
        accepted = table[sel_idx::radix[-1]]  # indexed by the measurement stages' path code
        joint_codes = np.flatnonzero(accepted)
        joint_counts = accepted[joint_codes]
    else:
        joint_codes, joint_counts = _tally(*map(np.concatenate, zip(*joint)))
    accepted_total = int(counts_all[-1][sel_idx])
    if accepted_total == 0:
        raise AllRejectedError("zero accepted trials; conditional frequencies undefined")
    # the accepted paths' branch indices, one row per measurement stage
    paths = np.zeros((len(measure_stages), len(joint_codes)), dtype=np.uint16)
    for i in reversed(range(len(measure_stages))):
        joint_codes, paths[i] = joint_codes // radix[i], joint_codes % radix[i]
    tallies = tuple(
        StageTally(
            label=st.label,
            eigenvalues=tuple(float(e) for e in st.observable.eigenvalues),
            counts_all=tuple(int(c) for c in counts),
            counts_accepted=_branch_counts(row, joint_counts, counts.size),
        )
        for st, counts, row in zip(measure_stages, counts_all, paths)
    )
    return EnsembleStats(
        trials=trials,
        accepted=accepted_total,
        seed=seed,
        stages=tallies,
        joint_paths=paths.tobytes(),
        joint_counts=joint_counts.tobytes(),
        post_eigenvalues=tuple(float(e) for e in post_obs.eigenvalues),
        post_counts=tuple(int(c) for c in counts_all[-1]),
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
    predicted: OutcomeDistribution, counts: Sequence[int], total: int, z: float = Z_THRESHOLD
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
    z: float = Z_THRESHOLD,
    stage_label: str | None = None,
) -> ComparisonReport:
    """``compare_counts`` of one stage's accepted tallies, matched to
    ``predicted`` by eigenvalue."""
    stage = stats._stage(stage_label)
    counts = []
    for eig in predicted.eigenvalues:
        try:
            counts.append(stage.counts_accepted[_branch_of(stage.eigenvalues, eig, f"stage {stage.label!r}")])
        except ValueError as exc:
            raise ValueError(f"predicted eigenvalue {eig!r} does not match the sampled stage") from exc
    outcomes = compare_counts(predicted, counts, stats.accepted, z)
    return ComparisonReport(stage.label, stats.accepted, z, outcomes, all(o.passed for o in outcomes))
