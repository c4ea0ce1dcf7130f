"""Monte-Carlo oracle: determinism, collapse sampling, agreement tests."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.algebra import (
    SpectralObservable,
    StateVector,
    Unitary,
    basis_state,
    bell_basis,
    expand_observable,
    identity_observable,
    pauli,
    spin_observable,
    spin_state,
    state_projector_observable,
    tensor,
)
from twostate.errors import (
    AllRejectedError,
    InsufficientAcceptedTrialsError,
)
from twostate.montecarlo import (
    MIN_ACCEPTED,
    MeasureStage,
    UnitaryStage,
    chunk_rng,
    compare_counts,
    compare_to_abl,
    derive_seed,
    simulate,
)
from twostate import checks
from twostate.checks import check_conditional_counterexample
from twostate.rules import OutcomeDistribution, TwoStateVector, abl_probabilities, born_probabilities
from twostate.scenarios import ScenarioSpec, builtin, run_scenario

UP_Z = basis_state(2, 0)


def random_state(rng, dim):
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_observable(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return SpectralObservable.from_hermitian((m + m.conj().T) / 2)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def basis_observable(rng, dim, ranks):
    """Eigenvalues 1, 2, ... on consecutive blocks of a random basis, one block per rank."""
    basis = random_unitary(rng, dim)
    projs, start = [], 0
    for rank in ranks:
        block = basis[:, start:start + rank]
        start += rank
        projs.append(block @ block.conj().T)
    return SpectralObservable(np.arange(1.0, len(ranks) + 1), np.array(projs))


def random_timeline(seed, dim, n_stages, ranks):
    """pre, stages, post: random unitaries alternating with measurements, rank-1 post-selection."""
    rng = np.random.default_rng(seed)
    stages = []
    for k in range(n_stages):
        stages.append(UnitaryStage(Unitary(random_unitary(rng, dim))))
        stages.append(MeasureStage(basis_observable(rng, dim, ranks), f"m{k}"))
    pre = random_state(rng, dim)
    return pre, stages, (basis_observable(rng, dim, (1,) * dim), 1.0)


def ensemble_digest(stats):
    """sha256 over every EnsembleStats field, joint tallies in their reported order."""
    doc = [
        stats.trials, stats.accepted, stats.seed,
        [[st.label, [round(e, 9) for e in st.eigenvalues], list(st.counts_all), list(st.counts_accepted)]
         for st in stats.stages],
        [[[round(e, 9) for e in outcome], count] for outcome, count in stats.joint_accepted],
        [round(e, 9) for e in stats.post_eigenvalues], list(stats.post_counts),
        round(stats.selected_eigenvalue, 9),
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class TestRngDerivation:
    def test_golden_stream(self):
        # pins the documented (seed, chunk) -> Philox key derivation
        np.testing.assert_allclose(
            chunk_rng(12345, 0).random(4),
            [0.6463801884227345, 0.7742675977164786, 0.7864362639285933, 0.15959668272284822],
            rtol=0,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            chunk_rng(12345, 1).random(4),
            [0.3457138384499022, 0.91432964790616, 0.3330928825814764, 0.05342747044166918],
            rtol=0,
            atol=1e-15,
        )

    def test_streams_reproduce(self):
        assert np.array_equal(chunk_rng(9, 3).random(16), chunk_rng(9, 3).random(16))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            chunk_rng(-1, 0)

    def test_rejects_seed_beyond_64_bits(self):
        with pytest.raises(ValueError):
            chunk_rng(2**64, 0)
        assert np.array_equal(chunk_rng(2**64 - 1, 0).random(4), chunk_rng(2**64 - 1, 0).random(4))

    def test_sub_seeds_wrap_at_64_bits(self):
        assert derive_seed(7, 100) == 107  # below 2**64 a sub-seed is the plain sum
        assert derive_seed(2**64 - 1, 1) == 0
        assert derive_seed(2**64 - 1, 108) == 107


class TestSimulate:
    def test_eigenstate_rechecked_every_trial(self):
        stats = simulate(UP_Z, [], (pauli("z"), 1.0), 5000, 1)
        assert stats.accepted == stats.trials == 5000

    def test_golden_tallies(self):
        stats = simulate(
            UP_Z, [MeasureStage(spin_observable(np.pi / 2), "probe")], (pauli("z"), 1.0), 1000, 42
        )
        assert stats.accepted == 500
        assert stats.stages[0].counts_all == (498, 502)
        assert stats.stages[0].counts_accepted == (248, 252)
        assert stats.post_counts == (500, 500)

    def test_deterministic_for_fixed_seed(self):
        args = (
            UP_Z,
            [MeasureStage(spin_observable(0.9), "probe")],
            (pauli("z"), 1.0),
            10_000,
            17,
        )
        assert simulate(*args) == simulate(*args)

    def test_seed_changes_stream(self):
        probe = MeasureStage(spin_observable(0.9), "probe")
        a = simulate(UP_Z, [probe], (pauli("z"), 1.0), 10_000, 17)
        b = simulate(UP_Z, [probe], (pauli("z"), 1.0), 10_000, 18)
        assert a != b

    def test_all_rejected(self):
        with pytest.raises(AllRejectedError):
            simulate(UP_Z, [], (pauli("z"), -1.0), 1000, 0)

    def test_unknown_post_eigenvalue(self):
        with pytest.raises(ValueError):
            simulate(UP_Z, [], (pauli("z"), 0.25), 10, 0)

    def test_collapse_frequencies_match_single_measurement_rule(self):
        # trivial identity post: nothing is conditioned away
        rng = np.random.default_rng(2)
        for _ in range(5):
            psi = random_state(rng, 2)
            obs = random_observable(rng, 2)
            stats = simulate(
                psi, [MeasureStage(obs, "m")], (identity_observable(2), 1.0), 40_000, 3
            )
            assert stats.accepted == stats.trials
            predicted = born_probabilities(psi, obs)
            for stat in stats.conditional("m"):
                p = predicted.probability(stat.eigenvalue)
                se = max(stat.std_error, np.sqrt(p * (1 - p) / stats.trials))
                assert abs(stat.frequency - p) <= 4 * se + 1e-12

    def test_conditional_frequency_matches_abl(self):
        probe = spin_observable(np.pi / 2)
        stats = simulate(UP_Z, [MeasureStage(probe, "probe")], (pauli("z"), 1.0), 100_000, 5)
        predicted = abl_probabilities(TwoStateVector(UP_Z, UP_Z), probe)
        report = compare_to_abl(stats, predicted, z=4)
        assert report.passed

    def test_unitary_stage_transports(self):
        # flip up to down before re-measuring: acceptance selects the flipped state
        flip = UnitaryStage(Unitary(np.array([[0, 1], [1, 0]], dtype=complex)))
        stats = simulate(UP_Z, [flip], (pauli("z"), -1.0), 2000, 8)
        assert stats.accepted == 2000

    def test_joint_tallies_and_branch_conditioning(self):
        particle = spin_state(0.9, 0.4)
        pre = tensor(particle, basis_state(2, 0))
        stages = [
            MeasureStage(bell_basis(), "bell"),
            MeasureStage(expand_observable(pauli("y"), after=2), "sy"),
        ]
        post = (expand_observable(pauli("x"), after=2), 1.0)
        stats = simulate(pre, stages, post, 60_000, 12)
        total_joint = sum(count for _, count in stats.joint_accepted)
        assert total_joint == stats.accepted
        for branch in (1.0, 2.0, 3.0, 4.0):
            for stat in stats.conditional_given("sy", {"bell": branch}):
                assert abs(stat.frequency - 0.5) <= 4 * stat.std_error


class TestGoldenEnsembles:
    """Complete tallies of four fixed runs, pinned so that any change to the
    sampler's use of the random stream or to its collapse bookkeeping shows."""

    def test_qubit_single_stage(self):
        stats = simulate(
            spin_state(1.1, 0.3), [MeasureStage(spin_observable(0.9, 0.2), "probe")],
            (pauli("x"), 1.0), 20_000, 101,
        )
        assert stats.accepted == 17461
        assert stats.stages[0].counts_all == (19754, 246)
        assert stats.post_counts == (2539, 17461)
        assert ensemble_digest(stats) == "2160ad3d3415224cc26e14d1333301574f7a49afc5e99ab9b23f994b41274148"

    def test_erasure_degenerate_stage(self):
        spec = builtin("erasure")
        stats = simulate(
            spec.pre, list(spec.timeline), (spec.post_observable, spec.post_select), 20_000, 102
        )
        assert stats.accepted == 10113
        assert stats.stages[1].counts_accepted == (5055, 5058)
        assert len(stats.joint_accepted) == 8
        assert ensemble_digest(stats) == "5d31d543ed8390d17542ecdf495110b0ae1fa30ae9f74866ec771fec1a5ec8ce"

    def test_rank_one_d4_seven_stages(self):
        stats = simulate(*random_timeline(7, 4, 7, (1,) * 4), 20_000, 103)
        assert stats.accepted == 4991
        assert stats.post_counts == (4991, 4974, 5005, 5030)
        assert len(stats.joint_accepted) == 2092
        assert ensemble_digest(stats) == "b428fa94d106182fe81b7f1bf4c0c93c23d4356690a39e189173eb51fb39147c"

    def test_rank_four_d8_four_stages(self):
        stats = simulate(*random_timeline(8, 8, 4, (4, 4)), 20_000, 104)
        assert stats.accepted == 2113
        assert stats.stages[0].counts_all == (11350, 8650)
        assert len(stats.joint_accepted) == 15
        assert ensemble_digest(stats) == "e35b5e25a7608cf99d9c55da4c5737603eb23312a3613f7abebbac367b892ccf"


class TestCompareToAbl:
    def test_exact_match_rule_for_degenerate_se(self):
        stats = simulate(UP_Z, [MeasureStage(pauli("z"), "m")], (pauli("z"), 1.0), 5000, 3)
        predicted = abl_probabilities(TwoStateVector(UP_Z, UP_Z), pauli("z"))
        report = compare_to_abl(stats, predicted, z=4)
        assert report.passed
        assert all(o.std_error == 0.0 for o in report.outcomes)

    def test_wrong_prediction_rejected(self):
        # swapping in the unconditioned prediction (0.75) must fail loudly
        probe = spin_observable(np.pi / 3)
        stats = simulate(UP_Z, [MeasureStage(probe, "probe")], (pauli("z"), 1.0), 100_000, 6)
        wrong = OutcomeDistribution((1.0, -1.0), (0.75, 0.25))
        report = compare_to_abl(stats, wrong, z=4)
        assert not report.passed
        assert max(abs(o.z_score) for o in report.outcomes) > 50

    def test_accepted_floor(self):
        # every trial is accepted, so 99 trials sit one below the floor
        stats = simulate(UP_Z, [MeasureStage(pauli("z"), "m")], (pauli("z"), 1.0), 99, 3)
        assert stats.accepted == 99
        predicted = abl_probabilities(TwoStateVector(UP_Z, UP_Z), pauli("z"))
        with pytest.raises(InsufficientAcceptedTrialsError):
            compare_to_abl(stats, predicted)


HALF = OutcomeDistribution((1.0, -1.0), (0.5, 0.5))


class TestCompareCounts:
    def test_floor_is_one_hundred_accepted_trials(self):
        assert MIN_ACCEPTED == 100
        with pytest.raises(InsufficientAcceptedTrialsError, match="99 accepted trials < floor 100"):
            compare_counts(HALF, (50, 49), 99)
        outcomes = compare_counts(HALF, (50, 50), 100)
        assert [o.z_score for o in outcomes] == [0.0, 0.0]
        assert all(o.passed for o in outcomes)

    @pytest.mark.parametrize("counts", [(300,), (200, 200, 200)])
    def test_one_count_per_predicted_outcome(self, counts):
        with pytest.raises(ValueError, match=f"{len(counts)} counts for 2 predicted outcomes"):
            compare_counts(HALF, counts, 600)

    def test_degenerate_frequency_and_prediction_must_match_exactly(self):
        certain = OutcomeDistribution((1.0, -1.0), (1.0, 0.0))
        outcomes = compare_counts(certain, (100, 0), 100)
        assert [(o.std_error, o.z_score, o.passed) for o in outcomes] == [(0.0, 0.0, True)] * 2
        outcomes = compare_counts(certain, (0, 100), 100)
        assert [(o.std_error, o.z_score, o.passed) for o in outcomes] == [(0.0, float("inf"), False)] * 2

    def test_degenerate_frequency_uses_the_prediction_se(self):
        # every count on +1: the observed SE is 0, so each outcome is tested
        # with the prediction's binomial SE sqrt(p (1 - p) / total)
        near = OutcomeDistribution((1.0, -1.0), (0.99, 0.01))
        outcomes = compare_counts(near, (100, 0), 100)
        se = [np.sqrt(p * (1 - p) / 100) for p in (0.99, 0.01)]
        assert [o.std_error for o in outcomes] == se
        assert [o.z_score for o in outcomes] == [(1 - 0.99) / se[0], (0 - 0.01) / se[1]]
        assert all(o.passed for o in outcomes)  # |z| = 1.005
        far = OutcomeDistribution((1.0, -1.0), (0.9, 0.1))
        assert [round(o.z_score, 2) for o in compare_counts(far, (400, 0), 400)] == [6.67, -6.67]
        assert not any(o.passed for o in compare_counts(far, (400, 0), 400))

    def test_all_rejected_is_insufficient(self):
        assert issubclass(AllRejectedError, InsufficientAcceptedTrialsError)
        with pytest.raises(InsufficientAcceptedTrialsError):
            simulate(UP_Z, [], (pauli("z"), -1.0), 10, 0)

    @given(counts=st.lists(st.integers(0, 10_000), min_size=1, max_size=8).filter(lambda c: sum(c) >= 100))
    @settings(max_examples=200, deadline=None)
    def test_prediction_equal_to_frequencies_passes_with_zero_z(self, counts):
        total = sum(counts)
        predicted = OutcomeDistribution(tuple(float(j) for j in range(len(counts))), tuple(c / total for c in counts))
        outcomes = compare_counts(predicted, counts, total)
        assert [o.z_score for o in outcomes] == [0.0] * len(counts)
        assert all(o.passed for o in outcomes)


class TestInterpretationB:
    """The tilted probe between equal selections, the ``spin-zz-xi``
    scenario: the conditional rule, not the unconditioned single-measurement
    prediction, describes the probe that is actually measured."""

    @staticmethod
    def _probe(theta, trials, seed):
        spec = builtin("spin-zz-xi", theta=theta)
        born = born_probabilities(spec.pre, spec.timeline[0].observable).probability(1.0)
        stage = run_scenario(spec, mode="both", trials=trials, seed=seed).stages[0]
        up = stage.eigenvalues.index(1.0)
        return born, stage.analytic[up], stage.frequencies[up], stage.std_errors[up], stage.z_scores[up]

    def test_sixty_degrees(self):
        born, abl, frequency, se, z_abl = self._probe(np.pi / 3, 100_000, 22)
        assert born == pytest.approx(0.75, abs=1e-12)
        assert abl == pytest.approx(0.9, abs=1e-12)
        assert abs(z_abl) <= 4
        assert abs(frequency - born) / se >= 50
        assert frequency == 0.8989558232931727  # 55960 of 62250 accepted, simulate seed 22

    def test_aligned(self):
        born, abl, frequency, _, _ = self._probe(0.0, 2000, 23)
        assert born == pytest.approx(1.0, abs=1e-12)
        assert abl == pytest.approx(1.0, abs=1e-12)
        assert frequency == 1.0

    def test_anti_aligned(self):
        born, abl, frequency, _, _ = self._probe(np.pi, 2000, 24)
        assert born == pytest.approx(0.0, abs=1e-12)
        assert abl == pytest.approx(0.0, abs=1e-12)
        assert frequency == 0.0

    def test_misordered_probe_outcomes_select_by_eigenvalue(self, monkeypatch):
        # the battery row reads the probe's +1 row by eigenvalue, so a tally
        # listing the branches in the other order reports the same numbers
        expected = check_conditional_counterexample(21, 20_000)
        real = checks.simulate

        def reversed_branches(*args, **kwargs):
            stats = real(*args, **kwargs)
            stages = tuple(
                dataclasses.replace(
                    st,
                    eigenvalues=st.eigenvalues[::-1],
                    counts_all=st.counts_all[::-1],
                    counts_accepted=st.counts_accepted[::-1],
                )
                for st in stats.stages
            )
            return dataclasses.replace(stats, stages=stages)

        monkeypatch.setattr(checks, "simulate", reversed_branches)
        assert check_conditional_counterexample(21, 20_000) == expected
        assert expected.status == "pass"


class TestSymmetryExperiment:
    """With pre = post = psi, a probe measured before an intermediate
    measurement behaves like the same probe measured after it: the scenarios
    [probe, middle] and [middle, probe], on seeds ``seed`` and
    ``derive_seed(seed, 1)``."""

    @staticmethod
    def _probes(middle, probe, trials, seed, z=4.0):
        stages = (MeasureStage(probe, "probe"), MeasureStage(middle, "middle"))
        reports = [
            run_scenario(
                ScenarioSpec(
                    name=name,
                    dim=2,
                    pre=UP_Z,
                    timeline=timeline,
                    post_observable=state_projector_observable(UP_Z),
                    post_select=1.0,
                ),
                mode="both", trials=trials, seed=derive_seed(seed, j), z=z,
            )
            for j, (name, timeline) in enumerate((("probe-early", stages), ("probe-late", stages[::-1])))
        ]
        assert all(report.passed for report in reports)
        early, late = (next(st for st in r.stages if st.label == "probe") for r in reports)
        assert early.eigenvalues == late.eigenvalues
        assert np.allclose(early.analytic, late.analytic, atol=1e-12, rtol=0)
        for fe, fl, se, sl in zip(early.frequencies, late.frequencies, early.std_errors, late.std_errors):
            combined = np.hypot(se, sl)
            if combined == 0.0:
                assert abs(fe - fl) <= 1e-12
            else:
                assert abs(fe - fl) <= z * combined
        return early, late

    def test_probe_before_equals_probe_after(self):
        early, _ = self._probes(pauli("x"), pauli("y"), 50_000, 31)
        for f, se in zip(early.frequencies, early.std_errors):
            assert abs(f - 0.5) <= 4 * se

    def test_repeatability_when_probe_equals_middle(self):
        early, _ = self._probes(pauli("x"), pauli("x"), 20_000, 32)
        assert early.analytic == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_eigenstate_probe_certain(self):
        early, late = self._probes(pauli("z"), pauli("z"), 5000, 33)
        for stage in (early, late):
            freqs = dict(zip(stage.eigenvalues, stage.frequencies))
            assert freqs[1.0] == 1.0 and freqs[-1.0] == 0.0


class TestAblAgreementBattery:
    def test_random_scenarios_pass_at_z4(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 10:
            pre, post = random_state(rng, 2), random_state(rng, 2)
            obs = random_observable(rng, 2)
            acceptance = sum(
                abs(np.vdot(post.amps, p @ pre.amps)) ** 2 for p in obs.projectors
            )
            if acceptance < 0.05:
                continue
            stats = simulate(
                pre,
                [MeasureStage(obs, "m")],
                (state_projector_observable(post), 1.0),
                30_000,
                int(rng.integers(0, 2**32)),
            )
            predicted = abl_probabilities(TwoStateVector(pre, post), obs)
            assert compare_to_abl(stats, predicted, z=4).passed
            done += 1
