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
    DimensionMismatchError,
    InsufficientAcceptedTrialsError,
)
from twostate.montecarlo import (
    CHUNK_SIZE,
    MIN_ACCEPTED,
    MeasureStage,
    OutcomeComparison,
    UnitaryStage,
    Verdict,
    _born_cdf,
    _chunk_rngs,
    _sample,
    _static_tables,
    chunk_rng,
    compare_counts,
    compare_to_abl,
    derive_seed,
    simulate,
)
from twostate import montecarlo, scenarios
from twostate.checks import check_conditional_counterexample
from twostate.rules import OutcomeDistribution, TwoStateVector, abl_probabilities, born_probabilities
from twostate.scenarios import ScenarioSpec, WeakStage, builtin, run_scenario

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


def builtin_run(name, trials, seed):
    spec = builtin(name)
    return simulate(spec.pre, list(spec.timeline), (spec.post_observable, spec.post_select), trials, seed)


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
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekeyed_generator_replays_chunk_rng(self, seed):
        # simulate's one Philox, re-keyed per chunk after a partial draw,
        # yields the documented substreams
        for chunk, rng in _chunk_rngs(seed, [0, 1, 24, 2**40]):
            expected = chunk_rng(seed, chunk)
            assert np.array_equal(rng.random((3, 7)), expected.random((3, 7)))
            assert np.array_equal(rng.random(9), expected.random(9))
            rng.integers(2**32, dtype=np.uint32)  # leaves half a 64-bit word buffered

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

    @pytest.mark.parametrize("stages, post, trials, error, match", [
        ([], pauli("z"), 0, ValueError, "trials must be >= 1"),
        ([WeakStage(pauli("z").operator, 0.1, "w")], pauli("z"), 10, TypeError, "unsupported stage type WeakStage"),
        ([MeasureStage(identity_observable(3), "m")], pauli("z"), 10, DimensionMismatchError,
         "stage dim 3 vs system dim 2"),
        ([], identity_observable(3), 10, DimensionMismatchError, "post observable dim 3 vs system dim 2"),
        ([MeasureStage(pauli("x"), "m"), MeasureStage(pauli("y"), "m")], pauli("z"), 10, ValueError,
         r"measurement stage labels must be unique, got \['m', 'm'\]"),
    ])
    def test_rejects_malformed_runs(self, stages, post, trials, error, match):
        with pytest.raises(error, match=match):
            simulate(UP_Z, stages, (post, 1.0), trials, 1)

    @pytest.mark.parametrize("trials, seed, name", [
        (True, 1, "trials"), (2.5, 1, "trials"), (10, True, "seed"), (10, 2.5, "seed"), (10, np.float64(1), "seed"),
    ])
    def test_trials_and_seed_must_be_integers(self, trials, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            simulate(UP_Z, [], (pauli("z"), 1.0), trials, seed)

    def test_numpy_integer_trials_and_seed_run_as_python_ones(self):
        args = UP_Z, [MeasureStage(pauli("x"), "a")], (pauli("z"), 1.0)
        assert simulate(*args, np.int64(300), np.uint64(5)) == simulate(*args, 300, 5)

    def test_numpy_integer_seeds_become_python_ints(self):
        stats = simulate(UP_Z, [MeasureStage(pauli("x"), "a")], (pauli("z"), 1.0), np.int64(300), np.uint64(5))
        assert (type(stats.trials), type(stats.seed)) == (int, int)

    def test_derive_seed_takes_a_numpy_integer(self):
        assert derive_seed(np.int64(2**63 - 1), 1) == 2**63
        assert derive_seed(np.uint64(2**64 - 1), 2) == 1

    @pytest.mark.parametrize("seed", [3.5, True, np.float64(3)])
    def test_chunk_rng_names_a_non_integer_seed(self, seed):
        # 3.5 used to replay the stream of seed 3
        with pytest.raises(ValueError) as info:
            chunk_rng(seed, 0)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"

    def test_conditional_needs_one_matching_label(self):
        one = simulate(UP_Z, [MeasureStage(pauli("x"), "a")], (pauli("z"), 1.0), 200, 1)
        assert one.conditional() == one.conditional("a")
        with pytest.raises(ValueError, match="no measurement stage labeled 'b'"):
            one.conditional("b")
        two = simulate(UP_Z, [MeasureStage(pauli("x"), "a"), MeasureStage(pauli("y"), "b")],
                       (pauli("z"), 1.0), 200, 1)
        with pytest.raises(ValueError, match="label required when the run has multiple measurement stages"):
            two.conditional()

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


ALL_REJECTED = "AllRejectedError"
# (builtin, trials, seed) -> ensemble digest: a single trial, a partial
# first chunk, one short of and one past a whole chunk, and several chunks
BUILTIN_DIGESTS = {
    ("spin-zz-xi", 1, 0): ALL_REJECTED,
    ("spin-zz-xi", 1, 2**64 - 1): "ee6468b0da579940a63d953c736cfcc0bb57ef90a74b23c8711e28f8beed2095",
    ("spin-zz-xi", 7, 0): "118e78f26d8c3d06f010029f5e639174f28ae3aeb29c9b9645a4fa6cdf2944ef",
    ("spin-zz-xi", 7, 2**64 - 1): "d47f82c5b38667a4727006a32ed63aa0ba33f7c56e8711b3c3185d24158793a5",
    ("spin-zz-xi", 4095, 0): "0a5724e49cf16815a2e550fc7acffa334d389867e3d73e8cfcf78b7fad2c51a5",
    ("spin-zz-xi", 4095, 2**64 - 1): "f393afe6d5dd7113bc0222a13dc07f3f047b0713df9a8dd4bf7094e1253d8b10",
    ("spin-zz-xi", 4097, 0): "d39c1ca0e6f3fd8c20835d88fb117427bba202d89a95945cbbea8049dc764677",
    ("spin-zz-xi", 4097, 2**64 - 1): "c7295983d3c8ce00ad137a94aed89aee14ed4fcfcc1be27a78645a7609ab23c0",
    ("spin-zz-xi", 12345, 0): "4898f39b55438831235491395b51aa48251fdbf3c89a867a345d344dde43f2b9",
    ("spin-zz-xi", 12345, 2**64 - 1): "1c0458250e8885727f169f1280590aa5e22a0343d4b9d3150ae81fed12776c18",
    ("erasure", 1, 0): ALL_REJECTED,
    ("erasure", 1, 2**64 - 1): ALL_REJECTED,
    ("erasure", 7, 0): "1c9ead56a27b6eef05ffbdcf4c470e04edf2681921fca20048e625e75cde9bd4",
    ("erasure", 7, 2**64 - 1): "7aa2fe723815b8f1778bc577454177b192792f79134449581ffda84718021bed",
    ("erasure", 4095, 0): "9c92a2f216545d51afe4586f3690249391806503fd3e08adbc361ebe0672b2cc",
    ("erasure", 4095, 2**64 - 1): "a0a62342760374bdec8108cccaaa50cd45002720605157abb4fa68aacc5c2486",
    ("erasure", 4097, 0): "aad298647b9aa8bf3761915dfde0373dd781c085fa0213f5d3ef42f90044f658",
    ("erasure", 4097, 2**64 - 1): "94041daa08779561998d618552fed7b978b2c5d7ef7d7fed2dc07484aab3ba2b",
    ("erasure", 12345, 0): "551693ac22619be4fbe5d1617520834b2307121ea0c6778423debf30d11d2501",
    ("erasure", 12345, 2**64 - 1): "16792e02ae6634d4cee213007bf8935bfd244d4c29160c910fe963b5f9d98b74",
}

# rank-2 branches on d=4: 2**n states are reachable after n measurement
# stages.  13 stages reach 8192, past one chunk but within a chunk times the
# rank-1 post-selection's 4 branches; 15 stages reach 32768, past both.  At
# 12,345 trials each chunk of rank2-d4-20 walks its last 8 measurements on
# live tables, and mixed-d6-16 merges rank-1 children there.
BOUNDARY_TIMELINES = {"rank2-d4-13": (106, 4, 13, (2, 2)), "rank2-d4-15": (107, 4, 15, (2, 2)),
                      "rank2-d4-20": (9, 4, 20, (2, 2)), "mixed-d6-16": (11, 6, 16, (2, 2, 1, 1))}
BOUNDARY_DIGESTS = {
    ("rank2-d4-13", 4095, 0): "980c2819e1febb4e26fd9765ea057b2a056ff43b5a32b2763822ba236919408e",
    ("rank2-d4-13", 4095, 2**64 - 1): "bdcdf0c76dbd42a384cbc6ff5719ffaefce6a727dd2d14044657700310e02f67",
    ("rank2-d4-13", 4097, 0): "8e0b2066ca03686f3c1b1133461115e3e47042c20e0eef3abbc0e9141b214dd7",
    ("rank2-d4-13", 4097, 2**64 - 1): "9799839b71af8a6436fc6211f051a52a1776ac210faa947952cd370c9db5c904",
    ("rank2-d4-13", 12345, 0): "d4ebd6050b400bdf1cc9b4c037d555b5873eec58ec5ef4c87807992318c53dc3",
    ("rank2-d4-13", 12345, 2**64 - 1): "b273addc0a0915efc8d1a6cb304a22aada6d95fa43d6db280b30fa63aaf79568",
    ("rank2-d4-15", 4095, 0): "4b66cd18b49cd1d7f6ec72a96290ccb87b5fa8d1146df7dc7b08f52df00ceaa0",
    ("rank2-d4-15", 4095, 2**64 - 1): "1760487c8e83391013e82dd22a9bafd823f40f6d74a45c889043433b2fdb584d",
    ("rank2-d4-15", 4097, 0): "0773cda2809d657d346a56a853f6dcc6da6d641744efd001f0b79f240d2f7939",
    ("rank2-d4-15", 4097, 2**64 - 1): "2c2c9329c77d12322c52942bb7fc5eb5890cdac0153472421affe86ebe2125e2",
    ("rank2-d4-15", 12345, 0): "d6b9c3c61da108cedc96a69b21e89b491e979a45115f3e9499a117c464209ed4",
    ("rank2-d4-15", 12345, 2**64 - 1): "dc3a20e6e24e86f0e98bf87347aedbe633ec73738827b29a56c8d3edc52e9fcb",
    ("rank2-d4-20", 12345, 0): "3f1131ae2283d17f9f9f0e5f00875e865f62465103a631d32d9b42c9620f1a0b",
    ("rank2-d4-20", 12345, 2**64 - 1): "422958718714d5e546688b587d2f0ba3ae2b25dbbf044e223aebb1e4f4948332",
    ("mixed-d6-16", 12345, 0): "51479b171a4949cce9d4b15ac3f96d05fdeea3bc1a8758003d6c5e1a22d994e6",
    ("mixed-d6-16", 12345, 2**64 - 1): "e4f09283dd909d3518c35769cc3761d0382e70b7e4f8259fad7af3b59eb02711",
}


@pytest.mark.pin
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

    @pytest.mark.parametrize(("name", "trials", "seed"), list(BUILTIN_DIGESTS))
    def test_builtin_at_chunk_boundaries(self, name, trials, seed):
        try:
            digest = ensemble_digest(builtin_run(name, trials, seed))
        except AllRejectedError:
            digest = ALL_REJECTED
        assert digest == BUILTIN_DIGESTS[name, trials, seed]

    @pytest.mark.parametrize(("name", "trials", "seed"), list(BOUNDARY_DIGESTS))
    def test_timeline_across_the_table_bound(self, name, trials, seed):
        stats = simulate(*random_timeline(*BOUNDARY_TIMELINES[name]), trials, seed)
        assert ensemble_digest(stats) == BOUNDARY_DIGESTS[name, trials, seed]

    def test_no_measurement_stage(self):
        stats = builtin_run("reality-pair", 12345, 9)
        assert stats.stages == ()
        assert stats.joint_accepted == (((), 6231),)
        assert stats.post_counts == (6114, 6231)
        assert ensemble_digest(stats) == "f59b64bd7a02dc7d4e7d2c934a51445c12bf124e07ed81efceb4052b5c91afec"

    def test_sixty_four_stages_outgrow_a_64_bit_path_code(self):
        # 2**64 stage paths times 2 final outcomes: no stage cap, no overflow
        stats = simulate(*random_timeline(64, 2, 64, (1, 1)), 8192, 105)
        assert len(stats.stages) == 64
        assert stats.accepted == len(stats.joint_accepted) == 4132
        assert ensemble_digest(stats) == "3f61f1005bf893086ed871a32cb8fd715add80a358d5f478d5926923408d9b04"


def eigenstate_timeline(seed, dim, n_stages):
    """A rank-1 timeline whose pre is an eigenstate of its first measurement, so
    that measurement reaches one branch and leaves the others unreached."""
    _, stages, post = random_timeline(seed, dim, n_stages, (1,) * dim)
    projector = stages[1].observable.projectors[1]  # rank 1: each column is a multiple of its eigenvector
    column = projector[:, np.argmax(np.linalg.norm(projector, axis=0))]
    return StateVector.normalized(column), stages[1:], post


def sampler_digest(stats):
    """sha256 of the sampler's integers: the accepted count, every stage's
    counts over all trials, the final outcome's counts and the joint tallies' bytes."""
    doc = [stats.accepted, [list(st.counts_all) for st in stats.stages], list(stats.post_counts),
           stats.joint_paths.hex(), stats.joint_counts.hex()]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# Qubit timelines with 14 and 15 stages have 2**15 and 2**16 paths counting
# the final outcome; rank1-d8-4 has 8**5 = 2**15.  eigen-d3-6 never reaches
# two branches of its first measurement; mixed-d4-5 has rank-1 and rank-2
# branches in every stage.
SAMPLER_TIMELINES = {
    "qubit-14": lambda: random_timeline(21, 2, 14, (1, 1)),
    "qubit-15": lambda: random_timeline(22, 2, 15, (1, 1)),
    "eigen-d3-6": lambda: eigenstate_timeline(23, 3, 6),
    "rank1-d8-4": lambda: random_timeline(24, 8, 4, (1,) * 8),
    "mixed-d4-5": lambda: random_timeline(25, 4, 5, (1, 2, 1)),
}
SAMPLER_DIGESTS = {
    ("qubit-14", 4_095): "56c1cff18969dce8c3728351bbfa02b9d714474cbd10f5bf582760561cca2bfe",
    ("qubit-14", 4_096): "558ae337060ca191b00087a41daad447c8bab1c2344cc77990922df2525603a2",
    ("qubit-14", 4_097): "3d2215650a62a854d870618519c132cd2d26302d7f5176f810e8f29a4993988c",
    ("qubit-14", 100_000): "a257737c1a0b8270bfc50287269c493e84288b5a81df80dd6d6926829ee93194",
    ("qubit-15", 4_095): "8374f9acd4d56605f1cd9d1a01169622837b09c1c12af409df9ca33bb251ebad",
    ("qubit-15", 4_096): "e398c0ca67c06b940a048f29ff6235b9a38f45131df491eb7cb8be3921b496b7",
    ("qubit-15", 4_097): "f43a9efdbd7f7f31e443215cfdbb4f94f0858113069e48f8a1d7f5cddcc931ec",
    ("qubit-15", 100_000): "2dd48fcadf14af10556565b445ae384bdc20ca4172e4a9d580f830f3bb854661",
    ("eigen-d3-6", 4_095): "2f9067ad9cc96041432341318a86569a2d7db1db14f9991e6a086917f61f9200",
    ("eigen-d3-6", 4_096): "9076fc1b45709e1030859d7e59e1832ae37f9873049194a8ddf2254b6b28793d",
    ("eigen-d3-6", 4_097): "d16cd4b24a0d642dea17870a92e455937390e96d5ab1676fb26b991c0165716e",
    ("eigen-d3-6", 100_000): "8d52b94aee56f3588120d1e5047bc0a0ae2a45f495fab09f7768a0ce94722679",
    ("rank1-d8-4", 4_095): "6230ee917344bab3f17cf93590a786d5943b61a83b34a11414bfa424d77f016d",
    ("rank1-d8-4", 4_096): "8a173eb0cfb7574cd2ee9bd3096599a3035329e8b17e3269e0c926796482f043",
    ("rank1-d8-4", 4_097): "8f93d1db3b9f55880d137e4e769544a18e459aa1b32bb310b7eaa85d5d9e0273",
    ("rank1-d8-4", 100_000): "2bbb84bc5f872a283ace49106113525259582deca2ad7613ca46829bf043f411",
    ("mixed-d4-5", 4_095): "482a5643b58a130a724b2c2c5a0cb4a5d9b83ce591ae1548d35047566bd6d5ce",
    ("mixed-d4-5", 4_096): "b392696e6ac02efc49400c6e8f5d795a40ab97f5b8e8123316e074b008790f14",
    ("mixed-d4-5", 4_097): "e539793971a48461a11eb86325bcc815e328a4dcffd695c704f47187d8311ce0",
    ("mixed-d4-5", 100_000): "a55321df71c234041f0f55ecc6e10737a11de81e8252a719952629dfb24bd9b7",
}


@pytest.mark.pin
class TestSamplerPin:
    """The sampler's integer output on timelines either side of every table
    and tally bound, at trial counts either side of a chunk."""

    def test_eigenstate_pre_leaves_branches_unreached(self):
        stats = simulate(*eigenstate_timeline(23, 3, 6), 4097, 1)
        assert stats.stages[0].counts_all == (0, 4097, 0)

    @pytest.mark.parametrize(("name", "trials"), list(SAMPLER_DIGESTS))
    def test_tallies(self, name, trials):
        stats = simulate(*SAMPLER_TIMELINES[name](), trials, 31)
        assert sampler_digest(stats) == SAMPLER_DIGESTS[name, trials]

    @pytest.mark.parametrize(("name", "identity"), [
        ("rank1-d8-4", [True] * 4), ("eigen-d3-6", [False] + [True] * 5), ("mixed-d4-5", [False] * 5),
    ])
    def test_a_child_table_that_is_the_branch_is_not_stored(self, name, identity):
        pre, stages, (post, _) = SAMPLER_TIMELINES[name]()
        tables, _, tail = _static_tables(pre, [*stages, MeasureStage(post, "post")], CHUNK_SIZE * 8)
        assert not tail
        assert [child is None for _, child in tables] == identity + [True]


class TestSamplerKernels:
    @given(seed=st.integers(0, 2**32 - 1), branches=st.integers(1, 8), states=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_sample_counts_the_cdf_entries_at_or_below_each_uniform(self, seed, branches, states):
        rng = np.random.default_rng(seed)
        weights = rng.random((states, branches))
        weights[rng.random((states, branches)) < 0.3] = 0.0  # zero-width branches
        weights[np.arange(states), rng.integers(branches, size=states)] += 0.5
        cum = _born_cdf(weights)
        for row in np.flatnonzero(rng.random(states) < 0.2):  # interior entries rounded above the final 1.0
            cum[row, rng.integers(branches):-1] = np.nextafter(1.0, 2.0)
        node = rng.integers(states, size=300)
        # uniforms on the CDF entries themselves, at 0 and just below 1, and between
        u = np.concatenate([cum[node[:100], rng.integers(branches, size=100)].clip(max=np.nextafter(1.0, 0.0)),
                            [0.0, np.nextafter(1.0, 0.0)], rng.random(198)])
        expected = [np.searchsorted(cum[n, :-1], x, side="right") for n, x in zip(node, u)]
        assert _sample(cum, node, u).tolist() == expected

    @given(seed=st.integers(0, 2**16), ranks=st.lists(st.integers(1, 2), min_size=1, max_size=3),
           n_stages=st.integers(0, 5), trials=st.integers(1, 9000))
    @settings(max_examples=40, deadline=None)
    def test_dense_and_sparse_tallies_are_equal(self, seed, ranks, n_stages, trials):
        timeline = random_timeline(seed, sum(ranks), n_stages, tuple(ranks))
        runs = []
        for bound in (0, 2**20):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "DENSE_PATHS", bound)
                try:
                    runs.append(simulate(*timeline, trials, seed))
                except AllRejectedError:
                    runs.append(None)
        assert runs[0] == runs[1]


class TestJointTally:
    """The (outcome tuple, count) tuple is derived from the compact joint
    tally on first read; nothing on the scenario path reads it."""

    def test_scenario_run_leaves_the_joint_tuple_unbuilt(self, monkeypatch):
        runs = []

        def recording(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(scenarios, "simulate", recording)
        run_scenario(builtin("erasure"), mode="both")
        assert runs and all("joint_accepted" not in vars(stats) for stats in runs)

    def test_joint_tuple_and_branch_conditionals(self):
        # the erasure golden ensemble at seed 102
        stats = builtin_run("erasure", 20_000, 102)
        assert stats.joint_accepted == (
            ((1.0, -1.0), 2224), ((1.0, 1.0), 2290), ((2.0, -1.0), 2221), ((2.0, 1.0), 2195),
            ((3.0, -1.0), 319), ((3.0, 1.0), 281), ((4.0, -1.0), 291), ((4.0, 1.0), 292),
        )
        counts = {b: [o.count for o in stats.conditional_given("sy", {"bell": b})] for b in (1.0, 2.0, 3.0, 4.0)}
        assert counts == {1.0: [2224, 2290], 2.0: [2221, 2195], 3.0: [319, 281], 4.0: [291, 292]}

    def test_given_value_that_is_no_outcome_is_a_value_error(self):
        stats = builtin_run("erasure", 20_000, 102)
        with pytest.raises(ValueError, match="given eigenvalue 5.0 is not an outcome of stage 'bell'"):
            stats.conditional_given("sy", {"bell": 5.0})

    def test_given_outcome_without_accepted_trials_is_starvation(self):
        stats = builtin_run("erasure", 7, 0)  # no accepted trial took Bell branch 3
        assert [outcome for outcome, _ in stats.joint_accepted] == [(1.0, -1.0), (1.0, 1.0), (2.0, -1.0)]
        with pytest.raises(InsufficientAcceptedTrialsError, match="no accepted trials match the given outcomes"):
            stats.conditional_given("sy", {"bell": 3.0})

    def test_branch_conditionals_leave_the_joint_tuple_unbuilt(self):
        stats = builtin_run("erasure", 20_000, 102)
        counts = {b: [o.count for o in stats.conditional_given("sy", {"bell": b})] for b in (1.0, 2.0, 3.0, 4.0)}
        assert counts == {1.0: [2224, 2290], 2.0: [2221, 2195], 3.0: [319, 281], 4.0: [291, 292]}
        assert "joint_accepted" not in vars(stats)

    def test_given_value_near_two_branches_is_a_value_error(self):
        near = SpectralObservable([1.0, 1.0 + 5e-10], [np.diag([1, 0]), np.diag([0, 1])])
        stats = simulate(spin_state(1.0), [MeasureStage(near, "a"), MeasureStage(pauli("x"), "b")],
                         (pauli("z"), 1.0), 20_000, 1)
        assert stats.stages[0].counts_accepted == (7700, 2334)
        with pytest.raises(ValueError, match=r"given eigenvalue 1\.0 matches 2 branches of stage 'a'"):
            stats.conditional_given("b", {"a": 1.0})
        # a value within 1e-9 of one branch alone resolves to it
        assert sum(o.count for o in stats.conditional_given("b", {"a": 1.0 - 9e-10})) == 7700
        assert sum(o.count for o in stats.conditional_given("b", {"a": 1.0 + 1.4e-9})) == 2334
        with pytest.raises(ValueError, match="predicted eigenvalue 1.0 does not match the sampled stage"):
            compare_to_abl(stats, OutcomeDistribution((1.0, 1.0 + 2e-9), (0.5, 0.5)), stage_label="a")

    def test_one_joint_count_apart_compares_unequal(self):
        stats = builtin_run("erasure", 20_000, 102)
        counts = np.frombuffer(stats.joint_counts, dtype=np.int64).copy()
        assert dataclasses.replace(stats, joint_counts=counts.tobytes()) == stats
        counts[3] += 1
        moved = dataclasses.replace(stats, joint_counts=counts.tobytes())
        assert moved != stats
        assert moved.joint_accepted[3] == ((2.0, 1.0), 2196)


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

    def test_eigenvalue_mismatch_rejected(self):
        stats = simulate(UP_Z, [MeasureStage(pauli("z"), "m")], (pauli("z"), 1.0), 200, 3)
        with pytest.raises(ValueError, match="predicted eigenvalue 2.0 does not match the sampled stage"):
            compare_to_abl(stats, OutcomeDistribution((2.0, -1.0), (0.5, 0.5)))


HALF = OutcomeDistribution((1.0, -1.0), (0.5, 0.5))


class TestCompareCounts:
    def test_floor_is_one_hundred_accepted_trials(self):
        assert MIN_ACCEPTED == 100
        with pytest.raises(InsufficientAcceptedTrialsError, match="99 accepted trials < floor 100"):
            compare_counts(HALF, (50, 49), 99)
        outcomes = compare_counts(HALF, (50, 50), 100)
        assert [o.z_score for o in outcomes] == [0.0, 0.0]
        assert all(o.passed for o in outcomes)

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), -1.0, 0, True, "4"])
    def test_z_must_be_finite_and_positive(self, z):
        # nan or -1 failed both outcomes at z-score 0.0, and True ran as 1
        with pytest.raises(ValueError) as info:
            compare_counts(HALF, (50, 50), 100, z)
        assert str(info.value) == f"z must be a finite number > 0, got {z!r}"

    @pytest.mark.parametrize("counts", [(300,), (200, 200, 200)])
    def test_one_count_per_predicted_outcome(self, counts):
        with pytest.raises(ValueError, match=f"{len(counts)} counts for 2 predicted outcomes"):
            compare_counts(HALF, counts, 600)

    @pytest.mark.parametrize("counts, total, message", [
        ((500, 500), 100, "counts [500, 500] must be >= 0 and sum to total 100"),
        ((150, -50), 100, "counts [150, -50] must be >= 0 and sum to total 100"),
        ((50, 50), 1000, "counts [50, 50] must be >= 0 and sum to total 1000"),
        ((50.5, 49.5), 100, "counts[0] must be an integer, got 50.5"),
        ((50, True), 51, "counts[1] must be an integer, got True"),
        ((50, 50), 100.0, "total must be an integer, got 100.0"),
        ((50, 49.5), 99.5, "total must be an integer, got 99.5"),  # refused before the accepted-trials floor
    ])
    def test_counts_are_integers_that_sum_to_total(self, counts, total, message):
        # (500, 500) and (150, -50) of 100 leaked numpy's sqrt warning, (50, 50) of 1000 failed at |z| = 65.3,
        # and a count of 50.5 was kept as 50 beside a frequency of 0.505
        with pytest.raises(ValueError) as info:
            compare_counts(HALF, counts, total)
        assert str(info.value) == message

    def test_numpy_integer_counts_and_total(self):
        given = compare_counts(HALF, np.array([48, 52]), np.int64(100))
        assert given == compare_counts(HALF, (48, 52), 100)
        assert [o.passed for o in given] == [True, True]

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


def _entry(*z_scores):
    """compare_counts-shaped outcomes with the given z-scores, gated at z = 4."""
    return tuple(OutcomeComparison(float(j), 0.5, 0.5, 0.05, zs, abs(zs) <= 4) for j, zs in enumerate(z_scores))


class TestVerdict:
    def test_first_failure_skips_starved_entries(self):
        verdict = Verdict((None, _entry(1.0, -1.0), None, _entry(4.5, -4.5), _entry(9.0, -9.0)))
        assert verdict.first_failure == 3
        assert not verdict.passed
        assert verdict.starved == 2
        assert verdict.max_z == 9.0
        assert [o.z_score for o in verdict.outcomes] == [1.0, -1.0, 4.5, -4.5, 9.0, -9.0]

    def test_every_entry_starved(self):
        verdict = Verdict((None, None))
        assert (verdict.first_failure, verdict.passed, verdict.starved, verdict.max_z) == (None, True, 2, 0.0)
        assert verdict.outcomes == ()

    def test_gate_width_at_the_default_threshold(self):
        # 5200 of 10,000 against 1/2 is |z| = 4.003, one count fewer is 3.983
        above, below = (Verdict((compare_counts(HALF, (k, 10_000 - k), 10_000),)) for k in (5200, 5199))
        assert round(above.max_z, 3) == 4.003 and not above.passed and above.first_failure == 0
        assert round(below.max_z, 3) == 3.983 and below.passed and below.first_failure is None

    def test_a_z_score_equal_to_the_threshold_passes(self):
        z_score = compare_counts(HALF, (60, 40), 100)[0].z_score
        assert Verdict((compare_counts(HALF, (60, 40), 100, z_score),)).passed
        assert not Verdict((compare_counts(HALF, (60, 40), 100, np.nextafter(z_score, 0)),)).passed


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
        real, calls = scenarios.simulate, []

        def reversed_branches(*args, **kwargs):
            calls.append(args)
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

        monkeypatch.setattr(scenarios, "simulate", reversed_branches)  # the row samples through _sampled
        assert check_conditional_counterexample(21, 20_000) == expected
        assert len(calls) == 1 and expected.status == "pass"


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
