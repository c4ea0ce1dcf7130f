"""Analytic rules: single-measurement, conditional, weak values, recombination."""

import numpy as np
import pytest

from twostate import rules
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.algebra import (
    LinearOperator,
    _hermitian_branches,
    SpectralObservable,
    StateVector,
    basis_state,
    beamsplitter,
    detector_basis,
    identity_observable,
    identity_operator,
    pauli,
    pauli_operator,
    spin_observable,
    spin_state,
    which_path,
)
from twostate.errors import DimensionMismatchError, ZeroDenominatorError, ZeroOverlapError
from twostate.rules import (
    OutcomeDistribution,
    TwoStateVector,
    _abl_rows,
    _recombination,
    _weak_values,
    abl_probabilities,
    born_probabilities,
    elements_of_reality,
    product_rule_audit,
    total_probability_check,
    weak_value,
)

UP_Z = basis_state(2, 0)
DOWN_Z = basis_state(2, 1)
UP_X = spin_state(np.pi / 2)


def random_state(rng, dim):
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_observable(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return SpectralObservable.from_hermitian((m + m.conj().T) / 2)


def abl_by_hand(pre, post, observable):
    """Direct transcription of the conditional rule, kept independent of the
    library path: explicit projector matrix arithmetic, no shared helpers."""
    weights = []
    for proj in observable.projectors:
        amp = post.amps.conj() @ (proj @ pre.amps)
        weights.append(abs(amp) ** 2)
    total = sum(weights)
    return [w / total for w in weights]


class TestBorn:
    def test_eigenstate(self):
        dist = born_probabilities(UP_Z, pauli("z"))
        assert dist.probability(1.0) == 1.0
        assert dist.probability(-1.0) == 0.0

    def test_tilted_half(self):
        dist = born_probabilities(UP_Z, spin_observable(np.pi / 2))
        assert dist.probability(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_tilted_sixty_degrees(self):
        # cos^2(pi/6) = 3/4
        dist = born_probabilities(UP_Z, spin_observable(np.pi / 3))
        assert dist.probability(1.0) == pytest.approx(0.75, abs=1e-15)
        assert dist.probability(-1.0) == pytest.approx(0.25, abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            dist = born_probabilities(random_state(rng, dim), random_observable(rng, dim))
            assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


class TestAbl:
    def test_branch_killed_by_orthogonality(self):
        dist = abl_probabilities(TwoStateVector(UP_Z, UP_X), pauli("z"))
        assert dist.probability(1.0) == 1.0
        assert dist.probability(-1.0) == 0.0

    def test_equal_selections_tilted_probe(self):
        # hand evaluation: cos^4(t/2) / (cos^4(t/2) + sin^4(t/2))
        for theta in (np.pi / 3, 0.4, 2.0):
            dist = abl_probabilities(TwoStateVector(UP_Z, UP_Z), spin_observable(theta))
            c, s = np.cos(theta / 2) ** 4, np.sin(theta / 2) ** 4
            assert dist.probability(1.0) == pytest.approx(c / (c + s), abs=1e-14)
        at_sixty = abl_probabilities(TwoStateVector(UP_Z, UP_Z), spin_observable(np.pi / 3))
        assert at_sixty.probability(1.0) == pytest.approx(0.9, abs=1e-15)
        assert at_sixty.probability(-1.0) == pytest.approx(0.1, abs=1e-15)

    def test_spin_chain_conditional(self):
        # up along a, post-selected up along c; probe along b between them
        theta_ab, theta_bc = np.pi / 3, np.pi / 2
        post = spin_state(theta_ab + theta_bc)
        dist = abl_probabilities(TwoStateVector(UP_Z, post), spin_observable(theta_ab))
        assert dist.probability(1.0) == pytest.approx(0.75, abs=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            abl_probabilities(TwoStateVector(UP_Z, DOWN_Z), pauli("z"))

    def test_matches_hand_rule_on_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            pre, post = random_state(rng, dim), random_state(rng, dim)
            obs = random_observable(rng, dim)
            dist = abl_probabilities(TwoStateVector(pre, post), obs)
            np.testing.assert_allclose(
                dist.probabilities, abl_by_hand(pre, post, obs), atol=1e-12
            )

    def test_sums_to_one_within_1e12(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pre, post = random_state(rng, 3), random_state(rng, 3)
            dist = abl_probabilities(TwoStateVector(pre, post), random_observable(rng, 3))
            assert abs(sum(dist.probabilities) - 1) < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        pre, post = random_state(rng, 2), random_state(rng, 2)
        obs = random_observable(rng, 2)
        tsv = TwoStateVector(pre, post)
        try:
            forward = abl_probabilities(tsv, obs).probabilities
            backward = abl_probabilities(tsv.swapped(), obs).probabilities
        except ZeroDenominatorError:
            return
        np.testing.assert_allclose(forward, backward, atol=1e-12)

    def test_reduction_to_certainty(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            obs = random_observable(rng, 3)
            j = int(rng.integers(0, obs.num_branches))
            eigvec = StateVector.normalized(obs.projectors[j] @ random_state(rng, 3).amps)
            generic = random_state(rng, 3)
            if abs(np.vdot(generic.amps, eigvec.amps)) < 1e-3:
                continue
            as_post = abl_probabilities(TwoStateVector(generic, eigvec), obs)
            as_pre = abl_probabilities(TwoStateVector(eigvec, generic), obs)
            assert as_post.probabilities[j] == pytest.approx(1.0, abs=1e-12)
            assert as_pre.probabilities[j] == pytest.approx(1.0, abs=1e-12)


class TestWeakValue:
    def test_eigenstate_gives_eigenvalue(self):
        assert weak_value(TwoStateVector(UP_Z, UP_Z), pauli_operator("z")) == pytest.approx(1.0)

    def test_complex_value(self):
        assert weak_value(TwoStateVector(UP_Z, UP_X), pauli_operator("y")) == pytest.approx(1j)

    def test_swap_conjugates(self):
        tsv = TwoStateVector(UP_Z, UP_X)
        assert weak_value(tsv.swapped(), pauli_operator("y")) == pytest.approx(-1j)

    def test_zero_overlap(self):
        with pytest.raises(ZeroOverlapError):
            weak_value(TwoStateVector(UP_Z, DOWN_Z), pauli_operator("z"))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        pre, post = random_state(rng, 3), random_state(rng, 3)
        tsv = TwoStateVector(pre, post)
        if abs(tsv.overlap) < 0.05:
            return
        a = LinearOperator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = LinearOperator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        alpha, beta = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        combined = weak_value(tsv, alpha * a + beta * b)
        assert combined == pytest.approx(
            alpha * weak_value(tsv, a) + beta * weak_value(tsv, b), abs=1e-12
        )

    def test_certainty_forces_weak_value(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            obs = random_observable(rng, 4)
            j = int(rng.integers(0, obs.num_branches))
            pre = StateVector.normalized(obs.projectors[j] @ random_state(rng, 4).amps)
            post = random_state(rng, 4)
            if abs(np.vdot(post.amps, pre.amps)) < 0.1:
                continue
            tsv = TwoStateVector(pre, post)
            if abl_probabilities(tsv, obs).probabilities[j] >= 1 - 1e-12:
                assert weak_value(tsv, obs.operator) == pytest.approx(
                    obs.eigenvalues[j], abs=1e-9
                )


class TestElementsOfReality:
    def test_two_incompatible_certainties(self):
        report = elements_of_reality(
            TwoStateVector(UP_Z, UP_X), [("sz", pauli("z")), ("sx", pauli("x"))]
        )
        assert all(e.certain for e in report.entries)
        assert [e.eigenvalue for e in report.entries] == [1.0, 1.0]
        assert len(report.elements) == 2

    def test_shared_eigenstate(self):
        report = elements_of_reality(TwoStateVector(UP_Z, UP_Z), [("sz", pauli("z"))])
        assert report.entries[0].certain and report.entries[0].eigenvalue == 1.0

    def test_orthogonal_selections(self):
        # sx stays well-defined at 1/2 each; sz has no reachable branch
        report = elements_of_reality(
            TwoStateVector(UP_Z, DOWN_Z), [("sx", pauli("x")), ("sz", pauli("z"))]
        )
        sx, sz = report.entries
        assert not sx.certain and sx.probability == pytest.approx(0.5)
        assert sz.error is not None and not sz.certain
        assert report.elements == ()


class TestConditionalMemo:
    """A ``TwoStateVector`` keeps the ABL distributions it has given, by observable object."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate = rules._abl_distribution
        monkeypatch.setattr(rules, "_abl_distribution", lambda tsv, obs: calls.append(obs) or evaluate(tsv, obs))
        return calls

    def test_repeated_query_returns_the_same_distribution(self, evaluations):
        tsv, obs = TwoStateVector(spin_state(0.3), spin_state(1.0)), pauli("x")
        first = abl_probabilities(tsv, obs)
        assert abl_probabilities(tsv, obs) is first
        assert evaluations == [obs]

    def test_equal_valued_observables_get_their_own_entries(self, evaluations):
        tsv, obs = TwoStateVector(spin_state(0.3), spin_state(1.0)), pauli("x")
        twin = SpectralObservable(obs.eigenvalues, obs.projectors)
        assert abl_probabilities(tsv, twin) is not abl_probabilities(tsv, obs)
        assert abl_probabilities(tsv, twin) == abl_probabilities(tsv, obs)
        assert [id(o) for o in evaluations] == [id(twin), id(obs)]

    def test_zero_denominator_is_raised_on_every_call(self, evaluations):
        tsv = TwoStateVector(UP_Z, DOWN_Z)
        for _ in range(2):
            with pytest.raises(ZeroDenominatorError):
                abl_probabilities(tsv, pauli("z"))
        assert len(evaluations) == 2

    def test_swapped_starts_empty(self, evaluations):
        tsv, obs = TwoStateVector(spin_state(0.3), spin_state(1.0)), pauli("x")
        abl_probabilities(tsv, obs)
        swapped = tsv.swapped()
        assert abl_probabilities(swapped, obs) is not abl_probabilities(tsv, obs)
        assert len(evaluations) == 2

    def test_reality_report_reuses_the_queries(self, evaluations):
        tsv = TwoStateVector(UP_Z, UP_X)
        observables = [("sz", pauli("z")), ("sx", pauli("x"))]
        dists = [abl_probabilities(tsv, obs) for _, obs in observables]
        report = elements_of_reality(tsv, observables)
        assert [e.probability for e in report.entries] == [max(d.probabilities) for d in dists]
        assert len(evaluations) == 2

    def test_equality_and_repr_ignore_the_memo(self):
        pre, post = spin_state(0.3), spin_state(1.0)
        tsv, fresh = TwoStateVector(pre, post), TwoStateVector(pre, post)
        text = repr(tsv)
        abl_probabilities(tsv, pauli("x"))
        assert repr(tsv) == text == repr(fresh)
        assert "_conditionals" not in text
        assert tsv == fresh


class TestProductRule:
    def test_failure_case(self):
        report = product_rule_audit(
            TwoStateVector(UP_Z, UP_X), pauli_operator("z"), pauli_operator("x")
        )
        assert report.a_weak == pytest.approx(1.0)
        assert report.b_weak == pytest.approx(1.0)
        # sz·sx maps up_z to -down_z, so the product's weak value is -1
        assert report.ab_weak == pytest.approx(-1.0)
        assert report.discrepancy == pytest.approx(-2.0)
        assert report.failed

    def test_eigenstate_no_failure(self):
        report = product_rule_audit(
            TwoStateVector(UP_Z, UP_Z), pauli_operator("z"), pauli_operator("z")
        )
        assert (report.a_weak, report.b_weak, report.ab_weak) == (1.0, 1.0, 1.0)
        assert not report.failed

    def test_identity_absorbs(self):
        rng = np.random.default_rng(9)
        pre, post = random_state(rng, 2), random_state(rng, 2)
        b = LinearOperator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        report = product_rule_audit(TwoStateVector(pre, post), identity_operator(2), b)
        assert report.ab_weak == pytest.approx(report.b_weak, abs=1e-12)
        assert not report.failed


class TestTotalProbability:
    def test_spin_chain_values(self):
        theta_ab, theta_bc = np.pi / 3, np.pi / 2
        report = total_probability_check(
            UP_Z, spin_observable(theta_ab), spin_observable(theta_ab + theta_bc)
        )
        assert report.passed
        np.testing.assert_allclose(report.final_probabilities, [0.5, 0.5], atol=1e-12)
        assert report.conditionals[0].probability(1.0) == pytest.approx(0.75, abs=1e-12)
        assert report.conditionals[1].probability(1.0) == pytest.approx(0.75, abs=1e-12)
        assert report.recombined.probability(1.0) == pytest.approx(0.75, abs=1e-12)

    def test_eigenstate_trivial(self):
        report = total_probability_check(UP_Z, pauli("z"), spin_observable(1.1))
        assert report.passed
        assert report.recombined.probability(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_balanced_interferometer(self):
        # oracle: explicit 2x2 splitter algebra for the state after the input
        # splitter and the two output detectors
        bs = beamsplitter()
        pre = StateVector(bs.matrix @ np.array([1, 0]))
        np.testing.assert_allclose(pre.amps, np.array([1, 1j]) / np.sqrt(2), atol=1e-15)
        report = total_probability_check(pre, which_path(), detector_basis(bs))
        assert report.passed
        np.testing.assert_allclose(report.final_probabilities, [0.5, 0.5], atol=1e-12)
        assert report.recombined.probability(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_final_branch(self):
        # rank-2 final branch on a qutrit forces the generalized weights path
        p_deg = np.zeros((3, 3), dtype=complex)
        p_deg[0, 0] = p_deg[1, 1] = 1
        p_rest = np.zeros((3, 3), dtype=complex)
        p_rest[2, 2] = 1
        final = SpectralObservable(np.array([1.0, 2.0]), np.array([p_deg, p_rest]))
        rng = np.random.default_rng(10)
        report = total_probability_check(random_state(rng, 3), random_observable(rng, 3), final)
        assert report.passed

    def test_zero_weight_final_branch_skipped(self):
        report = total_probability_check(UP_Z, pauli("z"), pauli("z"))
        assert report.passed
        assert report.conditionals[report.final_eigenvalues.index(-1.0)] is None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_qubit_triples(self, seed):
        rng = np.random.default_rng(seed)
        report = total_probability_check(
            random_state(rng, 2), random_observable(rng, 2), random_observable(rng, 2)
        )
        assert report.passed


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def rank_two_final(rng, dim):
    """A final measurement whose first branch has rank 2 (the identity at d = 2)."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    projs = [q[:, :2] @ q[:, :2].conj().T] + [np.outer(q[:, j], q[:, j].conj()) for j in range(2, dim)]
    return SpectralObservable(np.arange(len(projs), dtype=float), np.array(projs))


class TestStackedRecombination:
    """The stacked core that the battery runs is the scalar rule, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        n=st.integers(1, 5),
        final_kind=st.sampled_from(["random", "rank-2", "zero-weight"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_scalar_reports(self, seed, dim, n, final_kind):
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(n):
            mid = random_observable(rng, dim)
            if final_kind == "zero-weight":  # pre inside one branch: every other final branch weighs 0
                pre, final = StateVector(np.linalg.eigh(mid.operator.matrix)[1][:, 0]), mid
            else:
                pre = random_state(rng, dim)
                final = random_observable(rng, dim) if final_kind == "random" else rank_two_final(rng, dim)
            inputs.append((pre, mid, final))
        r = _recombination(*(np.array(column) for column in zip(*(
            (pre.amps, mid.projectors, final.projectors) for pre, mid, final in inputs
        ))))
        for i, (pre, mid, final) in enumerate(inputs):
            report = total_probability_check(pre, mid, final)
            assert not r.suspect[i]
            assert bits(report.final_probabilities) == bits(r.final[i])
            assert [c is None for c in report.conditionals] == (~r.live[i]).tolist()
            for cond, row in zip(report.conditionals, np.clip(r.conditionals[i], 0.0, 1.0)):
                if cond is not None:
                    assert bits(cond.probabilities) == bits(row)
            assert bits(report.recombined.probabilities) == bits(np.clip(r.recombined[i], 0.0, 1.0))
            assert bits(report.direct.probabilities) == bits(np.clip(r.direct[i], 0.0, 1.0))
            assert bits(report.max_abs_error) == bits(r.error[i])
            assert report.passed
        if final_kind == "zero-weight":
            assert not r.live[:, 1:].any()

    def test_degenerate_hermitian_merges_into_one_branch(self):
        rng = np.random.default_rng(5)
        degenerate = np.array([[1.0, 1e-9], [1e-9, 1.0]], dtype=complex)  # eigenvalue gap 2e-9
        mats = np.array([random_observable(rng, 2).operator.matrix, degenerate])
        _, projs, regular = _hermitian_branches(mats)
        assert regular.tolist() == [True, False]  # the stacked path hands this row to from_hermitian
        merged = SpectralObservable.from_hermitian(degenerate)
        assert merged.num_branches == 1
        np.testing.assert_allclose(merged.projectors[0], np.eye(2), atol=1e-15)
        pre, final = random_state(rng, 2), random_observable(rng, 2)
        report = total_probability_check(pre, merged, final)
        r = _recombination(pre.amps[None], merged.projectors[None], final.projectors[None])
        assert report.recombined.probabilities == report.direct.probabilities == (1.0,)
        assert bits(report.final_probabilities) == bits(r.final[0])
        assert report.max_abs_error == r.error[0] == 0.0

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 5]))
    @settings(max_examples=50, deadline=None)
    def test_abl_and_weak_value_rows_equal_scalar_rules(self, seed, dim):
        rng = np.random.default_rng(seed)
        cases = [(random_state(rng, dim), random_state(rng, dim), random_observable(rng, dim)) for _ in range(4)]
        pre, post, projs, ops = (np.array(c) for c in zip(*(
            (a.amps, b.amps, obs.projectors, obs.operator.matrix) for a, b, obs in cases
        )))
        probs, abl_ok = _abl_rows(post[:, None], projs, pre)
        weak, weak_ok = _weak_values(post, ops, pre)
        assert abl_ok.all() and weak_ok.all()
        for i, (a, b, obs) in enumerate(cases):
            tsv = TwoStateVector(a, b)
            assert bits(abl_probabilities(tsv, obs).probabilities) == bits(np.clip(probs[i, 0], 0.0, 1.0))
            assert weak[i] == weak_value(tsv, obs.operator)  # Python's complex division, to the bit

    def test_unreachable_final_branch_is_flagged_and_raises(self):
        # the down branch of spin(θ) weighs sin²(θ/2): live above 1e-15, but at
        # θ = 1.4e-7 its ABL denominator is under the 1e-14 floor
        thetas = (2e-7, 1.4e-7, 3e-8)
        finals = [spin_observable(t) for t in thetas]
        r = _recombination(
            np.repeat(UP_Z.amps[None], 3, axis=0),
            np.repeat(pauli("z").projectors[None], 3, axis=0),
            np.array([f.projectors for f in finals]),
        )
        assert r.live[:, 1].tolist() == [True, True, False]
        assert r.unreachable[:, 1].tolist() == [False, True, False]
        assert r.suspect.tolist() == [False, True, False]
        with pytest.raises(ZeroDenominatorError):
            total_probability_check(UP_Z, pauli("z"), finals[1])
        assert total_probability_check(UP_Z, pauli("z"), finals[2]).conditionals[1] is None

    def test_guarded_rows_are_flagged(self):
        # orthogonal pre and post: the ABL denominator of sz and the overlap are 0,
        # so the stacked rules flag the row and the scalar rules raise for it
        pre, post = UP_Z.amps[None], DOWN_Z.amps[None]
        _, abl_ok = _abl_rows(post[:, None], pauli("z").projectors[None], pre)
        _, weak_ok = _weak_values(post, pauli_operator("x").matrix[None], pre)
        assert not abl_ok[0, 0] and not weak_ok[0]
        with pytest.raises(ZeroDenominatorError):
            abl_probabilities(TwoStateVector(UP_Z, DOWN_Z), pauli("z"))
        with pytest.raises(ZeroOverlapError):
            weak_value(TwoStateVector(UP_Z, DOWN_Z), pauli_operator("x"))


class TestOutcomeDistribution:
    def test_clips_float_noise(self):
        dist = OutcomeDistribution((1.0, -1.0), (1.0 + 5e-13, -5e-13))
        assert dist.probabilities[0] == 1.0
        assert dist.probabilities[1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            OutcomeDistribution((1.0, -1.0), (1.01, -0.01))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            OutcomeDistribution((1.0, -1.0), (0.6, 0.5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="beyond float noise"):
            OutcomeDistribution((1.0, -1.0), (float("nan"), 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rejects_a_non_finite_entry_at_every_position(self, bad, k):
        for position in range(k):
            probs = [1.0 / k] * k
            probs[position] = bad
            with pytest.raises(ValueError, match="beyond float noise"):
                OutcomeDistribution(tuple(range(k)), tuple(probs))

    def test_rejects_non_finite_entries_that_cancel_in_the_sum(self):
        with pytest.raises(ValueError, match="beyond float noise"):
            OutcomeDistribution((1.0, 2.0, 3.0), (float("inf"), float("-inf"), 1.0))

    @pytest.mark.parametrize("probs, match", [
        ((1.5, -0.5), "beyond float noise"),  # sums to 1, out of range
        ((0.6, 0.5), "sum to 1.1"),  # in range, bad sum
        ((), "sum to 0"),
    ])
    def test_message_order(self, probs, match):
        with pytest.raises(ValueError, match=match):
            OutcomeDistribution(tuple(range(len(probs))), probs)

    def test_clip_matches_numpy_bit_for_bit(self):
        for probs in [(1.0, -0.0), (-0.0, 1.0), (1.0 + 5e-13, -5e-13), (0.25, 0.75), (0.0, 0.5, 0.5)]:
            clipped = OutcomeDistribution(tuple(range(len(probs))), probs).probabilities
            expected = np.clip(np.array(probs), 0.0, 1.0)
            assert [(p, np.signbit(p)) for p in clipped] == [(p, np.signbit(p)) for p in expected]

    def test_value_near_two_branches_is_refused(self):
        near = SpectralObservable([1.0, 1.0 + 5e-10], [np.diag([1, 0]), np.diag([0, 1])])
        dist = abl_probabilities(TwoStateVector(spin_state(0.3), spin_state(1.0)), near)
        with pytest.raises(ValueError, match="matches 2 branches of this distribution"):
            dist.probability(1.0 + 5e-10)
        with pytest.raises(ValueError, match=r"eigenvalue 3\.0 is not an outcome of this distribution"):
            dist.probability(3.0)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: TwoStateVector(UP_Z, basis_state(3, 0)), "pre dim 2 vs post dim 3", id="two-state-vector"),
    pytest.param(lambda: born_probabilities(basis_state(3, 0), pauli("z")), "state dim 3 vs observable dim 2",
                 id="born"),
    pytest.param(lambda: abl_probabilities(TwoStateVector(UP_Z, UP_X), identity_observable(3)),
                 "state dim 2 vs observable dim 3", id="abl"),
    pytest.param(lambda: weak_value(TwoStateVector(UP_Z, UP_X), identity_operator(3)),
                 "state dim 2 vs operator dim 3", id="weak-value"),
    pytest.param(lambda: total_probability_check(UP_Z, pauli("x"), identity_observable(3)),
                 "dims differ: state 2, intermediate 2, final 3", id="total-probability"),
])
def test_dimension_guards(call, match):
    with pytest.raises(DimensionMismatchError, match=match):
        call()
