"""Pointer measurement model: coupling, readout, strong and weak regimes."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from twostate.algebra import basis_state, pauli, pauli_operator, spin_state
from twostate.errors import DimensionMismatchError, PointerGridError, ZeroOverlapError
from twostate.montecarlo import chunk_rng
from twostate.pointer import (
    CouplingSpec,
    JointState,
    PointerState,
    couple,
    make_gaussian_pointer,
    post_selected_mean_shift,
    post_selected_momentum_mean,
    post_selected_pointer,
    readout,
)
from twostate.rules import TwoStateVector, abl_probabilities, weak_value

UP_Z = basis_state(2, 0)
UP_X = spin_state(np.pi / 2)


class TestGaussianPointer:
    def test_moments(self):
        p = make_gaussian_pointer(1.0, 1024, 32.0)
        assert p.mean_position() == pytest.approx(0.0, abs=1e-10)
        var = float(np.sum(p.positions**2 * np.abs(p.amps) ** 2) * p.spacing)
        assert var == pytest.approx(1.0, abs=1e-4)

    def test_norm(self):
        p = make_gaussian_pointer(2.0, 512, 40.0)
        norm = float(np.sum(np.abs(p.amps) ** 2) * p.spacing)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(PointerGridError, match="coarse"):
            make_gaussian_pointer(0.01, 256, 16 * 0.01 + 10)

    def test_span_floor(self):
        with pytest.raises(PointerGridError):
            make_gaussian_pointer(1.0, 1024, 10.0)

    def test_point_floor(self):
        with pytest.raises(PointerGridError):
            make_gaussian_pointer(1.0, 128, 32.0)

    @pytest.mark.parametrize("name", ["sigma", "span"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_named(self, name, value):
        with pytest.raises(PointerGridError, match=f"^{name} must be finite"):
            make_gaussian_pointer(**{"sigma": 1.0, "span": 64.0, name: value})

    @pytest.mark.parametrize("name", ["spacing", "sigma"])
    def test_states_reject_non_finite_grid_values(self, name):
        p = make_gaussian_pointer()
        grid = {"spacing": p.spacing, "sigma": p.sigma, name: float("nan")}
        with pytest.raises(PointerGridError, match=f"^{name} must be finite"):
            PointerState(p.positions, p.amps, **grid)

    @pytest.mark.parametrize("sigma, n", [(1e-306, 4096), (1e-307, 4096), (1e-308, 4096), (1e-305, 262144)])
    def test_subnormal_spacing_rejected_naming_sigma(self, sigma, n):
        # a spacing below the smallest normal float overflows the norm sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PointerGridError, match=r"^sigma .* too small: grid spacing .* is subnormal"):
                make_gaussian_pointer(sigma=sigma, n=n)

    @pytest.mark.parametrize("sigma", [1e-300, 1e154, 1e155, 1e306])
    def test_extreme_sigma_is_the_unit_pointer_rescaled(self, sigma):
        # sigma**2 overflows above ~1e154 and underflows below ~1e-162
        p, unit = make_gaussian_pointer(sigma=sigma), make_gaussian_pointer()
        np.testing.assert_allclose(p.positions / sigma, unit.positions, rtol=1e-13)
        np.testing.assert_allclose(p.amps * np.sqrt(sigma), unit.amps, rtol=1e-12, atol=1e-300)
        assert abs(p.mean_position()) <= 1e-12 * sigma

    def test_non_finite_amplitudes_fail_the_norm_check(self):
        p = make_gaussian_pointer()
        amps = p.amps.copy()
        amps[0] = np.nan
        with pytest.raises(PointerGridError, match="norm is nan"):
            PointerState(p.positions, amps, p.spacing, p.sigma)


class TestCouple:
    def test_eigenstate_rigid_translation(self):
        p = make_gaussian_pointer()
        joint = couple(UP_Z, p, CouplingSpec(2.5, pauli("z")))
        # single branch: no entanglement, second system row empty
        assert np.max(np.abs(joint.amps[1])) == 0.0
        ro = readout(joint)
        mean = float(np.sum(ro.positions * ro.probabilities))
        assert mean == pytest.approx(2.5, abs=1e-9)

    def test_zero_coupling_is_identity(self):
        p = make_gaussian_pointer()
        joint = couple(spin_state(1.0, 0.2), p, CouplingSpec(0.0, pauli("z")))
        ro = readout(joint)
        np.testing.assert_allclose(
            ro.probabilities, np.abs(p.amps) ** 2 * p.spacing, atol=1e-12
        )

    def test_two_separated_lobes(self):
        p = make_gaussian_pointer()
        joint = couple(UP_X, p, CouplingSpec(10.0, pauli("z")))
        ro = readout(joint)
        plus = float(ro.probabilities[ro.positions > 0].sum())
        assert plus == pytest.approx(0.5, abs=1e-10)

    def test_norm_preserved(self):
        p = make_gaussian_pointer()
        for lam in (0.0, 0.01, 1.0, 10.0):
            joint = couple(spin_state(0.7, 0.1), p, CouplingSpec(lam, pauli("z")))
            norm = float(np.sum(np.abs(joint.amps) ** 2) * joint.pointer.spacing)
            assert norm == pytest.approx(1.0, abs=1e-8)

    def test_shift_exceeding_margin(self):
        p = make_gaussian_pointer()
        with pytest.raises(PointerGridError, match="margin|exceeds"):
            couple(UP_X, p, CouplingSpec(20.0, pauli("z")))

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            CouplingSpec(-1.0, pauli("z"))

    def test_joint_state_lives_on_its_pointer(self):
        p = make_gaussian_pointer()
        joint = couple(UP_X, p, CouplingSpec(0.1, pauli("z")))
        assert [field.name for field in dataclasses.fields(joint)] == ["amps", "pointer"]
        assert joint.pointer is p

    def test_one_forward_transform_per_coupling(self, monkeypatch):
        # both branches shift the ready state's one spectrum
        p, fft, sizes = make_gaussian_pointer(), np.fft.fft, []
        monkeypatch.setattr(np.fft, "fft", lambda a, *args: sizes.append(np.size(a)) or fft(a, *args))
        couple(UP_X, p, CouplingSpec(0.1, pauli("z")))
        assert sizes == [p.positions.size]


class TestReadout:
    def test_strong_collapse_fidelity(self):
        p = make_gaussian_pointer()
        joint = couple(UP_X, p, CouplingSpec(10.0, pauli("z")))
        ro = readout(joint)
        rng = chunk_rng(3, 0)
        idx = ro.sample_index(rng, 500)
        positions = ro.positions[idx]
        for i, pos in zip(idx, positions):
            target = UP_Z if pos > 0 else basis_state(2, 1)
            fidelity = abs(np.vdot(ro.collapse(int(i)).amps, target.amps)) ** 2
            assert fidelity >= 1 - 1e-6

    def test_product_state_readout_independent_of_system(self):
        p = make_gaussian_pointer()
        joint = couple(UP_Z, p, CouplingSpec(0.0, pauli("z")))
        ro = readout(joint)
        np.testing.assert_allclose(
            ro.probabilities, np.abs(p.amps) ** 2 * p.spacing, atol=1e-12
        )

    def test_strong_regime_lobes_match_conditional_rule(self):
        pre, post = spin_state(1.1, 0.2), spin_state(2.0, -0.7)
        obs = pauli("z")
        coupling = CouplingSpec(10.0, obs)
        p = make_gaussian_pointer()
        positions, probs = post_selected_pointer(couple(pre, p, coupling), post)
        rng = chunk_rng(4, 0)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        samples = positions[np.searchsorted(cum, rng.random(10_000), side="right")]
        lobes = coupling.strength * obs.eigenvalues
        nearest = np.argmin(np.abs(samples[:, None] - lobes[None, :]), axis=1)
        predicted = abl_probabilities(TwoStateVector(pre, post), obs)
        for j, prob in enumerate(predicted.probabilities):
            freq = float(np.mean(nearest == j))
            se = np.sqrt(freq * (1 - freq) / samples.size)
            assert abs(freq - prob) <= 4 * se


class TestPostSelectedShift:
    def test_eigenstate_exact_at_any_strength(self):
        p = make_gaussian_pointer()
        for lam in (0.01, 1.0, 10.0):
            shift = post_selected_mean_shift(couple(UP_Z, p, CouplingSpec(lam, pauli("z"))), UP_Z)
            assert shift == pytest.approx(lam, abs=1e-8)

    def test_weak_limit_reads_real_part(self):
        p = make_gaussian_pointer()
        shift = post_selected_mean_shift(couple(UP_Z, p, CouplingSpec(0.01, pauli("z"))), UP_X)
        assert shift / 0.01 == pytest.approx(1.0, abs=1e-3)

    def test_cross_module_oracle(self):
        pre = spin_state(2 * np.pi / 3)
        wv = weak_value(TwoStateVector(pre, UP_Z), pauli_operator("z"))
        p = make_gaussian_pointer()
        shift = post_selected_mean_shift(couple(pre, p, CouplingSpec(0.01, pauli("z"))), UP_Z)
        assert shift / 0.01 == pytest.approx(wv.real, abs=1e-2)

    def test_quadratic_convergence(self):
        pre, post = spin_state(2.2, 0.3), spin_state(0.7, -0.5)
        wv = weak_value(TwoStateVector(pre, post), pauli_operator("z"))
        p = make_gaussian_pointer()
        errors = []
        for lam in (0.1, 0.05, 0.025):
            shift = post_selected_mean_shift(couple(pre, p, CouplingSpec(lam, pauli("z"))), post)
            errors.append(abs(shift / lam - wv.real))
        assert errors[1] / errors[0] <= 0.3
        assert errors[2] / errors[1] <= 0.3

    def test_swap_invariance(self):
        pre, post = spin_state(0.9, 0.5), spin_state(2.1, -0.3)
        p = make_gaussian_pointer()
        coupling = CouplingSpec(0.05, pauli("z"))
        forward = post_selected_mean_shift(couple(pre, p, coupling), post)
        backward = post_selected_mean_shift(couple(post, p, coupling), pre)
        assert forward == pytest.approx(backward, abs=1e-8)

    def test_orthogonal_selection_rejected(self):
        p = make_gaussian_pointer()
        joint = couple(UP_Z, p, CouplingSpec(0.01, pauli("z")))
        with pytest.raises(ZeroOverlapError):
            post_selected_mean_shift(joint, basis_state(2, 1))


class TestMomentumReadout:
    def test_sign_tracks_imaginary_part(self):
        p = make_gaussian_pointer()
        coupling = CouplingSpec(0.05, pauli("y"))
        plus = post_selected_momentum_mean(couple(UP_Z, p, coupling), UP_X)  # A_w = +i
        minus = post_selected_momentum_mean(couple(UP_X, p, coupling), UP_Z)  # A_w = -i
        assert plus > 0 and minus < 0

    def test_real_weak_value_leaves_momentum_untouched(self):
        p = make_gaussian_pointer()
        mean = post_selected_momentum_mean(couple(UP_Z, p, CouplingSpec(0.05, pauli("z"))), UP_Z)
        assert mean == pytest.approx(0.0, abs=1e-9)


GRID = make_gaussian_pointer(1.0, 1024, 32.0)
Q, DQ = GRID.positions, GRID.spacing


class TestJointOwnership:
    def test_constructor_copies_its_input(self):
        amps = np.stack([GRID.amps, 0 * GRID.amps])
        joint = JointState(amps, GRID)
        amps[0] = 0
        assert np.array_equal(joint.amps[0], GRID.amps)
        assert not joint.amps.flags.writeable

    def test_couple_hands_its_joint_over_without_a_copy(self):
        # a qubit with both branches live on 262,144 points: 4 MiB per wave, 8 MiB for the joint
        pointer = make_gaussian_pointer(1.0, 262_144)
        system, coupling = spin_state(0.7, 0.3), CouplingSpec(0.05, pauli("z"))
        tracemalloc.start()
        try:
            joint = couple(system, pointer, coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        wave = pointer.amps.nbytes
        assert joint.amps.nbytes == 2 * wave and not joint.amps.flags.writeable
        # the peak is the second branch's transform: spectrum, frequencies, first wave, product and its
        # inverse; a copy of the joint, or a grid-sized product while it fills, would pass this bound
        assert peak <= 4 * wave + pointer.positions.nbytes + 2**16


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: PointerState(Q, GRID.amps[:-1], DQ, 1.0), ValueError,
                 "positions and amps must be matching 1-d arrays", id="mismatched-arrays"),
    pytest.param(lambda: PointerState(Q[:255], GRID.amps[:255], DQ, 1.0), PointerGridError,
                 "grid has 255 points; need >= 256", id="under-256-points"),
    pytest.param(lambda: PointerState(Q, GRID.amps, DQ, 3.0), PointerGridError,
                 "at least 8 sigma on each side", id="under-8-sigma-margin"),
    pytest.param(lambda: make_gaussian_pointer(sigma=0), ValueError, "sigma must be positive", id="zero-sigma"),
    pytest.param(lambda: JointState(np.stack([GRID.amps, GRID.amps]), GRID), PointerGridError,
                 "joint norm is", id="joint-norm"),
    pytest.param(lambda: JointState(GRID.amps, GRID), ValueError,
                 r"^joint amplitudes of shape \(1024,\) do not fit a pointer grid of shape \(1024,\)$",
                 id="joint-1d"),
    pytest.param(lambda: JointState(np.stack([GRID.amps, 0 * GRID.amps]), make_gaussian_pointer()), ValueError,
                 r"^joint amplitudes of shape \(2, 1024\) do not fit a pointer grid of shape \(4096,\)$",
                 id="joint-off-grid"),
    pytest.param(lambda: couple(basis_state(3, 0), GRID, CouplingSpec(0.1, pauli("z"))), DimensionMismatchError,
                 "system dim 3 vs observable dim 2", id="couple-dims"),
    pytest.param(lambda: post_selected_pointer(couple(UP_Z, GRID, CouplingSpec(0.1, pauli("z"))), basis_state(3, 0)),
                 DimensionMismatchError, "post dim 3 vs system dim 2", id="post-selected-dims"),
])
def test_grid_and_dimension_guards(build, error, match):
    with pytest.raises(error, match=match):
        build()
