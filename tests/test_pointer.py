"""Pointer measurement model: coupling, readout, strong and weak regimes."""

import copy
import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.algebra import (
    SpectralObservable,
    StateVector,
    basis_state,
    pauli,
    pauli_operator,
    spin_state,
    state_projector_observable,
    which_path,
)
from twostate.errors import DimensionMismatchError, PointerGridError, ZeroOverlapError
from twostate.montecarlo import chunk_rng
from twostate.pointer import (
    FILL_BLOCK,
    CouplingSpec,
    JointState,
    PointerState,
    _phase_ramp,
    _sample_cells,
    couple,
    gaussian_pointer_means,
    make_gaussian_pointer,
    post_selected_mean_shift,
    post_selected_momentum_mean,
    post_selected_pointer,
    readout,
)
from twostate.rules import TwoStateVector, abl_probabilities, weak_value

UP_Z = basis_state(2, 0)
UP_X = spin_state(np.pi / 2)


def _mean_position(p: PointerState) -> float:
    return float(np.sum(p.positions * np.abs(p.amps) ** 2) * p.spacing)


class TestGaussianPointer:
    def test_moments(self):
        p = make_gaussian_pointer(1.0, 1024, 32.0)
        assert _mean_position(p) == pytest.approx(0.0, abs=1e-10)
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
            PointerState(p.amps, **grid)

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
        assert abs(_mean_position(p)) <= 1e-12 * sigma

    def test_non_finite_amplitudes_fail_the_norm_check(self):
        p = make_gaussian_pointer()
        amps = p.amps.copy()
        amps[0] = np.nan
        with pytest.raises(PointerGridError, match="norm is nan"):
            PointerState(amps, p.spacing, p.sigma)


def _parent_pointer(sigma: float, n: int, span: float) -> dict | None:
    """The Gaussian ready state as the pointer built it when ``make_gaussian_pointer`` refused spans under 16σ
    and ``PointerState`` took any ``positions``: every array and float it held, or None where it refused."""
    dq = span / n
    if not span >= 16 * sigma or not dq <= sigma / 8 or dq < np.finfo(float).tiny:
        return None
    q = (np.arange(n) - (n - 1) / 2) * dq
    amps = np.exp(-((q / sigma) ** 2) / 4).astype(complex)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * dq)
    if not min(-q[0], q[-1]) >= 8 * sigma:
        return None
    phases = (-2j * np.pi * np.fft.fftfreq(n, d=dq)).imag
    return {"positions": q, "amps": amps, "spacing": dq, "sigma": sigma, "spectrum": np.fft.fft(amps),
            "phases": phases, "span": float(q[-1] - q[0] + dq)}


def _bits(value) -> np.ndarray:
    return np.ascontiguousarray(value).view(np.uint64)


class TestPointerOwnsItsGrid:
    """``PointerState`` derives its positions from the spacing and is the only judge of its grid."""

    @given(sigma=st.one_of(st.sampled_from([1.0, 2.0, 0.37, 3e-5, 1e100, 1e-300, 1e-306]), st.floats(1e-3, 1e3)),
           n=st.one_of(st.sampled_from([256, 257, 4096, 4097]), st.integers(256, 4096)),
           reach=st.one_of(st.floats(12, 600), st.floats(600, 1e7),
                           st.sampled_from([15.0, 16.0, 16.003, 16.004]),
                           st.sampled_from([-1, 0, 1]).map(lambda k: ("floor", k))))
    @settings(max_examples=300, deadline=None)
    def test_builds_the_parent_grids_bit_for_bit(self, sigma, n, reach):
        # reach is the span in units of sigma, or ("floor", k): k ulps from 16·n/(n-1), the least that reaches 8σ;
        # spans far too coarse for sigma/8 underflow the Gaussian's norm sum, so they must be refused before it
        if isinstance(reach, tuple):
            floor = 16 * n / (n - 1)
            reach = float(floor if reach[1] == 0 else np.nextafter(floor, reach[1] * np.inf))
        expected = _parent_pointer(sigma, n, reach * sigma)
        try:
            pointer = make_gaussian_pointer(sigma, n, reach * sigma)
        except PointerGridError:
            assert expected is None
            return
        assert expected is not None
        for name, value in expected.items():
            assert np.array_equal(_bits(getattr(pointer, name)), _bits(value)), name

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), overlap=st.floats(0.05, 1.0),
           n=st.one_of(st.sampled_from([4096, 4097]), st.integers(256, 2048)), sigma=st.sampled_from([1.0, 0.37, 3e-5]),
           lam=st.floats(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_momentum_reads_the_stored_frequencies_bit_for_bit(self, seed, dim, overlap, n, sigma, lam):
        # λ in units of sigma, up to the grid's span/4 = 8σ
        pre, post, obs = _selections(seed, dim, overlap)
        pointer = make_gaussian_pointer(sigma, n, 32 * sigma)
        joint = couple(pre, pointer, CouplingSpec(lam * sigma, obs))
        weights = np.abs(np.fft.fft(post.amps.conj() @ joint.amps)) ** 2
        momenta = 2 * np.pi * np.fft.fftfreq(n, d=pointer.spacing)
        expected = float(np.sum(momenta * weights) / weights.sum())
        assert _bits(post_selected_momentum_mean(joint, post)) == _bits(expected)

    @pytest.mark.parametrize("n", [256, 1024, 4097])
    def test_positions_are_derived_from_the_spacing(self, n):
        p = make_gaussian_pointer(1.0, n, 20.0)
        assert np.array_equal(_bits(PointerState(p.amps, p.spacing, p.sigma).positions), _bits(p.positions))
        assert -p.positions[0] == p.positions[-1] >= 8 * p.sigma
        assert not p.positions.flags.writeable


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

    def test_one_forward_transform_per_pointer(self, monkeypatch):
        # the pointer takes its transform once, and every branch of every coupling shifts that one spectrum
        fft, sizes = np.fft.fft, []
        monkeypatch.setattr(np.fft, "fft", lambda a, *args: sizes.append(np.size(a)) or fft(a, *args))
        p = make_gaussian_pointer()
        assert sizes == [p.positions.size]
        for lam in (0.0, 0.1, 1.0):
            couple(UP_X, p, CouplingSpec(lam, pauli("z")))
        assert sizes == [p.positions.size]

    def test_stored_transform_is_frozen_and_outside_repr_and_equality(self):
        p = make_gaussian_pointer(1.0, 1000, 20.0)
        assert np.array_equal(p.spectrum.view(np.uint64), np.fft.fft(p.amps).view(np.uint64))
        phases = (-2j * np.pi * np.fft.fftfreq(1000, d=p.spacing)).imag
        assert np.array_equal(p.phases.view(np.uint64), phases.view(np.uint64))
        assert p.phases.base is None  # its own 8 bytes a point, not a view into a complex array
        assert not p.spectrum.flags.writeable and not p.phases.flags.writeable
        assert [f.name for f in dataclasses.fields(p) if f.init] == ["amps", "spacing", "sigma"]
        assert "spectrum" not in repr(p) and "phases" not in repr(p)
        twin = copy.copy(p)  # shares the three compared fields
        object.__setattr__(twin, "spectrum", -p.spectrum)
        object.__setattr__(twin, "phases", -p.phases)
        assert twin == p


def _couple_reference(system: StateVector, pointer: PointerState, coupling: CouplingSpec) -> np.ndarray:
    """Joint amplitudes by the reference arithmetic: a fresh transform of the ready state and a complex
    ``np.exp`` ramp on ``fftfreq`` per live branch, each wave filled in as ``couple`` fills it."""
    obs = coupling.observable
    spectrum = np.fft.fft(pointer.amps)
    freqs = np.fft.fftfreq(spectrum.size, d=pointer.spacing)
    joint = np.zeros((system.dim, spectrum.size), dtype=complex)
    for proj, shift in zip(obs.projectors, coupling.strength * obs.eigenvalues):
        branch = proj @ system.amps
        if np.vdot(branch, branch).real >= 1e-30:
            wave = np.fft.ifft(np.multiply(spectrum, np.exp(-2j * np.pi * freqs * float(shift))))
            for amp, row in zip(branch, joint):
                for start in range(0, wave.size, FILL_BLOCK):
                    row[start : start + FILL_BLOCK] += amp * wave[start : start + FILL_BLOCK]
    return joint


@st.composite
def _couplings(draw):
    """(system, coupling): d 2–4, a random Hermitian observable or exact degenerate branches with eigenvalues
    that may be 0, and a system in the span of the first few eigenvectors, so later branches may be dead."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    if draw(st.booleans()):
        values = rng.uniform(-2, 2, dim)
        obs = SpectralObservable.from_hermitian(basis @ np.diag(values) @ basis.conj().T)
    else:
        values = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0]), min_size=dim, max_size=dim))
        eigs = sorted(set(values))
        blocks = [basis[:, [v == e for v in values]] for e in eigs]
        obs = SpectralObservable(np.array(eigs), np.array([b @ b.conj().T for b in blocks]))
    live = draw(st.integers(1, dim))
    system = StateVector.normalized(basis[:, :live] @ (rng.normal(size=live) + 1j * rng.normal(size=live)))
    strength = draw(st.one_of(st.just(0.0), st.floats(0, 1e-6), st.floats(0, 4)))  # shifts up to span/4 = 8
    return system, CouplingSpec(strength, obs)


class TestCoupleArithmetic:
    """``couple`` rounds every point as the reference arithmetic does, compared bit for bit."""

    @given(n=st.integers(256, 16384), span=st.floats(17, 32), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ramp_is_the_complex_exponential(self, n, span, data):
        pointer = make_gaussian_pointer(1.0, n, span)
        shift = data.draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12]),
                                    st.floats(-pointer.span / 4, pointer.span / 4)))
        expected = np.exp(-2j * np.pi * np.fft.fftfreq(n, d=pointer.spacing) * float(shift))
        assert np.array_equal(_phase_ramp(pointer.phases, shift).view(np.uint64), expected.view(np.uint64))

    @given(case=_couplings(), n=st.integers(256, 2048))
    @settings(max_examples=150, deadline=None)
    def test_couple_is_the_reference(self, case, n):
        system, coupling = case
        pointer = make_gaussian_pointer(1.0, n, 32.0)
        joint = couple(system, pointer, coupling)
        expected = _couple_reference(system, pointer, coupling)
        assert np.array_equal(joint.amps.view(np.uint64), expected.view(np.uint64))


# sha256 of couple(...).amps.tobytes() on the default grid: which_path's two branches shift by +0 and -0 at
# λ = 0, and the projector's eigenvalue-0 branch stays put at every λ
JOINT_PINS = {
    ("which_path", 0.0): "18ceea8f44a4198cc9b2640029586c0c27bc2699c2ef903ca8bb0eb1cffbfa03",
    ("which_path", 0.3): "b8097820c89bf53b7400ef9d6cc677b5a38720ffdc0b26043667acdec890ab1e",
    ("projector", 0.0): "1130bff679a013cc609e4cb6ba81c7acc4420ece110cb3f9ae962c86d4c2d851",
    ("projector", 0.3): "128237907913a2e4e2b2befefcf289b6723440d9d7462857b7ef64153673a868",
}


@pytest.mark.pin
@pytest.mark.parametrize("name, strength", sorted(JOINT_PINS))
def test_joint_bytes_are_pinned(name, strength):
    obs = which_path() if name == "which_path" else state_projector_observable(spin_state(1.2, 0.4))
    joint = couple(spin_state(0.7, 0.3), make_gaussian_pointer(1.0, 4096), CouplingSpec(strength, obs))
    assert hashlib.sha256(joint.amps.tobytes()).hexdigest() == JOINT_PINS[name, strength]


class TestReadout:
    def test_strong_collapse_fidelity(self):
        p = make_gaussian_pointer()
        joint = couple(UP_X, p, CouplingSpec(10.0, pauli("z")))
        ro = readout(joint)
        rng = chunk_rng(3, 0)
        idx = _sample_cells(ro.probabilities, rng, 500)
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


def _selections(seed: int, dim: int, overlap: float):
    """Random pre and post with |⟨post|pre⟩| = ``overlap`` and a random observable with max |a_j| = 1."""
    rng = np.random.default_rng(seed)
    pre = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pre /= np.linalg.norm(pre)
    perp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    perp -= np.vdot(pre, perp) * pre
    post = overlap * np.exp(2j * np.pi * rng.random()) * pre + np.sqrt(1 - overlap**2) * perp / np.linalg.norm(perp)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    obs = SpectralObservable.from_hermitian(h / np.abs(np.linalg.eigvalsh(h)).max())
    return StateVector.normalized(pre), StateVector.normalized(post), obs


class TestExactGaussianPointer:
    """``gaussian_pointer_means``: the closed form the grid is checked against."""

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), overlap=st.floats(0.3, 1.0),
           sigma=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=100, deadline=None)
    def test_weak_limit_is_the_weak_value_to_second_order(self, seed, dim, overlap, sigma):
        # shift/λ → Re(A_w) and momentum/λ → Im(A_w)/(2σ²) with an error e(λ) = Kλ² + O(λ⁴),
        # so e(λ/2) = e(λ)/4
        pre, post, obs = _selections(seed, dim, overlap)
        wv = weak_value(TwoStateVector(pre, post), obs.operator)
        errors = []
        for lam in (1e-3 * sigma, 5e-4 * sigma):
            shift, momentum, _ = gaussian_pointer_means(pre, post, CouplingSpec(lam, obs), sigma)
            errors.append((shift / lam - wv.real, (momentum / lam - wv.imag / (2 * sigma**2)) * sigma**2))
        for full, half in zip(*errors):
            assert abs(full) <= 100 * 1e-3**2
            assert abs(half - full / 4) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), log_overlap=st.floats(-6, 0),
           log_reach=st.floats(-6, 0))
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_the_closed_form(self, seed, dim, log_overlap, log_reach):
        # λ·max|a_j| from 1e-6 up to the grid's limit span/4 = 16σ; the grid's rounding grows as 1/N
        pre, post, obs = _selections(seed, dim, 10**log_overlap)
        pointer = make_gaussian_pointer()
        reach = 10**log_reach * pointer.span / 4 * (1 - 1e-15)  # λ·max|a_j|, with max|a_j| = 1 to rounding
        coupling = CouplingSpec(reach / np.abs(obs.eigenvalues).max(), obs)
        joint = couple(pre, pointer, coupling)
        shift, momentum, norm = gaussian_pointer_means(pre, post, coupling, pointer.sigma)
        tol = 1e-12 * max(1.0, reach) / norm
        assert abs(post_selected_mean_shift(joint, post) - shift) <= tol
        assert abs(post_selected_momentum_mean(joint, post) - momentum) <= tol
        grid_norm = float(np.sum(np.abs(post.amps.conj() @ joint.amps) ** 2) * pointer.spacing)
        assert abs(grid_norm - norm) <= 1e-14

    def test_eigenstate_shifts_rigidly(self):
        # pre = post = an eigenstate: shift λ·a, no momentum, N = 1, at any λ
        for lam in (1e-3, 1.0, 16.0):
            assert gaussian_pointer_means(UP_Z, UP_Z, CouplingSpec(lam, pauli("z")), 1.0) == (lam, 0.0, 1.0)

    def test_orthogonal_selection_rejected(self):
        with pytest.raises(ZeroOverlapError):
            gaussian_pointer_means(UP_Z, basis_state(2, 1), CouplingSpec(0.01, pauli("z")), 1.0)


GRID = make_gaussian_pointer(1.0, 1024, 32.0)
DQ = GRID.spacing


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
        # the peak is a branch's inverse transform: the joint, the shifted spectrum and its inverse; a copy of
        # the joint or the spectrum, the frequencies, a second live wave or a grid-sized product while the
        # joint fills would exceed this bound
        assert peak <= 4 * wave + 2**16


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: PointerState(np.stack([GRID.amps, GRID.amps]), DQ, 1.0), ValueError,
                 r"^amps must be a 1-d array, got shape \(2, 1024\)$", id="mismatched-arrays"),
    pytest.param(lambda: PointerState(GRID.amps[:255], DQ, 1.0), PointerGridError,
                 "grid has 255 points; need >= 256", id="under-256-points"),
    pytest.param(lambda: PointerState(GRID.amps, DQ, 3.0), PointerGridError,
                 "at least 8 sigma on each side", id="under-8-sigma-margin"),
    pytest.param(lambda: PointerState(GRID.amps, DQ, 0.2), PointerGridError,
                 r"^grid too coarse: dq = 0\.03125 > sigma/8 = 0\.025$", id="coarser-than-sigma-over-8"),
    pytest.param(lambda: make_gaussian_pointer(sigma=0), ValueError, "sigma must be positive", id="zero-sigma"),
    pytest.param(lambda: make_gaussian_pointer(sigma=5e-324), PointerGridError,
                 r"^sigma 5e-324 too small: grid spacing 0\.0 is subnormal$", id="zero-spacing"),
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
    pytest.param(lambda: gaussian_pointer_means(UP_Z, basis_state(3, 0), CouplingSpec(0.1, pauli("z")), 1.0),
                 DimensionMismatchError, r"^pre dim 2, post dim 3 vs observable dim 2$", id="exact-means-dims"),
])
def test_grid_and_dimension_guards(build, error, match):
    with pytest.raises(error, match=match):
        build()
