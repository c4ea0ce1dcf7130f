"""Discretized von Neumann pointer measurements.

A measurement couples the system observable A to the momentum conjugate to a
pointer coordinate q, H = g(t) p A, so the time-integrated interaction
exp(-i λ p A) rigidly translates the pointer by λ·a_j on eigenbranch j.  The
pointer ready state is a Gaussian of width σ centered at 0 (any center
works); the measured value is the pointer displacement.  λ ≫ σ separates the
eigenvalue lobes and realizes an ideal projective measurement; λ ≪ σ leaves
the system almost undisturbed and the post-selected mean displacement reads
out λ·Re(A_w).

Translations are performed spectrally (FFT phase ramp), so sub-grid shifts
are exact up to grid bandwidth; index rounding would bias weak shifts that
are far smaller than the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SpectralObservable, StateVector
from .errors import DimensionMismatchError, PointerGridError, ZeroOverlapError

DEFAULT_N = 4096
DEFAULT_SPAN_SIGMAS = 64.0
NORM_TOL = 1e-8


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise PointerGridError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PointerState:
    """A pointer wavefunction on a uniform grid; Σ|amp|²·dq = 1."""

    positions: np.ndarray
    amps: np.ndarray
    spacing: float
    center: float
    sigma: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        amps = np.asarray(self.amps, dtype=complex)
        if pos.ndim != 1 or pos.shape != amps.shape:
            raise ValueError("positions and amps must be matching 1-d arrays")
        if pos.size < 256:
            raise PointerGridError(f"grid has {pos.size} points; need >= 256")
        _check_finite(spacing=self.spacing, center=self.center, sigma=self.sigma)
        margin = min(self.center - pos[0], pos[-1] - self.center)
        if not margin >= 8 * self.sigma:
            raise PointerGridError("grid must span at least 8 sigma on each side of center")
        norm = float(np.sum(np.abs(amps) ** 2) * self.spacing)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise PointerGridError(f"pointer norm is {norm!r}, expected 1 within {NORM_TOL}")
        for name, arr in (("positions", pos), ("amps", amps)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def span(self) -> float:
        return float(self.positions[-1] - self.positions[0] + self.spacing)

    def mean_position(self) -> float:
        return float(np.sum(self.positions * np.abs(self.amps) ** 2) * self.spacing)


def make_gaussian_pointer(
    center: float = 0.0,
    sigma: float = 1.0,
    n: int = DEFAULT_N,
    span: float | None = None,
) -> PointerState:
    """Normalized Gaussian ready state of position spread ``sigma``."""
    if span is None:
        span = DEFAULT_SPAN_SIGMAS * sigma
    _check_finite(center=center, sigma=sigma, span=span)
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not span >= 16 * sigma:
        raise PointerGridError(f"span {span} < 16 sigma")
    if n < 256:
        raise PointerGridError(f"n = {n} < 256")
    dq = span / n
    if not dq <= sigma / 8:
        raise PointerGridError(f"grid too coarse: dq = {dq} > sigma/8 = {sigma / 8}")
    if dq < np.finfo(float).tiny:  # a subnormal spacing overflows the norm sums and the phase ramp
        raise PointerGridError(f"sigma {sigma!r} too small: grid spacing {dq!r} is subnormal")
    q = center + (np.arange(n) - (n - 1) / 2) * dq
    amps = np.exp(-(((q - center) / sigma) ** 2) / 4).astype(complex)  # in units of sigma: no overflow
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * dq)
    return PointerState(q, amps, dq, center, sigma)


@dataclass(frozen=True)
class CouplingSpec:
    """Time-integrated coupling strength and the observable being measured."""

    strength: float
    observable: SpectralObservable

    def __post_init__(self):
        if not np.isfinite(self.strength) or self.strength < 0:
            raise ValueError("coupling strength must be finite and >= 0")


@dataclass(frozen=True)
class JointState:
    """System ⊗ pointer amplitudes, shape (system dim, grid points)."""

    amps: np.ndarray
    positions: np.ndarray
    spacing: float
    center: float
    sigma: float

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        _check_finite(spacing=self.spacing, center=self.center, sigma=self.sigma)
        norm = float(np.sum(np.abs(amps) ** 2) * self.spacing)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise PointerGridError(f"joint norm is {norm!r}, expected 1 within {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def system_dim(self) -> int:
        return self.amps.shape[0]


def _spectral_shift(amps: np.ndarray, shift: float, spacing: float) -> np.ndarray:
    freqs = np.fft.fftfreq(amps.size, d=spacing)
    return np.fft.ifft(np.fft.fft(amps) * np.exp(-2j * np.pi * freqs * shift))


def couple(system: StateVector, pointer: PointerState, coupling: CouplingSpec) -> JointState:
    """Entangle system and pointer: Σ_j (P_j|ψ⟩) ⊗ (pointer shifted by λ·a_j)."""
    obs = coupling.observable
    if system.dim != obs.dim:
        raise DimensionMismatchError(f"system dim {system.dim} vs observable dim {obs.dim}")
    shifts = coupling.strength * obs.eigenvalues
    if np.max(np.abs(shifts)) > pointer.span / 4:
        raise PointerGridError(
            f"max branch shift {np.max(np.abs(shifts)):.3g} exceeds span/4 = {pointer.span / 4:.3g}"
        )
    joint = np.zeros((system.dim, pointer.positions.size), dtype=complex)
    for proj, shift in zip(obs.projectors, shifts):
        branch = proj @ system.amps
        if np.vdot(branch, branch).real < 1e-30:
            continue
        joint += np.outer(branch, _spectral_shift(pointer.amps, float(shift), pointer.spacing))
    return JointState(joint, pointer.positions, pointer.spacing, pointer.center, pointer.sigma)


@dataclass(frozen=True)
class PointerReadout:
    """Marginal pointer distribution plus the conditional system collapse map."""

    positions: np.ndarray
    probabilities: np.ndarray  # per grid cell, sums to 1
    _joint: np.ndarray

    def sample_index(self, rng: np.random.Generator, size: int | None = None):
        cum = np.cumsum(self.probabilities)
        cum[-1] = 1.0
        u = rng.random(size if size is not None else 1)
        idx = np.searchsorted(cum, u, side="right")
        return idx if size is not None else int(idx[0])

    def collapse(self, index: int) -> StateVector:
        """System state conditioned on reading the pointer in grid cell ``index``."""
        return StateVector.normalized(self._joint[:, index])


def readout(joint: JointState) -> PointerReadout:
    """Marginal pointer position distribution of a joint state."""
    probs = np.sum(np.abs(joint.amps) ** 2, axis=0) * joint.spacing
    probs = probs / probs.sum()
    return PointerReadout(joint.positions, probs, joint.amps)


def _post_selected_wave(joint: JointState, post: StateVector) -> tuple[np.ndarray, float]:
    """The pointer wave ⟨post|joint⟩ and its squared norm Σ|wave|²·dq."""
    if post.dim != joint.system_dim:
        raise DimensionMismatchError(f"post dim {post.dim} vs system dim {joint.system_dim}")
    wave = post.amps.conj() @ joint.amps
    norm = float(np.sum(np.abs(wave) ** 2) * joint.spacing)
    if norm < 1e-14:
        raise ZeroOverlapError("post-selection removes all amplitude; pointer undefined")
    return wave, norm


def post_selected_pointer(
    joint: JointState, post: StateVector
) -> tuple[np.ndarray, np.ndarray]:
    """Pointer wave after projecting the system side onto ⟨post|; (positions, probs)."""
    wave, norm = _post_selected_wave(joint, post)
    probs = np.abs(wave) ** 2 * joint.spacing / norm
    return joint.positions, probs


def post_selected_mean_shift(
    pre: StateVector,
    post: StateVector,
    coupling: CouplingSpec,
    pointer: PointerState,
) -> float:
    """Mean pointer displacement conditioned on post-selecting the system.

    In the weak regime λ ≪ σ, (shift / λ) converges to Re(A_w) with error
    O((λ/σ)²); with pre = post = an eigenstate the shift is λ·a at any λ.
    """
    joint = couple(pre, pointer, coupling)
    positions, probs = post_selected_pointer(joint, post)
    return float(np.sum(positions * probs)) - pointer.center


def post_selected_momentum_mean(
    pre: StateVector,
    post: StateVector,
    coupling: CouplingSpec,
    pointer: PointerState,
) -> float:
    """Mean pointer momentum after post-selection.

    The displacement from the (zero) initial momentum mean tracks Im(A_w):
    validated qualitatively by sign, not by a quantitative formula.
    """
    joint = couple(pre, pointer, coupling)
    wave, _ = _post_selected_wave(joint, post)
    spectrum = np.fft.fft(wave)
    momenta = 2 * np.pi * np.fft.fftfreq(wave.size, d=joint.spacing)
    weights = np.abs(spectrum) ** 2
    return float(np.sum(momenta * weights) / weights.sum())
