"""Discretized von Neumann pointer measurements.

A measurement couples the system observable A to the momentum conjugate to a
pointer coordinate q, H = g(t) p A, so the time-integrated interaction
exp(-i λ p A) rigidly translates the pointer by λ·a_j on eigenbranch j.  The
pointer ready state is a Gaussian of width σ centered at 0, so the measured
value is the pointer position.  λ ≫ σ separates the eigenvalue lobes and
realizes an ideal projective measurement; λ ≪ σ leaves the system almost
undisturbed and the post-selected mean position reads out λ·Re(A_w).

``couple`` makes the ``JointState`` that ``readout`` and every post-selected
reading take, so one coupling serves as many readings as a caller needs.

Translations are performed spectrally (FFT phase ramp on the ready state's
one transform), so sub-grid shifts are exact up to grid bandwidth; index
rounding would bias weak shifts that are far smaller than the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SpectralObservable, StateVector
from .errors import DimensionMismatchError, PointerGridError, ZeroOverlapError

DEFAULT_N = 4096
DEFAULT_SPAN_SIGMAS = 64.0
NORM_TOL = 1e-8
FILL_BLOCK = 16384  # grid points per product while a joint is filled


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise PointerGridError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PointerState:
    """A pointer wavefunction on a uniform grid about 0; Σ|amp|²·dq = 1."""

    positions: np.ndarray
    amps: np.ndarray
    spacing: float
    sigma: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        amps = np.asarray(self.amps, dtype=complex)
        if pos.ndim != 1 or pos.shape != amps.shape:
            raise ValueError("positions and amps must be matching 1-d arrays")
        if pos.size < 256:
            raise PointerGridError(f"grid has {pos.size} points; need >= 256")
        _check_finite(spacing=self.spacing, sigma=self.sigma)
        if not min(-pos[0], pos[-1]) >= 8 * self.sigma:
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


def make_gaussian_pointer(sigma: float = 1.0, n: int = DEFAULT_N, span: float | None = None) -> PointerState:
    """Normalized Gaussian ready state of position spread ``sigma``, centered at 0."""
    if span is None:
        span = DEFAULT_SPAN_SIGMAS * sigma
    _check_finite(sigma=sigma, span=span)
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
    q = (np.arange(n) - (n - 1) / 2) * dq
    amps = np.exp(-((q / sigma) ** 2) / 4).astype(complex)  # in units of sigma: no overflow
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * dq)
    return PointerState(q, amps, dq, sigma)


@dataclass(frozen=True)
class CouplingSpec:
    """Time-integrated coupling strength and the observable being measured."""

    strength: float
    observable: SpectralObservable

    def __post_init__(self):
        if not np.isfinite(self.strength) or self.strength < 0:
            raise ValueError("coupling strength must be finite and >= 0")


def _frozen_joint(amps: np.ndarray, pointer: PointerState) -> np.ndarray:
    """A joint's own complex ``amps``, checked against ``pointer``'s grid and the norm, made read-only."""
    grid = pointer.positions.shape
    if amps.ndim != 2 or amps.shape[1:] != grid:
        raise ValueError(f"joint amplitudes of shape {amps.shape} do not fit a pointer grid of shape {grid}")
    norm = float(np.sum(np.abs(amps) ** 2) * pointer.spacing)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise PointerGridError(f"joint norm is {norm!r}, expected 1 within {NORM_TOL}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True)
class JointState:
    """System ⊗ pointer amplitudes, shape (system dim, grid points), on ``pointer``'s grid."""

    amps: np.ndarray
    pointer: PointerState

    def __post_init__(self):
        object.__setattr__(self, "amps", _frozen_joint(np.array(self.amps, dtype=complex, order="C"), self.pointer))

    @classmethod
    def _adopt(cls, amps: np.ndarray, pointer: PointerState) -> "JointState":
        """``JointState(amps, pointer)`` for a complex array no one else holds: checked and frozen, not copied."""
        joint = object.__new__(cls)
        object.__setattr__(joint, "pointer", pointer)
        object.__setattr__(joint, "amps", _frozen_joint(amps, pointer))
        return joint

    @property
    def system_dim(self) -> int:
        return self.amps.shape[0]


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
    spectrum = np.fft.fft(pointer.amps)  # each branch shifts the ready state by a phase ramp on it
    freqs = np.fft.fftfreq(spectrum.size, d=pointer.spacing)
    branches = [proj @ system.amps for proj in obs.projectors]
    # np.multiply: `*` may swap the spectrum with a large temporary ramp, and complex products round by order
    waves = [(branch, np.fft.ifft(np.multiply(spectrum, np.exp(-2j * np.pi * freqs * float(shift)))))
             for branch, shift in zip(branches, shifts) if np.vdot(branch, branch).real >= 1e-30]
    del spectrum, freqs  # like each wave below, freed once used; the joint is handed over, not copied
    joint = np.zeros((system.dim, pointer.positions.size), dtype=complex)
    while waves:  # row by row, rounding as np.outer does, in blocks: no (dim, grid) or (grid,) temporary
        branch, wave = waves.pop(0)
        for amp, row in zip(branch, joint):
            for start in range(0, wave.size, FILL_BLOCK):
                row[start : start + FILL_BLOCK] += amp * wave[start : start + FILL_BLOCK]
        del wave
    return JointState._adopt(joint, pointer)


def _sample_cells(probs: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` grid cells drawn from the per-cell ``probs`` by inverse CDF, one uniform each."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right")


@dataclass(frozen=True)
class PointerReadout:
    """Marginal pointer distribution plus the conditional system collapse map."""

    positions: np.ndarray
    probabilities: np.ndarray  # per grid cell, sums to 1
    _joint: np.ndarray

    def sample_index(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` grid cells drawn from the marginal distribution."""
        return _sample_cells(self.probabilities, rng, size)

    def collapse(self, index: int) -> StateVector:
        """System state conditioned on reading the pointer in grid cell ``index``."""
        return StateVector.normalized(self._joint[:, index])


def readout(joint: JointState) -> PointerReadout:
    """Marginal pointer position distribution of a joint state."""
    probs = np.sum(np.abs(joint.amps) ** 2, axis=0) * joint.pointer.spacing
    probs = probs / probs.sum()
    return PointerReadout(joint.pointer.positions, probs, joint.amps)


def _post_selected_wave(joint: JointState, post: StateVector) -> tuple[np.ndarray, float]:
    """The pointer wave ⟨post|joint⟩ and its squared norm Σ|wave|²·dq."""
    if post.dim != joint.system_dim:
        raise DimensionMismatchError(f"post dim {post.dim} vs system dim {joint.system_dim}")
    wave = post.amps.conj() @ joint.amps
    norm = float(np.sum(np.abs(wave) ** 2) * joint.pointer.spacing)
    if norm < 1e-14:
        raise ZeroOverlapError("post-selection removes all amplitude; pointer undefined")
    return wave, norm


def post_selected_pointer(joint: JointState, post: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Pointer wave after projecting the system side onto ⟨post|; (positions, probs)."""
    wave, norm = _post_selected_wave(joint, post)
    probs = np.abs(wave) ** 2 * joint.pointer.spacing / norm
    return joint.pointer.positions, probs


def post_selected_mean_shift(joint: JointState, post: StateVector) -> float:
    """Mean pointer position of ``joint`` after post-selecting the system on ``post``.

    In the weak regime λ ≪ σ, (shift / λ) converges to Re(A_w) with error
    O((λ/σ)²); with pre = post = an eigenstate the shift is λ·a at any λ.
    """
    positions, probs = post_selected_pointer(joint, post)
    return float(np.sum(positions * probs))


def post_selected_momentum_mean(joint: JointState, post: StateVector) -> float:
    """Mean pointer momentum of ``joint`` after post-selecting the system on ``post``.

    The displacement from the (zero) initial momentum mean tracks Im(A_w):
    validated qualitatively by sign, not by a quantitative formula.
    """
    wave, _ = _post_selected_wave(joint, post)
    spectrum = np.fft.fft(wave)
    momenta = 2 * np.pi * np.fft.fftfreq(wave.size, d=joint.pointer.spacing)
    weights = np.abs(spectrum) ** 2
    return float(np.sum(momenta * weights) / weights.sum())
