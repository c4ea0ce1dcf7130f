"""Discretized von Neumann pointer measurements.

A measurement couples the system observable A to the momentum conjugate to a
pointer coordinate q, H = g(t) p A, so the time-integrated interaction
exp(-i λ p A) rigidly translates the pointer by λ·a_j on eigenbranch j.  The
pointer ready state is a Gaussian of width σ centered at 0, so the measured
value is the pointer position.  λ ≫ σ separates the eigenvalue lobes and
realizes an ideal projective measurement; λ ≪ σ leaves the system almost
undisturbed and the post-selected mean position reads out λ·Re(A_w).
``PointerState`` derives its grid, symmetric about 0, from its spacing and
alone decides which grids resolve σ and hold the pointer.

``couple`` makes the ``JointState`` that ``readout`` and every post-selected
reading take, so one coupling serves as many readings as a caller needs;
``gaussian_pointer_means`` gives the exact post-selected means to check them.

Translations are performed spectrally (FFT phase ramp on the pointer's own
transform, taken once), so sub-grid shifts are exact up to grid bandwidth;
index rounding would bias weak shifts that are far smaller than the grid
spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SpectralObservable, StateVector
from .errors import DimensionMismatchError, PointerGridError, ZeroOverlapError

DEFAULT_N = 4096
DEFAULT_SPAN_SIGMAS = 64.0
NORM_TOL = 1e-8
FILL_BLOCK = 16384  # grid points per product while a joint is filled
POST_NORM_FLOOR = 1e-14  # a post-selected pointer of smaller squared norm is undefined


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise PointerGridError(f"{name} must be finite, got {value!r}")


def _grid(n: int, spacing: float, sigma: float) -> np.ndarray:
    """The ``n`` points ``spacing`` apart, symmetric about 0, that a pointer of width ``sigma`` lives on.

    The one grid formula and the one judge of a grid, before any arithmetic on it.
    """
    if n < 256:
        raise PointerGridError(f"grid has {n} points; need >= 256")
    _check_finite(spacing=spacing, sigma=sigma)
    if abs(spacing) < np.finfo(float).tiny:  # zero or subnormal: overflows the norm sums; named before reach fails
        raise PointerGridError(f"sigma {sigma!r} too small: grid spacing {spacing!r} is subnormal")
    positions = (np.arange(n) - (n - 1) / 2) * spacing
    if not positions[-1] >= 8 * sigma:  # the first point is its negation
        raise PointerGridError("grid must span at least 8 sigma on each side of center")
    if not spacing <= sigma / 8:
        raise PointerGridError(f"grid too coarse: dq = {spacing} > sigma/8 = {sigma / 8}")
    return positions


@dataclass(frozen=True)
class PointerState:
    """A pointer wavefunction on ``_grid(amps.size, spacing, sigma)``; Σ|amp|²·dq = 1.

    The grid has >= 256 points, reaches 8σ on each side and resolves σ: spacing <= σ/8, not subnormal.
    """

    amps: np.ndarray
    spacing: float
    sigma: float
    positions: np.ndarray = field(init=False, repr=False, compare=False)  # derived from amps.size and spacing
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)  # fft(amps): every coupling shifts it
    phases: np.ndarray = field(init=False, repr=False, compare=False)  # Im(-2j·π·f) at each FFT frequency f

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amps must be a 1-d array, got shape {amps.shape}")
        positions = _grid(amps.size, self.spacing, self.sigma)
        norm = float(np.sum(np.abs(amps) ** 2) * self.spacing)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise PointerGridError(f"pointer norm is {norm!r}, expected 1 within {NORM_TOL}")
        amps = amps.copy()
        phases = (-2j * np.pi * np.fft.fftfreq(amps.size, d=self.spacing)).imag.copy()
        # the transform is taken here, not on first use, so that couple's peak holds no transform of the ready state
        for name, arr in (("positions", positions), ("amps", amps), ("spectrum", np.fft.fft(amps)), ("phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def span(self) -> float:
        return float(self.positions[-1] - self.positions[0] + self.spacing)


def make_gaussian_pointer(sigma: float = 1.0, n: int = DEFAULT_N, span: float | None = None) -> PointerState:
    """Normalized Gaussian ready state of position spread ``sigma``, centered at 0; ``PointerState`` judges the grid."""
    if span is None:
        span = DEFAULT_SPAN_SIGMAS * sigma
    _check_finite(sigma=sigma, span=span)
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n < 256:
        raise PointerGridError(f"n = {n} < 256")
    dq = span / n
    amps = np.exp(-((_grid(n, dq, sigma) / sigma) ** 2) / 4).astype(complex)  # in units of sigma: no overflow
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * dq)
    return PointerState(amps, dq, sigma)


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


def _phase_ramp(phases: np.ndarray, shift: float) -> np.ndarray:
    """The ramp exp(i·phases·shift), bit for bit as ``np.exp(-2j * np.pi * freqs * shift)`` rounds it.

    That argument is purely imaginary, so a real cos and sin of its imaginary
    part give the complex exponential; the + 0.0 turns a -0 product into the +0
    that the complex product makes.
    """
    ramp = np.empty(phases.shape, dtype=complex)
    np.multiply(phases, shift, out=ramp.imag)
    np.add(ramp.imag, 0.0, out=ramp.imag)
    np.cos(ramp.imag, out=ramp.real)
    np.sin(ramp.imag, out=ramp.imag)
    return ramp


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
        if not np.vdot(branch, branch).real >= 1e-30:
            continue
        ramp = _phase_ramp(pointer.phases, shift)
        # np.multiply keeps the operand order, and complex products round by order
        wave = np.fft.ifft(np.multiply(pointer.spectrum, ramp, out=ramp))
        del ramp  # before the fill: the peak holds the joint, one ramp and its inverse
        for amp, row in zip(branch, joint):  # rounding as np.outer does, in blocks: no (grid,) temporary
            for start in range(0, wave.size, FILL_BLOCK):
                row[start : start + FILL_BLOCK] += amp * wave[start : start + FILL_BLOCK]
        del wave  # one wave alive at a time; the joint is handed over, not copied
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
    if norm < POST_NORM_FLOOR:
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
    ``gaussian_pointer_means`` gives its exact value at every λ.
    """
    positions, probs = post_selected_pointer(joint, post)
    return float(np.sum(positions * probs))


def post_selected_momentum_mean(joint: JointState, post: StateVector) -> float:
    """Mean pointer momentum of ``joint`` after post-selecting the system on ``post``.

    The ready state's momentum mean is 0; in the weak regime the
    post-selected mean goes to λ·Im(A_w)/(2σ²).  ``gaussian_pointer_means``
    gives its exact value at every λ.
    """
    wave, _ = _post_selected_wave(joint, post)
    weights = np.abs(np.fft.fft(wave)) ** 2
    return float(np.sum(-joint.pointer.phases * weights) / weights.sum())


def gaussian_pointer_means(pre: StateVector, post: StateVector, coupling: CouplingSpec,
                           sigma: float) -> tuple[float, float, float]:
    """Exact (mean position, mean momentum, squared norm) of a Gaussian pointer post-selected on ``post``.

    The ready state φ of width ``sigma`` is centred at 0, so the post-selected
    pointer is Σ_j c_j φ(q − x_j), with c_j = ⟨post|P_j|pre⟩ and x_j = λ·a_j.
    With G_jk = exp(−(x_j − x_k)²/8σ²), the overlap of two shifted copies of φ,
    N = Σ c̄_j c_k G_jk, ⟨q⟩ = Σ c̄_j c_k G_jk (x_j + x_k)/2 / N and
    ⟨p⟩ = Σ c̄_j c_k G_jk i(x_j − x_k)/4σ² / N, which go to λ·Re(A_w) and
    λ·Im(A_w)/(2σ²) as λ → 0 (Jozsa, PRA 76, 044103 (2007)).
    """
    obs = coupling.observable
    if not pre.dim == post.dim == obs.dim:
        raise DimensionMismatchError(f"pre dim {pre.dim}, post dim {post.dim} vs observable dim {obs.dim}")
    c = (obs.projectors @ pre.amps) @ post.amps.conj()
    x = coupling.strength * obs.eigenvalues / sigma  # in units of σ, so that no σ² over- or underflows
    gap, mid = x[:, None] - x[None, :], (x[:, None] + x[None, :]) / 2
    weights = np.outer(c.conj(), c) * np.exp(-(gap**2) / 8)
    norm = float(weights.sum().real)
    if not norm >= POST_NORM_FLOOR:
        raise ZeroOverlapError("post-selection removes all amplitude; pointer undefined")
    shift, momentum = (float((weights * moment).sum().real / norm) for moment in (mid * sigma, 1j * gap / (4 * sigma)))
    return shift, momentum, norm
