"""Dense complex linear algebra over small Hilbert spaces.

Everything here is a plain value: states, operators, unitaries and spectral
observables are immutable after construction and every function is pure.
Dimensions of interest are 2..8 (composite systems via Kronecker products),
so all representations are dense ``complex128`` arrays.

Tolerances follow one convention throughout: structural validation at 1e-10.
A :class:`StateVector` accepts amplitudes whose norm is 1 within 1e-10 and
divides them by that norm; only :meth:`StateVector.normalized` scales an
arbitrary nonzero vector.  Inputs that violate an invariant raise.  Each
value is validated once, when it is built: a state in one pass that takes
``np.linalg.norm``'s own arithmetic, an observable by whole-stack maxima,
with its branches examined one by one only to name a failure.  The stacked
builders (``_unit_rows``, ``_hermitian_branches``, ``_spin_projectors``)
repeat the constructors' arithmetic over inputs the constructors accept
(finite entries, Hermitian matrices, acceptable norms) and check nothing
but the eigenvalue gaps that ``from_hermitian`` merges.  Every
eigenvalue given by value in the package names the one branch within
``EIGENVALUE_TOL`` of it; none or several raise ValueError.  The constant
observables (:func:`pauli`, :func:`which_path`, :func:`bell_basis`) are shared
immutable instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, NormalizationError, ObservableError

VALIDATE_TOL = 1e-10
DEGENERACY_TOL = 1e-8
EIGENVALUE_TOL = 1e-9  # an eigenvalue given by value matches a branch within this
ZERO_NORM_FLOOR = 1e-14  # a vector of smaller norm has no direction to normalize to

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _norm(arr: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, op for op: sqrt(re·re + im·im) by ``.dot``."""
    flat = arr.ravel(order="K")
    return math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


def _state_norm(values) -> tuple[np.ndarray, float]:
    """``values`` as a nonempty 1-d complex array of finite amplitudes, and its norm."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("state must be a nonempty 1-d amplitude array")
    norm = _norm(arr)
    if not math.isfinite(norm) and not np.isfinite(arr).all():  # a finite norm has finite terms only
        raise ValueError("state contains non-finite amplitudes")
    return arr, norm


def _as_complex_matrix(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _branch_of(eigenvalues, value: float, owner: str) -> int:
    """The index of the one eigenvalue within ``EIGENVALUE_TOL`` of ``value``;
    ValueError, naming ``owner``, when no branch or several are that close."""
    hits = [j for j, eig in enumerate(eigenvalues) if abs(eig - value) <= EIGENVALUE_TOL]
    if not hits:
        raise ValueError(f"eigenvalue {value!r} is not an outcome of {owner}")
    if len(hits) > 1:
        raise ValueError(f"eigenvalue {value!r} matches {len(hits)} branches of {owner} within {EIGENVALUE_TOL}")
    return hits[0]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ_i a_i b_i over the last axis, by stacked matmul.

    Row for row this is ``np.dot(a, b)`` bit for bit (``np.vdot`` when ``a``
    is already conjugated): both reach the same BLAS dot, whose fused
    multiply-adds an elementwise sum or ``einsum`` does not reproduce.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(amps: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` over the last axis, op for op: sqrt(re·re + im·im)."""
    return np.sqrt(_dot(amps.real, amps.real) + _dot(amps.imag, amps.imag))


def _unit_rows(amps, normalize: bool = False) -> np.ndarray:
    """``StateVector`` (or ``StateVector.normalized``) over the rows of a (..., d) stack.

    The constructor's arithmetic and nothing more: each row is assumed finite
    with a norm the constructor accepts (1 within ``VALIDATE_TOL``, or above
    ``ZERO_NORM_FLOOR`` to normalize), and no row is checked.
    """
    amps = np.asarray(amps, dtype=complex)
    if normalize:
        amps = amps / _norms(amps)[..., None]
    return amps / _norms(amps)[..., None]


def _hermitian_branches(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SpectralObservable.from_hermitian``'s arithmetic over a (..., d, d) stack.

    The matrices are assumed finite and Hermitian; only the eigenvalue gaps
    are checked.  Returns eigenvalues (..., d), rank-1 projectors
    (..., d, d, d) and the mask of rows whose every gap is above
    ``DEGENERACY_TOL``.  A row outside it is to be rebuilt through
    ``from_hermitian``, which merges its near-degenerate branches.
    """
    vals, vecs = np.linalg.eigh(np.asarray(mats, dtype=complex))
    regular = (np.diff(vals, axis=-1) > DEGENERACY_TOL).all(axis=-1)
    columns = vecs.swapaxes(-1, -2)
    return vals, columns[..., :, :, None] @ columns[..., :, None, :].conj(), regular


@dataclass(frozen=True)
class StateVector:
    """A unit-normalized ket over a finite Hilbert space."""

    amps: np.ndarray

    def __post_init__(self):
        arr, norm = _state_norm(self.amps)
        if abs(norm - 1.0) > VALIDATE_TOL:
            raise NormalizationError(
                f"state norm is {norm!r}; expected 1 within {VALIDATE_TOL} "
                "(use StateVector.normalized for unnormalized input)"
            )
        unit = arr / norm  # a fresh array: frozen without a copy
        unit.setflags(write=False)
        object.__setattr__(self, "amps", unit)

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Build a state from an arbitrary nonzero amplitude vector.

        The input is checked once and divided by its norm; the constructor
        then divides the quotient by its own norm, as every stored state is.
        Finite amplitudes whose norm overflows are first divided by their
        largest real or imaginary part; no other input changes arithmetic.
        """
        with np.errstate(over="ignore"):
            arr, norm = _state_norm(values)
        if math.isinf(norm):  # _state_norm has refused non-finite amplitudes
            arr = arr / max(np.abs(arr.real).max(), np.abs(arr.imag).max())
            norm = _norm(arr)
        if norm < ZERO_NORM_FLOOR:
            raise NormalizationError("cannot normalize a (near-)zero vector")
        return cls(arr / norm)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


@dataclass(frozen=True)
class LinearOperator:
    """A dense square operator; not necessarily Hermitian or unitary."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(_as_complex_matrix(self.matrix, "operator")))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= VALIDATE_TOL)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if not isinstance(other, LinearOperator):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(f"operator dims differ: {self.dim} vs {other.dim}")
        return LinearOperator(self.matrix @ other.matrix)


@dataclass(frozen=True)
class Unitary(LinearOperator):
    """A linear operator additionally satisfying U†U = 1 within 1e-10."""

    def __post_init__(self):
        super().__post_init__()
        defect = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(self.dim)))
        if not defect <= VALIDATE_TOL:  # a NaN defect fails
            raise NormalizationError(f"matrix is not unitary: max |U†U - 1| = {defect:.3e}")


def _diagnose_branches(values, products, skew, resolution) -> None:
    """``SpectralObservable``'s per-branch checks, which raise its first message in branch order."""
    defective = (np.abs(products).max(axis=(2, 3)) > VALIDATE_TOL).tolist()
    skewed = (np.abs(skew).max(axis=(1, 2)) > VALIDATE_TOL).tolist()
    branches = range(len(values))
    for j in branches:
        if defective[j][j]:
            raise ObservableError(f"branch {j}: projector is not idempotent")
        if skewed[j]:
            raise ObservableError(f"branch {j}: projector is not Hermitian")
    for j in branches:
        for k in range(j + 1, len(values)):
            if defective[j][k]:
                raise ObservableError(f"branches {j} and {k}: projectors are not orthogonal")
            if abs(values[j] - values[k]) <= VALIDATE_TOL:
                raise ObservableError(f"branches {j} and {k}: eigenvalues coincide")
    if np.abs(resolution).max() > VALIDATE_TOL:
        raise ObservableError("projectors do not resolve the identity")


@dataclass(frozen=True)
class SpectralObservable:
    """An observable as (eigenvalue, orthogonal projector) branches resolving identity.

    Degenerate eigenvalues are first-class: a branch projector may have any
    rank, and conditional-probability rules always act on whole eigenspaces.
    """

    eigenvalues: np.ndarray  # (k,) real, distinct
    projectors: np.ndarray  # (k, dim, dim)
    _values: tuple[float, ...] = field(init=False, repr=False, compare=False)  # the eigenvalues as floats

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=float)
        projs = np.asarray(self.projectors, dtype=complex)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ObservableError("need at least one (eigenvalue, projector) branch")
        if projs.ndim != 3 or projs.shape[0] != eigs.size or projs.shape[1] != projs.shape[2]:
            raise ObservableError(f"projector stack has shape {projs.shape}, expected (k, d, d)")
        if not np.isfinite(eigs).all() or not np.isfinite(projs).all():
            raise ObservableError("non-finite eigenvalue or projector entry")
        dim, values = projs.shape[1], eigs.tolist()
        # one batched |P_j P_l - δ_jl P_j|: idempotence on the diagonal, orthogonality off it
        products = projs[:, None] @ projs[None, :]
        products.reshape(-1, dim, dim)[:: eigs.size + 1] -= projs
        skew = projs - projs.conj().transpose(0, 2, 1)
        resolution = projs.sum(axis=0) - np.eye(dim)
        ordered = sorted(values)  # the closest pair of eigenvalues is adjacent in order
        # whole-stack maxima accept (a NaN fails them); only a failure is traced to its branch
        if not (
            np.abs(products).max() <= VALIDATE_TOL
            and np.abs(skew).max() <= VALIDATE_TOL
            and all(b - a > VALIDATE_TOL for a, b in zip(ordered, ordered[1:]))
            and np.abs(resolution).max() <= VALIDATE_TOL
        ):
            _diagnose_branches(values, products, skew, resolution)
        object.__setattr__(self, "eigenvalues", _frozen(eigs))
        object.__setattr__(self, "projectors", _frozen(projs))
        object.__setattr__(self, "_values", tuple(values))

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def num_branches(self) -> int:
        return self.eigenvalues.size

    def branches(self) -> Iterator[tuple[float, np.ndarray]]:
        for eig, proj in zip(self.eigenvalues, self.projectors):
            yield float(eig), proj

    @cached_property
    def operator(self) -> LinearOperator:
        """The Hermitian operator Σ a_j P_j."""
        return LinearOperator(np.einsum("j,jkl->kl", self.eigenvalues, self.projectors))

    def branch_index(self, eigenvalue: float) -> int:
        return _branch_of(self.eigenvalues, eigenvalue, "this observable")

    @classmethod
    def from_hermitian(cls, matrix) -> "SpectralObservable":
        """Eigendecompose a Hermitian matrix, merging near-equal eigenvalues.

        Eigenvalues within ``DEGENERACY_TOL`` of a branch's smallest one are fused
        into that degenerate branch, so conditional rules see whole eigenspaces
        and no branch spans more than ``DEGENERACY_TOL``.
        """
        mat = _as_complex_matrix(matrix, "observable matrix")
        if np.max(np.abs(mat - mat.conj().T)) > VALIDATE_TOL:
            raise ObservableError("matrix is not Hermitian")
        vals, vecs = np.linalg.eigh(mat)
        groups: list[list[int]] = [[0]]
        for i in range(1, vals.size):
            if vals[i] - vals[groups[-1][0]] <= DEGENERACY_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        eigs, projs = [], []
        for grp in groups:
            block = vecs[:, grp]
            eigs.append(float(np.mean(vals[grp])))
            projs.append(block @ block.conj().T)
        return cls(np.array(eigs), np.array(projs))

    @classmethod
    def from_eigenbasis(cls, eigenvalues: Sequence[float], vectors: Sequence[StateVector]) -> "SpectralObservable":
        """Rank-1 branches from an orthonormal basis, one eigenvalue per vector."""
        projs = [np.outer(v.amps, v.amps.conj()) for v in vectors]
        return cls(np.asarray(eigenvalues, dtype=float), np.array(projs))


Tensorable = Union[StateVector, LinearOperator]


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """⟨bra|ket⟩, conjugate-linear in the first argument."""
    if bra.dim != ket.dim:
        raise DimensionMismatchError(f"state dims differ: {bra.dim} vs {ket.dim}")
    return complex(np.vdot(bra.amps, ket.amps))


def tensor(a: Tensorable, b: Tensorable) -> Tensorable:
    """Kronecker product with the first factor as the slow index."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amps, b.amps))
    if isinstance(a, Unitary) and isinstance(b, Unitary):
        return Unitary(np.kron(a.matrix, b.matrix))
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        return LinearOperator(np.kron(a.matrix, b.matrix))
    raise TypeError("tensor expects two StateVectors or two LinearOperators")


def expand_observable(obs: SpectralObservable, before: int = 1, after: int = 1) -> SpectralObservable:
    """Embed an observable into a composite space: 1(before) ⊗ A ⊗ 1(after).

    Eigenvalues are kept; each projector is tensored with identities, so the
    result is generally degenerate.
    """
    eye_b, eye_a = np.eye(before), np.eye(after)
    projs = [np.kron(np.kron(eye_b, p), eye_a) for p in obs.projectors]
    return SpectralObservable(obs.eigenvalues.copy(), np.array(projs))


def identity_observable(dim: int) -> SpectralObservable:
    """The trivial observable: one branch, eigenvalue 1, full projector."""
    return SpectralObservable(np.array([1.0]), np.eye(dim, dtype=complex)[None, :, :])


def basis_state(dim: int, index: int) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def spin_state(theta: float, phi: float = 0.0) -> StateVector:
    """Spin-1/2 'up' along the axis with polar angle theta and azimuth phi.

    cos(θ/2)|↑z⟩ + e^{iφ} sin(θ/2)|↓z⟩.
    """
    return StateVector(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))


def spin_observable(theta: float, phi: float = 0.0) -> SpectralObservable:
    """Spin component along (theta, phi): eigenvalues +1/-1 with rank-1 projectors."""
    up = spin_state(theta, phi)
    down = spin_state(np.pi - theta, phi + np.pi)
    return SpectralObservable.from_eigenbasis([1.0, -1.0], [up, down])


def _spin_projectors(theta: np.ndarray) -> np.ndarray:
    """``spin_observable(θ)`` over an array of polar angles, op for op.

    Returns the up and down projectors (..., 2, 2, 2).  The angles are
    assumed finite, which gives unit kets and valid branches; nothing is checked.
    """
    def ket(theta, phi):
        return _unit_rows(np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1))

    vectors = np.stack([ket(theta, 0.0), ket(np.pi - theta, 0.0 + np.pi)], axis=-2)
    return vectors[..., :, None] * vectors.conj()[..., None, :]


@cache
def pauli(axis: str) -> SpectralObservable:
    """One of the Pauli observables 'x', 'y', 'z' as spectral branches (shared)."""
    return SpectralObservable.from_hermitian(pauli_operator(axis).matrix)


def pauli_operator(axis: str) -> LinearOperator:
    try:
        return LinearOperator(_PAULI[axis])
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of x, y, z") from None


def state_projector_observable(psi: StateVector) -> SpectralObservable:
    """Two-branch observable 'is the system in |psi⟩?': eigenvalue 1 vs 0."""
    p = np.outer(psi.amps, psi.amps.conj())
    return SpectralObservable(np.array([1.0, 0.0]), np.array([p, np.eye(psi.dim) - p]))


@cache
def bell_basis() -> SpectralObservable:
    """The four Bell states of two qubits as rank-1 branches, eigenvalues 1..4 (shared)."""
    s = 1 / np.sqrt(2)
    rows = ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])
    vectors = [StateVector(s * np.array(row, dtype=complex)) for row in rows]
    return SpectralObservable.from_eigenbasis([1.0, 2.0, 3.0, 4.0], vectors)


def which_path() -> SpectralObservable:
    """Path observable on a 2-mode space: +1 for port u (index 0), -1 for port d (shared)."""
    return pauli("z")


def detector_basis(unitary: Unitary) -> SpectralObservable:
    """Computational-basis detectors viewed through a downstream network.

    Branch k (eigenvalue k+1) projects onto U†|k⟩⟨k|U: the states that will
    reach detector k after the network ``unitary`` is applied.
    """
    projs = [np.outer(col, col.conj()) for col in unitary.matrix.conj()]  # columns of U†
    return SpectralObservable(np.arange(1, unitary.dim + 1, dtype=float), np.array(projs))


def beamsplitter(angle: float = np.pi / 4) -> Unitary:
    """Two-mode splitter [[cos, i sin], [i sin, cos]]; π/4 gives the 50/50 case."""
    c, s = np.cos(angle), np.sin(angle)
    return Unitary(np.array([[c, 1j * s], [1j * s, c]]))
