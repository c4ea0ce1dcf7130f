"""Core linear-algebra layer: states, operators, observables, tensor products."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.algebra import (
    LinearOperator,
    _hermitian_branches,
    _norm,
    _spectra_ok,
    _spin_projectors,
    _unit_rows,
    VALIDATE_TOL,
    SpectralObservable,
    StateVector,
    Unitary,
    basis_state,
    beamsplitter,
    bell_basis,
    detector_basis,
    expand_observable,
    identity_observable,
    inner_product,
    pauli,
    spin_observable,
    spin_state,
    state_projector_observable,
    tensor,
    which_path,
)
from twostate.errors import DimensionMismatchError, NormalizationError, ObservableError

SQRT_HALF = 0.7071067811865476

UP_Z = basis_state(2, 0)
DOWN_Z = basis_state(2, 1)
UP_X = spin_state(np.pi / 2)


def random_state(rng, dim):
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return Unitary(q)


def random_observable(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return SpectralObservable.from_hermitian((m + m.conj().T) / 2)


class TestInnerProduct:
    def test_identity_case(self):
        assert inner_product(UP_Z, UP_Z) == pytest.approx(1.0)

    def test_x_z_overlap(self):
        # direct evaluation with up_x = (up_z + down_z)/sqrt(2)
        assert inner_product(UP_X, UP_Z) == pytest.approx(SQRT_HALF)

    def test_orthogonality(self):
        assert inner_product(DOWN_Z, UP_Z) == 0

    def test_conjugate_linear_in_bra(self):
        rng = np.random.default_rng(1)
        a, b = random_state(rng, 3), random_state(rng, 3)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(UP_Z, basis_state(3, 0))

    def test_unit_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_state(rng, 4), random_state(rng, 4)
            assert abs(inner_product(a, b)) <= 1 + 1e-12


class TestApply:
    """An operator acts on a ket as ``op.matrix @ ket.amps``."""

    def test_identity(self):
        psi = spin_state(1.2, 0.3)
        np.testing.assert_allclose(LinearOperator(np.eye(2)).matrix @ psi.amps, psi.amps)

    def test_pauli_x_flips(self):
        np.testing.assert_allclose(LinearOperator([[0, 1], [1, 0]]).matrix @ UP_Z.amps, DOWN_Z.amps)

    def test_orthogonal_projector_annihilates(self):
        p_down = np.array([[0, 0], [0, 1]], dtype=complex)
        np.testing.assert_array_equal(LinearOperator(p_down).matrix @ UP_Z.amps, np.zeros(2))

    def test_dimension_mismatch(self):
        # a matrix product never broadcasts its core dimensions
        with pytest.raises(ValueError, match="matmul"):
            LinearOperator(np.eye(3)).matrix @ UP_Z.amps


class TestTensor:
    def test_basis_kets(self):
        out = tensor(UP_Z, UP_Z)
        np.testing.assert_array_equal(out.amps, [1, 0, 0, 0])

    def test_identity_operators(self):
        out = tensor(LinearOperator(np.eye(2)), LinearOperator(np.eye(2)))
        np.testing.assert_array_equal(out.matrix, np.eye(4))

    def test_matches_bruteforce_kronecker(self):
        # entry-by-entry oracle, independent of np.kron
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        out = tensor(LinearOperator(sz), LinearOperator(sx)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + k, 2 * j + l] = sz[i, j] * sx[k, l]
        np.testing.assert_array_equal(out, expected)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        a, b, c = (LinearOperator(m) for m in mats)
        left = tensor(tensor(a, b), c).matrix
        right = tensor(a, tensor(b, c)).matrix
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(UP_Z, LinearOperator(np.eye(2)))

    def test_unitaries_tensor_to_a_unitary(self):
        out = tensor(beamsplitter(), Unitary(np.eye(2)))
        assert type(out) is Unitary
        np.testing.assert_array_equal(out.matrix, np.kron(beamsplitter().matrix, np.eye(2)))


class TestSpinState:
    def test_poles(self):
        np.testing.assert_allclose(spin_state(0).amps, UP_Z.amps)
        np.testing.assert_allclose(spin_state(np.pi).amps, DOWN_Z.amps, atol=1e-16)

    def test_equator(self):
        np.testing.assert_allclose(spin_state(np.pi / 2).amps, [SQRT_HALF, SQRT_HALF])

    @given(
        theta=st.floats(0, np.pi, allow_nan=False),
        phi=st.floats(-np.pi, np.pi, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_normalized(self, theta, phi):
        psi = spin_state(theta, phi)
        assert abs(np.linalg.norm(psi.amps) - 1) < 1e-12


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([1.0, 1.0]))

    def test_normalized_path(self):
        psi = StateVector.normalized([3.0, 4.0])
        np.testing.assert_allclose(psi.amps, [0.6, 0.8])

    def test_normalized_rejects_zero(self):
        with pytest.raises(NormalizationError):
            StateVector.normalized([0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]))

    def test_immutable(self):
        psi = spin_state(0.5)
        with pytest.raises(ValueError):
            psi.amps[0] = 0

    def test_does_not_alias_its_input(self):
        amps = np.array([0.6, 0.8j])
        psi = StateVector(amps)
        amps[0] = 1.0
        assert psi.amps.tolist() == [0.6, 0.8j]

    @pytest.mark.parametrize("values, error, match", [
        ([[1.0, 0.0]], ValueError, "nonempty 1-d"),
        ([], ValueError, "nonempty 1-d"),
        ([np.inf, 0.0], ValueError, "non-finite"),
        ([1.0, complex(0.0, np.nan)], ValueError, "non-finite"),
    ])
    def test_checks_in_order(self, values, error, match):
        with pytest.raises(error, match=match):
            StateVector(np.array(values, dtype=complex))

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")  # as np.linalg.norm warns
    def test_overflowing_norm_is_a_norm_error(self):
        with pytest.raises(NormalizationError, match="state norm is inf"):
            StateVector(np.array([1e200, 1e200], dtype=complex))

    @pytest.mark.parametrize("values, expected", [
        ([1e200, 1e200], [1, 1]),
        ([1.5e308 + 1.5e308j, 1e308], [1.5 + 1.5j, 1]),  # a modulus beyond the largest float
    ])
    def test_normalized_rescales_an_overflowing_norm(self, values, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = StateVector.normalized(values)
        np.testing.assert_allclose(psi.amps, np.array(expected) / np.linalg.norm(expected), rtol=0, atol=1e-15)


def _signed(magnitude: float, negative: bool) -> float:
    return -magnitude if negative else magnitude


# one part of an amplitude: ±0 or a magnitude in [1e-150, 1e150]
PARTS = st.builds(_signed, st.one_of(st.just(0.0), st.floats(1e-150, 1e150)), st.booleans())


class TestNumpyArithmetic:
    """``StateVector``'s one-pass norm is ``np.linalg.norm``'s arithmetic; a numpy that changes it fails here."""

    @given(
        parts=st.integers(1, 8).flatmap(lambda d: st.lists(PARTS, min_size=2 * d, max_size=2 * d)),
        layout=st.sampled_from(["contiguous", "reversed", "strided"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_norm_and_normalized_match_numpy_bit_for_bit(self, parts, layout):
        x = np.empty(len(parts) // 2, dtype=complex)
        x.real, x.imag = parts[0::2], parts[1::2]  # each signed zero as drawn
        x = {"contiguous": x, "reversed": x[::-1].copy()[::-1], "strided": np.repeat(x, 2)[::2]}[layout]
        norm = np.linalg.norm(x)
        assert np.float64(_norm(x)).tobytes() == norm.tobytes()
        if norm < 1e-14:
            with pytest.raises(NormalizationError, match="zero vector"):
                StateVector.normalized(x)
            return
        y = x / float(norm)
        y = y / float(np.linalg.norm(y))  # the reference: two divisions, as every normalized state has
        assert StateVector.normalized(x).amps.tobytes() == y.tobytes()


class TestSpectralObservable:
    def test_pauli_z_branches(self):
        obs = pauli("z")
        assert obs.num_branches == 2
        assert sorted(obs.eigenvalues) == [-1.0, 1.0]
        plus = obs.projectors[obs.branch_index(1.0)]
        np.testing.assert_allclose(plus, [[1, 0], [0, 0]], atol=1e-12)

    def test_rejects_non_idempotent(self):
        bad = np.array([[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]], dtype=complex)
        with pytest.raises(ObservableError, match="idempotent"):
            SpectralObservable(np.array([1.0, -1.0]), bad)

    def test_rejects_non_orthogonal(self):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ObservableError):
            SpectralObservable(np.array([1.0, 2.0]), np.array([p, p]))

    def test_rejects_incomplete(self):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ObservableError, match="identity"):
            SpectralObservable(np.array([1.0]), np.array([p]))

    def test_rejects_coincident_eigenvalues(self):
        p1 = np.array([[1, 0], [0, 0]], dtype=complex)
        p2 = np.array([[0, 0], [0, 1]], dtype=complex)
        with pytest.raises(ObservableError, match="coincide"):
            SpectralObservable(np.array([1.0, 1.0]), np.array([p1, p2]))

    def test_from_hermitian_merges_degeneracies(self):
        obs = SpectralObservable.from_hermitian(np.diag([2.0, 2.0, 5.0]))
        assert obs.num_branches == 2
        ranks = sorted(round(np.trace(p).real) for p in obs.projectors)
        assert ranks == [1, 2]

    def test_from_hermitian_does_not_chain_degeneracies(self):
        # each step is within the 1e-8 tolerance of the last, but the whole
        # staircase spans 1.8e-8: branches are anchored at their first eigenvalue
        obs = SpectralObservable.from_hermitian(np.diag([0.0, 0.6e-8, 1.2e-8, 1.8e-8]))
        assert obs.num_branches == 2
        assert [round(np.trace(p).real) for p in obs.projectors] == [2, 2]
        np.testing.assert_allclose(obs.eigenvalues, [0.3e-8, 1.5e-8], rtol=1e-12)

    def test_operator_reconstruction(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = (m + m.conj().T) / 2
        obs = SpectralObservable.from_hermitian(herm)
        np.testing.assert_allclose(obs.operator.matrix, herm, atol=1e-10)

    @given(dim=st.integers(2, 5), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_born_weights_resolve_unity(self, dim, seed):
        rng = np.random.default_rng(seed)
        obs = random_observable(rng, dim)
        psi = random_state(rng, dim)
        weights = [np.vdot(psi.amps, p @ psi.amps).real for p in obs.projectors]
        assert abs(sum(weights) - 1) < 1e-10

    def test_expand_observable(self):
        obs = expand_observable(pauli("y"), after=2)
        assert obs.dim == 4
        assert all(round(np.trace(p).real) == 2 for p in obs.projectors)

    def test_identity_observable(self):
        obs = identity_observable(3)
        assert obs.num_branches == 1
        np.testing.assert_array_equal(obs.projectors[0], np.eye(3))

    def test_branch_index_refuses_a_value_near_two_branches(self):
        # the constructor keeps eigenvalues 1e-10 apart; lookups resolve within 1e-9
        near = SpectralObservable([1.0, 1.0 + 5e-10], [np.diag([1, 0]), np.diag([0, 1])])
        with pytest.raises(ValueError, match=r"eigenvalue 1\.0 matches 2 branches of this observable within 1e-09"):
            near.branch_index(1.0)
        with pytest.raises(ValueError, match=r"eigenvalue 0\.5 is not an outcome of this observable"):
            near.branch_index(0.5)
        z = pauli("z")
        assert z.eigenvalues[z.branch_index(-1.0 + 5e-10)] == -1.0


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: StateVector(np.eye(2)), ValueError, "nonempty 1-d amplitude array", id="2-d-state"),
    pytest.param(lambda: SpectralObservable([], np.zeros((0, 2, 2))), ObservableError,
                 "need at least one", id="no-branch"),
    pytest.param(lambda: SpectralObservable.from_hermitian([[0, 1], [0, 0]]), ObservableError,
                 "matrix is not Hermitian", id="non-hermitian"),
    pytest.param(lambda: LinearOperator(np.eye(2)) @ LinearOperator(np.eye(3)), DimensionMismatchError,
                 "operator dims differ: 2 vs 3", id="matmul-dims"),
    pytest.param(lambda: LinearOperator(np.eye(2)) @ 2, TypeError,
                 r"unsupported operand type\(s\) for @: 'LinearOperator' and 'int'", id="matmul-non-operator"),
    pytest.param(lambda: LinearOperator(np.eye(3) + np.eye(2)), ValueError,
                 "could not be broadcast", id="add-dims"),
])
def test_structure_guards(build, error, match):
    with pytest.raises(error, match=match):
        build()


def reference_validate(eigenvalues, projectors) -> None:
    """The per-branch / per-pair validation loop that the batched check replaced."""
    eigs = np.asarray(eigenvalues, dtype=float)
    projs = np.asarray(projectors, dtype=complex)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ObservableError("need at least one (eigenvalue, projector) branch")
    if projs.ndim != 3 or projs.shape[0] != eigs.size or projs.shape[1] != projs.shape[2]:
        raise ObservableError(f"projector stack has shape {projs.shape}, expected (k, d, d)")
    if not np.all(np.isfinite(eigs)) or not np.all(np.isfinite(projs.real)) or not np.all(
        np.isfinite(projs.imag)
    ):
        raise ObservableError("non-finite eigenvalue or projector entry")
    dim = projs.shape[1]
    for j, p in enumerate(projs):
        if np.max(np.abs(p @ p - p)) > 1e-10:
            raise ObservableError(f"branch {j}: projector is not idempotent")
        if np.max(np.abs(p - p.conj().T)) > 1e-10:
            raise ObservableError(f"branch {j}: projector is not Hermitian")
    for j in range(len(eigs)):
        for k in range(j + 1, len(eigs)):
            if np.max(np.abs(projs[j] @ projs[k])) > 1e-10:
                raise ObservableError(f"branches {j} and {k}: projectors are not orthogonal")
            if abs(eigs[j] - eigs[k]) <= 1e-10:
                raise ObservableError(f"branches {j} and {k}: eigenvalues coincide")
    if np.max(np.abs(projs.sum(axis=0) - np.eye(dim))) > 1e-10:
        raise ObservableError("projectors do not resolve the identity")


DEFECTS = ("none", "scale", "skew", "tilt", "coincide", "drop", "duplicate", "non-finite", "noise")


@st.composite
def projector_stacks(draw):
    """A valid (eigenvalues, projectors) stack, optionally broken in one or two ways.

    Perturbation sizes straddle the 1e-10 tolerance, so both sides of every
    threshold are drawn.
    """
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, dim))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False)) if k > 1 else []
    cols = np.split(random_unitary(rng, dim).matrix, cuts, axis=1)
    projs = np.array([c @ c.conj().T for c in cols])
    eigs = rng.normal(size=k)
    # one or two defects, so that a stack which fails several checks must still earn the first message
    defects = draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=2))
    for defect in sorted(defects, key=lambda d: d == "non-finite"):  # scaling an infinity would warn
        k = eigs.size
        eps = draw(st.sampled_from([1e-13, 3e-11, 1e-10, 3e-10, 1e-6, 0.3]))
        j, l = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if defect == "scale":  # breaks idempotence, then resolution
            projs[j] *= 1 + eps
        elif defect == "skew":  # breaks Hermiticity
            a, b = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            projs[j, a, b] += eps * 1j if a == b else eps
        elif defect == "tilt" and j < len(cols):  # still a projector, no longer orthogonal to the others
            v = cols[j][:, 0] + eps * rng.normal(size=dim)
            v = v / np.linalg.norm(v)
            projs[j] += np.outer(v, v.conj()) - np.outer(cols[j][:, 0], cols[j][:, 0].conj())
        elif defect == "coincide" and j != l:  # from 0, so 1e-10 is an exact difference
            eigs[j], eigs[l] = 0.0, draw(st.sampled_from([0.0, 1e-11, 1e-10, 2e-10]))
        elif defect == "drop" and k > 1:
            eigs, projs = np.delete(eigs, j), np.delete(projs, j, axis=0)
        elif defect == "duplicate":
            eigs, projs = np.append(eigs, eigs[j] + 1.0), np.concatenate([projs, projs[j:j + 1]])
        elif defect == "non-finite":
            projs[j, 0, 0] = draw(st.sampled_from([np.nan, np.inf, complex(0, np.inf)]))
        elif defect == "noise":  # a generic matrix stack, invalid in several ways at once
            projs = projs + eps * (rng.normal(size=projs.shape) + 1j * rng.normal(size=projs.shape))
    return eigs, projs


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestBatchedValidation:
    @given(stack=projector_stacks())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_loop(self, stack):
        eigs, projs = stack
        assert _outcome(SpectralObservable, eigs, projs) == _outcome(reference_validate, eigs, projs)

    def test_each_message_in_order(self):
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        oblique = np.array([[1.0, 0.5], [0.0, 0.0]])  # idempotent, not Hermitian
        cases = [
            ([1.0, -1.0], [p0, p1], None),
            ([1.0], [p0, p1], "projector stack has shape (2, 2, 2), expected (k, d, d)"),
            ([np.nan, -1.0], [p0, p1], "non-finite eigenvalue or projector entry"),
            ([1.0, -1.0], [p0, 1.5 * p1], "branch 1: projector is not idempotent"),
            ([1.0, -1.0], [oblique, np.eye(2) - oblique], "branch 0: projector is not Hermitian"),
            ([1.0, -1.0], [p0, p0], "branches 0 and 1: projectors are not orthogonal"),
            ([0.0, 1e-10], [p0, p1], "branches 0 and 1: eigenvalues coincide"),
            ([1.0], [p0], "projectors do not resolve the identity"),
        ]
        for eigs, projs, message in cases:
            expected = None if message is None else (ObservableError, message)
            assert _outcome(SpectralObservable, np.array(eigs), np.array(projs)) == expected
            assert _outcome(reference_validate, np.array(eigs), np.array(projs)) == expected


class TestStackedConstructors:
    """The stacked builders the battery uses: the constructors' checks and bits."""

    @given(stack=projector_stacks())
    @settings(max_examples=300, deadline=None)
    def test_spectra_ok_is_the_constructor_verdict(self, stack):
        eigs, projs = stack
        assert bool(_spectra_ok(eigs[None], projs[None])[0]) == (_outcome(SpectralObservable, eigs, projs) is None)

    def test_spectra_ok_checks_each_pair_once(self):
        # |P0 P1| = 6.4e-11 is within the tolerance and |P1 P0| = 1.005e-10 is not;
        # the constructor checks the pair j < l alone, so it accepts the stack
        rng = np.random.default_rng(195)
        basis = random_unitary(rng, 4).matrix
        projs = np.array([basis[:, :2] @ basis[:, :2].conj().T, basis[:, 2:] @ basis[:, 2:].conj().T])
        projs = projs + 3e-11 * (rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4)))
        eigs = np.array([1.0, -1.0])
        assert np.abs(projs[0] @ projs[1]).max() <= VALIDATE_TOL < np.abs(projs[1] @ projs[0]).max()
        assert _outcome(SpectralObservable, eigs, projs) is None
        assert _spectra_ok(eigs[None], projs[None]).tolist() == [True]

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_unit_rows_match_state_vector_bits(self, seed, dim):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
        raw[4] = 0.0  # near-zero: normalized raises
        raw[5, 0] = np.nan  # non-finite: both constructors raise
        amps, ok = _unit_rows(raw, normalize=True)
        assert ok.tolist() == [True] * 4 + [False, False]
        for row, expected in zip(amps[:4], raw[:4]):
            assert row.tobytes() == StateVector.normalized(expected).amps.tobytes()
        for bad in raw[4:]:
            with pytest.raises((NormalizationError, ValueError)):
                StateVector.normalized(bad)
        units, unit_ok = _unit_rows(amps[:4])
        assert unit_ok.all()
        assert all(u.tobytes() == StateVector(a).amps.tobytes() for u, a in zip(units, amps[:4]))

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_hermitian_branches_match_from_hermitian_bits(self, seed, dim):
        rng = np.random.default_rng(seed)
        mats = np.array([random_observable(rng, dim).operator.matrix for _ in range(5)])
        mats[3] = np.diag([1.0] * 2 + list(range(2, dim)))  # a degenerate pair: from_hermitian merges it
        mats[4, 0, 1] = np.nan  # non-finite: outside the mask, and no other row sees it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eigs, projs, regular = _hermitian_branches(mats)
        assert regular.tolist() == [True, True, True, False, False]
        finite = _hermitian_branches(mats[:4])
        assert eigs[:4].tobytes() == finite[0].tobytes() and projs[:4].tobytes() == finite[1].tobytes()
        assert _spectra_ok(eigs[:3], projs[:3]).all()
        for mat, e, p in zip(mats[:3], eigs, projs):
            obs = SpectralObservable.from_hermitian(mat)
            assert obs.eigenvalues.tobytes() == e.tobytes() and obs.projectors.tobytes() == p.tobytes()
        assert SpectralObservable.from_hermitian(mats[3]).num_branches == dim - 1

    def test_spin_projectors_match_spin_observable_bits(self):
        theta = np.random.default_rng(2).uniform(0.05, 2 * np.pi - 0.05, size=50)
        projs, ok = _spin_projectors(theta)
        assert ok.all()
        for t, p in zip(theta, projs):
            obs = spin_observable(t)
            assert obs.projectors.tobytes() == p.tobytes()
            assert obs.eigenvalues.tolist() == [1.0, -1.0]


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(NormalizationError):
            Unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_a_matrix_whose_defect_is_nan(self):
        # U†U overflows to inf - inf here; a NaN defect must fail the check, not pass it
        huge = np.array([[-1e308j, -1e308j], [-1e308j, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NormalizationError, match=r"^matrix is not unitary: max \|U†U - 1\| = nan$"):
                Unitary(huge)

    @given(dim=st.integers(2, 6), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_adjoint_inverts(self, dim, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, dim)
        psi = random_state(rng, dim)
        back = u.matrix.conj().T @ StateVector(u.matrix @ psi.amps).amps
        np.testing.assert_allclose(back, psi.amps, atol=1e-10)


class TestNamedConstructors:
    def test_bell_basis_is_orthonormal_rank_one(self):
        obs = bell_basis()
        assert obs.dim == 4 and obs.num_branches == 4
        assert all(round(np.trace(p).real) == 1 for p in obs.projectors)

    def test_constants_are_shared_read_only_instances(self):
        assert pauli("x") is pauli("x")
        assert which_path() is pauli("z")
        assert bell_basis() is bell_basis()
        for obs in (pauli("x"), pauli("y"), pauli("z"), bell_basis()):
            assert obs.operator is obs.operator
            for arr in (obs.eigenvalues, obs.projectors, obs.operator.matrix):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flat[0] = 0
        with pytest.raises(ValueError, match="unknown Pauli axis 'w'"):
            pauli("w")

    def test_state_projector_observable(self):
        psi = spin_state(0.8, 0.3)
        obs = state_projector_observable(psi)
        assert obs.branch_index(1.0) is not None
        np.testing.assert_allclose(
            obs.projectors[obs.branch_index(1.0)] @ psi.amps, psi.amps, atol=1e-12
        )

    def test_beamsplitter_convention(self):
        bs = beamsplitter()
        np.testing.assert_allclose(
            bs.matrix, np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), atol=1e-15
        )
        # cascading two 50/50 splitters routes port u entirely to port d
        out = bs.matrix @ bs.matrix @ np.array([1, 0])
        np.testing.assert_allclose(np.abs(out) ** 2, [0, 1], atol=1e-15)

    def test_detector_basis_inverts_network(self):
        bs = beamsplitter()
        obs = detector_basis(bs)
        # branch k projects onto what the network maps to detector k
        for k, (eig, proj) in enumerate(obs.branches()):
            assert eig == k + 1
            source = bs.matrix.conj().T[:, k]
            np.testing.assert_allclose(proj @ source, source, atol=1e-12)

    def test_spin_observable_matches_pauli_combination(self):
        theta, phi = 1.1, 0.7
        direct = spin_observable(theta, phi).operator.matrix
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]])
        expected = (
            np.sin(theta) * np.cos(phi) * sx
            + np.sin(theta) * np.sin(phi) * sy
            + np.cos(theta) * sz
        )
        np.testing.assert_allclose(direct, expected, atol=1e-12)
