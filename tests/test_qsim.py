"""Simulation primitives: constructors, gates, evolution, observables, entropy."""

import math

import numpy as np
import pytest

import dense_reference
from qmit import qsim
from qmit.errors import ValidationError


class TestDensityMatrix:
    def test_pure_state_zero(self):
        rho = qsim.pure_state([1, 0])
        np.testing.assert_allclose(rho.data, [[1, 0], [0, 0]], atol=1e-14)

    def test_pure_state_plus(self):
        """|+> has all entries 0.5."""
        s = 1 / math.sqrt(2)
        rho = qsim.pure_state([s, s])
        np.testing.assert_allclose(rho.data, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_pure_state_complex_amplitudes(self):
        rho = qsim.pure_state([0.6, 0.8j])
        expected = np.array([[0.36, -0.48j], [0.48j, 0.64]])
        np.testing.assert_allclose(rho.data, expected, atol=1e-12)

    def test_pure_state_rank_one(self):
        rng = np.random.default_rng(3)
        rho = qsim.pure_state(qsim.random_state_vector(3, rng))
        eigs = np.linalg.eigvalsh(rho.data)
        assert np.sum(eigs > 1e-10) == 1
        assert abs(np.trace(rho.data) - 1) < 1e-12

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            qsim.pure_state([1.0, 1.0])

    def test_pure_state_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            qsim.pure_state([1.0, 0.0, 0.0])

    def test_maximally_mixed(self):
        np.testing.assert_allclose(qsim.maximally_mixed(1).data, np.eye(2) / 2)
        np.testing.assert_allclose(qsim.maximally_mixed(2).data, np.eye(4) / 4)
        np.testing.assert_allclose(qsim.maximally_mixed(4).data, np.eye(16) / 16)

    def test_maximally_mixed_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            qsim.maximally_mixed(0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(1, np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(1, np.eye(2, dtype=complex))

    def test_quasi_mode_accepts_small_negatives(self):
        data = np.diag([1.02, -0.02]).astype(complex)
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(1, data)
        qsim.DensityMatrix(1, data, quasi=True)

    def test_quasi_floor_is_bounded(self):
        data = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(1, data, quasi=True)

    def test_batch_check_names_the_failing_rule(self):
        """One bad member fails a stack; each rule is checked on every member."""
        good = np.stack([qsim.maximally_mixed(1).data, qsim.pure_state([1, 0]).data])
        qsim.check_density_matrices(good)
        cases = [
            (np.array([[1.0, 0.5], [0.0, 0.0]]), "Hermitian"),
            (np.eye(2, dtype=complex), "trace"),
            (np.diag([1.2, -0.2]).astype(complex), "PSD"),
        ]
        for bad, message in cases:
            with pytest.raises(ValidationError, match=message):
                qsim.check_density_matrices(np.concatenate([good, bad[None]]))
        qsim.check_density_matrices(np.diag([1.01, -0.01])[None], quasi=True)

    def test_max_qubits_enforced(self):
        with pytest.raises(ValidationError):
            qsim.maximally_mixed(11)


NON_FINITE = {
    "nan_diagonal": [[np.nan, 0], [0, 1]],
    "nan_off_diagonal": [[0.5, np.nan], [np.nan, 0.5]],
    "inf_diagonal": [[np.inf, 0], [0, 1]],
    "inf_off_diagonal": [[0.5, np.inf], [np.inf, 0.5]],
}


class TestNonFiniteData:
    """A NaN or an infinity fails every check, since each one compares as
    ``not value <= atol``; no constructor makes an extra pass for it."""

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_density_matrix(self, case):
        for quasi in (False, True):
            with pytest.raises(ValidationError, match="Hermitian"):
                qsim.DensityMatrix(1, NON_FINITE[case], quasi=quasi)

    @pytest.mark.parametrize("case", ["nan_diagonal", "inf_diagonal"])
    def test_derived_state(self, case):
        """The trace-only check sees a non-finite diagonal entry."""
        data = np.array(NON_FINITE[case], dtype=complex)
        with pytest.raises(ValidationError, match="trace"):
            qsim.DensityMatrix._derived(1, data, False)

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_unitary(self, case):
        with pytest.raises(ValidationError, match="unitary"):
            qsim.Unitary(1, NON_FINITE[case])

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_observable(self, case):
        with pytest.raises(ValidationError, match="Hermitian"):
            qsim.Observable(1, NON_FINITE[case])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_state(self, bad):
        with pytest.raises(ValidationError, match="norm"):
            qsim.pure_state([bad, 0])


class TestGates:
    def test_rotation_zero_angle_is_identity(self):
        for axis in "XYZ":
            u = qsim.rotation_gate(axis, 0.0, 0, 2)
            np.testing.assert_allclose(u.data, np.eye(4), atol=1e-14)

    def test_rx_pi_flips_zero(self):
        """RX(pi)|0> = -i|1>, so the density matrix is |1><1|."""
        rho = qsim.evolve(qsim.pure_state([1, 0]), qsim.rotation_gate("X", math.pi, 0, 1))
        np.testing.assert_allclose(rho.data, [[0, 0], [0, 1]], atol=1e-12)

    def test_rz_leaves_zero_invariant(self):
        rng = np.random.default_rng(7)
        zero = qsim.pure_state([1, 0])
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 20):
            rho = qsim.evolve(zero, qsim.rotation_gate("Z", theta, 0, 1))
            np.testing.assert_allclose(rho.data, zero.data, atol=1e-12)

    def test_rotation_inverse_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            axis = "XYZ"[int(rng.integers(3))]
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            prod = (
                qsim.rotation_gate(axis, theta, 0, 2).data
                @ qsim.rotation_gate(axis, -theta, 0, 2).data
            )
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-10)

    def test_rotation_target_out_of_range(self):
        with pytest.raises(ValidationError):
            qsim.rotation_gate("X", 0.3, 2, 2)

    def test_cnot_flips_target_when_control_set(self):
        """CNOT(0,1)|10> = |11> with qubit 0 as the most significant bit."""
        perm = qsim.cnot_permutation(0, 1, 2)
        vec = np.zeros(4)
        vec[0b10] = 1.0
        out = np.eye(4)[perm] @ vec
        assert out[0b11] == 1.0

    def test_cnot_keeps_zero_control(self):
        perm = qsim.cnot_permutation(0, 1, 2)
        assert perm[0b00] == 0b00 and perm[0b01] == 0b01

    def test_cnot_is_involution(self):
        perm = qsim.cnot_permutation(0, 1, 2)
        np.testing.assert_array_equal(perm[perm], np.arange(4))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cnot_matches_dense_reference(self, n):
        """``eye[perm]`` is the reference CNOT matrix for every ordered pair."""
        for control in range(n):
            for target in range(n):
                if control != target:
                    perm = qsim.cnot_permutation(control, target, n)
                    want = dense_reference.cnot(control, target, n)
                    np.testing.assert_array_equal(np.eye(1 << n)[perm], want)

    def test_cnot_validates_indices(self):
        with pytest.raises(ValidationError):
            qsim.cnot_permutation(1, 1, 2)
        with pytest.raises(ValidationError):
            qsim.cnot_permutation(0, 2, 2)
        with pytest.raises(ValidationError):
            qsim.cnot_permutation(-1, 0, 2)


class TestEvolve:
    def test_identity_evolution(self):
        rng = np.random.default_rng(13)
        rho = qsim.random_density_matrix(2, rng)
        out = qsim.evolve(rho, qsim.Unitary(2, np.eye(4, dtype=complex)))
        np.testing.assert_allclose(out.data, rho.data, atol=1e-14)

    def test_maximally_mixed_is_fixed(self):
        rng = np.random.default_rng(17)
        mixed = qsim.maximally_mixed(3)
        for _ in range(10):
            out = qsim.evolve(mixed, qsim.haar_random_unitary(3, rng))
            np.testing.assert_allclose(out.data, mixed.data, atol=1e-12)

    def test_rx_half_pi_balances_diagonal(self):
        rho = qsim.evolve(qsim.pure_state([1, 0]), qsim.rotation_gate("X", math.pi / 2, 0, 1))
        np.testing.assert_allclose(np.diag(rho.data).real, [0.5, 0.5], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            qsim.evolve(qsim.maximally_mixed(2), qsim.rotation_gate("X", 0.3, 0, 1))

    def test_spectrum_and_trace_preserved(self):
        """Conjugation keeps trace to 1e-10 and the spectrum to 1e-9."""
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            rho = qsim.random_density_matrix(n, rng)
            u = qsim.haar_random_unitary(n, rng)
            out = qsim.evolve(rho, u)
            assert abs(np.trace(out.data).real - 1.0) <= 1e-10
            before = np.linalg.eigvalsh(rho.data)
            after = np.linalg.eigvalsh(out.data)
            assert abs(before[0] - after[0]) <= 1e-9

    def test_composition_roundtrip(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = qsim.random_density_matrix(3, rng)
            u = qsim.haar_random_unitary(3, rng)
            back = qsim.evolve(qsim.evolve(rho, u), u.dagger())
            assert np.linalg.norm(back.data - rho.data) <= 1e-9


class TestExpectation:
    def test_sigma_z_on_zero(self):
        obs = qsim.Observable(1, qsim.PAULI_Z)
        assert qsim.expectation(qsim.pure_state([1, 0]), obs) == pytest.approx(1.0)

    def test_sigma_z_on_mixed(self):
        obs = qsim.Observable(1, qsim.PAULI_Z)
        assert qsim.expectation(qsim.maximally_mixed(1), obs) == pytest.approx(0.0, abs=1e-12)

    def test_z_tensor_identity_on_plus_zero(self):
        """<Z x I> vanishes on |+0>."""
        s = 1 / math.sqrt(2)
        rho = qsim.pure_state([s, 0, s, 0])
        obs = qsim.Observable(2, np.kron(qsim.PAULI_Z, np.eye(2)))
        assert qsim.expectation(rho, obs) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(29)
        herm = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = 0.5 * (herm + herm.conj().T)
        obs = qsim.Observable(2, herm)
        lo, hi = np.linalg.eigvalsh(herm)[[0, -1]]
        for _ in range(50):
            val = qsim.expectation(qsim.random_density_matrix(2, rng), obs)
            assert lo - 1e-10 <= val <= hi + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            qsim.expectation(qsim.maximally_mixed(1), qsim.Observable(2, np.eye(4)))


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        rng = np.random.default_rng(31)
        assert qsim.von_neumann_entropy(qsim.random_pure_state(3, rng)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_maximally_mixed_entropy(self):
        for n in (1, 2, 4):
            assert qsim.von_neumann_entropy(qsim.maximally_mixed(n)) == pytest.approx(
                n * math.log(2), abs=1e-12
            )

    def test_two_level_example(self):
        rho = qsim.DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert qsim.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5623, abs=1e-4)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rho = qsim.random_density_matrix(3, rng)
            u = qsim.haar_random_unitary(3, rng)
            drift = abs(
                qsim.von_neumann_entropy(qsim.evolve(rho, u)) - qsim.von_neumann_entropy(rho)
            )
            assert drift <= 1e-9


class TestHelpers:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            u = qsim.haar_random_unitary(3, rng).data
            np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_hermitian_power_clamps_negatives(self):
        a = np.diag([1.0, -1e-12]).astype(complex)
        root = qsim.hermitian_power(a, 0.5)
        assert np.all(np.isfinite(root))
        assert abs(root[1, 1]) < 1e-6

    def test_hermitian_power_rejects_singular_inverse(self):
        with pytest.raises(ValidationError):
            qsim.hermitian_power(np.diag([1.0, 0.0]).astype(complex), -1.0)

    def test_embed_one_qubit_positions(self):
        full = qsim.embed_one_qubit(qsim.PAULI_Z, 0, 2)
        np.testing.assert_allclose(full, np.kron(qsim.PAULI_Z, np.eye(2)))
        full = qsim.embed_one_qubit(qsim.PAULI_Z, 1, 2)
        np.testing.assert_allclose(full, np.kron(np.eye(2), qsim.PAULI_Z))
