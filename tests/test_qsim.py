"""Simulation primitives: constructors, gates, evolution, the Z readout."""

import math

import numpy as np
import pytest

import dense_reference
from qmit import losses, noise, pqc, qsim
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

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match=r"shape \(4, 4\)"):
            qsim.DensityMatrix(2, np.eye(2) / 2)

    def test_rejects_nonpositive_qubit_count(self):
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(0, np.eye(1))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(1, np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            qsim.DensityMatrix(1, np.eye(2, dtype=complex))

    def test_batch_check_names_the_failing_rule(self):
        """One bad member fails a stack; each rule is checked on every member."""
        good = np.stack([np.eye(2) / 2, qsim.pure_state([1, 0]).data])
        qsim.check_density_matrices(good)
        cases = [
            (np.array([[1.0, 0.5], [0.0, 0.0]]), "Hermitian"),
            (np.eye(2, dtype=complex), "trace"),
            (np.diag([1.2, -0.2]).astype(complex), "PSD"),
        ]
        for bad, message in cases:
            with pytest.raises(ValidationError, match=message):
                qsim.check_density_matrices(np.concatenate([good, bad[None]]))

    def test_max_qubits_enforced(self):
        with pytest.raises(ValidationError, match="maximum"):
            qsim.DensityMatrix(11, np.eye(2))


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
        with pytest.raises(ValidationError, match="Hermitian"):
            qsim.DensityMatrix(1, NON_FINITE[case])

    @pytest.mark.parametrize("case", ["nan_diagonal", "inf_diagonal"])
    def test_derived_state(self, case):
        """The trace-only check sees a non-finite diagonal entry."""
        data = np.array(NON_FINITE[case], dtype=complex)
        with pytest.raises(ValidationError, match="trace"):
            qsim.DensityMatrix._derived(1, data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_state(self, bad):
        with pytest.raises(ValidationError, match="norm"):
            qsim.pure_state([bad, 0])


def rotation(axis, theta):
    """The package's one rotation formula, ``pqc.rotation_matrices``, for
    one angle about ``axis``."""
    return pqc.rotation_matrices(np.float64(theta), qsim.PAULIS[axis])


def rotated(rho, axis, theta):
    """The one-qubit state ``rho`` after the rotation ``axis`` by ``theta``."""
    return dense_reference.conjugate(rho, rotation(axis, theta))


class TestGates:
    def test_rotation_zero_angle_is_identity(self):
        for axis in "XYZ":
            np.testing.assert_allclose(rotation(axis, 0.0), np.eye(2), atol=1e-14)

    def test_rx_pi_flips_zero(self):
        """RX(pi)|0> = -i|1>, so the density matrix is |1><1|."""
        rho = rotated(qsim.pure_state([1, 0]), "X", math.pi)
        np.testing.assert_allclose(rho.data, [[0, 0], [0, 1]], atol=1e-12)

    def test_rz_leaves_zero_invariant(self):
        rng = np.random.default_rng(7)
        zero = qsim.pure_state([1, 0])
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 20):
            rho = rotated(zero, "Z", theta)
            np.testing.assert_allclose(rho.data, zero.data, atol=1e-12)

    def test_rotation_inverse_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            axis = "XYZ"[int(rng.integers(3))]
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            prod = rotation(axis, theta) @ rotation(axis, -theta)
            np.testing.assert_allclose(prod, np.eye(2), atol=1e-10)

    def test_rotation_target_out_of_range(self):
        """The kernel that applies a rotation's superoperator to its target
        qubit rejects a target outside the register."""
        r = rotation("X", 0.3)
        superop = np.kron(r, r.conj())
        for target in (2, -1):
            with pytest.raises(ValidationError, match="out of range"):
                noise.apply_qubit_superoperators(np.eye(4) / 4, [(target, superop)])

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


class TestRotations:
    def test_rx_half_pi_balances_diagonal(self):
        rho = rotated(qsim.pure_state([1, 0]), "X", math.pi / 2)
        np.testing.assert_allclose(np.diag(rho.data).real, [0.5, 0.5], atol=1e-12)

    def test_rotations_are_unitary(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            r = rotation("XYZ"[int(rng.integers(3))], rng.uniform(-10, 10))
            np.testing.assert_allclose(r @ r.conj().T, np.eye(2), rtol=0, atol=1e-15)


class TestExpectation:
    """The Z readout, ``pqc.z_expectations``, on small known states, and the
    size check of the mitigated readout."""

    def test_sigma_z_on_zero(self):
        assert pqc.z_expectations(qsim.pure_state([1, 0]).data)[0] == pytest.approx(1.0)

    def test_sigma_z_on_mixed(self):
        z = pqc.z_expectations(np.eye(2) / 2)
        assert z[0] == pytest.approx(0.0, abs=1e-12)

    def test_z_tensor_identity_on_plus_zero(self):
        """<Z x I> vanishes on |+0>, and <I x Z> is 1."""
        s = 1 / math.sqrt(2)
        z = pqc.z_expectations(qsim.pure_state([s, 0, s, 0]).data)
        np.testing.assert_allclose(z, [0.0, 1.0], atol=1e-12)

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            z = pqc.z_expectations(qsim.random_density_matrix(2, rng).data)
            assert np.all(np.abs(z) <= 1.0 + 1e-10)


    def test_dimension_mismatch(self):
        """One-qubit states cannot be read out through two-qubit layers, nor
        two-qubit ones under one-qubit noise."""
        gens = noise.default_generators(2)
        models = [noise.NoiseModel(2, gens, np.zeros(6))]
        rotations = [pqc.layer_rotations("RX", np.zeros((2, 1)))]
        qubits = np.array([[[1.0, 0.0]]], dtype=complex)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            pqc.mitigated_z_readout(qubits, rotations, models, np.zeros((1, 6)), 1)
        one = noise.default_generators(1)
        with pytest.raises(ValidationError, match="generators on 1"):
            pqc.mitigated_z_readout(
                np.array([[[1.0, 0.0]] * 2], dtype=complex), rotations,
                [noise.NoiseModel(1, one, np.zeros(3))], None, 1,
            )

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 4),  # a state vector of the right length
            (2,),
            (1, 2, 2, 1),
            (1, 3, 2),  # three qubits for two-qubit layers
            (1, 1, 2),
            (1, 2, 4),  # four amplitudes per qubit
        ],
    )
    def test_input_must_be_qubit_states(self, shape):
        """The readout takes one ``(n, 2)`` block of qubit states per sample
        for the layers' ``n``; any other shape raises ``ValidationError``."""
        gens = noise.default_generators(2)
        rotations = [pqc.layer_rotations("RX", np.zeros((2, 1)))] * 2
        noise_models = [noise.NoiseModel(2, gens, np.zeros(6))] * 2
        with pytest.raises(ValidationError, match="dimension mismatch"):
            pqc.mitigated_z_readout(np.ones(shape, dtype=complex), rotations, noise_models, None, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_samples_read_out_empty(self, n):
        """Zero samples give a ``(0, count)`` readout, also where one half
        of the digits is empty (n = 1)."""
        gens = noise.default_generators(n)
        rotations = [pqc.layer_rotations("U2", np.ones((n, 2)))] * 2
        noise_models = [noise.NoiseModel(n, gens, np.full(3 * n, 0.01))] * 2
        qubits = np.zeros((0, n, 2), dtype=complex)
        z = pqc.mitigated_z_readout(qubits, rotations, noise_models, np.zeros((2, 3 * n)), n)
        assert z.shape == (0, n)

    @pytest.mark.parametrize(
        "layers, models, rows, width, count",
        [
            (1, 2, 2, 6, 1),  # fewer rotations than noise models and rate rows
            (2, 1, 2, 6, 1),  # a short noise list
            (2, 1, None, 6, 1),
            (2, 2, 1, 6, 1),  # a short rate table
            (0, 0, None, 6, 1),
            (2, 2, 2, 3, 1),  # rate rows narrower than 3n
            (2, 2, 2, 9, 1),
            (2, 2, None, 6, 0),  # count outside [1, n]
            (2, 2, 2, 6, 3),
        ],
    )
    def test_layer_and_count_mismatch(self, layers, models, rows, width, count):
        """The readout needs one noise model (and rate row) per layer, rate
        rows ``3n`` wide and ``1 <= count <= n``; each mismatch raises
        ``ValidationError`` instead of reading out fewer layers or failing
        on an index."""
        gens = noise.default_generators(2)
        qubits = np.array([[[1.0, 0.0], [1.0, 0.0]]], dtype=complex)  # |00>
        rotations = [pqc.layer_rotations("RX", np.zeros((2, 1)))] * layers
        noise_models = [noise.NoiseModel(2, gens, np.zeros(6))] * models
        rates = None if rows is None else np.zeros((rows, width))
        with pytest.raises(ValidationError):
            pqc.mitigated_z_readout(qubits, rotations, noise_models, rates, count)
        rotations = [pqc.layer_rotations("RX", np.zeros((2, 1)))] * 2
        noise_models = [noise.NoiseModel(2, gens, np.zeros(6))] * 2
        z = pqc.mitigated_z_readout(qubits, rotations, noise_models, np.zeros((2, 6)), 2)
        np.testing.assert_allclose(z, [[1.0, 1.0]], rtol=0, atol=1e-15)


ALPHAS = (0.5, 2.0, 3.0)


def renyi_entropy(rho, alpha):
    """``log tr(rho^alpha) / (1 - alpha)`` from
    :func:`dense_reference.hermitian_power`; eigenvalues below 1e-13 of the
    largest count as zero, as in ``losses.petz_renyi_divergence``."""
    power = dense_reference.hermitian_power(rho.data, alpha, rel_floor=1e-13)
    return math.log(np.trace(power).real) / (1.0 - alpha)


class TestEntropy:
    """Renyi entropies of orders 0.5, 2 and 3 from the state's matrix powers."""

    def test_pure_state_has_zero_entropy(self):
        rng = np.random.default_rng(31)
        rho = qsim.pure_state(qsim.random_state_vector(3, rng))
        for alpha in ALPHAS:
            assert renyi_entropy(rho, alpha) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_entropy(self):
        for n in (1, 2, 4):
            for alpha in ALPHAS:
                assert renyi_entropy(dense_reference.maximally_mixed(n), alpha) == pytest.approx(
                    n * math.log(2), abs=1e-12
                )

    def test_two_level_example(self):
        rho = qsim.DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        expected = -math.log(0.75**2 + 0.25**2)
        assert renyi_entropy(rho, 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.4700, abs=1e-4)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rho = qsim.random_density_matrix(3, rng)
            out = dense_reference.conjugate(rho, qsim.haar_random_unitary(3, rng))
            for alpha in ALPHAS:
                assert renyi_entropy(out, alpha) == pytest.approx(
                    renyi_entropy(rho, alpha), abs=1e-9
                )

    def test_additive_on_product_states(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = qsim.random_density_matrix(1, rng)
            b = qsim.random_density_matrix(2, rng)
            ab = qsim.DensityMatrix(3, np.kron(a.data, b.data))
            for alpha in ALPHAS:
                assert renyi_entropy(ab, alpha) == pytest.approx(
                    renyi_entropy(a, alpha) + renyi_entropy(b, alpha), abs=1e-9
                )

    def test_gap_to_maximum_is_divergence_from_maximally_mixed(self):
        """``n log 2 - H_alpha(rho) = D_alpha(rho || I / d)``."""
        rng = np.random.default_rng(47)
        for n in (1, 2, 3):
            for _ in range(10):
                rho = qsim.random_density_matrix(n, rng)
                for alpha in ALPHAS:
                    got = losses.petz_renyi_divergence(rho, alpha)
                    assert got == pytest.approx(n * math.log(2) - renyi_entropy(rho, alpha), abs=1e-9)

    def test_unital_noise_does_not_lower_entropy(self):
        """Pauli channels fix the maximally mixed state, so they can only
        make a spectrum more even."""
        rng = np.random.default_rng(53)
        gens = noise.default_generators(2)
        for _ in range(20):
            rho = qsim.random_density_matrix(2, rng)
            out = noise.apply_pauli_fidelities(rho.data, gens, rng.uniform(0.0, 0.5, len(gens)))
            noisy = qsim.DensityMatrix(2, qsim.hermitize(out))
            for alpha in ALPHAS:
                assert renyi_entropy(noisy, alpha) >= renyi_entropy(rho, alpha) - 1e-12


class TestHelpers:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            u = qsim.haar_random_unitary(3, rng)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_embed_one_qubit_positions(self):
        full = dense_reference.embed_one_qubit(qsim.PAULI_Z, 0, 2)
        np.testing.assert_allclose(full, np.kron(qsim.PAULI_Z, np.eye(2)))
        full = dense_reference.embed_one_qubit(qsim.PAULI_Z, 1, 2)
        np.testing.assert_allclose(full, np.kron(np.eye(2), qsim.PAULI_Z))
