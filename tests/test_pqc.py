"""Circuit construction, encoding, and the three execution regimes."""

import math

import numpy as np
import pytest

import dense_reference
from qmit import data, losses, noise, pqc, qsim, train
from qmit.errors import ValidationError


def brute_force_layer(design, n, theta):
    """Independent layer oracle: explicit kron/projector matrix chain."""
    dim = 1 << n

    def rot(axis, angle):
        sigma = {"X": qsim.PAULI_X, "Y": qsim.PAULI_Y, "Z": qsim.PAULI_Z}[axis]
        return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * sigma

    u = np.eye(dim, dtype=complex)
    for a, axis in enumerate({"RX": "X", "U2": "XY", "U3": "XYZ"}[design]):
        sub = np.array([[1.0]], dtype=complex)
        for q in range(n):
            sub = np.kron(sub, rot(axis, theta[q, a]))
        u = sub @ u
    if n >= 2:
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        for j in range(n):
            t = (j + 1) % n
            left = np.array([[1.0]], dtype=complex)
            right = np.array([[1.0]], dtype=complex)
            cnot = np.zeros((dim, dim), dtype=complex)
            for proj, flip in ((p0, np.eye(2)), (p1, qsim.PAULI_X)):
                term = np.array([[1.0]], dtype=complex)
                for q in range(n):
                    if q == j:
                        term = np.kron(term, proj)
                    elif q == t:
                        term = np.kron(term, flip)
                    else:
                        term = np.kron(term, np.eye(2))
                cnot += term
            u = cnot @ u
    return u


class TestLayerUnitary:
    def test_ring_leaves_cnot_cache_empty(self):
        """The engine's CNOT ring does not keep its factors in
        ``qsim.cnot_gate``'s process-wide cache."""
        qsim.cnot_gate.cache_clear()
        pqc._cnot_ring.cache_clear()
        pqc._cnot_ring(5)
        assert qsim.cnot_gate.cache_info().currsize == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for design in ("RX", "U2", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            for _ in range(10):
                n = int(rng.integers(2, 5))
                theta = rng.uniform(-math.pi, math.pi, (n, p))
                got = pqc.build_layer_unitary(pqc.LayerSpec(design, n, theta)).data
                expected = brute_force_layer(design, n, theta)
                np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_angles_leave_ring_only(self):
        layer = pqc.LayerSpec("RX", 3, np.zeros((3, 1)))
        got = pqc.build_layer_unitary(layer).data
        expected = brute_force_layer("RX", 3, np.zeros((3, 1)))
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_single_qubit_has_no_entangler(self):
        theta = np.array([[0.7]])
        got = pqc.build_layer_unitary(pqc.LayerSpec("RX", 1, theta)).data
        np.testing.assert_allclose(got, qsim.rotation_matrix_2x2("X", 0.7), atol=1e-14)

    def test_unitarity_over_random_draws(self):
        rng = np.random.default_rng(2)
        for design in ("RX", "U2", "U3"):
            for _ in range(100):
                circuit = pqc.random_circuit(4, 1, design, rng)
                u = pqc.build_layer_unitary(circuit.layers[0]).data
                assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-10

    def test_u2_example_against_chain(self):
        theta = np.array([[math.pi, 0.0], [0.0, 0.0]])
        got = pqc.build_layer_unitary(pqc.LayerSpec("U2", 2, theta)).data
        expected = brute_force_layer("U2", 2, theta)
        rho = qsim.pure_state([1, 0, 0, 0])
        a = qsim.evolve(rho, pqc.build_layer_unitary(pqc.LayerSpec("U2", 2, theta)))
        b = expected @ rho.data @ expected.conj().T
        np.testing.assert_allclose(a.data, b, atol=1e-12)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_theta_shape_validated(self):
        with pytest.raises(ValidationError):
            pqc.LayerSpec("U2", 2, np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            pqc.LayerSpec("U2", 2, np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_layer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for design in ("RX", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            theta = rng.uniform(-1, 1, (3, p))
            _, grads = dense_reference.layer_unitary_and_gradients(pqc.LayerSpec(design, 3, theta))
            for q in range(3):
                for a in range(p):
                    tp = theta.copy()
                    tm = theta.copy()
                    tp[q, a] += h
                    tm[q, a] -= h
                    fd = (
                        pqc.build_layer_unitary(pqc.LayerSpec(design, 3, tp)).data
                        - pqc.build_layer_unitary(pqc.LayerSpec(design, 3, tm)).data
                    ) / (2 * h)
                    np.testing.assert_allclose(grads[q][a], fd, atol=1e-8)

    def test_layer_factors_compose_to_the_layer_unitary(self):
        rng = np.random.default_rng(31)
        for n in range(1, 6):
            for design in ("RX", "U2", "U3"):
                p = len(pqc.DESIGN_AXES[design])
                layer = pqc.LayerSpec(design, n, rng.uniform(-math.pi, math.pi, (n, p)))
                u, upto, after = pqc.layer_factors(layer)
                ref, _ = dense_reference.layer_unitary_and_gradients(layer)
                np.testing.assert_allclose(u, ref, atol=1e-13)
                assert np.array_equal(u, pqc.build_layer_unitary(layer).data)
                for a in range(p):
                    np.testing.assert_allclose(after[a] @ upto[a], u, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("design", ["RX", "U2", "U3"])
    def test_angle_gradients_match_dense_reference(self, n, design):
        """Generator insertion equals ``2 Re tr(dU K)`` over the dense ``dU``,
        in the forward form (``K``) and the backward form (``K = A^dagger``,
        i.e. ``2 Re <dU, A>``)."""
        rng = np.random.default_rng(100 * n + len(design))
        p = len(pqc.DESIGN_AXES[design])
        dim = 1 << n
        layer = pqc.LayerSpec(design, n, rng.uniform(-math.pi, math.pi, (n, p)))
        _, upto, after = pqc.layer_factors(layer)
        _, dense = dense_reference.layer_unitary_and_gradients(layer)
        k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        fwd = pqc.angle_gradients(k, upto, after, layer.axes)
        bwd = pqc.angle_gradients(a.conj().T, upto, after, layer.axes)
        ref_fwd = np.array([[2.0 * np.einsum("ij,ji->", du, k).real for du in row] for row in dense])
        ref_bwd = np.array([[2.0 * np.vdot(du, a).real for du in row] for row in dense])
        assert fwd.shape == bwd.shape == (n, p)
        np.testing.assert_allclose(fwd, ref_fwd, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bwd, ref_bwd, rtol=0, atol=1e-12)

    def test_cnot_ring_is_cached_and_read_only(self):
        ring = pqc._cnot_ring(4)
        assert pqc._cnot_ring(4) is ring
        assert not ring.flags.writeable
        with pytest.raises(ValueError):
            ring[0, 0] = 0.0


class TestEncoder:
    def test_zero_features_give_ground_state(self):
        rho = pqc.encode(np.zeros(64), pqc.EncoderSpec(4))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.data, expected, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 64)
        a = pqc.encode(x, pqc.EncoderSpec(4))
        b = pqc.encode(x, pqc.EncoderSpec(4))
        assert np.array_equal(a.data, b.data)

    def test_output_is_pure(self):
        rng = np.random.default_rng(5)
        spec = pqc.EncoderSpec(4)
        for _ in range(100):
            rho = pqc.encode(rng.uniform(0, 1, 64), spec)
            assert abs(np.trace(rho.data @ rho.data).real - 1.0) <= 1e-10

    def test_rejects_out_of_range_features(self):
        x = np.zeros(64)
        x[3] = 1.5
        with pytest.raises(ValidationError):
            pqc.encode(x, pqc.EncoderSpec(4))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            pqc.encode(np.zeros(32), pqc.EncoderSpec(4))

    def test_batch_matches_dense_reference(self):
        """Closed-form product states against the dense Kronecker encoder,
        including widths whose last sub-layer is partly filled (n = 3, 5, 6, 7)."""
        rng = np.random.default_rng(6)
        for n in range(1, 9):
            spec = pqc.EncoderSpec(n)
            features = rng.uniform(0, 1, (3, 64))
            vectors = pqc.encode_vectors(features, spec)
            assert vectors.shape == (3, 1 << n)
            states = pqc.pure_states(vectors)
            for x, rho in zip(features, states):
                psi = dense_reference.encoder_unitary(x, spec)[:, 0]
                np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), rtol=0, atol=1e-13)

    def test_encode_is_one_row_of_encode_dataset(self):
        rng = np.random.default_rng(7)
        dataset = data.Dataset(rng.uniform(0, 1, (5, 64)), np.zeros(5, dtype=np.int64))
        for n in (3, 4):
            vectors = train.encode_dataset(dataset, n)
            assert vectors.shape == (5, 1 << n)
            for x, psi in zip(dataset.features, vectors):
                rho = pqc.encode(x, pqc.EncoderSpec(n)).data
                assert np.array_equal(rho, pqc.pure_states(psi))

    def test_batch_rejects_bad_features(self):
        spec = pqc.EncoderSpec(4)
        features = np.zeros((3, 64))
        features[2, 10] = -0.01
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            pqc.encode_vectors(features, spec)
        features[2, 10] = np.nan
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            pqc.encode_vectors(features, spec)
        with pytest.raises(ValidationError, match="features"):
            pqc.encode_vectors(np.zeros((3, 63)), spec)
        with pytest.raises(ValidationError, match="features"):
            pqc.encode_vectors(np.zeros(64), spec)

    def test_sublayer_count(self):
        assert pqc.EncoderSpec(4).sublayers == 16
        assert pqc.EncoderSpec(3).sublayers == 22

    def test_first_sublayer_is_x_rotation(self):
        """Feature 0 drives an X rotation on qubit 0 by pi * x."""
        x = np.zeros(64)
        x[0] = 1.0
        rho = pqc.encode(x, pqc.EncoderSpec(4))
        expected = qsim.evolve(
            qsim.pure_state([1] + [0] * 15), qsim.rotation_gate("X", math.pi, 0, 4)
        )
        np.testing.assert_allclose(rho.data, expected.data, atol=1e-12)


class TestForwardPasses:
    def test_noise_free_entropy_constant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            circuit = pqc.random_circuit(4, 8, "U2", rng)
            rho0 = qsim.random_pure_state(4, rng)
            base = qsim.von_neumann_entropy(rho0)
            for state in pqc.forward_noise_free(rho0, circuit):
                assert abs(qsim.von_neumann_entropy(state) - base) <= 1e-9

    def test_noise_free_divergence_invariant(self):
        rng = np.random.default_rng(7)
        mixed = qsim.maximally_mixed(4)
        for _ in range(20):
            circuit = pqc.random_circuit(4, 8, "U2", rng)
            rho0 = qsim.random_pure_state(4, rng)
            base = losses.petz_renyi_divergence(rho0, mixed)
            drift = max(
                abs(losses.petz_renyi_divergence(s, mixed) - base)
                for s in pqc.forward_noise_free(rho0, circuit)
            )
            assert drift <= 1e-9

    def test_noise_free_reversal(self):
        rng = np.random.default_rng(8)
        circuit = pqc.random_circuit(4, 4, "U3", rng)
        rho0 = qsim.random_pure_state(4, rng)
        state = pqc.forward_noise_free(rho0, circuit)[-1]
        for layer in reversed(circuit.layers):
            state = qsim.evolve(state, pqc.build_layer_unitary(layer).dagger())
        assert np.linalg.norm(state.data - rho0.data) <= 1e-9

    def test_noisy_equals_noise_free_at_zero_rates(self):
        rng = np.random.default_rng(9)
        circuit = pqc.random_circuit(4, 3, "U2", rng)
        rho0 = qsim.random_pure_state(4, rng)
        zero = [noise.depolarizing_model(4, 0.0)] * 3
        for a, b in zip(pqc.forward_noisy(rho0, circuit, zero), pqc.forward_noise_free(rho0, circuit)):
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_noisy_divergence_strictly_decreasing(self):
        rng = np.random.default_rng(10)
        mixed = qsim.maximally_mixed(4)
        for lam in (0.01, 0.05):
            for _ in range(20):
                circuit = pqc.random_circuit(4, 8, "U2", rng)
                rho0 = qsim.random_pure_state(4, rng)
                models = [noise.depolarizing_model(4, lam)] * 8
                values = [losses.petz_renyi_divergence(rho0, mixed)]
                values += [
                    losses.petz_renyi_divergence(s, mixed)
                    for s in pqc.forward_noisy(rho0, circuit, models)
                ]
                assert np.all(np.diff(values) < -1e-12)

    def test_noisy_trace_one(self):
        rng = np.random.default_rng(11)
        circuit = pqc.random_circuit(4, 4, "RX", rng)
        models = noise.draw_noise_models(4, 4, seed=3)
        for state in pqc.forward_noisy(qsim.random_pure_state(4, rng), circuit, models):
            assert abs(np.trace(state.data).real - 1.0) <= 1e-12

    def test_layer_count_mismatch(self):
        rng = np.random.default_rng(12)
        circuit = pqc.random_circuit(4, 3, "RX", rng)
        with pytest.raises(ValidationError):
            pqc.forward_noisy(qsim.random_pure_state(4, rng), circuit, [noise.depolarizing_model(4, 0.01)] * 2)


class TestForwardMitigated:
    def test_zero_mitigation_matches_noisy_in_both_modes(self):
        rng = np.random.default_rng(13)
        circuit = pqc.random_circuit(4, 3, "U2", rng)
        rho0 = qsim.random_pure_state(4, rng)
        models = noise.draw_noise_models(4, 3, seed=1)
        noisy = pqc.forward_noisy(rho0, circuit, models)
        mit = noise.MitigationModel.zeros(4, 3)
        for mode in ("loss_only", "cascaded"):
            states, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, mode)
            for a, b, c in zip(states, mitigated, noisy):
                np.testing.assert_allclose(a.data, c.data, atol=1e-12)
                np.testing.assert_allclose(b.data, c.data, atol=1e-12)

    def test_cascaded_perfect_mitigation_recovers_noise_free(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            circuit = pqc.random_circuit(4, 4, "U2", rng)
            rho0 = qsim.random_pure_state(4, rng)
            models = noise.draw_noise_models(4, 4, seed=int(rng.integers(2**31)))
            mit = noise.MitigationModel.from_noise_models(models)
            _, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, "cascaded")
            free = pqc.forward_noise_free(rho0, circuit)
            for a, b in zip(mitigated, free):
                assert np.linalg.norm(a.data - b.data) <= 1e-8

    def test_loss_only_removes_final_layer_noise_only(self):
        """With two noisy layers, inverting only layer 2 cannot reach rho_2."""
        rng = np.random.default_rng(15)
        circuit = pqc.random_circuit(2, 2, "U2", rng)
        rho0 = qsim.random_pure_state(2, rng)
        models = noise.draw_noise_models(2, 2, seed=4, low=0.02, high=0.05)
        mit = noise.MitigationModel.from_noise_models(models)
        states, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, "loss_only")
        expected_last = noise.apply_inverse_channel(states[-1], models[-1])
        np.testing.assert_allclose(mitigated[-1].data, expected_last.data, atol=1e-12)
        free = pqc.forward_noise_free(rho0, circuit)
        assert np.linalg.norm(mitigated[-1].data - free[-1].data) > 1e-4

    def test_cascaded_states_follow_the_mitigated_chain(self):
        """With nonzero rates each cascaded pre-mitigation state is the noisy
        layer applied to the previous mitigated state, and every layer after
        the first consumes a quasi-state; loss_only keeps the input's flag."""
        rng = np.random.default_rng(21)
        circuit = pqc.random_circuit(3, 3, "U2", rng)
        rho0 = qsim.random_pure_state(3, rng)
        models = noise.draw_noise_models(3, 3, seed=5)
        mit = noise.MitigationModel(3, noise.default_generators(3), rng.uniform(0, 0.03, (3, 9)))
        states, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, "cascaded")
        prev = rho0
        for i, (layer, model) in enumerate(zip(circuit.layers, models)):
            expected = noise.apply_channel(qsim.evolve(prev, pqc.build_layer_unitary(layer)), model)
            np.testing.assert_allclose(states[i].data, expected.data, rtol=0, atol=1e-12)
            layer_mit = noise.NoiseModel(3, mit.generators, mit.rates[i])
            hat = noise.apply_inverse_channel(states[i], layer_mit)
            np.testing.assert_allclose(mitigated[i].data, hat.data, rtol=0, atol=1e-12)
            assert states[i].quasi == (i > 0)
            assert mitigated[i].quasi
            prev = mitigated[i]
        states, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, "loss_only")
        assert not any(s.quasi for s in states)
        assert all(m.quasi for m in mitigated)

    def test_mode_validated(self):
        rng = np.random.default_rng(16)
        circuit = pqc.random_circuit(2, 2, "RX", rng)
        with pytest.raises(ValidationError):
            pqc.forward_mitigated(
                qsim.random_pure_state(2, rng),
                circuit,
                noise.draw_noise_models(2, 2, seed=0),
                noise.MitigationModel.zeros(2, 2),
                mode="bogus",
            )


class TestReadout:
    def test_all_zero_state(self):
        rng = np.random.default_rng(17)
        circuit = pqc.random_circuit(4, 1, "RX", rng)
        rho = qsim.pure_state([1] + [0] * 15)
        np.testing.assert_allclose(pqc.readout(rho, circuit), [1, 1, 1, 1], atol=1e-12)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(18)
        circuit = pqc.random_circuit(4, 1, "RX", rng)
        np.testing.assert_allclose(
            pqc.readout(qsim.maximally_mixed(4), circuit), [0, 0, 0, 0], atol=1e-12
        )

    def test_alternating_basis_state(self):
        """|0101> reads out (1, -1, 1, -1)."""
        rng = np.random.default_rng(19)
        circuit = pqc.random_circuit(4, 1, "RX", rng)
        vec = np.zeros(16)
        vec[0b0101] = 1.0
        np.testing.assert_allclose(
            pqc.readout(qsim.pure_state(vec), circuit), [1, -1, 1, -1], atol=1e-12
        )

    def test_batched_z_expectations_match_row_by_row(self):
        rng = np.random.default_rng(21)
        circuit = pqc.random_circuit(3, 1, "U2", rng)
        stack = np.stack([qsim.random_density_matrix(3, rng).data for _ in range(5)])
        got = pqc.z_expectations(stack)
        assert got.shape == (5, 3)
        for row, rho in zip(got, stack):
            np.testing.assert_allclose(
                row, pqc.readout(qsim.DensityMatrix(3, rho), circuit), rtol=0, atol=1e-15
            )

    def test_matches_expectation_op(self):
        rng = np.random.default_rng(20)
        circuit = pqc.random_circuit(3, 1, "U2", rng)
        rho = qsim.random_density_matrix(3, rng)
        z = pqc.readout(rho, circuit)
        for i in range(3):
            obs = qsim.Observable(3, qsim.embed_one_qubit(qsim.PAULI_Z, i, 3))
            assert z[i] == pytest.approx(qsim.expectation(rho, obs), abs=1e-12)
