"""Training engine: gradients, optimizer mechanics, experiments."""

import copy
import json
import math

import numpy as np
import pytest

import dense_reference
from qmit import data, losses, noise, pqc, qsim, train
from qmit.errors import ConfigError, TrainingError, ValidationError
from qmit.selftest import fd_vs_analytic, grad_mismatch


def small_config(**overrides):
    base = dict(
        n_qubits=3,
        layers=2,
        design="U2",
        step_size=1,
        mode="loss_only",
        num_classes=2,
        epochs=2,
        batch_size=4,
        seed=0,
        noise_low=0.005,
        noise_high=0.02,
    )
    base.update(overrides)
    return train.TrainConfig(**base)


def dense_reference_pass(rho0, label, circuit, mit, noise_true, config):
    """Total loss of one input state and its gradients by dense reverse mode:
    channels and their adjoints as ``P rho P`` products, conjugations and
    every ``dU`` as d x d matrices, the readout as ``tr(Z rho)``, and the
    fidelity from the dense pair loss.  Returns ``(loss, grad_theta,
    grad_rates)``."""
    letters = [g.letters for g in mit.generators]
    paulis = [noise._pauli_matrix(word) for word in letters]
    layers = [dense_reference.layer_unitary_and_gradients(layer) for layer in circuit.layers]
    units = [u for u, _ in layers]
    cascaded = config.mode == "cascaded"
    depth, step = config.layers, config.step_size
    grad_theta = [np.zeros(layer.theta.shape) for layer in circuit.layers]
    grad_rates = np.zeros_like(mit.rates)

    def inverse(x, j):
        return dense_reference.channel(x, letters, mit.rates[j], inverse=True)

    def inverse_adjoint(g, y, j):
        """Adjoint of ``y = inverse(x, j)``; ``dy/d rate_k = y - P_k y P_k``."""
        grad_rates[j] += [np.trace(g @ (y - p @ y @ p.conj().T)).real for p in paulis]
        return dense_reference.adjoint(g, letters, mit.rates[j], inverse=True)

    def angle_grads(j, m):
        """``2 Re tr(dU m)`` for every angle of layer ``j``."""
        grad_theta[j] += [[2.0 * np.trace(du @ m).real for du in row] for row in layers[j][1]]

    def true_noise(i):
        return [g.letters for g in noise_true[i].generators], noise_true[i].rates

    chain = [rho0]
    for i, u in enumerate(units):
        cur = dense_reference.channel(u @ chain[-1] @ u.conj().T, *true_noise(i))
        chain.append(inverse(cur, i) if cascaded else cur)
    g_chain = [np.zeros_like(rho0) for _ in chain]

    final = chain[-1] if cascaded else inverse(chain[-1], depth - 1)
    zs = [qsim.embed_one_qubit(qsim.PAULI_Z, i, circuit.n) for i in range(circuit.n)]
    z = np.array([np.trace(obs @ final).real for obs in zs])
    task = losses.task_loss(z, int(label), config.num_classes)
    g_z = losses.softmax_head(z, config.num_classes) - np.eye(config.num_classes)[label]
    g_final = config.alpha_task * sum(gz * obs for gz, obs in zip(g_z, zs))
    g_chain[-1] += g_final if cascaded else inverse_adjoint(g_final, final, depth - 1)

    fb = []
    for start in range(0, depth, step):
        end = start + step
        back, trail = chain[end], []
        for j in range(end - 1, start - 1, -1):
            y = back if cascaded else inverse(back, j)
            trail.append((j, y))
            back = units[j].conj().T @ y @ units[j]
        loss, cache = dense_reference.fb_pair_forward(chain[start][None], back[None])
        fb.append(loss[0])
        g_loss = np.array([config.alpha_fb * step / depth])
        g_a, g_b = dense_reference.fb_pair_backward(cache, g_loss)
        g_chain[start] += g_a[0]
        g = g_b[0]
        for j, y in reversed(trail):
            angle_grads(j, g @ units[j].conj().T @ y)  # pullback U^dagger y U
            g = units[j] @ g @ units[j].conj().T
            if not cascaded:
                g = inverse_adjoint(g, y, j)
        g_chain[end] += g

    for i in range(depth - 1, -1, -1):
        g = g_chain[i + 1]
        if cascaded:
            g = inverse_adjoint(g, chain[i + 1], i)
        g = dense_reference.adjoint(g, *true_noise(i))
        angle_grads(i, chain[i] @ units[i].conj().T @ g)  # forward U x U^dagger
        g_chain[i] += units[i].conj().T @ g @ units[i]
    loss = config.alpha_fb * np.mean(fb) + config.alpha_task * task
    return loss, grad_theta, grad_rates


def mixed_states(rng, count, n):
    """Random density matrices: full rank, and mixtures of two encoded states."""
    dim = 1 << n
    w = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    full = w @ np.conj(np.swapaxes(w, -1, -2))
    full /= np.trace(full, axis1=-2, axis2=-1).real[:, None, None]
    features = rng.uniform(0, 1, (2 * count, 64))
    pure = pqc.pure_states(pqc.encode_vectors(features, pqc.EncoderSpec(n)))
    pairs = 0.7 * pure[:count] + 0.3 * pure[count:]
    return np.concatenate([full, pairs])


class TestGradients:
    def test_matches_finite_differences_loss_only(self):
        rng = np.random.default_rng(1)
        config = small_config()
        circuit = pqc.random_circuit(3, 2, "U2", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 2, seed=2)
        mit = noise.MitigationModel(3, noise.default_generators(3), rng.uniform(0, 0.03, (2, 9)))
        batch = (rng.uniform(0, 1, (2, 64)), np.array([0, 1]))
        assert fd_vs_analytic(config, circuit, mit, noise_true, batch) <= 1e-3

    def test_matches_finite_differences_cascaded(self):
        rng = np.random.default_rng(2)
        config = small_config(mode="cascaded", step_size=2, design="U3")
        circuit = pqc.random_circuit(3, 2, "U3", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 2, seed=3)
        mit = noise.MitigationModel(3, noise.default_generators(3), rng.uniform(0, 0.03, (2, 9)))
        batch = (rng.uniform(0, 1, (2, 64)), np.array([1, 0]))
        assert fd_vs_analytic(config, circuit, mit, noise_true, batch) <= 1e-3

    def test_task_rate_gradient_at_zero_mitigation(self):
        """With alpha_fb=0 and zero noise, the final-layer rate gradient of the
        task loss matches finite differences."""
        rng = np.random.default_rng(3)
        config = small_config(alpha_fb=0.0, noise_low=0.0, noise_high=0.0)
        circuit = pqc.random_circuit(3, 2, "U2", rng, theta_scale=1.0)
        noise_true = train.noise_models_from_config(config)
        mit = noise.MitigationModel.zeros(3, 2)
        batch = (rng.uniform(0, 1, (2, 64)), np.array([0, 1]))
        got = train.loss_and_gradients(batch, circuit, mit, noise_true, config)
        h = 1e-4
        for g in range(9):
            rp = mit.rates.copy()
            rm = mit.rates.copy()
            rp[1, g] += h
            rm[1, g] -= h
            fd = (
                train.batch_loss(batch, circuit, noise.MitigationModel(3, mit.generators, rp), noise_true, config)
                - train.batch_loss(batch, circuit, noise.MitigationModel(3, mit.generators, rm), noise_true, config)
            ) / (2 * h)
            assert grad_mismatch(got.grad_rates[1, g], fd) <= 1e-3
        np.testing.assert_allclose(got.grad_rates[0], 0.0, atol=1e-12)

    def test_flat_direction_has_zero_gradient(self):
        """A Z rotation acting on |0> contributes only a phase, so its angle
        cannot affect any loss term."""
        config = train.TrainConfig(
            n_qubits=4, layers=2, design="U3", step_size=1, num_classes=4,
            batch_size=1, seed=0,
        )
        theta = [np.zeros((4, 3)), np.zeros((4, 3))]
        theta[0][0, 2] = 0.7  # Z on qubit 0, which still holds |0>
        theta[0][1, 0] = 0.8  # X on qubit 1 for a nontrivial state
        circuit = train.circuit_from_theta(theta, config)
        noise_true = train.noise_models_from_config(config)
        mit = noise.MitigationModel(4, noise.default_generators(4), np.full((2, 12), 0.01))
        batch = (np.zeros((1, 64)), np.array([0]))
        got = train.loss_and_gradients(batch, circuit, mit, noise_true, config)
        assert abs(got.grad_theta[0][0, 2]) <= 1e-8
        assert abs(got.grad_theta[0][1, 0]) > 1e-6

    def test_engine_agrees_with_dense_reference(self):
        """The batched engine and the composition of the public per-sample
        operations both compute the loss of dense per-sample channels
        (``P rho P`` products), layer by layer."""
        rng = np.random.default_rng(4)
        for mode in ("loss_only", "cascaded"):
            config = small_config(mode=mode, alpha_fb=0.7, alpha_task=1.3)
            circuit = pqc.random_circuit(3, 2, "U2", rng, theta_scale=1.0)
            noise_true = noise.draw_noise_models(3, 2, seed=11)
            mit = noise.MitigationModel(3, noise.default_generators(3), rng.uniform(0, 0.02, (2, 9)))
            features = rng.uniform(0, 1, (3, 64))
            labels = np.array([0, 1, 0])
            engine_loss = train.batch_loss((features, labels), circuit, mit, noise_true, config)
            reference = np.mean([
                dense_reference_pass(pqc.encode(x, circuit.encoder).data, y, circuit, mit,
                                     noise_true, config)[0]
                for x, y in zip(features, labels)
            ])
            assert engine_loss == pytest.approx(reference, abs=1e-12)

            total = 0.0
            for x, y in zip(features, labels):
                rho0 = pqc.encode(x, circuit.encoder)
                states, mitigated = pqc.forward_mitigated(rho0, circuit, noise_true, mit, mode)
                chain = [rho0] + (mitigated if mode == "cascaded" else states)
                fb = losses.total_fb_loss(chain, circuit, mit, config.step_size, mode).value
                z = pqc.readout(mitigated[-1], circuit)
                task = losses.task_loss(z, int(y), config.num_classes)
                total += config.alpha_fb * fb + config.alpha_task * task
            assert total / 3 == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("mode,step", [
        ("loss_only", 1), ("cascaded", 1), ("loss_only", 2), ("cascaded", 2),
    ])
    def test_engine_gradients_match_dense_reference(self, mode, step):
        """Loss and every gradient of one batch pass against dense reverse
        mode, for mixed input matrices (every target is decomposed) and for
        encoded state vectors (block 0's target spectrum is closed form)."""
        rng = np.random.default_rng(16)
        config = small_config(mode=mode, layers=4, step_size=step, alpha_fb=0.7, alpha_task=1.3)
        circuit = pqc.random_circuit(3, 4, "U2", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 4, seed=12)
        mit = noise.MitigationModel(3, noise.default_generators(3), rng.uniform(0, 0.02, (4, 9)))
        theta = [layer.theta for layer in circuit.layers]
        labels = np.array([0, 1, 1, 0])
        vectors = pqc.encode_vectors(rng.uniform(0, 1, (4, 64)), circuit.encoder)
        mixed = mixed_states(rng, 2, 3)
        for inputs, states in ((mixed, mixed), (vectors, pqc.pure_states(vectors))):
            got = train._run_batch(
                inputs, labels, theta, mit.rates, config, noise_true, mit.generators, True
            )
            refs = [
                dense_reference_pass(rho, y, circuit, mit, noise_true, config)
                for rho, y in zip(states, labels)
            ]
            assert got.total == pytest.approx(np.mean([r[0] for r in refs]), abs=1e-12)
            for i in range(config.layers):
                want = np.mean([r[1][i] for r in refs], axis=0)
                np.testing.assert_allclose(got.grad_theta[i], want, rtol=0, atol=1e-12)
            want = np.mean([r[2] for r in refs], axis=0)
            np.testing.assert_allclose(got.grad_rates, want, rtol=0, atol=1e-12)

    def test_recover_rates_on_mixed_inputs_matches_dense_reference(self):
        """The identifiability probe on mixed inputs takes the momentum steps
        of the dense reference's forward-backward rate gradients."""
        rng = np.random.default_rng(17)
        config = small_config(layers=2)
        theta = [rng.uniform(-math.pi, math.pi, config.theta_shape) for _ in range(2)]
        noise_true = train.noise_models_from_config(config)
        rho0 = mixed_states(rng, 2, 3)
        got = train.recover_rates(config, theta, noise_true, rho0, steps=3, lr=2.0)
        fb_config = small_config(layers=2, alpha_fb=1.0, alpha_task=0.0)
        circuit = train.circuit_from_theta(theta, config)
        generators = noise.default_generators(3)
        rates = np.zeros((2, len(generators)))
        vel = np.zeros_like(rates)
        for _ in range(3):
            mit = noise.MitigationModel(3, generators, rates)
            grad = np.mean([
                dense_reference_pass(rho, 0, circuit, mit, noise_true, fb_config)[2]
                for rho in rho0
            ], axis=0)
            vel = 0.9 * vel - 2.0 * grad
            rates = np.maximum(rates + vel, 0.0)
        assert np.any(rates > 0.0)
        np.testing.assert_allclose(got, rates, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,from_vectors,from_matrices", [
        ("loss_only", 11, 12), ("cascaded", 8, 9),
    ])
    def test_eigh_count(self, monkeypatch, mode, from_vectors, from_matrices):
        """One step with gradients at L=4, step 1 decomposes the four root
        overlaps, the four pullback inputs and the targets of blocks 1-3,
        which in cascaded mode are the pullback inputs of blocks 0-2.  Block
        0's target needs no ``eigh`` when the engine gets state vectors."""
        calls = []
        eigh = losses._eigh
        monkeypatch.setattr(losses, "_eigh", lambda x: calls.append(x.shape) or eigh(x))
        rng = np.random.default_rng(18)
        config = small_config(mode=mode, layers=4)
        state = train.init_state(config)
        rates = rng.uniform(0.001, 0.02, state.rates.shape)
        noise_true = train.noise_models_from_config(config)
        vectors = pqc.encode_vectors(rng.uniform(0, 1, (4, 64)), pqc.EncoderSpec(3))
        labels = np.array([0, 1, 1, 0])
        for inputs, want in ((vectors, from_vectors), (pqc.pure_states(vectors), from_matrices)):
            calls.clear()
            train._run_batch(
                inputs, labels, state.theta, rates, config, noise_true, state.generators, True
            )
            assert len(calls) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_theta_grad_contractions_match_dense_reference(self, n):
        """The engine's two conjugation contractions against the dense ``dU``:
        ``2 Re tr(dU sum_b x_b U^dagger g_b)`` and ``2 Re <dU, sum_b x_b U g_b>``.
        The pullback's contraction takes the gradient w.r.t. its input,
        ``U g_b U^dagger``; the forward one returns ``U^dagger g``."""
        rng = np.random.default_rng(70 + n)
        dim = 1 << n
        for design in ("RX", "U2", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            layer = pqc.LayerSpec(design, n, rng.uniform(-math.pi, math.pi, (n, p)))
            factors = pqc.layer_factors(layer)
            u, dense = dense_reference.layer_unitary_and_gradients(layer)
            g = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
            x = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
            k = (x @ u.conj().T @ g).sum(axis=0)
            a = (x @ u @ g).sum(axis=0)
            fwd = np.zeros((n, p))
            bwd = np.zeros((n, p))
            h = train._theta_grad_forward_conj(g, x, factors, layer.axes, fwd)
            train._theta_grad_backward_conj(u @ g @ u.conj().T, x, factors, layer.axes, bwd)
            np.testing.assert_allclose(h, u.conj().T @ g, rtol=0, atol=1e-12)
            ref_fwd = [[2.0 * np.einsum("ij,ji->", du, k).real for du in row] for row in dense]
            ref_bwd = [[2.0 * np.vdot(du, a).real for du in row] for row in dense]
            np.testing.assert_allclose(fwd, ref_fwd, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bwd, ref_bwd, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    def test_general_generators_match_finite_differences(self, mode):
        """Two- and three-qubit generators take the kernel's general path."""
        rng = np.random.default_rng(6)
        config = small_config(mode=mode)
        circuit = pqc.random_circuit(3, 2, "U2", rng, theta_scale=1.0)
        true_gens = tuple(noise.PauliString(3, w) for w in ("ZZI", "IXX", "YIY", "XII"))
        noise_true = noise.draw_noise_models(3, 2, seed=7, generators=true_gens)
        mit_gens = tuple(noise.PauliString(3, w) for w in ("XXI", "IZY", "XYZ", "ZIZ", "YII"))
        mit = noise.MitigationModel(3, mit_gens, rng.uniform(0, 0.03, (2, 5)))
        batch = (rng.uniform(0, 1, (2, 64)), np.array([0, 1]))
        assert fd_vs_analytic(config, circuit, mit, noise_true, batch) <= 1e-3

    def test_loss_and_gradients_rejects_shape_mismatch(self):
        rng = np.random.default_rng(5)
        config = small_config()
        circuit = pqc.random_circuit(3, 3, "U2", rng)  # depth 3 vs config 2
        noise_true = noise.draw_noise_models(3, 2, seed=1)
        mit = noise.MitigationModel.zeros(3, 2)
        with pytest.raises(ValidationError):
            train.loss_and_gradients(
                (rng.uniform(0, 1, (1, 64)), np.array([0])), circuit, mit, noise_true, config
            )


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_parameters_bitwise(self):
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=1)
        config = small_config(learning_rate=0.0, epochs=1)
        state = train.init_state(config)
        theta_before = [t.copy() for t in state.theta]
        rates_before = state.rates.copy()
        train.train_epoch(state, dataset, config)
        for a, b in zip(state.theta, theta_before):
            assert np.array_equal(a, b)
        assert np.array_equal(state.rates, rates_before)

    def test_rates_stay_nonnegative(self):
        dataset = data.synthetic_blobs(2, 16, 3.0, seed=2)
        config = small_config(learning_rate=0.3, epochs=1)
        state = train.init_state(config)
        for _ in range(3):
            train.train_epoch(state, dataset, config)
            assert np.all(state.rates >= 0.0)

    def test_divergence_aborts_with_report(self):
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=3)
        config = small_config(alpha_task=2e4)  # inflates the loss beyond the abort bound
        state = train.init_state(config)
        with pytest.raises(TrainingError, match="diverged"):
            train.train_epoch(state, dataset, config)

    def test_empty_dataset_rejected(self):
        config = small_config()
        state = train.init_state(config)
        empty = data.Dataset(np.zeros((0, 64)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValidationError):
            train.train_epoch(state, empty, config)

    def test_theta_init_range_and_zero_rates(self):
        config = small_config(seed=7)
        state = train.init_state(config)
        for t in state.theta:
            assert np.all(np.abs(t) <= 0.1)
        np.testing.assert_allclose(state.rates, 0.0)

    def test_learns_separable_blobs(self):
        """Noise-free 2-class blobs reach 95% train accuracy inside 30 epochs."""
        dataset = data.synthetic_blobs(2, 32, 8.0, seed=4)
        config = small_config(
            n_qubits=4,
            layers=4,
            alpha_fb=0.0,
            noise_low=0.0,
            noise_high=0.0,
            epochs=30,
            batch_size=16,
            learning_rate=0.05,
            seed=5,
        )
        state = train.init_state(config)
        noise_true = train.noise_models_from_config(config)
        encoded = train.encode_dataset(dataset, config.n_qubits)
        acc = 0.0
        for _ in range(config.epochs):
            metrics = train.train_epoch(state, dataset, config, noise_true, encoded)
            acc = metrics.train_accuracy
            if acc >= 0.95:
                break
        assert acc >= 0.95


class TestEvaluate:
    def test_untrained_four_class_within_chance_band(self):
        dataset = data.synthetic_blobs(4, 25, 3.0, seed=6)
        config = train.TrainConfig(
            n_qubits=4, layers=4, num_classes=4, seed=8, epochs=1, noise_low=0.0, noise_high=0.0
        )
        state = train.init_state(config)
        result = train.evaluate(state, dataset, config)
        assert 0.1 <= result.accuracy <= 0.5

    def test_single_sample_accuracy_is_zero_or_one(self):
        features = np.full((1, 64), 0.3)
        config = small_config(num_classes=2, n_qubits=3)
        state = train.init_state(config)
        accs = []
        for label in (0, 1):
            dataset = data.Dataset(features, np.array([label], dtype=np.int64))
            accs.append(train.evaluate(state, dataset, config).accuracy)
        assert sorted(accs) == [0.0, 1.0]

    def test_predictions_match_run_batch(self):
        """The forward-only path predicts bitwise what the full batch pass does."""
        dataset = data.synthetic_blobs(2, 30, 1.0, seed=14)
        for mode in ("loss_only", "cascaded"):
            config = small_config(mode=mode, layers=4, step_size=2)
            state = train.init_state(config)
            rng = np.random.default_rng(15)
            state.theta = [rng.uniform(-math.pi, math.pi, t.shape) for t in state.theta]
            # Rates far apart make the final inverse stack reorder the logits.
            state.rates = rng.uniform(0.0, 0.2, state.rates.shape)
            noise_true = train.noise_models_from_config(config)
            encoded = train.encode_dataset(dataset, config.n_qubits)
            result = train._run_batch(
                encoded, dataset.labels, state.theta, state.rates, config, noise_true,
                state.generators, want_grads=False,
            )
            # Labelled with the batch pass's predictions, every sample is
            # classified correctly only if evaluate predicts the same class.
            relabelled = data.Dataset(dataset.features, result.predictions)
            assert len(set(result.predictions.tolist())) == 2
            got = train.evaluate(state, relabelled, config, noise_true, encoded, chunk=7)
            assert got.accuracy == 1.0

    def test_repeated_evaluation_identical(self):
        dataset = data.synthetic_blobs(2, 10, 3.0, seed=9)
        config = small_config()
        state = train.init_state(config)
        a = train.evaluate(state, dataset, config)
        b = train.evaluate(state, dataset, config)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.per_class_correct, b.per_class_correct)


class TestRunExperiment:
    def test_single_repeat_zero_std(self):
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=10)
        config = small_config(epochs=2)
        result = train.run_experiment(config, dataset, dataset, repeats=1)
        assert result.std_accuracy == 0.0
        assert len(result.per_seed_accuracy) == 1

    def test_repeats_vary_seed_and_report_std(self):
        dataset = data.synthetic_blobs(2, 12, 3.0, seed=11)
        config = small_config(epochs=2)
        result = train.run_experiment(config, dataset, dataset, repeats=3)
        assert len(result.per_seed_accuracy) == 3
        assert result.mean_accuracy == pytest.approx(np.mean(result.per_seed_accuracy))
        expected_std = float(np.std(result.per_seed_accuracy, ddof=1))
        assert result.std_accuracy == pytest.approx(expected_std)
        repeats_seen = {row["repeat"] for row in result.metrics_rows}
        assert repeats_seen == {0, 1, 2}

    def test_deterministic_metric_stream(self):
        dataset = data.synthetic_blobs(2, 10, 3.0, seed=12)
        config = small_config(epochs=2)
        a = train.run_experiment(config, dataset, dataset, repeats=2)
        b = train.run_experiment(config, dataset, dataset, repeats=2)
        assert a.metrics_rows == b.metrics_rows
        assert a.per_seed_accuracy == b.per_seed_accuracy

    def test_thread_pool_matches_serial(self, monkeypatch):
        dataset = data.synthetic_blobs(2, 10, 3.0, seed=13)
        config = small_config(epochs=1)
        serial = train.run_experiment(config, dataset, dataset, repeats=2)
        monkeypatch.setenv("QMIT_THREADS", "2")
        threaded = train.run_experiment(config, dataset, dataset, repeats=2)
        assert serial.metrics_rows == threaded.metrics_rows

    def test_noise_fixed_across_repeats(self):
        """Repeats share the base-seed noise draw (one simulated device)."""
        config = small_config(seed=21)
        a = train.noise_models_from_config(config)
        from dataclasses import replace

        b = train.noise_models_from_config(replace(config, seed=21))
        for ma, mb in zip(a, b):
            np.testing.assert_allclose(ma.rates, mb.rates)


class TestCheckpoint:
    def test_payload_roundtrip(self, tmp_path):
        config = small_config()
        state = train.init_state(config)
        payload = train.checkpoint_payload(state.snapshot(), config, state.generators)
        path = tmp_path / "ckpt.json"
        train.save_checkpoint(path, payload)
        loaded = train.load_checkpoint(path)
        assert loaded["epoch"] == 0
        np.testing.assert_allclose(np.asarray(loaded["theta"]), np.stack(state.theta))
        cfg = train.config_from_json(loaded["config"])
        assert cfg == config
        mit = noise.MitigationModel.from_json(loaded["mitigation"])
        assert mit.layers == config.layers

    def test_config_json_rejects_unknown_field(self):
        payload = train.config_to_json(small_config())
        payload["bogus"] = 1
        with pytest.raises(ConfigError):
            train.config_from_json(payload)


class TestConfigValidation:
    def test_step_size_must_divide_layers(self):
        with pytest.raises(ConfigError):
            small_config(layers=3, step_size=2)

    def test_step_size_domain(self):
        with pytest.raises(ConfigError):
            small_config(layers=6, step_size=3)

    def test_weights_not_both_zero(self):
        with pytest.raises(ValidationError):
            small_config(alpha_fb=0.0, alpha_task=0.0)

    def test_class_count_bounded_by_qubits(self):
        with pytest.raises(ConfigError):
            small_config(num_classes=4, n_qubits=3)

    def test_file_noise_requires_path(self):
        with pytest.raises(ConfigError):
            small_config(noise_source="file")

    def test_file_noise_loads(self, tmp_path):
        models = noise.draw_noise_models(3, 2, seed=1)
        path = tmp_path / "noise.json"
        noise.save_noise_layers(models, path)
        config = small_config(noise_source="file", noise_path=str(path))
        loaded = train.noise_models_from_config(config)
        for a, b in zip(loaded, models):
            np.testing.assert_allclose(a.rates, b.rates)
