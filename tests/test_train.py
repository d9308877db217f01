"""Training engine: gradients, optimizer mechanics, experiments."""

import copy
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import dense_reference
from qmit import cli, data, losses, noise, pqc, qsim, train
from qmit.errors import ConfigError, TrainingError, ValidationError
from qmit.selftest import fd_vs_analytic, grad_mismatch


class _ProductLog(np.ndarray):
    """An array that logs the operand shapes of every matrix product it
    takes part in, and whether the product is complex; results of its
    operations are logged arrays too."""

    log = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            shapes = tuple(np.shape(x) for x in inputs)
            _ProductLog.log.append((shapes, any(np.iscomplexobj(x) for x in inputs)))
        plain = [x.view(np.ndarray) if isinstance(x, _ProductLog) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, _ProductLog) else x for x in kwargs["out"]
            )
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_ProductLog) if isinstance(out, np.ndarray) else out


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


def dense_reference_pass(rho0, label, theta, rates, noise_true, config):
    """Total loss of one input state and its gradients by dense reverse mode:
    channels and their adjoints as ``P rho P`` products, conjugations and
    every ``dU`` as d x d matrices, the readout as ``tr(Z rho)`` of the
    mitigated final state (in loss_only mode the dense last inverse of the
    noisy one), and the fidelity from the dense pair loss.  ``theta`` is the
    ``(L, n, p)`` angle array of ``config.design`` and ``rates`` the learned
    rates over the default generators, one row per layer.  Returns ``(loss, grad_theta,
    grad_rates)``."""
    letters = noise.default_generators(config.n_qubits)
    paulis = [dense_reference.pauli_matrix(word) for word in letters]
    dense = [dense_reference.layer_unitary_and_gradients(config.design, t) for t in theta]
    units = [u for u, _ in dense]
    cascaded = config.mode == "cascaded"
    depth, step = config.layers, config.step_size
    grad_theta = np.zeros_like(theta)
    grad_rates = np.zeros_like(rates)

    def inverse(x, j):
        return dense_reference.channel(x, letters, rates[j], inverse=True)

    def inverse_adjoint(g, y, j):
        """Adjoint of ``y = inverse(x, j)``; ``dy/d rate_k = y - P_k y P_k``."""
        grad_rates[j] += [np.trace(g @ (y - p @ y @ p.conj().T)).real for p in paulis]
        return dense_reference.adjoint(g, letters, rates[j], inverse=True)

    def angle_grads(j, m):
        """``2 Re tr(dU m)`` for every angle of layer ``j``."""
        grad_theta[j] += [[2.0 * np.trace(du @ m).real for du in row] for row in dense[j][1]]

    def true_noise(i):
        return noise_true[i].generators, noise_true[i].rates

    chain, final = dense_reference.layer_chain(rho0, units, noise_true, letters, rates, cascaded)
    g_chain = [np.zeros_like(rho0) for _ in chain]

    z = dense_reference.z_readout(final)
    probs = losses.softmax_head(z, config.num_classes)
    task = -math.log(probs[label])
    g_z = probs - np.eye(config.num_classes)[label]
    n = config.n_qubits
    zs = [dense_reference.embed_one_qubit(qsim.PAULI_Z, i, n) for i in range(n)]
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


def seeded_models(n, words, layers, seed, low=0.002, high=0.02):
    """Per-layer models of the generators ``words`` with rates drawn as
    :func:`noise.draw_noise_models` draws the default generators' rates."""
    table = np.random.default_rng(seed).uniform(low, high, (layers, len(words)))
    return [noise.NoiseModel(n, words, row) for row in table]


def run_batch(features, labels, theta, rates, noise_true, config, want_grads=True):
    """The engine on encoded ``features``."""
    psi = pqc.encode_vectors(features, config.n_qubits)
    return train._run_batch(psi, labels, theta, rates, config, noise_true, want_grads)


def chunked_to(monkeypatch, n, size):
    """Make :func:`train.chunk_size` return ``size`` at ``n`` qubits."""
    monkeypatch.setattr(train, "CHUNK_ENTRIES", size << (2 * n))
    assert train.chunk_size(n) == size


def peak_stacks(run, stack_bytes):
    """Peak traced memory of ``run()`` in units of ``stack_bytes``, after one
    untraced warm-up call that fills the caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / stack_bytes
    finally:
        tracemalloc.stop()


def epoch(state, dataset, config):
    """One :func:`train.train_epoch` under the config's true noise."""
    noise_true = train.noise_models_from_config(config)
    encoded = train.encode_dataset(dataset, config.n_qubits)
    return train.train_epoch(state, dataset, config, noise_true, encoded)


def evaluate(state, dataset, config):
    """:func:`train.evaluate` under the config's true noise."""
    noise_true = train.noise_models_from_config(config)
    encoded = pqc.encode_qubits(dataset.features, config.n_qubits)
    return train.evaluate(state, dataset, config, noise_true, encoded)


class TestGradients:
    def test_matches_finite_differences_loss_only(self):
        rng = np.random.default_rng(1)
        config = small_config()
        theta = dense_reference.random_layers(3, 2, "U2", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 2, seed=2)
        rates = rng.uniform(0, 0.03, (2, 9))
        batch = (rng.uniform(0, 1, (2, 64)), np.array([0, 1]))
        assert fd_vs_analytic(config, theta, rates, noise_true, batch) <= 1e-3

    def test_matches_finite_differences_cascaded(self):
        rng = np.random.default_rng(2)
        config = small_config(mode="cascaded", step_size=2, design="U3")
        theta = dense_reference.random_layers(3, 2, "U3", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 2, seed=3)
        rates = rng.uniform(0, 0.03, (2, 9))
        batch = (rng.uniform(0, 1, (2, 64)), np.array([1, 0]))
        assert fd_vs_analytic(config, theta, rates, noise_true, batch) <= 1e-3

    def test_task_rate_gradient_at_zero_mitigation(self):
        """With alpha_fb=0 and zero noise, the final-layer rate gradient of the
        task loss matches finite differences."""
        rng = np.random.default_rng(3)
        config = small_config(alpha_fb=0.0, noise_low=0.0, noise_high=0.0)
        theta = dense_reference.random_layers(3, 2, "U2", rng, theta_scale=1.0)
        noise_true = train.noise_models_from_config(config)
        rates = np.zeros((2, 9))
        features, labels = rng.uniform(0, 1, (2, 64)), np.array([0, 1])
        got = run_batch(features, labels, theta, rates, noise_true, config)
        h = 1e-4
        for g in range(9):
            rp = rates.copy()
            rm = rates.copy()
            rp[1, g] += h
            rm[1, g] -= h
            fd = (
                run_batch(features, labels, theta, rp, noise_true, config, False).total
                - run_batch(features, labels, theta, rm, noise_true, config, False).total
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
        theta = np.zeros(config.theta_shape)
        theta[0, 0, 2] = 0.7  # Z on qubit 0, which still holds |0>
        theta[0, 1, 0] = 0.8  # X on qubit 1 for a nontrivial state
        noise_true = train.noise_models_from_config(config)
        rates = np.full((2, 12), 0.01)
        got = run_batch(np.zeros((1, 64)), np.array([0]), theta, rates, noise_true, config)
        assert abs(got.grad_theta[0, 0, 2]) <= 1e-8
        assert abs(got.grad_theta[0, 1, 0]) > 1e-6

    def test_engine_agrees_with_dense_reference(self):
        """The batched engine computes the loss of dense per-sample channels
        (``P rho P`` products), layer by layer."""
        rng = np.random.default_rng(4)
        for mode in ("loss_only", "cascaded"):
            config = small_config(mode=mode, alpha_fb=0.7, alpha_task=1.3)
            theta = dense_reference.random_layers(3, 2, "U2", rng, theta_scale=1.0)
            noise_true = noise.draw_noise_models(3, 2, seed=11)
            rates = rng.uniform(0, 0.02, (2, 9))
            features = rng.uniform(0, 1, (3, 64))
            labels = np.array([0, 1, 0])
            engine_loss = run_batch(features, labels, theta, rates, noise_true, config, False).total
            reference = np.mean([
                dense_reference_pass(pqc.encode(x, 3).data, y, theta, rates, noise_true, config)[0]
                for x, y in zip(features, labels)
            ])
            assert engine_loss == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("mode,step", [
        ("loss_only", 1), ("cascaded", 1), ("loss_only", 2), ("cascaded", 2),
    ])
    def test_engine_gradients_match_dense_reference(self, mode, step):
        """Loss and every gradient of one batch pass on encoded state vectors
        against dense reverse mode.  The dense readout in loss_only mode
        applies the last inverse to the final state, where the engine
        multiplies by its per-qubit gain."""
        rng = np.random.default_rng(16)
        config = small_config(mode=mode, layers=4, step_size=step, alpha_fb=0.7, alpha_task=1.3)
        theta = dense_reference.random_layers(3, 4, "U2", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 4, seed=12)
        rates = rng.uniform(0, 0.02, (4, 9))
        labels = np.array([0, 1, 1, 0])
        vectors = pqc.encode_vectors(rng.uniform(0, 1, (4, 64)), 3)
        got = train._run_batch(vectors, labels, theta, rates, config, noise_true, True)
        refs = [
            dense_reference_pass(rho, y, theta, rates, noise_true, config)
            for rho, y in zip(pqc.pure_states(vectors), labels)
        ]
        assert got.total == pytest.approx(np.mean([r[0] for r in refs]), abs=1e-12)
        want = np.mean([r[1] for r in refs], axis=0)
        np.testing.assert_allclose(got.grad_theta, want, rtol=0, atol=1e-12)
        want = np.mean([r[2] for r in refs], axis=0)
        np.testing.assert_allclose(got.grad_rates, want, rtol=0, atol=1e-12)

    def test_recover_rates_matches_dense_reference(self):
        """The identifiability probe on encoded state vectors takes the
        momentum steps of the dense reference's forward-backward rate
        gradients."""
        rng = np.random.default_rng(17)
        config = small_config(layers=2)
        theta = rng.uniform(-math.pi, math.pi, config.theta_shape)
        noise_true = train.noise_models_from_config(config)
        psi = pqc.encode_vectors(rng.uniform(0, 1, (4, 64)), 3)
        got = train.recover_rates(config, theta, noise_true, psi, steps=3, lr=2.0)
        fb_config = small_config(layers=2, alpha_fb=1.0, alpha_task=0.0)
        rates = np.zeros((2, 9))
        vel = np.zeros_like(rates)
        for _ in range(3):
            grad = np.mean([
                dense_reference_pass(rho, 0, theta, rates, noise_true, fb_config)[2]
                for rho in pqc.pure_states(psi)
            ], axis=0)
            vel = 0.9 * vel - 2.0 * grad
            rates = np.maximum(rates + vel, 0.0)
        assert np.any(rates > 0.0)
        np.testing.assert_allclose(got, rates, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,want", [("loss_only", 11), ("cascaded", 8)])
    def test_eigh_count(self, monkeypatch, mode, want):
        """One step with gradients at L=4, step 1 decomposes the four root
        overlaps, the four pullback inputs and the targets of blocks 1-3,
        which in cascaded mode are the pullback inputs of blocks 0-2.  Block
        0's target, the encoded input, needs no ``eigh``."""
        calls = []
        eigh = losses._eigh
        monkeypatch.setattr(losses, "_eigh", lambda x: calls.append(x.shape) or eigh(x))
        rng = np.random.default_rng(18)
        config = small_config(mode=mode, layers=4)
        state = train.init_state(config)
        rates = rng.uniform(0.001, 0.02, state.rates.shape)
        noise_true = train.noise_models_from_config(config)
        vectors = pqc.encode_vectors(rng.uniform(0, 1, (4, 64)), 3)
        labels = np.array([0, 1, 1, 0])
        train._run_batch(vectors, labels, state.theta, rates, config, noise_true, True)
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
            theta = rng.uniform(-math.pi, math.pi, (n, p))
            rotations = pqc.layer_rotations(design, theta[None])[0]
            u, dense = dense_reference.layer_unitary_and_gradients(design, theta)
            axes = pqc.DESIGN_AXES[design]
            g = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
            x = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
            k = (x @ u.conj().T @ g).sum(axis=0)
            a = (x @ u @ g).sum(axis=0)
            fwd = np.zeros((n, p))
            bwd = np.zeros((n, p))
            h = train._theta_grad_forward_conj(g, x, u, rotations, axes, fwd)
            train._theta_grad_backward_conj(u @ g @ u.conj().T, x, u, rotations, axes, bwd)
            np.testing.assert_allclose(h, u.conj().T @ g, rtol=0, atol=1e-12)
            ref_fwd = [[2.0 * np.einsum("ij,ji->", du, k).real for du in row] for row in dense]
            ref_bwd = [[2.0 * np.vdot(du, a).real for du in row] for row in dense]
            np.testing.assert_allclose(fwd, ref_fwd, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bwd, ref_bwd, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    def test_general_generators_match_finite_differences(self, mode):
        """True noise with two- and three-qubit generators takes the kernel's
        general path; the learned inverse has the default generators."""
        rng = np.random.default_rng(6)
        config = small_config(mode=mode)
        theta = dense_reference.random_layers(3, 2, "U2", rng, theta_scale=1.0)
        noise_true = seeded_models(3, ("ZZI", "IXX", "YIY", "XII"), 2, seed=7)
        rates = rng.uniform(0, 0.03, (2, 9))
        batch = (rng.uniform(0, 1, (2, 64)), np.array([0, 1]))
        assert fd_vs_analytic(config, theta, rates, noise_true, batch) <= 1e-3

    def test_loss_and_gradients_rejects_shape_mismatch(self):
        """The engine takes the ``(layers, n, p)`` angles of the config, finite,
        one true-noise model and one rate row of ``3n`` rates per layer, and
        a ``(batch, 2**n)`` stack of state vectors."""
        rng = np.random.default_rng(5)
        config = small_config()
        theta = dense_reference.random_layers(3, 3, "U2", rng)  # depth 3 vs config 2
        noise_true = noise.draw_noise_models(3, 2, seed=1)
        features, labels = rng.uniform(0, 1, (1, 64)), np.array([0])
        for bad in (theta, theta[:2, :2], theta[:2, :, :1], theta[:2, :, :, None]):
            with pytest.raises(ValidationError, match=r"need \(2, 3, 2\) angles"):
                run_batch(features, labels, bad, np.zeros((2, 9)), noise_true, config)
        infinite = theta[:2].copy()
        infinite[1, 2, 1] = np.inf
        with pytest.raises(ValidationError, match="angles must be finite"):
            run_batch(features, labels, infinite, np.zeros((2, 9)), noise_true, config)
        with pytest.raises(ValidationError, match="true-noise model per layer"):
            run_batch(features, labels, theta[:2], np.zeros((2, 9)), noise_true[:1], config)
        with pytest.raises(ValidationError, match=r"a \(2, 9\) rate table"):
            run_batch(features, labels, theta[:2], np.zeros((3, 9)), noise_true, config)
        with pytest.raises(ValidationError, match=r"a \(2, 9\) rate table"):
            run_batch(features, labels, theta[:2], np.zeros((2, 8)), noise_true, config)
        psi = pqc.encode_vectors(features, 3)
        for inputs in (pqc.pure_states(psi), psi[:, :4], psi[0]):
            with pytest.raises(ValidationError, match=r"\(batch, 8\) state vectors"):
                train._run_batch(inputs, labels, theta[:2], np.zeros((2, 9)), config, noise_true,
                                 False)


class TestChunks:
    def test_chunk_size_rule(self):
        """The paper's n=4 batch of 32 runs as one chunk; n=8 streams chunks
        of at most 2 samples; chunks never grow with n."""
        sizes = [train.chunk_size(n) for n in range(1, qsim.MAX_QUBITS + 1)]
        assert sizes[3] >= 32
        assert 1 <= sizes[7] <= 2
        assert sizes == sorted(sizes, reverse=True)
        assert min(sizes) >= 1

    @pytest.mark.parametrize("mode,step", [
        ("loss_only", 1), ("cascaded", 1), ("loss_only", 2), ("cascaded", 2),
    ])
    def test_chunks_add_up_to_the_batch(self, monkeypatch, mode, step):
        """A batch of 7 in chunks of 1, 2 and 3 gives the one-chunk pass:
        the same predictions, the loss terms to rounding of their means and
        the gradients and clamped mass to rounding of their sums."""
        rng = np.random.default_rng(40 + step)
        config = small_config(mode=mode, layers=4, step_size=step, alpha_fb=0.7, alpha_task=1.3)
        theta = dense_reference.random_layers(3, 4, "U2", rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(3, 4, seed=13)
        rates = rng.uniform(0, 0.02, (4, 9))
        labels = np.array([0, 1, 1, 0, 1, 0, 0])
        psi = pqc.encode_vectors(rng.uniform(0, 1, (7, 64)), 3)
        results = {}
        for size in (7, 1, 2, 3):
            chunked_to(monkeypatch, 3, size)
            results[size] = train._run_batch(psi, labels, theta, rates, config, noise_true, True)
        whole = results.pop(7)
        theta_scale = np.abs(whole.grad_theta).max()
        rate_scale = np.abs(whole.grad_rates).max()
        for got in results.values():
            assert np.array_equal(got.predictions, whole.predictions)
            for field in ("total", "fb", "task"):
                assert getattr(got, field) == pytest.approx(getattr(whole, field), rel=1e-15, abs=0)
            assert got.clamped_mass == pytest.approx(whole.clamped_mass, rel=1e-12, abs=1e-30)
            np.testing.assert_allclose(got.grad_theta, whole.grad_theta, rtol=0,
                                       atol=1e-13 * theta_scale)
            np.testing.assert_allclose(got.grad_rates, whole.grad_rates, rtol=0,
                                       atol=1e-13 * rate_scale)

    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sample_loss_does_not_depend_on_its_batch(self, monkeypatch, n, mode):
        """Each sample's forward-backward loss is the same bits run alone as
        in one chunk of 3: no forward product mixes samples, and each
        sample's products go to BLAS in the same shapes whatever the batch."""
        rng = np.random.default_rng(90 + n)
        chunked_to(monkeypatch, n, 3)
        config = small_config(n_qubits=n, layers=2, mode=mode)
        theta = dense_reference.random_layers(n, 2, "U2", rng, theta_scale=1.0)
        noise_true = train.noise_models_from_config(config)
        rates = rng.uniform(0, 0.02, (2, 3 * n))
        psi = pqc.encode_vectors(rng.uniform(0, 1, (3, 64)), n)
        labels = np.array([0, 1, 0])
        losses_per_chunk = []

        def recorded_map(run, starts):
            for lo in starts:
                result = run(lo)
                losses_per_chunk.append(result[0])
                yield result

        train._run_batch(psi, labels, theta, rates, config, noise_true, False, recorded_map)
        for b in range(3):
            train._run_batch(psi[b : b + 1], labels[b : b + 1], theta, rates, config, noise_true,
                             False, recorded_map)
        batch, *alone = losses_per_chunk
        assert batch.tobytes() == np.concatenate(alone).tobytes()

    def test_peak_memory_follows_the_chunk(self, monkeypatch):
        """At n=6 a batch of 16 in chunks of 4 peaks below 1.5 times one
        chunk of 4 alone; run whole, it needs more than twice that."""
        rng = np.random.default_rng(44)
        config = small_config(n_qubits=6)
        theta = dense_reference.random_layers(6, 2, "U2", rng, theta_scale=1.0)
        noise_true = train.noise_models_from_config(config)
        rates = rng.uniform(0, 0.02, (2, 18))
        psi = pqc.encode_vectors(rng.uniform(0, 1, (16, 64)), 6)
        labels = np.arange(16) % 2

        def peak(batch, size):
            chunked_to(monkeypatch, 6, size)
            return peak_stacks(lambda: train._run_batch(psi[:batch], labels[:batch], theta, rates,
                                                        config, noise_true, True), 1)

        one_chunk = peak(4, 4)
        assert peak(16, 4) < 1.5 * one_chunk
        assert peak(16, 16) > 2.0 * one_chunk

    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    @pytest.mark.parametrize(
        "n,chunk,step,high",
        [(6, 32, 1, 0.02), (6, 32, 2, 0.02), (8, 2, 1, 0.02), (8, 2, 1, 0.0)],
        ids=["6-32-1", "6-32-2", "8-2-1", "8-2-1-zero"],
    )
    def test_peak_memory_in_stacks(self, n, chunk, step, high, mode):
        """A step on one chunk (four layers, rates up to ``high``; zero
        rates are the first step of perfbench's wide_n8) peaks at no more
        than 16 ``(chunk, d, d)`` complex stacks.  Measured: 11.21 at n=6
        and 13.03 at n=8, in both modes, at both steps and both rate
        ranges; the margin is about two fifths over 11.21.  Before the
        head conjugated its own stacks in place, layer ``end``'s adjoint
        term was formed before its block and ``loss_only`` mode freed each
        chain state after its last reader, the same cases took 13.22-14.22
        at n=6 and 15.03-16.03 at n=8; running the chain adjoint after
        every block, not one block behind them, took 16.22-18.22 at n=6
        and 18.03-19.03 at n=8; holding every block's caches until all
        blocks had run forward took 40 and 33 at n=6."""
        rng = np.random.default_rng(45)
        config = small_config(n_qubits=n, layers=4, step_size=step, batch_size=chunk, mode=mode)
        assert train.chunk_size(n) == chunk
        theta = dense_reference.random_layers(n, 4, "U2", rng, theta_scale=1.0)
        noise_true = train.noise_models_from_config(config)
        rates = rng.uniform(0, high, (4, 3 * n))
        psi = pqc.encode_vectors(rng.uniform(0, 1, (chunk, 64)), n)
        labels = np.arange(chunk) % 2
        stacks = peak_stacks(
            lambda: train._run_batch(psi, labels, theta, rates, config, noise_true, True),
            np.dtype(complex).itemsize * chunk * 4**n,
        )
        assert stacks <= 16, stacks


class TestBlockStreaming:
    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_backward_changes_no_forward_result(self, n, mode, step):
        """Running each block's backward right after its forward leaves the
        losses, predictions and clamped mass bit for bit as a forward-only
        pass gives them."""
        rng = np.random.default_rng(50 + 10 * n + step)
        config = small_config(n_qubits=n, layers=4, step_size=step, mode=mode)
        theta = dense_reference.random_layers(n, 4, "U2", rng, theta_scale=1.0)
        noise_true = train.noise_models_from_config(config)
        rates = rng.uniform(0, 0.05, (4, 3 * n))  # over-mitigates some rows
        features, labels = rng.uniform(0, 1, (6, 64)), np.arange(6) % 2
        both = run_batch(features, labels, theta, rates, noise_true, config, want_grads=True)
        forward = run_batch(features, labels, theta, rates, noise_true, config, want_grads=False)
        assert forward.grad_theta is None and forward.grad_rates is None
        scalars = lambda r: np.array([r.total, r.fb, r.task, r.clamped_mass]).tobytes()
        assert scalars(both) == scalars(forward)
        assert np.array_equal(both.predictions, forward.predictions)


class TestTotalFbLoss:
    """The engine's forward-backward term: the ``fb`` and ``clamped_mass``
    of a forward-only :func:`train._run_batch`, the mean over its blocks of
    the conditioned ``-log F``."""

    ZERO = noise.NoiseModel(4, noise.default_generators(4), np.zeros(12))
    HEAD = staticmethod(train._fb_pair_forward)

    def _circuit(self, rng, n=4, depth=4, noisy=False, **noise_range):
        """Angles, true noise and input vector of a random circuit."""
        theta = dense_reference.random_layers(n, depth, "U2", rng)
        psi = qsim.random_state_vector(n, rng)[None]
        if noisy:
            models = noise.draw_noise_models(n, depth, seed=int(rng.integers(2**31)), **noise_range)
        else:
            models = [self.ZERO] * depth
        return theta, models, psi

    def _run(self, monkeypatch, theta, models, psi, rates, step=1, mode="loss_only"):
        """The forward-only batch result and the number of blocks it ran,
        counted as calls of the fidelity head."""
        n = psi.shape[1].bit_length() - 1
        config = train.TrainConfig(n_qubits=n, layers=len(theta), step_size=step, mode=mode,
                                   num_classes=2)
        calls = []
        monkeypatch.setattr(train, "_fb_pair_forward", lambda *a: calls.append(1) or self.HEAD(*a))
        result = train._run_batch(psi, np.zeros(len(psi), dtype=np.int64), theta, rates, config,
                                  models, want_grads=False)
        return result, len(calls)

    @pytest.mark.parametrize("step", [1, 2, 4])
    def test_zero_noise_zero_mitigation_is_zero(self, monkeypatch, step):
        rng = np.random.default_rng(13)
        theta, models, psi = self._circuit(rng)
        result, blocks = self._run(monkeypatch, theta, models, psi, np.zeros((4, 12)), step)
        assert abs(result.fb) <= 1e-10
        assert blocks == 4 // step

    def test_single_block_at_full_step(self, monkeypatch):
        rng = np.random.default_rng(14)
        theta, models, psi = self._circuit(rng, noisy=True)
        _, blocks = self._run(monkeypatch, theta, models, psi, np.zeros((4, 12)), 4)
        assert blocks == 1

    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    def test_perfect_mitigation_any_step(self, monkeypatch, mode):
        """The true rates make every block's loss vanish, whether they undo
        the noise in each pullback or inline in the chain."""
        rng = np.random.default_rng(15)
        theta, models, psi = self._circuit(rng, noisy=True)
        rates = np.stack([m.rates for m in models])
        for step in (1, 2, 4):
            assert self._run(monkeypatch, theta, models, psi, rates, step, mode)[0].fb <= 1e-8

    def test_positive_loss_under_unmitigated_noise(self, monkeypatch):
        rng = np.random.default_rng(17)
        theta, models, psi = self._circuit(rng, noisy=True)
        assert self._run(monkeypatch, theta, models, psi, np.zeros((4, 12)))[0].fb > 1e-6

    def test_reports_clamped_mass_for_quasi_states(self, monkeypatch):
        """Rates four times the true ones over-mitigate: the pullbacks have
        negative eigenvalues, whose mass the batch reports."""
        rng = np.random.default_rng(19)
        theta, models, psi = self._circuit(rng, n=2, depth=2, noisy=True, low=0.001, high=0.004)
        over = np.stack([m.rates for m in models]) * 4.0
        assert self._run(monkeypatch, theta, models, psi, over)[0].clamped_mass > 0.0


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_parameters_bitwise(self):
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=1)
        config = small_config(learning_rate=0.0, epochs=1)
        state = train.init_state(config)
        theta_before = state.theta.copy()
        rates_before = state.rates.copy()
        epoch(state, dataset, config)
        assert np.array_equal(state.theta, theta_before)
        assert np.array_equal(state.rates, rates_before)

    def test_rates_stay_nonnegative(self):
        dataset = data.synthetic_blobs(2, 16, 3.0, seed=2)
        config = small_config(learning_rate=0.3, epochs=1)
        state = train.init_state(config)
        for _ in range(3):
            epoch(state, dataset, config)
            assert np.all(state.rates >= 0.0)

    def test_divergence_aborts_with_report(self):
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=3)
        config = small_config(alpha_task=2e4)  # inflates the loss beyond the abort bound
        state = train.init_state(config)
        with pytest.raises(TrainingError, match="diverged"):
            epoch(state, dataset, config)

    def test_rates_past_the_float_range_abort_in_their_step(self):
        """At learning rate 1e6 the first step takes the rates where their
        learned inverse could scale a Pauli string past the float64 range:
        that step aborts, at batch offset 0, before any ``exp`` overflows,
        so no ``RuntimeWarning`` comes first (the suite turns warnings into
        errors)."""
        dataset = data.synthetic_blobs(4, 8, 3.0, seed=0)
        config = small_config(n_qubits=4, num_classes=4, batch_size=8, learning_rate=1e6)
        state = train.init_state(config)
        with pytest.raises(TrainingError, match=r"epoch 0, batch offset 0: the learned inverse"):
            epoch(state, dataset, config)
        assert noise.learned_max_log_fidelity(state.rates) > math.log(np.finfo(float).max)

    def test_empty_dataset_rejected(self):
        config = small_config()
        state = train.init_state(config)
        empty = data.Dataset(np.zeros((0, 64)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValidationError):
            epoch(state, empty, config)

    def test_theta_init_range_and_zero_rates(self):
        config = small_config(seed=7)
        state = train.init_state(config)
        assert state.theta.shape == (2, 3, 2)
        assert np.all(np.abs(state.theta) <= 0.1)
        np.testing.assert_allclose(state.rates, 0.0)

    @pytest.mark.parametrize("design, layers", [("RX", 1), ("U2", 2), ("U3", 4)])
    def test_init_draws_the_seeded_stream_layer_by_layer(self, design, layers):
        """The angles are the per-layer ``(n, p)`` draws of ``default_rng(seed)``
        stacked, bit for bit, and leave the generator where those draws do:
        the epoch shuffle that follows is the same permutation, so
        checkpoints and ``metrics.csv`` keep their bytes."""
        config = small_config(design=design, layers=layers, seed=23)
        state = train.init_state(config)
        rng = np.random.default_rng(23)
        n, p = config.n_qubits, len(pqc.DESIGN_AXES[design])
        want = np.stack([rng.uniform(-0.1, 0.1, (n, p)) for _ in range(layers)])
        assert state.theta.shape == want.shape == config.theta_shape
        assert state.theta.tobytes() == want.tobytes()
        assert np.array_equal(state.rng.permutation(50), rng.permutation(50))

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
        result = evaluate(state, dataset, config)
        assert 0.1 <= result.accuracy <= 0.5

    def test_single_sample_accuracy_is_zero_or_one(self):
        features = np.full((1, 64), 0.3)
        config = small_config(num_classes=2, n_qubits=3)
        state = train.init_state(config)
        accs = []
        for label in (0, 1):
            dataset = data.Dataset(features, np.array([label], dtype=np.int64))
            accs.append(evaluate(state, dataset, config).accuracy)
        assert sorted(accs) == [0.0, 1.0]

    def test_predictions_match_run_batch(self):
        """The forward-only path makes the same predictions as the full batch pass."""
        dataset = data.synthetic_blobs(2, 30, 1.0, seed=14)
        for mode in ("loss_only", "cascaded"):
            config = small_config(mode=mode, layers=4, step_size=2)
            state = train.init_state(config)
            rng = np.random.default_rng(15)
            state.theta = rng.uniform(-math.pi, math.pi, state.theta.shape)
            # Rates far apart make the final inverse stack reorder the logits.
            state.rates = rng.uniform(0.0, 0.2, state.rates.shape)
            noise_true = train.noise_models_from_config(config)
            encoded = train.encode_dataset(dataset, config.n_qubits)
            result = train._run_batch(
                encoded, dataset.labels, state.theta, state.rates, config, noise_true,
                want_grads=False,
            )
            # Labelled with the batch pass's predictions, every sample is
            # classified correctly only if evaluate predicts the same class.
            relabelled = data.Dataset(dataset.features, result.predictions)
            assert len(set(result.predictions.tolist())) == 2
            qubits = pqc.encode_qubits(dataset.features, config.n_qubits)
            got = train.evaluate(state, relabelled, config, noise_true, qubits)
            assert got.accuracy == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_readout_matches_per_state_chain(self, n):
        """The Heisenberg-picture logits (in loss_only mode those of the
        noisy chain times the last rate row's gain) equal the Z readouts of
        each state's mitigated final state from ``dense_reference.layer_chain`` to
        1e-12 times the learned overhead of the inverse stacks it passes
        through, for true rates up to 0.2, both under weight-1 true noise and
        (from n = 2) under true noise with weight-2 ``ZZ`` generators, which
        takes the kernel's non-separable branch.  The reference chain
        conjugates by the dense layer unitaries, the readout by the factored
        rotations and ring.  The readout does not depend on the block step;
        the configs with step 1 and 2 check that ``evaluate`` agrees too.
        From n = 7 on one design is checked, to bound the dense chain's
        cost."""
        rng = np.random.default_rng(60 + n)
        features = rng.uniform(0, 1, (3, 64))
        vectors, qubits = pqc.encode_vectors(features, n), pqc.encode_qubits(features, n)
        letters = noise.default_generators(n)
        separable = noise.draw_noise_models(n, 2, seed=n, low=0.0, high=0.2)
        noises = [separable]
        if n >= 2:
            words = ["I" * q + "ZZ" + "I" * (n - q - 2) for q in range(n - 1)]
            words += ["I" * q + "X" + "I" * (n - q - 1) for q in range(n)]
            noises.append(seeded_models(n, words, 2, seed=n, high=0.2))
        for design in ("RX", "U2", "U3") if n < 7 else ("U2",):
            theta = dense_reference.random_layers(n, 2, design, rng)
            rotations = pqc.layer_rotations(design, theta)
            dense_units = [dense_reference.layer_factors(design, t)[0] for t in theta]
            # Below the weight-1 true rates, so that every mitigated state
            # of that model is a state.
            rates = np.stack([m.rates for m in separable]) * rng.uniform(0.5, 1.0, (2, 1))
            for noise_true, mode in itertools.product(noises, ("loss_only", "cascaded")):
                if mode == "cascaded":
                    got = pqc.mitigated_z_readout(qubits, rotations, noise_true, rates, n)
                else:
                    got = pqc.mitigated_z_readout(qubits, rotations, noise_true, None, n)
                    got *= noise.learned_z_gains(rates[-1])
                want = [
                    dense_reference.z_readout(dense_reference.layer_chain(
                        rho, dense_units, noise_true, letters, rates, mode == "cascaded"
                    )[1])
                    for rho in pqc.pure_states(vectors)
                ]
                gamma = np.exp(2.0 * (rates.sum() if mode == "cascaded" else rates[-1].sum()))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * gamma)
                if n < 2:
                    continue
                labels = np.argmax(losses.softmax_head(np.array(want), 2), axis=1)
                dataset = data.Dataset(np.zeros((3, 64)), labels)
                for step in (1, 2):
                    config = small_config(n_qubits=n, design=design, mode=mode, step_size=step)
                    state = train.init_state(config)
                    state.theta = theta
                    state.rates = rates
                    result = train.evaluate(state, dataset, config, noise_true, qubits)
                    assert result.accuracy == 1.0

    @pytest.mark.parametrize("mode", ["loss_only", "cascaded"])
    def test_cost_does_not_grow_with_samples(self, monkeypatch, mode):
        """``evaluate`` forms no density matrix, runs no state chain, builds
        no layer unitary, runs no kernel pass and builds no fidelity table
        under weight-1 noise.  Its only complex products are the ``2 x 2``
        and ``4 x 4`` ones that build each qubit's transfer matrix, so no
        product touches a complex observable or a ``d x d`` block per class.
        The products are the same for 10 and 1000 test samples but for two:
        the per-qubit map ``(n, N, 4) @ (n, 4, 4)`` of the samples' Bloch
        vectors and the one real GEMM ``(c 4^h, 4^(n-h)) @ (4^(n-h), N)``,
        ``h = n // 2``; the rest are ``n`` GEMMs ``(c, 4^(n-1), 4) @ (4, 4)``
        per layer above layer 0 on the ``(c, 4^n)`` Pauli coefficients.
        Every array derived from the rotations or the encoded input logs
        the products it takes part in, so a layer unitary or a per-sample
        matrix built from them would show."""
        config = small_config(mode=mode, layers=4)
        n, c, dim = config.n_qubits, config.num_classes, 1 << config.n_qubits
        h = n // 2
        state = train.init_state(config)
        state.rates = np.random.default_rng(19).uniform(0.001, 0.02, state.rates.shape)
        noise_true = train.noise_models_from_config(config)

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluate built a per-sample state, a layer unitary or a table")

        for module in (pqc, train):
            monkeypatch.setattr(module, "layer_chain", forbidden)
            monkeypatch.setattr(module, "layer_unitary", forbidden)
        monkeypatch.setattr(pqc, "pure_states", forbidden)
        monkeypatch.setattr(pqc, "pauli_fidelity_table", forbidden)
        kernel_shapes = []
        kernel = noise.apply_qubit_superoperators

        def logged_kernel(x, ops):
            kernel_shapes.append(x.shape)
            return kernel(x, ops)

        monkeypatch.setattr(noise, "apply_qubit_superoperators", logged_kernel)
        rotations = train.layer_rotations
        monkeypatch.setattr(
            train, "layer_rotations", lambda *args: rotations(*args).view(_ProductLog)
        )
        runs = []
        for size in (10, 1000):
            _ProductLog.log.clear()
            dataset = data.synthetic_blobs(2, size // 2, 3.0, seed=16)
            encoded = pqc.encode_qubits(dataset.features, n).view(_ProductLog)
            train.evaluate(state, dataset, config, noise_true, encoded)
            complex_shapes = [shapes for shapes, is_complex in _ProductLog.log if is_complex]
            assert complex_shapes
            assert all(max(x[-2:]) <= 4 for shapes in complex_shapes for x in shapes)
            shapes = [shapes for shapes, _ in _ProductLog.log]
            per_sample = [s for s in shapes if size in itertools.chain(*s)]
            assert per_sample == [
                ((n, size, 4), (n, 4, 4)),
                ((c << 2 * h, 4 ** (n - h)), (4 ** (n - h), size)),
            ]
            runs.append([s for s in shapes if s not in per_sample])
        assert kernel_shapes == []
        assert runs[0] == runs[1]
        passes = [s for s in runs[0] if s == ((c, 4 ** (n - 1), 4), (4, 4))]
        assert len(passes) == n * (config.layers - 1)
        assert not [s for s in runs[0] if any(x[-2:] == (dim, dim) for x in s)]

    def test_logits_do_not_depend_on_blas_threads(self, tmp_path):
        """At n=8 the readout runs kernel GEMMs and gathers only, no ``eigh``,
        so ``evaluate``'s logits have the same bits under 1 and 2 BLAS
        threads."""
        script = tmp_path / "logits.py"
        script.write_text(
            "import hashlib\n"
            "import numpy as np\n"
            "from qmit import data, pqc, train\n"
            "readout, logits = train.mitigated_z_readout, []\n"
            "train.mitigated_z_readout = lambda *args: logits.append(readout(*args)) or logits[-1]\n"
            "for mode in ('loss_only', 'cascaded'):\n"
            "    config = train.TrainConfig(n_qubits=8, layers=4, num_classes=4, mode=mode, seed=3)\n"
            "    state = train.init_state(config)\n"
            "    state.rates = np.random.default_rng(4).uniform(0.0, 0.02, state.rates.shape)\n"
            "    dataset = data.synthetic_blobs(4, 2, 3.0, seed=5)\n"
            "    encoded = pqc.encode_qubits(dataset.features, 8)\n"
            "    noise_true = train.noise_models_from_config(config)\n"
            "    train.evaluate(state, dataset, config, noise_true, encoded)\n"
            "print(hashlib.sha256(np.concatenate(logits).tobytes()).hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert len(digests[0]) == 65
        assert digests[0] == digests[1]

    def test_labels_outside_the_classes_raise(self):
        """A label at or above ``num_classes`` raises instead of being left
        out of the accuracy."""
        config = small_config(num_classes=4, n_qubits=4)
        state = train.init_state(config)
        dataset = data.Dataset(np.full((6, 64), 0.3), np.array([0, 1, 2, 3, 7, 9]))
        with pytest.raises(ValidationError, match=r"labels must lie in \[0, 4\)"):
            evaluate(state, dataset, config)

    def test_encoded_row_count_must_match_the_dataset(self):
        """``encoded`` with more or fewer rows than the dataset has samples
        raises ``ValidationError``, not an ``IndexError``."""
        config = small_config()
        state = train.init_state(config)
        dataset = data.synthetic_blobs(2, 3, 3.0, seed=12)
        noise_true = train.noise_models_from_config(config)
        qubits = pqc.encode_qubits(dataset.features, config.n_qubits)
        for encoded in (qubits[:-1], np.concatenate([qubits, qubits[:1]])):
            with pytest.raises(ValidationError, match="encoded holds"):
                train.evaluate(state, dataset, config, noise_true, encoded)

    def test_repeated_evaluation_identical(self):
        dataset = data.synthetic_blobs(2, 10, 3.0, seed=9)
        config = small_config()
        state = train.init_state(config)
        a = evaluate(state, dataset, config)
        b = evaluate(state, dataset, config)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.per_class_correct, b.per_class_correct)


def run_experiment(config, dataset, repeats, workers=1):
    """``train.run_experiment`` on ``dataset`` for training and test, on the
    config's seeded noise."""
    noise_true = train.noise_models_from_config(config)
    return train.run_experiment(config, dataset, dataset, noise_true, repeats, workers)


class TestRunExperiment:
    def test_single_repeat_zero_std(self):
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=10)
        config = small_config(epochs=2)
        result = run_experiment(config, dataset, repeats=1)
        assert result.std_accuracy == 0.0
        assert len(result.per_seed_accuracy) == 1

    def test_repeats_vary_seed_and_report_std(self):
        dataset = data.synthetic_blobs(2, 12, 3.0, seed=11)
        config = small_config(epochs=2)
        result = run_experiment(config, dataset, repeats=3)
        assert len(result.per_seed_accuracy) == 3
        assert result.mean_accuracy == pytest.approx(np.mean(result.per_seed_accuracy))
        expected_std = float(np.std(result.per_seed_accuracy, ddof=1))
        assert result.std_accuracy == pytest.approx(expected_std)
        repeats_seen = {row["repeat"] for row in result.metrics_rows}
        assert repeats_seen == {0, 1, 2}

    def test_deterministic_metric_stream(self):
        dataset = data.synthetic_blobs(2, 10, 3.0, seed=12)
        config = small_config(epochs=2)
        a = run_experiment(config, dataset, repeats=2)
        b = run_experiment(config, dataset, repeats=2)
        assert a.metrics_rows == b.metrics_rows
        assert a.per_seed_accuracy == b.per_seed_accuracy

    def test_thread_pool_matches_serial(self, monkeypatch):
        dataset = data.synthetic_blobs(2, 10, 3.0, seed=13)
        config = small_config(epochs=1)
        serial = run_experiment(config, dataset, repeats=2)
        threaded = run_experiment(config, dataset, repeats=2, workers=2)
        assert serial.metrics_rows == threaded.metrics_rows

        # One repeat on two threads runs its batches' chunks on the pool.
        chunked_to(monkeypatch, config.n_qubits, 1)
        ran_on = set()
        run_chunk = train._run_chunk
        monkeypatch.setattr(
            train, "_run_chunk", lambda *args: ran_on.add(threading.get_ident()) or run_chunk(*args)
        )
        rows, threads = {}, {}
        for workers in (1, 2):
            ran_on.clear()
            rows[workers] = run_experiment(config, dataset, repeats=1, workers=workers).metrics_rows
            threads[workers] = set(ran_on)
        assert rows[1] == rows[2]
        assert threads[1] == {threading.get_ident()}
        assert threading.get_ident() not in threads[2]

    def test_noise_fixed_across_repeats(self):
        """Repeats share the base-seed noise draw (one simulated device)."""
        config = small_config(seed=21)
        a = train.noise_models_from_config(config)
        from dataclasses import replace

        b = train.noise_models_from_config(replace(config, seed=21))
        for ma, mb in zip(a, b):
            np.testing.assert_allclose(ma.rates, mb.rates)


class TestCheckpoint:
    def test_payload_roundtrip(self):
        config = small_config()
        state = train.init_state(config)
        payload = train.checkpoint_payload(state.snapshot(), config)
        loaded = json.loads(json.dumps(payload))
        assert loaded["epoch"] == 0
        np.testing.assert_allclose(np.asarray(loaded["theta"]), state.theta)
        cfg = train.config_from_json(loaded["config"])
        assert cfg == config
        assert len(loaded["mitigation"]["layers"]) == config.layers

    def test_mitigation_block_reads_back_to_trained_rates(self):
        """Each layer of a checkpoint's ``"mitigation"`` block reads back
        through ``NoiseModel.from_json`` to the trained rates, bit for bit,
        and the block is the noise-file format of those models."""
        dataset = data.synthetic_blobs(2, 8, 3.0, seed=24)
        config = small_config(learning_rate=0.3, epochs=1)
        state = train.init_state(config)
        epoch(state, dataset, config)
        assert np.any(state.rates > 0.0)
        payload = train.checkpoint_payload(state.snapshot(), config)
        block = json.loads(json.dumps(payload))["mitigation"]
        models = [noise.NoiseModel.from_json(item) for item in block["layers"]]
        assert block["n"] == config.n_qubits
        assert all(m.generators == noise.default_generators(config.n_qubits) for m in models)
        assert np.array_equal(np.stack([m.rates for m in models]), state.rates)
        assert block == noise.noise_layers_json(models)

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
        for step in (3, 0, -2):
            with pytest.raises(ConfigError, match="step size must be 1, 2 or 4"):
                small_config(layers=6, step_size=step)

    def test_weights_not_both_zero(self):
        with pytest.raises(ValidationError):
            small_config(alpha_fb=0.0, alpha_task=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("field", ["learning_rate", "rate_lr_scale", "alpha_fb", "alpha_task"])
    def test_non_finite_or_negative_rates_and_weights_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            small_config(**{field: value})
        payload = train.config_to_json(small_config())
        payload[field] = value
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            train.config_from_json(payload)

    def test_qubit_limit_is_the_simulators(self):
        assert small_config(n_qubits=qsim.MAX_QUBITS).n_qubits == qsim.MAX_QUBITS
        for n in (0, qsim.MAX_QUBITS + 1):
            with pytest.raises(ConfigError, match="qubit count"):
                small_config(n_qubits=n)

    def test_class_count_bounded_by_qubits(self):
        with pytest.raises(ConfigError):
            small_config(num_classes=4, n_qubits=3)

    def test_file_noise_requires_path(self):
        with pytest.raises(ConfigError):
            small_config(noise_source="file")

    def test_file_noise_loads(self, tmp_path):
        models = noise.draw_noise_models(3, 2, seed=1)
        path = tmp_path / "noise.json"
        cli.write_json(path, noise.noise_layers_json(models))
        config = small_config(noise_source="file", noise_path=str(path))
        (loaded,) = cli._true_noise([config])
        for a, b in zip(loaded, models):
            np.testing.assert_allclose(a.rates, b.rates)
