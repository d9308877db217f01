"""Acceptance suite: one test per release criterion.

Each test prints a single pass line with its measured figure (visible with
``pytest -s`` or in the captured-output section).  Criteria 9-11
(training-trend claims on the MNIST-4 benchmark) are not implemented yet.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from qmit import cli, data, losses, noise, pqc, qsim, train


def report(criterion, detail):
    print(f"ACCEPT {criterion}: PASS ({detail})")


def test_criterion_01_channel_inversion_exactness():
    """Inverse-of-forward identity on 200 random (state, model) pairs."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        rho = qsim.random_density_matrix(n, rng)
        gens = noise.default_generators(n)
        model = noise.NoiseModel(n, gens, rng.uniform(0.0, 0.1, len(gens)))
        back = noise.apply_inverse_channel(noise.apply_channel(rho, model), model)
        worst = max(worst, float(np.linalg.norm(back.data - rho.data)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report("01 channel-inversion", f"max residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_sampling_overhead_dual_form():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        gens = noise.default_generators(n)
        model = noise.NoiseModel(n, gens, rng.uniform(0.0, 0.5, len(gens)))
        a = noise.sampling_overhead(model, "exp")
        b = noise.sampling_overhead(model, "product")
        worst = max(worst, abs(a - b) / a)
    assert worst <= 1e-12
    report("02 overhead-dual-form", f"max rel diff {worst:.2e}")


def test_criterion_03_divergence_invariance_noise_free():
    rng = np.random.default_rng(103)
    mixed = qsim.maximally_mixed(4)
    worst = 0.0
    for _ in range(20):
        circuit = pqc.random_circuit(4, 8, "U2", rng)
        rho0 = pqc.encode(rng.uniform(0, 1, 64), circuit.encoder)
        base = losses.petz_renyi_divergence(rho0, mixed)
        for state in pqc.forward_noise_free(rho0, circuit):
            worst = max(worst, abs(losses.petz_renyi_divergence(state, mixed) - base))
    assert worst <= 1e-9
    report("03 noise-free-invariance", f"max drift {worst:.2e}")


def test_criterion_04_divergence_decreases_under_noise():
    """Strict decrease holds to the 1e-12 monotonicity slack; the tail of the
    trace saturates at float precision once the state is numerically mixed."""
    start = time.perf_counter()
    values = cli.divergence_trace(4, 500, "depolarizing", 0.01, seed=104)
    assert np.all(np.diff(values) < 1e-12), "trace not strictly decreasing"
    assert values[-1] < 0.01 * values[0]
    damping = cli.divergence_trace(4, 200, "amplitude_damping", 0.05, seed=104)
    assert np.all(np.diff(damping[:30]) < 0.0), "no initial decline under damping"
    assert damping.min() < damping[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        "04 noisy-divergence-trace",
        f"depolarizing {values[0]:.3f}->{values[-1]:.2e}, damping dips to "
        f"{damping.min():.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_perfect_mitigation_oracle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        circuit = pqc.random_circuit(4, 4, "U2", rng)
        rho0 = pqc.encode(rng.uniform(0, 1, 64), circuit.encoder)
        models = noise.draw_noise_models(4, 4, seed=int(rng.integers(2**31)))
        mit = noise.MitigationModel.from_noise_models(models)
        _, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, "cascaded")
        z_hat = pqc.readout(mitigated[-1], circuit)
        z_free = pqc.readout(pqc.forward_noise_free(rho0, circuit)[-1], circuit)
        worst = max(worst, float(np.max(np.abs(z_hat - z_free))))
    assert worst <= 1e-8
    report("05 perfect-mitigation", f"max readout residual {worst:.2e}")


def test_criterion_06_fidelity_suite():
    rng = np.random.default_rng(106)
    worst_bound = worst_sym = worst_inv = worst_pure = 0.0
    for _ in range(500):
        rho = qsim.random_density_matrix(2, rng)
        sigma = qsim.random_density_matrix(2, rng)
        f = losses.fidelity(rho, sigma)
        worst_bound = max(worst_bound, -f, f - (1.0 + 1e-9))
        worst_sym = max(worst_sym, abs(f - losses.fidelity(sigma, rho)))
        u = qsim.haar_random_unitary(2, rng)
        worst_inv = max(
            worst_inv, abs(losses.fidelity(qsim.evolve(rho, u), qsim.evolve(sigma, u)) - f)
        )
        a = qsim.random_state_vector(2, rng)
        b = qsim.random_state_vector(2, rng)
        worst_pure = max(
            worst_pure,
            abs(losses.fidelity(qsim.pure_state(a), qsim.pure_state(b)) - abs(np.vdot(a, b)) ** 2),
        )
    assert worst_bound <= 0.0 or worst_bound <= 1e-9
    assert worst_sym <= 1e-9
    assert worst_inv <= 1e-9
    assert worst_pure <= 1e-9
    report(
        "06 fidelity-suite",
        f"bounds {worst_bound:.1e}, symmetry {worst_sym:.1e}, "
        f"invariance {worst_inv:.1e}, pure overlap {worst_pure:.1e}",
    )


def test_criterion_07_gradient_contract():
    """Every angle and rate gradient matches central differences (h=1e-4)."""
    start = time.perf_counter()
    h = 1e-4
    worst = 0.0
    for trial in range(20):
        seed = 700 + trial
        rng = np.random.default_rng(seed)
        mode = ("loss_only", "cascaded")[trial % 2]
        design = ("RX", "U2", "U3")[trial % 3]
        step = (1, 2, 4)[(trial // 2) % 3]
        config = train.TrainConfig(
            n_qubits=4, layers=4, design=design, step_size=step, mode=mode,
            num_classes=4, batch_size=2, seed=seed,
        )
        circuit = pqc.random_circuit(4, 4, design, rng, theta_scale=1.0)
        noise_true = noise.draw_noise_models(4, 4, seed=seed + 1)
        mit = noise.MitigationModel(
            4, noise.default_generators(4), rng.uniform(0.0, 0.03, (4, 12))
        )
        batch = (rng.uniform(0, 1, (2, 64)), rng.integers(0, 4, 2))
        got = train.loss_and_gradients(batch, circuit, mit, noise_true, config)

        def mismatch(analytic, fd):
            if abs(fd) < 1e-6:
                return abs(analytic - fd) / 1e-6 * 1e-3
            return abs(analytic - fd) / abs(fd)

        base_theta = [layer.theta for layer in circuit.layers]
        p = base_theta[0].shape[1]
        for i in range(4):
            for q in range(4):
                for a in range(p):
                    tp = [t.copy() for t in base_theta]
                    tm = [t.copy() for t in base_theta]
                    tp[i][q, a] += h
                    tm[i][q, a] -= h
                    fd = (
                        train.batch_loss(batch, train.circuit_from_theta(tp, config), mit, noise_true, config)
                        - train.batch_loss(batch, train.circuit_from_theta(tm, config), mit, noise_true, config)
                    ) / (2 * h)
                    worst = max(worst, mismatch(got.grad_theta[i][q, a], fd))
            for g in range(12):
                rp = mit.rates.copy()
                rm = mit.rates.copy()
                rp[i, g] += h
                rm[i, g] -= h
                fd = (
                    train.batch_loss(batch, circuit, noise.MitigationModel(4, mit.generators, rp), noise_true, config)
                    - train.batch_loss(batch, circuit, noise.MitigationModel(4, mit.generators, rm), noise_true, config)
                ) / (2 * h)
                worst = max(worst, mismatch(got.grad_rates[i, g], fd))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed < 300.0
    report("07 gradient-contract", f"worst rel error {worst:.2e} over 20 configs in {elapsed:.0f}s")


def test_criterion_08_rate_identifiability():
    """Rates trained on the forward-backward loss alone recover the truth."""
    result = train.recover_rates_report(seed=800, states=64, steps=200)
    assert result["max_rel_err"] <= 0.2
    report(
        "08 rate-identifiability",
        f"max per-rate rel error {result['max_rel_err']:.4f} after 200 steps",
    )


def test_criterion_12_determinism(tmp_path):
    payload = {
        "benchmark": "synthetic-4",
        "train_cap": 64,
        "test_cap": 32,
        "separation": 6.0,
        "repeats": 2,
        "layers": 2,
        "epochs": 2,
        "batch_size": 16,
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    report("12 determinism", f"metrics.csv byte-identical ({len(bytes_a)} bytes)")
