"""Self-contained invariant suite, runnable without pytest.

Each check raises ``AssertionError`` with a diagnostic message on failure;
the runner prints one line per check and reports overall success.  The
pytest suite runs the same invariants at full sample counts; this module
keeps sizes moderate so a complete pass stays well under five minutes.
"""

from __future__ import annotations

import time
import tempfile
from dataclasses import replace

import numpy as np

from . import data, losses, noise, pqc, qsim, train


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(20_000 + tag)


# --- qsim ------------------------------------------------------------------


def check_entropy_unitary_invariance():
    rng = _rng(1)
    worst = 0.0
    for _ in range(20):
        rho = qsim.random_density_matrix(3, rng)
        u = qsim.haar_random_unitary(3, rng)
        worst = max(worst, abs(qsim.von_neumann_entropy(qsim.evolve(rho, u)) - qsim.von_neumann_entropy(rho)))
    assert worst <= 1e-9, f"entropy drift {worst:.3e}"
    return f"max drift {worst:.2e}"


def check_evolve_preserves_spectrum():
    rng = _rng(2)
    worst_tr, worst_eig = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        rho = qsim.random_density_matrix(n, rng)
        u = qsim.haar_random_unitary(n, rng)
        out = qsim.evolve(rho, u)
        worst_tr = max(worst_tr, abs(np.trace(out.data).real - 1.0))
        worst_eig = max(
            worst_eig,
            abs(np.linalg.eigvalsh(out.data)[0] - np.linalg.eigvalsh(rho.data)[0]),
        )
    assert worst_tr <= 1e-10, f"trace drift {worst_tr:.3e}"
    assert worst_eig <= 1e-9, f"min eigenvalue drift {worst_eig:.3e}"
    return f"trace {worst_tr:.2e}, eig {worst_eig:.2e}"


def check_rotation_inverses():
    rng = _rng(3)
    eye = np.eye(4)
    worst = 0.0
    for _ in range(100):
        axis = "XYZ"[int(rng.integers(3))]
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        prod = (
            qsim.rotation_gate(axis, theta, 1, 2).data
            @ qsim.rotation_gate(axis, -theta, 1, 2).data
        )
        worst = max(worst, float(np.max(np.abs(prod - eye))))
    assert worst <= 1e-10, f"rotation inverse defect {worst:.3e}"
    return f"max defect {worst:.2e}"


def check_evolve_roundtrip():
    rng = _rng(4)
    worst = 0.0
    for _ in range(100):
        rho = qsim.random_density_matrix(3, rng)
        u = qsim.haar_random_unitary(3, rng)
        back = qsim.evolve(qsim.evolve(rho, u), u.dagger())
        worst = max(worst, float(np.linalg.norm(back.data - rho.data)))
    assert worst <= 1e-9, f"roundtrip residual {worst:.3e}"
    return f"max residual {worst:.2e}"


# --- noise -----------------------------------------------------------------


def _random_model(n, rng, high=0.1):
    gens = noise.default_generators(n)
    return noise.NoiseModel(n, gens, rng.uniform(0.0, high, len(gens)))


def check_inverse_roundtrip():
    rng = _rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        rho = qsim.random_density_matrix(n, rng)
        model = _random_model(n, rng)
        back = noise.apply_inverse_channel(noise.apply_channel(rho, model), model)
        worst = max(worst, float(np.linalg.norm(back.data - rho.data)))
    assert worst <= 1e-10, f"roundtrip residual {worst:.3e}"
    return f"max residual {worst:.2e}"


def check_trace_preservation():
    rng = _rng(6)
    worst = 0.0
    for _ in range(100):
        rho = qsim.random_density_matrix(3, rng)
        fwd = noise.apply_channel(rho, _random_model(3, rng))
        inv = noise.apply_inverse_channel(rho, _random_model(3, rng, high=0.02))
        worst = max(worst, abs(np.trace(fwd.data).real - 1.0), abs(np.trace(inv.data).real - 1.0))
    assert worst <= 1e-12, f"trace drift {worst:.3e}"
    return f"max drift {worst:.2e}"


def check_channel_fixed_point():
    rng = _rng(7)
    mixed = qsim.maximally_mixed(3)
    worst = 0.0
    for _ in range(20):
        model = _random_model(3, rng, high=0.5)
        out = noise.apply_channel(mixed, model)
        worst = max(worst, float(np.max(np.abs(out.data - mixed.data))))
    assert worst <= 1e-14, f"fixed point violated by {worst:.3e}"
    return f"max deviation {worst:.2e}"


def check_divergence_contraction():
    rng = _rng(8)
    for _ in range(50):
        rho = qsim.random_density_matrix(2, rng)
        model = noise.single_qubit_model(2, 0, [0.05, 0.0, 0.0])
        before = losses.petz_renyi_divergence(rho, qsim.maximally_mixed(2))
        after = losses.petz_renyi_divergence(noise.apply_channel(rho, model), qsim.maximally_mixed(2))
        assert after < before - 1e-12, f"no strict contraction: {before} -> {after}"
    return "strict decrease on 50 generic states"


def check_overhead_dual_form():
    rng = _rng(9)
    worst = 0.0
    for _ in range(100):
        model = _random_model(3, rng, high=0.3)
        a = noise.sampling_overhead(model, "exp")
        b = noise.sampling_overhead(model, "product")
        worst = max(worst, abs(a - b) / a)
    assert worst <= 1e-12, f"dual form disagreement {worst:.3e}"
    return f"max rel diff {worst:.2e}"


def check_pauli_unitarity():
    rng = _rng(10)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        letters = "".join(rng.choice(list("IXYZ"), n))
        if set(letters) == {"I"}:
            letters = "X" + letters[1:]
        mat = noise.PauliString(n, letters).matrix()
        worst = max(worst, float(np.max(np.abs(mat @ mat - np.eye(1 << n)))))
    assert worst <= 1e-12, f"pauli square defect {worst:.3e}"
    return f"max defect {worst:.2e}"


def check_fast_conjugation():
    rng = _rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        letters = "".join(rng.choice(list("IXYZ"), n))
        rho = qsim.random_density_matrix(n, rng).data
        mat = noise._pauli_matrix(letters)
        direct = mat @ rho @ mat.conj().T
        fast = noise.pauli_conjugate(rho, letters)
        worst = max(worst, float(np.max(np.abs(direct - fast))))
    assert worst <= 1e-12, f"fast path deviates by {worst:.3e}"
    return f"max deviation {worst:.2e}"


# --- pqc -------------------------------------------------------------------


def check_layer_unitarity():
    rng = _rng(12)
    worst = 0.0
    for design in ("RX", "U2", "U3"):
        for _ in range(30):
            circuit = pqc.random_circuit(4, 1, design, rng)
            u = pqc.build_layer_unitary(circuit.layers[0]).data
            worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(16)))))
    assert worst <= 1e-10, f"layer unitarity defect {worst:.3e}"
    return f"max defect {worst:.2e}"


def check_noise_free_invariance():
    rng = _rng(13)
    mixed = qsim.maximally_mixed(4)
    worst = 0.0
    for _ in range(20):
        circuit = pqc.random_circuit(4, 8, "U2", rng)
        rho0 = qsim.random_pure_state(4, rng)
        base = losses.petz_renyi_divergence(rho0, mixed)
        for state in pqc.forward_noise_free(rho0, circuit):
            worst = max(worst, abs(losses.petz_renyi_divergence(state, mixed) - base))
    assert worst <= 1e-9, f"divergence drift {worst:.3e}"
    return f"max drift {worst:.2e}"


def check_noisy_monotonicity():
    rng = _rng(14)
    mixed = qsim.maximally_mixed(4)
    for lam in (0.01, 0.05):
        for _ in range(10):
            circuit = pqc.random_circuit(4, 8, "U2", rng)
            rho0 = qsim.random_pure_state(4, rng)
            models = [noise.depolarizing_model(4, lam)] * 8
            values = [losses.petz_renyi_divergence(rho0, mixed)]
            for state in pqc.forward_noisy(rho0, circuit, models):
                values.append(losses.petz_renyi_divergence(state, mixed))
            diffs = np.diff(values)
            assert np.all(diffs < -1e-12), f"not strictly decreasing at lambda={lam}: {values}"
    return "strictly decreasing for lambda in {0.01, 0.05}"


def check_perfect_mitigation():
    rng = _rng(15)
    worst = 0.0
    for _ in range(20):
        circuit = pqc.random_circuit(4, 4, "U2", rng)
        rho0 = qsim.random_pure_state(4, rng)
        models = noise.draw_noise_models(4, 4, seed=int(rng.integers(2**31)))
        mit = noise.MitigationModel.from_noise_models(models)
        _, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, mode="cascaded")
        z_hat = pqc.readout(mitigated[-1], circuit)
        z_free = pqc.readout(pqc.forward_noise_free(rho0, circuit)[-1], circuit)
        worst = max(worst, float(np.max(np.abs(z_hat - z_free))))
    assert worst <= 1e-8, f"readout residual {worst:.3e}"
    return f"max readout residual {worst:.2e}"


def check_encoder_purity():
    rng = _rng(16)
    spec = pqc.EncoderSpec(4)
    worst = 0.0
    for _ in range(100):
        rho = pqc.encode(rng.uniform(0.0, 1.0, 64), spec)
        worst = max(worst, abs(np.trace(rho.data @ rho.data).real - 1.0))
    assert worst <= 1e-10, f"purity defect {worst:.3e}"
    return f"max purity defect {worst:.2e}"


# --- losses ----------------------------------------------------------------


def check_fidelity_suite():
    rng = _rng(17)
    worst_bound, worst_sym, worst_inv = 0.0, 0.0, 0.0
    for _ in range(200):
        rho = qsim.random_density_matrix(3, rng)
        sigma = qsim.random_density_matrix(3, rng)
        f = losses.fidelity(rho, sigma)
        worst_bound = max(worst_bound, max(-f, f - 1.0))
        worst_sym = max(worst_sym, abs(f - losses.fidelity(sigma, rho)))
        u = qsim.haar_random_unitary(3, rng)
        worst_inv = max(
            worst_inv, abs(losses.fidelity(qsim.evolve(rho, u), qsim.evolve(sigma, u)) - f)
        )
    assert worst_bound <= 1e-9, f"fidelity out of [0,1] by {worst_bound:.3e}"
    assert worst_sym <= 1e-9, f"asymmetry {worst_sym:.3e}"
    assert worst_inv <= 1e-9, f"unitary invariance broken by {worst_inv:.3e}"
    return f"bounds {worst_bound:.1e}, sym {worst_sym:.1e}, inv {worst_inv:.1e}"


def check_pure_state_overlap():
    rng = _rng(18)
    worst = 0.0
    for _ in range(100):
        a = qsim.random_state_vector(3, rng)
        b = qsim.random_state_vector(3, rng)
        f = losses.fidelity(qsim.pure_state(a), qsim.pure_state(b))
        worst = max(worst, abs(f - abs(np.vdot(a, b)) ** 2))
    assert worst <= 1e-9, f"overlap mismatch {worst:.3e}"
    return f"max mismatch {worst:.2e}"


def check_renyi_data_processing():
    rng = _rng(19)
    mixed = qsim.maximally_mixed(3)
    for _ in range(200):
        rho = qsim.random_density_matrix(3, rng)
        model = _random_model(3, rng, high=0.2)
        before = losses.petz_renyi_divergence(rho, mixed)
        after = losses.petz_renyi_divergence(noise.apply_channel(rho, model), mixed)
        assert after <= before + 1e-12, f"divergence increased: {before} -> {after}"
    return "monotone under every sampled channel"


def check_fb_loss_zero_baseline():
    rng = _rng(20)
    for step in (1, 2, 4):
        circuit = pqc.random_circuit(4, 4, "U3", rng)
        rho0 = qsim.random_pure_state(4, rng)
        zero_models = [noise.depolarizing_model(4, 0.0)] * 4
        states = [rho0] + pqc.forward_noisy(rho0, circuit, zero_models)
        mit = noise.MitigationModel.zeros(4, 4)
        result = losses.total_fb_loss(states, circuit, mit, step)
        assert abs(result.value) <= 1e-10, f"nonzero loss {result.value} at step {step}"
    return "zero loss at steps 1, 2, 4"


# --- train -----------------------------------------------------------------


def grad_mismatch(analytic: float, fd: float) -> float:
    """Relative error, or scaled absolute error below the 1e-6 magnitude floor
    (scaled so the 1e-3 bound applies uniformly)."""
    if abs(fd) < 1e-6:
        return abs(analytic - fd) / 1e-6 * 1e-3
    return abs(analytic - fd) / abs(fd)


def fd_vs_analytic(config, circuit, mit, noise_true, batch, h: float = 1e-4) -> float:
    """Worst :func:`grad_mismatch` between the analytic gradient of every angle
    and rate and its central difference with step ``h``."""
    got = train.loss_and_gradients(batch, circuit, mit, noise_true, config)

    def loss(circ, rates):
        model = noise.MitigationModel(config.n_qubits, mit.generators, rates)
        return train.batch_loss(batch, circ, model, noise_true, config)

    worst = 0.0
    base_theta = [layer.theta for layer in circuit.layers]
    for i, (theta, rates) in enumerate(zip(base_theta, mit.rates)):
        for q, a in np.ndindex(theta.shape):
            tp = [t.copy() for t in base_theta]
            tm = [t.copy() for t in base_theta]
            tp[i][q, a] += h
            tm[i][q, a] -= h
            fd = (
                loss(train.circuit_from_theta(tp, config), mit.rates)
                - loss(train.circuit_from_theta(tm, config), mit.rates)
            ) / (2 * h)
            worst = max(worst, grad_mismatch(got.grad_theta[i][q, a], fd))
        for g in range(rates.size):
            rp = mit.rates.copy()
            rm = mit.rates.copy()
            rp[i, g] += h
            rm[i, g] -= h
            fd = (loss(circuit, rp) - loss(circuit, rm)) / (2 * h)
            worst = max(worst, grad_mismatch(got.grad_rates[i, g], fd))
    return worst


def _gradcheck_once(seed: int, mode: str) -> float:
    rng = np.random.default_rng(seed)
    config = train.TrainConfig(
        n_qubits=3,
        layers=2,
        design="U2",
        step_size=1,
        mode=mode,
        num_classes=2,
        batch_size=2,
        seed=seed,
        epochs=1,
    )
    circuit = pqc.random_circuit(3, 2, "U2", rng, theta_scale=1.0)
    noise_true = noise.draw_noise_models(3, 2, seed=seed + 1)
    mit = noise.MitigationModel(3, noise.default_generators(3), rng.uniform(0.0, 0.03, (2, 9)))
    batch = (rng.uniform(0.0, 1.0, (2, 64)), np.array([0, 1]))
    return fd_vs_analytic(config, circuit, mit, noise_true, batch)


def check_gradient_contract():
    worst = 0.0
    for seed, mode in ((101, "loss_only"), (102, "cascaded"), (103, "loss_only")):
        worst = max(worst, _gradcheck_once(seed, mode))
    assert worst <= 1e-3, f"gradient mismatch {worst:.3e}"
    return f"max rel error {worst:.2e}"


def check_train_determinism():
    dataset = data.synthetic_blobs(2, 8, 3.0, seed=7)
    config = train.TrainConfig(
        n_qubits=4, layers=2, num_classes=2, epochs=2, batch_size=8, seed=3,
        step_size=1, noise_low=0.005, noise_high=0.01,
    )
    runs = []
    for _ in range(2):
        result = train.run_experiment(config, dataset, dataset, repeats=1)
        runs.append((tuple(result.per_seed_accuracy), tuple(
            (row["fb_loss"], row["task_loss"], row["val_acc"]) for row in result.metrics_rows
        )))
    assert runs[0] == runs[1], "two identical runs disagreed"
    return "bitwise identical metric streams"


def check_rate_identifiability():
    report = train.recover_rates_report(seed=11, states=32, steps=200)
    assert report["max_rel_err"] <= 0.2, (
        f"rate recovery off by {report['max_rel_err']:.3f} (>{0.2})"
    )
    return f"max per-rate rel error {report['max_rel_err']:.3f}"


# --- data ------------------------------------------------------------------


def check_idx_roundtrip():
    rng = _rng(24)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10, dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        data.save_idx_images(f"{tmp}/img", images)
        data.save_idx_labels(f"{tmp}/lab", labels)
        got_images, got_labels = data.load_idx(f"{tmp}/img", f"{tmp}/lab")
    assert np.array_equal(images, got_images) and np.array_equal(labels, got_labels)
    return "write/read identical"


def check_preprocess_bounds():
    rng = _rng(25)
    for _ in range(20):
        img = rng.integers(0, 256, size=(28, 28), dtype=np.uint8)
        feats = data.preprocess(img)
        assert feats.min() >= 0.0 and feats.max() <= 1.0
    const = data.preprocess(np.full((28, 28), 137, dtype=np.uint8))
    assert np.allclose(const, 137 / 255.0, atol=1e-12), "constants not preserved"
    return "bounds and constants hold"


def check_blob_probe():
    dataset = data.synthetic_blobs(2, 100, 3.0, seed=5)
    x = np.hstack([dataset.features, np.ones((len(dataset), 1))])
    y = 2.0 * dataset.labels - 1.0
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    acc = float(np.mean(np.sign(x @ w) == y))
    assert acc >= 0.99, f"linear probe accuracy {acc:.3f}"
    return f"linear probe accuracy {acc:.3f}"


def check_benchmark_remap():
    feats = np.tile(np.linspace(0, 1, 64), (60, 1))
    labels = np.repeat(np.arange(10), 6)
    raw = data.Dataset(feats, labels)
    spec = data.BENCHMARKS["MNIST-2"]
    train_set, test_set = data.make_benchmark(raw, raw, spec, 8, 4, seed=1)
    assert set(train_set.labels) == {0, 1} and set(test_set.labels) == {0, 1}
    assert len(train_set) == 8 and len(test_set) == 4
    return "classes (3, 6) remapped to (0, 1)"


CHECKS = [
    ("qsim.entropy-unitary-invariance", check_entropy_unitary_invariance),
    ("qsim.evolve-preserves-spectrum", check_evolve_preserves_spectrum),
    ("qsim.rotation-inverses", check_rotation_inverses),
    ("qsim.evolve-roundtrip", check_evolve_roundtrip),
    ("noise.inverse-roundtrip", check_inverse_roundtrip),
    ("noise.trace-preservation", check_trace_preservation),
    ("noise.channel-fixed-point", check_channel_fixed_point),
    ("noise.divergence-contraction", check_divergence_contraction),
    ("noise.overhead-dual-form", check_overhead_dual_form),
    ("noise.pauli-unitarity", check_pauli_unitarity),
    ("noise.fast-conjugation", check_fast_conjugation),
    ("pqc.layer-unitarity", check_layer_unitarity),
    ("pqc.noise-free-invariance", check_noise_free_invariance),
    ("pqc.noisy-monotonicity", check_noisy_monotonicity),
    ("pqc.perfect-mitigation", check_perfect_mitigation),
    ("pqc.encoder-purity", check_encoder_purity),
    ("losses.fidelity-suite", check_fidelity_suite),
    ("losses.pure-state-overlap", check_pure_state_overlap),
    ("losses.renyi-data-processing", check_renyi_data_processing),
    ("losses.fb-loss-zero-baseline", check_fb_loss_zero_baseline),
    ("train.gradient-contract", check_gradient_contract),
    ("train.determinism", check_train_determinism),
    ("train.rate-identifiability", check_rate_identifiability),
    ("data.idx-roundtrip", check_idx_roundtrip),
    ("data.preprocess-bounds", check_preprocess_bounds),
    ("data.blob-probe", check_blob_probe),
    ("data.benchmark-remap", check_benchmark_remap),
]


def run_all(stream=None) -> int:
    """Run every check; print a pass/fail table; return 0 iff all pass."""
    import sys

    out = stream or sys.stdout
    failures = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            detail = fn()
            status = "PASS"
        except AssertionError as exc:
            detail = str(exc)
            status = "FAIL"
            failures.append(name)
        except Exception as exc:  # a crashed check is a failed check
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
            failures.append(name)
        elapsed = time.perf_counter() - start
        print(f"{status}  {name:38s} {elapsed:7.2f}s  {detail}", file=out)
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=out)
        return 1
    print(f"all {len(CHECKS)} checks passed", file=out)
    return 0
