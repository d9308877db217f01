"""Release criteria 01-08 and 12, runnable without pytest.

Each criterion is one function that takes a seed and a size, holds the
criterion's bound, and raises ``AssertionError`` carrying the measured
figure when the bound fails; on success it returns the figure as text.
``tests/test_acceptance.py`` runs them at release sizes, and ``qmit
selftest`` (:func:`run_all`) runs :data:`CHECKS`, the same functions at
reduced sizes, printing one line per criterion.  The finite-difference
oracle of criterion 07 is shared with the training tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import cli, losses, noise, pqc, qsim, train


def _random_model(n: int, rng: np.random.Generator, high: float) -> noise.NoiseModel:
    return noise.default_models(rng.uniform(0.0, high, (1, 3 * n)))[0]


def channel_inversion(seed: int, pairs: int) -> str:
    """01: the inverse channel undoes the forward one to 1e-10 (Frobenius)
    on random states and models of 1-4 qubits with rates up to 0.1."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(pairs):
        n = int(rng.integers(1, 5))
        rho = qsim.random_density_matrix(n, rng).data
        model = _random_model(n, rng, high=0.1)
        noisy = noise.apply_pauli_fidelities(rho, model.generators, model.rates)
        back = noise.apply_pauli_fidelities(noisy, model.generators, -model.rates)
        worst = max(worst, float(np.linalg.norm(back - rho)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"roundtrip residual {worst:.3e}"
    assert elapsed < 10.0, f"{pairs} roundtrips took {elapsed:.1f}s"
    return f"max residual {worst:.2e} in {elapsed:.1f}s"


def overhead_dual_form(seed: int, models: int) -> str:
    """02: ``exp(2 sum lambda)`` and ``prod (2w - 1)^-1`` agree to 1e-12
    relative for rates up to 0.5."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(models):
        model = _random_model(int(rng.integers(1, 5)), rng, high=0.5)
        a = noise.sampling_overhead(model, "exp")
        b = noise.sampling_overhead(model, "product")
        worst = max(worst, abs(a - b) / a)
    assert worst <= 1e-12, f"dual forms differ by {worst:.3e} relative"
    return f"max rel diff {worst:.2e}"


def _zero_noise(n: int, layers: int) -> list[noise.NoiseModel]:
    return noise.default_models(np.zeros((layers, 3 * n)))


def _random_theta(n: int, depth: int, design: str, rng, scale: float = math.pi) -> list:
    """Layer angles drawn uniformly from ``[-scale, scale)``, one ``(n, p)``
    array per layer."""
    p = len(pqc.DESIGN_AXES[design])
    return [rng.uniform(-scale, scale, size=(n, p)) for _ in range(depth)]


def _units(theta: list, design: str) -> list[np.ndarray]:
    return [pqc.layer_unitary(pqc.layer_rotations(design, t)) for t in theta]


def noise_free_invariance(seed: int, circuits: int) -> str:
    """03: without noise the divergence to the maximally mixed state
    (:func:`losses.petz_renyi_divergence`, whose reference ``I/d`` is
    implicit) stays within 1e-9 of its input value through the 8 states of
    :func:`pqc.layer_chain` of its vector on 8 U2 layers on 4 qubits.  The
    encoded input is a checked state; the chain's states are plain arrays,
    each Hermiticity-checked by the divergence."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(circuits):
        theta = _random_theta(4, 8, "U2", rng)
        features = rng.uniform(0, 1, (1, 64))
        base = losses.petz_renyi_divergence(pqc.encode(features, 4))
        psi = pqc.encode_vectors(features, 4)[0]
        for state in pqc.layer_chain(psi, _units(theta, "U2"), _zero_noise(4, 8))[1:]:
            worst = max(worst, abs(losses.petz_renyi_divergence(state) - base))
    assert worst <= 1e-9, f"divergence drift {worst:.3e}"
    return f"max drift {worst:.2e}"


def noisy_divergence_trace(seed: int, operations: int) -> str:
    """04: under depolarizing noise the divergence decreases at every
    operation (to the 1e-12 slack at which the tail saturates) and falls
    below 1% of its start; under amplitude damping, over two fifths as many
    operations, it declines for the first 30."""
    start = time.perf_counter()
    values = cli.divergence_trace(4, operations, "depolarizing", 0.01, seed=seed)
    rise = float(np.max(np.diff(values)))
    assert rise < 1e-12, f"depolarizing trace rises by {rise:.3e}"
    assert values[-1] < 0.01 * values[0], (
        f"depolarizing trace ends at {values[-1]:.3e} from {values[0]:.3f}"
    )
    damping = cli.divergence_trace(4, 2 * operations // 5, "amplitude_damping", 0.05, seed=seed)
    assert np.all(np.diff(damping[:30]) < 0.0), (
        f"no initial decline under damping: {damping[:30]}"
    )
    assert damping.min() < damping[0], f"damping trace never dips below {damping[0]:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"traces took {elapsed:.1f}s"
    return (
        f"depolarizing {values[0]:.3f}->{values[-1]:.2e}, damping dips to "
        f"{damping.min():.3f}, {elapsed:.1f}s"
    )


def perfect_mitigation(seed: int, circuits: int) -> str:
    """05: the cascaded inverse with the true rates restores the noise-free
    readout to 1e-8 on 4-qubit, 4-layer U2 circuits, both in training
    (:func:`pqc.z_expectations` of the last :func:`pqc.layer_chain` state
    of the :func:`pqc.encode_vectors` input) and in evaluation
    (:func:`pqc.mitigated_z_readout` with the rates, of the same input's
    :func:`pqc.encode_qubits` states).  Both readouts take the layers from
    the same :func:`pqc.layer_rotations`: training conjugates by their
    :func:`pqc.layer_unitary`, evaluation pushes the observables back on
    real Pauli coefficients, through their Pauli transfer matrices and the
    ring as a signed gather of Pauli strings, and reads them against each
    qubit's Bloch vector.  The layer itself is checked against independent
    dense matrix products in ``tests/dense_reference.py``.  (``loss_only``
    mode cannot restore the readout: its inverse reaches it only as
    :func:`noise.learned_z_gains`.)"""
    rng = np.random.default_rng(seed)
    worst_train = worst_eval = 0.0
    for _ in range(circuits):
        theta = _random_theta(4, 4, "U2", rng)
        features = rng.uniform(0, 1, (1, 64))
        psi = pqc.encode_vectors(features, 4)
        models = noise.draw_noise_models(4, 4, seed=int(rng.integers(2**31)))
        rates = np.stack([m.rates for m in models])
        units = _units(theta, "U2")
        z_free = pqc.z_expectations(pqc.layer_chain(psi, units, _zero_noise(4, 4))[-1])
        z_train = pqc.z_expectations(pqc.layer_chain(psi, units, models, rates)[-1])
        rotations = [pqc.layer_rotations("U2", t) for t in theta]
        qubits = pqc.encode_qubits(features, 4)
        z_eval = pqc.mitigated_z_readout(qubits, rotations, models, rates, 4)
        worst_train = max(worst_train, float(np.max(np.abs(z_train - z_free))))
        worst_eval = max(worst_eval, float(np.max(np.abs(z_eval - z_free))))
    assert worst_train <= 1e-8, f"training readout residual {worst_train:.3e}"
    assert worst_eval <= 1e-8, f"evaluation readout residual {worst_eval:.3e}"
    return f"max readout residual {worst_train:.2e} (train), {worst_eval:.2e} (evaluate)"


def fidelity_suite(seed: int, pairs: int) -> str:
    """06: on 2-qubit states the fidelity lies in [0, 1], is symmetric and
    unitarily invariant, and reduces to the squared overlap on pure states,
    each to 1e-9.  Invariance compares the checked states with their
    conjugations ``u rho u^dagger`` by a Haar unitary ``u``, plain arrays
    that :func:`losses.fidelity` checks for Hermiticity."""
    rng = np.random.default_rng(seed)
    worst_bound = worst_sym = worst_inv = worst_pure = 0.0
    for _ in range(pairs):
        rho = qsim.random_density_matrix(2, rng)
        sigma = qsim.random_density_matrix(2, rng)
        f = losses.fidelity(rho, sigma)
        worst_bound = max(worst_bound, -f, f - 1.0)
        worst_sym = max(worst_sym, abs(f - losses.fidelity(sigma, rho)))
        u = qsim.haar_random_unitary(2, rng)
        turned = [u @ state.data @ u.conj().T for state in (rho, sigma)]
        worst_inv = max(worst_inv, abs(losses.fidelity(*turned) - f))
        a = qsim.random_state_vector(2, rng)
        b = qsim.random_state_vector(2, rng)
        worst_pure = max(
            worst_pure,
            abs(losses.fidelity(qsim.pure_state(a), qsim.pure_state(b)) - abs(np.vdot(a, b)) ** 2),
        )
    assert worst_bound <= 1e-9, f"fidelity out of [0, 1] by {worst_bound:.3e}"
    assert worst_sym <= 1e-9, f"asymmetry {worst_sym:.3e}"
    assert worst_inv <= 1e-9, f"unitary invariance broken by {worst_inv:.3e}"
    assert worst_pure <= 1e-9, f"pure overlap mismatch {worst_pure:.3e}"
    return (
        f"bounds {worst_bound:.1e}, symmetry {worst_sym:.1e}, "
        f"invariance {worst_inv:.1e}, pure overlap {worst_pure:.1e}"
    )


def grad_mismatch(analytic: float, fd: float) -> float:
    """Relative error, or scaled absolute error below the 1e-6 magnitude floor
    (scaled so the 1e-3 bound applies uniformly)."""
    if abs(fd) < 1e-6:
        return abs(analytic - fd) / 1e-6 * 1e-3
    return abs(analytic - fd) / abs(fd)


def fd_vs_analytic(config, theta, rates, noise_true, batch, h: float = 1e-4) -> float:
    """Worst :func:`grad_mismatch` between the analytic gradient of every angle
    and rate and its central difference with step ``h``, for the engine
    :func:`train._run_batch` on ``batch = (features, labels)``."""
    features, labels = batch
    psi = pqc.encode_vectors(features, config.n_qubits)

    def run(theta, rates, want_grads):
        return train._run_batch(psi, labels, theta, rates, config, noise_true, want_grads)

    got = run(theta, rates, True)
    worst = 0.0
    for i in range(len(theta)):
        for q, a in np.ndindex(theta[i].shape):
            tp = [t.copy() for t in theta]
            tm = [t.copy() for t in theta]
            tp[i][q, a] += h
            tm[i][q, a] -= h
            fd = (run(tp, rates, False).total - run(tm, rates, False).total) / (2 * h)
            worst = max(worst, grad_mismatch(got.grad_theta[i][q, a], fd))
        for g in range(rates.shape[1]):
            rp = rates.copy()
            rm = rates.copy()
            rp[i, g] += h
            rm[i, g] -= h
            fd = (run(theta, rp, False).total - run(theta, rm, False).total) / (2 * h)
            worst = max(worst, grad_mismatch(got.grad_rates[i, g], fd))
    return worst


def gradient_contract(seed: int, configs: int) -> str:
    """07: every angle and rate gradient matches its central difference
    (h = 1e-4) within 1e-3 on 4-qubit, 4-layer configs cycling through the
    modes, designs and step sizes; config ``k`` is drawn from ``seed + k``."""
    start = time.perf_counter()
    worst = 0.0
    for trial in range(configs):
        rng = np.random.default_rng(seed + trial)
        design = ("RX", "U2", "U3")[trial % 3]
        config = train.TrainConfig(
            n_qubits=4, layers=4, design=design, step_size=(1, 2, 4)[(trial // 2) % 3],
            mode=("loss_only", "cascaded")[trial % 2], num_classes=4, batch_size=2,
            seed=seed + trial,
        )
        theta = _random_theta(4, 4, design, rng, scale=1.0)
        noise_true = noise.draw_noise_models(4, 4, seed=seed + trial + 1)
        rates = rng.uniform(0.0, 0.03, (4, 12))
        batch = (rng.uniform(0, 1, (2, 64)), rng.integers(0, 4, 2))
        worst = max(worst, fd_vs_analytic(config, theta, rates, noise_true, batch, h=1e-4))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3, f"gradient mismatch {worst:.3e}"
    assert elapsed < 300.0, f"{configs} configs took {elapsed:.0f}s"
    return f"worst rel error {worst:.2e} over {configs} configs in {elapsed:.0f}s"


def rate_identifiability(seed: int, states: int) -> str:
    """08: rates trained for 200 steps on the forward-backward loss alone
    recover the true rates within 20% each."""
    worst = train.recover_rates_report(seed=seed, states=states, steps=200)["max_rel_err"]
    assert worst <= 0.2, f"rate recovery off by {worst:.4f} (> 0.2)"
    return f"max per-rate rel error {worst:.4f} after 200 steps"


def determinism(seed: int, train_cap: int) -> str:
    """12: two ``qmit train`` runs of one synthetic-4 config (2 repeats of 2
    epochs, ``train_cap`` training and half as many test samples) write
    byte-identical ``metrics.csv`` files."""
    payload = {
        "benchmark": "synthetic-4",
        "train_cap": train_cap,
        "test_cap": train_cap // 2,
        "separation": 6.0,
        "repeats": 2,
        "layers": 2,
        "epochs": 2,
        "batch_size": 16,
        "seed": seed,
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        runs = []
        for name in ("a", "b"):
            out = os.path.join(tmp, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["train", "--config", cfg_path, "--out", out])
            assert code == 0, f"qmit train exited {code}"
            with open(os.path.join(out, "metrics.csv"), "rb") as fh:
                runs.append(fh.read())
    assert runs[0] == runs[1], "two identical runs wrote different metrics.csv"
    return f"metrics.csv byte-identical ({len(runs[0])} bytes)"


# The release seeds at reduced sizes (tests/test_acceptance.py has the full ones).
CHECKS = [
    ("01 channel-inversion", lambda: channel_inversion(seed=101, pairs=50)),
    ("02 overhead-dual-form", lambda: overhead_dual_form(seed=102, models=100)),
    ("03 noise-free-invariance", lambda: noise_free_invariance(seed=103, circuits=5)),
    ("04 noisy-divergence-trace", lambda: noisy_divergence_trace(seed=104, operations=150)),
    ("05 perfect-mitigation", lambda: perfect_mitigation(seed=105, circuits=10)),
    ("06 fidelity-suite", lambda: fidelity_suite(seed=106, pairs=100)),
    ("07 gradient-contract", lambda: gradient_contract(seed=700, configs=3)),
    ("08 rate-identifiability", lambda: rate_identifiability(seed=800, states=16)),
    ("12 determinism", lambda: determinism(seed=11, train_cap=32)),
]


def run_all(stream=None) -> int:
    """Run every check; print a pass/fail table; return 0 iff all pass."""
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
