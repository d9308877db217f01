"""Joint training of circuit angles and mitigation rates.

The forward pass propagates a batch of encoded states through the noisy
(or inline-mitigated) layer chain, computes the block forward-backward
losses and the softmax task loss, and the backward pass pushes adjoint
matrices through the same graph: conjugations, the Pauli channels and
their inverses (one kernel in :mod:`qmit.noise`, with closed-form rate
derivatives), and the conditioned fidelity head.  Gradients are exact
derivatives of the implemented loss; the test suite holds every component
to a central finite-difference oracle.

Optimizer: SGD with momentum; mitigation rates are projected to ``>= 0``
after every step.  A single seeded RNG stream per training run is consumed
in a documented order: parameter initialization first, then one shuffle per
epoch.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, TrainingError, ValidationError
from .losses import LossWeights, _fb_pair_backward, fb_blocks, softmax_head
from .noise import (
    MitigationModel,
    NoiseModel,
    apply_pauli_fidelities,
    default_generators,
    load_noise_layers,
    pauli_rate_gradient,
)
from .pqc import (
    DESIGN_AXES,
    CircuitSpec,
    EncoderSpec,
    LayerSpec,
    angle_gradients,
    build_layer_unitary,
    encode_vectors,
    layer_chain,
    layer_factors,
    pure_states,
    z_expectations,
    z_sign_table,
)

NOISE_SEED_STREAM = 0xA11CE  # noise rates come from (seed, this tag), fixed across repeats
DIVERGENCE_ABORT = 1e4


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    n_qubits: int = 4
    layers: int = 4
    design: str = "U2"
    step_size: int = 1
    mode: str = "loss_only"
    alpha_fb: float = 1.0
    alpha_task: float = 1.0
    num_classes: int = 4
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    rate_lr_scale: float = 1.0
    seed: int = 0
    noise_source: str = "seeded"
    noise_low: float = 0.002
    noise_high: float = 0.02
    noise_path: str | None = None

    def __post_init__(self):
        if self.design not in DESIGN_AXES:
            raise ConfigError(f"unknown design {self.design!r}")
        if self.mode not in ("loss_only", "cascaded"):
            raise ConfigError(f"unknown execution mode {self.mode!r}")
        if self.layers < 1:
            raise ConfigError("layer count must be >= 1")
        if self.step_size not in (1, 2, 4):
            raise ConfigError(f"step size must be 1, 2 or 4, got {self.step_size}")
        if self.layers % self.step_size != 0:
            raise ConfigError(
                f"step size {self.step_size} does not divide layer count {self.layers}"
            )
        if not 1 <= self.n_qubits <= 10:
            raise ConfigError(f"qubit count {self.n_qubits} out of range")
        if not 2 <= self.num_classes <= self.n_qubits:
            raise ConfigError(
                f"class count {self.num_classes} must be in [2, n_qubits={self.n_qubits}]"
            )
        if self.learning_rate < 0.0:
            raise ConfigError("learning rate must be nonnegative")
        if self.rate_lr_scale < 0.0:
            raise ConfigError("rate learning-rate scale must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epoch count must be >= 1")
        if self.noise_source not in ("seeded", "file"):
            raise ConfigError(f"noise source must be 'seeded' or 'file', got {self.noise_source!r}")
        if self.noise_source == "file" and not self.noise_path:
            raise ConfigError("noise source 'file' requires noise_path")
        if not 0.0 <= self.noise_low <= self.noise_high:
            raise ConfigError(f"invalid noise range [{self.noise_low}, {self.noise_high}]")
        self.weights  # validates the pair

    @property
    def weights(self) -> LossWeights:
        return LossWeights(self.alpha_fb, self.alpha_task)

    @property
    def theta_shape(self) -> tuple[int, int]:
        return (self.n_qubits, len(DESIGN_AXES[self.design]))


@dataclass
class TrainState:
    """Learnable parameters plus optimizer and RNG state."""

    theta: list[np.ndarray]
    rates: np.ndarray
    vel_theta: list[np.ndarray]
    vel_rates: np.ndarray
    epoch: int
    rng: np.random.Generator
    generators: tuple

    def snapshot(self) -> dict:
        return {
            "theta": [t.copy() for t in self.theta],
            "rates": self.rates.copy(),
            "epoch": self.epoch,
        }


def noise_models_from_config(config: TrainConfig) -> list[NoiseModel]:
    """Per-layer true noise: seeded synthetic calibration or a JSON file."""
    if config.noise_source == "file":
        models = load_noise_layers(config.noise_path)
        if len(models) != config.layers:
            raise ConfigError(
                f"noise file has {len(models)} layers, config wants {config.layers}"
            )
        return models
    from .noise import draw_noise_models

    return draw_noise_models(
        config.n_qubits,
        config.layers,
        seed=[config.seed, NOISE_SEED_STREAM],
        low=config.noise_low,
        high=config.noise_high,
    )


def init_state(config: TrainConfig) -> TrainState:
    """Angles uniform in [-0.1, 0.1]; rates start at zero (identity mitigation)."""
    rng = np.random.default_rng(config.seed)
    n, p = config.theta_shape
    theta = [rng.uniform(-0.1, 0.1, size=(n, p)) for _ in range(config.layers)]
    gens = default_generators(config.n_qubits)
    rates = np.zeros((config.layers, len(gens)))
    return TrainState(
        theta=theta,
        rates=rates,
        vel_theta=[np.zeros((n, p)) for _ in range(config.layers)],
        vel_rates=np.zeros_like(rates),
        epoch=0,
        rng=rng,
        generators=gens,
    )


def circuit_from_theta(theta: list[np.ndarray], config: TrainConfig) -> CircuitSpec:
    layers = [LayerSpec(config.design, config.n_qubits, t) for t in theta]
    return CircuitSpec(config.n_qubits, EncoderSpec(config.n_qubits), layers)


def encode_dataset(dataset: Dataset, n: int) -> np.ndarray:
    """Precompute the encoded pure state vectors of every sample, shape (N, d)."""
    return encode_vectors(dataset.features, EncoderSpec(n))


# ---------------------------------------------------------------------------
# Gradient engine
# ---------------------------------------------------------------------------


def _inverse_stack_backward(g, y, rate_row, generators, grad_row):
    """Adjoint of the inverse stack whose output was ``y``; accumulates the
    closed-form rate derivatives ``Re tr(g (y - P_k y P_k))`` into ``grad_row``."""
    grad_row += pauli_rate_gradient(g, y, generators)
    return apply_pauli_fidelities(g, generators, rate_row, inverse=True)


def _stacked_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_b x_b @ y_b`` over a stack ``(batch, d, d)`` as one GEMM whose
    inner dimension is ``batch * d``."""
    d = x.shape[-1]
    return np.ascontiguousarray(np.swapaxes(x, 0, 1)).reshape(d, -1) @ y.reshape(-1, d)


def _theta_grad_forward_conj(g_out, x_in, factors, axes, out):
    """Contribution of ``y = U x U^dagger`` to every angle of the layer:
    ``2 Re tr(dU K)`` with ``K = sum_b x_b h_b``, ``h = U^dagger g_out``.

    Returns ``h``: the gradient w.r.t. ``x`` is ``h U``."""
    u, upto, after = factors
    h = u.conj().T @ g_out
    out += angle_gradients(_stacked_product(x_in, h), upto, after, axes)
    return h


def _theta_grad_backward_conj(g_in, x_in, factors, axes, out):
    """Contribution of the pullback ``y = U^dagger x U`` from ``g_in``, the
    gradient w.r.t. its input ``x`` (``U g_y U^dagger``): the same
    contraction with ``K = A^dagger``, ``A = sum_b x_b U g_y,b = (sum_b
    x_b g_in,b) U``."""
    u, upto, after = factors
    a = _stacked_product(x_in, g_in) @ u
    out += angle_gradients(a.conj().T, upto, after, axes)


@dataclass
class BatchResult:
    """Loss terms, gradients and diagnostics of one batch pass."""

    total: float
    fb: float
    task: float
    grad_theta: list[np.ndarray] | None
    grad_rates: np.ndarray | None
    predictions: np.ndarray
    clamped_mass: float


def _run_batch(
    rho0: np.ndarray,
    labels: np.ndarray,
    theta: list[np.ndarray],
    rates: np.ndarray,
    config: TrainConfig,
    noise_true: list[NoiseModel],
    generators,
    want_grads: bool,
) -> BatchResult:
    """One forward (and with ``want_grads`` backward) pass over a batch.

    ``rho0`` holds the input states: density matrices ``(batch, d, d)``, or
    pure state vectors ``(batch, d)`` such as :func:`encode_dataset`
    returns, whose block-0 target spectrum is then closed form.
    """
    depth = config.layers
    step = config.step_size
    num_blocks = depth // step
    batch = rho0.shape[0]
    n = config.n_qubits
    c = config.num_classes
    cascaded = config.mode == "cascaded"
    psi0 = rho0 if rho0.ndim == 2 else None
    if psi0 is not None:
        rho0 = pure_states(psi0)

    axes = DESIGN_AXES[config.design]
    factors = [layer_factors(LayerSpec(config.design, n, theta[i])) for i in range(depth)]
    units = [f[0] for f in factors]

    chain = layer_chain(rho0, units, noise_true, rates if cascaded else None, generators)
    blocks = fb_blocks(chain, units, step, None if cascaded else rates, generators, psi0)
    fb_per_sample = np.zeros(batch)
    clamped = 0.0
    for *_, loss_vec, fid_cache in blocks:
        fb_per_sample += loss_vec / num_blocks
        clamped += fid_cache["neg_mass"]

    # The readout state: in loss_only mode the last block's first pullback
    # step has already applied the last inverse stack to chain[depth].
    rho_hat_final = chain[depth] if cascaded else blocks[-1][2][0][1]
    probs = softmax_head(z_expectations(rho_hat_final), c)
    ce_per_sample = -np.log(probs[np.arange(batch), labels])
    predictions = np.argmax(probs, axis=1)

    fb_mean = float(fb_per_sample.mean())
    task_mean = float(ce_per_sample.mean())
    total = config.alpha_fb * fb_mean + config.alpha_task * task_mean

    if not want_grads:
        return BatchResult(total, fb_mean, task_mean, None, None, predictions, clamped)

    grad_theta = [np.zeros((n, len(axes))) for _ in range(depth)]
    grad_rates = np.zeros_like(rates)
    g_readout = None
    # g_chain[0], the gradient w.r.t. the encoded input, is never formed.
    g_chain = [None] + [np.zeros_like(rho0) for _ in range(depth)]

    # Task head adjoint.
    if config.alpha_task != 0.0:
        g_logits = probs.copy()
        g_logits[np.arange(batch), labels] -= 1.0
        g_logits *= config.alpha_task / batch
        diag_vals = g_logits @ z_sign_table(n)[:c]  # (batch, dim)
        g_task = np.zeros_like(rho0)
        idx = np.arange(rho0.shape[-1])
        g_task[:, idx, idx] = diag_vals.astype(complex)
        if cascaded:
            g_chain[depth] += g_task
        else:
            # Pending: it shares the last inverse stack's adjoint with the
            # last block, which adds it before the one backward call.
            g_readout = g_task

    # Block adjoints.
    if config.alpha_fb != 0.0:
        g_loss = np.full(batch, config.alpha_fb / (num_blocks * batch))
        for start, end, layer_caches, _loss_vec, fid_cache in blocks:
            # g is the gradient w.r.t. the input of layer start's conjugation,
            # which the fidelity head absorbed.
            g_target, g = _fb_pair_backward(fid_cache, g_loss, with_target=start > 0)
            if start > 0:
                g_chain[start] += g_target
            for j, conj_input in reversed(layer_caches):
                if j > start:
                    g = units[j] @ g @ units[j].conj().T
                _theta_grad_backward_conj(g, conj_input, factors[j], axes, grad_theta[j])
                if not cascaded:
                    if j == depth - 1 and g_readout is not None:
                        g, g_readout = g + g_readout, None
                    g = _inverse_stack_backward(
                        g, conj_input, rates[j], generators, grad_rates[j]
                    )
            g_chain[end] += g
    if g_readout is not None:
        g_chain[depth] += _inverse_stack_backward(
            g_readout, rho_hat_final, rates[-1], generators, grad_rates[-1]
        )

    # Chain adjoint.
    for i in range(depth - 1, -1, -1):
        g = g_chain[i + 1]
        if cascaded:
            g = _inverse_stack_backward(g, chain[i + 1], rates[i], generators, grad_rates[i])
        # Real fidelities in the Pauli basis: the channel is its own adjoint.
        g = apply_pauli_fidelities(g, noise_true[i].generators, noise_true[i].rates)
        h = _theta_grad_forward_conj(g, chain[i], factors[i], axes, grad_theta[i])
        if i > 0:
            g_chain[i] += h @ units[i]

    return BatchResult(total, fb_mean, task_mean, grad_theta, grad_rates, predictions, clamped)


# ---------------------------------------------------------------------------
# Public training API
# ---------------------------------------------------------------------------


def _batch_pass(
    batch, circuit: CircuitSpec, mitigation: MitigationModel, noise_true, config: TrainConfig,
    want_grads: bool,
) -> BatchResult:
    """Validate, encode ``batch = (features, labels)`` and run the engine on it."""
    if circuit.depth != config.layers or circuit.n != config.n_qubits:
        raise ValidationError("circuit shape does not match the config")
    if any(layer.design != config.design for layer in circuit.layers):
        raise ValidationError("circuit layer design does not match the config")
    if len(noise_true) != config.layers:
        raise ValidationError("need one true-noise model per layer")
    if mitigation.layers != config.layers:
        raise ValidationError("mitigation model layer count does not match the config")
    if not (isinstance(batch, tuple) and len(batch) == 2):
        raise ValidationError("batch must be a (features, labels) tuple")
    features, labels = batch
    return _run_batch(
        encode_vectors(features, circuit.encoder),
        np.asarray(labels, dtype=np.int64),
        [layer.theta for layer in circuit.layers],
        mitigation.rates,
        config,
        noise_true,
        mitigation.generators,
        want_grads,
    )


def loss_and_gradients(
    batch,
    circuit: CircuitSpec,
    mitigation: MitigationModel,
    noise_true: list[NoiseModel],
    config: TrainConfig,
) -> BatchResult:
    """Mean loss of ``batch = (features, labels)`` and exact gradients for
    every angle and rate."""
    result = _batch_pass(batch, circuit, mitigation, noise_true, config, True)
    if not np.isfinite(result.total):
        raise TrainingError(
            f"non-finite loss: total={result.total} fb={result.fb} task={result.task}"
        )
    return result


def batch_loss(
    batch,
    circuit: CircuitSpec,
    mitigation: MitigationModel,
    noise_true: list[NoiseModel],
    config: TrainConfig,
) -> float:
    """Loss only of ``batch = (features, labels)``; the evaluation path used
    by finite-difference oracles."""
    return _batch_pass(batch, circuit, mitigation, noise_true, config, False).total


@dataclass
class EpochMetrics:
    epoch: int
    fb: float
    task: float
    train_accuracy: float
    clamped_mass: float


def train_epoch(
    state: TrainState,
    dataset: Dataset,
    config: TrainConfig,
    noise_true: list[NoiseModel] | None = None,
    encoded: np.ndarray | None = None,
) -> EpochMetrics:
    """One shuffled pass of SGD with momentum; rates projected to >= 0.

    ``encoded`` holds the :func:`encode_dataset` state vectors of ``dataset``.
    """
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    if noise_true is None:
        noise_true = noise_models_from_config(config)
    if encoded is None:
        encoded = encode_dataset(dataset, config.n_qubits)
    order = state.rng.permutation(len(dataset))
    lr = config.learning_rate
    mom = config.momentum

    fb_sum = task_sum = clamp_sum = 0.0
    correct = 0
    for lo in range(0, len(order), config.batch_size):
        sel = order[lo : lo + config.batch_size]
        result = _run_batch(
            encoded[sel],
            dataset.labels[sel],
            state.theta,
            state.rates,
            config,
            noise_true,
            state.generators,
            True,
        )
        if not np.isfinite(result.total) or result.total > DIVERGENCE_ABORT:
            raise TrainingError(
                f"training diverged at epoch {state.epoch}, batch offset {lo}: "
                f"total={result.total:.6g} fb={result.fb:.6g} task={result.task:.6g}, "
                f"max|theta|={max(float(np.max(np.abs(t))) for t in state.theta):.3g}, "
                f"max rate={float(np.max(state.rates)):.3g}"
            )
        weight = sel.size
        fb_sum += result.fb * weight
        task_sum += result.task * weight
        clamp_sum += result.clamped_mass
        correct += int(np.sum(result.predictions == dataset.labels[sel]))

        for i in range(config.layers):
            state.vel_theta[i] = mom * state.vel_theta[i] - lr * result.grad_theta[i]
            state.theta[i] = state.theta[i] + state.vel_theta[i]
        # Rates live on a much smaller scale than angles; the multiplier lets
        # one optimizer serve both parameter groups.
        state.vel_rates = mom * state.vel_rates - lr * config.rate_lr_scale * result.grad_rates
        state.rates = np.maximum(state.rates + state.vel_rates, 0.0)

    state.epoch += 1
    size = len(dataset)
    return EpochMetrics(
        epoch=state.epoch,
        fb=fb_sum / size,
        task=task_sum / size,
        train_accuracy=correct / size,
        clamped_mass=clamp_sum / size,
    )


@dataclass
class EvalResult:
    accuracy: float
    per_class_correct: np.ndarray
    per_class_total: np.ndarray


def evaluate(
    state: TrainState,
    dataset: Dataset,
    config: TrainConfig,
    noise_true: list[NoiseModel] | None = None,
    encoded: np.ndarray | None = None,
    chunk: int = 256,
) -> EvalResult:
    """Deterministic argmax accuracy of the mitigated readout; ``encoded``
    holds the :func:`encode_dataset` state vectors of ``dataset``."""
    rates = np.maximum(state.rates, 0.0)
    generators = state.generators
    if noise_true is None:
        noise_true = noise_models_from_config(config)
    if encoded is None:
        encoded = encode_dataset(dataset, config.n_qubits)
    units = [
        build_layer_unitary(LayerSpec(config.design, config.n_qubits, t)).data for t in state.theta
    ]
    c = config.num_classes
    correct = np.zeros(c, dtype=np.int64)
    total = np.zeros(c, dtype=np.int64)
    cascaded_rates = rates if config.mode == "cascaded" else None
    for lo in range(0, len(dataset), chunk):
        sel = slice(lo, lo + chunk)
        rho0 = pure_states(encoded[sel])
        chain = layer_chain(rho0, units, noise_true, cascaded_rates, generators)
        rho_hat = chain[-1]
        if config.mode == "loss_only":
            rho_hat = apply_pauli_fidelities(rho_hat, generators, rates[-1], inverse=True)
        probs = softmax_head(z_expectations(rho_hat), c)
        predictions = np.argmax(probs, axis=1)
        labels = dataset.labels[sel]
        for k in range(c):
            mask = labels == k
            total[k] += int(mask.sum())
            correct[k] += int(np.sum(predictions[mask] == k))
    return EvalResult(float(correct.sum() / max(total.sum(), 1)), correct, total)


def recover_rates(
    config: TrainConfig,
    theta: list[np.ndarray],
    noise_true: list[NoiseModel],
    rho0_batch: np.ndarray,
    steps: int = 200,
    lr: float = 2.0,
    momentum: float = 0.9,
) -> np.ndarray:
    """Fit mitigation rates alone on the forward-backward loss.

    Angles stay frozen; the task term is switched off.  Because the inverse
    channel is the exact inverse of the forward channel, the loss has its
    global minimum at the true rates, making this an identifiability probe.
    ``rho0_batch`` takes either input form of :func:`_run_batch`.
    """
    fb_cfg = replace(config, alpha_fb=1.0, alpha_task=0.0)
    generators = default_generators(config.n_qubits)
    rates = np.zeros((config.layers, len(generators)))
    vel = np.zeros_like(rates)
    labels = np.zeros(rho0_batch.shape[0], dtype=np.int64)
    for _ in range(steps):
        result = _run_batch(
            rho0_batch, labels, theta, rates, fb_cfg, noise_true, generators, True
        )
        vel = momentum * vel - lr * result.grad_rates
        rates = np.maximum(rates + vel, 0.0)
    return rates


def recover_rates_report(
    seed: int = 0, states: int = 64, steps: int = 200, lr: float = 2.0
) -> dict:
    """Run the rate-identifiability probe on random encoded states."""
    config = TrainConfig(n_qubits=4, layers=4, design="U2", step_size=1, num_classes=2, seed=seed)
    rng = np.random.default_rng(seed)
    theta = [rng.uniform(-math.pi, math.pi, size=config.theta_shape) for _ in range(config.layers)]
    noise_true = noise_models_from_config(config)
    rho0 = encode_vectors(rng.uniform(0.0, 1.0, (states, 64)), EncoderSpec(config.n_qubits))
    fitted = recover_rates(config, theta, noise_true, rho0, steps=steps, lr=lr)
    truth = np.stack([m.rates for m in noise_true])
    rel_err = np.abs(fitted - truth) / truth
    return {
        "fitted": fitted,
        "truth": truth,
        "rel_err": rel_err,
        "max_rel_err": float(rel_err.max()),
    }


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    per_seed_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float
    metrics_rows: list[dict]
    checkpoints: list[dict]


def _run_single_repeat(config: TrainConfig, repeat: int, train_set, test_set, noise_true,
                       encoded_train, encoded_test) -> tuple[list[dict], dict, float]:
    cfg_r = replace(config, seed=config.seed + repeat)
    state = init_state(cfg_r)
    rows = []
    best_acc = -1.0
    best_snapshot = state.snapshot()
    for _ in range(config.epochs):
        metrics = train_epoch(state, train_set, cfg_r, noise_true, encoded_train)
        val = evaluate(state, test_set, cfg_r, noise_true, encoded_test).accuracy
        rows.append(
            {
                "repeat": repeat,
                "epoch": metrics.epoch,
                "fb_loss": metrics.fb,
                "task_loss": metrics.task,
                "train_acc": metrics.train_accuracy,
                "val_acc": val,
                "clamped_mass": metrics.clamped_mass,
            }
        )
        if val > best_acc:
            best_acc = val
            best_snapshot = state.snapshot()
    checkpoint = checkpoint_payload(best_snapshot, cfg_r, state.generators)
    return rows, checkpoint, best_acc


def run_experiment(
    config: TrainConfig,
    train_set: Dataset,
    test_set: Dataset,
    repeats: int = 1,
) -> ExperimentResult:
    """Train ``repeats`` times with seeds ``seed + r``; report mean and std.

    The true noise is drawn once from the base seed (a fixed simulated
    device); repeats vary initialization and shuffling only.  The reported
    accuracy per repeat is the best-epoch validation accuracy.
    """
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    noise_true = noise_models_from_config(config)
    encoded_train = encode_dataset(train_set, config.n_qubits)
    encoded_test = encode_dataset(test_set, config.n_qubits)

    workers_env = os.environ.get("QMIT_THREADS", "1")
    try:
        workers = int(workers_env)
    except ValueError as exc:
        raise ConfigError(f"QMIT_THREADS must be an integer, got {workers_env!r}") from exc
    if workers == 0:
        workers = min(repeats, os.cpu_count() or 1)
    workers = max(1, min(workers, repeats))

    def job(r: int):
        return _run_single_repeat(
            config, r, train_set, test_set, noise_true, encoded_train, encoded_test
        )

    if workers == 1:
        outcomes = [job(r) for r in range(repeats)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, range(repeats)))

    rows = [row for out in outcomes for row in out[0]]
    checkpoints = [out[1] for out in outcomes]
    accs = [out[2] for out in outcomes]
    mean = float(np.mean(accs))
    std = 0.0 if repeats == 1 else float(np.std(accs, ddof=1))
    return ExperimentResult(accs, mean, std, rows, checkpoints)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_payload(snapshot: dict, config: TrainConfig, generators) -> dict:
    from . import __version__

    mitigation = MitigationModel(
        config.n_qubits, generators, np.maximum(snapshot["rates"], 0.0)
    )
    return {
        "version": __version__,
        "config": config_to_json(config),
        "epoch": snapshot["epoch"],
        "theta": [t.tolist() for t in snapshot["theta"]],
        "mitigation": mitigation.to_json(),
        "seed": config.seed,
    }


def save_checkpoint(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_to_json(config: TrainConfig) -> dict:
    return asdict(config)


def config_from_json(payload: dict) -> TrainConfig:
    try:
        return TrainConfig(**payload)
    except TypeError as exc:
        raise ConfigError(f"malformed train config: {exc}") from exc
