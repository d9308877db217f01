"""Joint training of circuit angles and mitigation rates.

The forward pass propagates a batch of encoded state vectors through the
noisy (or inline-mitigated) layer chain, computes the block forward-backward
losses and the softmax task loss, and the backward pass pushes adjoint
matrices through the same graph: conjugations, the Pauli channels and
their inverses (one kernel in :mod:`qmit.noise`, with closed-form rate
derivatives), and the conditioned fidelity head.  Gradients are exact
derivatives of the implemented loss; the test suite holds every component
to a central finite-difference oracle.  A batch runs in chunks whose size
depends only on the qubit count (:func:`chunk_size`), so memory follows the
chunk, not the batch; the chunks may run on threads and are merged in order.

The model is the config plus two arrays, the angles ``(L, n, p)`` (one
per qubit, layer and design axis) and the rates ``(L, 3n)``; their
velocities and gradients have the same shapes.  Optimizer: SGD with
momentum, one expression per array; rates are projected to ``>= 0`` after
every step.  A single seeded RNG stream per training run is consumed in a
documented order: parameter initialization first, then one shuffle per
epoch.

This module opens no file and reads no environment variable: :mod:`qmit.cli`
passes in the true noise and the thread count, and writes the checkpoints.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ConfigError, TrainingError, ValidationError
from .losses import _fb_pair_backward, _fb_pair_forward, _pure_root, softmax_head
from .noise import (
    NoiseModel,
    apply_pauli_fidelities,
    default_models,
    draw_noise_models,
    learned_inverse,
    learned_inverse_adjoint,
    learned_max_log_fidelity,
    learned_z_gains,
    noise_layers_json,
)
from .pqc import (
    DESIGN_AXES,
    EXECUTION_MODES,
    angle_gradients,
    encode_qubits,
    encode_vectors,
    layer_chain,
    layer_rotations,
    layer_unitary,
    mitigated_z_readout,
    z_expectations,
    z_sign_table,
)
from .qsim import MAX_QUBITS

NOISE_SEED_STREAM = 0xA11CE  # noise rates come from (seed, this tag), fixed across repeats
DIVERGENCE_ABORT = 1e4
# The largest exponent whose exp is a finite float64.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# Samples times d**2 per chunk of a batch (see :func:`chunk_size`).  The
# engine peaks at about 11-13 (chunk, d, d) complex stacks (the chain, the
# live part of its adjoint and one forward-backward block), so this caps a
# chunk near 26 MB; the sweep behind it is in CHANGES.md.
CHUNK_ENTRIES = 1 << 17


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
        if self.mode not in EXECUTION_MODES:
            raise ConfigError(f"unknown execution mode {self.mode!r}")
        if self.layers < 1:
            raise ConfigError("layer count must be >= 1")
        if self.step_size not in (1, 2, 4):
            raise ConfigError(f"step size must be 1, 2 or 4, got {self.step_size}")
        if self.layers % self.step_size != 0:
            raise ConfigError(
                f"step size {self.step_size} does not divide layer count {self.layers}"
            )
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(f"qubit count {self.n_qubits} out of range")
        if not 2 <= self.num_classes <= self.n_qubits:
            raise ConfigError(
                f"class count {self.num_classes} must be in [2, n_qubits={self.n_qubits}]"
            )
        for name in ("learning_rate", "rate_lr_scale", "alpha_fb", "alpha_task"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if self.alpha_fb == 0.0 and self.alpha_task == 0.0:
            raise ConfigError("alpha_fb and alpha_task must not both be zero")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epoch count must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.noise_source not in ("seeded", "file"):
            raise ConfigError(f"noise source must be 'seeded' or 'file', got {self.noise_source!r}")
        if (self.noise_source == "file") != bool(self.noise_path):
            raise ConfigError("noise_path is read only with noise source 'file', which requires it")
        if not 0.0 <= self.noise_low <= self.noise_high:
            raise ConfigError(f"invalid noise range [{self.noise_low}, {self.noise_high}]")

    @property
    def theta_shape(self) -> tuple[int, int, int]:
        """``(layers, n_qubits, p)``, ``p`` the design's axis count."""
        return (self.layers, self.n_qubits, len(DESIGN_AXES[self.design]))


@dataclass
class TrainState:
    """The angles (:attr:`TrainConfig.theta_shape`) and the ``(layers, 3n)``
    rates, each beside its velocity, plus the epoch and the RNG."""

    theta: np.ndarray
    rates: np.ndarray
    vel_theta: np.ndarray
    vel_rates: np.ndarray
    epoch: int
    rng: np.random.Generator

    def snapshot(self) -> dict:
        return {
            "theta": self.theta.copy(),
            "rates": self.rates.copy(),
            "epoch": self.epoch,
        }


def noise_models_from_config(config: TrainConfig, file_models=None) -> list[NoiseModel]:
    """Per-layer true noise: the seeded synthetic calibration, or with noise
    source ``"file"`` the noise file's models ``file_models`` (which
    :mod:`qmit.cli` reads); ``ConfigError`` if their layer count or qubit
    count differs from the config's."""
    if config.noise_source == "file":
        if len(file_models) != config.layers:
            raise ConfigError(
                f"noise file has {len(file_models)} layers, config wants {config.layers}"
            )
        for i, model in enumerate(file_models):
            if model.n != config.n_qubits:
                raise ConfigError(
                    f"noise file layer {i} acts on {model.n} qubits, config has {config.n_qubits}"
                )
        return file_models
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
    theta = rng.uniform(-0.1, 0.1, size=config.theta_shape)
    rates = np.zeros((config.layers, 3 * config.n_qubits))
    return TrainState(
        theta=theta,
        rates=rates,
        vel_theta=np.zeros_like(theta),
        vel_rates=np.zeros_like(rates),
        epoch=0,
        rng=rng,
    )


def encode_dataset(dataset: Dataset, n: int) -> np.ndarray:
    """Precompute the encoded pure state vectors of every sample, shape (N, d)."""
    return encode_vectors(dataset.features, n)


# ---------------------------------------------------------------------------
# Gradient engine
# ---------------------------------------------------------------------------


def _stacked_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_b x_b @ y_b`` over a stack ``(batch, d, d)`` as one GEMM whose
    inner dimension is ``batch * d``."""
    d = x.shape[-1]
    return np.ascontiguousarray(np.swapaxes(x, 0, 1)).reshape(d, -1) @ y.reshape(-1, d)


def _theta_grad_forward_conj(g_out, x_in, u, rotations, axes, out):
    """Contribution of ``y = U x U^dagger`` to every angle of the layer with
    unitary ``u`` and :func:`pqc.layer_rotations` ``rotations``:
    ``2 Re tr(dU K)`` with ``K = sum_b x_b h_b``, ``h = U^dagger g_out``.

    Returns ``h``: the gradient w.r.t. ``x`` is ``h U``."""
    h = u.conj().T @ g_out
    out += angle_gradients(_stacked_product(x_in, h) @ u, rotations, axes)
    return h


def _theta_grad_backward_conj(g_in, x_in, u, rotations, axes, out):
    """Contribution of the pullback ``y = U^dagger x U`` from ``g_in``, the
    gradient w.r.t. its input ``x`` (``U g_y U^dagger``): the same
    contraction with ``K = A^dagger``, ``A = sum_b x_b U g_y,b = (sum_b
    x_b g_in,b) U``."""
    a = _stacked_product(x_in, g_in) @ u
    out += angle_gradients(a.conj().T @ u, rotations, axes)


@dataclass
class BatchResult:
    """Loss terms, gradients and diagnostics of one batch pass."""

    total: float
    fb: float
    task: float
    grad_theta: np.ndarray | None
    grad_rates: np.ndarray | None
    predictions: np.ndarray
    clamped_mass: float


def chunk_size(n: int) -> int:
    """Samples :func:`_run_batch` streams through the engine at once at
    ``n`` qubits: ``CHUNK_ENTRIES / d**2``, at least one."""
    return max(1, CHUNK_ENTRIES >> (2 * n))


def _run_batch(
    psi: np.ndarray,
    labels: np.ndarray,
    theta: np.ndarray,
    rates: np.ndarray,
    config: TrainConfig,
    noise_true: list[NoiseModel],
    want_grads: bool,
    chunk_map=map,
) -> BatchResult:
    """One forward (and with ``want_grads`` backward) pass over a batch.

    ``psi`` holds the ``(batch, d)`` encoded state vectors of the inputs
    (:func:`encode_dataset`), ``theta`` the :attr:`TrainConfig.theta_shape`
    angles, whose rotations come from one :func:`pqc.layer_rotations` call,
    ``rates`` the ``(layers, 3n)`` learned rates, ``noise_true`` one model
    per layer, and ``labels`` lie in ``[0, num_classes)``; the gradients
    have the shapes of ``theta`` and ``rates``.  The readout is ``Tr(Z_q
    .)`` of the last chain state; in ``loss_only`` mode, whose chain is not mitigated, times the
    last rate row's :func:`noise.learned_z_gains`.

    The batch runs as consecutive chunks of :func:`chunk_size` samples
    through :func:`_run_chunk`, so peak memory follows the chunk, not the
    batch.  ``chunk_map`` is ``map`` or a thread pool's ordered ``map``;
    chunk results are summed in chunk order either way, so the bits do not
    depend on it.
    """
    depth = config.layers
    n = config.n_qubits
    c = config.num_classes
    if psi.ndim != 2 or psi.shape[1] != 1 << n:
        raise ValidationError(f"inputs must be (batch, {1 << n}) state vectors, got {psi.shape}")
    shapes = (np.shape(theta), np.shape(rates), len(noise_true))
    if shapes != (config.theta_shape, (depth, 3 * n), depth):
        raise ValidationError(
            f"need {config.theta_shape} angles, a {(depth, 3 * n)} rate table and one true-noise "
            f"model per layer, got {shapes[0]}, {shapes[1]} and {shapes[2]}"
        )
    if labels.size and not (0 <= labels.min() and labels.max() < c):
        raise ValidationError(f"labels must lie in [0, {c})")
    batch = psi.shape[0]
    rotations = layer_rotations(config.design, theta)
    units = [layer_unitary(r) for r in rotations]
    size = chunk_size(n)

    def run(lo: int):
        return _run_chunk(psi[lo : lo + size], labels[lo : lo + size], batch, rotations, units,
                          rates, config, noise_true, want_grads)

    fb_parts, ce_parts, predictions = [], [], []
    clamped = 0.0
    grad_theta = grad_rates = None
    for fb, ce, pred, mass, g_theta, g_rates in chunk_map(run, range(0, batch, size)):
        fb_parts.append(fb)
        ce_parts.append(ce)
        predictions.append(pred)
        clamped += mass
        if grad_theta is None:
            grad_theta, grad_rates = g_theta, g_rates
        else:
            grad_theta += g_theta
            grad_rates += g_rates

    fb_mean = float(np.concatenate(fb_parts).mean())
    task_mean = float(np.concatenate(ce_parts).mean())
    total = config.alpha_fb * fb_mean + config.alpha_task * task_mean
    return BatchResult(total, fb_mean, task_mean, grad_theta, grad_rates,
                       np.concatenate(predictions), clamped)


def _run_chunk(psi, labels, batch, rotations, units, rates, config, noise_true, want_grads):
    """:func:`_run_batch` on the samples ``psi``, ``labels`` of a batch of
    ``batch`` samples, with the batch's layer ``rotations`` and ``units``.

    Returns the per-sample forward-backward and cross-entropy losses, the
    predictions, the clamped mass, and (with ``want_grads``, else ``None``)
    the angle and rate gradients of the batch loss restricted to these
    samples: the adjoints are normalised by ``batch``, so the gradients of
    a batch's chunks add up to the batch gradient.

    The blocks run last to first, each with its adjoint, and the chain
    adjoint runs beside them: the adjoint of layer ``end``, the next
    block's first, is formed just before the block and added just after
    it, and the block's interior layers follow.  Each chain state and each
    gradient is freed once read, so the chain's gradient never holds more
    than a block's span, and the task head's gradient stays a diagonal
    until layer ``L - 1`` reads it.  Every sum keeps the order of a pass
    that runs all blocks first: a boundary's gradient is (pullback +
    target) + layer adjoint, and the losses and masses are summed in block
    order.
    """
    depth = config.layers
    step = config.step_size
    num_blocks = depth // step
    n = config.n_qubits
    c = config.num_classes
    size, dim = psi.shape
    cascaded = config.mode == "cascaded"
    axes = DESIGN_AXES[config.design]

    chain = layer_chain(psi, units, noise_true, rates if cascaded else None)
    z = z_expectations(chain[depth])[:, :c]
    gain = np.ones(c) if cascaded else learned_z_gains(rates[-1])[:c]
    probs = softmax_head(z * gain, c)
    ce_per_sample = -np.log(probs[np.arange(size), labels])
    predictions = np.argmax(probs, axis=1)

    g_loss = None
    # g_chain[i], the gradient w.r.t. chain[i], is created by its first term
    # and freed by layer i - 1's adjoint, its last reader; g_chain[0], the
    # gradient w.r.t. the encoded input, is never formed.
    g_chain = [None] * (depth + 1)
    if want_grads:
        grad_theta = np.zeros(config.theta_shape)
        grad_rates = np.zeros_like(rates)
        if config.alpha_fb != 0.0:
            g_loss = np.full(size, config.alpha_fb / (num_blocks * batch))

    def add(i, g):
        """Add the term ``g``, which nothing else holds, to ``g_chain[i]``."""
        if g_chain[i] is None:
            g_chain[i] = g
        else:
            g_chain[i] += g

    # Task head adjoint, before any block's.
    task_diag = None
    if want_grads and config.alpha_task != 0.0:
        g_logits = probs.copy()
        g_logits[np.arange(size), labels] -= 1.0
        g_logits *= config.alpha_task / batch
        if not cascaded:
            # gain_q = exp(2 (lambda_qX + lambda_qY)): d gain_q = 2 gain_q.
            g_gain = 2.0 * gain * np.einsum("bq,bq->q", g_logits, z)
            grad_rates[-1, 0 : 3 * c : 3] += g_gain
            grad_rates[-1, 1 : 3 * c : 3] += g_gain
        # The task term of g_chain[depth] is diagonal: it stays a (size, d)
        # diagonal until layer depth - 1's adjoint reads g_chain[depth].
        task_diag = (g_logits * gain) @ z_sign_table(n)[:c]

    spectrum = None  # chain[end]'s conditioned spectrum, left by the next block

    def run_block(start):
        """Block ``start``: ``chain[end]`` pulled back through layers ``end -
        1`` to ``start`` and compared with its target (``chain[start]`` or, in
        block 0, the input's pure root) by the conditioned ``-log F``, then,
        with gradients, its adjoint into ``g_chain[start]`` and
        ``g_chain[end]``.  In ``loss_only`` mode each pullback first undoes
        the learned noise; ``cascaded`` chains are mitigated inline.  The
        head absorbs layer ``start``'s conjugation and reads ``spectrum`` when
        its input is ``chain[end]`` itself (else drops it first), and leaves
        its target's spectrum there for the block before.  In ``loss_only``
        mode the pullback is the last reader of ``chain[end]``, which the
        block frees.  Returns the loss and the clamped mass; the caches die
        with the call."""
        nonlocal spectrum
        end = start + step
        x, trail = chain[end], []
        for j in range(end - 1, start - 1, -1):
            if not cascaded:
                x = learned_inverse(x, rates[j])
            # In loss_only mode the conjugation's input is also the inverse
            # stack's output, which that stack's adjoint needs.
            trail.append((j, x))
            if j > start:
                x = units[j].conj().T @ x @ units[j]
        if x is not chain[end]:
            spectrum = None
        if not cascaded:
            chain[end] = None
        target = chain[start] if start > 0 else _pure_root(psi)
        loss, fid_cache = _fb_pair_forward(target, x if spectrum is None else spectrum, units[start])
        spectrum = fid_cache["cache_a"]
        mass = fid_cache["neg_mass"]
        if g_loss is None:
            return loss, mass
        # g is the gradient w.r.t. the input of layer start's conjugation,
        # which the fidelity head absorbed.
        g_target, g = _fb_pair_backward(fid_cache, g_loss, with_target=start > 0)
        # The fidelity cache is spent: free it before the pullback's adjoint.
        del fid_cache
        if start > 0:
            add(start, g_target)
        for j, conj_input in reversed(trail):
            if j > start:
                g = units[j] @ g @ units[j].conj().T
            _theta_grad_backward_conj(g, conj_input, units[j], rotations[j], axes, grad_theta[j])
            if not cascaded:
                g, g_rates = learned_inverse_adjoint(g, conj_input, rates[j])
                grad_rates[j] += g_rates
        add(end, g)
        return loss, mass

    def layer_term(i):
        """Layer ``i``'s adjoint: from ``g_chain[i + 1]``, which it frees, the
        term it adds to ``g_chain[i]``, or ``None`` for layer 0, whose input
        is pure and whose adjoint reaches its angles alone.  In ``cascaded``
        mode it is the last reader of ``chain[i + 1]``, its learned inverse's
        output; in ``loss_only`` mode, of its input ``chain[i]`` when no block
        pulls that back.  It frees what it last reads."""
        g, g_chain[i + 1] = g_chain[i + 1], None
        if i + 1 == depth and task_diag is not None:
            # IEEE addition commutes: the blocks' terms plus the diagonal
            # has the bits of the diagonal plus the blocks' terms.
            g = np.zeros((size, dim, dim), complex) if g is None else g
            g[:, np.arange(dim), np.arange(dim)] += task_diag
        if cascaded:
            g, g_rates = learned_inverse_adjoint(g, chain[i + 1], rates[i])
            grad_rates[i] += g_rates
            chain[i + 1] = None
        # Real fidelities in the Pauli basis: the channel is its own adjoint.
        g = apply_pauli_fidelities(g, noise_true[i].generators, noise_true[i].rates)
        if i == 0:
            # Layer 0's input is pure: K = sum_b psi_b (U psi_b)^dagger g_b, no d x d product per sample.
            w = (units[0] @ psi[..., None]).conj().swapaxes(-1, -2) @ g
            grad_theta[0] += angle_gradients((psi.T @ w[:, 0]) @ units[0], rotations[0], axes)
            return None
        h = _theta_grad_forward_conj(g, chain[i], units[i], rotations[i], axes, grad_theta[i])
        del g
        if not cascaded and i % step:
            chain[i] = None
        return h @ units[i]

    # g_chain[end_b + 1] is complete once block b + 1 and its interior layers
    # have run, so layer end_b's term is formed before block b, which then
    # holds it instead of g_chain[end_b + 1] (and, in cascaded mode,
    # chain[end_b + 1]).  It is added after block b's terms, then b's
    # interior layers run.
    per_block = []
    for start in range(depth - step, -1, -step):
        end = start + step
        term = layer_term(end) if want_grads and end < depth else None
        per_block.append(run_block(start))
        if term is not None:
            add(end, term)
        del term  # g_chain[end] holds it now, or the sum with it
        if want_grads:
            for i in range(end - 1, start, -1):
                add(i, layer_term(i))
    fb_per_sample = np.zeros(size)
    clamped = 0.0
    for loss_vec, mass in reversed(per_block):  # summed in block order
        fb_per_sample += loss_vec / num_blocks
        clamped += mass

    if not want_grads:
        return fb_per_sample, ce_per_sample, predictions, clamped, None, None
    layer_term(0)
    return fb_per_sample, ce_per_sample, predictions, clamped, grad_theta, grad_rates


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    fb: float
    task: float
    train_accuracy: float
    clamped_mass: float


def _diverged(state: TrainState, lo: int, detail: str) -> TrainingError:
    """The abort of the step at batch offset ``lo``: ``detail`` and the largest parameters."""
    return TrainingError(
        f"training diverged at epoch {state.epoch}, batch offset {lo}: {detail}, "
        f"max|theta|={np.max(np.abs(state.theta)):.3g}, max rate={np.max(state.rates):.3g}"
    )


def train_epoch(
    state: TrainState,
    dataset: Dataset,
    config: TrainConfig,
    noise_true: list[NoiseModel],
    encoded: np.ndarray,
    chunk_map=map,
) -> EpochMetrics:
    """One shuffled pass of SGD with momentum; rates projected to >= 0.

    ``noise_true`` is the per-layer true noise, ``encoded`` holds the
    :func:`encode_dataset` state vectors of ``dataset`` and ``chunk_map``
    runs each batch's chunks (see :func:`_run_batch`).  A batch whose loss
    is not finite or exceeds :data:`DIVERGENCE_ABORT`, or whose step leaves
    non-finite parameters or rates whose learned inverses can scale a Pauli
    string past the float64 range (:func:`learned_max_log_fidelity`),
    raises ``TrainingError`` naming that batch's offset.
    """
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    order = state.rng.permutation(len(dataset))
    lr = config.learning_rate
    mom = config.momentum

    fb_sum = task_sum = clamp_sum = 0.0
    correct = 0
    for lo in range(0, len(order), config.batch_size):
        sel = order[lo : lo + config.batch_size]
        try:
            result = _run_batch(
                encoded[sel], dataset.labels[sel], state.theta, state.rates, config, noise_true,
                True, chunk_map,
            )
        except np.linalg.LinAlgError as exc:
            # Parameters that blew up leave non-finite states, which eigh rejects.
            raise _diverged(state, lo, str(exc)) from exc
        if not np.isfinite(result.total) or result.total > DIVERGENCE_ABORT:
            raise _diverged(
                state, lo, f"total={result.total:.6g} fb={result.fb:.6g} task={result.task:.6g}"
            )
        weight = sel.size
        fb_sum += result.fb * weight
        task_sum += result.task * weight
        clamp_sum += result.clamped_mass
        correct += int(np.sum(result.predictions == dataset.labels[sel]))

        # A step that overflows is reported by the check below, not by a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            state.vel_theta = mom * state.vel_theta - lr * result.grad_theta
            state.theta = state.theta + state.vel_theta
            # Rates live on a much smaller scale than angles; the multiplier
            # lets one optimizer serve both parameter groups.
            state.vel_rates = mom * state.vel_rates - lr * config.rate_lr_scale * result.grad_rates
            state.rates = np.maximum(state.rates + state.vel_rates, 0.0)
        if not (np.all(np.isfinite(state.theta)) and np.all(np.isfinite(state.rates))):
            raise _diverged(state, lo, "the step left non-finite parameters")
        # Caught here, before the next forward overflows in exp.
        log_gain = learned_max_log_fidelity(state.rates)
        if log_gain >= _LOG_FLOAT_MAX:
            raise _diverged(
                state, lo, f"the learned inverse can scale a Pauli string by exp({log_gain:.6g})"
            )

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
    noise_true: list[NoiseModel],
    encoded: np.ndarray,
) -> EvalResult:
    """Deterministic argmax accuracy of the readout :func:`_run_batch`
    trains, computed in the Heisenberg picture by
    :func:`pqc.mitigated_z_readout`; ``noise_true`` is the per-layer true
    noise and ``encoded`` holds the :func:`pqc.encode_qubits` states of
    ``dataset``, shape ``(N, n, 2)``.  Raises ``ValidationError`` unless
    ``encoded`` has one row per sample and the labels lie in
    ``[0, num_classes)``."""
    c = config.num_classes
    labels = dataset.labels
    if len(encoded) != len(labels):
        raise ValidationError(f"encoded holds {len(encoded)} samples, the dataset {len(labels)}")
    if labels.size and not (0 <= labels.min() and labels.max() < c):
        raise ValidationError(f"labels must lie in [0, {c})")
    cascaded = config.mode == "cascaded"
    rotations = layer_rotations(config.design, state.theta)
    rates = np.maximum(state.rates, 0.0)
    logits = mitigated_z_readout(encoded, rotations, noise_true, rates if cascaded else None, c)
    if not cascaded:
        logits *= learned_z_gains(rates[-1])[:c]
    predictions = np.argmax(softmax_head(logits, c), axis=1)
    total = np.bincount(labels, minlength=c)
    correct = np.bincount(labels[predictions == labels], minlength=c)
    return EvalResult(float(correct.sum() / max(total.sum(), 1)), correct, total)


def recover_rates(
    config: TrainConfig,
    theta: np.ndarray,
    noise_true: list[NoiseModel],
    psi: np.ndarray,
    steps: int = 200,
    lr: float = 2.0,
    momentum: float = 0.9,
) -> np.ndarray:
    """Fit mitigation rates alone on the forward-backward loss.

    The angles ``theta`` (shape :attr:`TrainConfig.theta_shape`) stay
    frozen; the task term is switched off.  Because the inverse
    channel is the exact inverse of the forward channel, the loss has its
    global minimum at the true rates, making this an identifiability probe.
    ``psi`` holds the ``(batch, d)`` encoded state vectors of the inputs.
    """
    fb_cfg = replace(config, alpha_fb=1.0, alpha_task=0.0)
    rates = np.zeros((config.layers, 3 * config.n_qubits))
    vel = np.zeros_like(rates)
    labels = np.zeros(psi.shape[0], dtype=np.int64)
    for _ in range(steps):
        result = _run_batch(psi, labels, theta, rates, fb_cfg, noise_true, True)
        vel = momentum * vel - lr * result.grad_rates
        rates = np.maximum(rates + vel, 0.0)
    return rates


def recover_rates_report(
    seed: int = 0, states: int = 64, steps: int = 200, lr: float = 2.0
) -> dict:
    """Run the rate-identifiability probe on random encoded states."""
    config = TrainConfig(n_qubits=4, layers=4, design="U2", step_size=1, num_classes=2, seed=seed)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=config.theta_shape)
    noise_true = noise_models_from_config(config)
    psi = encode_vectors(rng.uniform(0.0, 1.0, (states, 64)), config.n_qubits)
    fitted = recover_rates(config, theta, noise_true, psi, steps=steps, lr=lr)
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
                       encoded_train, encoded_test, chunk_map) -> tuple[list[dict], dict, float]:
    cfg_r = replace(config, seed=config.seed + repeat)
    state = init_state(cfg_r)
    rows = []
    best_acc = -1.0
    best_snapshot = state.snapshot()
    for _ in range(config.epochs):
        metrics = train_epoch(state, train_set, cfg_r, noise_true, encoded_train, chunk_map)
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
    checkpoint = checkpoint_payload(best_snapshot, cfg_r)
    return rows, checkpoint, best_acc


@contextmanager
def _thread_map(workers: int):
    """An ordered ``map`` over ``workers`` threads; the builtin for one."""
    if workers == 1:
        yield map
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield pool.map


def run_experiment(
    config: TrainConfig,
    train_set: Dataset,
    test_set: Dataset,
    noise_true: list[NoiseModel],
    repeats: int = 1,
    workers: int = 1,
) -> ExperimentResult:
    """Train ``repeats`` times with seeds ``seed + r``; report mean and std.

    Every repeat runs on the true noise ``noise_true`` (one fixed simulated
    device); repeats vary initialization and shuffling only.  The reported
    accuracy per repeat is the best-epoch validation accuracy.

    The ``workers`` threads ``W`` (``QMIT_THREADS``, which :mod:`qmit.cli`
    resolves once per command) split by a fixed rule:
    ``min(W, repeats)`` repeats run at once, each running its batches'
    chunks on ``W // min(W, repeats)`` threads.  Results are merged
    in repeat and chunk order, so they do not depend on ``W``.
    """
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    repeat_workers = min(workers, repeats)
    chunk_workers = workers // repeat_workers
    encoded_train = encode_dataset(train_set, config.n_qubits)
    encoded_test = encode_qubits(test_set.features, config.n_qubits)

    def job(r: int):
        with _thread_map(chunk_workers) as chunk_map:
            return _run_single_repeat(
                config, r, train_set, test_set, noise_true, encoded_train, encoded_test, chunk_map
            )

    with _thread_map(repeat_workers) as repeat_map:
        outcomes = list(repeat_map(job, range(repeats)))

    rows = [row for out in outcomes for row in out[0]]
    checkpoints = [out[1] for out in outcomes]
    accs = [out[2] for out in outcomes]
    mean = float(np.mean(accs))
    std = 0.0 if repeats == 1 else float(np.std(accs, ddof=1))
    return ExperimentResult(accs, mean, std, rows, checkpoints)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_payload(snapshot: dict, config: TrainConfig) -> dict:
    from . import __version__

    return {
        "version": __version__,
        "config": config_to_json(config),
        "epoch": snapshot["epoch"],
        "theta": snapshot["theta"].tolist(),
        "mitigation": noise_layers_json(default_models(np.maximum(snapshot["rates"], 0.0))),
        "seed": config.seed,
    }


def config_to_json(config: TrainConfig) -> dict:
    return asdict(config)


def config_from_json(payload: dict) -> TrainConfig:
    try:
        return TrainConfig(**payload)
    except TypeError as exc:
        raise ConfigError(f"malformed train config: {exc}") from exc
