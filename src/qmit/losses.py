"""Quantum similarity measures and the training losses.

Provides Uhlmann fidelity, the log-trace diagnostic form, the Petz-Renyi
divergence, the per-pair forward-backward loss ``-log F``, its multi-layer
block version, the softmax cross-entropy task loss, and the weighted total.

The public :func:`fidelity` clamps negative eigenvalues of quasi-states to
zero and renormalizes, as a hard projection.  Inside the training objective
(:func:`total_fb_loss` and the gradient engine) both fidelity arguments are
instead *conditioned*: eigenvalues pass through a sharp softplus floor, a
small maximally mixed admixture is added, and the trace is renormalized.
Conditioning is smooth, keeps the loss exactly zero for identical inputs,
and bounds the fidelity gradients, which hard clamping does not.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .noise import MitigationModel, apply_pauli_fidelities
from .pqc import CircuitSpec, build_layer_unitary
from .qsim import DensityMatrix, hermitian_power, hermitize

logger = logging.getLogger(__name__)

FB_LOSS_CAP = 50.0
# Conditioning constants for the differentiable fidelity path.  Sharper
# softplus and a smaller admixture track the hard clamp more closely but
# raise the loss curvature; central differences at h = 1e-4 (the
# gradient-check oracle) stop resolving the gradient at 1e-3 well before
# the analytic gradient itself degrades.  These values keep the worst
# finite-difference mismatch near 1e-5 across random training configs.
FB_SPECTRAL_SHARPNESS = 10.0
FB_STATE_FLOOR = 0.2
_EIG_DEGENERACY_TOL = 1e-9
_INV_SQRT_FLOOR = 1e-13
# Eigenvalues below this fraction of the largest are treated as exact zeros
# before fractional powers; rank-deficiency residues of order 1e-16 would
# otherwise contribute ~1e-8 per spurious eigenvalue through a square root.
_SPECTRAL_REL_FLOOR = 1e-13


@dataclass(frozen=True)
class LossWeights:
    """Weights of the forward-backward and task terms; not both zero."""

    alpha_fb: float
    alpha_task: float

    def __post_init__(self):
        if self.alpha_fb < 0.0 or self.alpha_task < 0.0:
            raise ValidationError("loss weights must be nonnegative")
        if self.alpha_fb == 0.0 and self.alpha_task == 0.0:
            raise ValidationError("loss weights must not both be zero")


def _state_data(state) -> np.ndarray:
    data = state.data if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValidationError(f"state must be a square matrix, got shape {data.shape}")
    defect = float(np.max(np.abs(data - data.conj().T)))
    if defect > 1e-8:
        raise ValidationError(f"state is not Hermitian (defect {defect:.3e})")
    return data


def psd_clamp(data: np.ndarray) -> tuple[np.ndarray, float]:
    """Project onto PSD matrices: zero negative eigenvalues, renormalize.

    Returns the projected matrix and the clamped (absolute) eigenvalue mass.
    """
    eigs, vecs = np.linalg.eigh(hermitize(data))
    clamped_mass = float(np.sum(np.clip(-eigs, 0.0, None)))
    eigs = np.clip(eigs, 0.0, None)
    out = (vecs * eigs) @ vecs.conj().T
    trace = float(np.trace(out).real)
    if trace <= 0.0:
        raise ValidationError("state has no positive spectral mass")
    return out / trace, clamped_mass


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))**2``.

    Quasi-states are clamped to PSD first; the clamped mass is logged.
    """
    a = _state_data(rho)
    b = _state_data(sigma)
    if a.shape != b.shape:
        raise ValidationError(f"state shapes differ: {a.shape} vs {b.shape}")
    a, mass_a = psd_clamp(a)
    b, mass_b = psd_clamp(b)
    if mass_a > 0.0 or mass_b > 0.0:
        logger.debug("fidelity clamped negative mass %.3e / %.3e", mass_a, mass_b)
    return _root_overlap_trace(a, b) ** 2


def _root_overlap_trace(a: np.ndarray, b: np.ndarray) -> float:
    """``Tr sqrt(sqrt(b) a sqrt(b))`` for PSD unit-trace inputs."""
    sqrt_b = hermitian_power(b, 0.5, rel_floor=_SPECTRAL_REL_FLOOR)
    inner = hermitize(sqrt_b @ a @ sqrt_b)
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    if eigs.size and eigs.max() > 0.0:
        eigs[eigs < _SPECTRAL_REL_FLOOR * eigs.max()] = 0.0
    return float(np.sum(np.sqrt(eigs)))


def log_fidelity_paper_form(rho, sigma) -> float:
    """Diagnostic ``2 log Tr sqrt(sqrt(sigma) rho sqrt(sigma))``, i.e. log of fidelity."""
    a, _ = psd_clamp(_state_data(rho))
    b, _ = psd_clamp(_state_data(sigma))
    trace_sqrt = _root_overlap_trace(a, b)
    if trace_sqrt <= 0.0:
        raise ArithmeticError("log fidelity undefined: trace of the root overlap is zero")
    return 2.0 * math.log(trace_sqrt)


def petz_renyi_divergence(rho, sigma, alpha: float = 2.0) -> float:
    """``(alpha - 1)^{-1} log Tr[rho^alpha sigma^{1-alpha}]``.

    Requires ``alpha > 0`` and ``alpha != 1``; ``sigma`` must be full rank
    when ``alpha > 1``.
    """
    if not (alpha > 0.0) or alpha == 1.0:
        raise ValidationError(f"divergence order must be positive and != 1, got {alpha}")
    a = _state_data(rho)
    b = _state_data(sigma)
    if a.shape != b.shape:
        raise ValidationError(f"state shapes differ: {a.shape} vs {b.shape}")
    rho_a = hermitian_power(a, alpha, rel_floor=_SPECTRAL_REL_FLOOR)
    sigma_b = hermitian_power(b, 1.0 - alpha, rel_floor=_SPECTRAL_REL_FLOOR)
    value = float(np.trace(rho_a @ sigma_b).real)
    if value <= 0.0:
        return math.inf
    return math.log(value) / (alpha - 1.0)


def forward_backward_loss(rho_prev, rho_hat_prev) -> float:
    """Per-pair loss ``-log F``; capped at 50 when the fidelity vanishes."""
    value = fidelity(rho_prev, rho_hat_prev)
    if value <= math.exp(-FB_LOSS_CAP):
        logger.warning("fidelity %.3e underflowed the loss cap; returning %.0f", value, FB_LOSS_CAP)
        return FB_LOSS_CAP
    return max(-math.log(value), 0.0)


def task_loss(z, label: int, num_classes: int) -> float:
    """Cross entropy of the softmax over the first ``num_classes`` readouts."""
    z = np.asarray(z, dtype=float).ravel()
    if num_classes < 2 or num_classes > z.size:
        raise ValidationError(
            f"class count {num_classes} must be in [2, {z.size}] for this readout"
        )
    if not 0 <= label < num_classes:
        raise ValidationError(f"label {label} out of range for {num_classes} classes")
    probs = softmax_head(z, num_classes)
    return float(-np.log(probs[label]))


def softmax_head(z, num_classes: int) -> np.ndarray:
    """Softmax over the first ``num_classes`` components of the readout."""
    logits = np.asarray(z, dtype=float).ravel()[:num_classes]
    shifted = logits - logits.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


def total_loss(fb: float, task: float, weights: LossWeights) -> float:
    """``alpha_fb * L_fb + alpha_task * L_task``."""
    if not (np.isfinite(fb) and np.isfinite(task)):
        raise ValidationError("loss terms must be finite")
    return weights.alpha_fb * float(fb) + weights.alpha_task * float(task)


# ---------------------------------------------------------------------------
# Differentiable conditioned fidelity (used by total_fb_loss and the trainer)
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(hermitize(x))


def _psd_sqrt_from_eigh(eigs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    root = np.sqrt(np.clip(eigs, 0.0, None))
    return (vecs * root[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def condition_state(
    x: np.ndarray,
    sharpness: float | None = None,
    floor: float | None = None,
) -> tuple[np.ndarray, dict, float]:
    """Smooth spectral floor plus maximally mixed admixture.

    Returns the conditioned state, a cache for the adjoint pass, and the
    negative eigenvalue mass that the floor absorbed.  Exactly reproducible:
    identical inputs yield identical outputs, so equality of states (hence a
    zero forward-backward loss) is preserved.
    """
    sharpness = FB_SPECTRAL_SHARPNESS if sharpness is None else sharpness
    floor = FB_STATE_FLOOR if floor is None else floor
    eigs, vecs = _eigh(np.asarray(x, dtype=complex))
    fe = _softplus(sharpness * eigs) / sharpness
    trace = np.sum(fe, axis=-1)
    dim = x.shape[-1]
    smooth = (vecs * fe[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    eye = np.eye(dim, dtype=complex)
    cond = (1.0 - floor) * smooth / trace[..., None, None] + (floor / dim) * eye
    neg_mass = float(np.sum(np.clip(-eigs, 0.0, None)))
    cache = {
        "eigs": eigs,
        "vecs": vecs,
        "fe": fe,
        "trace": trace,
        "smooth": smooth,
        "sharpness": sharpness,
        "floor": floor,
    }
    return cond, cache, neg_mass


def condition_state_adjoint(grad: np.ndarray, cache: dict) -> np.ndarray:
    """Adjoint of :func:`condition_state` (Daleckii-Krein divided differences)."""
    eigs = cache["eigs"]
    vecs = cache["vecs"]
    fe = cache["fe"]
    trace = cache["trace"]
    smooth = cache["smooth"]
    sharpness = cache["sharpness"]
    floor = cache["floor"]

    inner = np.einsum("...ij,...ji->...", grad, smooth).real
    g_smooth = (1.0 - floor) * (
        grad / trace[..., None, None]
        - (inner / trace**2)[..., None, None] * np.eye(grad.shape[-1], dtype=complex)
    )

    de = eigs[..., :, None] - eigs[..., None, :]
    df = fe[..., :, None] - fe[..., None, :]
    near = np.abs(de) < _EIG_DEGENERACY_TOL
    ratio = np.where(near, 0.0, df) / np.where(near, 1.0, de)
    mid = 0.5 * (eigs[..., :, None] + eigs[..., None, :])
    kernel = np.where(near, _sigmoid(sharpness * mid), ratio)

    vh = np.conj(np.swapaxes(vecs, -1, -2))
    rotated = vh @ g_smooth @ vecs
    return vecs @ (rotated * kernel) @ vh


def _conditioned_sqrt(cache: dict) -> np.ndarray:
    """Square root of the conditioned state, reusing its eigenbasis.

    The admixture of the identity commutes with everything, so the
    conditioned state shares eigenvectors with the softplus-mapped one and
    its spectrum is strictly positive by construction.
    """
    fe = cache["fe"]
    trace = cache["trace"]
    floor = cache["floor"]
    dim = fe.shape[-1]
    scaled = (1.0 - floor) * fe / trace[..., None] + floor / dim
    vecs = cache["vecs"]
    return (vecs * np.sqrt(scaled)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def _fb_pair_forward(a_raw: np.ndarray, b_raw: np.ndarray) -> tuple[np.ndarray, dict]:
    """Conditioned ``-log F`` for batched Hermitian state pairs.

    Inputs have shape ``(..., d, d)``; the returned loss has the batch shape.
    """
    a_cond, cache_a, neg_a = condition_state(a_raw)
    b_cond, cache_b, neg_b = condition_state(b_raw)

    a_sqrt = _conditioned_sqrt(cache_a)
    mid = hermitize(a_sqrt @ b_cond @ a_sqrt)
    em, vm = _eigh(mid)
    em_c = np.clip(em, 0.0, None)
    trace_sqrt = np.sum(np.sqrt(em_c), axis=-1)
    fid = trace_sqrt**2
    loss = np.maximum(-np.log(fid), 0.0)

    cache = {
        "cache_a": cache_a,
        "cache_b": cache_b,
        "a_cond": a_cond,
        "a_sqrt": a_sqrt,
        "em": em,
        "vm": vm,
        "trace_sqrt": trace_sqrt,
        "fid": fid,
        "neg_mass": neg_a + neg_b,
    }
    return loss, cache


def _fb_pair_backward(cache: dict, g_loss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the conditioned pair loss w.r.t. both raw inputs."""
    fid = cache["fid"]
    trace_sqrt = cache["trace_sqrt"]
    a_sqrt = cache["a_sqrt"]
    em = cache["em"]
    vm = cache["vm"]
    a_cond = cache["a_cond"]

    g_fid = (np.asarray(g_loss) * (-1.0 / fid))[..., None, None]
    scale = trace_sqrt[..., None, None]

    inv_root_m = 1.0 / np.sqrt(np.clip(em, _INV_SQRT_FLOOR, None))
    m_inv_sqrt = (vm * inv_root_m[..., None, :]) @ np.conj(np.swapaxes(vm, -1, -2))
    g_b_cond = hermitize(g_fid * scale * (a_sqrt @ m_inv_sqrt @ a_sqrt))

    b_sqrt = _conditioned_sqrt(cache["cache_b"])
    nmid = hermitize(b_sqrt @ a_cond @ b_sqrt)
    en, vn = _eigh(nmid)
    inv_root_n = 1.0 / np.sqrt(np.clip(en, _INV_SQRT_FLOOR, None))
    n_inv_sqrt = (vn * inv_root_n[..., None, :]) @ np.conj(np.swapaxes(vn, -1, -2))
    g_a_cond = hermitize(g_fid * scale * (b_sqrt @ n_inv_sqrt @ b_sqrt))

    g_a_raw = condition_state_adjoint(g_a_cond, cache["cache_a"])
    g_b_raw = condition_state_adjoint(g_b_cond, cache["cache_b"])
    return hermitize(g_a_raw), hermitize(g_b_raw)


@dataclass(frozen=True)
class TotalFbLoss:
    """Mean conditioned block loss, per-block values, and clamped mass."""

    value: float
    per_block: tuple[float, ...]
    clamped_mass: float


def backward_cascade_data(
    x: np.ndarray,
    circuit: CircuitSpec,
    mitigation: MitigationModel,
    first_layer: int,
    last_layer: int,
    mode: str,
    unitaries: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Pull a chain state back through layers ``last_layer .. first_layer`` (1-based).

    Per layer: undo the estimated residual noise, then the unitary.  In
    ``loss_only`` mode the residual estimate is the layer's learned channel;
    in ``cascaded`` mode the chain is already mitigated inline, so only the
    unitary pullback remains (the mitigation layer and its exact inverse
    cancel algebraically).
    """
    for j in range(last_layer, first_layer - 1, -1):
        if mode == "loss_only":
            model = mitigation.layer_model(j - 1)
            x = apply_pauli_fidelities(x, model.generators, model.rates, inverse=True)
        u = (
            unitaries[j - 1]
            if unitaries is not None
            else build_layer_unitary(circuit.layers[j - 1]).data
        )
        x = u.conj().T @ x @ u
    return hermitize(x)


def total_fb_loss(
    states,
    circuit: CircuitSpec,
    mitigation: MitigationModel,
    step: int,
    mode: str = "loss_only",
) -> TotalFbLoss:
    """Mean forward-backward loss over ``L / step`` layer blocks.

    ``states`` is the full propagated chain ``[t_0, ..., t_L]`` (noisy for
    ``loss_only``, mitigated for ``cascaded``).  Each block forwards ``step``
    layers, pulls the endpoint back through the block's mitigation and
    inverse unitaries, and compares against the block's start state.  With
    ``step=1`` every layer forms its own block.
    """
    depth = len(states) - 1
    if depth != circuit.depth:
        raise ValidationError(f"chain has {depth} layers, circuit has {circuit.depth}")
    if step < 1 or depth % step != 0:
        raise ValidationError(f"step size {step} does not divide the layer count {depth}")
    if mitigation.layers != depth:
        raise ValidationError("mitigation model layer count does not match the chain")
    if mode not in ("loss_only", "cascaded"):
        raise ValidationError(f"unknown execution mode {mode!r}")

    unitaries = [build_layer_unitary(layer).data for layer in circuit.layers]
    per_block = []
    clamped = 0.0
    for start in range(0, depth, step):
        end = start + step
        back = backward_cascade_data(
            _state_data(states[end]), circuit, mitigation, start + 1, end, mode, unitaries
        )
        target = _state_data(states[start])
        loss, cache = _fb_pair_forward(target[None], back[None])
        per_block.append(float(loss[0]))
        clamped += cache["neg_mass"]
    return TotalFbLoss(float(np.mean(per_block)), tuple(per_block), clamped)
