"""Quantum similarity measures and the training losses.

Provides Uhlmann fidelity, the log-trace diagnostic form, the Petz-Renyi
divergence, the per-pair forward-backward loss ``-log F``, its multi-layer
block version and the softmax cross-entropy task loss.

The public :func:`fidelity` clamps negative eigenvalues of quasi-states to
zero and renormalizes, as a hard projection.  Inside the training objective
(:func:`total_fb_loss` and the gradient engine) both fidelity arguments are
instead *conditioned*: eigenvalues pass through a sharp softplus floor, a
small maximally mixed admixture is added, and the trace is renormalized.
Conditioning is smooth, keeps the loss exactly zero for identical inputs,
and bounds the fidelity gradients, which hard clamping does not.

The training head works in the eigenbases of the conditioned target, the
conditioned pullback and the root overlap ``M``: no conditioned state or
square root is rebuilt as a matrix, and each side's gradient leaves its
eigenbasis once.  The pullback's last conjugation, by the block's first
layer ``U``, is never formed: the head decomposes its input ``X``, whose
eigenvectors rotated by ``U^dagger`` are the pullback's, and the
pullback's gradient leaves that eigenbasis already conjugated back to
``X``.  A block costs 10 batched d x d products with the target's gradient
and 7 without it, besides up to three ``eigh``; a pure target's spectrum
is closed form (no ``eigh``, one product less), and a chain state that is
one block's pullback input and the next block's target is decomposed once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .noise import MitigationModel, apply_pauli_fidelities
from .pqc import CircuitSpec, build_layer_unitary
from .qsim import DensityMatrix, _hermiticity_defect, hermitian_power, hermitize

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
    if isinstance(state, DensityMatrix):
        return state.data  # square, and Hermitian to HERMITIAN_ATOL (1e-10)
    data = np.asarray(state, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValidationError(f"state must be a square matrix, got shape {data.shape}")
    defect = _hermiticity_defect(data)
    if not defect <= 1e-8:
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

    At integer ``alpha``, ``rho^alpha`` is the plain matrix power (products
    only, no ``eigh``), and ``rho``'s eigenvalues are not clamped: on a
    state that passes the PSD check it equals the clamped spectral power to
    rounding, but a quasi-state's negative eigenvalues count with their
    sign.  Other orders take the clamped spectral power of
    :func:`hermitian_power`.
    """
    if not (alpha > 0.0) or alpha == 1.0:
        raise ValidationError(f"divergence order must be positive and != 1, got {alpha}")
    a = _state_data(rho)
    b = _state_data(sigma)
    if a.shape != b.shape:
        raise ValidationError(f"state shapes differ: {a.shape} vs {b.shape}")
    if float(alpha).is_integer():
        rho_a = np.linalg.matrix_power(a, int(alpha))
    else:
        rho_a = hermitian_power(a, alpha, rel_floor=_SPECTRAL_REL_FLOOR)
    # The reference is usually one state compared against many (a whole
    # trace against the maximally mixed state), so its power is memoized.
    if isinstance(sigma, DensityMatrix):
        sigma_b = sigma.power(1.0 - alpha, rel_floor=_SPECTRAL_REL_FLOOR)
    else:
        sigma_b = hermitian_power(b, 1.0 - alpha, rel_floor=_SPECTRAL_REL_FLOOR)
    # Tr[A S] = sum_ij A_ij S_ji = vdot(S, A) for Hermitian S: no product.
    value = float(np.vdot(sigma_b, rho_a).real)
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
    """Softmax over the first ``num_classes`` readouts on the last axis of ``z``."""
    logits = np.asarray(z, dtype=float)[..., :num_classes]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Differentiable conditioned fidelity (used by total_fb_loss and the trainer)
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(hermitize(x))


def _dagger(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def _spectrum_cache(eigs: np.ndarray, basis: dict) -> dict:
    """The conditioned spectrum ``cond`` of eigenvalues ``eigs``: each passes
    through the softplus floor ``fe`` of sharpness ``FB_SPECTRAL_SHARPNESS``,
    the result is scaled to trace ``1 - FB_STATE_FLOOR`` and ``FB_STATE_FLOOR
    / d`` is added, which bounds ``cond`` below by ``FB_STATE_FLOOR / d``.
    ``basis`` holds the eigenvectors (see :func:`_rotated_vecs`)."""
    fe = _softplus(FB_SPECTRAL_SHARPNESS * eigs) / FB_SPECTRAL_SHARPNESS
    trace = np.sum(fe, axis=-1)
    return {
        "eigs": eigs,
        **basis,
        "fe": fe,
        "trace": trace,
        "cond": (1.0 - FB_STATE_FLOOR) * fe / trace[..., None] + FB_STATE_FLOOR / eigs.shape[-1],
        "neg_mass": float(np.sum(np.clip(-eigs, 0.0, None))),
    }


def _condition_spectrum(x: np.ndarray) -> dict:
    """Eigenpairs of ``x`` and the spectrum ``cond`` of its conditioned form.

    Conditioning is a spectral map, so the conditioned state is
    ``vecs diag(cond) vecs^dagger``.
    """
    eigs, vecs = _eigh(x)
    return _spectrum_cache(eigs, {"vecs": vecs})


def _pure_spectrum(psi: np.ndarray) -> dict:
    """:func:`_condition_spectrum` of the pure states ``psi psi^dagger``, in
    closed form from the vectors ``psi`` (shape ``(..., d)``), with no ``eigh``.

    ``psi psi^dagger`` has the eigenvalue ``|psi|^2`` on ``psi`` and 0 on
    its orthogonal complement.  The eigenvectors are the columns of the
    Householder reflection ``H = I - 2 w w^dagger`` that takes the last
    basis vector to a unit multiple of ``psi``, so the eigenvalues stay in
    ``eigh``'s ascending order; the cache holds ``w`` under
    ``"householder"``.
    """
    norm2 = np.sum(psi.real**2 + psi.imag**2, axis=-1)
    unit = psi / np.sqrt(norm2)[..., None]
    size = np.abs(unit[..., -1])
    # H maps e_last to -phase * unit; the phase makes that vector's last
    # entry -size <= 0, which keeps w away from zero.
    phase = np.conj(unit[..., -1]) / np.where(size > 0.0, size, 1.0)
    phase[size == 0.0] = 1.0
    w = phase[..., None] * unit
    w[..., -1] += 1.0
    w /= np.sqrt(2.0 + 2.0 * size)[..., None]
    eigs = np.zeros(psi.shape)
    eigs[..., -1] = norm2
    return _spectrum_cache(eigs, {"householder": w})


def _rotated_vecs(cache: dict, unit: np.ndarray | None = None) -> np.ndarray:
    """``unit @ V`` for the eigenvectors ``V`` of a spectrum cache (``V``
    itself without ``unit``): one product, or for a Householder ``V = I - 2
    w w^dagger`` the rank-one update ``unit - 2 (unit w) w^dagger``."""
    w = cache.get("householder")
    if w is None:
        return cache["vecs"] if unit is None else unit @ cache["vecs"]
    if unit is None:
        unit, uw = np.eye(w.shape[-1]), w
    else:
        uw = w @ unit.T
    return unit - 2.0 * uw[..., :, None] * w.conj()[..., None, :]


def _condition_adjoint_eigenbasis(g: np.ndarray, cache: dict) -> np.ndarray:
    """Adjoint of the conditioning for a gradient ``g`` written in the
    state's eigenbasis; returns the raw-input gradient in the standard basis.

    The trace normalization contributes ``-(sum_i fe_i g_ii) / trace^2`` on
    the diagonal.  The softplus floor is a spectral function, whose adjoint
    multiplies by its divided differences (Daleckii-Krein; Higham,
    *Functions of Matrices*, SIAM 2008, section 3.2), with the derivative
    ``sigmoid`` at the midpoint of (numerically) equal eigenvalues.  The
    rotation out of the eigenbasis (two products) is its only matrix work.
    """
    eigs = cache["eigs"]
    fe = cache["fe"]
    trace = cache["trace"]
    keep = 1.0 - FB_STATE_FLOOR

    inner = np.einsum("...ii,...i->...", g, fe).real
    g = (keep / trace)[..., None, None] * g
    idx = np.arange(g.shape[-1])
    g[..., idx, idx] -= (keep * inner / trace**2)[..., None]

    de = eigs[..., :, None] - eigs[..., None, :]
    df = fe[..., :, None] - fe[..., None, :]
    near = np.abs(de) < _EIG_DEGENERACY_TOL
    kernel = np.where(near, 0.0, df) / np.where(near, 1.0, de)
    *batch, row, col = np.nonzero(near)
    mid = 0.5 * (eigs[(*batch, row)] + eigs[(*batch, col)])
    kernel[near] = _sigmoid(FB_SPECTRAL_SHARPNESS * mid)

    vecs = _rotated_vecs(cache)
    return vecs @ (g * kernel) @ _dagger(vecs)


def _fb_pair_forward(a, b, unit: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Conditioned ``-log F`` for batched Hermitian state pairs.

    ``a`` is the target and ``b`` the pullback's input, each a stack
    ``(..., d, d)`` or a spectrum cache formed before (by
    :func:`_condition_spectrum`, or :func:`_pure_spectrum` for a pure
    target), so a state that two blocks share is decomposed once; the
    returned loss has the batch shape.  The state compared with the target
    is ``B = unit^dagger b unit`` (``b`` itself without ``unit``): it has
    ``b``'s spectrum and the eigenvectors ``V_B = unit^dagger V_b``, so the
    conjugation is never formed.

    With ``A = V_A diag(a) V_A^dagger`` and ``B = V_B diag(b) V_B^dagger``
    the conditioned target and pullback, ``M = A^{1/2} B A^{1/2}`` is
    diagonalized in ``A``'s eigenbasis, ``V_A^dagger M V_A = P diag(b)
    P^dagger`` with ``P = diag(sqrt(a)) (unit V_A)^dagger V_b``: three
    matrix products besides the ``eigh`` calls, two when ``unit V_A`` is a
    rank-one update (a pure target, or ``unit`` absent).
    """
    cache_a = a if isinstance(a, dict) else _condition_spectrum(a)
    cache_b = b if isinstance(b, dict) else _condition_spectrum(b)

    overlap = _dagger(_rotated_vecs(cache_a, unit)) @ _rotated_vecs(cache_b)
    p = np.sqrt(cache_a["cond"])[..., :, None] * overlap
    em, vm = _eigh((p * cache_b["cond"][..., None, :]) @ _dagger(p))
    trace_sqrt = np.sum(np.sqrt(np.clip(em, 0.0, None)), axis=-1)
    fid = trace_sqrt**2
    loss = np.maximum(-np.log(fid), 0.0)

    cache = {
        "cache_a": cache_a,
        "cache_b": cache_b,
        "p": p,
        "em": em,
        "vm": vm,
        "trace_sqrt": trace_sqrt,
        "fid": fid,
        "neg_mass": cache_a["neg_mass"] + cache_b["neg_mass"],
    }
    return loss, cache


def _fb_pair_backward(
    cache: dict, g_loss: np.ndarray, with_target: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of the conditioned pair loss w.r.t. the raw target and the
    pullback's input ``b`` (for ``B = unit^dagger b unit``, that is ``unit
    g_B unit^dagger``, at no extra cost: the rotation out uses ``V_b``).

    With ``A``, ``B`` and ``M`` as in :func:`_fb_pair_forward`, ``dF/dB = 2
    sqrt(F) A^{1/2} M^{-1/2} A^{1/2}`` and, by the symmetry of ``F``,
    ``dF/dA = 2 sqrt(F) B # A^{-1}`` with the matrix geometric mean ``X # Y
    = X^{1/2} (X^{-1/2} Y X^{-1/2})^{1/2} X^{1/2}``.  The geometric mean is
    symmetric, so ``B # A^{-1} = A^{-1} # B = A^{-1/2} M^{1/2} A^{-1/2}``;
    the identity is exact for positive definite arguments, and both
    conditioned states are, with spectrum at least ``FB_STATE_FLOOR / d``.

    Both sides are assembled in their own state's eigenbasis from the
    forward pass's eigenpairs, with no further ``eigh``.  With ``M =
    V_A v_M diag(m) v_M^dagger V_A^dagger``, ``B``'s side is ``Y diag(m^{-1/2})
    Y^dagger`` with ``Y = P^dagger v_M`` and ``A``'s side is ``diag(a^{-1/2})
    v_M diag(m^{1/2}) v_M^dagger diag(a^{-1/2})``; each then goes through
    the conditioning adjoint and one rotation out.  That is four products
    for ``B``'s side and three for ``A``'s.  ``with_target=False`` skips
    ``A``'s side and returns ``None`` in its place.
    """
    em = cache["em"]
    vm = cache["vm"]
    g_scale = np.asarray(g_loss) * (-1.0 / cache["fid"]) * cache["trace_sqrt"]

    y = _dagger(cache["p"]) @ vm
    inv_root_m = g_scale[..., None] / np.sqrt(np.clip(em, _INV_SQRT_FLOOR, None))
    g_b = (y * inv_root_m[..., None, :]) @ _dagger(y)
    g_b_raw = hermitize(_condition_adjoint_eigenbasis(g_b, cache["cache_b"]))
    if not with_target:
        return None, g_b_raw

    cache_a = cache["cache_a"]
    root_m = g_scale[..., None] * np.sqrt(np.clip(em, 0.0, None))
    inv_root_a = 1.0 / np.sqrt(cache_a["cond"])
    g_a = (vm * root_m[..., None, :]) @ _dagger(vm)
    g_a = inv_root_a[..., :, None] * g_a * inv_root_a[..., None, :]
    g_a_raw = hermitize(_condition_adjoint_eigenbasis(g_a, cache_a))
    return g_a_raw, g_b_raw


def fb_blocks(chain, units, step: int, rates=None, generators=None, psi0=None) -> list[tuple]:
    """Forward-backward blocks of a propagated chain ``[t_0, ..., t_L]``.

    Entries of ``chain`` are stacks ``(..., d, d)``.  Block ``b`` covers
    layers ``start = b * step`` to ``end = start + step``: ``t_end`` is
    pulled back through the block's layers, last first, and compared with
    ``t_start`` by the conditioned ``-log F``.  With ``rates`` (``loss_only``
    mode) each layer's pullback first undoes the learned residual noise
    ``rates[j]`` over ``generators``; without them (``cascaded`` mode) the
    chain is mitigated inline, so only the unitary pullback remains (the
    mitigation layer and its exact inverse cancel algebraically).

    The conjugation by the block's first layer ``units[start]`` is left to
    the fidelity head (:func:`_fb_pair_forward`), which decomposes its input
    instead.  When that input is ``chain[end]`` itself (``cascaded`` mode at
    ``step`` 1), its spectrum is the next block's target's.  ``psi0`` are
    state vectors with ``chain[0] = psi0 psi0^dagger``: block 0's target
    then takes its closed-form spectrum (:func:`_pure_spectrum`).  A
    block's forward costs two batched d x d products per layer after its
    first (the explicit conjugations) and the head's three (two with a
    pure target).

    Returns ``(start, end, layer_caches, loss, cache)`` per block:
    ``layer_caches`` lists ``(j, x)`` with ``x`` the input of layer ``j``'s
    inverse conjugation, ``loss`` has the batch shape and ``cache`` is the
    fidelity cache of :func:`_fb_pair_backward`, whose pullback gradient is
    with respect to the last ``x`` (``j = start``).
    """
    blocks = []
    shared = None if psi0 is None else _pure_spectrum(psi0)
    for start in range(0, len(units), step):
        end = start + step
        x = chain[end]
        layer_caches = []
        for j in range(end - 1, start - 1, -1):
            if rates is not None:
                x = apply_pauli_fidelities(x, generators, rates[j], inverse=True)
            # In loss_only mode the conjugation's input is also the inverse
            # stack's output, which that stack's adjoint needs.
            layer_caches.append((j, x))
            if j > start:
                x = units[j].conj().T @ x @ units[j]
        target = chain[start] if shared is None else shared
        loss, cache = _fb_pair_forward(target, x, units[start])
        shared = cache["cache_b"] if x is chain[end] else None
        blocks.append((start, end, layer_caches, loss, cache))
    return blocks


@dataclass(frozen=True)
class TotalFbLoss:
    """Mean conditioned block loss, per-block values, and clamped mass."""

    value: float
    per_block: tuple[float, ...]
    clamped_mass: float


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
    inverse unitaries, and compares against the block's start state (see
    :func:`fb_blocks`).  With ``step=1`` every layer forms its own block.
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
    chain = [_state_data(s)[None] for s in states]
    rates = np.maximum(mitigation.rates, 0.0) if mode == "loss_only" else None
    blocks = fb_blocks(chain, unitaries, step, rates, mitigation.generators)
    per_block = tuple(float(loss[0]) for *_, loss, _cache in blocks)
    clamped = sum(cache["neg_mass"] for *_, cache in blocks)
    return TotalFbLoss(float(np.mean(per_block)), per_block, clamped)
