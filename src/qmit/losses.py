"""Quantum similarity measures and the training losses.

Provides Uhlmann fidelity, the Petz-Renyi divergence to the maximally
mixed state (in closed form, with no reference argument), the conditioned
forward-backward pair loss ``-log F`` with its gradients, and the softmax
head of the task loss: functions of states (the pair head also takes one
layer unitary), which know nothing of the layer chain or its blocks; the
trainer pulls each block back and runs its adjoint.
Both measures read a validated :class:`qmit.qsim.DensityMatrix` as it is
and check a plain array's Hermiticity on every call.

Every spectral function of the package is here.  Both fidelities take the
root overlap ``Tr sqrt(A^{1/2} B A^{1/2})`` of one implementation
(:func:`_root_overlap`), in the two states' eigenbases.  The public
:func:`fidelity` clamps negative eigenvalues of quasi-states to zero and
renormalizes, as a hard projection.  Inside the training objective both
fidelity arguments are instead *conditioned*: eigenvalues pass through a
sharp softplus floor, a small maximally mixed admixture is added, and the
trace is renormalized.
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

import numpy as np

from .errors import ValidationError
from .qsim import DensityMatrix, _hermiticity_defect, hermitize

logger = logging.getLogger(__name__)

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


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2``: the
    training head's :func:`_root_overlap` of the two states' PSD
    projections (:func:`_clamped_spectrum`), whose clamped mass is logged.
    """
    a = _state_data(rho)
    b = _state_data(sigma)
    if a.shape != b.shape:
        raise ValidationError(f"state shapes differ: {a.shape} vs {b.shape}")
    caches = [_clamped_spectrum(a), _clamped_spectrum(b)]
    masses = [cache["neg_mass"] for cache in caches]
    if any(masses):
        logger.debug("fidelity clamped negative mass %.3e / %.3e", *masses)
    _, em, _ = _root_overlap(*caches)
    return float(np.sum(np.sqrt(_floored(em)))) ** 2


def _clamped_spectrum(x: np.ndarray) -> dict:
    """One ``eigh`` of ``x``: its eigenvectors, its spectrum with negative
    eigenvalues zeroed (:func:`_floored`) and the trace renormalized, under
    the keys :func:`_root_overlap` reads, and the clamped (absolute) mass."""
    eigs, vecs = _eigh(x)
    clamped = _floored(eigs)
    trace = clamped.sum()
    if trace <= 0.0:
        raise ValidationError("state has no positive spectral mass")
    neg_mass = float(np.sum(np.clip(-eigs, 0.0, None)))
    return {"vecs": vecs, "cond": clamped / trace, "neg_mass": neg_mass}


def _floored(eigs: np.ndarray) -> np.ndarray:
    """``eigs`` clamped at 0, with the values below ``_SPECTRAL_REL_FLOOR``
    of the largest set to exact zeros, so that fractional powers read no
    rank-deficiency residue."""
    eigs = np.clip(eigs, 0.0, None)
    if eigs.size:
        eigs[eigs < _SPECTRAL_REL_FLOOR * eigs.max()] = 0.0
    return eigs


def petz_renyi_divergence(rho, alpha: float = 2.0) -> float:
    """``D_alpha(rho || I/d) = log(d Tr[rho^alpha]^(1 / (alpha - 1)))``,
    the divergence to the maximally mixed state.

    Requires ``alpha > 0`` and ``alpha != 1``.  The product with ``d`` (a
    power of two) is exact, so near ``I/d`` no digits cancel, as they do
    in ``log d + log Tr[rho^alpha] / (alpha - 1)``; that sum is used only
    where the product would overflow or underflow.  At integer ``alpha``
    and Hermitian ``rho``, ``Tr[rho^alpha]`` is ``vdot(rho,
    rho^(alpha-1))``: no product at ``alpha = 2``, one at ``alpha = 3``,
    and no ``eigh``.  That form does not clamp ``rho``'s eigenvalues: on a
    state that passes the PSD check they equal the clamped ones to
    rounding, but a quasi-state's negative eigenvalues count with their
    sign.  Other orders sum the powers of one ``eigvalsh``'s eigenvalues,
    clamped by :func:`_floored`.  A :class:`DensityMatrix` is read as it
    is; a plain array is checked for Hermiticity first.
    """
    if not (alpha > 0.0) or alpha == 1.0:
        raise ValidationError(f"divergence order must be positive and != 1, got {alpha}")
    a = _state_data(rho)
    if alpha == 2.0:
        value = np.vdot(a, a).real
    elif float(alpha).is_integer():
        value = np.vdot(a, np.linalg.matrix_power(a, int(alpha) - 1)).real
    else:
        value = np.power(_floored(np.linalg.eigvalsh(a)), alpha).sum()
    if value <= 0.0:
        return math.inf
    try:
        scaled = a.shape[0] * float(value) ** (1.0 / (alpha - 1.0))
    except OverflowError:
        scaled = math.inf
    if 0.0 < scaled < math.inf:
        return math.log(scaled)
    # Only a quasi-state, far from I/d, gets here (a state's ``scaled`` is in [1, d]).
    return math.log(a.shape[0]) + math.log(value) / (alpha - 1.0)


def softmax_head(z, num_classes: int) -> np.ndarray:
    """Softmax over the first ``num_classes`` readouts on the last axis of ``z``."""
    z = np.asarray(z, dtype=float)
    if not 1 <= num_classes <= z.shape[-1]:
        raise ValidationError(f"class count {num_classes} is not in [1, {z.shape[-1]}] readouts")
    logits = z[..., :num_classes]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Differentiable conditioned fidelity (used by the trainer)
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


def _weighted_gram(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``y diag(w) y^dagger`` for a stack ``y`` and real weights ``w`` on its
    last axis: one product."""
    return (y * w[..., None, :]) @ _dagger(y)


def _rotated_vecs(cache: dict, unit: np.ndarray | None = None) -> np.ndarray:
    """``unit @ V`` for the eigenvectors ``V`` of a spectrum cache (``V``
    itself without ``unit``): one product, or for a Householder ``V = I - 2
    w w^dagger`` the rank-one update ``unit - 2 (unit w) w^dagger``."""
    w = cache.get("householder")
    if w is None:
        return cache["vecs"] if unit is None else unit @ cache["vecs"]
    if unit is None:
        unit, uw = np.eye(w.shape[-1]), w
    elif w.shape[:-1] == (1,):
        # numpy hands a single row to BLAS gemv, which rounds differently
        # from gemm; two rows keep each sample's bits independent of its batch.
        uw = (np.concatenate([w, w]) @ unit.T)[:1]
    else:
        uw = w @ unit.T
    return unit - 2.0 * uw[..., :, None] * w.conj()[..., None, :]


def _condition_adjoint_eigenbasis(g: np.ndarray, cache: dict) -> np.ndarray:
    """Adjoint of the conditioning for a gradient ``g`` written in the
    state's eigenbasis; returns the raw-input gradient in the standard basis.

    ``g`` is consumed: it is scaled and masked in place and then holds the
    result, so callers pass a complex stack they own.

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
    g *= (keep / trace)[..., None, None]
    idx = np.arange(g.shape[-1])
    g[..., idx, idx] -= (keep * inner / trace**2)[..., None]

    g *= _softplus_divided_differences(eigs, fe)
    vecs = _rotated_vecs(cache)
    return np.matmul(vecs @ g, _dagger(vecs), out=g)


def _softplus_divided_differences(eigs: np.ndarray, fe: np.ndarray) -> np.ndarray:
    """Divided differences ``(fe_i - fe_j) / (eigs_i - eigs_j)`` of the
    softplus floor over pairs of eigenvalues; a (numerically) equal pair
    takes the floor's derivative ``sigmoid`` at its midpoint instead."""
    de = eigs[..., :, None] - eigs[..., None, :]
    near = np.abs(de) < _EIG_DEGENERACY_TOL
    de[near] = 1.0  # equal pairs divide by 1 and are overwritten below
    kernel = fe[..., :, None] - fe[..., None, :]
    kernel /= de
    *batch, row, col = np.nonzero(near)
    mid = 0.5 * (eigs[(*batch, row)] + eigs[(*batch, col)])
    kernel[near] = _sigmoid(FB_SPECTRAL_SHARPNESS * mid)
    return kernel


def _root_overlap(cache_a: dict, cache_b: dict, unit: np.ndarray | None = None):
    """The root overlap of two spectrum caches, each holding eigenvectors
    (see :func:`_rotated_vecs`) and the spectrum ``cond``: ``P`` and the
    eigenpairs ``(m, v_M)`` of ``P diag(b) P^dagger``.

    With ``A = V_A diag(a) V_A^dagger`` and ``B = V_B diag(b) V_B^dagger``,
    where ``B = unit^dagger V_b diag(b) V_b^dagger unit`` (``unit`` absent:
    the identity) is never formed, ``M = A^{1/2} B A^{1/2}`` is
    diagonalized in ``A``'s eigenbasis, ``V_A^dagger M V_A = P diag(b)
    P^dagger`` with ``P = diag(sqrt(a)) (unit V_A)^dagger V_b``, and
    ``Tr sqrt(M)`` is the sum of ``sqrt(m)``: three matrix products besides
    the ``eigh``, two when ``unit V_A`` is a rank-one update (a pure
    ``A``, or ``unit`` absent).
    """
    p = _dagger(_rotated_vecs(cache_a, unit)) @ _rotated_vecs(cache_b)
    p *= np.sqrt(cache_a["cond"])[..., :, None]
    em, vm = _eigh(_weighted_gram(p, cache_b["cond"]))
    return p, em, vm


def _fb_pair_forward(a, b: np.ndarray, unit: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Conditioned ``-log F`` for batched Hermitian state pairs.

    ``a`` is the target, a stack ``(..., d, d)`` or a spectrum cache formed
    before (by :func:`_condition_spectrum`, or :func:`_pure_spectrum` for a
    pure target), so a state that two blocks share is decomposed once;
    ``b`` is the pullback's input, a stack.  The returned loss has the
    batch shape.  The state compared with the target is ``B = unit^dagger
    b unit`` (``b`` itself without ``unit``): it has ``b``'s spectrum and
    the eigenvectors ``V_B = unit^dagger V_b``, so the conjugation is never
    formed.  The fidelity is the squared root overlap
    (:func:`_root_overlap`) of the conditioned target and pullback.
    """
    cache_a = a if isinstance(a, dict) else _condition_spectrum(a)
    cache_b = _condition_spectrum(b)
    p, em, vm = _root_overlap(cache_a, cache_b, unit)
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

    With ``A``, ``B`` and ``M`` as in :func:`_root_overlap`, ``dF/dB = 2
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

    inv_root_m = g_scale[..., None] / np.sqrt(np.clip(em, _INV_SQRT_FLOOR, None))
    g_b = _weighted_gram(_dagger(cache["p"]) @ vm, inv_root_m)
    g_b_raw = hermitize(_condition_adjoint_eigenbasis(g_b, cache["cache_b"]))
    del g_b
    if not with_target:
        return None, g_b_raw

    cache_a = cache["cache_a"]
    root_m = g_scale[..., None] * np.sqrt(np.clip(em, 0.0, None))
    inv_root_a = 1.0 / np.sqrt(cache_a["cond"])
    g_a = _weighted_gram(vm, root_m)
    g_a *= inv_root_a[..., :, None]
    g_a *= inv_root_a[..., None, :]
    g_a_raw = hermitize(_condition_adjoint_eigenbasis(g_a, cache_a))
    return g_a_raw, g_b_raw

