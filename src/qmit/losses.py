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
and 7 without it, besides up to three ``eigh``, and a chain state that is
one block's target and the previous block's pullback input is decomposed once.
A pure target stays a vector: the root overlap applies its conditioned root
(:func:`_pure_root`) as a rank-one update, so its block costs 6 products
and two ``eigh`` and forms no matrix of the target.
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
# Divergence orders above this are taken in log space.  Up to it a state's
# Tr rho^alpha is at least d^-alpha >= 2^-640 (d <= 2^10), far from underflow.
_LOG_SPACE_ORDER = 64.0


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

    Orders above ``_LOG_SPACE_ORDER`` (64), where ``Tr[rho^alpha]``
    underflows, are taken in log space from the clamped spectrum, with
    ``l`` its largest eigenvalue: ``log(d l) + log(sum_i l_i (l_i /
    l)^(alpha - 1)) / (alpha - 1)``, whose sum is at least ``l``.  It tends
    to ``log(d l)`` as ``alpha`` grows.
    """
    if not (alpha > 0.0) or alpha == 1.0:
        raise ValidationError(f"divergence order must be positive and != 1, got {alpha}")
    a = _state_data(rho)
    if alpha > _LOG_SPACE_ORDER:
        eigs = _floored(np.linalg.eigvalsh(a))
        top = float(eigs.max())
        if not top > 0.0:
            return math.inf
        tail = float(np.sum(eigs * (eigs / top) ** (alpha - 1.0)))
        return math.log(a.shape[0] * top) + math.log(tail) / (alpha - 1.0)
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
    """Eigenpairs of the hermitized ``x``; ``x`` is freed (when nothing
    else holds it) before the eigensolver runs."""
    h = hermitize(x)
    del x
    return np.linalg.eigh(h)


def _spectrum_cache(eigs: np.ndarray, vecs: np.ndarray | None) -> dict:
    """The conditioned spectrum ``cond`` of eigenvalues ``eigs``: each passes
    through the softplus floor ``fe`` of sharpness ``FB_SPECTRAL_SHARPNESS``,
    the result is scaled to trace ``1 - FB_STATE_FLOOR`` and ``FB_STATE_FLOOR
    / d`` is added, which bounds ``cond`` below by ``FB_STATE_FLOOR / d``.
    ``vecs`` holds the eigenvectors."""
    fe = _softplus(FB_SPECTRAL_SHARPNESS * eigs) / FB_SPECTRAL_SHARPNESS
    trace = np.sum(fe, axis=-1)
    return {
        "eigs": eigs,
        "vecs": vecs,
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
    return _spectrum_cache(*_eigh(x))


def _pure_root(psi: np.ndarray) -> dict:
    """The root ``r I + (t - r) u u^dagger``, ``u = psi / |psi|``, of the
    conditioned pure states ``psi psi^dagger`` (``psi`` of shape ``(...,
    d)``), in closed form: ``psi psi^dagger`` has the eigenvalue ``|psi|^2``
    on ``u`` and 0 on its complement, so its conditioned form has ``t^2`` on
    ``u`` and ``r^2`` on the complement.  The cache holds ``u`` as ``"vec"``."""
    norm2 = np.sum(psi.real**2 + psi.imag**2, axis=-1)
    eigs = np.zeros(psi.shape)
    eigs[..., -1] = norm2
    root = np.sqrt(_spectrum_cache(eigs, None)["cond"])
    vec = psi / np.sqrt(norm2)[..., None]
    return {"vec": vec, "r": root[..., 0], "t": root[..., -1], "neg_mass": 0.0}


def _weighted_gram(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``y diag(w) y^dagger`` for a stack ``y`` and real weights ``w`` on its
    last axis: one product.  ``y`` is conjugated in place for the product
    (the caller owns it, and after the call it holds ``conj(y)``); its
    transposed view is the product's right operand."""
    scaled = y * w[..., None, :]
    return scaled @ np.swapaxes(np.conj(y, out=y), -1, -2)


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
    It is formed as ``conj(conj(V g) V^T)`` with both conjugations in
    place, so it holds one temporary stack and copies no ``V^dagger``; the
    result has the bits of ``V g V^dagger``.
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
    vecs = cache["vecs"]
    rotated = vecs @ g
    np.conj(rotated, out=rotated)
    np.matmul(rotated, np.swapaxes(vecs, -1, -2), out=g)
    del rotated
    return np.conj(g, out=g)


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
    """The root overlap of the spectrum cache ``cache_b`` and ``cache_a``, a
    spectrum cache too or a pure root (:func:`_pure_root`): ``conj(P)`` and
    the eigenpairs ``(m, v_M)`` of ``M = P diag(b) P^dagger``.

    ``M`` is ``A^{1/2} B A^{1/2}`` for ``B = W diag(b) W^dagger``, ``W =
    unit^dagger V_b`` (``unit`` absent: the identity), which is never formed,
    and ``Tr sqrt(M)`` is the sum of ``sqrt(m)``.  For ``A = V_A diag(a)
    V_A^dagger``, ``M`` is written in ``A``'s eigenbasis, with ``P =
    diag(sqrt(a)) V_A^dagger W``: three products besides the ``eigh``, two
    without ``unit``.  For a pure root ``P = A^{1/2} W``, a rank-one update
    of ``W``: two products.

    No copy of a stack is made for a conjugate transpose: ``V_A^dagger W``
    is ``conj(V_A^T conj(W))``, with ``W`` conjugated in place when it was
    formed here (without ``unit`` it is ``V_b``, which is only read), and
    :func:`_weighted_gram` leaves ``conj(P)`` behind.  ``W`` is freed once
    ``P`` exists, and ``M`` before its ``eigh``.
    """
    w = cache_b["vecs"] if unit is None else unit.conj().T @ cache_b["vecs"]
    owned = None if unit is None else w
    if "vec" in cache_a:
        u, r = cache_a["vec"], cache_a["r"][..., None, None]
        p = u[..., :, None] * ((cache_a["t"][..., None, None] - r) * (u.conj()[..., None, :] @ w))
        p += np.multiply(r, w, out=owned)
    else:
        p = np.swapaxes(cache_a["vecs"], -1, -2) @ np.conj(w, out=owned)
        np.conj(p, out=p)
        p *= np.sqrt(cache_a["cond"])[..., :, None]
    del w, owned
    em, vm = _eigh(_weighted_gram(p, cache_b["cond"]))
    return p, em, vm


def _fb_pair_forward(a, b: np.ndarray, unit: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Conditioned ``-log F`` for batched Hermitian state pairs.

    ``a`` is the target, a stack ``(..., d, d)`` or the :func:`_pure_root`
    of a pure target; ``b`` is the pullback's input, a stack or a spectrum
    cache formed before (the ``"cache_a"`` of a block whose target it was,
    by :func:`_condition_spectrum`), so a state that two blocks share is
    decomposed once.  The returned loss has the batch shape.  The state
    compared with the target is ``B = unit^dagger b unit`` (``b`` itself
    without ``unit``): it has ``b``'s spectrum and the eigenvectors ``V_B =
    unit^dagger V_b``, so the conjugation is never formed.  The fidelity is
    the squared root overlap (:func:`_root_overlap`) of the conditioned
    target and pullback.
    """
    cache_a = a if isinstance(a, dict) else _condition_spectrum(a)
    cache_b = b if isinstance(b, dict) else _condition_spectrum(b)
    p_conj, em, vm = _root_overlap(cache_a, cache_b, unit)
    trace_sqrt = np.sum(np.sqrt(np.clip(em, 0.0, None)), axis=-1)
    fid = trace_sqrt**2
    loss = np.maximum(-np.log(fid), 0.0)

    cache = {
        "cache_a": cache_a,
        "cache_b": cache_b,
        "p_conj": p_conj,
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
    V_A v_M diag(m) v_M^dagger V_A^dagger`` (``V_A = I`` for a pure
    target), ``B``'s side is ``Y diag(m^{-1/2})
    Y^dagger`` with ``Y = P^dagger v_M`` and ``A``'s side is ``diag(a^{-1/2})
    v_M diag(m^{1/2}) v_M^dagger diag(a^{-1/2})``; each then goes through
    the conditioning adjoint and one rotation out.  That is four products
    for ``B``'s side and three for ``A``'s.  ``with_target=False`` skips
    ``A``'s side and returns ``None`` in its place; a pure target
    (:func:`_pure_root`) has no ``A`` side here and needs it.

    ``cache`` is consumed: ``conj(P)`` and ``v_M`` are popped from it, and
    each is freed once read, ``conj(P)`` when ``Y`` exists and ``v_M`` after
    ``A``'s gram; ``Y`` and ``v_M`` are conjugated in place for their grams
    (:func:`_weighted_gram`).  The spectrum caches are only read: ``A``'s is
    the pullback spectrum of the block before, and without ``unit`` the
    eigenvectors in ``B``'s are ``W`` itself.
    """
    em = cache["em"]
    vm = cache.pop("vm")
    g_scale = np.asarray(g_loss) * (-1.0 / cache["fid"]) * cache["trace_sqrt"]

    inv_root_m = g_scale[..., None] / np.sqrt(np.clip(em, _INV_SQRT_FLOOR, None))
    y = np.swapaxes(cache.pop("p_conj"), -1, -2) @ vm
    g_b = _weighted_gram(y, inv_root_m)
    del y
    g_b_raw = hermitize(_condition_adjoint_eigenbasis(g_b, cache["cache_b"]))
    del g_b
    if not with_target:
        return None, g_b_raw

    cache_a = cache["cache_a"]
    root_m = g_scale[..., None] * np.sqrt(np.clip(em, 0.0, None))
    inv_root_a = 1.0 / np.sqrt(cache_a["cond"])
    g_a = _weighted_gram(vm, root_m)
    del vm
    g_a *= inv_root_a[..., :, None]
    g_a *= inv_root_a[..., None, :]
    g_a_raw = hermitize(_condition_adjoint_eigenbasis(g_a, cache_a))
    return g_a_raw, g_b_raw
