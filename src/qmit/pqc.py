"""Circuit construction and execution regimes.

A circuit is an encoder plus ``L`` parameterized layers.  Each layer applies
per-qubit rotations (one axis per design letter, X then Y then Z) followed by
a ring of CNOTs, matching the usual hardware-efficient ansatz.  One batched
chain, :func:`layer_chain`, runs the layers: noise free (zero rates), noisy
(unitary then channel per layer), or mitigated.  A learnable inverse channel
is applied either per layer for loss computation only (``loss_only``: the
noisy chain keeps propagating) or inline so each layer consumes the previous
mitigated state (``cascaded``).  :func:`z_expectations` reads a chain state
out, and :func:`mitigated_z_readout` reads the last chain state of encoded
product states in the Heisenberg picture.

The encoder has one definition, :func:`encode_qubits`: each qubit's state
from its own rotations.  Training takes their Kronecker product
(:func:`encode_vectors`), the chain's input, which no module but this one
turns into density matrices (:func:`pure_states`); the readout takes each
qubit's Bloch vector (:func:`bloch_vectors`).

The model's angles are one ``(L, n, p)`` array, ``p`` angles per qubit
and layer, one per design axis.  The layers have one definition,
:func:`layer_rotations`: from that array, in one call, each qubit's prefix
products of its rotations in every layer.  Training conjugates by the
``d x d`` unitary that :func:`layer_unitary` builds from a layer's entry
and takes every angle gradient from their ``2 x 2`` matrices
(:func:`angle_gradients`).  The readout never forms the unitary: it works
on real Pauli coefficients, where each qubit's rotation is its real 4x4
Pauli transfer matrix (:func:`pauli_transfer_matrices`), the CNOT ring
maps each Pauli string to a signed Pauli string (:func:`_ring_pauli_gather`)
and every Pauli channel multiplies each string by its fidelity.  Layer 0's
rotations act on the samples' Bloch vectors instead, and one real GEMM
reads them out.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .errors import ValidationError
from .noise import (
    apply_pauli_fidelities,
    digit_passes,
    learned_fidelities,
    learned_inverse,
    pauli_fidelity_table,
    qubit_fidelities,
)
from .qsim import (
    PAULIS,
    DensityMatrix,
    _check_qubit_count,
    cnot_permutation,
)

DESIGN_AXES = {"RX": "X", "U2": "XY", "U3": "XYZ"}
ENCODER_FEATURES = 64
ENCODER_AXIS_CYCLE = "XYZ"
EXECUTION_MODES = ("loss_only", "cascaded")
# I, X, Y, Z as one (4, 2, 2) stack.
_PAULI_MATRICES = np.stack([PAULIS[ch] for ch in "IXYZ"])
_PAULI_MATRICES.setflags(write=False)


@lru_cache(maxsize=None)
def _cnot_ring_permutation(n: int) -> np.ndarray:
    """Basis-index map of the ring CNOT(j, j+1 mod n) for ascending j:
    ``ring @ x == x[perm]``; the identity for n = 1.

    The product ``C_{n-1} ... C_0`` of the permutation matrices
    ``C_j = eye[p_j]`` is ``eye[p_0[p_1[... p_{n-1}]]]``.  Built once per
    ``n`` and returned read-only."""
    perm = np.arange(1 << n)
    if n >= 2:
        for j in range(n):
            perm = perm[cnot_permutation(j, (j + 1) % n, n)]
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=None)
def _ring_pauli_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ring as a signed map of Pauli strings, ``(gather, signs)``:
    ``ring P_s ring^dagger = signs[s] P_gather[s]`` for every string index
    ``s`` (one base-4 digit per qubit, I X Y Z = 0 1 2 3, qubit 0 the most
    significant).  So the ring's adjoint ``O -> ring^dagger O ring`` takes
    Pauli coefficients ``o`` to ``signs * o[..., gather]``.

    The ring is a Clifford (Gottesman, arXiv:quant-ph/9807006).  With each
    string as its X and Z bits per qubit (Y has both), CNOT(a, b) maps them
    by ``x_b ^= x_a`` and ``z_a ^= z_b`` and flips the sign where
    ``x_a z_b (x_b ^ z_a ^ 1)`` (Aaronson & Gottesman,
    arXiv:quant-ph/0406196); the CNOTs act for ascending ``a``, as in
    :func:`_cnot_ring_permutation`.  Vectorised over all ``4^n`` strings,
    built once per ``n`` and returned read-only."""
    digits = np.indices((4,) * n, dtype=np.uint8).reshape(n, -1)
    x = (digits == 1) | (digits == 2)
    z = digits >= 2
    flip = np.zeros(digits.shape[1], dtype=bool)
    for a in range(n if n >= 2 else 0):
        b = (a + 1) % n
        flip ^= x[a] & z[b] & ~(x[b] ^ z[a])
        x[b] ^= x[a]
        z[a] ^= z[b]
    gather = np.zeros(digits.shape[1], dtype=np.intp)
    for q in range(n):
        gather = (gather << 2) | ((3 * z[q]) ^ x[q])
    signs = np.where(flip, -1.0, 1.0)
    gather.setflags(write=False)
    signs.setflags(write=False)
    return gather, signs


def rotation_matrices(angles, sigma: np.ndarray) -> np.ndarray:
    """``exp(-i angle sigma / 2) = cos(angle/2) I - i sin(angle/2) sigma``
    for every entry of ``angles`` (an array or a numpy scalar), shape
    ``angles.shape + (2, 2)``; ``sigma`` broadcasts against it, so it may
    hold one Pauli matrix per axis.  The one rotation formula: the layers,
    the encoder and the divergence trace all build their rotations here."""
    half = 0.5 * angles[..., None, None]
    return np.cos(half) * PAULIS["I"] - 1j * np.sin(half) * sigma


def layer_rotations(design: str, theta) -> np.ndarray:
    """The one definition of the layers: each qubit's prefix products of its
    rotations in every layer, ``R_{l,q,<=a} = R_{l,q,a} ... R_{l,q,0}``,
    shape ``(L, n, axes, 2, 2)`` for the ``(L, n, axes)`` angles ``theta``.

    ``R_{l,q,a}`` rotates qubit ``q`` of layer ``l`` by ``theta[l, q, a]``
    about the design's axis ``a``.  The last prefix ``V_{l,q} =
    R_{l,q,<=last}`` is the qubit's whole rotation, and layer ``l``'s
    unitary is ``ring @ kron(V_{l,0}, ..., V_{l,n-1})``
    (:func:`layer_unitary` of entry ``l``).  Raises ``ValidationError``
    unless the design is known and ``theta`` holds ``L >= 1`` layers on
    ``1 <= n <= MAX_QUBITS`` qubits, one finite angle per design axis.
    """
    if design not in DESIGN_AXES:
        raise ValidationError(f"unknown layer design {design!r}, not one of {sorted(DESIGN_AXES)}")
    axes = DESIGN_AXES[design]
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 3 or not len(theta) or theta.shape[2] != len(axes):
        raise ValidationError(f"theta shape {theta.shape} is not (layers >= 1, n, {len(axes)})")
    _check_qubit_count(theta.shape[1])
    if not np.all(np.isfinite(theta)):
        raise ValidationError("layer angles must be finite")
    sigmas = np.stack([PAULIS[axis] for axis in axes])
    prefix = rotation_matrices(theta, sigmas)
    for a in range(1, len(axes)):
        prefix[:, :, a] = prefix[:, :, a] @ prefix[:, :, a - 1]
    return prefix


def layer_unitary(rotations: np.ndarray) -> np.ndarray:
    """The ``d x d`` unitary of the layer whose :func:`layer_rotations` entry
    is ``rotations``, shape ``(n, axes, 2, 2)``: ``kron(V_0, ..., V_{n-1})``
    with its rows gathered by the ring permutation.  The only place a layer
    unitary is built."""
    return reduce(np.kron, rotations[:, -1])[_cnot_ring_permutation(len(rotations))]


def pauli_transfer_matrices(v: np.ndarray) -> np.ndarray:
    """The real Pauli transfer matrix ``R_q[b, a] = tr(P_b V_q P_a V_q^dagger) / 2``
    over I, X, Y, Z of each one-qubit unitary ``V_q`` in ``v``, shape
    ``(n, 4, 4)`` from ``(n, 2, 2)`` (Chow et al., PRL 109, 060501 (2012)):
    ``V P_a V^dagger = sum_b R[b, a] P_b``, and its transpose is the
    adjoint, ``V^dagger P_a V = sum_b R[a, b] P_b``."""
    turned = v[:, None] @ _PAULI_MATRICES @ np.conj(np.swapaxes(v, -1, -2))[:, None]
    columns = np.swapaxes(turned.reshape(len(v), 4, 4), -1, -2)
    return 0.5 * (np.conj(_PAULI_MATRICES.reshape(4, 4)) @ columns).real


def _one_qubit_marginals(w: np.ndarray) -> np.ndarray:
    """Partial traces ``Tr_{!=q} w`` onto each qubit ``q``, shape ``(n, 2, 2)``."""
    dim = w.shape[-1]
    n = dim.bit_length() - 1
    out = np.empty((n, 2, 2), dtype=w.dtype)
    for q in range(n):
        left, right = 1 << q, 1 << (n - q - 1)
        out[q] = np.einsum("iajibj->ab", w.reshape(left, 2, right, left, 2, right))
    return out


def angle_gradients(j: np.ndarray, rotations: np.ndarray, axes: str) -> np.ndarray:
    """``2 Re tr(dU/dtheta[q, a] K)`` for every angle, shape ``(n, len(axes))``,
    from ``j = K U`` and the layer's :func:`layer_rotations` entry.

    The derivative of rotation ``a`` on qubit ``q`` inserts the generator
    ``G_a = -i sigma_a / 2`` after its prefix (Jones & Gacon,
    arXiv:2009.02823); moved to the right of ``U`` it is conjugated by the
    prefix alone, since every other factor commutes or cancels:
    ``dU = U embed_q(R_{q,<=a}^dagger G_a R_{q,<=a})``.  With the marginals
    ``m_q = Tr_{!=q}(K U)``, ``2 Re tr(dU K) = Im tr(sigma_a R_{q,<=a} m_q
    R_{q,<=a}^dagger)``: one partial trace per qubit, shared by every axis,
    and no ``d x d`` product or ``dU`` formed here.
    """
    marg = _one_qubit_marginals(j)[:, None]
    turned = rotations @ marg @ np.conj(np.swapaxes(rotations, -1, -2))
    sigmas = np.stack([PAULIS[axis] for axis in axes])
    return np.einsum("aij,qaji->qa", sigmas, turned).imag


def encode_qubits(features, n: int) -> np.ndarray:
    """Phase-encode a ``(N, 64)`` feature array into each qubit's state,
    shape ``(N, n, 2)``.

    The ``ENCODER_FEATURES`` (64) features are consumed over ``ceil(64/n)``
    rotation sub-layers: sub-layer ``t`` rotates qubit ``j`` by
    ``pi * x[t*n + j]`` about the axis cycling X, Y, Z
    (``ENCODER_AXIS_CYCLE``) with ``t``.  The encoder has no entanglers, so
    each qubit's state is its own sub-layer rotations (2x2 matrices) applied
    to ``|0>``, and the register state is their Kronecker product
    (:func:`encode_vectors`).
    """
    _check_qubit_count(n)
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != ENCODER_FEATURES:
        raise ValidationError(
            f"expected {ENCODER_FEATURES} features per sample, got shape {feats.shape}"
        )
    if not np.all((feats >= 0.0) & (feats <= 1.0)):
        raise ValidationError("encoder features must lie in [0, 1]")
    count, sublayers = feats.shape[0], -(-ENCODER_FEATURES // n)
    # Features beyond the 64th leave the last sub-layer's qubits unrotated.
    angles = np.zeros((count, sublayers * n))
    angles[:, :ENCODER_FEATURES] = math.pi * feats
    angles = angles.reshape(count, sublayers, n)
    qubits = np.zeros((count, n, 2), dtype=np.complex128)
    qubits[..., 0] = 1.0
    for t in range(sublayers):
        axis = ENCODER_AXIS_CYCLE[t % len(ENCODER_AXIS_CYCLE)]
        rot = rotation_matrices(angles[:, t], PAULIS[axis])
        qubits = (rot * qubits[:, :, None, :]).sum(axis=-1)
    return qubits


def encode_vectors(features, n: int) -> np.ndarray:
    """Phase-encode a ``(N, 64)`` feature array into ``(N, d)`` state
    vectors on ``n`` qubits: the Kronecker product of the
    :func:`encode_qubits` states, a unit vector by construction."""
    qubits = encode_qubits(features, n)
    count = qubits.shape[0]
    psi = qubits[:, 0]
    for q in range(1, n):
        psi = (psi[:, :, None] * qubits[:, q, None, :]).reshape(count, 2 << q)
    return psi


def bloch_vectors(qubits: np.ndarray) -> np.ndarray:
    """``Tr(P phi phi^dagger)`` over I, X, Y, Z of every one-qubit state
    ``phi = (a, b)`` in ``qubits``, shape ``qubits.shape[:-1] + (4,)``: the
    closed form ``(|a|^2 + |b|^2, 2 Re(conj(a) b), 2 Im(conj(a) b), |a|^2 -
    |b|^2)``, whose first entry is 1 for a unit ``phi``."""
    a, b = qubits[..., 0], qubits[..., 1]
    cross = 2.0 * a.conj() * b
    out = np.empty(qubits.shape[:-1] + (4,))
    weight_a, weight_b = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    out[..., 0] = weight_a + weight_b
    out[..., 1] = cross.real
    out[..., 2] = cross.imag
    out[..., 3] = weight_a - weight_b
    return out


def _kron_rows(vectors: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of a stack ``(m, N, 4)``, shape
    ``(N, 4^m)``, ``vectors[0]`` the most significant digit; ones for
    ``m = 0``."""
    rows = np.ones((vectors.shape[1], 1))
    for v in vectors:
        rows = (rows[:, :, None] * v[:, None, :]).reshape(len(rows), rows.shape[1] * v.shape[1])
    return rows


def pure_states(psi: np.ndarray) -> np.ndarray:
    """Density matrices ``psi psi^dagger`` of a stack ``(..., d)`` of state vectors."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def encode(x, n: int) -> DensityMatrix:
    """Phase-encode a feature vector into a pure state on ``n`` qubits."""
    feats = np.asarray(x, dtype=float).reshape(1, -1)
    return DensityMatrix(n, pure_states(encode_vectors(feats, n))[0])


def layer_chain(psi, units, noise, rates=None) -> list[np.ndarray]:
    """Propagated states ``[psi, t_1, ..., t_L]``, ``L >= 1``, of a stack
    ``(..., d)`` of input state vectors ``psi``.

    Layer ``i`` conjugates by ``units[i]`` (layer 0 takes :func:`pure_states`
    of ``U_0 psi``, one matrix-vector product per sample, whose bits do not
    depend on the batch) and applies the true noise ``noise[i]``; with
    ``rates`` (cascaded mode) it then applies the learned inverse with the
    rate row ``rates[i]``.  No state is hermitized or validated.
    """
    cur = pure_states((units[0] @ psi[..., None])[..., 0])
    chain = [psi]
    for i, (u, model) in enumerate(zip(units, noise)):
        if i:
            cur = u @ cur @ u.conj().T
        cur = apply_pauli_fidelities(cur, model.generators, model.rates)
        if rates is not None:
            cur = learned_inverse(cur, rates[i])
        chain.append(cur)
    return chain


@lru_cache(maxsize=None)
def z_sign_table(n: int) -> np.ndarray:
    """Row ``i`` holds the diagonal of ``Z`` on qubit ``i``: ``+1`` where the
    qubit's bit is 0, ``-1`` where it is 1; shape ``(n, 2^n)``, read-only."""
    idx = np.arange(1 << n)
    table = np.stack([1.0 - 2.0 * ((idx >> (n - 1 - i)) & 1) for i in range(n)])
    table.setflags(write=False)
    return table


def z_expectations(x: np.ndarray) -> np.ndarray:
    """Per-qubit ``Tr(Z_i x)`` of a stack ``(..., d, d)`` of states, shape ``(..., n)``."""
    diag = np.real(np.diagonal(x, axis1=-2, axis2=-1))
    return diag @ z_sign_table(x.shape[-1].bit_length() - 1).T


def mitigated_z_readout(qubits, rotations, noise, rates, count) -> np.ndarray:
    """``Tr(Z_k rho_b)`` for qubits ``k < count``, shape ``(N, count)``: the
    Z readouts of the last states ``rho_b`` of :func:`layer_chain` with
    ``rates`` (or ``None``) for the product states whose qubits' states are
    ``qubits``, shape ``(N, n, 2)`` (:func:`encode_qubits`), through the
    layers whose :func:`layer_rotations` are ``rotations``, shape ``(L, n,
    axes, 2, 2)``, and the true noise ``noise``.  With ``rates`` that is the
    mitigated readout of ``cascaded`` mode; ``loss_only`` mode reads the
    noisy chain (``rates=None``) and multiplies by
    :func:`~qmit.noise.learned_z_gains` of its last rate row.  Raises ``ValidationError`` unless there is one
    noise model (and rate row) per layer, rate rows have ``3n`` entries,
    ``1 <= count <= n`` and the qubit states and generators act on the
    layers' ``n`` qubits.

    Computed in the Heisenberg picture on real Pauli coefficients: the
    ``count`` observables, shape ``(count, 4^n)`` with one base-4 digit per
    qubit (I, X, Y, Z), are pushed back through the layers once, each map
    replaced by its adjoint.  A Pauli map multiplies each string by its
    fidelity: a weight-1 map as ``diag(1, f_X, f_Y, f_Z)`` per qubit
    (:func:`~qmit.noise.qubit_fidelities`, and for the learned inverse
    :func:`~qmit.noise.learned_fidelities`), folded into the rotation pass
    of the layer above or, in the last layer, scaling the ``Z_k`` entries;
    any other map as one product with its
    :func:`~qmit.noise.pauli_fidelity_table`.  The ring's adjoint is a
    signed gather (:func:`_ring_pauli_gather`), and each rotation the
    transpose of its :func:`pauli_transfer_matrices` entry, ``n`` real GEMMs
    per layer (:func:`~qmit.noise.digit_passes`).

    Layer 0's rotations act on the samples instead: each is a product
    state, so its Pauli coefficients are the Kronecker product of its
    qubits' :func:`bloch_vectors`, each mapped by its qubit's transfer
    matrix.  With the digits split at ``h = n // 2`` into the products
    ``A_b`` of qubits ``< h`` and ``B_b`` of the rest, ``z_bk = A_b .
    O_k B_b`` is one real GEMM ``(count 4^h, 4^(n-h)) @ (4^(n-h), N)`` and
    a row-wise dot.  So a call costs ``L`` gathers and ``L - 1`` passes on
    ``count x 4^n`` reals plus that GEMM, and forms no matrix of any state
    or unitary.  Every pass, table and gather runs in place in two
    ``(count, 4^n)`` arrays, the only ones a call allocates at that size;
    the rest holds ``O(N (count 4^h + 4^(n-h)))`` reals.
    """
    layers = len(rotations)
    if not layers or len(noise) != layers or (rates is not None and len(rates) != layers):
        raise ValidationError(
            f"layer count mismatch: {layers} rotation layers, {len(noise)} noise models, "
            f"{'no' if rates is None else len(rates)} rate rows"
        )
    n = rotations[0].shape[0]
    if np.ndim(qubits) != 3 or np.shape(qubits)[1:] != (n, 2):
        raise ValidationError(
            f"dimension mismatch: qubit states of shape {np.shape(qubits)}, "
            f"expected (N, {n}, 2) for layers on {n} qubits"
        )
    if rates is not None and np.shape(rates)[1:] != (3 * n,):
        raise ValidationError(f"rate rows must have 3n = {3 * n} entries, got {np.shape(rates)}")
    if not 1 <= count <= n:
        raise ValidationError(f"readout count must lie in [1, {n}], got {count}")

    def pauli_maps(i):
        """Layer ``i``'s Pauli maps with a nonzero rate, the true noise and,
        with ``rates``, the learned inverse: a map that factors over qubits
        as its ``(n, 3)`` fidelities, any other as its fidelity table."""
        model = noise[i]
        if model.n != n:
            raise ValidationError(
                f"dimension mismatch: layers on {n} qubits, generators on {model.n}"
            )
        maps = []
        if np.any(model.rates):
            fid = qubit_fidelities(model.generators, model.rates)
            maps.append(pauli_fidelity_table(model.generators, model.rates) if fid is None else fid)
        if rates is not None and np.any(rates[i]):
            maps.append(learned_fidelities(rates[i]))
        return maps

    gather, signs = _ring_pauli_gather(n)
    z_entries = (np.arange(count), 3 << 2 * (n - 1 - np.arange(count)))  # Z on qubit k
    obs, spare = np.zeros((count, 4**n)), np.empty((count, 4**n))
    obs[z_entries] = 1.0
    ops = None  # the transposed transfer matrices of the layer above, not yet applied
    for i in range(layers - 1, -1, -1):
        tables = []
        for fid in pauli_maps(i):
            if fid.ndim == 1:  # a fidelity table over all 4^n strings
                tables.append(fid)
            elif ops is None:  # the last layer: only the Z_k entries are nonzero
                obs[z_entries] *= fid[:count, 2]
            else:
                ops = np.hstack([np.ones((n, 1)), fid])[:, :, None] * ops
        if ops is not None and digit_passes(obs, ops, spare) is spare:
            obs, spare = spare, obs
        for table in tables:
            obs *= table
        # mode="raise" would gather into a temporary; every index is in range.
        obs, spare = np.take(obs, gather, axis=1, out=spare, mode="clip"), obs
        obs *= signs
        ops = np.swapaxes(pauli_transfer_matrices(rotations[i][:, -1]), -1, -2)
    # r[q, b] = R_q beta_bq, each sample's qubits after layer 0's rotations.
    r = bloch_vectors(np.swapaxes(qubits, 0, 1)) @ ops
    half = n // 2
    right = obs.reshape(count << 2 * half, -1) @ _kron_rows(r[half:]).T
    right = right.reshape(count, 1 << 2 * half, r.shape[1])
    return np.einsum("bi,kib->bk", _kron_rows(r[:half]), right)
