"""Circuit construction and execution regimes.

A circuit is an encoder plus ``L`` parameterized layers.  Each layer applies
per-qubit rotations (one axis per design letter, X then Y then Z) followed by
a ring of CNOTs, matching the usual hardware-efficient ansatz.  Three forward
passes are provided: noise free, noisy (unitary then channel per layer), and
mitigated, where a learnable inverse channel is applied either per layer for
loss computation only (the noisy chain keeps propagating) or inline so each
layer consumes the previous mitigated state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .noise import MitigationModel, NoiseModel, apply_pauli_fidelities
from .qsim import (
    PAULIS,
    DensityMatrix,
    Unitary,
    evolve,
    hermitize,
    rotation_matrix_2x2,
    _check_qubit_count,
    _cnot_matrix,
)

DESIGN_AXES = {"RX": "X", "U2": "XY", "U3": "XYZ"}
ENCODER_FEATURES = 64
ENCODER_AXIS_CYCLE = "XYZ"
EXECUTION_MODES = ("loss_only", "cascaded")


@dataclass
class LayerSpec:
    """One parameterized layer: rotation angles plus the CNOT ring."""

    design: str
    n: int
    theta: np.ndarray  # shape (n, axes-per-design)

    def __post_init__(self):
        if self.design not in DESIGN_AXES:
            raise ValidationError(
                f"unknown layer design {self.design!r}, expected one of {sorted(DESIGN_AXES)}"
            )
        _check_qubit_count(self.n)
        axes = DESIGN_AXES[self.design]
        theta = np.array(self.theta, dtype=float, copy=True)
        if theta.shape != (self.n, len(axes)):
            raise ValidationError(
                f"theta shape {theta.shape} does not match {self.design} on "
                f"{self.n} qubits (expected {(self.n, len(axes))})"
            )
        if not np.all(np.isfinite(theta)):
            raise ValidationError("layer angles must be finite")
        self.theta = theta

    @property
    def axes(self) -> str:
        return DESIGN_AXES[self.design]


@dataclass
class EncoderSpec:
    """Phase encoder: ``ENCODER_FEATURES`` (64) features consumed over
    ``ceil(64/n)`` rotation sub-layers.

    Sub-layer ``t`` rotates qubit ``j`` by ``pi * x[t*n + j]`` about the axis
    cycling X, Y, Z (``ENCODER_AXIS_CYCLE``) with ``t``.
    """

    n: int

    def __post_init__(self):
        _check_qubit_count(self.n)

    @property
    def sublayers(self) -> int:
        return -(-ENCODER_FEATURES // self.n)


@dataclass
class CircuitSpec:
    """Encoder and parameterized layers; the readout is per-qubit Z
    (:func:`z_expectations`)."""

    n: int
    encoder: EncoderSpec
    layers: list[LayerSpec]

    def __post_init__(self):
        _check_qubit_count(self.n)
        if self.encoder.n != self.n:
            raise ValidationError("encoder qubit count does not match circuit")
        if not self.layers:
            raise ValidationError("a circuit needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.n != self.n:
                raise ValidationError(f"layer {i} acts on {layer.n} qubits, circuit has {self.n}")

    @property
    def depth(self) -> int:
        return len(self.layers)


@lru_cache(maxsize=None)
def _cnot_ring(n: int) -> np.ndarray:
    """Ring CNOT(j, j+1 mod n) for ascending j; identity for n = 1.

    Built once per ``n`` and returned read-only."""
    dim = 1 << n
    ring = np.eye(dim, dtype=np.complex128)
    if n >= 2:
        for j in range(n):
            ring = _cnot_matrix(j, (j + 1) % n, n) @ ring
    ring.setflags(write=False)
    return ring


def _rotation_sublayer(axis: str, angles: np.ndarray) -> np.ndarray:
    """Kron product of one rotation per qubit about a common axis."""
    mat = np.array([[1.0]], dtype=np.complex128)
    for angle in angles:
        mat = np.kron(mat, rotation_matrix_2x2(axis, float(angle)))
    return mat


def layer_factors(layer: LayerSpec) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Layer unitary ``U`` and the factors its angle derivatives need.

    Returns ``(U, upto, after)``: ``upto[a]`` is the product of rotation
    sub-layers ``0..a`` and ``after[a]`` everything applied after sub-layer
    ``a`` (the later sub-layers, then the CNOT ring), so
    ``U = after[a] @ upto[a]`` for every ``a``.
    """
    subs = [_rotation_sublayer(axis, layer.theta[:, a]) for a, axis in enumerate(layer.axes)]
    ring = _cnot_ring(layer.n)
    upto = []
    cur = np.eye(1 << layer.n, dtype=np.complex128)
    for s in subs:
        cur = s @ cur
        upto.append(cur)
    after = [ring] * len(subs)
    for a in range(len(subs) - 2, -1, -1):
        after[a] = after[a + 1] @ subs[a + 1]
    return ring @ cur, upto, after


def build_layer_unitary(layer: LayerSpec) -> Unitary:
    """Per-qubit rotations in design order, then the CNOT ring."""
    return Unitary(layer.n, layer_factors(layer)[0])


def _one_qubit_marginals(w: np.ndarray) -> np.ndarray:
    """Partial traces ``Tr_{!=q} w`` onto each qubit ``q``, shape ``(n, 2, 2)``."""
    dim = w.shape[-1]
    n = dim.bit_length() - 1
    out = np.empty((n, 2, 2), dtype=w.dtype)
    for q in range(n):
        left, right = 1 << q, 1 << (n - q - 1)
        out[q] = np.einsum("iajibj->ab", w.reshape(left, 2, right, left, 2, right))
    return out


def angle_gradients(
    k: np.ndarray, upto: list[np.ndarray], after: list[np.ndarray], axes: str
) -> np.ndarray:
    """``2 Re tr(dU/dtheta[q, a] K)`` for every angle, shape ``(n, len(axes))``.

    The derivative of sub-layer ``a``'s rotation on qubit ``q`` inserts the
    generator ``-i/2 sigma_a`` on that qubit: ``dU = after[a] G upto[a]``
    (Jones & Gacon, arXiv:2009.02823).  With ``W_a = upto[a] K after[a]``,
    ``2 Re tr(dU K) = Re(-i tr(sigma_a Tr_{!=q} W_a)) = Im tr(sigma_a
    Tr_{!=q} W_a)``: two matmuls per sub-layer and one partial trace per
    qubit, with no ``dU`` formed.
    """
    grads = []
    for a, axis in enumerate(axes):
        marg = _one_qubit_marginals(upto[a] @ k @ after[a])
        grads.append(np.einsum("ij,qji->q", PAULIS[axis], marg).imag)
    return np.stack(grads, axis=1)


def encode_vectors(features, spec: EncoderSpec) -> np.ndarray:
    """Phase-encode a ``(N, 64)`` feature array into ``(N, d)`` state vectors.

    The encoder has no entanglers, so each qubit's state is its own
    sub-layer rotations (2x2 matrices) applied to ``|0>``, and the register
    state is the Kronecker product of the ``n`` qubit states: a unit vector
    by construction.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != ENCODER_FEATURES:
        raise ValidationError(
            f"expected {ENCODER_FEATURES} features per sample, got shape {feats.shape}"
        )
    if not np.all((feats >= 0.0) & (feats <= 1.0)):
        raise ValidationError("encoder features must lie in [0, 1]")
    count, n = feats.shape[0], spec.n
    # Features beyond the 64th leave the last sub-layer's qubits unrotated.
    angles = np.zeros((count, spec.sublayers * n))
    angles[:, :ENCODER_FEATURES] = math.pi * feats
    half = (0.5 * angles).reshape(count, spec.sublayers, n, 1, 1)
    cos, sin = np.cos(half), np.sin(half)
    qubits = np.zeros((count, n, 2), dtype=np.complex128)
    qubits[..., 0] = 1.0
    for t in range(spec.sublayers):
        sigma = PAULIS[ENCODER_AXIS_CYCLE[t % len(ENCODER_AXIS_CYCLE)]]
        rot = cos[:, t] * PAULIS["I"] - 1j * sin[:, t] * sigma  # (count, n, 2, 2)
        qubits = (rot * qubits[:, :, None, :]).sum(axis=-1)
    psi = qubits[:, 0]
    for q in range(1, n):
        psi = (psi[:, :, None] * qubits[:, q, None, :]).reshape(count, -1)
    return psi


def pure_states(psi: np.ndarray) -> np.ndarray:
    """Density matrices ``psi psi^dagger`` of a stack ``(..., d)`` of state vectors."""
    return psi[..., :, None] * psi.conj()[..., None, :]


def encode(x, spec: EncoderSpec) -> DensityMatrix:
    """Phase-encode a feature vector into a pure state on ``n`` qubits."""
    feats = np.asarray(x, dtype=float).reshape(1, -1)
    return DensityMatrix(spec.n, pure_states(encode_vectors(feats, spec))[0])


def forward_noise_free(rho0: DensityMatrix, circuit: CircuitSpec) -> list[DensityMatrix]:
    """Exact unitary chain ``rho_i = V_i rho_{i-1} V_i^dagger``."""
    if rho0.n != circuit.n:
        raise ValidationError("input state does not match circuit width")
    states = []
    cur = rho0
    for layer in circuit.layers:
        cur = evolve(cur, build_layer_unitary(layer))
        states.append(cur)
    return states


def layer_chain(rho0, units, noise, rates=None, generators=None) -> list[np.ndarray]:
    """Propagated states ``[t_0, ..., t_L]`` of a stack ``(..., d, d)`` of inputs.

    Layer ``i`` conjugates by ``units[i]`` and applies the true noise
    ``noise[i]``; with ``rates`` (cascaded mode) it then applies the learned
    inverse stack ``rates[i]`` over ``generators``.  Nothing is hermitized
    or validated: the training engine runs this on batches, and the
    validated wrappers below on a batch of one.
    """
    chain = [rho0]
    cur = rho0
    for i, (u, model) in enumerate(zip(units, noise)):
        cur = u @ cur @ u.conj().T
        cur = apply_pauli_fidelities(cur, model.generators, model.rates)
        if rates is not None:
            cur = apply_pauli_fidelities(cur, generators, rates[i], inverse=True)
        chain.append(cur)
    return chain


def _check_chain_inputs(rho0: DensityMatrix, circuit: CircuitSpec, noise) -> list[np.ndarray]:
    """Validate a per-state chain's inputs; return the layer unitaries."""
    if rho0.n != circuit.n:
        raise ValidationError("input state does not match circuit width")
    if len(noise) != circuit.depth:
        raise ValidationError(f"{len(noise)} noise models for {circuit.depth} layers")
    for model in noise:
        if model.n != circuit.n:
            raise ValidationError(
                f"dimension mismatch: circuit on {circuit.n} qubits, noise model on {model.n}"
            )
    return [build_layer_unitary(layer).data for layer in circuit.layers]


def forward_noisy(
    rho0: DensityMatrix, circuit: CircuitSpec, noise: list[NoiseModel]
) -> list[DensityMatrix]:
    """Noisy chain: unitary, then the layer's Pauli channel.

    Neither step can lower the smallest eigenvalue of the validated
    ``rho0``, so the states are built by ``DensityMatrix._derived``."""
    units = _check_chain_inputs(rho0, circuit, noise)
    chain = layer_chain(rho0.data, units, noise)
    return [DensityMatrix._derived(rho0.n, hermitize(x), rho0.quasi) for x in chain[1:]]


def forward_mitigated(
    rho0: DensityMatrix,
    circuit: CircuitSpec,
    noise: list[NoiseModel],
    mitigation: MitigationModel,
    mode: str = "loss_only",
) -> tuple[list[DensityMatrix], list[DensityMatrix]]:
    """Noisy chain plus per-layer mitigated states.

    ``loss_only``: the noisy chain propagates unmitigated and
    ``mitigated[i]`` is the inverse channel applied to ``states[i]``;
    readout uses ``mitigated[-1]``.  ``cascaded``: each layer consumes the
    previous mitigated state, so ``states[i]`` is the pre-mitigation state
    of layer ``i`` and ``mitigated[i]`` the post-mitigation one.
    """
    if mode not in EXECUTION_MODES:
        raise ValidationError(f"unknown execution mode {mode!r}")
    units = _check_chain_inputs(rho0, circuit, noise)
    if mitigation.layers != circuit.depth or mitigation.n != circuit.n:
        raise ValidationError(
            f"mitigation model ({mitigation.layers} layers on {mitigation.n} qubits) does "
            f"not match the circuit ({circuit.depth} layers on {circuit.n} qubits)"
        )
    cascaded = mode == "cascaded"
    gens = mitigation.generators
    rates = np.maximum(mitigation.rates, 0.0)
    outs = layer_chain(rho0.data, units, noise, rates if cascaded else None, gens)[1:]
    # The chain holds one side of each layer's mitigation: the inverse stack
    # gives the other in loss_only mode, its inverse (the channel) in cascaded.
    other = [apply_pauli_fidelities(x, gens, r, inverse=not cascaded) for x, r in zip(outs, rates)]
    pre, hat = (other, outs) if cascaded else (outs, other)
    # A cascaded layer consumes the previous quasi-state.
    states = [
        DensityMatrix(rho0.n, hermitize(x), quasi=rho0.quasi or (cascaded and i > 0))
        for i, x in enumerate(pre)
    ]
    mitigated = [DensityMatrix(rho0.n, hermitize(x), quasi=True) for x in hat]
    return states, mitigated


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


def readout(rho: DensityMatrix, circuit: CircuitSpec) -> np.ndarray:
    """Vector of per-qubit Z expectations ``z_i = Tr(H_i rho)``."""
    if rho.n != circuit.n:
        raise ValidationError("state does not match circuit width")
    return z_expectations(rho.data)


def random_circuit(
    n: int,
    depth: int,
    design: str,
    rng: np.random.Generator,
    theta_scale: float = math.pi,
) -> CircuitSpec:
    """Circuit with angles drawn uniformly from ``[-theta_scale, theta_scale)``."""
    if design not in DESIGN_AXES:
        raise ValidationError(f"unknown design {design!r}")
    p = len(DESIGN_AXES[design])
    layers = [
        LayerSpec(design, n, rng.uniform(-theta_scale, theta_scale, size=(n, p)))
        for _ in range(depth)
    ]
    return CircuitSpec(n, EncoderSpec(n), layers)

