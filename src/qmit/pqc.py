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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .noise import MitigationModel, NoiseModel, apply_channel, apply_inverse_channel
from .qsim import (
    PAULIS,
    DensityMatrix,
    Observable,
    Unitary,
    check_density_matrices,
    cnot_gate,
    embed_one_qubit,
    evolve,
    hermitize,
    rotation_matrix_2x2,
    _check_qubit_count,
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
    """Phase encoder: 64 features consumed over ``ceil(64/n)`` rotation sub-layers.

    Sub-layer ``t`` rotates qubit ``j`` by ``pi * x[t*n + j]`` about the axis
    cycling X, Y, Z with ``t``.
    """

    n: int
    features: int = ENCODER_FEATURES
    axes: str = ENCODER_AXIS_CYCLE

    def __post_init__(self):
        _check_qubit_count(self.n)
        if self.features != ENCODER_FEATURES:
            raise ValidationError(f"encoder consumes exactly {ENCODER_FEATURES} features")
        if self.axes != ENCODER_AXIS_CYCLE:
            raise ValidationError(f"encoder axis cycle must be {ENCODER_AXIS_CYCLE!r}")

    @property
    def sublayers(self) -> int:
        return -(-self.features // self.n)


@dataclass
class CircuitSpec:
    """Encoder, parameterized layers, and the fixed Z readout observables."""

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
        self._observables = tuple(
            Observable(self.n, embed_one_qubit(PAULIS["Z"], i, self.n)) for i in range(self.n)
        )

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def observables(self) -> tuple[Observable, ...]:
        return self._observables


def _cnot_ring(n: int) -> np.ndarray:
    """Ring CNOT(j, j+1 mod n) for ascending j; identity for n = 1."""
    dim = 1 << n
    ring = np.eye(dim, dtype=np.complex128)
    if n >= 2:
        for j in range(n):
            ring = cnot_gate(j, (j + 1) % n, n).data @ ring
    return ring


def _rotation_sublayer(axis: str, angles: np.ndarray) -> np.ndarray:
    """Kron product of one rotation per qubit about a common axis."""
    mat = np.array([[1.0]], dtype=np.complex128)
    for angle in angles:
        mat = np.kron(mat, rotation_matrix_2x2(axis, float(angle)))
    return mat


def build_layer_unitary(layer: LayerSpec) -> Unitary:
    """Per-qubit rotations in design order, then the CNOT ring."""
    u = np.eye(1 << layer.n, dtype=np.complex128)
    for a, axis in enumerate(layer.axes):
        u = _rotation_sublayer(axis, layer.theta[:, a]) @ u
    return Unitary(layer.n, _cnot_ring(layer.n) @ u)


def layer_unitary_and_gradients(layer: LayerSpec) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """Layer unitary plus ``dU/dtheta[q, a]`` for every angle.

    The derivative of a rotation factor is ``-i/2 sigma`` times the factor,
    inserted at the generating sub-layer's position in the product.
    """
    n = layer.n
    axes = layer.axes
    subs = [_rotation_sublayer(axis, layer.theta[:, a]) for a, axis in enumerate(axes)]
    ring = _cnot_ring(n)

    # prefix[a] = product of sub-layers applied before sub-layer a
    prefix = [np.eye(1 << n, dtype=np.complex128)]
    for s in subs:
        prefix.append(s @ prefix[-1])
    u = ring @ prefix[-1]

    # suffix[a] = everything applied after sub-layer a (including the ring)
    suffix = [ring] * len(axes)
    for a in range(len(axes) - 2, -1, -1):
        suffix[a] = suffix[a + 1] @ subs[a + 1]

    grads: list[list[np.ndarray]] = []
    for q in range(n):
        per_qubit = []
        for a, axis in enumerate(axes):
            gen = embed_one_qubit(-0.5j * PAULIS[axis], q, n)
            per_qubit.append(suffix[a] @ gen @ subs[a] @ prefix[a])
        grads.append(per_qubit)
    return u, grads


def _product_states(features: np.ndarray, spec: EncoderSpec) -> np.ndarray:
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[1] != spec.features:
        raise ValidationError(
            f"expected {spec.features} features per sample, got shape {feats.shape}"
        )
    if not np.all((feats >= 0.0) & (feats <= 1.0)):
        raise ValidationError("encoder features must lie in [0, 1]")
    count, n = feats.shape[0], spec.n
    # Features beyond the 64th leave the last sub-layer's qubits unrotated.
    angles = np.zeros((count, spec.sublayers * n))
    angles[:, : spec.features] = math.pi * feats
    half = (0.5 * angles).reshape(count, spec.sublayers, n, 1, 1)
    cos, sin = np.cos(half), np.sin(half)
    qubits = np.zeros((count, n, 2), dtype=np.complex128)
    qubits[..., 0] = 1.0
    for t in range(spec.sublayers):
        sigma = PAULIS[spec.axes[t % len(spec.axes)]]
        rot = cos[:, t] * PAULIS["I"] - 1j * sin[:, t] * sigma  # (count, n, 2, 2)
        qubits = (rot * qubits[:, :, None, :]).sum(axis=-1)
    psi = qubits[:, 0]
    for q in range(1, n):
        psi = (psi[:, :, None] * qubits[:, q, None, :]).reshape(count, -1)
    return psi[:, :, None] * psi.conj()[:, None, :]


def encode_batch(features, spec: EncoderSpec) -> np.ndarray:
    """Phase-encode a ``(N, 64)`` feature array into ``(N, d, d)`` pure states.

    The encoder has no entanglers, so each qubit's state is its own
    sub-layer rotations (2x2 matrices) applied to ``|0>``, and the register
    state is the Kronecker product of the ``n`` qubit states.  Every state
    passes the :class:`DensityMatrix` check.
    """
    states = _product_states(features, spec)
    check_density_matrices(states)
    return states


def encode(x, spec: EncoderSpec) -> DensityMatrix:
    """Phase-encode a feature vector into a pure state on ``n`` qubits."""
    feats = np.asarray(x, dtype=float).reshape(1, -1)
    return DensityMatrix(spec.n, _product_states(feats, spec)[0])


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


def forward_noisy(
    rho0: DensityMatrix, circuit: CircuitSpec, noise: list[NoiseModel]
) -> list[DensityMatrix]:
    """Noisy chain: unitary, then the layer's Pauli channel."""
    if rho0.n != circuit.n:
        raise ValidationError("input state does not match circuit width")
    if len(noise) != circuit.depth:
        raise ValidationError(
            f"{len(noise)} noise models for {circuit.depth} layers"
        )
    states = []
    cur = rho0
    for layer, model in zip(circuit.layers, noise):
        cur = apply_channel(evolve(cur, build_layer_unitary(layer)), model)
        states.append(cur)
    return states


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
    if rho0.n != circuit.n:
        raise ValidationError("input state does not match circuit width")
    if len(noise) != circuit.depth or mitigation.layers != circuit.depth:
        raise ValidationError(
            f"layer count mismatch: circuit {circuit.depth}, noise {len(noise)}, "
            f"mitigation {mitigation.layers}"
        )
    states: list[DensityMatrix] = []
    mitigated: list[DensityMatrix] = []
    cur = rho0
    for i, (layer, model) in enumerate(zip(circuit.layers, noise)):
        pre = apply_channel(evolve(cur, build_layer_unitary(layer)), model)
        hat = apply_inverse_channel(pre, mitigation.layer_model(i))
        states.append(pre)
        mitigated.append(hat)
        cur = hat if mode == "cascaded" else pre
    return states, mitigated


@lru_cache(maxsize=None)
def z_sign_table(n: int) -> np.ndarray:
    """Row ``i`` holds the diagonal of ``Z`` on qubit ``i``: ``+1`` where the
    qubit's bit is 0, ``-1`` where it is 1; shape ``(n, 2^n)``, read-only."""
    idx = np.arange(1 << n)
    table = np.stack([1.0 - 2.0 * ((idx >> (n - 1 - i)) & 1) for i in range(n)])
    table.setflags(write=False)
    return table


def readout(rho: DensityMatrix, circuit: CircuitSpec) -> np.ndarray:
    """Vector of per-qubit Z expectations ``z_i = Tr(H_i rho)``."""
    if rho.n != circuit.n:
        raise ValidationError("state does not match circuit width")
    diag = np.real(np.diagonal(rho.data))
    signs = z_sign_table(circuit.n)
    z = np.empty(circuit.n)
    for i in range(circuit.n):
        z[i] = float(np.dot(signs[i], diag))
    return z


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


def circuit_to_json(circuit: CircuitSpec) -> dict:
    return {
        "n": circuit.n,
        "layers": [
            {"design": layer.design, "theta": layer.theta.tolist()} for layer in circuit.layers
        ],
        "encoder": {"axes": circuit.encoder.axes},
    }


def circuit_from_json(payload: dict) -> CircuitSpec:
    try:
        n = int(payload["n"])
        layers = [
            LayerSpec(str(item["design"]), n, np.asarray(item["theta"], dtype=float))
            for item in payload["layers"]
        ]
        axes = str(payload.get("encoder", {}).get("axes", ENCODER_AXIS_CYCLE))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed circuit JSON: {exc}") from exc
    return CircuitSpec(n, EncoderSpec(n, axes=axes), layers)
