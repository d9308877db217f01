"""Pauli-Lindblad noise channels and their quasi-probability inverses.

A noise model is a set of Pauli-string generators with nonnegative rates
``lambda``.  Its channel is the product of per-generator factors, each
mixing ``rho`` with ``P rho P`` at weight ``w = (1 + exp(-2 lambda)) / 2``.

The product channel is diagonal in the Pauli basis: the component of
``rho`` along a Pauli string ``b`` is multiplied by the fidelity
``f_b = exp(-2 sum_k lambda_k <b, k>)``, where ``<b, k>`` is 1 when ``b``
and generator ``k`` anticommute, so each anticommuting factor contributes
``2w - 1 = exp(-2 lambda_k)`` (van den Berg, Minev, Kandala, Temme,
Nat. Phys. 19, 1116 (2023), arXiv:2201.09866).  Its exact linear inverse
multiplies by ``1/f_b``; it is trace preserving but not completely
positive, so its outputs may be quasi-states with small negative
eigenvalues.  The rate derivative of the inverse is closed form too:
``d/dlambda_k`` of the output ``y`` is ``y - P_k y P_k``.

One Pauli-fidelity kernel, :func:`apply_pauli_fidelities`, applies every
such channel, its inverse and (being self-adjoint) their adjoints, to a
single matrix or a batch, and :func:`pauli_rate_gradient` contracts the
rate derivative in the Pauli basis.  The kernel picks one of two cases by
reading the generator letters.  When every generator has weight 1 (the
default X, Y, Z on each qubit) the fidelities factor over qubits and the
channel is one 4x4 mix per qubit.  Otherwise the state is taken to the
Pauli basis by one 4x4 transform per qubit, multiplied by the fidelity
table built from the symplectic anticommutation form, and taken back.
Both cases, and any other map that acts on each qubit's (row bit, column
bit) pair alone, run through :func:`apply_qubit_superoperators`: one 4x4
GEMM per qubit in a layout that puts the qubit's pair first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .qsim import PAULIS, DensityMatrix, hermitize, _check_qubit_count

PAULI_LETTERS = "IXYZ"


@lru_cache(maxsize=4096)
def _pauli_matrix(letters: str) -> np.ndarray:
    mat = np.array([[1.0]], dtype=np.complex128)
    for ch in letters:
        mat = np.kron(mat, PAULIS[ch])
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit I/X/Y/Z operators."""

    n: int
    letters: str

    def __post_init__(self):
        _check_qubit_count(self.n)
        if len(self.letters) != self.n:
            raise ValidationError(
                f"pauli string {self.letters!r} has length {len(self.letters)}, expected {self.n}"
            )
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ValidationError(f"invalid pauli letters {sorted(bad)} in {self.letters!r}")

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def matrix(self) -> np.ndarray:
        return _pauli_matrix(self.letters)


def rate_to_weight(rate):
    """``w = (1 + exp(-2 lambda)) / 2``; 1 at zero rate, -> 1/2 as rate grows."""
    return 0.5 * (1.0 + np.exp(-2.0 * np.asarray(rate, dtype=float)))


@dataclass(frozen=True)
class NoiseModel:
    """Pauli generators with nonnegative rates on an ``n``-qubit register."""

    n: int
    generators: tuple[PauliString, ...]
    rates: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        rates = np.array(self.rates, dtype=float, copy=True).ravel()
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        if len(gens) != rates.size:
            raise ValidationError(
                f"{len(gens)} generators but {rates.size} rates"
            )
        for gen in gens:
            if not isinstance(gen, PauliString):
                raise ValidationError(f"generator {gen!r} is not a PauliString")
            if gen.n != self.n:
                raise ValidationError(
                    f"generator {gen.letters!r} acts on {gen.n} qubits, model has {self.n}"
                )
            if gen.is_identity:
                raise ValidationError("channel generators must have a non-identity letter")
        if not np.all(np.isfinite(rates)):
            raise ValidationError("noise rates must be finite")
        if np.any(rates < 0.0):
            raise ValidationError(f"noise rates must be nonnegative, got min {rates.min():.3e}")

    @property
    def weights(self) -> np.ndarray:
        return rate_to_weight(self.rates)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": [
                {"pauli": gen.letters, "lambda": float(rate)}
                for gen, rate in zip(self.generators, self.rates)
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "NoiseModel":
        try:
            n = int(payload["n"])
            entries = payload["generators"]
            gens = tuple(PauliString(n, str(e["pauli"])) for e in entries)
            rates = np.array([float(e["lambda"]) for e in entries])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed noise model JSON: {exc}") from exc
        return cls(n, gens, rates)


def default_generators(n: int) -> tuple[PauliString, ...]:
    """Single-qubit X, Y, Z on every qubit, ordered by qubit then X<Y<Z."""
    _check_qubit_count(n)
    gens = []
    for q in range(n):
        for letter in "XYZ":
            letters = "I" * q + letter + "I" * (n - q - 1)
            gens.append(PauliString(n, letters))
    return tuple(gens)


def depolarizing_model(n: int, rate: float) -> NoiseModel:
    """Uniform rate on every single-qubit X, Y and Z generator."""
    if rate < 0.0:
        raise ValidationError(f"depolarizing rate must be nonnegative, got {rate}")
    gens = default_generators(n)
    return NoiseModel(n, gens, np.full(len(gens), float(rate)))


def single_qubit_model(n: int, qubit: int, rates_xyz) -> NoiseModel:
    """X, Y, Z generators on one qubit only."""
    if not 0 <= qubit < n:
        raise ValidationError(f"qubit {qubit} out of range for {n} qubits")
    gens = tuple(
        PauliString(n, "I" * qubit + letter + "I" * (n - qubit - 1)) for letter in "XYZ"
    )
    return NoiseModel(n, gens, np.asarray(rates_xyz, dtype=float))


def draw_noise_models(
    n: int,
    layers: int,
    seed,
    low: float = 0.002,
    high: float = 0.02,
    generators: tuple[PauliString, ...] | None = None,
) -> list[NoiseModel]:
    """Seeded per-layer, per-generator rates from ``uniform[low, high]``.

    This is the reproducible stand-in for a device calibration; the same
    seed always yields the same rate table.
    """
    if not 0.0 <= low <= high:
        raise ValidationError(f"invalid rate range [{low}, {high}]")
    gens = default_generators(n) if generators is None else generators
    rng = np.random.default_rng(seed)
    table = rng.uniform(low, high, size=(layers, len(gens)))
    return [NoiseModel(n, gens, table[i]) for i in range(layers)]


@dataclass
class MitigationModel:
    """Per-layer learnable rate vectors over a shared generator set.

    Rates are projected back to ``>= 0`` after every optimizer step; the
    array may transiently hold arbitrary finite values inside gradient
    computations.
    """

    n: int
    generators: tuple[PauliString, ...]
    rates: np.ndarray  # shape (layers, len(generators))

    def __post_init__(self):
        _check_qubit_count(self.n)
        self.generators = tuple(self.generators)
        self.rates = np.array(self.rates, dtype=float, copy=True)
        if self.rates.ndim != 2 or self.rates.shape[1] != len(self.generators):
            raise ValidationError(
                f"rate table shape {self.rates.shape} does not match "
                f"{len(self.generators)} generators"
            )
        if not np.all(np.isfinite(self.rates)):
            raise ValidationError("mitigation rates must be finite")

    @property
    def layers(self) -> int:
        return self.rates.shape[0]

    @classmethod
    def zeros(
        cls, n: int, layers: int, generators: tuple[PauliString, ...] | None = None
    ) -> "MitigationModel":
        gens = default_generators(n) if generators is None else tuple(generators)
        return cls(n, gens, np.zeros((layers, len(gens))))

    @classmethod
    def from_noise_models(cls, models: list[NoiseModel]) -> "MitigationModel":
        if not models:
            raise ValidationError("need at least one per-layer noise model")
        first = models[0]
        for m in models:
            if m.generators != first.generators or m.n != first.n:
                raise ValidationError("per-layer models must share one generator set")
        return cls(first.n, first.generators, np.stack([m.rates for m in models]))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "layers": [
                NoiseModel(self.n, self.generators, np.maximum(row, 0.0)).to_json()
                for row in self.rates
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MitigationModel":
        try:
            models = [NoiseModel.from_json(item) for item in payload["layers"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed mitigation model JSON: {exc}") from exc
        return cls.from_noise_models(models)


def save_noise_layers(models: list[NoiseModel], path) -> None:
    payload = {"n": models[0].n, "layers": [m.to_json() for m in models]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_noise_layers(path) -> list[NoiseModel]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return [NoiseModel.from_json(item) for item in payload["layers"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed noise file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Pauli-fidelity kernel
# ---------------------------------------------------------------------------


def _num_qubits(x: np.ndarray) -> int:
    return x.shape[-1].bit_length() - 1


def apply_qubit_superoperators(x: np.ndarray, ops) -> np.ndarray:
    """Apply the one-qubit superoperators ``ops = [(q, S), ...]``, in order,
    to a stack ``x`` of shape ``(..., d, d)``.

    ``S`` is 4x4 and acts on qubit ``q``'s (row bit, column bit) pair, index
    ``2 * row + col``; ``rho -> R rho R^dagger`` is ``np.kron(R, R.conj())``.
    Ops on one qubit are composed first, since ops on different qubits
    commute.  One transpose puts each active qubit's pair first and the
    leading axes and inactive bits last.  Each active qubit is then one GEMM
    ``(4, m)^T @ S^T``, which leaves that pair last, so after the last GEMM
    one transpose takes the result back.  ``x`` is never written; with no
    ops ``x`` itself is returned.
    """
    if not ops:
        return x
    y, order = _superoperators_pairs_last(x, ops)
    return y.transpose(np.argsort(order)).reshape(x.shape)


def _superoperators_pairs_last(x: np.ndarray, ops) -> tuple[np.ndarray, list[int]]:
    """:func:`apply_qubit_superoperators` without its last transpose.

    Returns the result in the layout the GEMMs leave it in: the leading
    axes, the inactive row bits, the inactive column bits, then each active
    qubit's (row bit, column bit) pair in order of first appearance in
    ``ops``.  ``order[k]`` is the axis of ``x`` split into bits (leading
    axes first, then ``n`` row bits and ``n`` column bits) that axis ``k``
    of the result holds.  ``ops`` must not be empty.
    """
    per_qubit = {}
    for q, s in ops:
        per_qubit[q] = s @ per_qubit[q] if q in per_qubit else np.asarray(s)
    dtype = np.result_type(x, np.float64, *per_qubit.values())
    lead, n = x.ndim - 2, _num_qubits(x)
    rows = [lead + q for q in range(n) if q not in per_qubit]
    order = [ax for q in per_qubit for ax in (lead + q, lead + n + q)]
    order += list(range(lead)) + rows + [ax + n for ax in rows]
    split = x.reshape(x.shape[:lead] + (2,) * (2 * n))
    y = np.ascontiguousarray(split.transpose(order), dtype=dtype)
    for s in per_qubit.values():
        y = y.reshape(4, -1).T @ s.T.astype(dtype)
    order = order[2 * len(per_qubit):] + order[: 2 * len(per_qubit)]
    return y.reshape([split.shape[ax] for ax in order]), order


# Unnormalized one-qubit Pauli transform: the 00, 11, 01 and 10 entries
# become twice the I, Z and X components and -2i times the Y component.
_BUTTERFLY = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=float)
_BUTTERFLY.setflags(write=False)


def _pauli_transform(x: np.ndarray) -> np.ndarray:
    """``_BUTTERFLY`` on every qubit: entry ``(i, j)`` becomes ``tr(P x)``
    for the Pauli string ``P`` with X-bits ``i ^ j`` and Z-bits ``i``, up to
    a fixed phase per string; applying it twice multiplies by ``2^n``."""
    return apply_qubit_superoperators(x, [(q, _BUTTERFLY) for q in range(_num_qubits(x))])


def _mix_matrix(fx: float, fy: float, fz: float) -> np.ndarray:
    """One qubit's factor of a separable channel with Pauli fidelities
    ``fx, fy, fz``: ``[[k, 1 - k], [1 - k, k]]`` on the (00, 11) entries,
    ``k = (1 + fz) / 2``, and ``[[a, b], [b, a]]`` on (01, 10),
    ``a, b = (fx +- fy) / 2``."""
    keep = 0.5 * (1.0 + fz)
    # 1 - keep is exact, so the diagonal weights sum to exactly 1 and
    # rounding cannot drift the trace the same way on every call.
    flip = 1.0 - keep
    a, b = 0.5 * (fx + fy), 0.5 * (fx - fy)
    return np.array([[keep, 0, 0, flip], [0, a, b, 0], [0, b, a, 0], [flip, 0, 0, keep]])


@lru_cache(maxsize=256)
def _separable_incidence(letters: tuple[str, ...]) -> np.ndarray | None:
    """``M[k, q, t]`` = 1 when generator ``k`` acts on qubit ``q`` with a
    letter that anticommutes with ``XYZ[t]``; ``None`` unless every generator
    has weight at most 1."""
    n = len(letters[0])
    table = np.zeros((len(letters), n, 3))
    for k, word in enumerate(letters):
        support = [q for q, ch in enumerate(word) if ch != "I"]
        if len(support) > 1:
            return None
        for q in support:
            table[k, q] = [ch != word[q] for ch in "XYZ"]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _anticommutation_mask(word: str) -> np.ndarray:
    """Boolean ``(d, d)``: whether the Pauli string at each entry of the
    ``_pauli_transform`` layout anticommutes with ``word`` (symplectic form)."""
    n = len(word)
    gx = sum(1 << (n - 1 - q) for q, ch in enumerate(word) if ch in "XY")
    gz = sum(1 << (n - 1 - q) for q, ch in enumerate(word) if ch in "YZ")
    rows = np.arange(1 << n)[:, None]
    cols = np.arange(1 << n)[None, :]
    overlap = (((rows ^ cols) & gz) ^ (rows & gx)).astype(np.int64)
    parity = np.zeros_like(overlap)
    for bit in range(n):
        parity ^= (overlap >> bit) & 1
    mask = parity.astype(bool)
    mask.setflags(write=False)
    return mask


def _letters(generators) -> tuple[str, ...]:
    return tuple(gen.letters for gen in generators)


def apply_pauli_fidelities(x: np.ndarray, generators, rates, inverse: bool = False) -> np.ndarray:
    """The Pauli-Lindblad channel of ``generators`` and ``rates`` on ``x``.

    ``x`` has shape ``(..., d, d)``.  The product of the factors
    ``rho -> w rho + (1 - w) P rho P`` multiplies the component of ``rho``
    along each Pauli string ``b`` by its fidelity
    ``f_b = exp(-2 sum_k lambda_k <b, k>)``, where ``<b, k>`` is 1 when ``b``
    and generator ``k`` anticommute; ``inverse=True`` multiplies by ``1/f_b``
    instead.  Rates are used as given: negative values act as the opposite
    map, which finite-difference checks rely on.  The map is self-adjoint
    under ``tr(g x)``.

    When every generator has weight 1 the fidelities factor over qubits and
    each qubit whose fidelities are not all 1 gets one 4x4 mix matrix
    (:func:`_mix_matrix`).  Otherwise ``x`` is taken to the Pauli basis by
    one 4x4 transform per qubit, multiplied by the fidelity table and taken
    back.  Both run through :func:`apply_qubit_superoperators`, so ``x`` is
    never written.  May return ``x`` itself when every rate is zero.
    """
    rates = np.asarray(rates, dtype=float)
    if not np.any(rates):
        return x
    letters = _letters(generators)
    sign = 2.0 if inverse else -2.0
    incidence = _separable_incidence(letters)
    if incidence is not None:
        k, n, _ = incidence.shape
        log_f = sign * (rates @ incidence.reshape(k, 3 * n)).reshape(n, 3)  # over X, Y, Z
        fid = np.exp(log_f)
        active = np.flatnonzero(np.any(log_f != 0.0, axis=1))
        return apply_qubit_superoperators(x, [(q, _mix_matrix(*fid[q])) for q in active])
    exponent = np.zeros((x.shape[-1],) * 2)
    for word, rate in zip(letters, rates):
        exponent[_anticommutation_mask(word)] += rate
    out = _pauli_transform(x)
    out *= np.exp(sign * exponent) / x.shape[-1]
    return _pauli_transform(out)


def pauli_rate_gradient(g: np.ndarray, y: np.ndarray, generators) -> np.ndarray:
    """``Re tr(g (y - P_k y P_k))`` per generator, summed over leading axes.

    When ``y`` is the output of :func:`apply_pauli_fidelities` with
    ``inverse=True``, ``dy/dlambda_k = y - P_k y P_k`` (twice the part of
    ``y`` that anticommutes with ``P_k``), so this is the rate gradient of a
    loss whose gradient with respect to ``y`` is ``g``; for the forward
    channel it is the negative.  Only ``y`` is needed, no per-factor stages.
    Both arguments are taken to the Pauli basis, where each generator's term
    is a sum over the strings it anticommutes with.
    """
    letters = _letters(generators)
    if not letters:
        return np.zeros(0)
    # tr(g D) = sum(g * D^T), and (P y P)^T = P y^T P for a Pauli string P.
    # Both transforms stay in the kernel's pair layout; only their d x d
    # sum over the leading axes is permuted back.
    d, n = g.shape[-1], _num_qubits(g)
    butterflies = [(q, _BUTTERFLY) for q in range(n)]
    tg, order = _superoperators_pairs_last(g, butterflies)
    ty, _ = _superoperators_pairs_last(np.swapaxes(y, -1, -2), butterflies)
    summed = np.einsum("bk,bk->k", tg.reshape(-1, d * d), ty.reshape(-1, d * d)).real
    bits = order[g.ndim - 2:]  # the 2n bit axes, each qubit's pair together
    products = summed.reshape((2,) * 2 * n).transpose(np.argsort(bits)).reshape(d, d)
    scale = 2.0 / d
    return np.array([scale * products[_anticommutation_mask(w)].sum() for w in letters])


# ---------------------------------------------------------------------------
# Channel application (validated DensityMatrix wrappers)
# ---------------------------------------------------------------------------


def _require_dims(rho: DensityMatrix, model: NoiseModel) -> None:
    if rho.n != model.n:
        raise ValidationError(
            f"dimension mismatch: state on {rho.n} qubits, noise model on {model.n}"
        )


def apply_channel(rho: DensityMatrix, model: NoiseModel) -> DensityMatrix:
    """Product channel: each factor mixes ``rho`` with ``P rho P`` at weight w."""
    _require_dims(rho, model)
    data = hermitize(apply_pauli_fidelities(rho.data, model.generators, model.rates))
    return DensityMatrix._derived(rho.n, data, rho.quasi)


def apply_inverse_channel(rho: DensityMatrix, model: NoiseModel) -> DensityMatrix:
    """Exact linear inverse of :func:`apply_channel`; output may be a quasi-state."""
    _require_dims(rho, model)
    data = hermitize(
        apply_pauli_fidelities(rho.data, model.generators, model.rates, inverse=True)
    )
    return DensityMatrix(rho.n, data, quasi=True)


def sampling_overhead(model: NoiseModel, method: str = "exp") -> float:
    """Normalization ``gamma`` of the inverse channel.

    Both closed forms are provided so they can be cross-checked:
    ``exp`` computes ``exp(2 sum lambda)``; ``product`` computes
    ``prod (2 w - 1)^{-1}``.
    """
    if method == "exp":
        return float(np.exp(2.0 * np.sum(model.rates)))
    if method == "product":
        return float(np.prod(1.0 / (2.0 * model.weights - 1.0)))
    raise ValidationError(f"unknown sampling overhead method {method!r}")


def amplitude_damping(rho: DensityMatrix, gamma_ad: float, target: int) -> DensityMatrix:
    """Single-qubit amplitude damping (Kraus pair) on ``target``."""
    if not 0.0 <= gamma_ad <= 1.0:
        raise ValidationError(f"damping probability must be in [0, 1], got {gamma_ad}")
    if not 0 <= target < rho.n:
        raise ValidationError(f"target qubit {target} out of range for {rho.n} qubits")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma_ad)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma_ad)], [0.0, 0.0]], dtype=np.complex128)
    superop = np.kron(k0, k0.conj()) + np.kron(k1, k1.conj())
    data = apply_qubit_superoperators(rho.data, [(target, superop)])
    return DensityMatrix(rho.n, hermitize(data), quasi=rho.quasi)
