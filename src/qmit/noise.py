"""Pauli-Lindblad noise channels and their quasi-probability inverses.

A noise model is a set of Pauli-string generators with nonnegative rates
``lambda``.  Its channel is the product of per-generator factors, each
mixing ``rho`` with ``P rho P`` at weight ``w = (1 + exp(-2 lambda)) / 2``.
A generator is a plain ``n``-letter string over ``IXYZ``, qubit 0 first
(``"XI"`` is X on qubit 0 of two); every function here that takes
generators takes a tuple or a list of such strings.

The product channel is diagonal in the Pauli basis: the component of
``rho`` along a Pauli string ``b`` is multiplied by the fidelity
``f_b = exp(-2 sum_k lambda_k <b, k>)``, where ``<b, k>`` is 1 when ``b``
and generator ``k`` anticommute, so each anticommuting factor contributes
``2w - 1 = exp(-2 lambda_k)`` (van den Berg, Minev, Kandala, Temme,
Nat. Phys. 19, 1116 (2023), arXiv:2201.09866).  Its exact linear inverse
multiplies by ``1/f_b``: it is the channel of the negated rates.  It is
trace preserving but not completely positive, so its outputs may be
quasi-states with small negative eigenvalues.  The rate derivative of the inverse is closed form too:
``d/dlambda_k`` of the output ``y`` is ``y - P_k y P_k``.

Pauli strings have one index throughout: one base-4 digit per qubit, I, X,
Y, Z = 0, 1, 2, 3, qubit 0 the most significant.  It is the kernel's own
layout: :func:`apply_qubit_superoperators` runs one 4x4 GEMM per qubit on
its (row bit, column bit) pair, index ``2 * row + col``, and after the
transform ``_BUTTERFLY`` on every qubit that pair holds the string's digit
(entry ``(-i)^{#Y} tr(P x)``).  Anticommutation is read from one per-letter
table, ``_ANTICOMMUTES``.

One kernel, :func:`apply_pauli_fidelities`, applies every such channel, its
inverse (with negated rates) and (being self-adjoint) their adjoints to a
matrix or a stack: one 4x4 mix per qubit when every generator has weight
1, otherwise the product with :func:`pauli_fidelity_table` on the digits.
On real Pauli coefficients (:func:`qmit.pqc.mitigated_z_readout`) a
channel is that product, or ``diag(1, f_X, f_Y, f_Z)`` per qubit
(:func:`qubit_fidelities`) through :func:`digit_passes`.

The learned inverse, the inverse channel of :func:`default_generators` (X,
Y and Z on each qubit; a ``3n`` rate row per layer), is defined here alone:
the map :func:`learned_inverse`, its input and rate gradients
:func:`learned_inverse_adjoint`, its fidelities :func:`learned_fidelities`
and Z-readout gains :func:`learned_z_gains`, and the log of the most a chain
of them can scale a Pauli string by, :func:`learned_max_log_fidelity`;
:func:`default_models` turns a rate table into noise models.

This module opens no file: :func:`noise_layers_json` and its inverse
:func:`noise_layers_from_json` convert models to and from a noise file's
JSON, which :mod:`qmit.cli` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, check_json_object
from .qsim import _check_qubit_count

PAULI_LETTERS = "IXYZ"


@dataclass(frozen=True)
class NoiseModel:
    """Pauli generators with nonnegative rates on an ``n``-qubit register."""

    n: int
    generators: tuple[str, ...]
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
            if not isinstance(gen, str):
                raise ValidationError(f"generator {gen!r} is not a string of Pauli letters")
            if len(gen) != self.n:
                raise ValidationError(
                    f"pauli string {gen!r} has length {len(gen)}, expected {self.n}"
                )
            bad = set(gen) - set(PAULI_LETTERS)
            if bad:
                raise ValidationError(f"invalid pauli letters {sorted(bad)} in {gen!r}")
            if set(gen) == {"I"}:
                raise ValidationError(f"channel generator {gen!r} has no non-identity letter")
        if not np.all(np.isfinite(rates)):
            raise ValidationError("noise rates must be finite")
        if np.any(rates < 0.0):
            raise ValidationError(f"noise rates must be nonnegative, got min {rates.min():.3e}")

    @property
    def weights(self) -> np.ndarray:
        """``w = (1 + exp(-2 lambda)) / 2``; 1 at zero rate, -> 1/2 as rate grows."""
        return 0.5 * (1.0 + np.exp(-2.0 * self.rates))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": [
                {"pauli": gen, "lambda": float(rate)}
                for gen, rate in zip(self.generators, self.rates)
            ],
        }

    @classmethod
    def from_json(cls, payload) -> "NoiseModel":
        """The model of a :meth:`to_json` payload, its keys and values
        checked as a config's are (:func:`~qmit.errors.check_json_object`)."""
        model_keys = {"n": int, "generators": list}
        check_json_object(payload, model_keys, "noise model", tuple(model_keys))
        entries = payload["generators"]
        entry_keys = {"pauli": str, "lambda": (int, float)}
        for entry in entries:
            check_json_object(entry, entry_keys, "noise model generator", tuple(entry_keys))
        gens = tuple(entry["pauli"] for entry in entries)
        return cls(payload["n"], gens, [entry["lambda"] for entry in entries])


@lru_cache(maxsize=None)
def default_generators(n: int) -> tuple[str, ...]:
    """Single-qubit X, Y, Z on every qubit, ordered by qubit then X<Y<Z: the
    generators of the learned inverse, whose rate rows have ``3n`` entries.
    Qubit ``q``'s three are ``[3q:3q + 3]``."""
    _check_qubit_count(n)
    return tuple("I" * q + ch + "I" * (n - q - 1) for q in range(n) for ch in "XYZ")


def default_models(rates) -> list[NoiseModel]:
    """One :class:`NoiseModel` of :func:`default_generators` per row of a
    ``(layers, 3n)`` rate table: the seeded true noise, and the learned
    inverse's rates as a checkpoint writes them."""
    n = np.shape(rates)[1] // 3
    gens = default_generators(n)
    return [NoiseModel(n, gens, row) for row in rates]


def learned_inverse(x: np.ndarray, rate_row) -> np.ndarray:
    """The inverse channel of :func:`default_generators` with the rate row
    ``rate_row`` (their channel with the negated rates) on a stack ``x``
    of shape ``(..., d, d)``, one 4x4 mix per qubit; may return ``x``
    itself when every rate is zero."""
    return apply_pauli_fidelities(x, default_generators(_num_qubits(x)), -np.asarray(rate_row))


def learned_inverse_adjoint(g: np.ndarray, y: np.ndarray, rate_row) -> tuple[np.ndarray, np.ndarray]:
    """The input gradient (the map is self-adjoint) and the ``(3n,)`` rate
    gradient, summed over leading axes, of :func:`learned_inverse` with
    ``rate_row``, whose output was ``y``, for ``g`` the loss gradient at ``y``.

    ``dy/dlambda_k = y - P_k y P_k``, so the rate gradient is ``(2/d) sum_b
    Re(tr(P_b g) tr(P_b y))`` over the strings ``b`` that anticommute with
    ``P_k``: the product of the Pauli digits of ``g`` and of ``y^T``
    (``P_b^T = (-1)^{#Y} P_b`` cancels the butterfly's ``(-i)^{#Y}``).  A
    letter on qubit ``q`` anticommutes with ``b`` when ``b``'s digit ``q``
    does, so qubit ``q``'s rates read one marginal of that product."""
    n = _num_qubits(g)
    butterflies = [(q, _BUTTERFLY) for q in range(n)]
    tg, _ = _superoperators_pairs_last(g, butterflies)
    ty, _ = _superoperators_pairs_last(np.swapaxes(y, -1, -2), butterflies)
    product = np.einsum("bk,bk->k", tg.reshape(-1, 4**n), ty.reshape(-1, 4**n)).real
    del tg, ty  # free both transforms before the inverse's output is formed
    marginals = np.stack([np.einsum("aib->i", product.reshape(4**q, 4, -1)) for q in range(n)])
    anti = np.stack([_ANTICOMMUTES[ch] for ch in "XYZ"], axis=1)
    grad = (2.0 / g.shape[-1]) * (marginals @ anti)
    return learned_inverse(g, rate_row), grad.ravel()


def learned_fidelities(rate_row) -> np.ndarray:
    """:func:`qubit_fidelities` ``(n, 3)`` of the learned inverse with the
    rate row ``rate_row``: those of the negated rates."""
    return qubit_fidelities(default_generators(len(rate_row) // 3), -np.asarray(rate_row))


def learned_z_gains(rate_row) -> np.ndarray:
    """``Tr(Z_q y) / Tr(Z_q x)`` per qubit for ``y`` the learned inverse of
    any ``x`` with the rate row ``rate_row``, shape ``(n,)``: the Z column
    of :func:`learned_fidelities`, ``exp(2 (lambda_qX + lambda_qY))``, since
    only ``X_q`` and ``Y_q`` anticommute with ``Z_q``."""
    return learned_fidelities(rate_row)[:, 2]


def learned_max_log_fidelity(rates) -> float:
    """The largest ``log`` of the factor by which the chain of learned
    inverses with the finite ``(layers, 3n)`` rate table ``rates`` can scale
    a Pauli string, found without ``exp``.  Qubit ``q``'s letter ``t`` gets
    ``2 (lambda_qX + lambda_qY + lambda_qZ - lambda_qt)`` (the other two
    letters anticommute with it), so a layer's largest is twice the sum over
    qubits of the three rates' sum less their least, and the chain's is the
    sum over layers; a true noise's fidelities are at most 1 and can only
    lower it.  ``inf`` when that sum overflows."""
    per_qubit = np.asarray(rates, dtype=float).reshape(len(rates), -1, 3)
    with np.errstate(over="ignore"):
        return float(2.0 * np.sum(per_qubit.sum(axis=2) - per_qubit.min(axis=2)))


def draw_noise_models(
    n: int,
    layers: int,
    seed,
    low: float = 0.002,
    high: float = 0.02,
) -> list[NoiseModel]:
    """Seeded per-layer rates of :func:`default_generators` from
    ``uniform[low, high]``.

    This is the reproducible stand-in for a device calibration; the same
    seed always yields the same rate table.
    """
    if not 0.0 <= low <= high:
        raise ValidationError(f"invalid rate range [{low}, {high}]")
    _check_qubit_count(n)
    return default_models(np.random.default_rng(seed).uniform(low, high, size=(layers, 3 * n)))


def noise_layers_json(models: list[NoiseModel]) -> dict:
    """``{"n", "layers"}`` of per-layer models, the format of a noise file
    and of a checkpoint's learned rates; each layer reads back through
    :meth:`NoiseModel.from_json`."""
    return {"n": models[0].n, "layers": [m.to_json() for m in models]}


def noise_layers_from_json(payload) -> list[NoiseModel]:
    """The per-layer models of a :func:`noise_layers_json` payload (a noise
    file's parsed JSON), checked as :meth:`NoiseModel.from_json` checks
    each layer; a top-level ``"n"`` must be every layer's ``n``."""
    check_json_object(payload, {"n": int, "layers": list}, "noise file", ("layers",))
    models = [NoiseModel.from_json(item) for item in payload["layers"]]
    if any(model.n != payload.get("n", model.n) for model in models):
        qubits = [model.n for model in models]
        raise ValidationError(f'noise file: "n" is {payload["n"]}, its layers act on {qubits} qubits')
    return models


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
    of :func:`digit_passes`, which leaves that pair last, so after the last
    GEMM one transpose takes the result back.  The axis orders depend only
    on the number of leading axes, ``n`` and the active qubits, and are
    built once per such layout (:func:`_pair_layout`), so a call on a small
    state costs little beyond its two copies and its GEMMs.  ``x`` is never
    written; with no ops ``x`` itself is returned.
    """
    if not ops:
        return x
    y, undo = _superoperators_pairs_last(x, ops)
    return y.transpose(undo).reshape(x.shape)


@lru_cache(maxsize=1024)
def _pair_layout(lead: int, n: int, active: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The kernel's axis orders for ``lead`` leading axes and ``n`` qubits
    whose ``active`` ones get a GEMM, in that order: the transpose that puts
    the active pairs first, and the transpose that takes the layout after
    the last GEMM (each GEMM moves one pair last) back."""
    rows = [lead + q for q in range(n) if q not in active]
    first = [ax for q in active for ax in (lead + q, lead + n + q)]
    first += list(range(lead)) + rows + [ax + n for ax in rows]
    done = first[2 * len(active):] + first[: 2 * len(active)]
    undo = sorted(range(len(done)), key=done.__getitem__)
    return tuple(first), tuple(undo)


def _superoperators_pairs_last(x: np.ndarray, ops) -> tuple[np.ndarray, tuple]:
    """:func:`apply_qubit_superoperators` without its last transpose.

    Returns the result in the layout the GEMMs leave it in: the leading
    axes, the inactive row bits, the inactive column bits, then each active
    qubit's (row bit, column bit) pair in order of first appearance in
    ``ops``; and ``undo``, the transpose that takes it back to ``x``'s
    axes split into bits.  ``ops`` must not be empty.
    """
    lead, n = x.ndim - 2, _num_qubits(x)
    per_qubit = {}
    for q, s in ops:
        if not 0 <= q < n:
            raise ValidationError(f"qubit {q} out of range for {n} qubits")
        per_qubit[q] = s @ per_qubit[q] if q in per_qubit else np.asarray(s)
    dtype = np.result_type(x, np.float64, *per_qubit.values())
    first, undo = _pair_layout(lead, n, tuple(per_qubit))
    split = x.shape[:lead] + (2,) * (2 * n)
    ops = [s.astype(dtype) for s in per_qubit.values()]
    # Always a copy, which the passes overwrite: where the layout is the
    # identity (one qubit, no leading axes) ``ascontiguousarray`` would
    # return ``x`` itself.  Nothing here holds the copy, so the passes' two
    # buffers are all this call keeps.
    y = digit_passes(x.reshape(split).transpose(first).astype(dtype, order="C").reshape(1, -1), ops)
    return y.reshape(split), undo


def digit_passes(obs: np.ndarray, ops, spare: np.ndarray | None = None) -> np.ndarray:
    """``ops[k]`` (4x4) applied to the ``k``-th base-4 digit of every row of
    ``obs``, shape ``(rows, 4^m r)``, the first digit the most significant.

    Each op is one batched GEMM ``(rows, 4^(m-1) r, 4) @ op^T`` that takes
    the leading digit and leaves it last, so after ``m`` passes on Pauli
    digits (``r = 1``) the digits are back in order and no transpose is
    needed; the kernel's pairs are such digits.

    The passes run back and forth between ``obs``, which is overwritten,
    and ``spare``, of the same shape and dtype (allocated here when
    ``None``), so a call allocates at most that one array.  Both must be
    C-contiguous, and the passes' results must have ``obs``'s dtype.
    Returns whichever of the two holds the result: ``obs`` itself after an
    even number of passes, else ``spare``."""
    rows = obs.shape[0]
    src, dst = obs, np.empty(obs.shape, obs.dtype) if spare is None else spare
    for op in ops:
        np.matmul(src.reshape(rows, 4, -1).transpose(0, 2, 1), op.T, out=dst.reshape(rows, -1, 4))
        src, dst = dst, src
    return src


# The unnormalized one-qubit Pauli transform: pair entry 2 * row + col
# becomes the I, X, Y, Z digit, tr(P x) times 1, 1, -i, 1.  Applied twice it
# multiplies by 2.
_BUTTERFLY = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=float)
_BUTTERFLY.setflags(write=False)


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


# _ANTICOMMUTES[ch][a]: whether the letter ch anticommutes with IXYZ[a].
_ANTICOMMUTES = {
    ch: np.array([ch != "I" and other not in ("I", ch) for other in PAULI_LETTERS])
    for ch in PAULI_LETTERS
}


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
            table[k, q] = _ANTICOMMUTES[word[q]][1:]
    table.setflags(write=False)
    return table


def apply_pauli_fidelities(x: np.ndarray, generators, rates) -> np.ndarray:
    """The Pauli-Lindblad channel of ``generators`` and ``rates`` on ``x``.

    ``x`` has shape ``(..., d, d)``.  The product of the factors
    ``rho -> w rho + (1 - w) P rho P`` multiplies the component of ``rho``
    along each Pauli string ``b`` by its fidelity
    ``f_b = exp(-2 sum_k lambda_k <b, k>)``, where ``<b, k>`` is 1 when ``b``
    and generator ``k`` anticommute.  Rates are used as given: negated
    rates multiply by ``1/f_b``, the inverse channel, which the learned
    inverse and finite-difference checks rely on.  The map is self-adjoint
    under ``tr(g x)``.

    When every generator has weight 1 the fidelities factor over qubits and
    the channel is the mixes of :func:`pauli_mix_superoperators`, applied by
    :func:`apply_qubit_superoperators`.  Otherwise one ``_BUTTERFLY`` pass
    per qubit takes ``x`` to the Pauli digits of the kernel's pair layout,
    the result is multiplied by :func:`pauli_fidelity_table` over ``d`` and
    passed back (:func:`digit_passes`), and one transpose restores the
    layout of ``x``; the passes back overwrite the digits and one spare, so
    either path peaks near two stacks the size of ``x``.
    ``x`` is never written.
    May return ``x`` itself when every rate is zero; otherwise the
    generators must act on the qubits of ``x``.
    """
    rates = np.asarray(rates, dtype=float)
    if not np.any(rates):
        return x
    if len(generators[0]) != _num_qubits(x):
        raise ValidationError(
            f"dimension mismatch: states on {_num_qubits(x)} qubits, generators on {len(generators[0])}"
        )
    mixes = pauli_mix_superoperators(generators, rates)
    if mixes is not None:
        return apply_qubit_superoperators(x, mixes)
    n = _num_qubits(x)
    # The passes back run in the scaled digits' buffer and one spare.
    y = digit_passes(_scaled_pauli_digits(x, pauli_fidelity_table(generators, rates) / x.shape[-1]),
                     [_BUTTERFLY] * n)
    _, undo = _pair_layout(x.ndim - 2, n, tuple(range(n)))
    return y.reshape(x.shape[:-2] + (2,) * (2 * n)).transpose(undo).reshape(x.shape)


def _scaled_pauli_digits(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The unnormalized Pauli digits of ``x`` (one ``_BUTTERFLY`` pass per
    qubit), shape ``(rows, 4^n)`` in the kernel's pair layout, times
    ``scale`` of shape ``(4^n,)``."""
    y, _ = _superoperators_pairs_last(x, [(q, _BUTTERFLY) for q in range(_num_qubits(x))])
    y = y.reshape(-1, scale.size)
    y *= scale
    return y


def qubit_fidelities(generators, rates):
    """Each qubit's Pauli fidelities ``f_X, f_Y, f_Z``, shape ``(n, 3)``, of
    the channel of ``generators`` of weight at most 1; ``None`` when some
    generator has weight 2 or more.  Then the channel multiplies each Pauli
    string by the product of its letters' fidelities (``f_I = 1``)."""
    incidence = _separable_incidence(tuple(generators))
    if incidence is None:
        return None
    k, n, _ = incidence.shape
    return np.exp(-2.0 * (np.asarray(rates, dtype=float) @ incidence.reshape(k, 3 * n)).reshape(n, 3))


def pauli_mix_superoperators(generators, rates):
    """The separable case of :func:`apply_pauli_fidelities` as kernel ops.

    For ``generators`` of weight at most 1, returns ``[(q, S), ...]`` for
    :func:`apply_qubit_superoperators`: one :func:`_mix_matrix` of its
    :func:`qubit_fidelities` per qubit whose fidelities are not all 1.
    Returns ``None`` when some generator has weight 2 or more.
    """
    fid = qubit_fidelities(generators, rates)
    if fid is None:
        return None
    return [(q, _mix_matrix(*row)) for q, row in enumerate(fid.tolist()) if row != [1.0, 1.0, 1.0]]


@lru_cache(maxsize=1024)
def _anticommuting_strings(word: str) -> np.ndarray:
    """Whether each Pauli string anticommutes with ``word``, read-only: the
    parity of its letters that anticommute with ``word``'s, as a bool array
    over the digits of the qubits from ``word``'s first non-identity letter
    to the last, which broadcasts over the qubits before it."""
    n, parity = len(word), np.zeros((), dtype=bool)
    for q, ch in enumerate(word):
        if ch != "I":
            parity = parity ^ _ANTICOMMUTES[ch].reshape((4,) + (1,) * (n - 1 - q))
    parity.setflags(write=False)
    return parity


def pauli_fidelity_table(generators, rates) -> np.ndarray:
    """Fidelity ``f_b`` of every Pauli string ``b`` under the channel of
    ``generators`` (any weight) and ``rates``, shape ``(4^n,)``: one base-4
    digit per qubit (I, X, Y, Z), qubit 0 the most significant.

    Each generator's term of the exponent is its
    :func:`_anticommuting_strings` table; terms on the same qubits are
    summed before they are broadcast over all ``4^n`` strings."""
    terms = {}
    for word, rate in zip(generators, rates):
        parity = _anticommuting_strings(word)
        terms[parity.shape] = terms.get(parity.shape, 0.0) + rate * parity
    exponent = np.broadcast_to(sum(terms.values(), 0.0), (4,) * len(generators[0]))
    return np.exp(-2.0 * exponent).ravel()


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


def amplitude_damping_superoperator(gamma: float) -> np.ndarray:
    """4x4 superoperator of single-qubit amplitude damping with probability
    ``gamma``, the Kraus pair ``K0 = diag(1, sqrt(1 - gamma))`` and
    ``K1 = sqrt(gamma) |0><1|``, for :func:`apply_qubit_superoperators`.

    The map is completely positive, but unlike a Pauli channel it can lower
    the smallest eigenvalue, so its outputs need the full state check.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"damping probability must be in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return np.kron(k0, k0) + np.kron(k1, k1)
