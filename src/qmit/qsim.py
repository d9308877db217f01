"""Exact density-matrix simulation primitives.

States, gates, unitary evolution, observables and entropy for registers of
up to ten qubits, all as dense complex128 matrices.

Conventions:
    * Qubit 0 is the most significant bit of a computational-basis index,
      so ``|q0 q1 ... q_{n-1}>`` has index ``sum_j q_j * 2**(n-1-j)``.
    * Every operation is a pure function over immutable values; returned
      arrays never alias the inputs.

Validation:
    A :class:`DensityMatrix` built from outside data (``pure_state``,
    ``maximally_mixed``, the encoder, user arrays) gets the full check:
    Hermiticity, unit trace and the ``eigvalsh`` eigenvalue floor.  States
    derived from a validated one by :func:`evolve`,
    :func:`qmit.noise.apply_channel` or :func:`qmit.pqc.forward_noisy`
    check the trace only.  Unitary conjugation keeps the spectrum, and a
    Pauli channel with nonnegative rates is a convex mixture of Pauli
    conjugations, which cannot lower the (concave) smallest eigenvalue, so
    neither step can cross the floor; their data comes from
    :func:`hermitize`, Hermitian bit for bit.  Steps that can cross the
    floor (the inverse channel, amplitude damping, the mitigated forward
    pass) keep the full check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

MAX_QUBITS = 10

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
UNITARY_ATOL = 1e-10
# Mitigated states coming out of a quasi-probability inverse channel may be
# slightly indefinite; the relaxed validation mode tolerates eigenvalues
# down to this floor.
QUASI_EIGENVALUE_FLOOR = -0.05

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _check_qubit_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"qubit count must be a positive integer, got {n!r}")
    if n > MAX_QUBITS:
        raise ValidationError(f"qubit count {n} exceeds the supported maximum {MAX_QUBITS}")


def _as_complex_matrix(data, dim: int, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128, copy=True)
    if arr.shape != (dim, dim):
        raise ValidationError(f"{what} must have shape ({dim}, {dim}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _hermiticity_defect(data: np.ndarray) -> float:
    """Largest ``|x - x^dagger|`` entry; NaN when ``data`` holds a NaN or an
    infinity (``inf - inf``), which every ``not defect <= atol`` check rejects."""
    if not data.size:
        return 0.0
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(data - np.conj(np.swapaxes(data, -1, -2)))))


def hermitize(data: np.ndarray) -> np.ndarray:
    """Symmetrize away the floating-point anti-Hermitian residue."""
    return 0.5 * (data + np.conj(np.swapaxes(data, -1, -2)))


def _check_traces(data: np.ndarray) -> None:
    traces = np.trace(data, axis1=-2, axis2=-1)
    errors = np.abs(traces - 1.0)
    if not errors.max() <= TRACE_ATOL:
        tr = complex(np.ravel(traces)[np.argmax(errors)])
        raise ValidationError(f"density matrix trace is {tr:.12g}, expected 1")


def check_density_matrices(data: np.ndarray, quasi: bool = False) -> None:
    """Raise unless every matrix on the last two axes of ``data`` (one state
    or a stack) is Hermitian, has trace 1 and no eigenvalue below the PSD
    floor (the quasi-state floor if ``quasi``)."""
    if data.size == 0:
        return
    defect = _hermiticity_defect(data)
    if not defect <= HERMITIAN_ATOL:
        raise ValidationError(f"density matrix is not Hermitian (defect {defect:.3e})")
    _check_traces(data)
    floor = QUASI_EIGENVALUE_FLOOR if quasi else -PSD_ATOL
    min_eig = float(np.linalg.eigvalsh(data)[..., 0].min())
    if not min_eig >= floor:
        raise ValidationError(
            f"density matrix has eigenvalue {min_eig:.3e} below the "
            f"{'quasi-state' if quasi else 'PSD'} floor {floor:.3e}"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-1 matrix of dimension ``2**n``, stored read-only.

    ``quasi=True`` relaxes the positivity check for mitigated states, which
    may carry small negative eigenvalues.  Constructing one runs the full
    check; :meth:`_derived` is the trace-only construction for the output
    of a step that cannot lower the input's smallest eigenvalue (see the
    module docstring).
    """

    n: int
    data: np.ndarray
    quasi: bool = False

    def __post_init__(self):
        _check_qubit_count(self.n)
        dim = 1 << self.n
        arr = _as_complex_matrix(self.data, dim, "density matrix")
        object.__setattr__(self, "data", arr)
        check_density_matrices(arr, self.quasi)

    @classmethod
    def _derived(cls, n: int, data: np.ndarray, quasi: bool) -> "DensityMatrix":
        """Trace-checked state for the output of a step that cannot lower
        the smallest eigenvalue of a validated input (module docstring).

        ``data`` must be fresh and Hermitian bit for bit, such as a
        :func:`hermitize` result or a basis permutation of one; it is
        stored, not copied, and made read-only.
        """
        _check_traces(data)
        data.setflags(write=False)
        state = object.__new__(cls)
        for name, value in (("n", n), ("data", data), ("quasi", quasi)):
            object.__setattr__(state, name, value)
        return state

    @property
    def dim(self) -> int:
        return 1 << self.n

    def power(self, exponent: float, rel_floor: float = 0.0) -> np.ndarray:
        """:func:`hermitian_power` of the data, computed once per instance
        and returned read-only.

        The data is read-only, so the memo cannot go stale.  It lives in the
        instance dict, which the frozen dataclass leaves writable.
        """
        memo = self.__dict__.setdefault("_powers", {})
        key = (exponent, rel_floor)
        if key not in memo:
            out = hermitian_power(self.data, exponent, rel_floor=rel_floor)
            out.setflags(write=False)
            memo[key] = out
        return memo[key]


@dataclass(frozen=True)
class Unitary:
    """Unitary matrix of dimension ``2**n``."""

    n: int
    data: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        dim = 1 << self.n
        arr = _as_complex_matrix(self.data, dim, "unitary")
        object.__setattr__(self, "data", arr)
        with np.errstate(invalid="ignore"):
            defect = float(np.max(np.abs(arr @ arr.conj().T - np.eye(dim))))
        if not defect <= UNITARY_ATOL:
            raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return 1 << self.n

    def dagger(self) -> "Unitary":
        return Unitary(self.n, self.data.conj().T)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix of dimension ``2**n``."""

    n: int
    data: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        dim = 1 << self.n
        arr = _as_complex_matrix(self.data, dim, "observable")
        object.__setattr__(self, "data", arr)
        defect = _hermiticity_defect(arr)
        if not defect <= HERMITIAN_ATOL:
            raise ValidationError(f"observable is not Hermitian (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return 1 << self.n


def pure_state(amplitudes) -> DensityMatrix:
    """Outer product ``|psi><psi|`` of a unit-norm amplitude vector."""
    vec = np.asarray(amplitudes, dtype=np.complex128).ravel()
    length = vec.size
    if length < 2 or length & (length - 1):
        raise ValidationError(f"amplitude vector length {length} is not a power of two >= 2")
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= 1e-10:
        raise ValidationError(f"amplitude vector norm is {norm:.12g}, expected 1")
    n = length.bit_length() - 1
    return DensityMatrix(n, np.outer(vec, vec.conj()))


def maximally_mixed(n: int) -> DensityMatrix:
    """The state ``I / 2**n`` with a flat spectrum."""
    _check_qubit_count(n)
    dim = 1 << n
    return DensityMatrix(n, np.eye(dim, dtype=np.complex128) / dim)


def embed_one_qubit(op: np.ndarray, target: int, n: int) -> np.ndarray:
    """Tensor a 2x2 operator with identities on the other ``n - 1`` qubits."""
    _check_qubit_count(n)
    if not 0 <= target < n:
        raise ValidationError(f"target qubit {target} out of range for {n} qubits")
    left = np.eye(1 << target, dtype=np.complex128)
    right = np.eye(1 << (n - target - 1), dtype=np.complex128)
    return np.kron(np.kron(left, np.asarray(op, dtype=np.complex128)), right)


def rotation_matrix_2x2(axis: str, theta: float) -> np.ndarray:
    """``exp(-i theta sigma / 2)`` in closed form."""
    axis = axis.upper()
    if axis not in ("X", "Y", "Z"):
        raise ValidationError(f"rotation axis must be X, Y or Z, got {axis!r}")
    half = 0.5 * float(theta)
    return math.cos(half) * PAULI_I - 1j * math.sin(half) * PAULIS[axis]


def rotation_gate(axis: str, theta: float, target: int, n: int) -> Unitary:
    """Single-qubit rotation about ``axis`` embedded in an ``n``-qubit register."""
    return Unitary(n, embed_one_qubit(rotation_matrix_2x2(axis, theta), target, n))


def _cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    """The controlled-NOT matrix, built afresh on every call."""
    _check_qubit_count(n)
    if not 0 <= control < n or not 0 <= target < n:
        raise ValidationError(f"cnot qubits ({control}, {target}) out of range for {n} qubits")
    if control == target:
        raise ValidationError("cnot control and target must differ")
    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    return embed_one_qubit(p0, control, n) + embed_one_qubit(p1, control, n) @ embed_one_qubit(
        PAULI_X, target, n
    )


@lru_cache(maxsize=None)
def cnot_gate(control: int, target: int, n: int) -> Unitary:
    """Controlled-NOT embedded in an ``n``-qubit register.

    Built once per ``(control, target, n)``; the same read-only gate is
    returned on every later call.  The cache keeps each gate (16 MiB at
    ten qubits) for the life of the process, so the training engine's
    CNOT ring multiplies :func:`_cnot_matrix` results instead."""
    return Unitary(n, _cnot_matrix(control, target, n))


def evolve(rho: DensityMatrix, u: Unitary) -> DensityMatrix:
    """Conjugation ``U rho U†``; preserves trace and spectrum."""
    if rho.n != u.n:
        raise ValidationError(f"dimension mismatch: state on {rho.n} qubits, unitary on {u.n}")
    data = hermitize(u.data @ rho.data @ u.data.conj().T)
    return DensityMatrix._derived(rho.n, data, rho.quasi)


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """``Tr(H rho)`` with the (tiny) imaginary residue discarded."""
    if rho.n != obs.n:
        raise ValidationError(
            f"dimension mismatch: state on {rho.n} qubits, observable on {obs.n}"
        )
    return float(np.trace(obs.data @ rho.data).real)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy ``-sum e_i log e_i`` in nats, with ``0 log 0 := 0``."""
    eigs = np.linalg.eigvalsh(rho.data)
    eigs = np.clip(eigs.real, 0.0, None)
    positive = eigs[eigs > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def hermitian_power(
    data: np.ndarray, power: float, *, floor: float = 0.0, rel_floor: float = 0.0
) -> np.ndarray:
    """Fractional matrix power of a Hermitian matrix via eigendecomposition.

    Eigenvalues are clamped at ``max(e, floor)`` before the power so that
    numerical negatives of order -1e-12 cannot produce complex roots.
    ``rel_floor`` additionally zeroes eigenvalues below that fraction of the
    largest one: for rank-deficient inputs the eigensolver leaves residues
    of order 1e-16 whose fractional powers (e.g. sqrt -> 1e-8) would
    otherwise dominate the error.  Negative powers require a strictly
    positive spectrum.
    """
    eigs, vecs = np.linalg.eigh(hermitize(np.asarray(data, dtype=np.complex128)))
    eigs = np.clip(eigs, max(floor, 0.0), None)
    if rel_floor > 0.0 and eigs.size:
        eigs[eigs < rel_floor * eigs.max()] = 0.0
    if power < 0 and np.any(eigs <= 0.0):
        raise ValidationError("negative matrix power of a singular Hermitian matrix")
    powered = np.power(eigs, power)
    return (vecs * powered) @ vecs.conj().T


def haar_random_unitary(n: int, rng: np.random.Generator) -> Unitary:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The diagonal of R is phase-normalized so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    _check_qubit_count(n)
    dim = 1 << n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return Unitary(n, q)


def random_state_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure-state amplitudes."""
    _check_qubit_count(n)
    dim = 1 << n
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_pure_state(n: int, rng: np.random.Generator) -> DensityMatrix:
    return pure_state(random_state_vector(n, rng))


def random_density_matrix(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state (normalized Wishart)."""
    _check_qubit_count(n)
    dim = 1 << n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = a @ a.conj().T
    return DensityMatrix(n, w / np.trace(w).real)
