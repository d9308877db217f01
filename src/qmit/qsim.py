"""Exact density-matrix simulation primitives.

States, gates and random draws for registers of up to ten qubits, all as
dense complex128 matrices.  Spectral functions (the fidelities and the
divergence) live in :mod:`qmit.losses`.

Conventions:
    * Qubit 0 is the most significant bit of a computational-basis index,
      so ``|q0 q1 ... q_{n-1}>`` has index ``sum_j q_j * 2**(n-1-j)``.
    * Every operation is a pure function over immutable values; returned
      arrays never alias the inputs.

Validation:
    :class:`DensityMatrix` is the one validated state type.  One built from
    outside data (``pure_state``, the encoder, user arrays) gets the full
    check: Hermiticity, unit trace and the ``eigvalsh`` eigenvalue floor.
    The measures of :mod:`qmit.losses` read a state's data as it is and
    check a plain array's Hermiticity on every call.  States derived from a
    validated one by a rotation or CNOT step of
    :func:`qmit.cli.divergence_trace` with Pauli noise check the trace
    only.  Unitary conjugation keeps the spectrum, and a Pauli channel with
    nonnegative rates is a convex mixture of Pauli conjugations, which
    cannot lower the (concave) smallest eigenvalue, so neither step can
    cross the floor; their data comes from :func:`hermitize`, Hermitian bit
    for bit.  A trace step with amplitude damping can cross the floor and
    keeps the full check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_QUBITS = 10

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10

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


def _hermiticity_defect(data: np.ndarray) -> float:
    """Largest ``|x - x^dagger|`` entry; NaN when ``data`` holds a NaN or an
    infinity (``inf - inf``), which every ``not defect <= atol`` check rejects."""
    if not data.size:
        return 0.0
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(data - np.conj(np.swapaxes(data, -1, -2)))))


def hermitize(data: np.ndarray) -> np.ndarray:
    """Symmetrize away the floating-point anti-Hermitian residue:
    ``(data + data^dagger) / 2``, formed in one new C-ordered array."""
    out = np.conj(np.swapaxes(data, -1, -2), out=np.empty(data.shape, np.result_type(data)))
    out += data
    out *= 0.5
    return out


def _check_traces(data: np.ndarray) -> None:
    traces = np.trace(data, axis1=-2, axis2=-1)
    errors = np.abs(traces - 1.0)
    if not errors.max() <= TRACE_ATOL:
        tr = complex(np.ravel(traces)[np.argmax(errors)])
        raise ValidationError(f"density matrix trace is {tr:.12g}, expected 1")


def check_density_matrices(data: np.ndarray) -> None:
    """Raise unless every matrix on the last two axes of ``data`` (one state
    or a stack) is Hermitian, has trace 1 and no eigenvalue below the PSD
    floor."""
    if data.size == 0:
        return
    defect = _hermiticity_defect(data)
    if not defect <= HERMITIAN_ATOL:
        raise ValidationError(f"density matrix is not Hermitian (defect {defect:.3e})")
    _check_traces(data)
    min_eig = float(np.linalg.eigvalsh(data)[..., 0].min())
    if not min_eig >= -PSD_ATOL:
        raise ValidationError(
            f"density matrix has eigenvalue {min_eig:.3e} below the PSD floor {-PSD_ATOL:.3e}"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-1 positive semidefinite matrix of dimension ``2**n``,
    stored read-only.

    Constructing one runs the full check; :meth:`_derived` is the
    trace-only construction for the output of a step that cannot lower the
    input's smallest eigenvalue (see the module docstring).
    """

    n: int
    data: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        dim = 1 << self.n
        arr = np.array(self.data, dtype=np.complex128, copy=True)
        if arr.shape != (dim, dim):
            raise ValidationError(f"density matrix must have shape ({dim}, {dim}), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        check_density_matrices(arr)

    @classmethod
    def _derived(cls, n: int, data: np.ndarray) -> "DensityMatrix":
        """Trace-checked state for the output of a step that cannot lower
        the smallest eigenvalue of a validated input (module docstring).

        ``data`` must be fresh and Hermitian bit for bit, such as a
        :func:`hermitize` result or a basis permutation of one; it is
        stored, not copied, and made read-only.
        """
        _check_traces(data)
        data.setflags(write=False)
        state = object.__new__(cls)
        for name, value in (("n", n), ("data", data)):
            object.__setattr__(state, name, value)
        return state


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


def cnot_permutation(control: int, target: int, n: int) -> np.ndarray:
    """Basis-index map of the controlled-NOT: ``perm[i]`` is ``i`` with bit
    ``target`` flipped when bit ``control`` is set.  The gate is the
    involution ``np.eye(2**n)[perm]``, so ``U rho U^dagger`` is
    ``rho[perm][:, perm]``."""
    _check_qubit_count(n)
    if not 0 <= control < n or not 0 <= target < n:
        raise ValidationError(f"cnot qubits ({control}, {target}) out of range for {n} qubits")
    if control == target:
        raise ValidationError("cnot control and target must differ")
    index = np.arange(1 << n)
    return index ^ (((index >> (n - 1 - control)) & 1) << (n - 1 - target))


def haar_random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The diagonal of R is phase-normalized so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    _check_qubit_count(n)
    dim = 1 << n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_state_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure-state amplitudes."""
    _check_qubit_count(n)
    dim = 1 << n
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_density_matrix(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state (normalized Wishart)."""
    _check_qubit_count(n)
    dim = 1 << n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = a @ a.conj().T
    return DensityMatrix(n, w / np.trace(w).real)
