"""Dense references, independent of the kernels they check.

Pauli-Lindblad channels: each factor is applied as an explicit matrix
product ``P rho P^dagger`` with ``P`` from ``noise._pauli_matrix``, one
generator at a time; the adjoint comes from the transposed superoperator
matrix.  Meant for n <= 3.

Encoder: the full encoding unitary as a product of dense Kronecker
sub-layers.
"""

import numpy as np

from qmit import noise, qsim


def channel(x, letters, rates, inverse=False):
    """Product of the factors ``w x + (1 - w) P x P^dagger``, or of their
    inverses ``(2w - 1)^{-1} (w x - (1 - w) P x P^dagger)``."""
    for word, rate in zip(letters, rates):
        p = noise._pauli_matrix(word)
        flipped = p @ x @ p.conj().T
        w = 0.5 * (1.0 + np.exp(-2.0 * rate))
        if inverse:
            x = np.exp(2.0 * rate) * (w * x - (1.0 - w) * flipped)
        else:
            x = w * x + (1.0 - w) * flipped
    return x


def superoperator(letters, rates, dim, inverse=False):
    """Matrix ``S`` with ``vec(K(x)) = S vec(x)`` (row-major ``vec``)."""
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return np.stack([channel(e, letters, rates, inverse).ravel() for e in basis], axis=1)


def adjoint(g, letters, rates, inverse=False):
    """``K^dagger`` under the pairing ``tr(g K(x)) = tr(K^dagger(g) x)``.

    ``tr(g y) = vec(g^T) . vec(y)``, so ``vec(K^dagger(g)^T) = S^T vec(g^T)``.
    """
    dim = g.shape[-1]
    s = superoperator(letters, rates, dim, inverse)
    gt = np.swapaxes(g, -1, -2).reshape(-1, dim * dim)
    return np.swapaxes((gt @ s).reshape(g.shape), -1, -2)


def pairing(g, x):
    """``tr(g x)`` summed over leading axes."""
    return np.einsum("...ij,...ji->...", g, x).sum()


def encoder_unitary(x, spec):
    """Full encoding unitary: the sub-layers as dense Kronecker products of
    one rotation per qubit, multiplied in order."""
    n = spec.n
    u = np.eye(1 << n, dtype=np.complex128)
    for t in range(spec.sublayers):
        axis = spec.axes[t % len(spec.axes)]
        sub = np.eye(1, dtype=np.complex128)
        for j in range(n):
            idx = t * n + j
            angle = np.pi * x[idx] if idx < spec.features else 0.0
            sub = np.kron(sub, qsim.rotation_matrix_2x2(axis, angle))
        u = sub @ u
    return u
