"""Dense references, independent of the kernels they check.

Pauli-Lindblad channels: each factor is applied as an explicit matrix
product ``P rho P^dagger`` with ``P`` from ``noise._pauli_matrix``, one
generator at a time; the adjoint comes from the transposed superoperator
matrix.  Meant for n <= 3.

Encoder: the full encoding unitary as a product of dense Kronecker
sub-layers.

Layer derivatives: every ``dU/dtheta[q, a]`` as a dense matrix, with the
generator embedded on its qubit by Kronecker products and inserted at its
sub-layer's position in the product.

Fidelity: the target-side gradient of the conditioned pair loss with its
own ``eigh`` of ``B^{1/2} A B^{1/2}``.
"""

import numpy as np

from qmit import losses, noise, qsim


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


def _sublayer(axis, angles):
    sub = np.eye(1, dtype=np.complex128)
    for angle in angles:
        sub = np.kron(sub, qsim.rotation_matrix_2x2(axis, float(angle)))
    return sub


def layer_unitary_and_gradients(layer):
    """Layer unitary plus dense ``dU/dtheta[q, a]`` (``grads[q][a]``) for
    every angle: ``suffix[a] (-i/2 sigma_a on qubit q) sub[a] prefix[a]``."""
    n = layer.n
    dim = 1 << n
    subs = [_sublayer(axis, layer.theta[:, a]) for a, axis in enumerate(layer.axes)]
    ring = np.eye(dim, dtype=np.complex128)
    if n >= 2:
        for j in range(n):
            ring = qsim.cnot_gate(j, (j + 1) % n, n).data @ ring
    prefix = [np.eye(dim, dtype=np.complex128)]
    for s in subs:
        prefix.append(s @ prefix[-1])
    suffix = [ring] * len(subs)
    for a in range(len(subs) - 2, -1, -1):
        suffix[a] = suffix[a + 1] @ subs[a + 1]
    grads = [
        [
            suffix[a] @ qsim.embed_one_qubit(-0.5j * qsim.PAULIS[axis], q, n) @ subs[a] @ prefix[a]
            for a, axis in enumerate(layer.axes)
        ]
        for q in range(n)
    ]
    return ring @ prefix[-1], grads


def fb_target_gradient(cache, g_loss):
    """Target-side gradient of the conditioned pair loss w.r.t. the raw
    target, from ``dF/dA = 2 sqrt(F) B^{1/2} N^{-1/2} B^{1/2}`` with
    ``N = B^{1/2} A B^{1/2}`` diagonalized afresh."""
    cache_a, cache_b = cache["cache_a"], cache["cache_b"]

    def power(c, exponent):
        dim = c["fe"].shape[-1]
        spec = (1.0 - c["floor"]) * c["fe"] / c["trace"][..., None] + c["floor"] / dim
        vecs = c["vecs"]
        return (vecs * (spec**exponent)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))

    b_sqrt = power(cache_b, 0.5)
    a_cond = power(cache_a, 1.0)
    en, vn = np.linalg.eigh(qsim.hermitize(b_sqrt @ a_cond @ b_sqrt))
    n_inv_sqrt = (vn / np.sqrt(en)[..., None, :]) @ np.conj(np.swapaxes(vn, -1, -2))
    scale = (np.asarray(g_loss) * (-1.0 / cache["fid"]) * cache["trace_sqrt"])[..., None, None]
    g_a_cond = qsim.hermitize(scale * (b_sqrt @ n_inv_sqrt @ b_sqrt))
    return qsim.hermitize(losses.condition_state_adjoint(g_a_cond, cache_a))
