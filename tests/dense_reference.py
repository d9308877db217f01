"""Dense references, independent of the kernels they check.

Pauli strings: Kronecker products of 2x2 Pauli matrices
(:func:`pauli_matrix`).

Pauli-Lindblad channels: each factor is applied as an explicit matrix
product ``P rho P^dagger`` with ``P`` from :func:`pauli_matrix`, one
generator at a time; the adjoint comes from the transposed superoperator
matrix.  Meant for n <= 3.

Rotations: ``cos(theta/2) I - i sin(theta/2) sigma`` in closed form
(:func:`rotation`), one angle at a time.

One-qubit operators: a 2x2 matrix Kronecker-embedded in ``n`` qubits
(:func:`embed_one_qubit`); a one-qubit marginal entry by entry as the
trace against an embedded matrix unit (:func:`one_qubit_marginal`).

One-qubit superoperators: each 4x4 op Kronecker-embedded as a d^2 x d^2
matrix on the row-major ``vec``, multiplied in order.  Meant for n <= 4.

Encoder: the full encoding unitary as a product of dense Kronecker
sub-layers.

Random layers: ``pqc.LayerSpec`` angles drawn uniformly, one ``(n, p)``
array per layer (:func:`random_layers`), for tests that need circuits.

Layer factors: the unitary and the partial products its derivatives need,
as plain matrix products starting from the identity, with dense CNOTs.

Layer derivatives: every ``dU/dtheta[q, a]`` as a dense matrix, with the
generator embedded on its qubit by Kronecker products and inserted at its
sub-layer's position in the product.

CNOT: the permutation of basis states it is.

States: the maximally mixed state ``I/d`` (:func:`maximally_mixed`) and
the conjugation ``u rho u^dagger`` of a state (:func:`conjugate`), each a
fully checked ``qsim.DensityMatrix``.

Layer chain: per-sample dense conjugations and channels, with each layer's
learned inverse inline (cascaded) or only before the readout (loss_only);
the readout as ``tr(Z_i rho)`` with embedded ``Z_i``.

Matrix powers: ``rho^p`` of a Hermitian matrix from its ``eigh``, with
negative eigenvalues and those below a fraction of the largest zeroed
(:func:`hermitian_power`).

Uhlmann fidelity: the textbook ``(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2``
(:func:`fidelity`): each state projected to PSD by its ``eigh`` and
rebuilt, ``sqrt(sigma)`` as a matrix, the sandwich as two products and its
``eigvalsh``.

Conditioned fidelity: the conditioned pair loss and both its gradients in
matrix form (every conditioned state, square root and adjoint rebuilt as a
d x d matrix and rotated in the standard basis), and the target-side
gradient with its own ``eigh`` of ``B^{1/2} A B^{1/2}``.
"""

import math
from functools import lru_cache

import numpy as np

from qmit import losses, pqc, qsim


@lru_cache(maxsize=4096)
def pauli_matrix(letters):
    """The Pauli string ``letters`` (e.g. ``"XIZ"``) as a dense matrix, read-only."""
    mat = np.array([[1.0]], dtype=np.complex128)
    for ch in letters:
        mat = np.kron(mat, qsim.PAULIS[ch])
    mat.setflags(write=False)
    return mat


def random_layers(n, depth, design, rng, theta_scale=math.pi):
    """``depth`` layers of ``design`` on ``n`` qubits with angles drawn
    uniformly from ``[-theta_scale, theta_scale)``, one layer after another."""
    p = len(pqc.DESIGN_AXES[design])
    return [
        pqc.LayerSpec(design, n, rng.uniform(-theta_scale, theta_scale, size=(n, p)))
        for _ in range(depth)
    ]


def rotation(axis, angle):
    """``exp(-i angle sigma / 2)`` for the Pauli ``axis`` (``"X"``, ``"Y"`` or ``"Z"``)."""
    half = 0.5 * float(angle)
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * qsim.PAULIS[axis]


def channel(x, letters, rates, inverse=False):
    """Product of the factors ``w x + (1 - w) P x P^dagger``, or of their
    inverses ``(2w - 1)^{-1} (w x - (1 - w) P x P^dagger)``."""
    for word, rate in zip(letters, rates):
        p = pauli_matrix(word)
        flipped = p @ x @ p.conj().T
        w = 0.5 * (1.0 + np.exp(-2.0 * rate))
        if inverse:
            x = np.exp(2.0 * rate) * (w * x - (1.0 - w) * flipped)
        else:
            x = w * x + (1.0 - w) * flipped
    return x


def embed_one_qubit(op, target, n):
    """Tensor a 2x2 operator with identities on the other ``n - 1`` qubits."""
    left = np.eye(1 << target, dtype=np.complex128)
    right = np.eye(1 << (n - target - 1), dtype=np.complex128)
    return np.kron(np.kron(left, np.asarray(op, dtype=np.complex128)), right)


def one_qubit_marginal(rho, target):
    """The partial trace of ``rho`` onto qubit ``target``: entry ``(i, j)``
    is ``tr(rho embed(|j><i|))``."""
    n = rho.shape[-1].bit_length() - 1
    units = np.eye(4).reshape(2, 2, 2, 2)  # units[i, j] = |i><j|
    return np.array(
        [[np.trace(rho @ embed_one_qubit(units[j, i], target, n)) for j in range(2)]
         for i in range(2)]
    )


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


def qubit_superoperator(ops, n):
    """Matrix of the one-qubit ops ``[(q, S), ...]`` applied in order to a
    ``2^n x 2^n`` matrix, on the row-major ``vec``.

    ``vec(A x B^T) = (A (x) B) vec(x)``, and ``S[2a + b, 2c + e]`` maps
    entry ``(c, e)`` of qubit ``q``'s (row, column) pair to ``(a, b)``, so
    each op is ``sum S[2a + b, 2c + e] E_ac (x) E_be`` with ``E_ac`` the
    embedded ``|a><c|``.
    """
    out = np.eye(1 << (2 * n), dtype=complex)
    for q, s in ops:
        full = np.zeros_like(out)
        for a, b, c, e in np.ndindex(2, 2, 2, 2):
            e_ac = embed_one_qubit(np.outer(np.eye(2)[a], np.eye(2)[c]), q, n)
            e_be = embed_one_qubit(np.outer(np.eye(2)[b], np.eye(2)[e]), q, n)
            full += s[2 * a + b, 2 * c + e] * np.kron(e_ac, e_be)
        out = full @ out
    return out


def pairing(g, x):
    """``tr(g x)`` summed over leading axes."""
    return np.einsum("...ij,...ji->...", g, x).sum()


def encoder_unitary(x, n):
    """Full encoding unitary on ``n`` qubits: the ``ceil(64/n)`` sub-layers
    as dense Kronecker products of one rotation per qubit, multiplied in
    order."""
    u = np.eye(1 << n, dtype=np.complex128)
    for t in range(-(-64 // n)):
        axis = "XYZ"[t % 3]
        sub = np.eye(1, dtype=np.complex128)
        for j in range(n):
            idx = t * n + j
            angle = np.pi * x[idx] if idx < len(x) else 0.0
            sub = np.kron(sub, rotation(axis, angle))
        u = sub @ u
    return u


def cnot(control, target, n):
    """The permutation flipping bit ``target`` of basis states whose bit
    ``control`` is set (qubit 0 the most significant bit)."""
    dim = 1 << n
    flip, ctrl = 1 << (n - 1 - target), 1 << (n - 1 - control)
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        out[i ^ flip if i & ctrl else i, i] = 1.0
    return out


def maximally_mixed(n):
    """The state ``I / 2**n``."""
    return qsim.DensityMatrix(n, np.eye(1 << n) / (1 << n))


def conjugate(rho, u):
    """The state ``u rho u^dagger`` for a state ``rho`` and a unitary array ``u``."""
    return qsim.DensityMatrix(rho.n, qsim.hermitize(u @ rho.data @ u.conj().T))


def _sublayer(axis, angles):
    sub = np.eye(1, dtype=np.complex128)
    for angle in angles:
        sub = np.kron(sub, rotation(axis, angle))
    return sub


def layer_factors(layer):
    """``(U, upto, after)`` of a ``pqc.LayerSpec`` as plain matrix products
    of dense Kronecker sub-layers, independent of ``pqc.layer_rotations``:
    ``upto[a] = sub[a] ... sub[0] @ I``, ``after[a] = ring @ sub[last] ...
    sub[a + 1]`` and ``U = after[a] @ upto[a]``, with the ring a product of
    dense CNOT matrices."""
    n = layer.n
    dim = 1 << n
    subs = [_sublayer(axis, layer.theta[:, a]) for a, axis in enumerate(layer.axes)]
    ring = np.eye(dim, dtype=np.complex128)
    if n >= 2:
        for j in range(n):
            ring = cnot(j, (j + 1) % n, n) @ ring
    upto = []
    cur = np.eye(dim, dtype=np.complex128)
    for s in subs:
        cur = s @ cur
        upto.append(cur)
    after = [ring] * len(subs)
    for a in range(len(subs) - 2, -1, -1):
        after[a] = after[a + 1] @ subs[a + 1]
    return ring @ cur, upto, after


def layer_unitary_and_gradients(layer):
    """Layer unitary plus dense ``dU/dtheta[q, a]`` (``grads[q][a]``) for
    every angle: ``after[a] (-i/2 sigma_a on qubit q) upto[a]``."""
    u, upto, after = layer_factors(layer)
    grads = [
        [
            after[a] @ embed_one_qubit(-0.5j * qsim.PAULIS[axis], q, layer.n) @ upto[a]
            for a, axis in enumerate(layer.axes)
        ]
        for q in range(layer.n)
    ]
    return u, grads


def z_readout(rho):
    """Per-qubit ``tr(Z_i rho)`` with each ``Z_i`` an embedded 2x2 ``Z``."""
    n = rho.shape[-1].bit_length() - 1
    return np.array(
        [np.trace(embed_one_qubit(qsim.PAULI_Z, i, n) @ rho).real for i in range(n)]
    )


def layer_chain(rho0, units, noise_true, letters, rates, cascaded):
    """The chain ``[t_0, ..., t_L]`` of one state ``rho0`` and its mitigated
    final state.  Layer ``i`` conjugates by ``units[i]`` and applies the true
    noise ``noise_true[i]``; when ``cascaded`` it then applies the learned
    inverse ``rates[i]`` over the Pauli words ``letters``.  The mitigated
    final state is ``t_L`` when ``cascaded``, and otherwise ``t_L`` through
    the last learned inverse."""
    chain = [rho0]
    for u, model, row in zip(units, noise_true, rates):
        cur = channel(u @ chain[-1] @ u.conj().T, model.generators, model.rates)
        chain.append(channel(cur, letters, row, inverse=True) if cascaded else cur)
    final = chain[-1] if cascaded else channel(chain[-1], letters, rates[-1], inverse=True)
    return chain, final


def _dagger(x):
    return np.conj(np.swapaxes(x, -1, -2))


def _from_eigh(eigs, vecs):
    return (vecs * eigs[..., None, :]) @ _dagger(vecs)


def condition(x):
    """Conditioned state as a matrix: ``(1 - floor) f(x) / tr f(x) + floor I / d``
    with ``f`` the softplus floor."""
    sharpness, floor = losses.FB_SPECTRAL_SHARPNESS, losses.FB_STATE_FLOOR
    eigs, vecs = np.linalg.eigh(qsim.hermitize(x))
    fe = np.logaddexp(0.0, sharpness * eigs) / sharpness
    trace = np.sum(fe, axis=-1)
    dim = x.shape[-1]
    smooth = _from_eigh(fe, vecs)
    cond = (1.0 - floor) * smooth / trace[..., None, None] + (floor / dim) * np.eye(dim)
    cache = {"eigs": eigs, "vecs": vecs, "fe": fe, "trace": trace,
             "cond": (1.0 - floor) * fe / trace[..., None] + floor / dim}
    return cond, cache


def condition_adjoint(grad, cache):
    """Adjoint of the conditioning from ``eigs``, ``vecs``, ``fe`` and
    ``trace``: the trace term against the rebuilt ``f(x)``, then the
    gradient rotated into the eigenbasis, multiplied by the divided
    differences of ``f`` and rotated back."""
    sharpness, floor = losses.FB_SPECTRAL_SHARPNESS, losses.FB_STATE_FLOOR
    eigs, vecs, fe, trace = cache["eigs"], cache["vecs"], cache["fe"], cache["trace"]
    smooth = _from_eigh(fe, vecs)
    inner = np.einsum("...ij,...ji->...", grad, smooth).real
    g_smooth = (1.0 - floor) * (
        grad / trace[..., None, None]
        - (inner / trace**2)[..., None, None] * np.eye(grad.shape[-1])
    )
    de = eigs[..., :, None] - eigs[..., None, :]
    df = fe[..., :, None] - fe[..., None, :]
    near = np.abs(de) < losses._EIG_DEGENERACY_TOL
    mid = 0.5 * (eigs[..., :, None] + eigs[..., None, :])
    derivative = 0.5 * (1.0 + np.tanh(0.5 * sharpness * mid))
    kernel = np.where(near, derivative, np.where(near, 0.0, df) / np.where(near, 1.0, de))
    return vecs @ ((_dagger(vecs) @ g_smooth @ vecs) * kernel) @ _dagger(vecs)


def _power(c, exponent):
    """``c``'s conditioned state to the power ``exponent``, as a matrix."""
    return _from_eigh(c["cond"] ** exponent, c["vecs"])


def fb_pair_forward(a_raw, b_raw):
    """Conditioned ``-log F``: ``M = A^{1/2} B A^{1/2}`` built as a matrix."""
    _, cache_a = condition(a_raw)
    b_cond, cache_b = condition(b_raw)
    a_sqrt = _power(cache_a, 0.5)
    em, vm = np.linalg.eigh(qsim.hermitize(a_sqrt @ b_cond @ a_sqrt))
    trace_sqrt = np.sum(np.sqrt(np.clip(em, 0.0, None)), axis=-1)
    fid = trace_sqrt**2
    cache = {"cache_a": cache_a, "cache_b": cache_b, "a_sqrt": a_sqrt, "em": em, "vm": vm,
             "trace_sqrt": trace_sqrt, "fid": fid}
    return np.maximum(-np.log(fid), 0.0), cache


def fb_pair_backward(cache, g_loss):
    """Both raw-input gradients of :func:`fb_pair_forward`:
    ``A^{1/2} M^{-1/2} A^{1/2}`` and ``A^{-1/2} M^{1/2} A^{-1/2}`` built as
    matrices, then passed through :func:`condition_adjoint`."""
    em, vm, a_sqrt = cache["em"], cache["vm"], cache["a_sqrt"]
    scale = (np.asarray(g_loss) * (-1.0 / cache["fid"]) * cache["trace_sqrt"])[..., None, None]
    m_inv_sqrt = _from_eigh(1.0 / np.sqrt(np.clip(em, losses._INV_SQRT_FLOOR, None)), vm)
    g_b = qsim.hermitize(scale * (a_sqrt @ m_inv_sqrt @ a_sqrt))
    a_inv_sqrt = _power(cache["cache_a"], -0.5)
    m_sqrt = _from_eigh(np.sqrt(np.clip(em, 0.0, None)), vm)
    g_a = qsim.hermitize(scale * (a_inv_sqrt @ m_sqrt @ a_inv_sqrt))
    return (
        qsim.hermitize(condition_adjoint(g_a, cache["cache_a"])),
        qsim.hermitize(condition_adjoint(g_b, cache["cache_b"])),
    )


def fb_target_gradient(cache, g_loss):
    """Target-side gradient of the conditioned pair loss w.r.t. the raw
    target, from ``dF/dA = 2 sqrt(F) B^{1/2} N^{-1/2} B^{1/2}`` with
    ``N = B^{1/2} A B^{1/2}`` diagonalized afresh."""
    cache_a, cache_b = cache["cache_a"], cache["cache_b"]
    b_sqrt = _power(cache_b, 0.5)
    en, vn = np.linalg.eigh(qsim.hermitize(b_sqrt @ _power(cache_a, 1.0) @ b_sqrt))
    scale = (np.asarray(g_loss) * (-1.0 / cache["fid"]) * cache["trace_sqrt"])[..., None, None]
    g_a_cond = qsim.hermitize(scale * (b_sqrt @ _from_eigh(1.0 / np.sqrt(en), vn) @ b_sqrt))
    return qsim.hermitize(condition_adjoint(g_a_cond, cache_a))


def hermitian_power(data, power, rel_floor=0.0):
    """``data^power`` for a Hermitian ``data`` and ``power >= 0``, from its
    ``eigh``: eigenvalues are clamped at 0, and those below ``rel_floor``
    of the largest are zeroed."""
    eigs, vecs = np.linalg.eigh(qsim.hermitize(np.asarray(data, dtype=complex)))
    eigs = np.clip(eigs, 0.0, None)
    eigs[eigs < rel_floor * eigs.max()] = 0.0
    return (vecs * eigs**power) @ vecs.conj().T


def psd_projection(data):
    """``data`` with its negative eigenvalues zeroed, renormalized to trace 1."""
    eigs, vecs = np.linalg.eigh(qsim.hermitize(np.asarray(data, dtype=complex)))
    out = (vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T
    return out / np.trace(out).real


def fidelity(rho, sigma):
    """Uhlmann fidelity ``(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2`` of two
    Hermitian arrays, each projected by :func:`psd_projection` first; the
    sandwich's eigenvalues below 1e-13 of the largest count as zero."""
    a, b = psd_projection(rho), psd_projection(sigma)
    root_b = hermitian_power(b, 0.5, rel_floor=1e-13)
    eigs = np.clip(np.linalg.eigvalsh(qsim.hermitize(root_b @ a @ root_b)), 0.0, None)
    eigs[eigs < 1e-13 * eigs.max()] = 0.0
    return float(np.sum(np.sqrt(eigs))) ** 2
