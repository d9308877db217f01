"""Circuit construction, encoding, the layer chain in its execution regimes, and the readout."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import dense_reference
from qmit import data, losses, noise, pqc, qsim, train
from qmit.errors import ConfigError, ValidationError


def brute_force_layer(design, n, theta):
    """Independent layer oracle: explicit kron/projector matrix chain."""
    dim = 1 << n

    u = np.eye(dim, dtype=complex)
    for a, axis in enumerate({"RX": "X", "U2": "XY", "U3": "XYZ"}[design]):
        sub = np.array([[1.0]], dtype=complex)
        for q in range(n):
            sub = np.kron(sub, dense_reference.rotation(axis, theta[q, a]))
        u = sub @ u
    if n >= 2:
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        for j in range(n):
            t = (j + 1) % n
            left = np.array([[1.0]], dtype=complex)
            right = np.array([[1.0]], dtype=complex)
            cnot = np.zeros((dim, dim), dtype=complex)
            for proj, flip in ((p0, np.eye(2)), (p1, qsim.PAULI_X)):
                term = np.array([[1.0]], dtype=complex)
                for q in range(n):
                    if q == j:
                        term = np.kron(term, proj)
                    elif q == t:
                        term = np.kron(term, flip)
                    else:
                        term = np.kron(term, np.eye(2))
                cnot += term
            u = cnot @ u
    return u


def layer_unitary(design, theta):
    """The unitary of the one layer of ``design`` with the ``(n, p)`` angles ``theta``."""
    return pqc.layer_unitary(pqc.layer_rotations(design, theta[None])[0])


def units_of(design, theta):
    """The unitaries of the layers of ``design`` with the ``(L, n, p)`` angles ``theta``."""
    return [pqc.layer_unitary(r) for r in pqc.layer_rotations(design, theta)]


def uniform_noise(n, depth, rate):
    """``depth`` layers of the same rate on every single-qubit X, Y and Z."""
    gens = noise.default_generators(n)
    return [noise.NoiseModel(n, gens, np.full(len(gens), rate))] * depth


def noise_free_chain(psi, design, theta):
    """The states after each layer of the zero-rate :func:`pqc.layer_chain`
    of the state vectors ``psi`` through the layers of ``design`` with the
    ``(L, n, p)`` angles ``theta``."""
    models = uniform_noise(theta.shape[1], len(theta), 0.0)
    return pqc.layer_chain(psi, units_of(design, theta), models)[1:]


def entropy(rho):
    """Spectral entropy ``-sum e_i log e_i`` in nats, with ``0 log 0 := 0``."""
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    positive = eigs[eigs > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def reference_ring(n):
    """CNOT(n-1, 0) ... CNOT(0, 1) as a product of dense matrices."""
    ring = np.eye(1 << n, dtype=complex)
    if n >= 2:
        for j in range(n):
            ring = dense_reference.cnot(j, (j + 1) % n, n) @ ring
    return ring


class TestLayerUnitary:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ring_is_product_of_reference_cnots(self, n):
        """The ring's row gather equals CNOT(n-1, 0) ... CNOT(0, 1) as dense
        matrices, bit for bit."""
        eye = np.eye(1 << n, dtype=complex)
        np.testing.assert_array_equal(eye[pqc._cnot_ring_permutation(n)], reference_ring(n))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for design in ("RX", "U2", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            for _ in range(10):
                n = int(rng.integers(2, 5))
                theta = rng.uniform(-math.pi, math.pi, (n, p))
                got = layer_unitary(design, theta)
                expected = brute_force_layer(design, n, theta)
                np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_angles_leave_ring_only(self):
        got = layer_unitary("RX", np.zeros((3, 1)))
        expected = brute_force_layer("RX", 3, np.zeros((3, 1)))
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_single_qubit_has_no_entangler(self):
        theta = np.array([[0.7]])
        got = layer_unitary("RX", theta)
        np.testing.assert_allclose(got, dense_reference.rotation("X", 0.7), atol=1e-14)

    def test_unitarity_over_random_draws(self):
        rng = np.random.default_rng(2)
        for design in ("RX", "U2", "U3"):
            for _ in range(100):
                u = units_of(design, dense_reference.random_layers(4, 1, design, rng))[0]
                assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-10

    def test_u2_example_against_chain(self):
        theta = np.array([[math.pi, 0.0], [0.0, 0.0]])
        got = layer_unitary("U2", theta)
        expected = brute_force_layer("U2", 2, theta)
        rho = qsim.pure_state([1, 0, 0, 0])
        a = dense_reference.conjugate(rho, got)
        b = expected @ rho.data @ expected.conj().T
        np.testing.assert_allclose(a.data, b, atol=1e-12)
        np.testing.assert_allclose(got, expected, atol=1e-12)


    def test_layer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for design in ("RX", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            theta = rng.uniform(-1, 1, (3, p))
            _, grads = dense_reference.layer_unitary_and_gradients(design, theta)
            for q in range(3):
                for a in range(p):
                    tp = theta.copy()
                    tm = theta.copy()
                    tp[q, a] += h
                    tm[q, a] -= h
                    fd = (layer_unitary(design, tp) - layer_unitary(design, tm)) / (2 * h)
                    np.testing.assert_allclose(grads[q][a], fd, atol=1e-8)

    def test_layer_factors_compose_to_the_layer_unitary(self):
        """The unitary matches the dense reference, and each angle's dense
        derivative is the unitary times the generator turned by its qubit's
        prefix rotation, ``U embed_q(R_{<=a}^dagger (-i sigma_a / 2)
        R_{<=a})``: the identity :func:`pqc.angle_gradients` relies on."""
        rng = np.random.default_rng(31)
        for n in range(1, 6):
            for design in ("RX", "U2", "U3"):
                p = len(pqc.DESIGN_AXES[design])
                theta = rng.uniform(-math.pi, math.pi, (n, p))
                rotations = pqc.layer_rotations(design, theta[None])[0]
                u = pqc.layer_unitary(rotations)
                ref, grads = dense_reference.layer_unitary_and_gradients(design, theta)
                np.testing.assert_allclose(u, ref, atol=1e-13)
                for q in range(n):
                    for a, axis in enumerate(pqc.DESIGN_AXES[design]):
                        r = rotations[q, a]
                        turned = r.conj().T @ (-0.5j * qsim.PAULIS[axis]) @ r
                        du = u @ dense_reference.embed_one_qubit(turned, q, n)
                        np.testing.assert_allclose(du, grads[q][a], atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_layer_factors_equal_matrix_products(self, n):
        """The unitary built from the rotations, and the Kronecker products
        of each sub-layer's prefix rotations, equal the plain matrix products
        of ``dense_reference.layer_factors``."""
        rng = np.random.default_rng(40 + n)
        for design in ("RX", "U2", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            theta = rng.uniform(-math.pi, math.pi, (n, p))
            rotations = pqc.layer_rotations(design, theta[None])[0]
            ref_u, ref_upto, _ = dense_reference.layer_factors(design, theta)
            np.testing.assert_allclose(pqc.layer_unitary(rotations), ref_u, rtol=0, atol=1e-14)
            for a in range(p):
                prefix = functools.reduce(np.kron, rotations[:, a])
                np.testing.assert_allclose(prefix, ref_upto[a], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_layer_rotations_compose_to_the_layer_unitary(self, n):
        """The layers have one definition: each qubit's prefix rotations in
        each layer are products of ``dense_reference.rotation``, and each
        layer unitary is the dense CNOT ring times the Kronecker product of
        the layer's last prefixes, bit for bit."""
        rng = np.random.default_rng(80 + n)
        ring = reference_ring(n)
        for design in ("RX", "U2", "U3"):
            p = len(pqc.DESIGN_AXES[design])
            theta = rng.uniform(-math.pi, math.pi, (2, n, p))
            rotations = pqc.layer_rotations(design, theta)
            assert rotations.shape == (2, n, p, 2, 2)
            for layer, angles in zip(rotations, theta):
                for q in range(n):
                    prefix = np.eye(2)
                    for a, axis in enumerate(pqc.DESIGN_AXES[design]):
                        prefix = dense_reference.rotation(axis, angles[q, a]) @ prefix
                        np.testing.assert_allclose(layer[q, a], prefix, rtol=0, atol=1e-15)
                product = ring @ functools.reduce(np.kron, layer[:, -1])
                assert np.array_equal(pqc.layer_unitary(layer), product)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("design", ["RX", "U2", "U3"])
    def test_layer_rotations_of_a_stack_are_those_of_each_layer(self, n, design):
        """Entry ``l`` of one call on the whole ``(L, n, p)`` stack equals the
        call on layer ``l`` alone, bit for bit."""
        rng = np.random.default_rng(200 + 10 * n + len(design))
        theta = rng.uniform(-math.pi, math.pi, (5, n, len(pqc.DESIGN_AXES[design])))
        whole = pqc.layer_rotations(design, theta)
        for layer in range(len(theta)):
            alone = pqc.layer_rotations(design, theta[layer : layer + 1])
            assert alone.shape == (1,) + whole.shape[1:]
            assert np.array_equal(whole[layer], alone[0])

    @pytest.mark.parametrize(
        "design, shape, bad, match",
        [
            ("U4", (1, 2, 2), None, "unknown layer design"),
            ("U2", (2, 2), None, "theta shape"),
            ("U2", (1, 1, 2, 2), None, "theta shape"),
            ("U2", (0, 2, 2), None, "theta shape"),
            ("U2", (1, 2, 3), None, "theta shape"),
            ("RX", (1, 2, 2), None, "theta shape"),
            ("U2", (1, 0, 2), None, "positive integer"),
            ("U2", (1, qsim.MAX_QUBITS + 1, 2), None, "exceeds the supported maximum"),
            ("U2", (2, 2, 2), np.inf, "must be finite"),
            ("U3", (2, 2, 3), np.nan, "must be finite"),
        ],
        ids=[
            "unknown-design", "ndim-2", "ndim-4", "no-layers", "axis-count", "axis-count-rx",
            "no-qubits", "too-many-qubits", "inf-angle", "nan-angle",
        ],
    )
    def test_layer_rotations_reject_invalid_angles(self, design, shape, bad, match):
        """One check of the whole array: the design, its ``(L >= 1, n, p)``
        shape, the qubit count and finiteness."""
        theta = np.zeros(shape)
        if bad is not None:
            theta[-1, -1, -1] = bad
        with pytest.raises(ValidationError, match=match):
            pqc.layer_rotations(design, theta)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("design", ["RX", "U2", "U3"])
    def test_angle_gradients_match_dense_reference(self, n, design):
        """Generator insertion equals ``2 Re tr(dU K)`` over the dense ``dU``,
        in the forward form (``K``) and the backward form (``K = A^dagger``,
        i.e. ``2 Re <dU, A>``); both take ``K U``."""
        rng = np.random.default_rng(100 * n + len(design))
        p = len(pqc.DESIGN_AXES[design])
        dim = 1 << n
        theta = rng.uniform(-math.pi, math.pi, (n, p))
        rotations = pqc.layer_rotations(design, theta[None])[0]
        u, dense = dense_reference.layer_unitary_and_gradients(design, theta)
        k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        fwd = pqc.angle_gradients(k @ u, rotations, pqc.DESIGN_AXES[design])
        bwd = pqc.angle_gradients(a.conj().T @ u, rotations, pqc.DESIGN_AXES[design])
        ref_fwd = np.array([[2.0 * np.einsum("ij,ji->", du, k).real for du in row] for row in dense])
        ref_bwd = np.array([[2.0 * np.vdot(du, a).real for du in row] for row in dense])
        assert fwd.shape == bwd.shape == (n, p)
        np.testing.assert_allclose(fwd, ref_fwd, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bwd, ref_bwd, rtol=0, atol=1e-12)

    def test_cnot_ring_permutation_is_cached_read_only_row_gather(self):
        perm = pqc._cnot_ring_permutation(4)
        assert pqc._cnot_ring_permutation(4) is perm
        assert not perm.flags.writeable
        x = np.random.default_rng(5).standard_normal((16, 16))
        assert np.array_equal(x[perm], reference_ring(4) @ x)


def pauli_word(index, n):
    """The Pauli string at ``index``: one base-4 digit per qubit, I X Y Z =
    0 1 2 3, qubit 0 the most significant."""
    return "".join("IXYZ"[(index >> 2 * (n - 1 - q)) & 3] for q in range(n))


class TestPauliCoordinates:
    """The readout's real Pauli-coordinate pieces against dense matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_ring_gather_is_the_dense_ring_adjoint(self, n):
        """``ring^dagger P_gather[s] ring = signs[s] P_s`` with the dense ring
        of reference CNOTs, bit for bit, for every string up to n = 5 and for
        40 sampled strings at n = 8; ``gather`` is a permutation, so
        ``signs * o[gather]`` is the ring's adjoint on Pauli coefficients."""
        gather, signs = pqc._ring_pauli_gather(n)
        assert np.array_equal(np.sort(gather), np.arange(4**n))
        assert set(signs.tolist()) <= {-1.0, 1.0}
        ring = reference_ring(n)
        strings = range(4**n) if n <= 5 else np.random.default_rng(8).choice(4**n, 40, replace=False)
        for s in strings:
            p = dense_reference.pauli_matrix(pauli_word(gather[s], n))
            want = signs[s] * dense_reference.pauli_matrix(pauli_word(s, n))
            np.testing.assert_array_equal(ring.conj().T @ p @ ring, want)

    def test_ring_gather_is_cached_read_only(self):
        table = pqc._ring_pauli_gather(4)
        assert pqc._ring_pauli_gather(4) is table
        assert not any(part.flags.writeable for part in table)

    @pytest.mark.parametrize("design", ["RX", "U2", "U3"])
    def test_transfer_matrices_match_dense_conjugation(self, design):
        """For each qubit's whole rotation ``V_q`` (from ``layer_rotations``),
        ``V_q P_a V_q^dagger = sum_b R[b, a] P_b`` and ``V_q^dagger P_a V_q =
        sum_b R[a, b] P_b``, with ``V_q`` the dense one-qubit layer of
        ``dense_reference.layer_factors``."""
        rng = np.random.default_rng(9)
        theta = dense_reference.random_layers(3, 1, design, rng)
        ptm = pqc.pauli_transfer_matrices(pqc.layer_rotations(design, theta)[0, :, -1])
        assert ptm.shape == (3, 4, 4) and ptm.dtype == np.float64
        paulis = [qsim.PAULIS[ch] for ch in "IXYZ"]
        for q in range(3):
            v = dense_reference.layer_factors(design, theta[0, q : q + 1])[0]
            for a, p in enumerate(paulis):
                forward = sum(ptm[q, b, a] * pb for b, pb in enumerate(paulis))
                adjoint = sum(ptm[q, a, b] * pb for b, pb in enumerate(paulis))
                np.testing.assert_allclose(v @ p @ v.conj().T, forward, rtol=0, atol=1e-14)
                np.testing.assert_allclose(v.conj().T @ p @ v, adjoint, rtol=0, atol=1e-14)



class TestReadoutMemory:
    @pytest.mark.parametrize("cascaded", [False, True], ids=["loss_only", "cascaded"])
    def test_peak_is_two_observable_buffers(self, cascaded):
        """At n = 8 with 4 readouts, L = 4 and weight-1 true noise,
        ``mitigated_z_readout`` peaks (traced memory) within its two ``(4,
        4^8)`` float buffers, the copy ``np.take`` makes of the read-only
        ring gather (one ``4^8`` index row) and 64 KiB for the small
        arrays: every pass, table and gather runs in place.  A fresh array
        per pass and per gather took three buffers."""
        n, count, layers = 8, 4, 4
        rng = np.random.default_rng(71)
        rotations = pqc.layer_rotations("U2", rng.uniform(-np.pi, np.pi, (layers, n, 2)))
        qubits = pqc.encode_qubits(rng.uniform(0, 1, (6, 64)), n)
        models = noise.draw_noise_models(n, layers, seed=72)
        rates = rng.uniform(0.0, 0.02, (layers, 3 * n)) if cascaded else None
        pqc.mitigated_z_readout(qubits, rotations, models, rates, count)  # caches the ring gather
        tracemalloc.start()
        try:
            pqc.mitigated_z_readout(qubits, rotations, models, rates, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = count * 4**n * 8
        assert peak <= 2 * buffer + 4**n * 8 + 64 * 1024, peak / buffer

class TestEncoder:
    def test_zero_features_give_ground_state(self):
        rho = pqc.encode(np.zeros(64), 4)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.data, expected, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 64)
        a = pqc.encode(x, 4)
        b = pqc.encode(x, 4)
        assert np.array_equal(a.data, b.data)

    def test_output_is_pure(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = pqc.encode(rng.uniform(0, 1, 64), 4)
            assert abs(np.trace(rho.data @ rho.data).real - 1.0) <= 1e-10

    def test_rejects_out_of_range_features(self):
        x = np.zeros(64)
        x[3] = 1.5
        with pytest.raises(ValidationError):
            pqc.encode(x, 4)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            pqc.encode(np.zeros(32), 4)

    def test_batch_matches_dense_reference(self):
        """Closed-form product states against the dense Kronecker encoder,
        including widths whose last sub-layer is partly filled (n = 3, 5, 6, 7)."""
        rng = np.random.default_rng(6)
        for n in range(1, 9):
            features = rng.uniform(0, 1, (3, 64))
            vectors = pqc.encode_vectors(features, n)
            assert vectors.shape == (3, 1 << n)
            states = pqc.pure_states(vectors)
            for x, rho in zip(features, states):
                psi = dense_reference.encoder_unitary(x, n)[:, 0]
                np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), rtol=0, atol=1e-13)

    def test_encode_is_one_row_of_encode_dataset(self):
        rng = np.random.default_rng(7)
        dataset = data.Dataset(rng.uniform(0, 1, (5, 64)), np.zeros(5, dtype=np.int64))
        for n in (3, 4):
            vectors = train.encode_dataset(dataset, n)
            assert vectors.shape == (5, 1 << n)
            for x, psi in zip(dataset.features, vectors):
                rho = pqc.encode(x, n).data
                assert np.array_equal(rho, pqc.pure_states(psi))

    def test_vectors_are_the_kronecker_product_of_the_qubit_states(self):
        """``encode_vectors`` is the Kronecker product of ``encode_qubits``
        bit for bit, also for an empty feature array."""
        rng = np.random.default_rng(8)
        for n in range(1, 11):
            for features in (rng.uniform(0, 1, (3, 64)), np.zeros((0, 64))):
                qubits = pqc.encode_qubits(features, n)
                assert qubits.shape == (len(features), n, 2)
                want = np.empty((len(features), 1 << n), dtype=np.complex128)
                for row, qubit_states in zip(want, qubits):
                    row[:] = functools.reduce(np.kron, qubit_states)
                got = pqc.encode_vectors(features, n)
                assert got.dtype == np.complex128
                assert np.array_equal(got, want)

    def test_bloch_vectors_match_dense_marginals(self):
        """The closed-form Bloch vectors of the encoded qubits give
        ``Tr(P_a rho_q)`` of the dense one-qubit marginals of the encoded
        state: each qubit's own vector times the other qubits' traces, which
        are 1 up to rounding."""
        rng = np.random.default_rng(9)
        paulis = [qsim.PAULIS[ch] for ch in "IXYZ"]
        for n in range(1, 6):
            features = rng.uniform(0, 1, (3, 64))
            bloch = pqc.bloch_vectors(pqc.encode_qubits(features, n))
            assert bloch.shape == (3, n, 4)
            for rho, got in zip(pqc.pure_states(pqc.encode_vectors(features, n)), bloch):
                for q in range(n):
                    marginal = dense_reference.one_qubit_marginal(rho, q)
                    want = [np.trace(p @ marginal).real for p in paulis]
                    others = np.prod(np.delete(got[:, 0], q))
                    np.testing.assert_allclose(got[q] * others, want, rtol=0, atol=1e-15)

    def test_batch_rejects_bad_features(self):
        features = np.zeros((3, 64))
        features[2, 10] = -0.01
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            pqc.encode_vectors(features, 4)
        features[2, 10] = np.nan
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            pqc.encode_vectors(features, 4)
        with pytest.raises(ValidationError, match="features"):
            pqc.encode_vectors(np.zeros((3, 63)), 4)
        with pytest.raises(ValidationError, match="features"):
            pqc.encode_vectors(np.zeros(64), 4)

    def test_zero_samples_give_empty_stack(self):
        for n in (1, 3, 4):
            vectors = pqc.encode_vectors(np.zeros((0, 64)), n)
            assert vectors.shape == (0, 1 << n)
            assert vectors.dtype == np.complex128

    def test_sublayer_count(self):
        """64 features fill ``ceil(64/n)`` sub-layers: 16 at n=4, 22 at n=3,
        where the 22nd holds only feature 63, on qubit 0.  Both last
        sub-layers rotate about X, so feature 63 alone flips one qubit."""
        x = np.zeros(64)
        x[63] = 1.0
        for n, flipped in ((4, 0b0001), (3, 0b100)):
            psi = pqc.encode_vectors(x[None], n)[0]
            want = np.zeros(1 << n)
            want[flipped] = 1.0
            np.testing.assert_allclose(np.abs(psi), want, atol=1e-15)

    def test_first_sublayer_is_x_rotation(self):
        """Feature 0 drives an X rotation on qubit 0 by pi * x."""
        x = np.zeros(64)
        x[0] = 1.0
        rho = pqc.encode(x, 4)
        gate = dense_reference.embed_one_qubit(dense_reference.rotation("X", math.pi), 0, 4)
        expected = dense_reference.conjugate(qsim.pure_state([1] + [0] * 15), gate)
        np.testing.assert_allclose(rho.data, expected.data, atol=1e-12)


class TestForwardPasses:
    """:func:`pqc.layer_chain` without mitigation."""

    def test_noise_free_entropy_constant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = dense_reference.random_layers(4, 8, "U2", rng)
            psi = qsim.random_state_vector(4, rng)
            base = entropy(pqc.pure_states(psi))
            for state in noise_free_chain(psi, "U2", theta):
                assert abs(entropy(state) - base) <= 1e-9

    def test_noise_free_divergence_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = dense_reference.random_layers(4, 8, "U2", rng)
            psi = qsim.random_state_vector(4, rng)
            base = losses.petz_renyi_divergence(qsim.pure_state(psi))
            drift = max(
                abs(losses.petz_renyi_divergence(s) - base)
                for s in noise_free_chain(psi, "U2", theta)
            )
            assert drift <= 1e-9

    def test_noise_free_reversal(self):
        rng = np.random.default_rng(8)
        theta = dense_reference.random_layers(4, 4, "U3", rng)
        psi = qsim.random_state_vector(4, rng)
        state = noise_free_chain(psi, "U3", theta)[-1]
        for u in reversed(units_of("U3", theta)):
            state = u.conj().T @ state @ u
        assert np.linalg.norm(state - pqc.pure_states(psi)) <= 1e-9

    def test_noisy_equals_noise_free_at_zero_rates(self):
        """Zero rates leave the dense unitary chain ``V rho V^dagger``."""
        rng = np.random.default_rng(9)
        theta = dense_reference.random_layers(4, 3, "U2", rng)
        psi = qsim.random_state_vector(4, rng)
        state = pqc.pure_states(psi)
        for angles, got in zip(theta, noise_free_chain(psi, "U2", theta)):
            u = brute_force_layer("U2", 4, angles)
            state = u @ state @ u.conj().T
            np.testing.assert_allclose(got, state, atol=1e-12)

    def test_noisy_divergence_strictly_decreasing(self):
        rng = np.random.default_rng(10)
        for lam in (0.01, 0.05):
            for _ in range(20):
                theta = dense_reference.random_layers(4, 8, "U2", rng)
                psi = qsim.random_state_vector(4, rng)
                chain = pqc.layer_chain(psi, units_of("U2", theta), uniform_noise(4, 8, lam))
                values = [losses.petz_renyi_divergence(qsim.pure_state(psi))]
                values += [losses.petz_renyi_divergence(s) for s in chain[1:]]
                assert np.all(np.diff(values) < -1e-12)

    def test_noisy_trace_one(self):
        rng = np.random.default_rng(11)
        theta = dense_reference.random_layers(4, 4, "RX", rng)
        models = noise.draw_noise_models(4, 4, seed=3)
        psi = qsim.random_state_vector(4, rng)
        for state in pqc.layer_chain(psi, units_of("RX", theta), models)[1:]:
            assert abs(np.trace(state).real - 1.0) <= 1e-12

    def test_layer_count_mismatch(self):
        """The engine takes one true-noise model per layer."""
        rng = np.random.default_rng(12)
        config = train.TrainConfig(n_qubits=4, layers=3, design="RX", num_classes=2)
        theta = dense_reference.random_layers(4, 3, "RX", rng)
        psi = pqc.encode_vectors(rng.uniform(0, 1, (1, 64)), 4)
        with pytest.raises(ValidationError, match="true-noise model .*per layer"):
            train._run_batch(
                psi, np.array([0]), theta, np.zeros((3, 12)), config, uniform_noise(4, 2, 0.01), True
            )


class TestForwardMitigated:
    """:func:`pqc.layer_chain` with the learned inverse, and the loss_only
    readout state."""

    def test_zero_mitigation_matches_noisy_in_both_modes(self):
        """Zero rates: the cascaded chain and the loss_only readout state
        are the noisy chain's."""
        rng = np.random.default_rng(13)
        theta = dense_reference.random_layers(4, 3, "U2", rng)
        psi = qsim.random_state_vector(4, rng)
        models = noise.draw_noise_models(4, 3, seed=1)
        gens, zero = noise.default_generators(4), np.zeros((3, 12))
        noisy = pqc.layer_chain(psi, units_of("U2", theta), models)
        cascaded = pqc.layer_chain(psi, units_of("U2", theta), models, zero)
        for a, b in zip(cascaded, noisy):
            np.testing.assert_allclose(a, b, atol=1e-12)
        hat = noise.apply_pauli_fidelities(noisy[-1], gens, -zero[-1])
        np.testing.assert_allclose(hat, noisy[-1], atol=1e-12)

    def test_cascaded_perfect_mitigation_recovers_noise_free(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            theta = dense_reference.random_layers(4, 4, "U2", rng)
            psi = qsim.random_state_vector(4, rng)
            models = noise.draw_noise_models(4, 4, seed=int(rng.integers(2**31)))
            rates = np.stack([m.rates for m in models])
            mitigated = pqc.layer_chain(psi, units_of("U2", theta), models, rates)
            for a, b in zip(mitigated[1:], noise_free_chain(psi, "U2", theta)):
                assert np.linalg.norm(a - b) <= 1e-8

    def test_loss_only_removes_final_layer_noise_only(self):
        """With two noisy layers, inverting only layer 2 cannot reach rho_2;
        the readout of the noisy chain by ``mitigated_z_readout`` times the
        last rate row's gain is that loss_only state's readout."""
        rng = np.random.default_rng(15)
        theta = dense_reference.random_layers(2, 2, "U2", rng)
        features = rng.uniform(0, 1, (1, 64))
        psi = pqc.encode_vectors(features, 2)
        models = noise.draw_noise_models(2, 2, seed=4, low=0.02, high=0.05)
        gens, rates = models[0].generators, np.stack([m.rates for m in models])
        states = pqc.layer_chain(psi, units_of("U2", theta), models)
        hat = noise.apply_pauli_fidelities(states[-1], gens, -rates[-1])
        free = noise_free_chain(psi, "U2", theta)
        assert np.linalg.norm(hat - free[-1]) > 1e-4
        rotations = pqc.layer_rotations("U2", theta)
        z = pqc.mitigated_z_readout(pqc.encode_qubits(features, 2), rotations, models, None, 2)
        z *= noise.learned_z_gains(rates[-1])
        np.testing.assert_allclose(z, pqc.z_expectations(hat), rtol=0, atol=1e-12)

    def test_cascaded_states_follow_the_mitigated_chain(self):
        """With nonzero rates each cascaded state is the dense noisy layer
        applied to the previous mitigated state, then the dense inverse."""
        rng = np.random.default_rng(21)
        theta = dense_reference.random_layers(3, 3, "U2", rng)
        psi = qsim.random_state_vector(3, rng)
        models = noise.draw_noise_models(3, 3, seed=5)
        gens = noise.default_generators(3)
        rates = rng.uniform(0, 0.03, (3, 9))
        chain = pqc.layer_chain(psi, units_of("U2", theta), models, rates)
        want, _ = dense_reference.layer_chain(
            pqc.pure_states(psi), units_of("U2", theta), models, gens, rates, cascaded=True
        )
        assert chain[0] is psi
        for got, ref in zip(chain[1:], want[1:]):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_mode_validated(self):
        """The execution mode is checked where the engine takes it: the config."""
        with pytest.raises(ConfigError, match="execution mode"):
            train.TrainConfig(mode="bogus")


class TestReadout:
    """:func:`pqc.z_expectations` against ``dense_reference.z_readout``."""

    def test_all_zero_state(self):
        rho = qsim.pure_state([1] + [0] * 15)
        np.testing.assert_allclose(pqc.z_expectations(rho.data), [1, 1, 1, 1], atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            pqc.z_expectations(np.eye(16) / 16), [0, 0, 0, 0], atol=1e-12
        )

    def test_alternating_basis_state(self):
        """|0101> reads out (1, -1, 1, -1)."""
        vec = np.zeros(16)
        vec[0b0101] = 1.0
        np.testing.assert_allclose(
            pqc.z_expectations(qsim.pure_state(vec).data), [1, -1, 1, -1], atol=1e-12
        )

    def test_batched_z_expectations_match_row_by_row(self):
        rng = np.random.default_rng(21)
        stack = np.stack([qsim.random_density_matrix(3, rng).data for _ in range(5)])
        got = pqc.z_expectations(stack)
        assert got.shape == (5, 3)
        for row, rho in zip(got, stack):
            np.testing.assert_allclose(row, pqc.z_expectations(rho), rtol=0, atol=1e-15)
            np.testing.assert_allclose(row, dense_reference.z_readout(rho), rtol=0, atol=1e-15)

    def test_matches_expectation_op(self):
        rng = np.random.default_rng(20)
        rho = qsim.random_density_matrix(3, rng).data
        z = pqc.z_expectations(rho)
        for i, want in enumerate(dense_reference.z_readout(rho)):
            assert z[i] == pytest.approx(want, abs=1e-12)
