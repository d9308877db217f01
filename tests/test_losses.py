"""Fidelity, Renyi divergence, and the training losses."""

import decimal
import logging
import math

import numpy as np
import pytest

import dense_reference
from qmit import losses, noise, pqc, qsim, train
from qmit.errors import ValidationError


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = qsim.random_density_matrix(3, rng)
            assert losses.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert losses.fidelity(qsim.pure_state([1, 0]), qsim.pure_state([0, 1])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_vs_plus(self):
        s = 1 / math.sqrt(2)
        assert losses.fidelity(qsim.pure_state([1, 0]), qsim.pure_state([s, s])) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_bounds_symmetry_invariance(self):
        """0 <= F <= 1, symmetric, unitary invariant, pure-state overlap."""
        rng = np.random.default_rng(2)
        for _ in range(500):
            rho = qsim.random_density_matrix(2, rng)
            sigma = qsim.random_density_matrix(2, rng)
            f = losses.fidelity(rho, sigma)
            assert -1e-9 <= f <= 1.0 + 1e-9
            assert abs(f - losses.fidelity(sigma, rho)) <= 1e-9
            u = qsim.haar_random_unitary(2, rng)
            turned = [dense_reference.conjugate(state, u) for state in (rho, sigma)]
            assert abs(losses.fidelity(*turned) - f) <= 1e-9

    def test_pure_state_overlap_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = qsim.random_state_vector(3, rng)
            b = qsim.random_state_vector(3, rng)
            f = losses.fidelity(qsim.pure_state(a), qsim.pure_state(b))
            assert abs(f - abs(np.vdot(a, b)) ** 2) <= 1e-9

    def test_quasi_state_clamped(self):
        quasi = np.diag([1.03, -0.03]).astype(complex)
        f = losses.fidelity(quasi, np.diag([1.0, 0.0]).astype(complex))
        assert f == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            losses.fidelity(np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2)

    def test_logs_clamped_mass(self, caplog):
        """The clamped eigenvalue mass of each argument is logged, and a
        state without it logs nothing."""
        quasi = np.diag([1.05, -0.05]).astype(complex)
        with caplog.at_level(logging.DEBUG, logger="qmit.losses"):
            assert losses.fidelity(quasi, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
            losses.fidelity(np.eye(2) / 2, np.eye(2) / 2)
        assert [r.getMessage() for r in caplog.records] == [
            "fidelity clamped negative mass 5.000e-02 / 0.000e+00"
        ]

    def test_rejects_state_without_positive_mass(self):
        with pytest.raises(ValidationError, match="positive spectral mass"):
            losses.fidelity(np.diag([0.0, -1.0]).astype(complex), np.eye(2) / 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_dense_reference(self, n):
        """Mixed, pure, rank-2 and quasi-state pairs, in both orders, agree
        with :func:`dense_reference.fidelity` to 1e-12."""
        rng = np.random.default_rng(60 + n)
        dim = 1 << n

        def draw(kind):
            if kind == "mixed":
                return qsim.random_density_matrix(n, rng).data
            if kind == "pure":
                return qsim.pure_state(qsim.random_state_vector(n, rng)).data
            vecs = qsim.haar_random_unitary(n, rng)
            eigs = np.zeros(dim)
            eigs[:2] = rng.uniform(0.2, 1.0, 2)
            if kind == "quasi":
                eigs[2:] = rng.uniform(0.0, 0.2, dim - 2)
                eigs[-1] = -0.02
            eigs /= eigs.sum()
            return qsim.hermitize((vecs * eigs) @ vecs.conj().T)

        kinds = ("mixed", "pure", "rank2", "quasi")
        for a_kind in kinds:
            for b_kind in kinds:
                rho, sigma = draw(a_kind), draw(b_kind)
                got = losses.fidelity(rho, sigma)
                assert got == pytest.approx(dense_reference.fidelity(rho, sigma), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_arrays(self, bad, entry):
        rho = np.eye(2, dtype=complex) / 2
        rho[entry] = rho[entry[::-1]] = bad
        with pytest.raises(ValidationError, match="Hermitian"):
            losses.fidelity(rho, np.eye(2) / 2)


def conditioned(x):
    """The conditioned state of ``x`` as a matrix (``dense_reference.condition``)."""
    return dense_reference.condition(x)[0]


class TestLogFidelityForm:
    """The engine's pair loss is ``-log`` of the paper's fidelity of the two
    conditioned states, from the textbook form
    (:func:`dense_reference.fidelity`)."""

    def test_identical_states_give_zero(self):
        rng = np.random.default_rng(4)
        mixed = qsim.random_density_matrix(2, rng).data
        pure = qsim.pure_state(qsim.random_state_vector(2, rng)).data
        for rho in (mixed, pure):
            cond = conditioned(rho)
            assert dense_reference.fidelity(cond, cond) == pytest.approx(1.0, abs=1e-10)
            loss, _ = losses._fb_pair_forward(rho[None], rho[None])
            assert loss[0] == pytest.approx(0.0, abs=1e-10)

    def test_equals_log_of_fidelity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng).data
            sigma = qsim.random_density_matrix(2, rng).data
            loss, _ = losses._fb_pair_forward(rho[None], sigma[None])
            want = -math.log(dense_reference.fidelity(conditioned(rho), conditioned(sigma)))
            assert loss[0] == pytest.approx(want, abs=1e-10)

    def test_zero_vs_plus_value(self):
        """The pair whose raw fidelity is 1/2 has the conditioned loss 0.2776,
        below ``log 2``: conditioning mixes both states toward ``I / d``."""
        s = 1 / math.sqrt(2)
        a, b = qsim.pure_state([1, 0]).data, qsim.pure_state([s, s]).data
        loss, _ = losses._fb_pair_forward(a[None], b[None])
        want = -math.log(dense_reference.fidelity(conditioned(a), conditioned(b)))
        assert loss[0] == pytest.approx(want, abs=1e-10)
        assert loss[0] == pytest.approx(0.2776, abs=1e-4)


class TestPetzRenyi:
    """``D_alpha(rho || I/d)``, the divergence to the maximally mixed state."""

    def test_maximally_mixed_is_zero(self):
        mixed = dense_reference.maximally_mixed(3)
        for alpha in (0.5, 2.0, 3.0):
            assert losses.petz_renyi_divergence(mixed, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_pure_is_n_log2(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 4):
            pure = qsim.pure_state(qsim.random_state_vector(n, rng))
            for alpha in (0.5, 2.0, 3.0):
                got = losses.petz_renyi_divergence(pure, alpha)
                assert got == pytest.approx(n * math.log(2), abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e3, 1e6, 1e6 + 0.5, 1e308])
    def test_large_orders_stay_finite(self, alpha):
        """Where ``Tr rho^alpha`` underflows the divergence is still ``log d
        + log Tr[rho^alpha] / (alpha - 1)``, here in 40-digit decimals, on a
        pure and a mixed state in a random basis, and it stays below its
        limit ``log(d lambda_max)``.  At ``alpha = 1e308`` the decimals
        underflow too, and the limit is the reference."""
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        ctx = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
        for eigs in ([1.0, 0.0, 0.0, 0.0], [0.5, 0.3, 0.2, 0.0]):
            rho = qsim.hermitize((q * eigs) @ q.conj().T)
            limit = math.log(4 * max(eigs))
            if alpha == 1e308:
                want = limit
            else:
                order = decimal.Decimal(alpha)
                total = sum(ctx.power(decimal.Decimal(e), order) for e in eigs if e > 0.0)
                want = float(ctx.ln(4) + ctx.divide(ctx.ln(total), order - 1))
            got = losses.petz_renyi_divergence(rho, alpha)
            assert got == pytest.approx(want, rel=0, abs=1e-13), eigs
            assert got <= limit + 1e-15

    def test_two_level_example(self):
        rho = qsim.DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        got = losses.petz_renyi_divergence(rho, 2.0)
        assert got == pytest.approx(math.log(1.25), abs=1e-12)
        assert got == pytest.approx(0.2231, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.5, 1.7, 2.0, 3.0])
    def test_state_and_its_array_give_identical_bits(self, alpha):
        """A checked state is read as it is; its array, checked for
        Hermiticity on the call, gives the same value bit for bit."""
        rng = np.random.default_rng(12)
        for n in (1, 3, 5):
            for rho in (
                qsim.pure_state(qsim.random_state_vector(n, rng)),
                qsim.random_density_matrix(n, rng),
            ):
                got = losses.petz_renyi_divergence(rho, alpha)
                assert got == losses.petz_renyi_divergence(np.array(rho.data), alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.7, 2.0, 3.0])
    def test_quasi_state_sign_conventions(self, alpha):
        """On the quasi-state with spectrum (-2, 1.5, 1.5, 0) integer orders
        count the negative eigenvalue with its sign (``Tr rho^2 = 8.5``;
        ``Tr rho^3 = -1.25``, so the divergence is infinite), and other
        orders clamp it to zero (``Tr rho^alpha = 2 * 1.5^alpha``)."""
        vecs = qsim.haar_random_unitary(2, np.random.default_rng(14))
        rho = qsim.hermitize((vecs * [-2.0, 1.5, 1.5, 0.0]) @ vecs.conj().T)
        traces = {2.0: 8.5, 3.0: -1.25}
        trace = traces.get(alpha, 2.0 * 1.5**alpha)
        want = math.inf if trace <= 0.0 else math.log(4) + math.log(trace) / (alpha - 1.0)
        assert losses.petz_renyi_divergence(rho, alpha) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.999, 1.001])
    def test_quasi_state_beyond_the_float_range(self, alpha):
        """Near ``alpha = 1`` a quasi-state's ``Tr[rho^alpha]^(1 / (alpha -
        1))`` (here ``3^(+-1000)``) leaves the float range; the divergence is
        still ``log d + log Tr[rho^alpha] / (alpha - 1)``, with no warning."""
        vecs = qsim.haar_random_unitary(2, np.random.default_rng(14))
        rho = qsim.hermitize((vecs * [-2.0, 1.5, 1.5, 0.0]) @ vecs.conj().T)
        want = math.log(4) + math.log(2.0 * 1.5**alpha) / (alpha - 1.0)
        assert losses.petz_renyi_divergence(rho, alpha) == pytest.approx(want, rel=1e-12)

    def test_non_square_arrays_rejected(self):
        for shape in ((2,), (2, 3), (1, 2, 2)):
            with pytest.raises(ValidationError, match="square"):
                losses.petz_renyi_divergence(np.full(shape, 0.5))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_spectral_form(self, n):
        """Every order agrees with ``log d + log Tr[rho^alpha] / (alpha - 1)``
        with ``rho^alpha`` from :func:`dense_reference.hermitian_power`
        (``eigh``) to 1e-12."""

        def spectral(rho, alpha):
            rho_a = dense_reference.hermitian_power(rho.data, alpha, rel_floor=1e-13)
            return n * math.log(2) + math.log(np.trace(rho_a).real) / (alpha - 1.0)

        rng = np.random.default_rng(40 + n)
        for alpha in (0.5, 1.7, 2.0, 3.0):
            pure = qsim.pure_state(qsim.random_state_vector(n, rng))
            for rho in (pure, qsim.random_density_matrix(n, rng)):
                got = losses.petz_renyi_divergence(rho, alpha)
                assert got == pytest.approx(spectral(rho, alpha), rel=1e-12, abs=0.0)

    def test_only_fractional_order_decomposes(self, monkeypatch):
        """Integer orders take no eigendecomposition and at most one
        product; ``alpha = 0.5`` takes one ``eigvalsh`` and no product."""
        rho = qsim.random_density_matrix(2, np.random.default_rng(13))
        calls = []
        for name in ("eigh", "eigvalsh", "matrix_power"):
            def wrapper(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, wrapper)
        for alpha, want in ((2.0, []), (3.0, ["matrix_power"]), (0.5, ["eigvalsh"])):
            calls.clear()
            losses.petz_renyi_divergence(rho, alpha)
            assert calls == want, alpha

    def test_non_hermitian_arrays_rejected(self):
        """A plain array is validated before the closed form reads it, even
        when it is diagonal."""
        skew = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        complex_diagonal = np.diag([0.5 + 0.1j, 0.5 - 0.1j])
        for rho in (skew, complex_diagonal):
            for alpha in (0.5, 2.0, 3.0):
                with pytest.raises(ValidationError, match="Hermitian"):
                    losses.petz_renyi_divergence(rho, alpha)

    def test_alpha_one_rejected(self):
        mixed = dense_reference.maximally_mixed(1)
        with pytest.raises(ValidationError):
            losses.petz_renyi_divergence(mixed, 1.0)
        with pytest.raises(ValidationError):
            losses.petz_renyi_divergence(mixed, -0.5)

    def test_nonnegative_and_zero_iff_mixed(self):
        rng = np.random.default_rng(8)
        mixed = dense_reference.maximally_mixed(2)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng)
            d = losses.petz_renyi_divergence(rho)
            assert d >= -1e-12
            if np.linalg.norm(rho.data - mixed.data) > 1e-8:
                assert d > 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng)
            u = qsim.haar_random_unitary(2, rng)
            for alpha in (0.5, 2.0):
                a = losses.petz_renyi_divergence(rho, alpha)
                b = losses.petz_renyi_divergence(u @ rho.data @ u.conj().T, alpha)
                assert abs(a - b) <= 1e-9

    def test_data_processing_inequality(self):
        """Pauli channels fix the mixed state, so divergence cannot grow."""
        rng = np.random.default_rng(10)
        gens = noise.default_generators(3)
        for _ in range(200):
            rho = qsim.random_density_matrix(3, rng)
            rates = rng.uniform(0, 0.2, len(gens))
            before = losses.petz_renyi_divergence(rho)
            after = losses.petz_renyi_divergence(noise.apply_pauli_fidelities(rho.data, gens, rates))
            assert after <= before + 1e-12


def pair_loss(a, b):
    """The engine's conditioned ``-log F`` of one pair."""
    return float(losses._fb_pair_forward(a.data[None], b.data[None])[0][0])


class TestForwardBackwardLoss:
    """The conditioned pair loss of the training head."""

    def test_identical_states(self):
        rng = np.random.default_rng(11)
        rho = qsim.random_density_matrix(2, rng)
        assert pair_loss(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_half_fidelity_pair(self):
        """Positive, and below the raw ``-log F = log 2``."""
        s = 1 / math.sqrt(2)
        got = pair_loss(qsim.pure_state([1, 0]), qsim.pure_state([s, s]))
        assert 0.0 < got < math.log(2)

    def test_orthogonal_states_capped(self):
        """Conditioning bounds the loss without a cap: each conditioned
        state is ``(1 - f) X + f I / d``, and the root fidelity is jointly
        concave, so ``sqrt F >= f`` and the loss is at most ``-2 log f``."""
        got = pair_loss(qsim.pure_state([1, 0]), qsim.pure_state([0, 1]))
        assert 0.0 < got <= -2.0 * math.log(losses.FB_STATE_FLOOR)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = qsim.random_density_matrix(2, rng)
            b = qsim.random_density_matrix(2, rng)
            assert pair_loss(a, b) >= 0.0


class TestTaskLoss:
    """Cross entropy ``-log softmax_head(z, c)[label]``, as the engine takes it."""

    @staticmethod
    def cross_entropy(z, label, num_classes):
        return float(-np.log(losses.softmax_head(z, num_classes)[label]))

    def test_saturated_logit(self):
        z = np.array([30.0, -30.0, 0.0, 0.0])
        assert self.cross_entropy(z, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        assert self.cross_entropy(np.zeros(4), 1, 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_two_class_example(self):
        got = self.cross_entropy(np.array([1.0, -1.0, 0.3, 0.4]), 0, 2)
        expected = -math.log(math.exp(1) / (math.exp(1) + math.exp(-1)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1269, abs=1e-4)

    def test_label_out_of_range(self):
        """The engine checks the labels against the class count."""
        rng = np.random.default_rng(23)
        config = train.TrainConfig(n_qubits=2, layers=1, num_classes=2)
        theta = dense_reference.random_layers(2, 1, "U2", rng)
        noise_true = train.noise_models_from_config(config)
        for label in (2, -1):
            psi = pqc.encode_vectors(rng.uniform(0, 1, (2, 64)), 2)
            with pytest.raises(ValidationError, match="labels"):
                train._run_batch(
                    psi, np.array([0, label]), theta, np.zeros((1, 6)), config, noise_true, True
                )

    def test_class_count_bounded_by_readout(self):
        for count in (0, 5):
            with pytest.raises(ValidationError, match="class count"):
                losses.softmax_head(np.zeros(4), count)

    def test_batched_softmax_head_matches_row_by_row(self):
        rng = np.random.default_rng(22)
        z = rng.uniform(-1, 1, (2, 3, 4))
        got = losses.softmax_head(z, 3)
        assert got.shape == (2, 3, 3)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(got[idx], losses.softmax_head(z[idx], 3), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0, atol=1e-15)


def conditioned_adjoint(grad, cache):
    """The engine's conditioning adjoint for a standard-basis gradient."""
    vecs = cache["vecs"]
    return losses._condition_adjoint_eigenbasis(dense_reference._dagger(vecs) @ grad @ vecs, cache)


class TestConditioning:
    """The engine's conditioning (``_condition_spectrum``) and its adjoint,
    with the matrix-form ``dense_reference.condition`` as the forward map of
    the finite differences."""

    def test_preserves_equality(self):
        rng = np.random.default_rng(20)
        rho = qsim.random_density_matrix(3, rng).data
        a = losses._condition_spectrum(rho)
        b = losses._condition_spectrum(rho.copy())
        for key in ("cond", "vecs"):
            np.testing.assert_array_equal(a[key], b[key])

    def test_output_is_positive_unit_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = qsim.random_density_matrix(3, rng).data
            cond = losses._condition_spectrum(rho)["cond"]
            assert abs(cond.sum() - 1.0) <= 1e-12
            assert cond.min() > 0.0

    def test_handles_negative_eigenvalues(self):
        quasi = np.diag([1.04, -0.04]).astype(complex)
        cache = losses._condition_spectrum(quasi)
        assert cache["neg_mass"] == pytest.approx(0.04, abs=1e-12)
        assert cache["cond"].min() > 0.0

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(25)
        rho = np.stack([qsim.random_density_matrix(2, rng).data, np.diag([1.04, -0.04, 0, 0])])
        cache = losses._condition_spectrum(rho)
        vecs = cache["vecs"]
        rebuilt = (vecs * cache["cond"][..., None, :]) @ dense_reference._dagger(vecs)
        np.testing.assert_allclose(rebuilt, dense_reference.condition(rho)[0], rtol=0, atol=1e-14)

    def test_adjoint_matches_finite_differences(self):
        """The conditioning adjoint is the exact derivative of the forward map."""
        rng = np.random.default_rng(22)
        rho = qsim.random_density_matrix(2, rng).data
        grad_out = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        grad_out = 0.5 * (grad_out + grad_out.conj().T)
        grad_in = conditioned_adjoint(grad_out, losses._condition_spectrum(rho))
        h = 1e-6
        for idx in ((0, 0), (1, 2), (3, 3)):
            direction = np.zeros((4, 4), dtype=complex)
            direction[idx] = 1.0
            direction = 0.5 * (direction + direction.conj().T)
            up, _ = dense_reference.condition(rho + h * direction)
            dn, _ = dense_reference.condition(rho - h * direction)
            fd = np.einsum("ij,ji->", grad_out, (up - dn) / (2 * h)).real
            got = np.einsum("ij,ji->", grad_in, direction).real
            assert got == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("case", ["pure", "maximally_mixed", "batch_of_three"])
    def test_adjoint_matches_finite_differences_on_degenerate_spectra(self, case):
        """Equal eigenvalues take the divided differences' derivative branch."""
        rng = np.random.default_rng(24)
        pure = qsim.pure_state(qsim.random_state_vector(2, rng)).data
        mixed = np.eye(4, dtype=complex) / 4
        rho = {
            "pure": pure,
            "maximally_mixed": mixed,
            "batch_of_three": np.stack([pure, mixed, qsim.random_density_matrix(2, rng).data]),
        }[case]

        def hermitian():
            x = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
            return 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))

        grad_out = hermitian()
        grad_in = conditioned_adjoint(grad_out, losses._condition_spectrum(rho))
        h = 1e-6
        for _ in range(3):
            direction = hermitian()
            up, _ = dense_reference.condition(rho + h * direction)
            dn, _ = dense_reference.condition(rho - h * direction)
            fd = dense_reference.pairing(grad_out, (up - dn) / (2 * h)).real
            got = dense_reference.pairing(grad_in, direction).real
            assert got == pytest.approx(fd, abs=1e-6)

    def test_pair_backward_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        a = qsim.random_density_matrix(2, rng).data
        b = qsim.random_density_matrix(2, rng).data
        loss, cache = losses._fb_pair_forward(a[None], b[None])
        ga, gb = losses._fb_pair_backward(cache, np.ones(1))
        h = 1e-6
        for idx in ((0, 1), (2, 2)):
            direction = np.zeros((4, 4), dtype=complex)
            direction[idx] = 0.5
            direction = direction + direction.conj().T
            for which, grad in (("a", ga), ("b", gb)):
                ap = a + h * direction if which == "a" else a
                am = a - h * direction if which == "a" else a
                bp = b + h * direction if which == "b" else b
                bm = b - h * direction if which == "b" else b
                up, _ = losses._fb_pair_forward(ap[None], bp[None])
                dn, _ = losses._fb_pair_forward(am[None], bm[None])
                fd = float((up[0] - dn[0]) / (2 * h))
                got = np.einsum("ij,ji->", grad[0], direction).real
                assert got == pytest.approx(fd, abs=1e-6)


def _fb_pairs(rng, n):
    """Named ``(target, pullback)`` pairs on ``n`` qubits: random mixed
    states, a pure target (as ``chain[0]`` is), equal inputs (loss 0), a
    pair with nearly degenerate spectra close to each other, and a
    quasi-state pullback with one negative eigenvalue (as an
    over-mitigated pullback can be)."""
    dim = 1 << n
    mixed = qsim.random_density_matrix(n, rng).data
    pure = qsim.pure_state(qsim.random_state_vector(n, rng)).data
    near = np.eye(dim, dtype=complex) / dim + 1e-9 * qsim.random_density_matrix(n, rng).data
    near /= np.trace(near).real
    near_b = near + 1e-6 * (qsim.random_density_matrix(n, rng).data - np.eye(dim) / dim)
    pairs = {
        "mixed": (mixed, qsim.random_density_matrix(n, rng).data),
        "pure_target": (pure, qsim.random_density_matrix(n, rng).data),
        "equal": (mixed, mixed.copy()),
        "near_degenerate": (near, near_b),
    }
    eigs, vecs = np.linalg.eigh(qsim.random_density_matrix(n, rng).data)
    eigs[0] = -0.03
    eigs /= eigs.sum()
    pairs["quasi_pullback"] = (mixed, (vecs * eigs) @ vecs.conj().T)
    return pairs


class TestFbPairBackward:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_reference(self, n):
        """The eigenbasis head agrees with the matrix-form head on a stack
        of every pair type."""
        rng = np.random.default_rng(30 + n)
        pairs = _fb_pairs(rng, n)
        a = np.stack([a for a, _ in pairs.values()])
        b = np.stack([b for _, b in pairs.values()])
        g_loss = np.linspace(0.3, 1.2, len(pairs))
        loss, cache = losses._fb_pair_forward(a, b)
        ga, gb = losses._fb_pair_backward(cache, g_loss)
        ref_loss, ref_cache = dense_reference.fb_pair_forward(a, b)
        ref_ga, ref_gb = dense_reference.fb_pair_backward(ref_cache, g_loss)
        for got, ref in ((loss, ref_loss), (ga, ref_ga), (gb, ref_gb)):
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_target_side_matches_two_eigh_formula(self, n):
        """``A^{-1/2} M^{1/2} A^{-1/2}`` equals ``B^{1/2} N^{-1/2} B^{1/2}``."""
        rng = np.random.default_rng(40 + n)
        for name, (a, b) in _fb_pairs(rng, n).items():
            _, cache = losses._fb_pair_forward(a[None], b[None])
            g_loss = np.array([0.7])
            ga, _ = losses._fb_pair_backward(cache, g_loss)
            ref = dense_reference.fb_target_gradient(cache, g_loss)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(ga - ref)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(50 + n)
        dim = 1 << n
        h = 1e-6
        for name, (a, b) in _fb_pairs(rng, n).items():
            loss, cache = losses._fb_pair_forward(a[None], b[None])
            if name == "equal":
                assert loss[0] <= 1e-12
            ga, gb = losses._fb_pair_backward(cache, np.ones(1))
            for _ in range(3):
                direction = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                direction = 0.5 * (direction + direction.conj().T)
                for grad, moved in ((ga, "a"), (gb, "b")):
                    step = h * direction
                    ap, am = (a + step, a - step) if moved == "a" else (a, a)
                    bp, bm = (b + step, b - step) if moved == "b" else (b, b)
                    up, _ = losses._fb_pair_forward(ap[None], bp[None])
                    dn, _ = losses._fb_pair_forward(am[None], bm[None])
                    fd = float((up[0] - dn[0]) / (2 * h))
                    got = np.einsum("ij,ji->", grad[0], direction).real
                    assert got == pytest.approx(fd, abs=1e-6), (name, moved)

    def test_without_target_skips_it(self):
        """The backward consumes its forward cache, so each call gets its own,
        built from the same inputs."""
        rng = np.random.default_rng(60)
        a, b = _fb_pairs(rng, 2)["mixed"]
        _, cache = losses._fb_pair_forward(a[None], b[None])
        ga, gb = losses._fb_pair_backward(cache, np.ones(1))
        _, cache = losses._fb_pair_forward(a[None], b[None])
        none, gb_only = losses._fb_pair_backward(cache, np.ones(1), with_target=False)
        assert none is None
        assert np.array_equal(gb, gb_only)

    @pytest.mark.parametrize("with_unit", [False, True])
    def test_spectrum_caches_are_not_written(self, with_unit):
        """The head conjugates only stacks it owns: the target's eigenvectors,
        which the block before reads as its pullback spectrum, and the
        pullback's, which are ``W`` itself without a unit, keep their bits
        through the forward and backward pass."""
        rng = np.random.default_rng(61)
        pairs = _fb_pairs(rng, 3)
        cache_a = losses._condition_spectrum(np.stack([a for a, _ in pairs.values()]))
        cache_b = losses._condition_spectrum(np.stack([b for _, b in pairs.values()]))
        before = [cache_a["vecs"].copy(), cache_b["vecs"].copy()]
        u = None
        if with_unit:
            u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        _, cache = losses._fb_pair_forward(cache_a, cache_b, u)
        losses._fb_pair_backward(cache, np.ones(len(pairs)))
        assert np.array_equal(cache_a["vecs"], before[0])
        assert np.array_equal(cache_b["vecs"], before[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_absorbed_unit_and_closed_form_target(self, n):
        """``_fb_pair_forward(a, b, u)`` compares ``a`` with ``u^dagger b u``
        without forming it, and returns the pullback's gradient w.r.t. ``b``;
        a pure target may come as the closed-form root of its vector
        (:func:`losses._pure_root`).  Both agree with the matrix-form head on
        the explicit conjugation to 1e-12: the loss, the pullback's gradient
        and, for a matrix target, the target's gradient (a pure target is
        the encoded input, whose gradient the engine never asks for).
        The near-degenerate pair is left out: with eigenvalue gaps near
        1e-7 its divided differences carry the rounding of ``eigh`` up by
        1e-9 relative, and ``b`` and ``u^dagger b u`` round differently."""
        rng = np.random.default_rng(90 + n)
        dim = 1 << n
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        pairs = _fb_pairs(rng, n)
        del pairs["near_degenerate"]
        a = np.stack([a for a, _ in pairs.values()])
        b = np.stack([b for _, b in pairs.values()])
        psi = rng.standard_normal((len(pairs), dim)) + 1j * rng.standard_normal((len(pairs), dim))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        pure = losses._pure_root(psi)
        g_loss = np.linspace(0.3, 1.2, len(pairs))
        for target, dense_target in ((a, a), (pure, pqc.pure_states(psi))):
            with_target = target is a
            loss, cache = losses._fb_pair_forward(target, b, u)
            ga, gb = losses._fb_pair_backward(cache, g_loss, with_target)
            ref_loss, ref_cache = dense_reference.fb_pair_forward(dense_target, u.conj().T @ b @ u)
            ref_ga, ref_gb = dense_reference.fb_pair_backward(ref_cache, g_loss)
            checks = [(loss, ref_loss), (gb, u @ ref_gb @ u.conj().T)]
            if with_target:
                checks.append((ga, ref_ga))
            else:
                assert ga is None
            for got, ref in checks:
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale


class TestPureRoot:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_is_the_conditioned_state(self, n):
        """The square of the closed-form root ``r I + (t - r) u u^dagger`` of
        :func:`losses._pure_root` is the dense conditioned ``psi psi^dagger``
        to 1e-14; also for ``psi`` the first basis vector, ``i`` times the
        last one, and of norm other than 1."""
        rng = np.random.default_rng(80 + n)
        dim = 1 << n
        psi = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        psi[2], psi[3] = np.eye(dim)[0], 1j * np.eye(dim)[-1]
        psi[4] *= 1.0 + 1e-9
        pure = losses._pure_root(psi)
        r = pure["r"][:, None, None]
        root = r * np.eye(dim) + (pure["t"][:, None, None] - r) * pqc.pure_states(pure["vec"])
        want, _ = dense_reference.condition(pqc.pure_states(psi))
        np.testing.assert_allclose(root @ root, want, rtol=0, atol=1e-14)
        assert pure["neg_mass"] == 0.0
