"""Fidelity, Renyi divergence, and the training losses."""

import math

import numpy as np
import pytest

import dense_reference
from qmit import losses, noise, pqc, qsim
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
            assert abs(losses.fidelity(qsim.evolve(rho, u), qsim.evolve(sigma, u)) - f) <= 1e-9

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

    def test_psd_clamp_reports_mass(self):
        clamped, mass = losses.psd_clamp(np.diag([1.05, -0.05]).astype(complex))
        assert mass == pytest.approx(0.05, abs=1e-12)
        assert np.linalg.eigvalsh(clamped)[0] >= 0.0
        assert np.trace(clamped).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_arrays(self, bad, entry):
        rho = np.eye(2, dtype=complex) / 2
        rho[entry] = rho[entry[::-1]] = bad
        with pytest.raises(ValidationError, match="Hermitian"):
            losses.fidelity(rho, np.eye(2) / 2)


class TestLogFidelityForm:
    def test_identical_states_give_zero(self):
        rng = np.random.default_rng(4)
        rho = qsim.random_density_matrix(2, rng)
        assert losses.log_fidelity_paper_form(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_equals_log_of_fidelity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng)
            sigma = qsim.random_density_matrix(2, rng)
            assert losses.log_fidelity_paper_form(rho, sigma) == pytest.approx(
                math.log(losses.fidelity(rho, sigma)), abs=1e-10
            )

    def test_zero_vs_plus_value(self):
        s = 1 / math.sqrt(2)
        got = losses.log_fidelity_paper_form(qsim.pure_state([1, 0]), qsim.pure_state([s, s]))
        assert got == pytest.approx(math.log(0.5), abs=1e-10)

    def test_orthogonal_states_raise(self):
        with pytest.raises(ArithmeticError):
            losses.log_fidelity_paper_form(qsim.pure_state([1, 0]), qsim.pure_state([0, 1]))


class TestPetzRenyi:
    def test_mixed_vs_itself_zero(self):
        mixed = qsim.maximally_mixed(3)
        assert losses.petz_renyi_divergence(mixed, mixed) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed_is_n_log2(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 4):
            mixed = qsim.maximally_mixed(n)
            pure = qsim.random_pure_state(n, rng)
            for alpha in (0.5, 2.0, 3.0):
                got = losses.petz_renyi_divergence(pure, mixed, alpha)
                assert got == pytest.approx(n * math.log(2), abs=1e-9)

    def test_two_level_example(self):
        rho = qsim.DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex))
        got = losses.petz_renyi_divergence(rho, qsim.maximally_mixed(1), 2.0)
        assert got == pytest.approx(math.log(1.25), abs=1e-12)
        assert got == pytest.approx(0.2231, abs=1e-4)

    def test_reference_power_memo_is_bitwise(self):
        """Calls that reuse one reference state return exactly what a fresh
        reference state or its raw array gives."""
        rng = np.random.default_rng(12)
        sigma = qsim.random_density_matrix(3, rng)
        for alpha in (0.5, 2.0, 3.0):
            for _ in range(2):
                rho = qsim.random_density_matrix(3, rng)
                got = losses.petz_renyi_divergence(rho, sigma, alpha)
                fresh = qsim.DensityMatrix(3, sigma.data)
                assert got == losses.petz_renyi_divergence(rho, fresh, alpha)
                assert got == losses.petz_renyi_divergence(rho, sigma.data, alpha)
        assert not sigma.power(-1.0).flags.writeable

    @pytest.mark.parametrize("n", range(1, 7))
    def test_integer_order_matches_eigendecomposition(self, n):
        """At integer order the matrix-product form agrees with the spectral
        form ``Tr[rho^a sigma^(1-a)]`` built from ``eigh`` to 1e-12."""

        def spectral(rho, sigma, alpha):
            rho_a = qsim.hermitian_power(rho.data, alpha, rel_floor=1e-13)
            sigma_b = qsim.hermitian_power(sigma.data, 1.0 - alpha, rel_floor=1e-13)
            return math.log(np.trace(rho_a @ sigma_b).real) / (alpha - 1.0)

        rng = np.random.default_rng(40 + n)
        for alpha in (2.0, 3.0):
            for rho in (qsim.random_pure_state(n, rng), qsim.random_density_matrix(n, rng)):
                for sigma in (qsim.maximally_mixed(n), qsim.random_density_matrix(n, rng)):
                    want = spectral(rho, sigma, alpha)
                    got = losses.petz_renyi_divergence(rho, sigma, alpha)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_alpha_one_rejected(self):
        mixed = qsim.maximally_mixed(1)
        with pytest.raises(ValidationError):
            losses.petz_renyi_divergence(mixed, mixed, 1.0)
        with pytest.raises(ValidationError):
            losses.petz_renyi_divergence(mixed, mixed, -0.5)

    def test_singular_sigma_rejected_for_large_alpha(self):
        rng = np.random.default_rng(7)
        pure = qsim.random_pure_state(2, rng)
        with pytest.raises(ValidationError):
            losses.petz_renyi_divergence(qsim.maximally_mixed(2), pure, 2.0)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        mixed = qsim.maximally_mixed(2)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng)
            d = losses.petz_renyi_divergence(rho, mixed)
            assert d >= -1e-12
            if np.linalg.norm(rho.data - mixed.data) > 1e-8:
                assert d > 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng)
            sigma = qsim.random_density_matrix(2, rng)
            u = qsim.haar_random_unitary(2, rng)
            a = losses.petz_renyi_divergence(rho, sigma)
            b = losses.petz_renyi_divergence(qsim.evolve(rho, u), qsim.evolve(sigma, u))
            assert abs(a - b) <= 1e-9

    def test_data_processing_inequality(self):
        """Pauli channels fix the mixed state, so divergence cannot grow."""
        rng = np.random.default_rng(10)
        mixed = qsim.maximally_mixed(3)
        gens = noise.default_generators(3)
        for _ in range(200):
            rho = qsim.random_density_matrix(3, rng)
            model = noise.NoiseModel(3, gens, rng.uniform(0, 0.2, len(gens)))
            before = losses.petz_renyi_divergence(rho, mixed)
            after = losses.petz_renyi_divergence(noise.apply_channel(rho, model), mixed)
            assert after <= before + 1e-12


class TestForwardBackwardLoss:
    def test_identical_states(self):
        rng = np.random.default_rng(11)
        rho = qsim.random_density_matrix(2, rng)
        assert losses.forward_backward_loss(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_half_fidelity_pair(self):
        s = 1 / math.sqrt(2)
        got = losses.forward_backward_loss(qsim.pure_state([1, 0]), qsim.pure_state([s, s]))
        assert got == pytest.approx(math.log(2), abs=1e-9)

    def test_orthogonal_states_capped(self):
        got = losses.forward_backward_loss(qsim.pure_state([1, 0]), qsim.pure_state([0, 1]))
        assert got == losses.FB_LOSS_CAP

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = qsim.random_density_matrix(2, rng)
            b = qsim.random_density_matrix(2, rng)
            assert losses.forward_backward_loss(a, b) >= 0.0


class TestTaskLoss:
    def test_saturated_logit(self):
        z = np.array([30.0, -30.0, 0.0, 0.0])
        assert losses.task_loss(z, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        assert losses.task_loss(np.zeros(4), 1, 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_two_class_example(self):
        got = losses.task_loss(np.array([1.0, -1.0, 0.3, 0.4]), 0, 2)
        expected = -math.log(math.exp(1) / (math.exp(1) + math.exp(-1)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1269, abs=1e-4)

    def test_batched_softmax_head_matches_row_by_row(self):
        rng = np.random.default_rng(22)
        z = rng.uniform(-1, 1, (2, 3, 4))
        got = losses.softmax_head(z, 3)
        assert got.shape == (2, 3, 3)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(got[idx], losses.softmax_head(z[idx], 3), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            losses.task_loss(np.zeros(4), 2, 2)

    def test_class_count_bounded_by_readout(self):
        with pytest.raises(ValidationError):
            losses.task_loss(np.zeros(4), 0, 5)


class TestTotalLoss:
    """The weights of the engine's total ``alpha_fb * fb + alpha_task * task``."""

    def test_both_zero_rejected(self):
        with pytest.raises(ValidationError):
            losses.LossWeights(0.0, 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            losses.LossWeights(-1.0, 1.0)


class TestTotalFbLoss:
    def _chain(self, rng, depth=4, rates=None, design="U2"):
        circuit = pqc.random_circuit(4, depth, design, rng)
        rho0 = qsim.random_pure_state(4, rng)
        if rates is None:
            models = [noise.depolarizing_model(4, 0.0)] * depth
        else:
            models = noise.draw_noise_models(4, depth, seed=int(rng.integers(2**31)))
        states = [rho0] + pqc.forward_noisy(rho0, circuit, models)
        return circuit, states, models

    def test_zero_noise_zero_mitigation_is_zero(self):
        rng = np.random.default_rng(13)
        for step in (1, 2, 4):
            circuit, states, _ = self._chain(rng)
            result = losses.total_fb_loss(states, circuit, noise.MitigationModel.zeros(4, 4), step)
            assert abs(result.value) <= 1e-10
            assert len(result.per_block) == 4 // step

    def test_single_block_at_full_step(self):
        rng = np.random.default_rng(14)
        circuit, states, _ = self._chain(rng, rates="draw")
        result = losses.total_fb_loss(states, circuit, noise.MitigationModel.zeros(4, 4), 4)
        assert len(result.per_block) == 1

    def test_perfect_mitigation_any_step(self):
        rng = np.random.default_rng(15)
        circuit, states, models = self._chain(rng, rates="draw")
        mit = noise.MitigationModel.from_noise_models(models)
        for step in (1, 2, 4):
            result = losses.total_fb_loss(states, circuit, mit, step)
            assert result.value <= 1e-8

    def test_step_must_divide_depth(self):
        rng = np.random.default_rng(16)
        circuit, states, _ = self._chain(rng)
        with pytest.raises(ValidationError):
            losses.total_fb_loss(states, circuit, noise.MitigationModel.zeros(4, 4), 3)

    def test_positive_loss_under_unmitigated_noise(self):
        rng = np.random.default_rng(17)
        circuit, states, _ = self._chain(rng, rates="draw")
        result = losses.total_fb_loss(states, circuit, noise.MitigationModel.zeros(4, 4), 1)
        assert result.value > 1e-6

    def test_cascaded_mode_chain(self):
        """Cascaded chain with exact rates has zero loss at every step size."""
        rng = np.random.default_rng(18)
        circuit = pqc.random_circuit(4, 4, "U2", rng)
        rho0 = qsim.random_pure_state(4, rng)
        models = noise.draw_noise_models(4, 4, seed=7)
        mit = noise.MitigationModel.from_noise_models(models)
        _, mitigated = pqc.forward_mitigated(rho0, circuit, models, mit, "cascaded")
        states = [rho0] + mitigated
        for step in (1, 2, 4):
            result = losses.total_fb_loss(states, circuit, mit, step, mode="cascaded")
            assert result.value <= 1e-8

    def test_reports_clamped_mass_for_quasi_states(self):
        rng = np.random.default_rng(19)
        circuit = pqc.random_circuit(2, 2, "U2", rng)
        rho0 = qsim.random_pure_state(2, rng)
        models = noise.draw_noise_models(2, 2, seed=3, low=0.001, high=0.004)
        over = noise.MitigationModel(
            2, models[0].generators, np.stack([m.rates for m in models]) * 4.0
        )
        states = [rho0] + pqc.forward_noisy(rho0, circuit, models)
        result = losses.total_fb_loss(states, circuit, over, 1)
        assert result.clamped_mass > 0.0


def conditioned_adjoint(grad, cache):
    """The engine's conditioning adjoint for a standard-basis gradient."""
    vecs = cache["vecs"]
    return losses._condition_adjoint_eigenbasis(losses._dagger(vecs) @ grad @ vecs, cache)


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
        rebuilt = (vecs * cache["cond"][..., None, :]) @ losses._dagger(vecs)
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
        pure = qsim.random_pure_state(2, rng).data
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
    pure = qsim.random_pure_state(n, rng).data
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
        rng = np.random.default_rng(60)
        a, b = _fb_pairs(rng, 2)["mixed"]
        _, cache = losses._fb_pair_forward(a[None], b[None])
        ga, gb = losses._fb_pair_backward(cache, np.ones(1))
        none, gb_only = losses._fb_pair_backward(cache, np.ones(1), with_target=False)
        assert none is None
        assert np.array_equal(gb, gb_only)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_absorbed_unit_and_closed_form_target(self, n):
        """``_fb_pair_forward(a, b, u)`` compares ``a`` with ``u^dagger b u``
        without forming it, and returns the pullback's gradient w.r.t. ``b``;
        a pure target may come as the closed-form spectrum of its vector.
        Both agree with the matrix-form head on the explicit conjugation.
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
        pure = losses._pure_spectrum(psi)
        g_loss = np.linspace(0.3, 1.2, len(pairs))
        for target, dense_target in ((a, a), (pure, pqc.pure_states(psi))):
            loss, cache = losses._fb_pair_forward(target, b, u)
            ga, gb = losses._fb_pair_backward(cache, g_loss)
            ref_loss, ref_cache = dense_reference.fb_pair_forward(dense_target, u.conj().T @ b @ u)
            ref_ga, ref_gb = dense_reference.fb_pair_backward(ref_cache, g_loss)
            for got, ref in ((loss, ref_loss), (ga, ref_ga), (gb, u @ ref_gb @ u.conj().T)):
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale


class TestPureSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_eigh(self, n):
        """The closed-form spectrum of ``psi psi^dagger``: orthonormal
        eigenpairs in ascending order, the conditioned spectrum of ``eigh``,
        and ``U V`` as a rank-one update; also for ``psi`` orthogonal to
        and equal to the last basis vector, and of norm other than 1."""
        rng = np.random.default_rng(80 + n)
        dim = 1 << n
        psi = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        psi[2], psi[3] = np.eye(dim)[0], 1j * np.eye(dim)[-1]
        psi[4] *= 1.0 + 1e-9
        rho = pqc.pure_states(psi)
        closed = losses._pure_spectrum(psi)
        dense = losses._condition_spectrum(rho)
        vecs = losses._rotated_vecs(closed)
        np.testing.assert_allclose(vecs @ np.conj(np.swapaxes(vecs, -1, -2)),
                                   np.broadcast_to(np.eye(dim), vecs.shape), rtol=0, atol=1e-14)
        eigs = closed["eigs"]
        np.testing.assert_allclose(rho @ vecs, vecs * eigs[:, None, :], rtol=0, atol=1e-14)
        np.testing.assert_allclose(closed["eigs"], dense["eigs"], rtol=0, atol=1e-14)
        np.testing.assert_allclose(closed["cond"], dense["cond"], rtol=0, atol=1e-14)
        assert closed["neg_mass"] == 0.0
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        np.testing.assert_allclose(losses._rotated_vecs(closed, u), u @ vecs, rtol=0, atol=1e-14)
