"""Pauli-Lindblad channels: product form, inverse, overhead."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_reference as dense
from qmit import cli, losses, noise, pqc, qsim
from qmit.errors import ValidationError


def random_model(n, rng, high=0.1):
    gens = noise.default_generators(n)
    return noise.NoiseModel(n, gens, rng.uniform(0.0, high, len(gens)))


class TestPauliString:
    def test_matrix_matches_kron(self):
        """The dense reference's Pauli string matrix is the Kronecker product."""
        np.testing.assert_allclose(dense.pauli_matrix("XZ"), np.kron(qsim.PAULI_X, qsim.PAULI_Z))

    def test_self_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            letters = "".join(rng.choice(list("IXYZ"), n))
            mat = dense.pauli_matrix(letters)
            np.testing.assert_allclose(mat @ mat, np.eye(1 << n), atol=1e-12)


# A noise file as cli.write_json writes noise_layers_json, but for the last
# newline: a generator is {"pauli": letters, "lambda": rate}.
NOISE_FILE = """{
  "layers": [
    {
      "generators": [
        {
          "lambda": 0.01,
          "pauli": "XI"
        },
        {
          "lambda": 0.025,
          "pauli": "ZZ"
        },
        {
          "lambda": 0.0,
          "pauli": "IY"
        }
      ],
      "n": 2
    }
  ],
  "n": 2
}"""


class TestNoiseModel:
    def test_rejects_negative_rates(self):
        gens = noise.default_generators(1)
        with pytest.raises(ValidationError):
            noise.NoiseModel(1, gens, [-0.1, 0.0, 0.0])

    @pytest.mark.parametrize(
        "n, generator, reason",
        [
            (2, "X", "length"),
            (2, "XYZ", "length"),
            (2, "XA", "letters"),
            (2, "xz", "letters"),
            (1, "I", "identity"),
            (2, "II", "identity"),
            (1, 5, "not a string"),
            (1, None, "not a string"),
            (2, ("X", "Z"), "not a string"),
        ],
    )
    def test_rejects_bad_generator(self, n, generator, reason):
        """Each generator is an ``n``-letter string over IXYZ with a
        non-identity letter; the error names the generator."""
        with pytest.raises(ValidationError, match=reason) as err:
            noise.NoiseModel(n, ("X" * n, generator), [0.1, 0.1])
        assert repr(generator) in str(err.value)

    def test_weights_range(self):
        rng = np.random.default_rng(3)
        model = random_model(2, rng, high=2.0)
        w = model.weights
        assert np.all(w <= 1.0) and np.all(w > 0.5)
        zero = noise.NoiseModel(1, noise.default_generators(1), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(zero.weights, 1.0)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(4)
        model = random_model(3, rng)
        back = noise.NoiseModel.from_json(json.loads(json.dumps(model.to_json())))
        assert back.n == model.n
        assert back.generators == model.generators
        np.testing.assert_allclose(back.rates, model.rates)

    def test_noise_file_loads_and_round_trips(self, tmp_path):
        """A noise file in the ``{"pauli", "lambda"}`` layout loads as
        letter strings and is written back byte for byte."""
        (model,) = noise.noise_layers_from_json(json.loads(NOISE_FILE))
        assert model.n == 2
        assert model.generators == ("XI", "ZZ", "IY")
        assert model.rates.tolist() == [0.01, 0.025, 0.0]
        cli.write_json(tmp_path / "again.json", noise.noise_layers_json([model]))
        assert (tmp_path / "again.json").read_text(encoding="utf-8") == NOISE_FILE + "\n"

    @pytest.mark.parametrize(
        "where, change, message",
        [
            ("model", {"n": 1.9}, "'n' must be int, got float"),
            ("model", {"n": True}, "'n' must not be a boolean"),
            ("model", {"n": "2"}, "'n' must be int, got str"),
            ("model", {"extra": 1}, "unknown key 'extra'"),
            ("model", {"generators": {"pauli": "XI"}}, "'generators' must be list"),
            ("generator", {"lambda": True}, "'lambda' must not be a boolean"),
            ("generator", {"lambda": "0.01"}, "'lambda' must be int/float, got str"),
            ("generator", {"lambda": None}, "'lambda' must be int/float, got NoneType"),
            ("generator", {"lambda": math.nan}, "'lambda' must be finite"),
            ("generator", {"lambda": math.inf}, "'lambda' must be finite"),
            ("generator", {"pauli": 5}, "'pauli' must be str, got int"),
            ("generator", {"weight": 1.0}, "unknown key 'weight'"),
        ],
    )
    def test_from_json_checks_values_as_configs_are(self, where, change, message):
        """A noise model's values are checked as the CLI checks a config's:
        no truncated float ``n``, no booleans, no numbers as strings, no
        non-finite rates and no unknown keys, at the model and at each
        generator; each raises ``ValidationError`` naming the key."""
        payload = json.loads(NOISE_FILE)["layers"][0]
        (payload if where == "model" else payload["generators"][1]).update(change)
        with pytest.raises(ValidationError, match=re.escape(message)):
            noise.NoiseModel.from_json(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 2, "layers": [], "extra": 1}, "unknown key 'extra'"),
            ({"n": 2}, "missing required key 'layers'"),
            ([], "must be dict"),
            ({"n": 2, "layers": [[]]}, "noise model must be dict"),
            ({"n": 2, "layers": [{"n": 2}]}, "missing required key 'generators'"),
            ({"n": 2, "layers": [{"n": 1, "generators": [{"pauli": "X"}]}]},
             "missing required key 'lambda'"),
            ({"n": 2, "layers": [{"n": 3, "generators": [{"pauli": "XII", "lambda": 0.1}]}]},
             '"n" is 2, its layers act on [3] qubits'),
            ({"n": 1, "layers": [{"n": 1, "generators": [{"pauli": "X", "lambda": 0.1}]},
                                 {"n": 2, "generators": [{"pauli": "XY", "lambda": 0.1}]}]},
             '"n" is 1, its layers act on [1, 2] qubits'),
        ],
    )
    def test_noise_file_structure_is_checked(self, payload, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            noise.noise_layers_from_json(payload)

    def test_default_generator_order(self):
        gens = noise.default_generators(2)
        assert gens == ("XI", "YI", "ZI", "IX", "IY", "IZ")


def apply(x, model, inverse=False):
    """The model's channel (or its inverse, the channel of the negated
    rates) on the matrix ``x``."""
    rates = -model.rates if inverse else model.rates
    return noise.apply_pauli_fidelities(x, model.generators, rates)


class TestProductChannel:
    def test_zero_rates_identity(self):
        rng = np.random.default_rng(8)
        rho = qsim.random_density_matrix(2, rng)
        model = noise.NoiseModel(2, noise.default_generators(2), np.zeros(6))
        np.testing.assert_allclose(apply(rho.data, model), rho.data)

    def test_single_x_weight(self):
        """lambda=0.5 on X mixes with weight w = (1 + e^{-1}) / 2."""
        model = noise.NoiseModel(1, ("X",), [0.5])
        out = apply(qsim.pure_state([1, 0]).data, model)
        w = 0.5 * (1 + math.exp(-1.0))
        np.testing.assert_allclose(out, np.diag([w, 1 - w]), atol=1e-14)

    def test_maximally_mixed_fixed(self):
        """Every Pauli channel is unital: it fixes the maximally mixed state."""
        rng = np.random.default_rng(6)
        mixed = np.eye(8) / 8
        for _ in range(20):
            out = apply(mixed, random_model(3, rng, high=0.5))
            np.testing.assert_allclose(out, mixed, atol=1e-14)

    def test_output_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            out = apply(qsim.random_density_matrix(3, rng).data, random_model(3, rng, high=0.5))
            assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_factor_order_is_immaterial(self):
        """Pauli conjugation superoperators commute, so any order agrees."""
        rng = np.random.default_rng(11)
        rho = qsim.random_density_matrix(2, rng)
        gens = noise.default_generators(2)
        rates = rng.uniform(0.0, 0.3, len(gens))
        fwd = apply(rho.data, noise.NoiseModel(2, gens, rates))
        rev = apply(rho.data, noise.NoiseModel(2, tuple(reversed(gens)), rates[::-1]))
        np.testing.assert_allclose(fwd, rev, atol=1e-13)


    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            apply(np.eye(2) / 2, random_model(2, rng))

    def test_smaller_model_on_larger_state_rejected(self):
        """Without the check, a one-qubit model on a two-qubit state would
        act on qubit 0 alone."""
        rng = np.random.default_rng(9)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            apply(np.eye(4) / 4, random_model(1, rng))


class TestInverseChannel:
    def test_zero_rates_identity(self):
        rng = np.random.default_rng(13)
        rho = qsim.random_density_matrix(2, rng)
        model = noise.NoiseModel(2, noise.default_generators(2), np.zeros(6))
        np.testing.assert_allclose(apply(rho.data, model, inverse=True), rho.data)

    def test_roundtrip_exact(self):
        """Inverse-of-forward recovers the input to 1e-10 Frobenius."""
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            rho = qsim.random_density_matrix(n, rng)
            model = random_model(n, rng, high=0.1)
            back = apply(apply(rho.data, model), model, inverse=True)
            assert np.linalg.norm(back - rho.data) <= 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rho = qsim.random_density_matrix(3, rng).data
            out = apply(rho, random_model(3, rng, high=0.02), inverse=True)
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_output_marked_quasi(self):
        """Over-mitigating a noisy state leaves small negative eigenvalues:
        the output is a quasi-state."""
        rng = np.random.default_rng(16)
        rho = qsim.pure_state(qsim.random_state_vector(2, rng))
        forward = random_model(2, rng, high=0.005)
        overshoot = noise.NoiseModel(2, forward.generators, forward.rates * 3.0)
        out = apply(apply(rho.data, forward), overshoot, inverse=True)
        assert np.linalg.eigvalsh(out)[0] < -1e-12


class TestSamplingOverhead:
    def test_zero_rates(self):
        model = noise.NoiseModel(1, noise.default_generators(1), np.zeros(3))
        assert noise.sampling_overhead(model) == pytest.approx(1.0)

    def test_single_half_rate(self):
        model = noise.NoiseModel(1, ("X",), [0.5])
        assert noise.sampling_overhead(model) == pytest.approx(math.e)

    def test_example_value(self):
        model = noise.NoiseModel(1, tuple(noise.default_generators(1)[:2]), [0.1, 0.2])
        assert noise.sampling_overhead(model) == pytest.approx(math.exp(0.6))
        assert math.exp(0.6) == pytest.approx(1.8221, abs=1e-4)

    def test_dual_forms_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = random_model(3, rng, high=0.5)
            a = noise.sampling_overhead(model, "exp")
            b = noise.sampling_overhead(model, "product")
            assert abs(a - b) / a <= 1e-12


def _damp(rho, gamma, target):
    """Amplitude damping of a state through the one-qubit superoperator kernel."""
    superop = noise.amplitude_damping_superoperator(gamma)
    return noise.apply_qubit_superoperators(rho.data, [(target, superop)])


class TestAmplitudeDamping:
    def test_zero_damping(self):
        rng = np.random.default_rng(18)
        rho = qsim.random_density_matrix(2, rng)
        np.testing.assert_allclose(noise.amplitude_damping_superoperator(0.0), np.eye(4))
        np.testing.assert_allclose(_damp(rho, 0.0, 0), rho.data)

    def test_full_damping_gives_ground_state(self):
        rng = np.random.default_rng(19)
        rho = qsim.random_density_matrix(1, rng)
        np.testing.assert_allclose(_damp(rho, 1.0, 0), [[1, 0], [0, 0]], atol=1e-12)

    def test_half_damping_on_excited(self):
        out = _damp(qsim.pure_state([0, 1]), 0.5, 0)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_validates_probability(self):
        for gamma in (-0.1, 1.5, math.nan):
            with pytest.raises(ValidationError):
                noise.amplitude_damping_superoperator(gamma)

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_matches_embedded_kraus_pair(self, target):
        rho = qsim.random_density_matrix(3, np.random.default_rng(20 + target))
        gamma = 0.3
        kraus = ([[1, 0], [0, math.sqrt(1 - gamma)]], [[0, math.sqrt(gamma)], [0, 0]])
        want = sum(
            a @ rho.data @ a.conj().T for a in (dense.embed_one_qubit(k, target, 3) for k in kraus)
        )
        np.testing.assert_allclose(_damp(rho, gamma, target), want, rtol=0, atol=1e-14)


def depolarizing(n, rate):
    """Uniform rate on every single-qubit X, Y and Z generator."""
    gens = noise.default_generators(n)
    return noise.NoiseModel(n, gens, np.full(len(gens), rate))


class TestDepolarizing:
    def test_zero_rate_identity(self):
        rng = np.random.default_rng(20)
        rho = qsim.random_density_matrix(2, rng)
        np.testing.assert_allclose(apply(rho.data, depolarizing(2, 0.0)), rho.data)

    def test_generator_count(self):
        assert len(depolarizing(4, 0.1).generators) == 12

    def test_contracts_off_diagonals(self):
        rng = np.random.default_rng(21)
        rho = qsim.random_density_matrix(1, rng).data
        model = depolarizing(1, 0.05)
        prev = abs(rho[0, 1])
        for _ in range(10):
            rho = apply(rho, model)
            cur = abs(rho[0, 1])
            assert cur < prev + 1e-15
            prev = cur

    def test_drives_toward_maximally_mixed(self):
        rng = np.random.default_rng(22)
        rho = qsim.pure_state(qsim.random_state_vector(1, rng)).data
        model = depolarizing(1, 0.05)
        for _ in range(300):
            rho = apply(rho, model)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-8)


class TestDivergenceContraction:
    def test_strict_decrease_for_noncommuting_generator(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = qsim.random_density_matrix(2, rng)
            model = noise.NoiseModel(2, ("XI",), [0.05])
            before = losses.petz_renyi_divergence(rho)
            after = losses.petz_renyi_divergence(apply(rho.data, model))
            assert after < before - 1e-12

    def test_commuting_state_is_fixed(self):
        """A state diagonal in the generator eigenbasis is untouched."""
        rho = qsim.DensityMatrix(1, np.diag([0.8, 0.2]).astype(complex))
        model = noise.NoiseModel(1, ("Z",), [0.3])
        np.testing.assert_allclose(apply(rho.data, model), rho.data, atol=1e-15)


class TestMitigationModel:
    """Per-layer rate tables: seeded draws and the noise-layer file."""

    def test_noise_layer_file_roundtrip(self, tmp_path):
        models = noise.draw_noise_models(2, 3, seed=5)
        path = tmp_path / "noise.json"
        cli.write_json(path, noise.noise_layers_json(models))
        back = noise.noise_layers_from_json(json.loads(path.read_text(encoding="utf-8")))
        assert len(back) == 3
        for a, b in zip(models, back):
            np.testing.assert_allclose(a.rates, b.rates)

    def test_draw_noise_models_deterministic(self):
        a = noise.draw_noise_models(3, 2, seed=9)
        b = noise.draw_noise_models(3, 2, seed=9)
        for ma, mb in zip(a, b):
            np.testing.assert_allclose(ma.rates, mb.rates)
        assert np.all(a[0].rates >= 0.002) and np.all(a[0].rates <= 0.02)


# Generator sets for the kernel checks: weight-1 sets take the per-qubit
# (separable) path, sets with two- and three-qubit strings the general path.
GENERATOR_SETS = {
    "default-1": list(noise.default_generators(1)),
    "default-2": list(noise.default_generators(2)),
    "default-3": list(noise.default_generators(3)),
    "one-qubit-model": ["IXI", "IYI", "IZI"],
    "general-2": ["XX", "ZY", "YI", "IZ", "ZZ"],
    "general-3": ["XXI", "IZY", "XYZ", "ZIZ", "YII", "IXX"],
}


# Leading axes of the kernel inputs: none, one and two.
LEADS = [(), (3,), (2, 3)]
LEAD_IDS = ["d,d", "3,d,d", "2,3,d,d"]


def _kernel_case(name, seed, lead=(3,)):
    rng = np.random.default_rng(seed)
    gens = GENERATOR_SETS[name]
    n = len(gens[0])
    rates = rng.uniform(0.0, 0.3, len(gens))
    shape = lead + (1 << n, 1 << n)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gens, rates, x, g


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
class TestPauliFidelityKernel:
    """The kernel against the dense reference (``P rho P`` products)."""

    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_matches_dense_channel(self, name, inverse, lead):
        gens, rates, x, _ = _kernel_case(name, 31, lead)
        got = noise.apply_pauli_fidelities(x, gens, -rates if inverse else rates)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, dense.channel(x, gens, rates, inverse), atol=1e-13)

    def test_mix_superoperators(self, name):
        """Weight-1 sets give one mix per qubit, applied by the superoperator
        kernel; sets with a longer string give ``None``."""
        gens, rates, x, _ = _kernel_case(name, 34)
        mixes = noise.pauli_mix_superoperators(gens, rates)
        if name.startswith("general"):
            assert mixes is None
            return
        assert sorted(q for q, _ in mixes) == sorted({w.index(w.strip("I")) for w in gens})
        got = noise.apply_qubit_superoperators(x, mixes)
        np.testing.assert_allclose(got, dense.channel(x, gens, rates, False), atol=1e-13)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_fidelity_table_scales_each_pauli_string(self, name, inverse):
        """``pauli_fidelity_table`` holds the factor by which the dense
        channel, and the kernel, multiply each Pauli string, indexed by one
        base-4 digit per qubit (I, X, Y, Z), qubit 0 the most significant;
        for weight-1 sets it is the product of the letters'
        ``qubit_fidelities``, which are ``None`` for the general sets."""
        gens, rates, _, _ = _kernel_case(name, 35)
        n = len(gens[0])
        signed = -rates if inverse else rates
        table = noise.pauli_fidelity_table(gens, signed)
        fid = noise.qubit_fidelities(gens, signed)
        assert table.shape == (4**n,)
        assert (fid is None) == name.startswith("general")
        for index, word in enumerate(itertools.product("IXYZ", repeat=n)):
            p = dense.pauli_matrix("".join(word))
            want = table[index] * p
            bound = 1e-13 * table[index]
            np.testing.assert_allclose(dense.channel(p, gens, rates, inverse), want, atol=bound)
            np.testing.assert_allclose(
                noise.apply_pauli_fidelities(p, gens, signed), want, atol=bound
            )
            if fid is not None:
                factors = [fid[q, "XYZ".index(ch)] for q, ch in enumerate(word) if ch != "I"]
                assert table[index] == pytest.approx(math.prod(factors), rel=1e-14)

    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_is_its_own_adjoint(self, name, inverse, lead):
        gens, rates, x, g = _kernel_case(name, 32, lead)
        signed = -rates if inverse else rates
        kernel_adj = noise.apply_pauli_fidelities(g, gens, signed)
        np.testing.assert_allclose(kernel_adj, dense.adjoint(g, gens, rates, inverse), atol=1e-13)
        lhs = dense.pairing(g, noise.apply_pauli_fidelities(x, gens, signed))
        rhs = dense.pairing(kernel_adj, x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_does_not_write_its_input(self, name):
        gens, rates, x, _ = _kernel_case(name, 34)
        before = x.copy()
        noise.apply_pauli_fidelities(x, gens, rates)
        noise.apply_pauli_fidelities(x, gens, -rates)
        assert np.array_equal(x, before)


class TestKernelMemory:
    @pytest.mark.parametrize(
        "gens", [["ZZIIIIII", "IXXIIIII", "YIYIIIII", "XIIIIIII"], noise.default_generators(8)],
        ids=["general", "separable"],
    )
    def test_peak_in_stacks(self, gens):
        """Both paths of the kernel peak below 2.5 copies of a ``(2, 256,
        256)`` input (traced memory, input excluded): 2.25 on the general
        path, whose Pauli-digit stack is freed by the first pass back, and
        2.00 on the separable one.  Holding the digit stack through the
        passes back took 3.00."""
        rng = np.random.default_rng(36)
        x = rng.standard_normal((2, 256, 256)) + 1j * rng.standard_normal((2, 256, 256))
        rates = rng.uniform(0.0, 0.02, len(gens))
        noise.apply_pauli_fidelities(x, gens, rates)
        tracemalloc.start()
        try:
            noise.apply_pauli_fidelities(x, gens, rates)
            peak = tracemalloc.get_traced_memory()[1] / x.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 2.5, peak


class TestKernelBuffers:
    """The kernel's passes run in two buffers it owns and never write its
    input."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_entry_point_writes_its_input(self, monkeypatch, n, lead, dtype):
        """``apply_qubit_superoperators``, both paths of
        ``apply_pauli_fidelities`` (the general one from n = 2) and
        ``learned_inverse_adjoint`` leave read-only inputs as they were and
        hand ``digit_passes``, which overwrites its ``obs``, no view of
        them: also at one qubit with no leading axes, where the pair layout
        is the identity and a contiguous view of the input is the input."""
        handed, passes = [], noise.digit_passes
        monkeypatch.setattr(
            noise, "digit_passes", lambda obs, *args: handed.append(obs) or passes(obs, *args)
        )
        rng = np.random.default_rng(170 + n)
        shape = lead + (1 << n, 1 << n)
        x, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        if dtype is complex:
            x += 1j * rng.standard_normal(shape)
        before = [x.copy(), g.copy()]
        x.setflags(write=False)
        g.setflags(write=False)
        rates = rng.uniform(0.0, 0.3, 3 * n)
        mixes = noise.pauli_mix_superoperators(noise.default_generators(n), rates)
        noise.apply_qubit_superoperators(x, mixes)
        noise.apply_qubit_superoperators(x, [(0, rng.uniform(-1, 1, (4, 4)))])
        for signed in (rates, -rates):
            noise.apply_pauli_fidelities(x, noise.default_generators(n), signed)
            if n >= 2:
                noise.apply_pauli_fidelities(x, ["Z" * n, "X" + "I" * (n - 1)], signed[:2])
        noise.learned_inverse_adjoint(g, x, rates)
        assert all(np.array_equal(a, b) for a, b in zip((x, g), before))
        assert handed
        assert not any(np.shares_memory(obs, x) or np.shares_memory(obs, g) for obs in handed)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_digit_passes_alternate_two_buffers(self, n, dtype):
        """``digit_passes`` gives the bits of one fresh ``@`` per pass and
        returns ``obs`` after an even number of passes, else the spare;
        traced, a call allocates at most one array the size of ``obs`` (the
        spare it is not given) and 16 KiB of views."""
        rng = np.random.default_rng(180 + n)
        obs = rng.standard_normal((3, 4**n)).astype(dtype)
        ops = list(rng.standard_normal((n, 4, 4)))
        want = obs
        for op in ops:
            want = want.reshape(3, 4, -1).transpose(0, 2, 1) @ op.T
        want = want.reshape(3, -1)
        for given in (False, True):
            buffers = [obs.copy(), np.empty_like(obs) if given else None]
            tracemalloc.start()
            try:
                got = noise.digit_passes(buffers[0], ops, buffers[1])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (0 if given else obs.nbytes) + 16 * 1024
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if n % 2 == 0:
                assert got is buffers[0]
            elif given:
                assert got is buffers[1]
            else:
                assert not np.shares_memory(got, buffers[0])


@st.composite
def superoperator_cases(draw):
    """A stack on 1-4 qubits with leading shape (), (1,) or (3,) and up to
    five random complex 4x4 ops on unordered, possibly repeated qubits."""
    n = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    qubits = draw(st.lists(st.integers(0, n - 1), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [(q, rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))) for q in qubits]
    shape = lead + (1 << n, 1 << n)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.setflags(write=False)
    return n, ops, x


def _learned_case(n, seed, lead):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 0.3, 3 * n)
    shape = lead + (1 << n, 1 << n)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rates, x, g


@pytest.mark.parametrize("lead", LEADS, ids=LEAD_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestLearnedInverseKernel:
    """The learned inverse's map, adjoint and rate gradient against the
    dense inverse channel of the default generators."""

    def test_matches_dense_inverse(self, n, lead):
        rates, x, _ = _learned_case(n, 130 + n, lead)
        got = noise.learned_inverse(x, rates)
        want = dense.channel(x, noise.default_generators(n), rates, inverse=True)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_input_gradient_is_the_dense_adjoint(self, n, lead):
        rates, x, g = _learned_case(n, 140 + n, lead)
        g_in, _ = noise.learned_inverse_adjoint(g, noise.learned_inverse(x, rates), rates)
        want = dense.adjoint(g, noise.default_generators(n), rates, inverse=True)
        assert g_in.shape == g.shape
        np.testing.assert_allclose(g_in, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_rate_gradient_matches_dense_differences(self, n, lead):
        """The rate gradient is the derivative of ``Re tr(g y)`` for ``y``
        the inverse's output, by central differences of the dense inverse."""
        rates, x, g = _learned_case(n, 150 + n, lead)
        gens = noise.default_generators(n)
        _, got = noise.learned_inverse_adjoint(g, noise.learned_inverse(x, rates), rates)
        assert got.shape == (3 * n,)
        h = 1e-6
        for k in range(3 * n):
            step = np.zeros_like(rates)
            step[k] = h
            fd = (
                dense.pairing(g, dense.channel(x, gens, rates + step, inverse=True))
                - dense.pairing(g, dense.channel(x, gens, rates - step, inverse=True))
            ).real / (2 * h)
            assert got[k] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_does_not_write_its_input(self, n, lead):
        rates, x, g = _learned_case(n, 160 + n, lead)
        x.setflags(write=False)
        g.setflags(write=False)
        y = noise.learned_inverse(x, rates)
        noise.learned_inverse_adjoint(g, y, rates)
        noise.learned_inverse_adjoint(g, x, rates)


class TestLearnedInverse:
    """The learned inverse: the default generators, its fidelities, its
    noise models and its Z-readout gain."""

    def test_default_generators_are_cached(self):
        gens = noise.default_generators(3)
        assert noise.default_generators(3) is gens
        assert gens[:3] == ("XII", "YII", "ZII")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fidelities_scale_each_qubit_letter(self, n):
        """``learned_fidelities(row)[q, t]`` is the factor by which the
        learned inverse multiplies the letter ``XYZ[t]`` on qubit ``q``."""
        rng = np.random.default_rng(170 + n)
        row = rng.uniform(0.0, 0.3, 3 * n)
        fid = noise.learned_fidelities(row)
        assert fid.shape == (n, 3)
        for q, t in itertools.product(range(n), range(3)):
            p = dense.pauli_matrix("I" * q + "XYZ"[t] + "I" * (n - q - 1))
            np.testing.assert_allclose(noise.learned_inverse(p, row), fid[q, t] * p, atol=1e-13)

    def test_models_hold_the_rate_table(self):
        rates = np.random.default_rng(175).uniform(0.0, 0.3, (3, 6))
        models = noise.default_models(rates)
        assert [m.generators for m in models] == [noise.default_generators(2)] * 3
        np.testing.assert_array_equal(np.stack([m.rates for m in models]), rates)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_max_log_fidelity_bounds_every_string(self, n):
        """``learned_max_log_fidelity`` of a rate table is the sum over its
        layers of the largest log of the inverse's ``pauli_fidelity_table``,
        and ``inf`` for rates whose sum overflows."""
        rng = np.random.default_rng(190 + n)
        rates = rng.uniform(0.0, 0.3, (3, 3 * n))
        gens = noise.default_generators(n)
        want = sum(np.log(noise.pauli_fidelity_table(gens, -row)).max() for row in rates)
        assert noise.learned_max_log_fidelity(rates) == pytest.approx(want, rel=1e-14)
        assert noise.learned_max_log_fidelity(np.full((1, 3 * n), 1e308)) == math.inf

    @pytest.mark.parametrize("n", range(1, 9))
    def test_z_gain_is_the_inverse_on_z_readouts(self, n):
        """``learned_z_gains(row) * Tr(Z_q x)`` is ``Tr(Z_q y)`` of the
        inverse ``y`` of a random mixed ``x``, to 1e-12 of the gain (the
        largest readout a gained state can give)."""
        rng = np.random.default_rng(80 + n)
        for _ in range(5):
            x = qsim.random_density_matrix(n, rng).data
            row = rng.uniform(0.0, 0.3, 3 * n)
            gain = noise.learned_z_gains(row)
            y = noise.learned_inverse(x, row)
            assert gain.shape == (n,)
            error = np.abs(gain * pqc.z_expectations(x) - pqc.z_expectations(y)) / gain
            assert np.max(error) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_forms_give_identical_results(n):
    """Every function that takes generators gives the same bits for
    :func:`noise.default_generators`, a tuple of the same words built here,
    and a list of them."""
    rng = np.random.default_rng(90 + n)
    cached = noise.default_generators(n)
    built = tuple("".join(ch if k == q else "I" for k in range(n))
                  for q in range(n) for ch in "XYZ")
    assert built == cached and built is not cached
    rates = rng.uniform(0.0, 0.3, 3 * n)
    shape = (2, 1 << n, 1 << n)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def results(gens):
        mixes = noise.pauli_mix_superoperators(gens, -rates)
        return [
            noise.apply_pauli_fidelities(x, gens, rates),
            noise.apply_pauli_fidelities(x, gens, -rates),
            noise.qubit_fidelities(gens, rates),
            np.array([q for q, _ in mixes]),
            np.stack([s for _, s in mixes]),
            noise.pauli_fidelity_table(gens, -rates),
        ]

    want = results(cached)
    for gens in (built, list(built)):
        for got, ref in zip(results(gens), want):
            assert np.array_equal(got, ref)


class TestQubitSuperoperators:
    """The GEMM kernel against Kronecker-embedded dense superoperators."""

    @given(superoperator_cases())
    def test_matches_dense_superoperator(self, case):
        n, ops, x = case
        d = 1 << n
        before = x.copy()
        got = noise.apply_qubit_superoperators(x, ops)
        want = (x.reshape(-1, d * d) @ dense.qubit_superoperator(ops, n).T).reshape(x.shape)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.array_equal(x, before)
        if ops:
            assert not np.shares_memory(got, x)
        else:
            assert got is x

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_layout_is_the_pauli_digit_layout(self, n):
        """After ``_BUTTERFLY`` on every qubit, the kernel's pair layout holds
        ``(-i)^{#Y} tr(P x)`` at the digit index of every string ``P`` (one
        base-4 digit per qubit, I X Y Z = 0 1 2 3, qubit 0 the most
        significant).  ``_anticommuting_strings`` marks exactly the strings
        that anticommute with each word."""
        d = 1 << n
        rng = np.random.default_rng(40 + n)
        x = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        butterflies = [(q, noise._BUTTERFLY) for q in range(n)]
        pairs, _ = noise._superoperators_pairs_last(x, butterflies)
        got = pairs.reshape(2, 4**n)
        words = [*noise.default_generators(n), "Y" * n, ("XZ" * n)[:n]]
        for index, letters in enumerate(itertools.product("IXYZ", repeat=n)):
            word = "".join(letters)
            digits = ["IXYZ".index(ch) for ch in word]
            p = dense.pauli_matrix(word)
            want = (-1j) ** word.count("Y") * np.einsum("ij,bji->b", p, x)
            np.testing.assert_allclose(got[:, index], want, rtol=0, atol=1e-12)
            for gen in words:
                pk = dense.pauli_matrix(gen)
                anti = np.allclose(p @ pk, -pk @ p)
                strings = np.broadcast_to(noise._anticommuting_strings(gen), (4,) * n)
                assert strings[tuple(digits)] == anti


def _pauli_words(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"})


@st.composite
def noise_models(draw, max_rate=0.5):
    n = draw(st.integers(1, 3))
    words = draw(st.lists(_pauli_words(n), min_size=1, max_size=6))
    rates = draw(st.lists(st.floats(0.0, max_rate), min_size=len(words), max_size=len(words)))
    return noise.NoiseModel(n, words, rates)


class TestKernelProperties:
    @given(noise_models(), st.integers(0, 2**32 - 1))
    def test_inverse_undoes_channel(self, model, seed):
        rho = qsim.random_density_matrix(model.n, np.random.default_rng(seed))
        back = apply(apply(rho.data, model), model, inverse=True)
        assert np.linalg.norm(back - rho.data) <= 1e-10

    @given(noise_models(), st.integers(0, 2**32 - 1))
    def test_trace_preserved(self, model, seed):
        rho = qsim.random_density_matrix(model.n, np.random.default_rng(seed)).data
        for inverse in (False, True):
            out = apply(rho, model, inverse)
            assert abs(np.trace(out) - 1.0) <= 1e-12

    @given(noise_models(), st.data())
    def test_anticommuting_factor_contributes_weight(self, model, data):
        """Each generator anticommuting with a Pauli string ``b`` scales it by
        ``2w - 1 = exp(-2 lambda)``; commuting generators leave it alone."""
        word = data.draw(st.text(alphabet="IXYZ", min_size=model.n, max_size=model.n))
        pb = dense.pauli_matrix(word)
        factor = 1.0
        for gen, w, rate in zip(model.generators, model.weights, model.rates):
            pk = dense.pauli_matrix(gen)
            if np.allclose(pb @ pk, -pk @ pb):
                assert 2.0 * w - 1.0 == pytest.approx(np.exp(-2.0 * rate), rel=1e-12)
                factor *= 2.0 * w - 1.0
        got = noise.apply_pauli_fidelities(pb, model.generators, model.rates)
        np.testing.assert_allclose(got, factor * pb, atol=1e-12)


@st.composite
def _word_of_weight(draw, n, weight):
    """A Pauli word with exactly ``weight`` non-identity letters."""
    support = draw(st.permutations(range(n)))[:weight]
    letters = draw(st.text(alphabet="XYZ", min_size=weight, max_size=weight))
    word = ["I"] * n
    for q, ch in zip(support, letters):
        word[q] = ch
    return "".join(word)


def _quasi_state(n, rng, shift):
    """Random eigenbasis, smallest eigenvalue exactly ``-shift``, trace 1."""
    eigs = np.concatenate([[-shift], rng.dirichlet(np.ones((1 << n) - 1)) * (1.0 + shift)])
    vecs = qsim.haar_random_unitary(n, rng)
    return qsim.hermitize((vecs * eigs) @ vecs.conj().T)


@st.composite
def derived_cases(draw, kinds=("pure", "mixed", "quasi")):
    """Input data (a pure or mixed state, or a quasi-state with smallest
    eigenvalue down to -0.0499), a noise model over the default, a
    weight-1 or a weight-2 generator set, and a Haar unitary, on 1-3
    qubits."""
    generator_set = draw(st.sampled_from(["default", "weight-1", "weight-2"]))
    n = draw(st.integers(2 if generator_set == "weight-2" else 1, 3))
    if generator_set == "default":
        gens = noise.default_generators(n)
    else:
        weight = int(generator_set[-1])
        words = draw(st.lists(_word_of_weight(n, weight), min_size=1, max_size=6))
        gens = tuple(words)
    rates = draw(st.lists(st.floats(0.0, 0.5), min_size=len(gens), max_size=len(gens)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "pure":
        rho = qsim.pure_state(qsim.random_state_vector(n, rng)).data
    elif kind == "mixed":
        rho = qsim.random_density_matrix(n, rng).data
    else:
        rho = _quasi_state(n, rng, draw(st.floats(0.0, 0.0499)))
    return rho, noise.NoiseModel(n, gens, rates), qsim.haar_random_unitary(n, rng)


class TestDerivedStates:
    """The divergence trace's rotation, CNOT and Pauli steps build their
    outputs without the eigenvalue-floor check; these properties are why
    that is safe."""

    @given(derived_cases())
    def test_channel_cannot_lower_smallest_eigenvalue(self, case):
        """Also on indefinite inputs: the smallest eigenvalue is concave."""
        rho, model, _ = case
        out = apply(rho, model)
        assert np.linalg.eigvalsh(out)[0] >= np.linalg.eigvalsh(rho)[0] - 1e-12

    @given(derived_cases(kinds=("pure", "mixed")))
    def test_conjugation_keeps_spectrum(self, case):
        rho, _, u = case
        out = qsim.hermitize(u @ rho @ u.conj().T)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), rtol=0, atol=1e-12
        )

    @given(derived_cases(kinds=("pure", "mixed")))
    def test_outputs_are_owned_valid_states(self, case):
        """A trace-checked state made from a conjugation's
        :func:`qsim.hermitize` output."""
        rho, model, u = case
        state = qsim.DensityMatrix(model.n, rho)
        out = qsim.DensityMatrix._derived(model.n, qsim.hermitize(u @ state.data @ u.conj().T))
        assert not out.data.flags.writeable
        assert not np.shares_memory(out.data, state.data)
        assert np.array_equal(out.data, out.data.conj().T)
        assert abs(np.trace(out.data) - 1.0) <= qsim.TRACE_ATOL
