"""CLI commands: config validation, outputs, determinism, exit codes."""

import gzip
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import dense_reference as dense
from qmit import cli, data, losses, pqc, qsim, selftest, train
from qmit.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def synthetic_train_payload(**overrides):
    payload = {
        "benchmark": "synthetic-2",
        "train_cap": 24,
        "test_cap": 12,
        "separation": 8.0,
        "repeats": 2,
        "n_qubits": 4,
        "layers": 2,
        "design": "U2",
        "step_size": 1,
        "epochs": 2,
        "batch_size": 8,
        "learning_rate": 0.05,
        "seed": 1,
        "noise_low": 0.005,
        "noise_high": 0.02,
    }
    payload.update(overrides)
    return payload


class TestConfigValidation:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_train_payload(bogus_key=1))
        code = cli.main(["train", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_type_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_train_payload(epochs="three"))
        code = cli.main(["train", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    def test_missing_benchmark_exits_2(self, tmp_path, capsys):
        payload = synthetic_train_payload()
        del payload["benchmark"]
        path = write_config(tmp_path, payload)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_benchmark_exits_2(self, tmp_path):
        path = write_config(tmp_path, synthetic_train_payload(benchmark="CIFAR"))
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_weights_both_zero_rejected_at_load(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_train_payload(alpha_fb=0.0, alpha_task=0.0))
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2

    def test_train_keys_follow_the_config_class(self, tmp_path):
        """Every TrainConfig field but num_classes (set by the benchmark) is a
        typed key, and a value of the wrong type exits with code 2."""
        sample = {"int": 1, "float": 0.5, "str": "x", "str | None": "x"}
        assert "num_classes" not in cli._TRAIN_KEYS
        for f in fields(train.TrainConfig):
            if f.name == "num_classes":
                continue
            cli._check_keys({f.name: sample[f.type]}, cli._TRAIN_KEYS, "train config")
            path = write_config(tmp_path, synthetic_train_payload(**{f.name: [1]}))
            assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key", ["learning_rate", "alpha_fb"])
    def test_train_rejects_non_finite_numbers(self, tmp_path, capsys, key):
        path = write_config(tmp_path, synthetic_train_payload(**{key: math.nan}))
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"{key!r} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ablation_rejects_non_finite_numbers(self, tmp_path, capsys):
        payload = synthetic_train_payload(alpha_task=math.inf)
        payload["grid"] = {"alpha_fb": [0.0, 1.0]}
        path = write_config(tmp_path, payload)
        assert cli.main(["ablation", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "'alpha_task' must be finite" in capsys.readouterr().err

    def test_trace_rejects_non_finite_numbers(self, tmp_path, capsys):
        payload = {"channel": "pauli", "operations": 10, "rate": math.inf}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["trace-divergence", "--config", path, "--out", str(out)]) == 2
        assert "'rate' must be finite" in capsys.readouterr().err

    def test_mnist_requires_data_dir(self, tmp_path, capsys):
        path = write_config(tmp_path, synthetic_train_payload(benchmark="MNIST-4"))
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "data_dir" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_outputs(self, tmp_path):
        path = write_config(tmp_path, synthetic_train_payload())
        out = tmp_path / "run"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_text()
        assert metrics.startswith("# qmit ")
        assert "# config " in metrics
        header = metrics.splitlines()[2]
        assert header == "repeat,epoch,fb_loss,task_loss,train_acc,val_acc,clamped_mass"
        assert len(metrics.splitlines()) == 3 + 2 * 2  # repeats x epochs
        summary = json.loads((out / "summary.json").read_text())
        assert summary["role"] == "mitigated"
        assert len(summary["per_seed_accuracy"]) == 2
        assert (out / "checkpoint_r0.json").exists()
        assert (out / "checkpoint_r1.json").exists()
        ckpt = json.loads((out / "checkpoint_r0.json").read_text())
        assert "mitigation" in ckpt and "theta" in ckpt and "config" in ckpt

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, synthetic_train_payload())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["train", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_blas_thread_count_keeps_bytes(self, tmp_path):
        """At n=3, ``metrics.csv`` does not depend on the BLAS thread count
        that the Pauli kernel's GEMMs and every ``eigh`` run under.  (From
        d=128 up, ``eigh`` itself returns different bits under 1 and 2.)"""
        path = write_config(tmp_path, synthetic_train_payload(n_qubits=3, epochs=1, repeats=1))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "qmit.cli", "train", "--config", path, "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_baseline_role_label(self, tmp_path):
        """Only a run whose rates cannot train is the baseline: with
        ``alpha_fb: 0`` the task gradient still trains them."""
        cases = {
            "frozen": ({"alpha_fb": 0.0, "rate_lr_scale": 0.0}, "baseline"),
            "no_steps": ({"learning_rate": 0.0}, "baseline"),
            "task_trained_rates": ({"alpha_fb": 0.0}, "mitigated"),
        }
        for name, (overrides, role) in cases.items():
            payload = synthetic_train_payload(repeats=1, epochs=1, **overrides)
            path = write_config(tmp_path, payload, name=f"{name}.json")
            out = tmp_path / name
            assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["role"] == role, name


def write_gzipped_idx_corpus(out_dir, seed=0, train_count=300, test_count=100):
    """Seeded 28x28 uint8 images (a bright block whose place depends on the
    digit, over pixel noise) with labels 0-9, as gzipped MNIST-named IDX files."""
    rng = np.random.default_rng(seed)
    for prefix, count in (("train", train_count), ("t10k", test_count)):
        labels = (np.arange(count) % 10).astype(np.uint8)
        images = rng.integers(0, 60, size=(count, 28, 28), dtype=np.uint8)
        for img, label in zip(images, labels):
            row, col = divmod(int(label), 4)
            img[4 + 7 * row : 10 + 7 * row, 2 + 6 * col : 8 + 6 * col] = 230
        for kind, save, payload in (
            ("images-idx3-ubyte", data.save_idx_images, images),
            ("labels-idx1-ubyte", data.save_idx_labels, labels),
        ):
            raw = out_dir / f"{prefix}-{kind}"
            save(raw, payload)
            with open(raw, "rb") as src, gzip.open(f"{raw}.gz", "wb") as dst:
                dst.write(src.read())
            raw.unlink()


class TestIdxPipeline:
    def test_mnist4_train_from_gzipped_idx(self, tmp_path):
        """qmit train on MNIST-4 reads gzipped IDX files through
        dataset_from_idx, and a rerun writes the same metrics.csv."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_gzipped_idx_corpus(corpus)
        payload = synthetic_train_payload(
            benchmark="MNIST-4", data_dir=str(corpus), train_cap=40, test_cap=20, repeats=1
        )
        del payload["separation"]
        path = write_config(tmp_path, payload)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        metrics = (outs[0] / "metrics.csv").read_bytes()
        assert metrics == (outs[1] / "metrics.csv").read_bytes()
        assert len(metrics.decode().splitlines()) == 3 + payload["epochs"]
        resolved = json.loads((outs[0] / "summary.json").read_text())["config"]["resolved"]
        assert resolved["num_classes"] == 4


class TestAblationCommand:
    def test_grid_rows(self, tmp_path):
        payload = synthetic_train_payload(repeats=1, epochs=1)
        payload["grid"] = {"designs": ["RX", "U2"], "step_sizes": [1, 2], "alpha_fb": [0.0, 1.0]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "abl"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[2] == "design,step_size,layers,alpha_fb,mode,mean_acc,std_acc"
        assert len(lines) == 3 + 2 * 2 * 2

    def test_layer_sweep_rows(self, tmp_path):
        payload = synthetic_train_payload(repeats=1, epochs=1)
        payload["grid"] = {"layer_counts": [2, 4], "alpha_fb": [0.0, 1.0]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "sweep"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()[3:]
        layers_seen = {int(r.split(",")[2]) for r in rows}
        assert layers_seen == {2, 4}
        assert len(rows) == 4

    @pytest.mark.parametrize("grid", [
        {"layer_counts": [2, 4], "alpha_fb": [0, 1.0], "modes": ["cascaded", "loss_only"]},
        {"designs": ["RX", "U2"], "step_sizes": [1, 2], "alpha_fb": [0, 0.5],
         "modes": ["loss_only", "cascaded"]},
    ])
    def test_row_order(self, tmp_path, monkeypatch, grid):
        """Rows run over the product of the axes, the first slowest: layers
        (or design, then step), alpha_fb, mode; alpha_fb is written as a
        float whatever its JSON type."""

        def fake_experiment(cfg, train_set, test_set, repeats):
            return train.ExperimentResult([0.5], 0.5, 0.0, [], [])

        monkeypatch.setattr(cli, "run_experiment", fake_experiment)
        payload = synthetic_train_payload(repeats=1, epochs=1)
        payload["grid"] = grid
        path = write_config(tmp_path, payload)
        out = tmp_path / "abl"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",")[:5] for line in (out / "ablation.csv").read_text().splitlines()[3:]]
        if "layer_counts" in grid:
            sweep = [("U2", "1", str(layers)) for layers in grid["layer_counts"]]
        else:
            sweep = [(design, str(step), "2") for design in grid["designs"]
                     for step in grid["step_sizes"]]
        expected = [
            [*cell, repr(float(alpha)), mode]
            for cell in sweep for alpha in grid["alpha_fb"] for mode in grid["modes"]
        ]
        assert rows == expected

    @pytest.mark.parametrize("grid", [
        {"step_sizes": ["a"]},
        {"alpha_fb": ["x"]},
        {"layer_counts": [None]},
        {"layer_counts": [2.5]},
        {"layer_counts": [True]},
        {"step_sizes": [False]},
        {"alpha_fb": [True]},
        {"alpha_fb": [math.nan]},
        {"designs": [1]},
        {"modes": [None]},
    ])
    def test_bad_grid_entry_exits_2(self, tmp_path, capsys, grid):
        payload = synthetic_train_payload(repeats=1, epochs=1)
        payload["grid"] = grid
        path = write_config(tmp_path, payload)
        out = tmp_path / "x"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 2
        assert "grid: " in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        payload = synthetic_train_payload()
        payload["grid"] = {}
        path = write_config(tmp_path, payload)
        assert cli.main(["ablation", "--config", path, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_grid_axis_rejected(self, tmp_path):
        payload = synthetic_train_payload()
        payload["grid"] = {"colors": ["red"]}
        path = write_config(tmp_path, payload)
        assert cli.main(["ablation", "--config", path, "--out", str(tmp_path / "x")]) == 2


class TestTraceCommand:
    def test_zero_noise_constant(self, tmp_path):
        payload = {"channel": "depolarizing", "operations": 40, "rate": 0.0, "seed": 3}
        path = write_config(tmp_path, payload)
        out = tmp_path / "tr"
        assert cli.main(["trace-divergence", "--config", path, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()[3:]
        values = [float(line.split(",")[1]) for line in lines]
        assert len(values) == 41
        assert max(values) - min(values) <= 1e-9

    def test_depolarizing_strictly_decreasing(self, tmp_path):
        payload = {"channel": "depolarizing", "operations": 100, "rate": 0.01, "seed": 3}
        path = write_config(tmp_path, payload)
        out = tmp_path / "tr2"
        assert cli.main(["trace-divergence", "--config", path, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()[3:]
        values = np.array([float(line.split(",")[1]) for line in lines])
        assert np.all(np.diff(values) < -1e-12)

    def test_amplitude_damping_initial_decline(self, tmp_path):
        values = cli.divergence_trace(4, 120, "amplitude_damping", 0.08, seed=5)
        assert np.all(np.diff(values[:25]) < 0)
        assert values.min() < 0.6 * values[0]

    def test_pauli_channel_runs(self, tmp_path):
        values = cli.divergence_trace(3, 30, "pauli", 0.02, seed=6)
        assert values[-1] < values[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pauli_matches_dense_loop(self, seed):
        """The same random stream through dense gates, the per-factor
        channel and ``D_2(rho || I/d) = log(d tr rho^2)``."""
        n, rate = 3, 0.02
        rng = np.random.default_rng(seed)
        u = dense.encoder_unitary(rng.uniform(0.0, 1.0, 64), pqc.EncoderSpec(n))
        rho = np.outer(u[:, 0], u[:, 0].conj())

        def step(rho, gate, qubits):
            out = gate @ rho @ gate.conj().T
            for q in qubits:
                letters = ["I" * q + ch + "I" * (n - q - 1) for ch in "XYZ"]
                out = dense.channel(out, letters, rng.uniform(0.0, rate, 3))
            return out

        def d2(rho):
            return math.log((1 << n) * np.trace(rho @ rho).real)

        want = [d2(rho)]
        while len(want) <= 60:
            for q in range(n):
                axis = "XYZ"[int(rng.integers(3))]
                angle = rng.uniform(-np.pi, np.pi)
                gate = qsim.embed_one_qubit(qsim.rotation_matrix_2x2(axis, angle), q, n)
                rho = step(rho, gate, [q])
                want.append(d2(rho))
            for q in range(n):
                rho = step(rho, dense.cnot(q, (q + 1) % n, n), [q, (q + 1) % n])
                want.append(d2(rho))
        got = cli.divergence_trace(n, 60, "pauli", rate, seed=seed)
        np.testing.assert_allclose(got, want[:61], rtol=0, atol=1e-12)

    def test_each_state_checked_once(self, monkeypatch):
        """Only the encoded state and the reference run the full check, and
        the only matrix power of the trace is the reference's, computed once."""
        counts = {"checks": 0, "powers": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            qsim, "check_density_matrices", counting("checks", qsim.check_density_matrices)
        )
        power = counting("powers", qsim.hermitian_power)
        monkeypatch.setattr(qsim, "hermitian_power", power)
        monkeypatch.setattr(losses, "hermitian_power", power)
        values = cli.divergence_trace(3, 30, "pauli", 0.02, seed=6)
        assert len(values) == 31
        assert counts == {"checks": 2, "powers": 1}

    def test_no_eigendecomposition_per_state(self, monkeypatch):
        """Beyond the two full state checks (``eigvalsh``), the trace makes
        one ``eigh``: the reference's inverse, for all 31 divergences."""
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def wrapper(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, wrapper)
        values = cli.divergence_trace(3, 30, "pauli", 0.02, seed=6)
        assert len(values) == 31
        assert counts == {"eigh": 1, "eigvalsh": 2}

    def test_rerun_in_process_is_byte_identical(self, tmp_path):
        """A second run in the same process, with the gate cache warm,
        writes the same ``trace.csv`` bytes."""
        payload = {"channel": "pauli", "operations": 50, "rate": 0.01, "n_qubits": 4, "seed": 9}
        path = write_config(tmp_path, payload)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["trace-divergence", "--config", path, "--out", str(out)]) == 0
            outputs.append((out / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_channel_rejected(self, tmp_path):
        payload = {"channel": "cosmic", "operations": 10, "rate": 0.1}
        path = write_config(tmp_path, payload)
        assert cli.main(["trace-divergence", "--config", path, "--out", str(tmp_path / "x")]) == 2

    def test_missing_required_key(self, tmp_path):
        payload = {"channel": "pauli", "rate": 0.1}
        path = write_config(tmp_path, payload)
        assert cli.main(["trace-divergence", "--config", path, "--out", str(tmp_path / "x")]) == 2


class TestSelftest:
    def test_runner_reports_pass_and_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(
            selftest, "CHECKS", [("demo.pass", lambda: "ok"), ("demo.fail", lambda: (_ for _ in ()).throw(AssertionError("boom")))]
        )
        code = selftest.run_all()
        out = capsys.readouterr().out
        assert code == 1
        assert "PASS  demo.pass" in out
        assert "FAIL  demo.fail" in out
        assert "boom" in out

    def test_exit_code_through_cli(self, monkeypatch, capsys):
        """``qmit selftest`` exits 0 when every check passes and 1 when one fails."""

        def fail():
            raise AssertionError("boom")

        monkeypatch.setattr(selftest, "CHECKS", [("demo.pass", lambda: "ok")])
        assert cli.main(["selftest"]) == 0
        monkeypatch.setattr(selftest, "CHECKS", [("demo.pass", lambda: "ok"), ("demo.fail", fail)])
        assert cli.main(["selftest"]) == 1
        assert "FAIL  demo.fail" in capsys.readouterr().out

    def test_corrupted_inverse_channel_is_caught(self, monkeypatch):
        """Substituting the forward channel for the inverse breaks the
        round-trip invariant by name."""
        from qmit import noise

        monkeypatch.setattr(noise, "apply_inverse_channel", noise.apply_channel)
        with pytest.raises(AssertionError, match="roundtrip"):
            selftest.channel_inversion(seed=101, pairs=20)

    def test_quick_checks_pass(self):
        assert selftest.channel_inversion(seed=101, pairs=20)
        assert selftest.overhead_dual_form(seed=102, models=20)
        assert selftest.fidelity_suite(seed=106, pairs=20)


class TestEntryPoint:
    def test_console_script_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qmit.cli", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "qmit" in proc.stdout
        assert proc.stderr == ""
