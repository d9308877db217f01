"""CLI commands: config validation, outputs, determinism, exit codes."""

import gzip
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import dense_reference as dense
from qmit import cli, data, errors, losses, noise, pqc, qsim, selftest, train

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def command_payload(command, **overrides):
    """A small valid config of ``command``: train, ablation or trace-divergence."""
    if command == "trace-divergence":
        return {"channel": "pauli", "operations": 10, "rate": 0.01, **overrides}
    payload = synthetic_train_payload(epochs=1, repeats=1, **overrides)
    if command == "ablation":
        payload["grid"] = {"alpha_fb": [0.0, 1.0]}
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
            errors.check_json_object({f.name: sample[f.type]}, cli._TRAIN_KEYS, "train config")
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

    def test_negative_thread_count_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QMIT_THREADS", "-3")
        path = write_config(tmp_path, synthetic_train_payload())
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "QMIT_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablation"])
    def test_bad_thread_count_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        """``QMIT_THREADS`` is checked before any data is loaded or output written."""
        monkeypatch.setenv("QMIT_THREADS", "-3")
        payload = synthetic_train_payload()
        if command == "ablation":
            payload["grid"] = {"alpha_fb": [0.0, 1.0]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert "QMIT_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_zero_repeats_writes_nothing(self, tmp_path, capsys):
        payload = synthetic_train_payload(repeats=0)
        payload["grid"] = {"alpha_fb": [0.0, 1.0]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablation"])
    @pytest.mark.parametrize("key,cap", [
        ("test_cap", -4), ("test_cap", 0), ("test_cap", 2), ("train_cap", 3),
    ])
    def test_cap_below_class_count_writes_nothing(self, tmp_path, capsys, command, key, cap):
        """A cap that leaves a class of MNIST-4 without samples exits 2
        before any data is loaded or output written."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_gzipped_idx_corpus(corpus)
        payload = synthetic_train_payload(
            benchmark="MNIST-4", data_dir=str(corpus), train_cap=40, test_cap=20, repeats=1
        )
        payload[key] = cap
        del payload["separation"]
        if command == "ablation":
            payload["grid"] = {"alpha_fb": [0.0, 1.0]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert f"{key} must be at least the class count 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablation"])
    @pytest.mark.parametrize(
        "case", ["missing", "not_json", "layer_count", "qubit_count", "string_rate", "top_level_n"]
    )
    def test_bad_noise_file_writes_nothing(self, tmp_path, capsys, command, case):
        """A noise file that is missing, not JSON, written for another layer
        or qubit count, with a rate written as a string, or whose top-level
        ``"n"`` is not its layers' exits 2 before any data is loaded or
        output written.  The ablation grid runs 2 and 4
        layers, so there a 2-layer file fits the base config and fails on the
        second cell only; the 3-qubit file has zero rates, so only its qubit
        count is wrong."""
        noise_path = tmp_path / "noise.json"
        layers = 2 if command == "ablation" else 3
        if case == "not_json":
            noise_path.write_text("{not json")
        elif case == "string_rate":
            payload = noise.noise_layers_json(noise.draw_noise_models(4, 2, seed=0))
            payload["layers"][1]["generators"][0]["lambda"] = "0.01"
            noise_path.write_text(json.dumps(payload))
        elif case == "top_level_n":
            payload = noise.noise_layers_json(noise.draw_noise_models(4, 2, seed=0))
            payload["n"] = 3
            noise_path.write_text(json.dumps(payload))
        elif case == "layer_count":
            noise.save_noise_layers(noise.draw_noise_models(4, layers, seed=0), noise_path)
        elif case == "qubit_count":
            zero_rates = noise.draw_noise_models(3, 2, seed=0, low=0.0, high=0.0)
            noise.save_noise_layers(zero_rates, noise_path)
        payload = synthetic_train_payload(noise_source="file", noise_path=str(noise_path))
        if command == "ablation":
            payload["grid"] = {"layer_counts": [2, 4]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert "noise file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablation", "trace-divergence"])
    def test_negative_seed_writes_nothing(self, tmp_path, capsys, command):
        path = write_config(tmp_path, command_payload(command, seed=-1))
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablation", "trace-divergence"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        """An ``--out`` that is an existing file is a config error on one
        line of stderr, and the file is left as it was."""
        path = write_config(tmp_path, command_payload(command))
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert err.count("\n") == 1
        assert out.read_text() == "not a directory"

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
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "qmit.cli", "train", "--config", path, "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.xfail(
        strict=True,
        reason="from d=128 up, eigh in the forward-backward loss returns different bits "
        "under one and two BLAS threads, so fb_loss differs in its last digits",
    )
    def test_blas_thread_count_keeps_bytes_at_seven_qubits(self, tmp_path):
        """At n=7, ``metrics.csv`` does not depend on the BLAS thread count."""
        payload = {
            "benchmark": "synthetic-4", "train_cap": 8, "test_cap": 4, "repeats": 1,
            "n_qubits": 7, "layers": 2, "design": "U2", "mode": "loss_only", "step_size": 1,
            "epochs": 1, "batch_size": 8, "seed": 0,
        }
        path = write_config(tmp_path, payload)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, QMIT_THREADS="1", PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "qmit.cli", "train", "--config", path, "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
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


class TestCrashSafeWriters:
    @pytest.mark.parametrize("write,good,bad", [
        (lambda path, rows: cli.write_csv(path, {}, ["a"], rows), [{"a": 1}], [{"a": 1}, {}]),
        (cli.write_json, {"a": 1}, {"a": 2, "b": object()}),
        (train.save_checkpoint, {"a": 1}, {"a": 2, "b": object()}),
    ])
    def test_failed_write_leaves_previous_file(self, tmp_path, write, good, bad):
        """A writer that raises part-way (a row without its column, a value
        JSON cannot encode) leaves the previous file intact and no temporary
        file behind."""
        path = tmp_path / "out"
        write(str(path), good)
        before = path.read_bytes()
        with pytest.raises((KeyError, TypeError)):
            write(str(path), bad)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]


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

    @pytest.mark.parametrize("spec_name", ["MNIST-4", "Fashion-2"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_decoding_everything(self, tmp_path, spec_name, seed):
        """Drawing the subsample from the labels and resizing only it gives
        the bytes of resizing every image and then drawing it."""
        write_gzipped_idx_corpus(tmp_path, seed=seed)
        payload = {"benchmark": spec_name, "data_dir": str(tmp_path), "seed": seed,
                   "train_cap": 40, "test_cap": 20}
        got = cli.resolve_datasets(payload)
        want = decode_everything_then_subsample(tmp_path, data.BENCHMARKS[spec_name], 40, 20, seed)
        for g, w in zip(got, want):
            assert g.features.dtype == w.features.dtype and g.labels.dtype == w.labels.dtype
            assert g.features.tobytes() == w.features.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()

    def test_only_the_subsample_is_resized(self, tmp_path, monkeypatch):
        write_gzipped_idx_corpus(tmp_path)
        resized = []
        preprocess_all = data.preprocess_all

        def counting(images):
            resized.append(len(images))
            return preprocess_all(images)

        monkeypatch.setattr(data, "preprocess_all", counting)
        cli.resolve_datasets({"benchmark": "MNIST-4", "data_dir": str(tmp_path),
                              "train_cap": 40, "test_cap": 20})
        assert resized == [40, 20]

    def test_setup_peak_stays_near_the_payload(self, tmp_path):
        """Set-up holds one split's decompressed pixels plus the chosen
        images and their resize temporaries (about 3.5 MB at 1000 images),
        never float features of the whole corpus.  Measured peaks: 19.1 MB
        here, 28.1 MB for the loader that decoded everything first, and
        29.2 MB for the reference below."""
        write_gzipped_idx_corpus(tmp_path, train_count=20000, test_count=4000)
        payload = {"benchmark": "MNIST-4", "data_dir": str(tmp_path), "seed": 0,
                   "train_cap": 1000, "test_cap": 500}
        bound = 20000 * 28 * 28 + 6_000_000
        tracemalloc.start()
        try:
            cli.resolve_datasets(payload)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            decode_everything_then_subsample(tmp_path, data.BENCHMARKS["MNIST-4"], 1000, 500, 0)
            reference_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound < reference_peak, (peak, reference_peak)

    def test_truncated_gzip_exits_2_without_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_gzipped_idx_corpus(corpus)
        images = corpus / "train-images-idx3-ubyte.gz"
        blob = images.read_bytes()
        images.write_bytes(blob[: len(blob) // 2])
        payload = synthetic_train_payload(
            benchmark="MNIST-4", data_dir=str(corpus), train_cap=40, test_cap=20, repeats=1
        )
        del payload["separation"]
        out = tmp_path / "out"
        assert cli.main(["train", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 2
        assert str(images) in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_count_exits_2_without_output(self, tmp_path, capsys):
        """A gzipped images file whose header claims 2**32 - 1 images is a
        truncated pixel section: exit code 2, no output directory."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_gzipped_idx_corpus(corpus)
        images = corpus / "train-images-idx3-ubyte.gz"
        raw = bytearray(gzip.decompress(images.read_bytes()))
        raw[4:8] = (2**32 - 1).to_bytes(4, "big")
        images.write_bytes(gzip.compress(bytes(raw)))
        payload = synthetic_train_payload(
            benchmark="MNIST-4", data_dir=str(corpus), train_cap=40, test_cap=20, repeats=1
        )
        del payload["separation"]
        out = tmp_path / "out"
        assert cli.main(["train", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 2
        assert "truncated pixel section" in capsys.readouterr().err
        assert not out.exists()


def decode_everything_then_subsample(data_dir, spec, train_cap, test_cap, seed):
    """Reference loader: resize every image of both splits, then draw
    ``cap // c`` per class and shuffle, train split first, on one generator."""
    raw = []
    for prefix in ("train", "t10k"):
        images, labels = data.load_idx(
            data_dir / f"{prefix}-images-idx3-ubyte.gz", data_dir / f"{prefix}-labels-idx1-ubyte.gz"
        )
        raw.append((data.preprocess_all(images), labels))
    rng = np.random.default_rng(seed)
    out = []
    for (features, labels), cap in zip(raw, (train_cap, test_cap)):
        per_class = cap // spec.num_classes
        feats, labs = [], []
        for new_label, source_class in enumerate(spec.classes):
            idx = np.flatnonzero(labels == source_class)
            feats.append(features[idx[rng.permutation(idx.size)[:per_class]]])
            labs.append(np.full(per_class, new_label, dtype=np.int64))
        order = rng.permutation(per_class * spec.num_classes)
        out.append(data.Dataset(np.concatenate(feats)[order], np.concatenate(labs)[order]))
    return out


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
        {"layer_counts": [2], "designs": ["RX", 1]},
    ])
    def test_bad_grid_entry_exits_2(self, tmp_path, capsys, grid):
        payload = synthetic_train_payload(repeats=1, epochs=1)
        payload["grid"] = grid
        path = write_config(tmp_path, payload)
        out = tmp_path / "x"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 2
        assert "grid: " in capsys.readouterr().err
        assert not out.exists()

    def test_layer_counts_combine_with_designs_and_steps(self, tmp_path, monkeypatch):
        """Every axis joins the product: one layer count, two designs and one
        step size are two cells, the other axes taken from the base config."""

        def fake_experiment(cfg, train_set, test_set, repeats):
            return train.ExperimentResult([0.5], 0.5, 0.0, [], [])

        monkeypatch.setattr(cli, "run_experiment", fake_experiment)
        payload = synthetic_train_payload(repeats=1, epochs=1, layers=4)
        payload["grid"] = {"layer_counts": [2], "designs": ["RX", "U3"], "step_sizes": [2]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "abl"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",")[:5] for line in (out / "ablation.csv").read_text().splitlines()[3:]]
        assert rows == [["RX", "2", "2", "1.0", "loss_only"], ["U3", "2", "2", "1.0", "loss_only"]]

    def test_empty_grid_axis_rejected(self, tmp_path, capsys):
        payload = synthetic_train_payload()
        payload["grid"] = {"layer_counts": [], "designs": ["RX"]}
        path = write_config(tmp_path, payload)
        out = tmp_path / "x"
        assert cli.main(["ablation", "--config", path, "--out", str(out)]) == 2
        assert "non-empty" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "channel, n, seed",
        [("pauli", 3, seed) for seed in (0, 1, 2)]
        + [(channel, n, 0) for channel in ("depolarizing", "amplitude_damping") for n in (2, 4)],
    )
    def test_matches_dense_loop(self, channel, n, seed):
        """The same random stream through dense gates, the per-factor
        channel or the embedded damping Kraus pair, and
        ``D_2(rho || I/d) = log(d tr rho^2)``."""
        rate = 0.02
        rng = np.random.default_rng(seed)
        u = dense.encoder_unitary(rng.uniform(0.0, 1.0, 64), n)
        rho = np.outer(u[:, 0], u[:, 0].conj())
        kraus = [np.diag([1.0, math.sqrt(1.0 - rate)]), np.array([[0.0, math.sqrt(rate)], [0, 0]])]

        def step(rho, gate, qubits):
            out = gate @ rho @ gate.conj().T
            for q in qubits:
                letters = ["I" * q + ch + "I" * (n - q - 1) for ch in "XYZ"]
                if channel == "pauli":
                    out = dense.channel(out, letters, rng.uniform(0.0, rate, 3))
                elif channel == "depolarizing":
                    out = dense.channel(out, letters, [rate] * 3)
                else:
                    embedded = [dense.embed_one_qubit(k, q, n) for k in kraus]
                    out = sum(k @ out @ k.conj().T for k in embedded)
            return out

        def d2(rho):
            return math.log((1 << n) * np.trace(rho @ rho).real)

        want = [d2(rho)]
        while len(want) <= 60:
            for q in range(n):
                axis = "XYZ"[int(rng.integers(3))]
                angle = rng.uniform(-np.pi, np.pi)
                gate = dense.embed_one_qubit(dense.rotation(axis, angle), q, n)
                rho = step(rho, gate, [q])
                want.append(d2(rho))
            for q in range(n):
                rho = step(rho, dense.cnot(q, (q + 1) % n, n), [q, (q + 1) % n])
                want.append(d2(rho))
        got = cli.divergence_trace(n, 60, channel, rate, seed=seed)
        np.testing.assert_allclose(got, want[:61], rtol=0, atol=1e-12)

    def test_each_state_checked_once(self, monkeypatch):
        """Only the encoded state runs the full check."""
        counts = {"checks": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            qsim, "check_density_matrices", counting("checks", qsim.check_density_matrices)
        )
        values = cli.divergence_trace(3, 30, "pauli", 0.02, seed=6)
        assert len(values) == 31
        assert counts == {"checks": 1}

    def test_no_eigendecomposition_per_state(self, monkeypatch):
        """Beyond the encoded state's full check (``eigvalsh``), the trace
        makes no eigendecomposition at integer order."""
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def wrapper(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, wrapper)
        values = cli.divergence_trace(3, 30, "pauli", 0.02, seed=6)
        assert len(values) == 31
        assert counts == {"eigh": 0, "eigvalsh": 1}

    @pytest.mark.parametrize("channel", ["pauli", "depolarizing", "amplitude_damping"])
    def test_one_probed_divergence_per_value(self, monkeypatch, channel):
        """perfbench's trace_n6 workload times the calls of
        ``losses.petz_renyi_divergence``, wrapped in every module that holds
        it: ``divergence_trace(n, k, ...)`` makes exactly k + 1 of them,
        one per value."""
        assert cli.petz_renyi_divergence is losses.petz_renyi_divergence
        calls = []

        def counting(*args, _fn=losses.petz_renyi_divergence, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        for module in (losses, cli):
            monkeypatch.setattr(module, "petz_renyi_divergence", counting)
        for n, k in ((3, 30), (2, 7)):
            calls.clear()
            values = cli.divergence_trace(n, k, channel, 0.02, seed=6)
            assert len(calls) == len(values) == k + 1

    @pytest.mark.parametrize("n", [2, 6])
    def test_first_value_is_n_log2(self, n):
        """The encoded state is pure, so the first value is ``D_2(rho || I/d)
        = log d``, to rounding."""
        values = cli.divergence_trace(n, 1, "pauli", 0.02, seed=0)
        assert abs(values[0] - n * math.log(2.0)) <= 4e-15

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_matrix_powers_per_value(self, monkeypatch, alpha):
        """At alpha = 2 no value takes a matrix power; at alpha = 3 each
        takes ``rho^2``, one product."""
        exponents = []

        def matrix_power(a, k, _fn=np.linalg.matrix_power):
            exponents.append(k)
            return _fn(a, k)

        monkeypatch.setattr(np.linalg, "matrix_power", matrix_power)
        values = cli.divergence_trace(3, 30, "pauli", 0.02, alpha=alpha, seed=6)
        assert len(values) == 31
        assert exponents == ([] if alpha == 2.0 else [2] * 31)

    def test_blas_thread_count_keeps_bytes(self, tmp_path):
        """At n=6, ``trace.csv`` does not depend on the BLAS thread count
        that the superoperator kernel's GEMMs run under."""
        payload = {"channel": "pauli", "operations": 200, "rate": 0.002, "n_qubits": 6, "seed": 0}
        path = write_config(tmp_path, payload)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "qmit.cli", "trace-divergence", "--config", path,
                 "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_rerun_in_process_is_byte_identical(self, tmp_path):
        """A second run in the same process, after the first has filled the
        module-level caches (generator incidence tables, the CNOT ring),
        writes the same ``trace.csv`` bytes."""
        payload = {"channel": "pauli", "operations": 50, "rate": 0.01, "n_qubits": 4, "seed": 9}
        path = write_config(tmp_path, payload)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["trace-divergence", "--config", path, "--out", str(out)]) == 0
            outputs.append((out / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("channel", ["pauli", "depolarizing", "amplitude_damping"])
    def test_one_kernel_pass_per_operation(self, monkeypatch, channel):
        """Each operation is one superoperator-kernel call and one
        ``hermitize``, and no ``NoiseModel`` is built.  Only steps with
        amplitude damping run the full state check, beyond the encoded
        state."""
        counts = {"kernel": 0, "hermitize": 0, "models": 0, "checks": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            cli, "apply_qubit_superoperators", counting("kernel", cli.apply_qubit_superoperators)
        )
        monkeypatch.setattr(cli, "hermitize", counting("hermitize", cli.hermitize))
        monkeypatch.setattr(
            noise.NoiseModel, "__post_init__", counting("models", noise.NoiseModel.__post_init__)
        )
        monkeypatch.setattr(
            qsim, "check_density_matrices", counting("checks", qsim.check_density_matrices)
        )
        values = cli.divergence_trace(3, 30, channel, 0.02, seed=6)
        assert len(values) == 31
        full = 30 if channel == "amplitude_damping" else 0
        assert counts == {"kernel": 30, "hermitize": 30, "models": 0, "checks": 1 + full}

    def test_damping_probability_above_one_rejected(self, tmp_path, capsys):
        payload = {"channel": "amplitude_damping", "operations": 10, "rate": 1.5}
        path = write_config(tmp_path, payload)
        out = tmp_path / "x"
        assert cli.main(["trace-divergence", "--config", path, "--out", str(out)]) == 2
        assert "damping probability" in capsys.readouterr().err
        assert not out.exists()

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
        """Substituting the forward channel for the inverse (the channel of
        the negated rates) breaks the round-trip invariant by name."""
        kernel = noise.apply_pauli_fidelities

        def forward_only(x, generators, rates):
            return kernel(x, generators, np.abs(rates))

        monkeypatch.setattr(noise, "apply_pauli_fidelities", forward_only)
        with pytest.raises(AssertionError, match="roundtrip"):
            selftest.channel_inversion(seed=101, pairs=20)

    def test_quick_checks_pass(self):
        assert selftest.channel_inversion(seed=101, pairs=20)
        assert selftest.overhead_dual_form(seed=102, models=20)
        assert selftest.fidelity_suite(seed=106, pairs=20)


class TestEntryPoint:
    def test_console_script_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qmit.cli", "--version"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0
        assert "qmit" in proc.stdout
        assert proc.stderr == ""
