"""Command-line entry point.

Commands: ``train`` (one benchmark run with repeats), ``ablation`` (every
combination of the listed layer counts, designs, step sizes and loss
settings), ``trace-divergence`` (divergence of a noisy state to the
maximally mixed state per operation), and ``selftest`` (release criteria
01-08 and 12 at reduced sizes).

Configuration is a single JSON document; unknown keys are rejected so that
typos in hyperparameter names cannot silently change an experiment.  Every
output file carries the resolved configuration and the code version, and
floats are serialized via ``repr`` so reruns are byte identical.

Of the package, only this module, :mod:`qmit.data` (IDX files) and
:mod:`qmit.selftest` open files or read the environment.  A command reads
its config, noise file and ``QMIT_THREADS`` once, checks them and every
output location before loading data, and writes through one atomic writer.

Exit codes: 0 success, 1 self-test failure, 2 configuration error,
3 runtime/training failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .data import BENCHMARKS, Dataset, dataset_from_idx, synthetic_blobs
from .errors import (
    ConfigError,
    TrainingError,
    ValidationError,
    check_json_object,
    check_json_value,
)
from .losses import petz_renyi_divergence
from .noise import (
    amplitude_damping_superoperator,
    apply_qubit_superoperators,
    default_generators,
    noise_layers_from_json,
    pauli_mix_superoperators,
)
from .pqc import encode, rotation_matrices
from .qsim import PAULIS, DensityMatrix, cnot_permutation, hermitize
from .train import (
    TrainConfig,
    config_to_json,
    noise_models_from_config,
    run_experiment,
)

SYNTHETIC_BENCHMARKS = ("synthetic-2", "synthetic-4")

# JSON types accepted for each annotation of a TrainConfig field.
_ANNOTATION_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": str}
_TRAIN_KEYS = {
    **{
        f.name: _ANNOTATION_TYPES[f.type]
        for f in fields(TrainConfig)
        if f.name != "num_classes"  # resolved from the benchmark
    },
    "benchmark": str,
    "data_dir": str,
    "train_cap": int,
    "test_cap": int,
    "repeats": int,
    "separation": (int, float),
}

_ABLATION_KEYS = dict(_TRAIN_KEYS, grid=dict)
# Grid axis -> the TrainConfig field it varies and the JSON type of its entries.
_GRID_AXES = {
    "layer_counts": ("layers", int),
    "designs": ("design", str),
    "step_sizes": ("step_size", int),
    "alpha_fb": ("alpha_fb", (int, float)),
    "modes": ("mode", str),
}
_GRID_KEYS = {axis: list for axis in _GRID_AXES}

_TRACE_KEYS = {
    "channel": str,
    "operations": int,
    "rate": (int, float),
    "alpha": (int, float),
    "n_qubits": int,
    "seed": int,
}

_TRACE_CHANNELS = ("pauli", "depolarizing", "amplitude_damping")

_TMP_SUFFIX = ".tmp"  # an output file's temporary sibling


def _load_json(path, what: str = "config") -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return payload


def _benchmark_classes(name: str) -> int:
    if name in BENCHMARKS:
        return BENCHMARKS[name].num_classes
    if name in SYNTHETIC_BENCHMARKS:
        return int(name[-1])
    raise ConfigError(
        f"unknown benchmark {name!r}; expected one of "
        f"{sorted(BENCHMARKS) + list(SYNTHETIC_BENCHMARKS)}"
    )


def build_train_config(payload: dict, where: str = "config") -> TrainConfig:
    benchmark = payload.get("benchmark")
    if benchmark is None:
        raise ConfigError(f"{where}: missing required key 'benchmark'")
    num_classes = _benchmark_classes(benchmark)
    kwargs = {
        f.name: payload[f.name]
        for f in fields(TrainConfig)
        if f.name != "num_classes" and f.name in payload
    }
    try:
        return TrainConfig(num_classes=num_classes, **kwargs)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# Sample caps and their defaults; each split keeps ``cap // num_classes`` per class.
_CAPS = {"train_cap": 1000, "test_cap": 500}


def _check_caps(payload: dict, num_classes: int) -> None:
    """Raise unless each split keeps at least one sample per class; checked
    before any data is loaded or output written."""
    for key, default in _CAPS.items():
        cap = int(payload.get(key, default))
        if cap < num_classes:
            raise ConfigError(f"{key} must be at least the class count {num_classes}, got {cap}")


def _repeats_and_workers(payload: dict) -> tuple[int, int]:
    """The config's repeat count and the threads ``QMIT_THREADS`` asks for
    (default 1; 0 for one per CPU this process may run on), checked before
    any data is loaded or output written."""
    repeats = int(payload.get("repeats", 1))
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    workers_env = os.environ.get("QMIT_THREADS", "1")
    try:
        workers = int(workers_env)
    except ValueError as exc:
        raise ConfigError(f"QMIT_THREADS must be an integer, got {workers_env!r}") from exc
    if workers < 0:
        raise ConfigError(f"QMIT_THREADS must be >= 0, got {workers}")
    if workers == 0 and hasattr(os, "sched_getaffinity"):
        return repeats, len(os.sched_getaffinity(0))
    return repeats, workers or os.cpu_count() or 1


def _true_noise(configs: list[TrainConfig]) -> list:
    """Each config's true noise, checked before any data is loaded; the
    configs share one noise source, and a noise file is read once."""
    file_models = None
    if configs[0].noise_source == "file":
        path = configs[0].noise_path
        payload = _load_json(path, "noise file")
        try:
            file_models = noise_layers_from_json(payload)
        except ValidationError as exc:
            raise ConfigError(f"cannot load noise file {path}: {exc}") from exc
    return [noise_models_from_config(cfg, file_models) for cfg in configs]


_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find_idx(data_dir: str, base: str) -> str:
    for candidate in (base, base + ".gz"):
        path = os.path.join(data_dir, candidate)
        if os.path.exists(path):
            return path
    raise ConfigError(f"no IDX file {base}[.gz] under {data_dir!r}")


def resolve_datasets(payload: dict) -> tuple[Dataset, Dataset]:
    """Load and subsample the benchmark named in the config."""
    benchmark = payload["benchmark"]
    seed = int(payload.get("seed", 0))
    train_cap, test_cap = (int(payload.get(key, default)) for key, default in _CAPS.items())
    if benchmark in SYNTHETIC_BENCHMARKS:
        c = int(benchmark[-1])
        separation = float(payload.get("separation", 3.0))
        train_set = synthetic_blobs(c, train_cap // c, separation, seed)
        test_set = synthetic_blobs(c, test_cap // c, separation, seed + 1)
        return train_set, test_set
    spec = BENCHMARKS[benchmark]
    data_dir = payload.get("data_dir")
    if not data_dir:
        raise ConfigError(f"benchmark {benchmark!r} requires 'data_dir' with IDX files")
    # One generator draws the train split, then the test split.
    rng = np.random.default_rng(seed)
    train_set, test_set = (
        dataset_from_idx(
            _find_idx(data_dir, img_base), _find_idx(data_dir, lab_base), spec, cap, rng
        )
        for (img_base, lab_base), cap in zip(_IDX_NAMES.values(), (train_cap, test_cap))
    )
    return train_set, test_set


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


@contextmanager
def _out_dir(path: str):
    """Create the output directory ``path`` (and its parents) if it is not
    there, for the block that fills it; ``ConfigError`` if it cannot be, say
    because a file has its name.  If the block fails in training
    (``TrainingError``), the directories made here are removed while they
    are empty, so a failed run leaves none behind; one that was there
    before is left as it was."""
    made, missing = [], os.path.abspath(path)
    while not os.path.lexists(missing):
        made.append(missing)  # deepest first
        missing = os.path.dirname(missing)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    try:
        yield
    except TrainingError:
        for directory in made:
            try:
                os.rmdir(directory)
            except OSError:
                break
        raise


def _output_paths(out_dir: str, *names: str) -> list[str]:
    """The output files ``names`` in ``out_dir``, checked before any work:
    ``ConfigError`` if ``out_dir`` cannot be made a directory, or if a file
    or its temporary sibling (:data:`_TMP_SUFFIX`) is a directory."""
    existing = os.path.abspath(out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot create output directory {out_dir}: {existing} is not a directory")
    paths = [os.path.join(out_dir, name) for name in names]
    for path in filter(os.path.isdir, (p + suffix for p in paths for suffix in ("", _TMP_SUFFIX))):
        raise ConfigError(f"output file {path} is a directory")
    return paths


@contextmanager
def _replace_on_success(path):
    """Write text to ``path``'s temporary sibling, which replaces ``path``
    if the block exits cleanly and is removed if it raises, so a failed
    write leaves no truncated ``path``; one never opened is not removed."""
    tmp = f"{path}{_TMP_SUFFIX}"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _header_lines(config_echo: dict) -> list[str]:
    return [
        f"# qmit {__version__}",
        "# config " + json.dumps(config_echo, sort_keys=True),
    ]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, config_echo: dict, columns: list[str], rows: Iterable[dict]) -> None:
    with _replace_on_success(path) as fh:
        for line in _header_lines(config_echo) + [",".join(columns)]:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")


def write_json(path, payload: dict) -> None:
    with _replace_on_success(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_echo(payload: dict, config: TrainConfig) -> dict:
    echo = dict(payload)
    echo["resolved"] = config_to_json(config)
    echo["version"] = __version__
    return echo


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_METRIC_COLUMNS = ["repeat", "epoch", "fb_loss", "task_loss", "train_acc", "val_acc", "clamped_mass"]


def cmd_train(config_path: str, out_dir: str) -> int:
    payload = _load_json(config_path)
    check_json_object(payload, _TRAIN_KEYS, "train config")
    config = build_train_config(payload)
    _check_caps(payload, config.num_classes)
    repeats, workers = _repeats_and_workers(payload)
    (noise_true,) = _true_noise([config])
    metrics_path, summary_path, *checkpoint_paths = _output_paths(
        out_dir, "metrics.csv", "summary.json", *(f"checkpoint_r{r}.json" for r in range(repeats))
    )
    train_set, test_set = resolve_datasets(payload)
    with _out_dir(out_dir):
        result = run_experiment(config, train_set, test_set, noise_true, repeats, workers)
    echo = _config_echo(payload, config)
    write_csv(metrics_path, echo, _METRIC_COLUMNS, result.metrics_rows)
    for path, checkpoint in zip(checkpoint_paths, result.checkpoints):
        write_json(path, checkpoint)
    # Rates that cannot move stay at 0, the identity mitigation.
    frozen = config.rate_lr_scale == 0.0 or config.learning_rate == 0.0
    summary = {
        "version": __version__,
        "config": echo,
        "role": "baseline" if frozen else "mitigated",
        "per_seed_accuracy": result.per_seed_accuracy,
        "mean_accuracy": result.mean_accuracy,
        "std_accuracy": result.std_accuracy,
    }
    write_json(summary_path, summary)
    print(
        f"{payload['benchmark']}: accuracy {result.mean_accuracy:.4f} "
        f"+/- {result.std_accuracy:.4f} over {repeats} repeat(s) -> {out_dir}"
    )
    return 0


def cmd_ablation(config_path: str, out_dir: str) -> int:
    payload = _load_json(config_path)
    check_json_object(payload, _ABLATION_KEYS, "ablation config")
    grid = payload.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("ablation config requires a non-empty 'grid' object")
    check_json_object(grid, _GRID_KEYS, "grid")
    base_payload = {k: v for k, v in payload.items() if k != "grid"}
    base_config = build_train_config(base_payload)
    _check_caps(payload, base_config.num_classes)
    repeats, workers = _repeats_and_workers(payload)

    # Cells are the product over every axis, in table order; an axis the
    # grid leaves out takes the base config's value.
    values = []
    for axis, (name, json_type) in _GRID_AXES.items():
        entries = grid.get(axis, [getattr(base_config, name)])
        for entry in entries:
            check_json_value(entry, json_type, f"grid: {axis} entry")
        # alpha_fb is written as a float whatever its JSON type: 0 -> 0.0.
        values.append([float(e) for e in entries] if axis == "alpha_fb" else entries)
    configs = []
    for combo in itertools.product(*values):
        cell = {name: value for (name, _), value in zip(_GRID_AXES.values(), combo)}
        try:
            configs.append(replace(base_config, **cell))
        except ValidationError as exc:
            raise ConfigError(f"grid cell {cell}: {exc}") from exc
    if not configs:
        raise ConfigError("ablation grid axes must be non-empty")
    noises = _true_noise(configs)
    (table_path,) = _output_paths(out_dir, "ablation.csv")
    train_set, test_set = resolve_datasets(base_payload)

    rows = []
    with _out_dir(out_dir):
        for cfg, noise_true in zip(configs, noises):
            result = run_experiment(cfg, train_set, test_set, noise_true, repeats, workers)
            rows.append(
                {
                    "design": cfg.design,
                    "step_size": cfg.step_size,
                    "layers": cfg.layers,
                    "alpha_fb": cfg.alpha_fb,
                    "mode": cfg.mode,
                    "mean_acc": result.mean_accuracy,
                    "std_acc": result.std_accuracy,
                }
            )
            print(
                f"design={cfg.design} step={cfg.step_size} layers={cfg.layers} "
                f"alpha_fb={cfg.alpha_fb} mode={cfg.mode}: "
                f"{result.mean_accuracy:.4f} +/- {result.std_accuracy:.4f}"
            )
    echo = _config_echo(payload, base_config)
    columns = ["design", "step_size", "layers", "alpha_fb", "mode", "mean_acc", "std_acc"]
    write_csv(table_path, echo, columns, rows)
    return 0


def divergence_trace(
    n: int,
    operations: int,
    channel: str,
    rate: float,
    alpha: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """Divergence to the maximally mixed state along a noisy operation stream.

    The stream cycles through fresh random single-qubit rotations (one per
    qubit) followed by the ring of CNOTs; after every operation the chosen
    noise acts on the qubit(s) the operation touched.  Each operation is one
    :func:`apply_qubit_superoperators` call and one :func:`hermitize`: a
    rotation ``R`` (:func:`~qmit.pqc.rotation_matrices`) on qubit ``q`` is
    the op ``(q, R (x) conj(R))``, built as a broadcast outer product, which
    the kernel composes with that qubit's noise ops; a CNOT first permutes
    the basis (two ``take`` gathers by ``p`` from :func:`cnot_permutation`).
    Pauli and depolarizing noise are the mixes of
    :func:`pauli_mix_superoperators`; their generator letters, and the fixed
    noise ops of the depolarizing and damping channels, are built once per
    qubit and ring pair.  Rotations and CNOTs keep the
    spectrum and Pauli noise cannot lower the smallest eigenvalue, so those
    states are only trace checked; amplitude damping can, so a step with it
    gets the full check, as the encoded state does; nothing else is
    checked.  Each value is one :func:`petz_renyi_divergence` call, whose
    reference ``I/d`` is implicit: ``log d`` plus a trace of ``rho``'s own
    power, with no matrix product at ``alpha = 2`` and no ``eigh`` at
    integer ``alpha`` up to 64.
    """
    if channel not in _TRACE_CHANNELS:
        raise ConfigError(f"channel must be one of {_TRACE_CHANNELS}, got {channel!r}")
    if operations < 1:
        raise ConfigError("operation count must be >= 1")
    if rate < 0.0:
        raise ConfigError("noise rate must be nonnegative")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    state = encode(rng.uniform(0.0, 1.0, 64), n)

    # Operation k < n rotates qubit k; operation n + j is the CNOT of ring
    # pair j.  Its noise acts on supports[k].
    ring = [(q, (q + 1) % n) for q in range(n)] if n >= 2 else []
    perms = [cnot_permutation(control, target, n) for control, target in ring]
    supports = [(q,) for q in range(n)] + ring
    words = default_generators(n)  # qubit q's X, Y, Z are words[3q:3q + 3]
    letters = [tuple(w for q in qubits for w in words[3 * q:3 * q + 3]) for qubits in supports]
    damping = amplitude_damping_superoperator(rate) if channel == "amplitude_damping" else None
    if damping is not None:
        fixed = [[(q, damping) for q in qubits] for qubits in supports]
    elif channel == "depolarizing":
        fixed = [pauli_mix_superoperators(word, np.full(len(word), rate)) for word in letters]

    values = [petz_renyi_divergence(state, alpha)]
    for k in itertools.islice(itertools.cycle(range(len(supports))), operations):
        if k < n:
            axis = "XYZ"[int(rng.integers(3))]
            r = rotation_matrices(np.float64(rng.uniform(-np.pi, np.pi)), PAULIS[axis])
            # R (x) conj(R): entry (2a + b, 2c + e) is R_ac conj(R_be).
            superop = (r[:, None, :, None] * r.conj()[None, :, None, :]).reshape(4, 4)
            data, ops = state.data, [(k, superop)]
        else:
            perm = perms[k - n]
            data, ops = state.data.take(perm, 0).take(perm, 1), []
        if channel == "pauli":
            ops += pauli_mix_superoperators(letters[k], rng.uniform(0.0, rate, len(letters[k])))
        else:
            ops += fixed[k]
        data = hermitize(apply_qubit_superoperators(data, ops))
        state = DensityMatrix._derived(n, data) if damping is None else DensityMatrix(n, data)
        values.append(petz_renyi_divergence(state, alpha))
    return np.asarray(values)


def cmd_trace_divergence(config_path: str, out_dir: str) -> int:
    payload = _load_json(config_path)
    check_json_object(payload, _TRACE_KEYS, "trace config", ("channel", "operations", "rate"))
    n = int(payload.get("n_qubits", 4))
    alpha = float(payload.get("alpha", 2.0))
    seed = int(payload.get("seed", 0))
    (trace_path,) = _output_paths(out_dir, "trace.csv")
    values = divergence_trace(
        n, int(payload["operations"]), str(payload["channel"]), float(payload["rate"]),
        alpha=alpha, seed=seed,
    )
    echo = dict(payload)
    echo["version"] = __version__
    # One row at a time: a list of dicts would hold ~1500 of them at once.
    rows = ({"operation": i, "divergence": float(v)} for i, v in enumerate(values))
    with _out_dir(out_dir):
        write_csv(trace_path, echo, ["operation", "divergence"], rows)
    print(
        f"{payload['channel']}: divergence {values[0]:.4f} -> {values[-1]:.6g} "
        f"over {len(values) - 1} operations -> {out_dir}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmit",
        description="density-matrix training of parameterized circuits with noise mitigation",
    )
    parser.add_argument("--version", action="version", version=f"qmit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "ablation", "trace-divergence"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output directory")
    sub.add_parser("selftest")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out)
        if args.command == "ablation":
            return cmd_ablation(args.config, args.out)
        if args.command == "trace-divergence":
            return cmd_trace_divergence(args.config, args.out)
        # Imported here: the criteria in selftest call back into this module.
        from . import selftest

        return selftest.run_all()
    except ValidationError as exc:  # ConfigError and DataFormatError too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
