"""Command-line entry point.

Commands: ``train`` (one benchmark run with repeats), ``ablation`` (grids of
designs, step sizes, loss settings or layer counts), ``trace-divergence``
(divergence of a noisy state to the maximally mixed state per operation),
and ``selftest`` (release criteria 01-08 and 12 at reduced sizes).

Configuration is a single JSON document; unknown keys are rejected so that
typos in hyperparameter names cannot silently change an experiment.  Every
output file carries the resolved configuration and the code version, and
floats are serialized via ``repr`` so reruns are byte identical.

Exit codes: 0 success, 1 self-test failure, 2 configuration error,
3 runtime/training failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .data import BENCHMARKS, Dataset, dataset_from_idx, make_benchmark, synthetic_blobs
from .errors import ConfigError, DataFormatError, TrainingError, ValidationError
from .losses import petz_renyi_divergence
from .noise import amplitude_damping, apply_channel, apply_qubit_superoperators, single_qubit_model
from .pqc import EncoderSpec, encode
from .qsim import DensityMatrix, hermitize, maximally_mixed, rotation_matrix_2x2
from .train import TrainConfig, config_to_json, run_experiment, save_checkpoint

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


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return payload


def _check_value(value, expected, what: str) -> None:
    """Raise unless ``value`` has the JSON type ``expected``; booleans and
    non-finite numbers (``json`` reads ``NaN`` and ``Infinity``) never pass."""
    if not isinstance(value, expected):
        names = (
            expected.__name__
            if isinstance(expected, type)
            else "/".join(t.__name__ for t in expected)
        )
        raise ConfigError(f"{what} must be {names}, got {type(value).__name__}")
    if isinstance(value, bool):
        raise ConfigError(f"{what} must not be a boolean")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value}")


def _check_keys(payload: dict, allowed: dict, where: str) -> None:
    for key, value in payload.items():
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
        _check_value(value, allowed[key], f"{where}: key {key!r}")


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
    train_cap = int(payload.get("train_cap", 1000))
    test_cap = int(payload.get("test_cap", 500))
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
    raw = {}
    for split, (img_base, lab_base) in _IDX_NAMES.items():
        raw[split] = dataset_from_idx(
            _find_idx(data_dir, img_base), _find_idx(data_dir, lab_base)
        )
    return make_benchmark(raw["train"], raw["test"], spec, train_cap, test_cap, seed)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _header_lines(config_echo: dict) -> list[str]:
    return [
        f"# qmit {__version__}",
        "# config " + json.dumps(config_echo, sort_keys=True),
    ]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, config_echo: dict, columns: list[str], rows: list[dict]) -> None:
    lines = _header_lines(config_echo)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
    _check_keys(payload, _TRAIN_KEYS, "train config")
    config = build_train_config(payload)
    repeats = int(payload.get("repeats", 1))
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    train_set, test_set = resolve_datasets(payload)
    os.makedirs(out_dir, exist_ok=True)

    result = run_experiment(config, train_set, test_set, repeats=repeats)
    echo = _config_echo(payload, config)
    write_csv(os.path.join(out_dir, "metrics.csv"), echo, _METRIC_COLUMNS, result.metrics_rows)
    for r, checkpoint in enumerate(result.checkpoints):
        save_checkpoint(os.path.join(out_dir, f"checkpoint_r{r}.json"), checkpoint)
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
    write_json(os.path.join(out_dir, "summary.json"), summary)
    print(
        f"{payload['benchmark']}: accuracy {result.mean_accuracy:.4f} "
        f"+/- {result.std_accuracy:.4f} over {repeats} repeat(s) -> {out_dir}"
    )
    return 0


def cmd_ablation(config_path: str, out_dir: str) -> int:
    payload = _load_json(config_path)
    _check_keys(payload, _ABLATION_KEYS, "ablation config")
    grid = payload.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("ablation config requires a non-empty 'grid' object")
    _check_keys(grid, _GRID_KEYS, "grid")
    base_payload = {k: v for k, v in payload.items() if k != "grid"}
    base_config = build_train_config(base_payload)
    repeats = int(payload.get("repeats", 1))

    # A layer sweep varies layers; any other grid varies design and step.
    sweep = ["layer_counts"] if grid.get("layer_counts") else ["designs", "step_sizes"]
    axes = sweep + ["alpha_fb", "modes"]
    values = []
    for axis in axes:
        name, json_type = _GRID_AXES[axis]
        entries = grid.get(axis, [getattr(base_config, name)])
        for entry in entries:
            _check_value(entry, json_type, f"grid: {axis} entry")
        # alpha_fb is written as a float whatever its JSON type: 0 -> 0.0.
        values.append([float(e) for e in entries] if axis == "alpha_fb" else entries)
    configs = []
    for combo in itertools.product(*values):
        cell = {_GRID_AXES[axis][0]: value for axis, value in zip(axes, combo)}
        try:
            configs.append(replace(base_config, **cell))
        except ValidationError as exc:
            raise ConfigError(f"grid cell {cell}: {exc}") from exc
    if not configs:
        raise ConfigError("ablation grid axes must be non-empty")
    train_set, test_set = resolve_datasets(base_payload)
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for cfg in configs:
        result = run_experiment(cfg, train_set, test_set, repeats=repeats)
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
    write_csv(os.path.join(out_dir, "ablation.csv"), echo, columns, rows)
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
    noise acts on the qubit(s) the operation touched.  A rotation ``R`` on
    qubit ``q`` is the 4x4 superoperator ``R (x) conj(R)`` on that qubit, and
    a CNOT permutes the basis, so ``rho -> rho[p][:, p]`` with ``p`` its
    index permutation (exactly Hermitian, no products).  Like
    :func:`qsim.evolve`, both keep the spectrum, so their outputs are only
    trace checked.
    """
    if channel not in _TRACE_CHANNELS:
        raise ConfigError(f"channel must be one of {_TRACE_CHANNELS}, got {channel!r}")
    if operations < 1:
        raise ConfigError("operation count must be >= 1")
    if rate < 0.0:
        raise ConfigError("noise rate must be nonnegative")
    rng = np.random.default_rng(seed)
    state = encode(rng.uniform(0.0, 1.0, 64), EncoderSpec(n))
    mixed = maximally_mixed(n)

    def apply_noise(rho: DensityMatrix, qubits) -> DensityMatrix:
        for q in qubits:
            if channel == "depolarizing":
                rho = apply_channel(rho, single_qubit_model(n, q, [rate] * 3))
            elif channel == "pauli":
                rho = apply_channel(rho, single_qubit_model(n, q, rng.uniform(0.0, rate, 3)))
            else:
                rho = amplitude_damping(rho, rate, q)
        return rho

    index = np.arange(1 << n)
    values = [petz_renyi_divergence(state, mixed, alpha)]
    done = 0
    while done < operations:
        for q in range(n):
            if done >= operations:
                break
            axis = "XYZ"[int(rng.integers(3))]
            theta = float(rng.uniform(-np.pi, np.pi))
            r = rotation_matrix_2x2(axis, theta)
            data = hermitize(apply_qubit_superoperators(state.data, [(q, np.kron(r, r.conj()))]))
            state = apply_noise(DensityMatrix._derived(n, data, state.quasi), [q])
            values.append(petz_renyi_divergence(state, mixed, alpha))
            done += 1
        for q in range(n):
            if done >= operations or n < 2:
                break
            target = (q + 1) % n
            # CNOT(q, target) flips the target bit of every basis index whose
            # control bit is set (qubit 0 is the most significant bit).
            perm = index ^ (((index >> (n - 1 - q)) & 1) << (n - 1 - target))
            data = state.data[np.ix_(perm, perm)]
            state = apply_noise(DensityMatrix._derived(n, data, state.quasi), [q, target])
            values.append(petz_renyi_divergence(state, mixed, alpha))
            done += 1
    return np.asarray(values)


def cmd_trace_divergence(config_path: str, out_dir: str) -> int:
    payload = _load_json(config_path)
    _check_keys(payload, _TRACE_KEYS, "trace config")
    for key in ("channel", "operations", "rate"):
        if key not in payload:
            raise ConfigError(f"trace config: missing required key {key!r}")
    n = int(payload.get("n_qubits", 4))
    alpha = float(payload.get("alpha", 2.0))
    seed = int(payload.get("seed", 0))
    values = divergence_trace(
        n, int(payload["operations"]), str(payload["channel"]), float(payload["rate"]),
        alpha=alpha, seed=seed,
    )
    os.makedirs(out_dir, exist_ok=True)
    echo = dict(payload)
    echo["version"] = __version__
    rows = [{"operation": i, "divergence": float(v)} for i, v in enumerate(values)]
    write_csv(os.path.join(out_dir, "trace.csv"), echo, ["operation", "divergence"], rows)
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
    except (ConfigError, DataFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
