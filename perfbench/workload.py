"""The workload process: runs one qmit command repeatedly and measures it.

``run.py`` starts this file as a child process with the BLAS thread count
pinned, so the child's peak resident memory is the memory of qmit work
alone.  The child reads a plan (JSON), runs the command through
``qmit.cli.main`` until the plan's measuring time is used (at least
``min_repeats`` times), and writes what it measured to a result file (JSON).
It checks nothing about qmit's outputs; ``run.py`` does.

Untraced repeats wrap only the few public functions that mark end-to-end
events (``train_epoch``, ``evaluate``, ``petz_renyi_divergence``), a
handful of calls per epoch or one per noisy operation.  Traced repeats wrap
every function in ``TRACE_TARGETS`` as well and turn the spans into the
per-layer metrics of ``PER_LAYER``; a traced function that qmit no longer
has is skipped and its metrics read 0.  Every time is in reference seconds
(see spans.py).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import qmit  # noqa: E402
from qmit import cli  # noqa: E402
from spans import SpanRecorder  # noqa: E402

# Bytes one Pauli factor application reads and writes for a d x d complex128
# matrix: the input, the gathered conjugate and the mixed output.
FACTOR_BYTES_PER_ENTRY = 3 * 16


def _batch_and_dim(x) -> tuple[int, int]:
    return (x.shape[0] if x.ndim == 3 else 1), x.shape[-1]


def _add_factors(rec, x, factors):
    batch, dim = _batch_and_dim(x)
    rec.counts["noise.factor_apps"] += factors * batch
    rec.counts["noise.bytes_computed"] += factors * batch * dim * dim * FACTOR_BYTES_PER_ENTRY


def _count_images(rec, args, result):
    rec.counts["data.images"] += len(result)


def _count_channel_layer(rec, args, result):
    _add_factors(rec, args[0], sum(1 for w, _perm, _phase in args[1] if w != 1.0))


def _count_inverse_forward(rec, args, result):
    _add_factors(rec, args[0], len(args[2]))


def _count_inverse_backward(rec, args, result):
    # Each factor builds its rate derivative (one conjugation) and pulls the
    # adjoint through the factor (another).
    _add_factors(rec, args[0], 2 * len(args[2]))


def _count_apply_channel(rec, args, result):
    _add_factors(rec, args[0].data, int(np.sum(args[1].weights != 1.0)))


# (target, span name, counter)
PROBE_TARGETS = [
    ("qmit.train:train_epoch", "train.train_epoch", None),
    ("qmit.train:evaluate", "train.evaluate", None),
    ("qmit.losses:petz_renyi_divergence", "losses.petz_renyi_divergence", None),
]
TRACE_TARGETS = PROBE_TARGETS + [
    ("qmit.cli:main", "cli.main", None),
    ("qmit.data:dataset_from_idx", "data.dataset_from_idx", _count_images),
    ("qmit.train:encode_dataset", "train.encode_dataset", None),
    ("qmit.pqc:encode", "pqc.encode", None),
    ("qmit.pqc:layer_unitary_and_gradients", "pqc.layer_unitary_and_gradients", None),
    ("qmit.train:_apply_noise_layer", "train._apply_noise_layer", _count_channel_layer),
    ("qmit.train:_noise_layer_adjoint", "train._noise_layer_adjoint", _count_channel_layer),
    ("qmit.train:_inverse_stack_forward", "train._inverse_stack_forward", _count_inverse_forward),
    ("qmit.train:_inverse_stack_backward", "train._inverse_stack_backward",
     _count_inverse_backward),
    ("qmit.noise:apply_channel", "noise.apply_channel", _count_apply_channel),
    ("qmit.losses:_fb_pair_forward", "losses._fb_pair_forward", None),
    ("qmit.losses:_fb_pair_backward", "losses._fb_pair_backward", None),
    ("qmit.losses:_eigh", "losses._eigh", None),
    ("qmit.qsim:hermitian_power", "qsim.hermitian_power", None),
    ("qmit.train:_theta_grad_forward_conj", "train._theta_grad_forward_conj", None),
    ("qmit.train:_theta_grad_backward_conj", "train._theta_grad_backward_conj", None),
    ("qmit.train:_run_batch", "train._run_batch", None),
    ("qmit.qsim:DensityMatrix.__post_init__", "qsim.DensityMatrix.__post_init__", None),
    ("qmit.qsim:evolve", "qsim.evolve", None),
]

NOISE_SPANS = (
    "train._apply_noise_layer",
    "train._noise_layer_adjoint",
    "train._inverse_stack_forward",
    "train._inverse_stack_backward",
)

EIGH_SPANS = ["losses._eigh", "qsim.hermitian_power"]

# Per-layer metric -> (kind, spans or counter).  Kinds: "self" sums self time
# of the spans, "incl" sums inclusive time, "calls" counts span calls,
# "count" reads a counter.  Derived metrics are filled in by layer_metrics.
PER_LAYER = {
    "data.load_s": ("self", ["data.dataset_from_idx"]),
    "data.images": ("count", "data.images"),
    "pqc.encode_s": ("self", ["train.encode_dataset", "pqc.encode"]),
    "pqc.encode_calls": ("calls", ["pqc.encode"]),
    "pqc.layer_grads_s": ("self", ["pqc.layer_unitary_and_gradients"]),
    "noise.channel_fwd_s": ("self", ["train._apply_noise_layer"]),
    "noise.channel_adj_s": ("self", ["train._noise_layer_adjoint"]),
    "noise.inverse_fwd_s": ("self", ["train._inverse_stack_forward"]),
    "noise.inverse_adj_s": ("self", ["train._inverse_stack_backward"]),
    "noise.factor_apps": ("count", "noise.factor_apps"),
    "noise.bytes_computed": ("count", "noise.bytes_computed"),
    "noise.apply_channel_s": ("self", ["noise.apply_channel"]),
    "losses.fb_fwd_s": ("incl", ["losses._fb_pair_forward"]),
    "losses.fb_bwd_s": ("incl", ["losses._fb_pair_backward"]),
    "losses.eigh_s": ("self", EIGH_SPANS),
    "losses.eigh_calls": ("calls", EIGH_SPANS),
    "losses.divergence_s": ("incl", ["losses.petz_renyi_divergence"]),
    "train.theta_grad_s": ("self", ["train._theta_grad_forward_conj",
                                    "train._theta_grad_backward_conj"]),
    "train.run_batch_s": ("incl", ["train._run_batch"]),
    "train.run_batch_self_s": ("self", ["train._run_batch"]),
    "train.eval_s": ("incl", ["train.evaluate"]),
    "qsim.validate_s": ("self", ["qsim.DensityMatrix.__post_init__"]),
    "qsim.validate_calls": ("calls", ["qsim.DensityMatrix.__post_init__"]),
    "qsim.evolve_s": ("self", ["qsim.evolve"]),
    "cli.self_s": ("self", ["cli.main"]),
}


def layer_metrics(rec: SpanRecorder, clock, setup_s: float) -> dict[str, float]:
    totals = rec.totals(clock)

    def total(key, names):
        return float(sum(totals[n][key] for n in names if n in totals))

    out = {}
    for metric, (kind, source) in PER_LAYER.items():
        if kind == "count":
            out[metric] = float(rec.counts.get(source, 0.0))
        else:
            out[metric] = total({"self": "self_s", "incl": "incl_s", "calls": "calls"}[kind],
                                source)
    # ``evaluate`` returns no forward-backward loss, so a pair it computes
    # is wasted; with none computed, none is wasted.
    wasted = rec.within("losses._fb_pair_forward", "train.evaluate")
    out["train.eval_fb_useful_ratio"] = 0.0 if wasted else 1.0
    run_batch = out["train.run_batch_s"]
    out["noise.run_batch_share"] = total("self_s", NOISE_SPANS) / run_batch if run_batch else 0.0
    out["setup.load_encode_share"] = (out["data.load_s"] + out["pqc.encode_s"]) / setup_s
    return out


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "qmit": qmit.__version__,
        "seed": seed,
    }


def _train_rates(rec, clock, samples, events) -> list[float]:
    return [samples / (end - start) for start, end in rec.intervals(events, clock)]


def _trace_rates(rec, clock, n_qubits) -> tuple[list[float], list[float], float]:
    """Ops per second over whole gate cycles, divergences per second, setup end.

    Operation ``k`` ends when its divergence returns; the first divergence
    (of the encoded state) ends set-up.  A cycle is ``n`` rotations and
    ``n`` CNOTs, whose noise costs differ, so rates are taken per cycle.
    """
    div = rec.intervals("losses.petz_renyi_divergence", clock)
    ends = [end for _start, end in div]
    cycle = 2 * n_qubits
    ops = [cycle / (ends[i + cycle] - ends[i]) for i in range(0, len(ends) - cycle, cycle)]
    return ops, [1.0 / (end - start) for start, end in div], ends[0]


def run_once(plan: dict, index: int, traced: bool) -> dict:
    out_dir = os.path.join(plan["work_dir"], f"r{index}")
    rec = SpanRecorder()
    for target, name, counter in TRACE_TARGETS if traced else PROBE_TARGETS:
        rec.install(target, name, counter)
    argv = [plan["command"], "--config", plan["config_path"], "--out", out_dir]
    try:
        rec.start_timer()
        start = time.perf_counter()
        code = cli.main(argv)
        end = time.perf_counter()
    finally:
        rec.stop_timer()
        rec.restore()
    clock = rec.clock()
    start_ref = float(clock(start))
    result = {
        "traced": traced,
        "exit": code,
        "out": out_dir,
        "wall_s": end - start,
        "ref_s": float(clock(end)) - start_ref,
        "speed": rec.speed(),
    }
    if code != 0:
        return result
    if plan["kind"] == "train":
        epochs = rec.intervals("train.train_epoch", clock)
        result["setup_s"] = epochs[0][0] - start_ref
        result["work_rates"] = _train_rates(rec, clock, plan["train_samples"], "train.train_epoch")
        result["eval_rates"] = _train_rates(rec, clock, plan["test_samples"], "train.evaluate")
        result["epoch_s"] = [
            (e1 - e0) + (v1 - v0)
            for (e0, e1), (v0, v1) in zip(epochs, rec.intervals("train.evaluate", clock))
        ]
    else:
        ops, evals, setup_end = _trace_rates(rec, clock, plan["n_qubits"])
        result["setup_s"] = setup_end - start_ref
        result["work_rates"] = ops
        result["eval_rates"] = evals
    if traced:
        result["layers"] = layer_metrics(rec, clock, result["setup_s"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measure one benchmark workload")
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    env = environment(plan["seed"])
    if env["blas_threads"] != 1 or os.environ.get("QMIT_THREADS") != "1":
        print(f"refusing to time: BLAS threads {env['blas_threads']}, "
              f"QMIT_THREADS {os.environ.get('QMIT_THREADS')!r}; both must be 1",
              file=sys.stderr)
        return 3

    began = time.perf_counter()
    repeats = []
    while True:
        # Traced runs start with one untraced repeat: its output is the
        # reference the traced output must equal, and its wall time is the
        # base of the tracing overhead.
        traced = plan["trace"] and len(repeats) > 0
        repeats.append(run_once(plan, len(repeats), traced))
        if repeats[-1]["exit"] != 0:
            break
        elapsed = time.perf_counter() - began
        per_repeat = elapsed / len(repeats)
        if len(repeats) >= plan["min_repeats"] and (
            elapsed >= plan["seconds"] or elapsed + per_repeat > plan["budget_s"]
        ):
            break

    result = {
        "env": env,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repeats": repeats,
    }
    if plan["trace"] and all(r["exit"] == 0 for r in repeats):
        untraced = repeats[0]["ref_s"]
        layers = {
            key: statistics.median(r["layers"][key] for r in repeats[1:])
            for key in repeats[1]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["ref_s"] for r in repeats[1:]) - untraced
        result["layers"] = layers
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
