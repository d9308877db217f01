"""qmit benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mnist4_n4 --seed 0 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  A child process
(``workload.py``) runs the workload's qmit command through ``qmit.cli.main``
again and again until ``--seconds`` of measuring have passed, and at least
twice.  This process then checks the outputs (see ``check_*``), prints
the environment, every metric by name with its unit, and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

``--record-reference`` runs the workload once and stores its final values
in ``reference.json`` as the reference for that seed instead of checking.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QMIT_THREADS": "1",
}
# The child may start a new repeat only if it is expected to end within this
# many seconds of the child's start; together with the fixed set-up this
# keeps every run within the 180 s a run may take.
CHILD_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 165.0

# Tolerances of the reference comparison.  Losses and divergences are
# compared relatively; rounding differences between BLAS kernels stay far
# below it.  Accuracies may differ by ``acc_tol_samples`` samples of the
# workload: one on mnist4_n4, where a rounding change may flip one of 1000
# borderline predictions, none on wide_n8, whose splits are 8 and 4 samples.
REL_TOL = 1e-6
# Seeds with values in reference.json; other seeds skip that comparison.
REFERENCE_SEEDS = range(40)
# Criterion 04: the divergence to the maximally mixed state never rises by
# more than rounding from one operation to the next (largest rise measured:
# 9e-16).
RISE_TOL = 1e-12

WORKLOADS = {
    "mnist4_n4": {
        "kind": "train",
        "corpus": True,
        "config": {
            "benchmark": "MNIST-4", "train_cap": 1000, "test_cap": 500, "repeats": 1,
            "n_qubits": 4, "layers": 4, "design": "U2", "step_size": 1, "mode": "loss_only",
            "alpha_fb": 1.0, "alpha_task": 1.0, "epochs": 2, "batch_size": 32,
            "noise_source": "seeded",
        },
        "train_samples": 1000,
        "test_samples": 500,
        "acc_tol_samples": 1,
    },
    "wide_n8": {
        "kind": "train",
        "corpus": False,
        "config": {
            "benchmark": "synthetic-4", "train_cap": 8, "test_cap": 4, "repeats": 1,
            "n_qubits": 8, "layers": 4, "design": "U2", "step_size": 1, "mode": "loss_only",
            "alpha_fb": 1.0, "alpha_task": 1.0, "epochs": 1, "batch_size": 8,
            "noise_source": "seeded",
        },
        "train_samples": 8,
        "test_samples": 4,
        "acc_tol_samples": 0,
    },
    "trace_n6": {
        "kind": "trace",
        "corpus": False,
        "config": {"channel": "pauli", "operations": 1500, "rate": 0.002, "alpha": 2.0,
                   "n_qubits": 6},
    },
}


class Checks:
    """Counts correctness checks and names the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def read_csv(path: str) -> tuple[bytes, list[str], list[list[str]]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = [line for line in raw.decode("utf-8").splitlines() if not line.startswith("#")]
    return raw, lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def final_values(spec: dict, out_dir: str) -> dict[str, float]:
    """The values a reference stores for one run of the workload."""
    if spec["kind"] == "train":
        _raw, header, rows = read_csv(os.path.join(out_dir, "metrics.csv"))
        last = dict(zip(header, rows[-1]))
        return {k: float(last[k]) for k in ("fb_loss", "task_loss", "train_acc", "val_acc")}
    _raw, _header, rows = read_csv(os.path.join(out_dir, "trace.csv"))
    values = [float(r[1]) for r in rows]
    picks = sorted({0, len(values) // 4, len(values) // 2, 3 * len(values) // 4, len(values) - 1})
    return {f"divergence_{i}": values[i] for i in picks}


def check_train(spec: dict, out_dir: str, reference: dict | None, checks: Checks) -> None:
    _raw, header, rows = read_csv(os.path.join(out_dir, "metrics.csv"))
    checks.check(len(rows) == spec["config"]["epochs"], "metrics.csv has one row per epoch")
    last = dict(zip(header, rows[-1]))
    fb, task = float(last["fb_loss"]), float(last["task_loss"])
    accs = [float(last["train_acc"]), float(last["val_acc"])]
    checks.check(math.isfinite(fb) and math.isfinite(task) and fb >= 0.0 and task > 0.0,
                 "final losses are finite and nonnegative")
    checks.check(all(0.0 <= a <= 1.0 for a in accs), "accuracies lie in [0, 1]")
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    checks.check(summary["per_seed_accuracy"] == [max(float(r[header.index("val_acc")])
                                                      for r in rows)],
                 "summary accuracy is the best validation accuracy")
    if reference is None:
        return
    values = final_values(spec, out_dir)
    sizes = {"train_acc": spec["train_samples"], "val_acc": spec["test_samples"]}
    for key, want in reference.items():
        if key in sizes:
            ok = abs(values[key] - want) <= spec["acc_tol_samples"] / sizes[key] + 1e-12
        else:
            ok = _close(values[key], want, REL_TOL)
        checks.check(ok, f"{key} {values[key]!r} matches reference {want!r}")


def check_trace(spec: dict, out_dir: str, reference: dict | None, checks: Checks) -> None:
    _raw, _header, rows = read_csv(os.path.join(out_dir, "trace.csv"))
    values = [float(r[1]) for r in rows]
    n = spec["config"]["n_qubits"]
    checks.check(len(values) == spec["config"]["operations"] + 1, "one value per operation")
    # The encoded input is pure, and D_2(pure || I/d) = log d exactly.
    checks.check(abs(values[0] - n * math.log(2.0)) <= 1e-12, "initial divergence is n log 2")
    rise = max(b - a for a, b in zip(values, values[1:]))
    checks.check(rise <= RISE_TOL, f"divergence never rises (largest rise {rise:.3g})")
    checks.check(values[-1] > 1e-9, "divergence stays above rounding level")
    if reference is None:
        return
    got = final_values(spec, out_dir)
    for key, want in reference.items():
        checks.check(_close(got[key], want, REL_TOL), f"{key} {got[key]!r} matches {want!r}")


def load_reference(workload: str, seed: int) -> dict | None:
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def store_reference(workload: str, seed: int, values: dict) -> None:
    table = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    table.setdefault(workload, {})[str(seed)] = values
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def make_inputs(spec: dict, seed: int, work_dir: str) -> str:
    config = dict(spec["config"], seed=seed)
    if spec["corpus"]:
        from corpus import write_corpus

        config["data_dir"] = os.path.join(work_dir, "corpus")
        write_corpus(config["data_dir"], seed)
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return config_path


def run_child(plan: dict, work_dir: str) -> dict:
    plan_path = os.path.join(work_dir, "plan.json")
    result_path = os.path.join(work_dir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workload.py"), "--plan", plan_path,
         "--result", result_path],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process did not end within {CHILD_TIMEOUT_S:.0f} s")
    sys.stderr.write(output)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _timed(result: dict) -> list[dict]:
    return [r for r in result["repeats"] if not r["traced"] and r["exit"] == 0]


def end_to_end(result: dict) -> dict[str, float]:
    repeats = _timed(result)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in repeats),
        "work_per_s": statistics.median(x for r in repeats for x in r["work_rates"]),
        "eval_per_s": statistics.median(x for r in repeats for x in r["eval_rates"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def extra_lines(spec: dict, result: dict, checks: Checks) -> list[str]:
    """Figures printed for readers beside the metrics; not compared by bounds."""
    repeats = _timed(result)
    lines = [f"failed_frac {len(checks.failures) / checks.attempted!r} 1"]
    if spec["kind"] == "train":
        epochs = [x for r in repeats for x in r["epoch_s"]]
        lines.append(f"epoch_s {statistics.median(epochs)!r} s (train_epoch + evaluate, "
                     f"median of {len(epochs)})")
    lines.append(f"wall_s {statistics.median(r['wall_s'] for r in repeats)!r} s (one command, "
                 f"median of {len(repeats)} untraced repeats, not calibrated)")
    lines.append(f"host_speed {statistics.median(r['speed'] for r in result['repeats'])!r} "
                 "(calibration speed over its reference, median of repeats)")
    lines.append(f"repeats {len(result['repeats'])} "
                 f"(traced {sum(r['traced'] for r in result['repeats'])})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qmit", "cli.py")):
        print(f"no qmit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    spec = WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        config_path = make_inputs(spec, args.seed, work_dir)
        plan = {
            "kind": spec["kind"],
            "command": "train" if spec["kind"] == "train" else "trace-divergence",
            "config_path": config_path,
            "work_dir": work_dir,
            "seed": args.seed,
            "seconds": 0.0 if args.record_reference else args.seconds,
            "min_repeats": 1 if args.record_reference else 2,
            "budget_s": CHILD_BUDGET_S,
            "trace": bool(args.trace),
            "train_samples": spec.get("train_samples"),
            "test_samples": spec.get("test_samples"),
            "n_qubits": spec["config"]["n_qubits"],
        }
        started = time.perf_counter()
        result = run_child(plan, work_dir)
        if args.record_reference:
            values = final_values(spec, result["repeats"][0]["out"])
            store_reference(args.workload, args.seed, values)
            print(json.dumps({args.workload: {str(args.seed): values}}))
            return 0

        checks = Checks()
        reference = load_reference(args.workload, args.seed)
        if args.seed in REFERENCE_SEEDS:
            checks.check(reference is not None, f"reference.json holds seed {args.seed}")
        first = None
        for i, rep in enumerate(result["repeats"]):
            checks.check(rep["exit"] == 0, f"repeat {i} exit code {rep['exit']}")
            if rep["exit"] != 0:
                continue
            name = "metrics.csv" if spec["kind"] == "train" else "trace.csv"
            raw = read_csv(os.path.join(rep["out"], name))[0]
            if first is None:
                first = raw
                if spec["kind"] == "train":
                    check_train(spec, rep["out"], reference, checks)
                else:
                    check_trace(spec, rep["out"], reference, checks)
            else:
                label = "traced" if rep["traced"] else "untraced"
                checks.check(raw == first, f"repeat {i} ({label}) {name} is byte-identical")
        if first is None:
            raise RuntimeError("no repeat of the workload succeeded")

        measured = result["layers"] if args.trace else end_to_end(result)
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
        env = dict(result["env"], workload=args.workload, run_s=time.perf_counter() - started)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"checks attempted {checks.attempted} failed {len(checks.failures)}"
              + (f" reference seed {args.seed}" if reference else
                 f" (no reference stored for seed {args.seed}; references cover seeds "
                 f"{REFERENCE_SEEDS.start}-{REFERENCE_SEEDS.stop - 1})"))
        for failure in checks.failures:
            print(f"FAILED {failure}")
        for line in extra_lines(spec, result, checks):
            print(line)
        for name, entry in metrics.items():
            print(f"{name} {entry['value']!r} {entry['unit']}")
        print(json.dumps({
            "correct": not checks.failures,
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": metrics,
        }))
        return 0
    except (RuntimeError, OSError, KeyError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
