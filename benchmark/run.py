"""csmoe benchmark: three workloads, end-to-end metrics, and a traced run
that gives per-layer metrics. See README.md in this directory.

    python3 benchmark/run.py --workload pretrain_small --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30

Run from the root of a csmoe checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A result
file with provenance (and, when traced, the spans) is written under
.benchmark_runs/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import LAYERS

IMPORT_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".benchmark_runs"
WORKLOAD_NAMES = ("pretrain_small", "eval_retrieval", "sample_archive")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up time counts the median import time of this many fresh interpreters
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import numpy, scipy, csmoe\n"
    "for layer in sys.argv[2:]:\n"
    "    __import__('csmoe.' + layer)\n"
    "print(time.perf_counter() - start)\n"
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads():
    """One BLAS/OpenMP thread, set before numpy loads.

    On a small shared machine a second BLAS thread made run-to-run times
    swing by about 30% on the small-model workload; one thread keeps them
    within a few percent. The value is recorded in every result file.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the sampler's thread pool would break the single-threaded span stack
    os.environ.pop("CSMOE_THREADS", None)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance(args, np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("CSMOE_THREADS",)},
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "src_lines": src_lines(), "machine": platform.machine(),
    }


def import_samples() -> list:
    """The import time of ``IMPORT_PROBES`` fresh interpreters, each run to
    its end before the next starts."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), *LAYERS],
                              stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "csmoe" / "__init__.py").is_file():
        print(f"benchmark: no csmoe sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import csmoe
    for layer in LAYERS:
        __import__(f"csmoe.{layer}")
    import_s = time.perf_counter() - IMPORT_START
    if not Path(csmoe.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: csmoe was imported from {csmoe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench_workloads
    from bench_stats import median
    import_times = import_samples()

    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = RUNS / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        w, e2e, layers, tracer = bench_workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                             workdir, median(import_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = w.detail
    detail["import_samples_s"] = import_times
    detail["import_s_in_process"] = import_s
    if layers is None:
        metrics = {k: {"value": v, "unit": bench_workloads.END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record = {
        "provenance": provenance(args, np, scipy),
        "result": {"correct": w.failed == 0, "attempted": w.attempted, "failed": w.failed},
        "end_to_end": {k: {"value": v, "unit": bench_workloads.END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "per_layer": metrics if layers is not None else None,
        "checks": w.checks, "errors": w.errors, "detail": detail,
    }
    if tracer is not None:
        tracer.write(results / f"{stamp}.spans.jsonl.gz")
        record["spans_file"] = f"{stamp}.spans.jsonl.gz"
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    for name, entry in record["end_to_end"].items():
        print(f"{name:<24}{entry['value']:>16.4f} {entry['unit']}")
    for name, entry in detail["named_metrics"].items():
        print(f"{name:<24}{entry['value']:>16.4f} {entry['unit']}")
    print(f"{'failed_ratio':<24}{detail['failed_ratio']:>16.4f} failed/attempted "
          f"({w.failed}/{w.attempted})")
    if layers is not None:
        for name, entry in metrics.items():
            print(f"{name:<40}{entry['value']:>16.4f} {entry['unit']}")
    for err in w.errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"result file: {(results / f'{stamp}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": w.failed == 0, "attempted": w.attempted, "failed": w.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
