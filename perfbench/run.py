"""The convdyn benchmark: four closed-loop workloads, one client each.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload powers_exact --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``powers_exact``,
``dynamics_exact``, ``walks_float`` and ``cli_mix``.  The package is
imported from ``src/`` of the checkout; without it the run fails.

``--trace 0`` starts the workload in a fresh process, times queries back
to back for ``--seconds`` seconds, checks the outputs outside the timed
region, and sets up twice more in fresh processes so ``setup_s`` is a
median of three.  Every time it reports is rescaled to a reference host
speed, measured by a fixed calibration loop between queries (see
``child.calibrate``); ``queries_per_s`` is the queries over the sum of
their rescaled latencies.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics.  ``failed`` counts the queries the gate rejects; a query that
raises the known defect (``gate.expected_failure``) is not among them,
but counts in ``failed_frac``, in the latencies and in the breakdown.
The line before it, prefixed ``perfbench:``, carries the
environment (nproc, Python, numpy, source revision), the digest, the
failure breakdown, the sample count, the input shape, the raw
(unscaled) times and the calibration timings.

``--trace 1`` runs the first ``TRACE_BLOCKS`` blocks once untraced and
once with every public convdyn function wrapped (see ``tracing.py``),
requires identical outputs from the two, and reports the per-layer
metrics: self times, exact counts, ``failed_frac`` and
``trace.overhead_frac``.

Every process the runner starts has ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1``, and runs to completion before the next starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SETUP_RUNS = 3  # setup_s is the median over this many fresh processes
TRACE_BLOCKS = {"powers_exact": 5, "dynamics_exact": 12, "walks_float": 16, "cli_mix": 4}
CHILD_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(env: dict, workdir: str, a, *extra: str) -> dict:
    cmd = [sys.executable, CHILD, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--workdir", workdir, *extra]
    cmd += ["--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def environment(root: str) -> dict:
    import numpy

    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join(root, "src", "convdyn")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": rev, "source_sha256": h.hexdigest()[:16]}


def recorded_digest(workload: str) -> str | None:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def run_timed(a, env, workdir) -> tuple[dict, dict]:
    main = spawn(env, workdir, a)
    setups = [(main["setup_s"], main["setup_raw_s"])]
    for _ in range(SETUP_RUNS - 1):
        extra = spawn(env, workdir, a, "--setup-only")
        setups.append((extra["setup_s"], extra["setup_raw_s"]))
    correct = main["failed"] == 0 and not main["problems"]
    if a.seed == DEFAULT_SEED and main["digest"] != recorded_digest(a.workload):
        correct = False
    metrics = {
        "queries_per_s": (main["queries_per_s"], "1/s"),
        "latency_p50_ms": (main["latency_p50_ms"], "ms"),
        "latency_p90_ms": (main["latency_p90_ms"], "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    keys = ("digest", "errors", "problems", "shape", "ops", "beyond_p90", "busy_s", "raw", "calibration_ms")
    info = {key: main[key] for key in keys}
    info.update(failed_frac=main["raised"] / main["attempted"], setup_samples=setups)
    return {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
            "metrics": metrics}, info


def run_traced(a, env, workdir) -> tuple[dict, dict]:
    blocks = ["--blocks", str(TRACE_BLOCKS[a.workload])]
    plain = spawn(env, workdir, a, *blocks)
    traced = spawn(env, workdir, a, *blocks, "--trace", "1")
    same = plain["hashes"] == traced["hashes"]
    correct = same and all(r["failed"] == 0 and not r["problems"] for r in (plain, traced))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    raised = plain["raised"] + traced["raised"]
    layers = traced["layers"]
    metrics = {}
    for name, value in layers.items():
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"
        metrics[name] = (value, {"transition.exact_max_bits": "bits", "serialize.stdout_bytes": "bytes"}.get(name, unit))
    metrics["failed_frac"] = (raised / attempted, "ratio")
    metrics["trace.overhead_frac"] = (traced["busy_s"] / plain["busy_s"] - 1.0, "ratio")
    info = {"traced_equals_untraced": same, "errors": traced["errors"], "problems": traced["problems"],
            "ops": traced["ops"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "convdyn", "__init__.py")):
        print("perfbench: run from the root of a convdyn checkout (src/convdyn is missing)", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(root)
    try:
        result, info = (run_traced if a.trace else run_timed)(a, env, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["environment"] = environment(root)
    info["workload"], info["seed"] = a.workload, a.seed
    print("perfbench: " + json.dumps(info, sort_keys=True))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
