"""One workload in one fresh process: set up, run the timed loop, then check.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start-up, ``import convdyn``, building every group and input
measure, and for ``cli_mix`` writing the input files.  It is rescaled
by one calibration taken right after set-up (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
CLI_TIMEOUT_S = 120


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


# Host speed.  The benchmark may share a few cores of a host with other
# work, and the speed of pure-Python code there can drift by a third
# within seconds (a fixed exact power took 83-145 ms in successive 3 s
# windows of one minute, on 2 cores of a shared x86-64 host).  So the
# loop times a fixed piece of work, ``calibrate``, about every
# CAL_EVERY_S, and every time the benchmark reports is rescaled to the
# speed at which ``calibrate`` takes CAL_REF_S: a query's latency is
# multiplied by CAL_REF_S over the mean of the calibrations just before
# and just after it.  The work is the benchmark's own, so no change to
# convdyn moves it; the raw times are reported beside the rescaled ones.
CAL_EVERY_S = 0.5
CAL_REF_S = 0.003
WALL_LIMIT = 1.5


def calibrate() -> float:
    """The median of three timings of a fixed mix of rational arithmetic
    and dict traffic, with the garbage collector off."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            x, s, d = Fraction(1, 3), Fraction(0), {}
            for i in range(1, 150):
                s += x * Fraction(i, i + 7)
                x = x * Fraction(2, 3) + Fraction(1, i)
            for i in range(6000):
                d[i % 97] = d.get(i % 97, 0) + i
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def rescaled(records, cals) -> list[float]:
    """Each record's latency in seconds at the reference speed."""
    ends = [t for t, _ in cals]
    out = []
    for _, t0, lat, _ in records:
        before = cals[max(bisect.bisect_right(ends, t0) - 1, 0)][1]
        after = cals[min(bisect.bisect_left(ends, t0 + lat), len(cals) - 1)][1]
        out.append(lat * CAL_REF_S * 2.0 / (before + after))
    return out


def closed_loop(queries, run_one, seconds=None):
    """One client issuing queries back to back, a whole block at a time.

    With ``seconds`` it cycles through the blocks and starts another only
    while at least half a mean block's time is left, counting time at the
    reference speed: so a run covers whole blocks, the same ones however
    fast the host is at the time, and ``seconds`` of queries at that speed
    on average; on a host so slow that this would take more than
    WALL_LIMIT times ``seconds`` it stops at that.  With ``seconds`` None
    it runs each query once.  Between queries it calibrates whenever
    CAL_EVERY_S has passed.  Returns (records, first output per query,
    calibrations), a record being (qid, start, latency_s, error name or
    None) and a calibration (time, seconds)."""
    blocks: dict[int, list] = {}
    for q in queries:
        blocks.setdefault(q.block, []).append(q)
    order = list(blocks.values())
    records = []
    outputs = {}
    start = time.perf_counter()
    cals = [(start, calibrate())]
    work = 0.0  # seconds of queries so far, at the reference speed
    done = 0
    while True:
        for q in order[done % len(order)]:
            t0 = time.perf_counter()
            out, err = run_one(q)
            t1 = time.perf_counter()
            records.append((q.qid, t0, t1 - t0, err))
            outputs.setdefault(q.qid, out)
            work += (t1 - t0) * CAL_REF_S / cals[-1][1]
            if t1 - cals[-1][0] >= CAL_EVERY_S:
                cal = calibrate()
                cals.append((time.perf_counter(), cal))
        done += 1
        wall = time.perf_counter() - start
        if seconds is None:
            if done == len(order):
                break
        elif work + 0.5 * work / done >= seconds or wall + 0.5 * wall / done >= WALL_LIMIT * seconds:
            break
    cal = calibrate()
    cals.append((time.perf_counter(), cal))
    return records, outputs, cals


def library_runner(cd, args_list, tracer=None):
    import workloads

    store = {}  # outputs passed between the queries of one block

    def run_one(q):
        if tracer:
            tracer.current_qid = q.qid
        try:
            return workloads.execute(cd, q.op, args_list[q.qid], store), None
        except Exception as exc:  # every failure is counted, none stops the loop
            return exc, type(exc).__name__

    return run_one


def cli_runner(tracer, workdir):
    env = dict(os.environ)

    def run_one(q):
        spans = os.path.join(workdir, f"spans-{q.qid}.json")
        entry = [LAUNCHER] if tracer else ["-m", "convdyn.cli"]
        cmd = [sys.executable, *entry, *q.params["argv"]]
        if tracer:
            env.update(PERFBENCH_T0=repr(time.perf_counter()), PERFBENCH_SPANS=spans)
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=CLI_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired as exc:
            return exc, "TimeoutExpired"
        if tracer and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), q.qid)
            os.remove(spans)
            tracer.counters["serialize.stdout_bytes"] += len(proc.stdout)
        err = None if proc.returncode == 0 else _cli_error(proc)
        return (proc.returncode, proc.stdout.decode()), err

    return run_one


def _cli_error(proc) -> str:
    line = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
    if line[0].startswith("error:"):
        return "cli:" + line[0].split(":")[1]
    return f"cli-crash:{proc.returncode}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--blocks", type=int, default=None,
                    help="plan this many blocks and run each query once instead of for --seconds")
    a = ap.parse_args()

    tracer = None
    if a.trace:
        import tracing

        tracer = tracing.Tracer()
    import convdyn as cd

    if tracer and a.workload != "cli_mix":
        tracer.install()
    import gate
    import workloads

    infos = workloads.group_infos(cd, workloads.specs_for(a.workload))
    queries = workloads.plan_workload(a.workload, a.seed, infos, a.blocks, a.workdir)
    if a.workload == "cli_mix":
        workloads.write_files(queries)
        args_list = None
    else:
        args_list = workloads.materialize(cd, queries, infos)
    setup_raw_s = time.perf_counter() - a.t0
    setup_s = setup_raw_s * CAL_REF_S / calibrate()
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    if a.workload == "cli_mix":
        run_one = cli_runner(tracer, a.workdir)
    else:
        run_one = library_runner(cd, args_list, tracer)
    records, outputs, cals = closed_loop(queries, run_one, None if a.blocks else a.seconds)
    who = resource.RUSAGE_CHILDREN if a.workload == "cli_mix" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    if tracer and a.workload != "cli_mix":
        tracer.uninstall()

    # ---- correctness gate, outside the timed region
    digest_qids = [q.qid for q in queries if q.block < workloads.DIGEST_BLOCKS]
    missing = [qid for qid in digest_qids if qid not in outputs]
    for block in sorted({queries[qid].block for qid in missing}):  # a slow machine
        _, extra, _ = closed_loop([q for q in queries if q.block == block], run_one)
        for qid, out in extra.items():
            outputs.setdefault(qid, out)
    problems = {}
    for qid, out in outputs.items():
        q = queries[qid]
        table = infos[q.group].table
        if isinstance(out, BaseException):
            continue
        if a.workload == "cli_mix":
            rc, text = out
            if rc == 0:
                problems[qid] = gate.check_cli(q, table, text)
        else:
            problems[qid] = gate.check_library(q, table, out)
    problems = {k: v for k, v in problems.items() if v}
    if a.workload == "cli_mix":
        canon = {qid: gate.canon_cli(out) for qid, out in outputs.items()}
    else:
        canon = {qid: gate.canon(queries[qid].op, out) for qid, out in outputs.items()}
    digest = gate.digest({qid: canon[qid] for qid in digest_qids})
    hashes = {qid: hashlib.sha256(json.dumps(c, sort_keys=True).encode()).hexdigest()[:16]
              for qid, c in canon.items()}

    errors: dict[str, int] = {}
    raised = 0  # queries that raised or failed a check, the known defect included
    failed = 0  # queries the gate rejects: a wrong output or any error but the known defect
    for qid, _, _, err in records:
        if err is None and qid in problems:
            err = "check:" + problems[qid]
        if err is not None:
            raised += 1
            errors[err] = errors.get(err, 0) + 1
            if not gate.expected_failure(queries[qid], err):
                failed += 1
    raw_ms = [r[2] * 1000.0 for r in records]
    latencies_ms = [x * 1000.0 for x in rescaled(records, cals)]
    cal_ms = [c * 1000.0 for _, c in cals]
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": len(records),
        "failed": failed,
        "raised": raised,
        "busy_s": sum(raw_ms) / 1000.0,
        "queries_per_s": len(records) / (sum(latencies_ms) / 1000.0),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "beyond_p90": sum(1 for x in latencies_ms if x > percentile(latencies_ms, 90)),
        "raw": {"queries_per_s": len(records) / (sum(raw_ms) / 1000.0),
                "latency_p50_ms": percentile(raw_ms, 50), "latency_p90_ms": percentile(raw_ms, 90)},
        "calibration_ms": {"count": len(cal_ms), "p10": percentile(cal_ms, 10),
                           "p50": percentile(cal_ms, 50), "p90": percentile(cal_ms, 90)},
        "peak_rss_mb": rss_kb / 1024.0,
        "digest": digest,
        "hashes": hashes,
        "errors": errors,
        "problems": {str(k): v for k, v in problems.items()},
        "shape": gate.shape(queries, [r[0] for r in records]),
        "ops": _op_stats(queries, records),
    }
    if tracer:
        import tracing

        tracer.write(os.path.join(os.path.dirname(a.workdir), f"trace-{a.workload}.npz"))
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


def _op_stats(queries, records) -> dict:
    """Count and median latency per operation, for reading a run."""
    by_op: dict[str, list[float]] = {}
    for qid, _, lat, _ in records:
        by_op.setdefault(queries[qid].op, []).append(lat * 1000.0)
    return {op: [len(v), round(statistics.median(v), 2)] for op, v in sorted(by_op.items())}


if __name__ == "__main__":
    sys.exit(main())
