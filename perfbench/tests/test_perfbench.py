"""Tests of the benchmark itself; not part of the package's test suite.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import convdyn as cd  # noqa: E402
import child  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIBRARY = ("powers_exact", "dynamics_exact", "walks_float")


@pytest.fixture(scope="module")
def infos():
    specs = dict.fromkeys(s for w in workloads.WORKLOADS for s in workloads.specs_for(w))
    return workloads.group_infos(cd, specs)


def _plan(workload, seed, infos, blocks=1, workdir="/nonexistent"):
    return workloads.plan_workload(workload, seed, infos, blocks, workdir)


def _outputs(workload, queries, infos):
    args = workloads.materialize(cd, queries, infos)
    _, outputs, _ = child.closed_loop(queries, child.library_runner(cd, args))
    return {qid: gate.canon(queries[qid].op, out) for qid, out in outputs.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, infos):
    a = _plan(workload, 7, infos, blocks=2)
    b = _plan(workload, 7, infos, blocks=2)
    c = _plan(workload, 8, infos, blocks=2)
    assert [(q.op, q.group, q.params, q.tags) for q in a] == [(q.op, q.group, q.params, q.tags) for q in b]
    assert [q.params for q in a] != [q.params for q in c]


@pytest.mark.parametrize("workload", LIBRARY)
def test_digest_is_stable_and_outputs_pass_the_gate(workload, infos):
    queries = _plan(workload, 3, infos)
    first = _outputs(workload, queries, infos)
    second = _outputs(workload, queries, infos)
    assert gate.digest(first) == gate.digest(second)
    args = workloads.materialize(cd, queries, infos)
    _, outputs, _ = child.closed_loop(queries, child.library_runner(cd, args))
    for qid, out in outputs.items():
        q = queries[qid]
        if isinstance(out, Exception):
            assert gate.expected_failure(q, type(out).__name__), (q.op, out)
        else:
            assert gate.check_library(q, infos[q.group].table, out) is None


def test_cli_outputs_pass_the_same_checks(infos, tmp_path):
    queries = _plan("cli_mix", 2, infos, workdir=str(tmp_path))
    workloads.write_files(queries)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for q in queries:
        proc = subprocess.run([sys.executable, "-m", "convdyn.cli", *q.params["argv"]], capture_output=True, env=env)
        if proc.returncode:
            assert gate.expected_failure(q, child._cli_error(proc)), (q.op, proc.stderr)
        else:
            assert gate.check_cli(q, infos[q.group].table, proc.stdout.decode()) is None, q.op


def test_only_the_known_defect_counts_as_an_expected_failure(infos):
    queries = _plan("dynamics_exact", 0, infos, blocks=4)
    known = [q for q in queries if q.op == "accum" and q.tags["nonacyclic"] and q.tags["near_degenerate"]]
    assert known
    assert gate.expected_failure(known[0], "VerificationError")
    for err in ("BudgetError", "GroupMismatchError", "ConvergenceError", "NotAcyclicError"):
        assert not gate.expected_failure(known[0], err)
    assert not any(gate.expected_failure(q, "VerificationError") for q in queries if q.op != "accum")


def test_latencies_are_rescaled_by_the_calibrations_around_them():
    ref = child.CAL_REF_S
    cals = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref)]
    records = [(0, 0.1, 0.5, None), (1, 1.1, 0.5, None), (2, 0.5, 1.0, None)]
    assert child.rescaled(records, cals) == pytest.approx([0.5 / 1.5, 0.5 / 3.0, 1.0 / 2.5])


@pytest.mark.parametrize("workload", LIBRARY)
def test_traced_and_untraced_outputs_are_identical(workload, infos):
    queries = _plan(workload, 5, infos)
    plain = _outputs(workload, queries, infos)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _outputs(workload, queries, infos)
    finally:
        tracer.uninstall()
    assert plain == traced
    assert len(tracer.name) > 0
    assert cd.convolve.__module__ == "convdyn.measures"  # wrappers removed again
    metrics = tracing.layer_metrics(tracer)
    assert all(v >= -1e-9 for k, v in metrics.items() if k.endswith("_s"))


def test_cli_launcher_matches_the_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PERFBENCH_SPANS=str(tmp_path / "s.json"))
    argv = ["limit", "--group", '{"family": "dihedral", "n": 6}',
            "--measure", '{"weights": ["1/2", "0", "0", "0", "0", "0", "1/2", "0", "0", "0", "0", "0"]}']
    plain = subprocess.run([sys.executable, "-m", "convdyn.cli", *argv], capture_output=True, env=env)
    env["PERFBENCH_T0"] = "0.0"
    traced = subprocess.run([sys.executable, os.path.join(BENCH, "cli_launcher.py"), *argv],
                            capture_output=True, env=env)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    spans = json.loads((tmp_path / "s.json").read_text())
    assert "cli.cmd_limit" in spans["names"]


def test_benchmark_json_lists_what_the_runs_emit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = set(tracing.layer_metrics(tracing.Tracer())) | {"failed_frac", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer


def _run(*args, cwd=ROOT, timeout=120):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=timeout)


@pytest.mark.parametrize("workload", ["powers_exact", "dynamics_exact"])
def test_smoke_run_at_the_default_seed(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True  # includes the recorded digest
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_source_tree(tmp_path):
    proc = _run("--workload", "powers_exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
