"""Correctness gate: canonical outputs, per-query checks, digest, input shape.

Nothing here runs inside the timed region.  Checks recompute each claim
with :mod:`oracle` instead of trusting convdyn:

* every exact mass is exactly 1;
* convolution powers equal chained convolutions;
* limits are uniform on the subgroup (or cycle set) the oracle computes;
* every fixed-point basis element is fixed;
* float power limits lie within ``POWER_LIMIT_TOL`` of the closed form.

A query that raised passes only as the known defect ``expected_failure``
names.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import oracle
from workloads import POWER_LIMIT_TOL, _dense


def _num(x):
    return str(x) if isinstance(x, Fraction) else repr(float(x))


def _weights(m) -> list:
    return [_num(x) for x in m.weights]


def _round(x) -> str:
    s = f"{x:.9f}"
    return "0.000000000" if s == "-0.000000000" else s


def canon(op: str, out):
    """A JSON-able, machine-independent form of a query's output."""
    if isinstance(out, BaseException):
        return {"error": type(out).__name__}
    if op in ("power", "limit", "flimit", "perturb", "sample"):
        return _weights(out)
    if op == "orbit":
        return {"sets": [sorted(s) for s in out.sets], "pre": out.pre_period, "period": out.period,
                "acyclic": out.acyclic, "witness": out.witness, "H": list(out.subgroup.members)}
    if op in ("omega", "accum"):
        return {"points": [_weights(p) for p in out.points], "period": out.period,
                "verified": out.verified}
    if op == "fixed":
        return {"basis": [_weights(b) for b in out.basis], "dim": out.dimension}
    if op == "basin":
        desc, member = out
        sums = None if desc.required_sums is None else [_num(s) for s in desc.required_sums]
        return {"sums": sums, "dim": desc.dimension, "feasible": desc.feasible,
                "witness": desc.witness_block, "member": member}
    if op in ("same", "recurrent"):
        return out
    if op == "generic":
        return [out.full_support, out.generates_group, out.acyclic,
                out.unique_fixed_point_uniform, out.omega_limits_uniform]
    if op == "tv":
        return repr(out)
    if op == "transition":
        return [[_num(x) for x in row] for row in out.entries]
    if op == "converge":
        m = None if out.matrix is None else [[_round(x) for x in row] for row in out.matrix]
        return {"converged": out.converged, "iterations": out.iterations, "period": out.period, "m": m}
    raise ValueError(f"no canonical form for {op!r}")


def canon_cli(out):
    """Exit code and stdout of a CLI query; float power iteration output is
    rounded, because BLAS kernels differ in the last bits between CPUs."""
    if isinstance(out, BaseException):
        return {"error": type(out).__name__}
    rc, text = out
    if rc == 0 and '"matrix"' in text:
        text = json.dumps(_round_floats(json.loads(text)))
    return {"rc": rc, "out": text}


def _round_floats(obj):
    if isinstance(obj, float):
        return _round(obj)
    if isinstance(obj, list):
        return [_round_floats(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def digest(canon_by_qid: dict) -> str:
    h = hashlib.sha256()
    for qid in sorted(canon_by_qid):
        h.update(f"{qid} {json.dumps(canon_by_qid[qid], sort_keys=True)}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------- checks
#
# A library output and a CLI JSON document are first reduced to the same
# plain claims (weight lists, flags); ``check`` then tests one query's
# claims against the oracle, the same way for both.


def _mass_one(weights) -> str | None:
    total = sum(weights)
    if isinstance(total, (Fraction, int)):
        return None if total == 1 else f"exact mass {total}"
    return None if abs(total - 1.0) <= 1e-9 else f"float mass {total!r}"


def library_claims(op: str, out) -> dict:
    if op in ("power", "limit", "flimit", "perturb", "sample"):
        return {"weights": list(out.weights)}
    if op in ("omega", "accum"):
        return {"points": [list(x.weights) for x in out.points]}
    if op == "fixed":
        return {"basis": [list(b.weights) for b in out.basis]}
    if op == "basin":
        desc, member = out
        return {"feasible": desc.feasible, "member": member}
    if op == "transition":
        return {"rows": out.entries}
    if op == "converge":
        return {"converged": out.converged, "period": out.period, "matrix": out.matrix}
    return {"value": out}  # orbit, same, recurrent, generic, tv


def _scalar(x):
    """An exact JSON scalar is a string ("3/8"); a float one is a number."""
    return Fraction(x) if isinstance(x, str) else float(x)


def _scalars(xs) -> list:
    return [_scalar(x) for x in xs]


CLI_OPS = {"check-acyclic": "acyclic", "omega-limit": "omega", "accumulation-points": "accum",
           "fixed-points": "fixed"}


def cli_claims(q, doc: dict) -> tuple[str, dict]:
    """(claim op, claims) of a CLI query's JSON output."""
    if q.op == "power" and q.params.get("iterative"):
        m = doc["matrix"]["entries"] if doc["converged"] else None
        return "converge", {"converged": doc["converged"], "period": doc.get("period"),
                            "matrix": None if m is None else [_scalars(row) for row in m]}
    op = CLI_OPS.get(q.op, q.op)
    if op in ("omega", "accum"):
        return op, {"points": [_scalars(x) for x in doc["points"]]}
    if op == "fixed":
        return op, {"basis": [_scalars(b) for b in doc["basis"]]}
    if op == "transition":
        return op, {"rows": [_scalars(row) for row in doc["entries"]]}
    if op == "limit":
        return op, {"weights": _scalars(doc["limit"])}
    if op == "sample":
        return op, {"weights": _scalars(doc["frequencies"]), "tv": doc["tv_distance_to_exact"]}
    if "weights" in doc:  # power, convolve, perturb, pushforward
        return op, {"weights": _scalars(doc["weights"])}
    if op == "basin":
        return op, {"feasible": doc["feasible"], "member": doc["member"]}
    return op, {"value": doc[{"acyclic": "acyclic", "recurrent": "recurrent", "validate": "valid"}[op]]}


def check_library(q, table, out) -> str | None:
    return check(q.op, table, q.params, library_claims(q.op, out))


def check_cli(q, table, text: str) -> str | None:
    """Checks on a successful CLI query's stdout; pretty output is only
    required to be non-empty."""
    if q.params["pretty"]:
        return None if text.strip() else "empty pretty output"
    op, claims = cli_claims(q, json.loads(text))
    return check(op, table, q.params, claims)


def check(op: str, table, p: dict, c: dict) -> str | None:
    """None when the claims ``c`` of one query are right, else what is wrong."""
    n = len(table)
    nu = _dense(p["nu"], n) if "nu" in p else None  # a tv query has none
    support = sorted(p.get("nu", ()))
    for w in [c["weights"]] if "weights" in c else c.get("points", c.get("basis", c.get("rows", []))):
        bad = _mass_one(w)
        if bad:
            return bad
    if op == "power":
        return None if c["weights"] == oracle.power_by_chain(table, nu, p["exponent"]) else "power != chained convolution"
    if op == "convolve":
        expected = oracle.convolve(table, list(nu), list(_dense(p["nu2"], n)))
        return None if c["weights"] == expected else "convolution differs"
    if op == "pushforward":
        expected = [Fraction(0)] * p["d"]
        for i, x in p["nu"].items():
            expected[p["map"][i]] += x
        return None if c["weights"] == expected else "pushforward differs"
    if op == "orbit":
        out = c["value"]
        pre, cycle = oracle.support_cycle(table, support)
        h = oracle.closure(table, support)
        ok = (out.pre_period == pre and list(out.cycle_sets) == cycle
              and set(out.subgroup.members) == h and out.acyclic == (len(cycle) == 1 and cycle[0] == h))
        return None if ok else "support orbit differs"
    if op == "acyclic":
        return None if c["value"] == oracle.is_acyclic(table, support) else "acyclicity differs"
    if op in ("limit", "flimit"):
        expected = oracle.uniform(n, oracle.closure(table, support))
        if op == "flimit":
            expected = [float(x) for x in expected]
        return None if c["weights"] == expected else "limit is not uniform on <supp>"
    if op == "omega":
        expected = oracle.omega_point(table, support, _dense(p["mu"], n))
        return None if c["points"][0] == expected else "omega limit differs"
    if op == "fixed":
        h = oracle.closure(table, support)
        expected = sorted(tuple(oracle.uniform(n, b)) for b in oracle.left_cosets(table, h))
        if sorted(tuple(b) for b in c["basis"]) != expected:
            return "fixed-point basis is not uniform on the cosets"
        for b in c["basis"]:
            if oracle.convolve(table, b, list(nu)) != b:
                return "basis element is not fixed"
        return None
    if op == "accum":
        _, cycle = oracle.support_cycle(table, support)
        expected = sorted(tuple(oracle.uniform(n, s)) for s in cycle)
        if len(cycle) == 1:
            expected = [tuple(oracle.uniform(n, oracle.closure(table, support)))]
        return None if sorted(tuple(x) for x in c["points"]) == expected else "accumulation points differ"
    if op == "basin":
        blocks = oracle.left_cosets(table, oracle.closure(table, support))
        eta, mu = _dense(p["eta"], n), _dense(p["mu"], n)
        feasible = all(len({eta[i] for i in b}) == 1 for b in blocks)
        inside = feasible and all(sum(mu[i] for i in b) == sum(eta[i] for i in b) for b in blocks)
        return None if (c["feasible"], c["member"]) == (feasible, inside) else "basin membership differs"
    if op == "same":
        blocks = oracle.left_cosets(table, oracle.closure(table, support))
        a, b = _dense(p["mu1"], n), _dense(p["mu2"], n)
        same = all(sum(a[i] for i in x) == sum(b[i] for i in x) for x in blocks)
        return None if c["value"] == same else "same_omega_limit differs"
    if op == "recurrent":
        mu = _dense(p["mu"], n)
        return None if c["value"] == (oracle.omega_point(table, support, mu) == list(mu)) else "is_recurrent differs"
    if op == "perturb":
        h = oracle.closure(table, support)
        got = [i for i, w in enumerate(c["weights"]) if w > 0]
        dist = sum(abs(x - y) for x, y in zip(c["weights"], nu))
        ok = dist <= p["eps"] and set(got) <= h and oracle.is_acyclic(table, got)
        return None if ok else "perturbation is not acyclic within eps"
    if op == "generic":
        out = c["value"]
        whole = len(oracle.closure(table, support)) == n
        return None if out.full_support and out.acyclic and out.generic == whole else "generic check differs"
    if op == "sample":
        counts = [x * p["trials"] for x in c["weights"]]
        ok = all(abs(x - round(x)) < 1e-6 for x in counts) and round(sum(counts)) == p["trials"]
        if not ok:
            return "frequencies are not counts / trials"
        return None if 0.0 <= c.get("tv", 0.0) <= 1.0 else "tv distance outside [0, 1]"
    if op == "tv":
        return None if 0.0 <= c["value"] <= 1.0 else "tv distance outside [0, 1]"
    if op == "transition":
        return None  # every row's mass is checked above
    if op == "converge":
        return _check_converge(table, support, c)
    if op == "validate":
        return None if c["value"] else "valid group reported invalid"
    raise ValueError(f"no check for {op!r}")


def _check_converge(table, support, c) -> str | None:
    _, cycle = oracle.support_cycle(table, support)
    if not c["converged"]:
        return None if c["period"] == len(cycle) > 1 else "reported oscillation for an acyclic measure"
    limit = oracle.limit_matrix(table, support)
    err = max(abs(x - y) for row, lrow in zip(c["matrix"], limit) for x, y in zip(row, lrow))
    return None if err <= POWER_LIMIT_TOL else f"float power limit off the closed form by {err:.2e}"


def expected_failure(q, err: str) -> bool:
    """Whether a failed query is a known library defect on this input, as
    opposed to a regression.  The only one the workloads produce is the
    float subsequence check of ``accumulation_points`` rejecting a
    near-degenerate measure on a non-acyclic support; any other error,
    ``ConvergenceError`` included, makes the run incorrect."""
    known = {"accum": "VerificationError", "accumulation-points": "cli:verification-failed"}
    return known.get(q.op) == err and q.tags["nonacyclic"] and q.tags["near_degenerate"]


# ---------------------------------------------------------------- shape


ORDER_BANDS = ((12, 20), (21, 36), (37, 60), (61, 200), (201, 720))
EXPONENT_BANDS = ((2, 4), (5, 16), (17, 64))


def shape(queries, executed_qids) -> dict:
    """Share of executed queries in each input group (order band, exponent
    band, non-acyclic, proper generated subgroup, near-degenerate, table)."""
    total = len(executed_qids)
    counts: dict[str, int] = {}

    def bump(key):
        counts[key] = counts.get(key, 0) + 1

    for qid in executed_qids:
        t = queries[qid].tags
        for lo, hi in ORDER_BANDS:
            if lo <= t["order"] <= hi:
                bump(f"order_{lo}_{hi}")
        if "exponent" in t:
            for lo, hi in EXPONENT_BANDS:
                if lo <= t["exponent"] <= hi:
                    bump(f"exponent_{lo}_{hi}")
        for key in ("nonacyclic", "proper_subgroup", "near_degenerate", "table_family"):
            if t.get(key):
                bump(key)
    return {k: round(v / total, 4) for k, v in sorted(counts.items())} if total else {}
