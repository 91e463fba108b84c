"""Seeded inputs and query execution for each workload.

A workload is a list of blocks; a block is a fixed recipe of queries.
Groups, sizes, exponents and draw counts sweep over the block index (see
``_u``), so every seed runs the same mix of costs and any prefix of the
query stream has nearly the same composition: that keeps a run's totals
steady across seeds.  ``random.Random("<workload>/<seed>/<block>")``
chooses the support elements, the weights and the initial measures.

Generation happens in two steps.  ``plan_workload`` returns plain data
(group names, index lists, ``Fraction`` weights, CLI argument lists) and
depends only on the seed and the Cayley tables of the groups it draws
from.  ``materialize`` turns a plan into convdyn objects.  Both belong to
the set-up that ``setup_s`` measures.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

WORKLOADS = ("powers_exact", "dynamics_exact", "walks_float", "cli_mix")

# Blocks generated per run; a run cycles through them if it gets that far.
BLOCKS = {"powers_exact": 40, "dynamics_exact": 40, "walks_float": 80, "cli_mix": 16}
# The first blocks, always completed, whose outputs form the digest.
DIGEST_BLOCKS = 2

# Groups are written "Z12" (cyclic), "D6" (dihedral, order 12), "S4"
# (symmetric) and "AxB" (direct product).
EXACT_LADDER = (
    "Z12", "D6", "Z2xS3", "Z16", "D8", "Z4xZ4", "Z18", "D9", "Z3xS3", "Z20", "D10",
    "Z24", "D12", "S4", "Z4xS3", "Z2xZ12", "Z30", "D15", "Z5xS3",
    "Z36", "D18", "S3xS3", "Z6xZ6", "Z40", "D20", "Z48", "D24", "Z2xS4",
    "Z60", "D30", "Z10xS3",
)
SMALL = ("Z12", "D6", "Z2xS3", "Z16", "D8", "Z4xZ4", "Z18", "D9", "Z3xS3", "Z20", "D10")
ORDER_12 = ("Z12", "D6", "Z2xS3")
ORDERS_20_24 = ("Z20", "D10", "Z24", "D12", "S4", "Z4xS3", "Z2xZ12")
ORDERS_12_16 = ("Z12", "D6", "Z2xS3", "Z16", "D8", "Z4xZ4")
ORDERS_36_60 = ("Z36", "D18", "S3xS3", "Z6xZ6", "Z40", "D20", "Z48", "D24", "Z2xS4", "Z60", "D30", "Z10xS3")
ORDER_48 = ("Z48", "D24", "Z2xS4")
ORDER_60 = ("Z60", "D30", "Z10xS3")
UP_TO_24 = SMALL + ORDERS_20_24[2:]
# The power slots of every powers_exact block: (groups, lowest and highest
# exponent, how many).  Sorted by cost a block is 6 cheap queries (orbit,
# limit, omega), 2 light powers, the 4 powers p50 falls among, 4 mid
# powers, the 3 powers p90 falls among and one power on order 60; about
# 4 s on 2 cores of a shared x86-64 host.
POWER_SLOTS = (
    (ORDER_12, 2, 8, 2),  # 5-45 ms
    (ORDER_12, 24, 64, 4),  # 60-110 ms: p50
    (ORDERS_20_24, 4, 12, 4),  # 0.08-0.4 s
    (ORDER_48, 2, 2, 3),  # about 0.6 s: p90
    (ORDER_60, 2, 2, 1),  # about 1.1 s
)
NEAR_POWER_SLOT = 7  # the one near-degenerate power of a block: a mid one
WALK_LARGE = ("S5", "S6", "Z200", "D100", "Z128", "D64", "Z150", "D75")
TABLE_120 = ("S5", "D60", "Z120", "Z2xD30")

POWER_LIMIT_TOL = 1e-6  # float power limit against the closed form


def family_json(spec: str) -> dict:
    """The CLI/JSON family descriptor of a group name."""
    if "x" in spec:
        a, b = spec.split("x")
        return {"family": "product", "factors": [family_json(a), family_json(b)]}
    kind = {"Z": "cyclic", "D": "dihedral", "S": "symmetric"}[spec[0]]
    return {"family": kind, "n": int(spec[1:])}


def build_group(cd, spec: str):
    if "x" in spec:
        a, b = spec.split("x")
        return cd.product_group(build_group(cd, a), build_group(cd, b))
    n = int(spec[1:])
    return {"Z": cd.cyclic_group, "D": cd.dihedral_group, "S": cd.symmetric_group}[spec[0]](n)


def _homs(spec: str) -> list[tuple[int, list[int]]]:
    """Homomorphisms onto Z_d, as (d, residue of each element index), from
    the element orderings the family builders document."""
    if "x" in spec:
        a, b = spec.split("x")
        na, nb = _order(a), _order(b)
        left = [(d, [phi[i // nb] for i in range(na * nb)]) for d, phi in _homs(a)]
        right = [(d, [phi[i % nb] for i in range(na * nb)]) for d, phi in _homs(b)]
        return left + right
    n = int(spec[1:])
    if spec[0] == "Z":
        return [(d, [k % d for k in range(n)]) for d in range(2, 7) if n % d == 0]
    if spec[0] == "D":
        return [(2, [0] * n + [1] * n)]
    # symmetric: the sign, from the parity of each permutation's inversions
    perms = list(itertools.permutations(range(n)))
    return [(2, [sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 for p in perms])]


def _order(spec: str) -> int:
    if "x" in spec:
        a, b = spec.split("x")
        return _order(a) * _order(b)
    n = int(spec[1:])
    return {"Z": n, "D": 2 * n, "S": math.factorial(n)}[spec[0]]


@dataclass
class GroupInfo:
    spec: str
    group: object
    table: tuple
    identity: int
    homs: list


def group_infos(cd, specs) -> dict[str, GroupInfo]:
    out = {}
    for spec in specs:
        g = build_group(cd, spec)
        out[spec] = GroupInfo(spec, g, g.cayley, g.identity, _homs(spec))
    return out


def specs_for(workload: str) -> tuple[str, ...]:
    if workload == "powers_exact":
        return EXACT_LADDER
    if workload == "dynamics_exact":
        return EXACT_LADDER + ("S5",)
    if workload == "walks_float":
        return WALK_LARGE + EXACT_LADDER
    return tuple(dict.fromkeys(EXACT_LADDER + TABLE_120))


# ---------------------------------------------------------------- drawing


def draw_support(rng, info: GroupInfo, kind: str, size: int, sweep: int) -> list[int]:
    """A support of ``size`` elements (fewer if the candidates run out).

    ``nonacyclic``: inside the coset phi^-1(r) of a homomorphism onto Z_d,
    with r a unit mod d, so every support power stays in one coset.
    ``proper``: the identity plus elements of a homomorphism's kernel, so
    the generated subgroup is proper.  ``any``: the identity plus random
    elements.  Supports containing the identity are acyclic.  ``sweep``
    picks the homomorphism and the unit, so the subgroup sizes do not
    depend on the seed.
    """
    n = len(info.table)
    e = info.identity
    if kind == "nonacyclic":
        d, phi = info.homs[sweep % len(info.homs)]
        units = [r for r in range(1, d) if math.gcd(r, d) == 1]
        r = units[sweep % len(units)]
        cands = [g for g in range(n) if phi[g] == r]
        return sorted(rng.sample(cands, min(size, len(cands))))
    if kind == "proper":
        d, phi = info.homs[sweep % len(info.homs)]
        cands = [g for g in range(n) if phi[g] == 0 and g != e]
    else:
        cands = [g for g in range(n) if g != e]
    return sorted([e] + rng.sample(cands, min(size - 1, len(cands))))


WEIGHT_DENOMINATOR = 60


def draw_weights(rng, support, near: int) -> dict[int, Fraction]:
    """Weights j/60 (a random composition of 60), so the bit growth of exact
    powers is the same for every seed; with ``near`` = k > 0 the measure is
    near-degenerate, with weight 10^-k on one support element."""
    k = len(support)
    d = max(WEIGHT_DENOMINATOR, k)
    cuts = sorted(rng.sample(range(1, d), k - 1))
    parts = [Fraction(y - x, d) for x, y in zip([0] + cuts, cuts + [d])]
    if near and k > 1:
        small = rng.randrange(k)
        delta = Fraction(1, 10**near)
        rest = 1 - parts[small]
        parts = [delta if i == small else p * (1 - delta) / rest for i, p in enumerate(parts)]
    return dict(zip(support, parts))


def draw_initial(rng, n: int, size: int) -> dict[int, Fraction]:
    support = sorted(rng.sample(range(n), min(size, n)))
    return draw_weights(rng, support, 0)


def coset_measure(rng, info: GroupInfo, support) -> dict[int, Fraction]:
    """A measure constant on each left coset of <support>: a fixed point of
    the limit, so it is recurrent and a feasible basin target."""
    blocks = oracle.left_cosets(info.table, oracle.closure(info.table, support))
    chosen = rng.sample(blocks, rng.randint(1, len(blocks)))
    ints = [rng.randint(1, 9) for _ in chosen]
    total = sum(ints)
    out = {}
    for block, x in zip(chosen, ints):
        for g in block:
            out[g] = Fraction(x, total * len(block))
    return out


def with_block_sums(rng, info: GroupInfo, support, target) -> dict[int, Fraction]:
    """A measure whose mass on every coset block equals ``target``'s."""
    blocks = oracle.left_cosets(info.table, oracle.closure(info.table, support))
    out = {}
    for block in blocks:
        mass = sum(target.get(g, Fraction(0)) for g in block)
        if not mass:
            continue
        members = sorted(block)
        pick = rng.sample(members, rng.randint(1, len(members)))
        ints = [rng.randint(1, 9) for _ in pick]
        for g, x in zip(pick, ints):
            out[g] = mass * Fraction(x, sum(ints))
    return out


# ---------------------------------------------------------------- plans


@dataclass
class Query:
    qid: int
    block: int
    op: str
    group: str
    params: dict
    tags: dict


def _tags(info: GroupInfo, support=None, near=0, exponent=None, table=False) -> dict:
    tags = {"order": len(info.table), "near_degenerate": bool(near), "table_family": table}
    if support is not None:
        h = oracle.closure(info.table, support)
        tags["nonacyclic"] = not oracle.is_acyclic(info.table, support)
        tags["proper_subgroup"] = len(h) < len(info.table)
    if exponent is not None:
        tags["exponent"] = exponent
    return tags


KINDS = ("any", "proper", "nonacyclic", "any")


def _u(b: int, slot: int) -> float:
    """A point in [0, 1) that sweeps evenly over the blocks (golden-ratio
    sequence).  Sizes, groups and exponents come from it rather than from
    the seed, so every seed runs the same mix of costs; the seed chooses
    the support elements, the weights and the initial measures."""
    return ((b + 1) * 0.6180339887498949 + (slot + 1) * 0.7548776662466927) % 1.0


def _pick(seq, b: int, slot: int):
    return seq[int(_u(b, slot) * len(seq))]


def _between(b: int, slot: int, lo: int, hi: int) -> int:
    return lo + int(_u(b, slot) * (hi - lo + 1))


def _log_between(b: int, slot: int, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(math.log(lo) + _u(b, slot) * (math.log(hi + 1) - math.log(lo)))))


def _near(b: int, slot: int, flag: bool) -> int:
    """0, or the k of a near-degenerate weight 10^-k, k in 2..6."""
    return _between(b, slot + 60, 2, 6) if flag else 0


def _powers_block(rng, infos, b):
    out = []
    # Every block has the same slots, so every run of whole blocks has the
    # same mix of costs, and p50 and p90 each fall inside a cluster of
    # like-priced powers (see POWER_SLOTS).
    s = 0
    for band, lo, hi, count in POWER_SLOTS:
        for _ in range(count):
            info = infos[_pick(band, b, s)]
            e = _log_between(b, s + 20, lo, hi)
            support = draw_support(rng, info, KINDS[s % 4], _between(b, s + 10, 2, 6), b + s)
            near = _near(b, s, s == NEAR_POWER_SLOT)
            out.append(("power", info, {"nu": draw_weights(rng, support, near), "exponent": e},
                        _tags(info, support, near, exponent=e)))
            s += 1
    for op in ("orbit", "orbit", "limit", "limit", "omega", "omega"):
        s = len(out)
        info = infos[_pick(EXACT_LADDER, b, s)]
        kind = KINDS[s % 4] if op == "orbit" else ("any", "proper")[s % 2]
        support = draw_support(rng, info, kind, _between(b, s + 10, 2, 6), b + s)
        near = _near(b, s, s % 2 == 0)
        params = {"nu": draw_weights(rng, support, near)}
        if op == "omega":
            params["mu"] = draw_initial(rng, len(info.table), _between(b, s + 20, 1, 8))
        out.append((op, info, params, _tags(info, support, near)))
    return out


def _dynamics_block(rng, infos, b):
    out = []

    def driving(kind, near, band=EXACT_LADDER):
        s = len(out)
        info = infos[_pick(band, b, s)]
        support = draw_support(rng, info, kind, _between(b, s + 10, 2, 6), b + s)
        near = _near(b, s, near)
        return info, support, draw_weights(rng, support, near), near

    # Every block has the same 16 slots.  Sorted by cost: 6 cheap queries
    # (the 4 below, one accumulation_points, one fixed_points on orders
    # 12-16), the 4 the median falls among (generic_check on orders 12-16,
    # fixed_points on orders 20-24), and 5 fixed_points on orders 36-60,
    # among which p90 falls.  The near-degenerate accumulation_points is
    # cheap when it succeeds and the slowest of the block when it raises the
    # known VerificationError.
    # S_5 takes one cheap slot per block, rotating through the operations.
    for slot, op in enumerate(("basin", "same", "recurrent", "perturb")):
        band = ("S5",) if slot == b % 4 else EXACT_LADDER
        kind = "nonacyclic" if op == "perturb" and b % 2 else ("any", "proper")[(b + slot) % 2]
        info, s, nu, near = driving(kind, slot == 3, band)
        n = len(info.table)
        params = {"nu": nu}
        if op == "basin":
            params["eta"] = coset_measure(rng, info, s) if b % 3 else draw_initial(rng, n, 4)
            params["mu"] = (with_block_sums(rng, info, s, params["eta"]) if b % 2
                            else draw_initial(rng, n, 6))
        elif op == "same":
            params["mu1"] = draw_initial(rng, n, _between(b, 30, 1, 8))
            params["mu2"] = (with_block_sums(rng, info, s, params["mu1"]) if b % 2
                             else draw_initial(rng, n, _between(b, 31, 1, 8)))
        elif op == "recurrent":
            params["mu"] = coset_measure(rng, info, s) if b % 2 else draw_initial(rng, n, 6)
        else:
            params["eps"] = Fraction(1, 10 ** _between(b, 32, 1, 6))
        out.append((op, info, params, _tags(info, s, near)))
    for near in (False, True):
        info, s, nu, near = driving("nonacyclic", near)
        out.append(("accum", info, {"nu": nu}, _tags(info, s, near)))
    for i, band in enumerate((ORDERS_12_16, ORDERS_20_24, ORDERS_20_24) + (ORDERS_36_60,) * 5):
        info, s, nu, near = driving(("any", "proper", "nonacyclic")[i % 3], i == 4, band)
        out.append(("fixed", info, {"nu": nu}, _tags(info, s, near)))
    for i in range(2):
        info = infos[_pick(ORDERS_12_16, b, len(out))]
        n = len(info.table)
        near = _near(b, len(out), i == 1)
        full = draw_weights(rng, list(range(n)), near)
        out.append(("generic", info, {"nu": full}, _tags(info, list(range(n)), near)))
    return out


def _walks_block(rng, infos, b):
    out = []
    for s in range(2):
        info = infos[WALK_LARGE[(2 * b + s) % len(WALK_LARGE)]]
        support = draw_support(rng, info, "any", _between(b, s + 10, 2, 6), b + s)
        nu = draw_weights(rng, support, 0)
        draws = _log_between(b, s + 20, 10**5, 10**6)
        steps = _between(b, s + 30, 5, 30)
        tags = _tags(info, support, 0)
        out.append(("sample", info, {"nu": nu, "steps": steps, "trials": max(1, draws // steps),
                                     "seed": rng.getrandbits(64)}, tags))
        out.append(("flimit", info, {"nu": nu}, tags))
        out.append(("tv", info, {}, tags))
    if b % 4 == 0:  # a lazy walk
        # Step probability p = 1/k, k log-spread over 10..1000, on orders
        # 12-20: up to about 6e5 iterations under the library's default
        # budget.  Larger orders at p = 1e-3 spin for 15-25 s per query.
        # The move elements sweep with the block, like p, so the spectral
        # gap (and the iteration count) hardly depends on the seed; the
        # seed chooses the move weights, in ratios of at most 3.
        info = infos[_pick(SMALL, b, 40)]
        p = Fraction(1, _log_between(b, 41, 10, 1000))
        others = [g for g in range(len(info.table)) if g != info.identity]
        moves = sorted({_pick(others, b, 43 + i) for i in range(_between(b, 42, 1, 3))})
        ints = [rng.randint(1, 3) for _ in moves]
        nu = {info.identity: 1 - p, **{g: p * Fraction(x, sum(ints)) for g, x in zip(moves, ints)}}
    else:
        info = infos[_pick(EXACT_LADDER, b, 40)]
        support = draw_support(rng, info, ("any", "nonacyclic")[b % 4 == 1], _between(b, 42, 2, 6), b)
        nu = draw_weights(rng, support, 0)
    tags = _tags(info, sorted(nu), 0)
    out.append(("transition", info, {"nu": nu}, tags))
    out.append(("converge", info, {"nu": nu}, tags))
    return out


def _cli_block(rng, infos, b, workdir):
    """One query per verb.  Groups arrive as family descriptors or as table
    files; measures inline or as files; a quarter of the outputs are pretty."""
    out = []

    def group_arg(info, as_table, slot):
        if not as_table:
            return json.dumps(family_json(info.spec)), {}
        path = f"{workdir}/b{b}s{slot}_group.json"
        g = info.group
        content = {"family": "table", "labels": list(g.labels), "cayley": [list(r) for r in g.cayley]}
        return path, {path: content}

    def measure_arg(weights, n, slot, name):
        obj = {"weights": [str(weights.get(i, Fraction(0))) for i in range(n)]}
        if (b + slot) % 2:
            return json.dumps(obj), {}
        path = f"{workdir}/b{b}s{slot}_{name}.json"
        return path, {path: obj}

    verbs = ("validate", "convolve", "transition", "power", "check-acyclic", "limit",
             "omega-limit", "accumulation-points", "fixed-points", "recurrent", "basin",
             "perturb", "pushforward", "sample")
    for slot, verb in enumerate(verbs):
        band = {"validate": EXACT_LADDER + TABLE_120, "check-acyclic": EXACT_LADDER + TABLE_120,
                "limit": EXACT_LADDER + TABLE_120, "transition": UP_TO_24, "power": UP_TO_24,
                "sample": UP_TO_24}.get(verb, EXACT_LADDER)
        info, as_table = infos[_pick(band, b, slot)], (b + slot) % 4 == 1
        if verb == "validate" and (b // 2) % 2 == 0:
            info, as_table = infos[TABLE_120[b % len(TABLE_120)]], True
        n = len(info.table)
        garg, files = group_arg(info, as_table, slot)
        argv = [verb, "--group", garg]
        kind = {"check-acyclic": KINDS[b % 4], "accumulation-points": "nonacyclic",
                "perturb": ("any", "nonacyclic")[b % 2],
                "fixed-points": ("any", "proper", "nonacyclic")[b % 3]}.get(verb, ("any", "proper")[(b + slot) % 2])
        support = draw_support(rng, info, kind, _between(b, slot + 20, 2, 6), b + slot)
        near = _near(b, slot, (b % 2 == 0) if verb == "accumulation-points" else (b + slot) % 4 == 3)
        nu = draw_weights(rng, support, near)
        params = {"nu": nu}
        marg, f = measure_arg(nu, n, slot, "nu")
        files.update(f)
        if verb != "pushforward" and not (verb == "validate" and b % 2):
            argv += ["--measure", marg]
        if verb == "convolve":
            params["nu2"] = draw_initial(rng, n, _between(b, slot + 40, 1, 6))
            m2, f = measure_arg(params["nu2"], n, slot + 1, "nu2")
            files.update(f)
            argv += ["--measure", m2]
        elif verb == "power":
            if b % 3 == 2:
                argv += ["--iterative"]
                params["iterative"] = True
            else:
                params["exponent"] = _log_between(b, slot + 40, 2, 16)
                argv += ["--exponent", str(params["exponent"])]
        elif verb in ("omega-limit", "recurrent"):
            params["mu"] = (coset_measure(rng, info, support) if verb == "recurrent" and b % 2
                            else draw_initial(rng, n, _between(b, slot + 40, 1, 8)))
            m2, f = measure_arg(params["mu"], n, slot + 1, "mu")
            files.update(f)
            argv += ["--initial", m2]
        elif verb == "basin":
            params["eta"] = coset_measure(rng, info, support) if b % 3 else draw_initial(rng, n, 4)
            params["mu"] = (with_block_sums(rng, info, support, params["eta"]) if b % 2
                            else draw_initial(rng, n, 6))
            e_arg, f = measure_arg(params["eta"], n, slot + 1, "eta")
            files.update(f)
            c_arg, f = measure_arg(params["mu"], n, slot + 2, "mu")
            files.update(f)
            argv += ["--eta", e_arg, "--candidate", c_arg]
        elif verb == "perturb":
            params["eps"] = Fraction(1, 10 ** _between(b, slot + 40, 1, 6))
            argv += ["--eps", str(params["eps"])]
        elif verb == "pushforward":
            d, phi = info.homs[b % len(info.homs)]
            hom = {"source": garg if as_table else json.loads(garg),
                   "target": {"family": "cyclic", "n": d}, "map": phi}
            params["map"], params["d"] = phi, d
            path = f"{workdir}/b{b}s{slot}_hom.json"
            files[path] = hom
            argv = [verb, "--hom", path, "--measure", marg]
        elif verb == "sample":
            params["steps"] = _between(b, slot + 40, 5, 12)
            params["trials"] = _between(b, slot + 50, 1000, 10000)
            argv += ["--steps", str(params["steps"]), "--trials", str(params["trials"]),
                     "--seed", str(rng.getrandbits(32))]
        pretty = (b + slot) % 4 == 0 and not params.get("iterative")
        argv += ["--output", "pretty" if pretty else "json"]
        params["pretty"] = pretty
        tags = _tags(info, support, near, exponent=params.get("exponent"), table=as_table)
        out.append((verb, info, {**params, "argv": argv, "files": files}, tags))
    return out


BLOCK_MAKERS = {
    "powers_exact": _powers_block,
    "dynamics_exact": _dynamics_block,
    "walks_float": _walks_block,
}


def plan_workload(workload: str, seed: int, infos, blocks: int | None = None, workdir: str = "") -> list[Query]:
    """Every query of the run, in execution order, as plain data."""
    queries = []
    for b in range(BLOCKS[workload] if blocks is None else blocks):
        rng = random.Random(f"{workload}/{seed}/{b}")
        if workload == "cli_mix":
            items = _cli_block(rng, infos, b, workdir)
        else:
            items = BLOCK_MAKERS[workload](rng, infos, b)
        for op, info, params, tags in items:
            queries.append(Query(len(queries), b, op, info.spec, params, tags))
    return queries


# ---------------------------------------------------------------- execution


def _dense(weights: dict, n: int) -> tuple:
    return tuple(weights.get(i, Fraction(0)) for i in range(n))


def materialize(cd, queries, infos) -> list[dict]:
    """convdyn arguments for each library query."""
    out = []
    for q in queries:
        g = infos[q.group].group
        n = g.order
        args = {}
        for key, value in q.params.items():
            if isinstance(value, dict) and key != "files":
                m = cd.ProbMeasure(g, _dense(value, n))
                args[key] = m.to_float() if q.op in ("sample", "flimit", "transition", "converge") else m
            else:
                args[key] = value
        if q.op == "sample":
            args["cfg"] = cd.WalkConfig(args["nu"], args["steps"], args["trials"], args["seed"])
        out.append(args)
    return out


def execute(cd, op: str, args: dict, store: dict):
    """Run one library query; ``store`` carries outputs between the queries
    of one block (a sample feeds the tv query that follows it)."""
    if op == "power":
        return cd.convolution_power(args["nu"], args["exponent"])
    if op == "orbit":
        return cd.support_orbit(args["nu"])
    if op in ("limit", "flimit"):
        store["lim"] = cd.limit_of_powers(args["nu"])
        return store["lim"]
    if op == "omega":
        return cd.omega_limit(args["nu"], args["mu"])
    if op == "fixed":
        return cd.fixed_points(args["nu"])
    if op == "accum":
        return cd.accumulation_points(args["nu"])
    if op == "basin":
        desc = cd.basin(args["nu"], args["eta"])
        return desc, desc.contains(args["mu"])
    if op == "same":
        return cd.same_omega_limit(args["nu"], args["mu1"], args["mu2"])
    if op == "recurrent":
        return cd.is_recurrent(args["nu"], args["mu"])
    if op == "perturb":
        return cd.acyclic_perturbation(args["nu"], args["eps"])
    if op == "generic":
        return cd.generic_check(args["nu"])
    if op == "sample":
        store["emp"] = cd.empirical_distribution(args["cfg"])
        return store["emp"]
    if op == "tv":
        return cd.tv_distance(store["emp"], store["lim"])
    if op == "transition":
        store["A"] = cd.transition_matrix(args["nu"])
        return store["A"]
    if op == "converge":
        return cd.power_convergence(store["A"])
    raise ValueError(f"unknown op {op!r}")


def write_files(queries) -> None:
    for q in queries:
        for path, content in q.params.get("files", {}).items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
