"""Command-line interface over the JSON file formats.

Every verb reads groups/measures from file paths or inline JSON, writes
one JSON document to stdout (or a human-readable rendering with
``--output pretty``) and reports problems on stderr as a single
machine-parsable line ``error:<code>: message``.  Exit status: 0 success,
1 domain error, 2 malformed input.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .errors import ConvdynError, DomainError, GroupStructureError, ModeMismatchError, ParseError
from .groups import validate_group, validate_table
from .measures import ProbMeasure, convolve, l1_distance, pushforward, support_orbit
from .scalars import DEFAULT_POWER_TOL, parse_scalar, scalar_to_json

# dynamics, transition and montecarlo are imported by the handlers that
# call them, so each verb loads only the modules it runs.


def _add_common(p: argparse.ArgumentParser, *, measures: int = 1, extra=()):
    p.add_argument("--group", help="group file or inline JSON")
    p.add_argument("--measure", action="append", default=None,
                   help="measure file or inline JSON" + (" (repeatable)" if measures > 1 else ""))
    p.add_argument("--mode", choices=["exact", "float"], default=None,
                   help="arithmetic mode (default exact; power --iterative defaults to float)")
    p.add_argument("--output", choices=["json", "pretty"], default="json")
    for name, kwargs in extra:
        p.add_argument(name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convdyn",
        description="Convolution powers and dynamics of probability measures on finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check group axioms (and optionally a measure)")
    _add_common(p)

    p = sub.add_parser("convolve", help="convolve two measures (first operand on the left)")
    _add_common(p, measures=2)

    p = sub.add_parser("transition", help="the doubly stochastic matrix of a measure")
    _add_common(p)

    p = sub.add_parser("power", help="exact convolution power, or float power iteration")
    _add_common(p, extra=[
        ("--exponent", dict(type=int, help="power to compute exactly")),
        ("--iterative", dict(action="store_true", help="iterate matrix powers in floats")),
        ("--tol", dict(type=float, default=DEFAULT_POWER_TOL)),
        ("--max-iter", dict(type=int, default=None)),
    ])

    p = sub.add_parser("check-acyclic", help="support-power orbit and acyclicity")
    _add_common(p)

    p = sub.add_parser("limit", help="closed-form limit of the convolution powers")
    _add_common(p)

    p = sub.add_parser("omega-limit", help="limit of the orbit of an initial measure")
    _add_common(p, extra=[("--initial", dict(required=True, help="initial measure file or inline JSON"))])

    p = sub.add_parser("accumulation-points", help="all accumulation points of the power sequence")
    _add_common(p)

    p = sub.add_parser("fixed-points", help="solutions of the Choquet-Deny equation")
    _add_common(p)

    p = sub.add_parser("recurrent", help="is the initial measure recurrent under the dynamics")
    _add_common(p, extra=[("--initial", dict(required=True))])

    p = sub.add_parser("basin", help="basin of attraction of a limit measure")
    _add_common(p, extra=[
        ("--eta", dict(required=True, help="target limit measure")),
        ("--candidate", dict(default=None, help="measure to test for membership")),
    ])

    p = sub.add_parser("perturb", help="nearby acyclic measure within eps")
    _add_common(p, extra=[("--eps", dict(required=True, help="distance bound, e.g. 1/10"))])

    p = sub.add_parser("pushforward", help="image measure under a homomorphism")
    _add_common(p, extra=[("--hom", dict(required=True, help="homomorphism file or inline JSON"))])

    p = sub.add_parser("sample", help="seeded random-walk check against the exact power")
    _add_common(p, extra=[
        ("--steps", dict(type=int, default=30)),
        ("--trials", dict(type=int, default=100000)),
        ("--seed", dict(type=int, default=0)),
    ])
    return parser


def _group(args):
    if args.group is None:
        return None
    return serialize.load_group(args.group)


def _effective_mode(args) -> str:
    if args.mode is not None:
        return args.mode
    if args.command == "power" and getattr(args, "iterative", False):
        return "float"
    return "exact"


def _load(args, group, *sources) -> list[ProbMeasure]:
    """Every measure the CLI reads: load each source on ``group`` (None:
    the group the measure names), then apply the effective mode once."""
    loaded = [serialize.load_measure(s, group=group) for s in sources]
    if _effective_mode(args) == "float":
        loaded = [m.to_float() for m in loaded]
    return loaded


def _measures(args, count: int) -> list[ProbMeasure]:
    group = _group(args)
    sources = args.measure or []
    if len(sources) != count:
        raise ParseError(f"expected {count} --measure argument(s), got {len(sources)}")
    return _load(args, group, *sources)


def _one_measure(args) -> ProbMeasure:
    return _measures(args, 1)[0]


def cmd_validate(args):
    violations = []
    group = None
    if args.group is None:
        raise ParseError("validate requires --group")
    if args.measure and len(args.measure) > 1:
        raise ParseError(f"validate takes at most one --measure, got {len(args.measure)}")
    obj, _ = serialize.resolve_source(args.group, os.getcwd())
    if isinstance(obj, dict) and obj.get("family") == "table":
        raw = obj.get("cayley")
        if not isinstance(raw, list):
            raise ParseError("table group requires a 'cayley' array")
        # group_from_table validates the table once.  A table that is not a
        # group is reported as such even when its labels or order are also
        # rejected, so those errors stand only for a valid table.
        try:
            group = serialize.group_from_json(obj)
        except GroupStructureError as exc:
            if not exc.violations:
                raise
            violations = [v.to_json() for v in exc.violations]
        except (DomainError, ParseError):
            violations = [v.to_json() for v in validate_table(raw)]
            if not violations:
                raise
    else:
        group = serialize.load_group(args.group)
        violations = [v.to_json() for v in validate_group(group)]
    if args.measure:
        if group is None:
            violations.append({"axiom": "measure", "witness": [], "detail": "group invalid, measure not checked"})
        else:
            try:
                serialize.load_measure(args.measure[0], group=group)
            except ConvdynError as exc:
                violations.append({"axiom": "measure", "witness": [], "detail": str(exc)})
    return {"valid": not violations, "violations": violations}, group


def cmd_convolve(args):
    a, b = _measures(args, 2)
    result = convolve(a, b)
    return {"weights": serialize.weights_to_json(result.weights)}, a.group


def cmd_transition(args):
    from .transition import transition_matrix

    m = _one_measure(args)
    return serialize.matrix_to_json(transition_matrix(m).entries), m.group


def cmd_power(args):
    from .transition import convolution_power, power_convergence, transition_matrix

    m = _one_measure(args)
    if args.iterative:
        result = power_convergence(transition_matrix(m), tol=args.tol, max_iter=args.max_iter)
        if result.converged:
            return {
                "converged": True,
                "iterations": result.iterations,
                "matrix": serialize.matrix_to_json(result.matrix),
            }, m.group
        return {
            "converged": False,
            "iterations": result.iterations,
            "period": result.period,
        }, m.group
    if args.exponent is None:
        raise ParseError("power requires --exponent (or --iterative)")
    result = convolution_power(m, args.exponent)
    return {"weights": serialize.weights_to_json(result.weights)}, m.group


def cmd_check_acyclic(args):
    m = _one_measure(args)
    so = support_orbit(m)
    labels = m.group.labels
    if so.acyclic:
        return {
            "acyclic": True,
            "witness_N": so.witness,
            "subgroup": [labels[i] for i in so.subgroup.members],
        }, m.group
    return {
        "acyclic": False,
        "period": so.period,
        "pre_period": so.pre_period,
        "cycle_sets": [[labels[i] for i in sorted(s)] for s in so.cycle_sets],
    }, m.group


def cmd_limit(args):
    from . import dynamics

    m = _one_measure(args)
    limit = dynamics.limit_of_powers(m)
    return {"limit": serialize.weights_to_json(limit.weights)}, m.group


def _points_payload(report) -> dict:
    """The JSON of a :class:`dynamics.OmegaLimitReport`."""
    return {
        "points": [serialize.weights_to_json(p.weights) for p in report.points],
        "period": report.period,
        "verified": report.verified,
    }


def cmd_omega_limit(args):
    from . import dynamics

    nu = _one_measure(args)
    (mu,) = _load(args, nu.group, args.initial)
    return _points_payload(dynamics.omega_limit(nu, mu)), nu.group


def cmd_accumulation_points(args):
    from . import dynamics

    nu = _one_measure(args)
    return _points_payload(dynamics.accumulation_points(nu)), nu.group


def cmd_fixed_points(args):
    from . import dynamics

    nu = _one_measure(args)
    fps = dynamics.fixed_points(nu)
    return {
        "basis": [serialize.weights_to_json(b.weights) for b in fps.basis],
        "dimension": fps.dimension,
    }, nu.group


def cmd_recurrent(args):
    from . import dynamics

    nu = _one_measure(args)
    (mu,) = _load(args, nu.group, args.initial)
    return {"recurrent": dynamics.is_recurrent(nu, mu)}, nu.group


def cmd_basin(args):
    from . import dynamics

    nu = _one_measure(args)
    (eta,) = _load(args, nu.group, args.eta)
    desc = dynamics.basin(nu, eta)
    payload = {
        "constraints": [
            {"block": list(block), "sum": scalar_to_json(s)}
            for block, s in zip(desc.decomposition.blocks, desc.required_sums or ())
        ],
        "dimension": desc.dimension,
        "feasible": desc.feasible,
    }
    if not desc.feasible:
        payload["witness_block"] = desc.witness_block
    if args.candidate is not None:
        (candidate,) = _load(args, nu.group, args.candidate)
        payload["member"] = desc.contains(candidate)
    return payload, nu.group


def cmd_perturb(args):
    from . import dynamics

    nu = _one_measure(args)
    eps = parse_scalar(args.eps)
    result = dynamics.acyclic_perturbation(nu, eps)
    return {
        "weights": serialize.weights_to_json(result.weights),
        "distance": scalar_to_json(l1_distance(nu, result)),
    }, nu.group


def cmd_pushforward(args):
    if args.group is not None:
        raise ParseError("pushforward takes its groups from --hom, not --group")
    hom = serialize.load_hom(args.hom)
    if not args.measure or len(args.measure) != 1:
        raise ParseError("pushforward requires exactly one --measure")
    (m,) = _load(args, hom.source, *args.measure)
    result = pushforward(hom, m)
    return {"weights": serialize.weights_to_json(result.weights)}, hom.target


def cmd_sample(args):
    from . import montecarlo
    from .transition import convolution_power

    m = _one_measure(args)
    cfg = montecarlo.WalkConfig(measure=m, steps=args.steps, trials=args.trials, seed=args.seed)
    empirical = montecarlo.empirical_distribution(cfg)
    exact = convolution_power(m, args.steps)
    tv = montecarlo.tv_distance(empirical, exact)
    return {
        "frequencies": [float(w) for w in empirical.weights],
        "tv_distance_to_exact": tv,
    }, m.group


_HANDLERS = {
    "validate": cmd_validate,
    "convolve": cmd_convolve,
    "transition": cmd_transition,
    "power": cmd_power,
    "check-acyclic": cmd_check_acyclic,
    "limit": cmd_limit,
    "omega-limit": cmd_omega_limit,
    "accumulation-points": cmd_accumulation_points,
    "fixed-points": cmd_fixed_points,
    "recurrent": cmd_recurrent,
    "basin": cmd_basin,
    "perturb": cmd_perturb,
    "pushforward": cmd_pushforward,
    "sample": cmd_sample,
}

_MEASURE_KEYS = ("weights", "limit", "frequencies")
_MAX_ALIGNED = 12  # matrices with more rows print unaligned


def _align(entries) -> list[str]:
    rows = [[str(x) for x in row] for row in entries]
    if len(rows) > _MAX_ALIGNED:
        return [" ".join(r) for r in rows]
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def render_pretty(payload: dict, group) -> str:
    lines = []
    for key, value in payload.items():
        if key in _MEASURE_KEYS and group is not None and isinstance(value, list):
            lines.append(f"{key}:")
            for label, v in zip(group.labels, value):
                lines.append(f"  {label}: {v}")
        elif key in ("matrix", "entries") and isinstance(value, (list, dict)):
            entries = value["entries"] if isinstance(value, dict) else value
            lines.append(f"{key}:")
            lines.extend(f"  {row}" for row in _align(entries))
        else:
            lines.append(f"{key}: {serialize.dumps(value)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "power" and args.iterative and args.mode == "exact":
            raise ModeMismatchError("power --iterative requires --mode float")
        payload, group = _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2
    except ConvdynError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 1
    if args.output == "pretty":
        print(render_pretty(payload, group))
    else:
        print(serialize.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
