"""JSON file formats for groups, measures, homomorphisms and reports.

Group file:
    {"family": "cyclic" | "dihedral" | "symmetric", "n": int}
    {"family": "product", "factors": [<group>, <group>]}
    {"family": "table", "labels": [...], "cayley": [[int]]}
Indices are 0-based; labels must be unique strings.

Measure file:
    {"group": <group object or path string>, "weights": ["1/3", "1/4", ...]}
Rationals are "num/den" strings, floats plain numbers; a vector may not
mix the two.  "group" may be left out when the caller supplies the group;
when both are given they must be the same group.

Homomorphism file:
    {"source": <group or path>, "target": <group or path>, "map": [int]}
"""

from __future__ import annotations

import json
import os

from .errors import GroupMismatchError, ParseError
from .groups import (
    FiniteGroup,
    GroupHom,
    check_homomorphism,
    cyclic_group,
    dihedral_group,
    group_from_table,
    product_group,
    symmetric_group,
)
from .measures import ProbMeasure
from .scalars import parse_weights, scalar_to_json

# Where the recursion limit is hit depends on the caller's stack, so every
# place that catches it reports the same line.
_TOO_DEEP = "input nested too deeply (or a group file that names itself as a factor)"


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None


def resolve_source(source, base_dir: str | None):
    """A source is an inline object, an inline JSON string, or a file path."""
    if isinstance(source, dict):
        return source, base_dir
    if isinstance(source, str):
        stripped = source.strip()
        if stripped.startswith("{"):
            try:
                return json.loads(stripped), base_dir
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"invalid inline JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from None
            except RecursionError:
                raise ParseError(_TOO_DEEP) from None
        path = source
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return _read_json(path), os.path.dirname(os.path.abspath(path))
    raise ParseError(f"expected an object or a path, got {type(source).__name__}")


def group_from_json(obj, base_dir: str | None = None) -> FiniteGroup:
    obj, base_dir = resolve_source(obj, base_dir)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError("group object must carry a 'family' key")
    family = obj["family"]
    if family in ("cyclic", "dihedral", "symmetric"):
        if "n" not in obj:
            raise ParseError(f"{family} group requires 'n'")
        if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
            raise ParseError("'n' must be an integer")
        builder = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group}[family]
        return builder(obj["n"])
    if family == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise ParseError("product group requires exactly two 'factors'")
        try:
            return product_group(*(group_from_json(f, base_dir) for f in factors))
        except RecursionError:  # a file among its own factors, or factors nested too deeply
            raise ParseError(_TOO_DEEP) from None
    if family == "table":
        cayley = obj.get("cayley")
        if not isinstance(cayley, list):
            raise ParseError("table group requires a 'cayley' array")
        labels = obj.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
                raise ParseError("'labels' must be an array of strings")
            if len(set(labels)) != len(labels):
                raise ParseError("labels must be unique")
        return group_from_table(cayley, labels)
    raise ParseError(f"unknown group family {family!r}")


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "family": "table",
        "labels": list(g.labels),
        "cayley": [list(row) for row in g.cayley],
    }


def load_group(source: str) -> FiniteGroup:
    """Load a group from a file path or inline JSON text."""
    return group_from_json(source, base_dir=os.getcwd())


def measure_from_json(obj, group: FiniteGroup | None = None, base_dir: str | None = None) -> ProbMeasure:
    obj, base_dir = resolve_source(obj, base_dir)
    if not isinstance(obj, dict) or "weights" not in obj:
        raise ParseError("measure object must carry a 'weights' key")
    if "group" in obj:
        named = group_from_json(obj["group"], base_dir)
        if group is not None and named != group:
            raise GroupMismatchError("measure names a different group from the one supplied")
        group = named
    elif group is None:
        raise ParseError("measure carries no group and none was supplied")
    weights = parse_weights(obj["weights"])
    return ProbMeasure(group, weights)


def load_measure(source: str, group: FiniteGroup | None = None) -> ProbMeasure:
    return measure_from_json(source, group=group, base_dir=os.getcwd())


def measure_to_json(m: ProbMeasure) -> dict:
    return {"weights": weights_to_json(m.weights)}


def weights_to_json(weights) -> list:
    return [scalar_to_json(w) for w in weights]


def hom_from_json(obj, base_dir: str | None = None) -> GroupHom:
    obj, base_dir = resolve_source(obj, base_dir)
    for key in ("source", "target", "map"):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"homomorphism object must carry a {key!r} key")
    src = group_from_json(obj["source"], base_dir)
    tgt = group_from_json(obj["target"], base_dir)
    mapping = obj["map"]
    if not isinstance(mapping, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in mapping
    ):
        raise ParseError("'map' must be an array of integers")
    return check_homomorphism(src, tgt, mapping)


def load_hom(source: str) -> GroupHom:
    return hom_from_json(source, base_dir=os.getcwd())


def matrix_to_json(entries) -> dict:
    return {
        "order": len(entries),
        "entries": [[scalar_to_json(x) for x in row] for row in entries],
    }


def dumps(payload) -> str:
    """Deterministic JSON: fixed key order (construction order), no spaces drift."""
    return json.dumps(payload, indent=2)
