"""The package's value types: immutable, compared by their fields, and
printed with the fields they have always printed.

The five types that check their input on construction (``FiniteGroup``,
``Subgroup``, ``ProbMeasure``, ``TestFunction``, ``WalkConfig``) are
``__slots__`` classes; the records are ``typing.NamedTuple``s.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

import convdyn as cd

G = cd.cyclic_group(2)
NU = cd.ProbMeasure(G, (F(1, 2), F(1, 2)))

# One value of each type, and the fields its repr shows, in order.
VALUES = {
    "Subgroup": (lambda: cd.generated_subgroup(G, [1]), ("parent", "members")),
    "ProbMeasure": (lambda: NU, ("group", "weights")),
    "TestFunction": (lambda: cd.TestFunction(G, (1, 2)), ("group", "values")),
    "WalkConfig": (lambda: cd.WalkConfig(measure=NU, steps=2, trials=3, seed=4), ("measure", "steps", "trials", "seed")),
    "GroupViolation": (lambda: cd.validate_table([[0, 1], [0, 1]])[0], ("axiom", "witness", "detail")),
    "CosetDecomposition": (
        lambda: cd.coset_decomposition(G, cd.generated_subgroup(G, [0])),
        ("subgroup", "representatives", "blocks", "relabeling"),
    ),
    "GroupHom": (lambda: cd.check_homomorphism(G, G, [0, 1]), ("source", "target", "map")),
    "SupportOrbit": (
        lambda: cd.support_orbit(NU),
        ("measure", "sets", "pre_period", "period", "cycle_sets", "subgroup", "acyclic", "witness"),
    ),
    "OmegaLimitReport": (
        lambda: cd.accumulation_points(NU), ("driving", "initial", "points", "periodic", "period", "verified")
    ),
    "FixedPointSet": (lambda: cd.fixed_points(NU), ("driving", "basis", "dimension", "decomposition")),
    "BasinDescription": (
        lambda: cd.basin(NU, NU),
        ("target", "decomposition", "required_sums", "dimension", "feasible", "witness_block"),
    ),
    "GenericityReport": (
        lambda: cd.generic_check(NU),
        ("measure", "full_support", "generates_group", "acyclic", "unique_fixed_point_uniform",
         "omega_limits_uniform"),
    ),
    "TransitionMatrix": (lambda: cd.transition_matrix(NU), ("group", "source", "entries")),
    "PowerIterationResult": (
        lambda: cd.power_convergence(cd.transition_matrix(NU.to_float())),
        ("converged", "matrix", "iterations", "period"),
    ),
    "BlockStructureReport": (
        lambda: cd.verify_block_structure(NU), ("decomposition", "ok", "violations", "diagonal_block")
    ),
}
VALIDATING = ("FiniteGroup", "Subgroup", "ProbMeasure", "TestFunction", "WalkConfig")


def _value(name):
    return G if name == "FiniteGroup" else VALUES[name][0]()


def _fields(name) -> tuple[str, ...]:
    return ("labels", "cayley", "identity", "inverses") if name == "FiniteGroup" else VALUES[name][1]


@pytest.mark.parametrize("name", ["FiniteGroup", *VALUES])
def test_fields_cannot_be_assigned_or_deleted(name):
    value = _value(name)
    assert type(value) is getattr(cd, name)
    for field in _fields(name):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", list(VALUES))
def test_repr_shows_the_same_fields(name):
    value = _value(name)
    assert repr(value) == f"{name}(" + ", ".join(f"{f}={getattr(value, f)!r}" for f in _fields(name)) + ")"


def test_reprs_of_the_validating_types():
    assert repr(G) == "FiniteGroup(order=2, labels=('0', '1')...)"
    group = "FiniteGroup(order=2, labels=('0', '1')...)"
    assert repr(NU) == f"ProbMeasure(group={group}, weights=(Fraction(1, 2), Fraction(1, 2)))"
    assert repr(NU.to_float()) == f"ProbMeasure(group={group}, weights=(0.5, 0.5))"
    assert repr(cd.generated_subgroup(G, [1])) == f"Subgroup(parent={group}, members=(0, 1))"
    assert repr(cd.TestFunction(G, (0.5, 2.0))) == f"TestFunction(group={group}, values=(0.5, 2.0))"
    assert repr(cd.WalkConfig(NU, 2, 3, 4)) == f"WalkConfig(measure={NU!r}, steps=2, trials=3, seed=4)"


def test_probmeasure_equality_and_hash_ignore_mode():
    a = cd.ProbMeasure(G, (F(1, 2), F(1, 2)))
    b = cd.ProbMeasure(G, (F(2, 4), F(1, 2)))
    assert a.mode == b.mode == "exact" and a == b and hash(a) == hash(b)
    object.__setattr__(b, "mode", "float")  # mode is derived, never compared
    assert a == b and hash(a) == hash(b)
    assert a.to_float().mode == "float" and a == a.to_float() and hash(a) == hash(a.to_float())  # 1/2 == 0.5
    f = cd.TestFunction(G, (1, 2))
    object.__setattr__(f, "mode", "float")
    assert f == cd.TestFunction(G, (1, 2))


def test_subgroup_equality_ignores_member_order():
    a, b = cd.Subgroup(G, (1, 0)), cd.Subgroup(G, [0, 1])
    assert a.members == (0, 1) and a == b and hash(a) == hash(b) and 1 in a
    assert a != cd.Subgroup(G, (0,))


def test_validating_types_compare_only_with_their_own_type():
    for name in VALIDATING:
        value = _value(name)
        assert value == _value(name) and hash(value) == hash(_value(name))
        assert value != tuple(getattr(value, f) for f in _fields(name))
    assert cd.WalkConfig(NU, 2, 3, 4) != cd.WalkConfig(NU, 2, 3, 5)
    assert cd.TestFunction(G, (1, 2)) != cd.TestFunction(G, (2, 1))


@pytest.mark.parametrize("name", ["FiniteGroup", *VALUES])
def test_pickle_and_copy_round_trip(name):
    value = _value(name)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)
    if name == "ProbMeasure":
        assert pickle.loads(pickle.dumps(NU.to_float())).mode == "float"


def test_constructors_still_validate():
    with pytest.raises(cd.InvalidMeasureError):
        cd.ProbMeasure(G, (F(1, 2), F(1, 3)))
    with pytest.raises(cd.DomainError):
        cd.TestFunction(G, (1, 2, 3))
    with pytest.raises(cd.DomainError):
        cd.WalkConfig(measure=NU, steps=0, trials=1, seed=0)
    with pytest.raises(cd.GroupStructureError):
        cd.FiniteGroup(("e", "e"), G.cayley, 0, G.inverses)
