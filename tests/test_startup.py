"""What a fresh process imports: ``import convdyn`` loads no submodule,
each CLI verb loads only the modules it runs, and none loads ``dataclasses``.
The exact verbs also leave out ``inspect``, which with ``ast``, ``dis`` and
``tokenize`` takes several ms of a CLI start to import; only numpy brings
it in."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

PUBLIC_NAMES = [
    "BasinDescription", "BlockStructureReport", "BudgetError", "ConvdynError", "ConvergenceError",
    "CosetDecomposition", "DomainError", "FiniteGroup", "FixedPointSet", "GenericityReport", "GroupHom",
    "GroupMismatchError", "GroupStructureError", "GroupViolation", "HomomorphismError",
    "InvalidMeasureError", "LimitMatrix", "ModeMismatchError", "NotAcyclicError", "OmegaLimitReport",
    "ParseError", "PowerIterationResult", "ProbMeasure", "Subgroup", "SupportOrbit", "TestFunction",
    "TransitionMatrix", "VerificationError", "WalkConfig", "accumulation_points", "acyclic_perturbation",
    "apply_step", "basin", "bilinear_pairing", "check_homomorphism", "convolution_power", "convolve",
    "coset_decomposition", "cyclic_group", "dihedral_group", "dynamics", "element_order",
    "empirical_distribution", "errors", "fixed_points", "generated_subgroup", "generic_check",
    "group_from_table", "groups", "integrate", "is_acyclic", "is_primitive_restricted", "is_recurrent",
    "is_subgroup", "l1_distance", "limit_matrix_closed_form", "limit_of_powers", "matrix_multiply",
    "matrix_power", "measure_times_matrix", "measures", "montecarlo", "omega_limit", "orbit",
    "power_convergence", "product_group", "pushforward", "relabel_group", "same_omega_limit",
    "sample_walk", "scalars", "set_product", "support_orbit", "symmetric_group", "transition",
    "transition_matrix", "tv_distance", "validate_group", "validate_table", "verify_block_structure",
]

# Reports, as the last stdout line, the convdyn modules loaded, whether numpy
# is, and which of the slow-to-import stdlib modules SLOW are.
SLOW = ("dataclasses", "inspect")
LOADED = (
    "import json, sys; print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'convdyn'),"
    f" 'numpy' in sys.modules, sorted(set({SLOW!r}) & set(sys.modules))]))"
)


def _fresh(code: str, *argv: str):
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _fresh("import convdyn; " + LOADED) == [["convdyn"], False, []]


def test_every_public_name_resolves_to_its_defining_module():
    report = _fresh(
        "import importlib, json, sys; import convdyn as cd\n"
        "wrong = [n for n in cd.__all__ if getattr(cd, n) is not (sys.modules.get(f'convdyn.{n}')\n"
        "         or getattr(importlib.import_module(getattr(cd, n).__module__), n))]\n"
        "print(json.dumps([cd.__all__, wrong, sorted(set(cd.__all__) - set(dir(cd)))]))"
    )
    assert report == [PUBLIC_NAMES, [], []]
    assert len(PUBLIC_NAMES) == 80


def test_submodules_are_attributes_of_the_package():
    budget, tol = _fresh(
        "import json, convdyn as cd; print(json.dumps([cd.montecarlo.MC_BUDGET, cd.scalars.DEFAULT_POWER_TOL]))"
    )
    assert budget == 10**8 and tol == 1e-12


Z3 = '{"family": "cyclic", "n": 3}'
NU = '{"weights": ["1/3", "1/4", "5/12"]}'
U = '{"weights": ["1/3", "1/3", "1/3"]}'
HOM = '{"source": {"family": "cyclic", "n": 4}, "target": {"family": "cyclic", "n": 2}, "map": [0, 1, 0, 1]}'

CORE = ["convdyn", "convdyn.cli", "convdyn.errors", "convdyn.groups", "convdyn.measures", "convdyn.scalars",
        "convdyn.serialize"]
DYNAMICS = sorted([*CORE, "convdyn.dynamics"])
TRANSITION = sorted([*CORE, "convdyn.transition"])
SAMPLER = sorted([*CORE, "convdyn.montecarlo", "convdyn.transition"])

VERBS = [
    (["validate", "--group", Z3, "--measure", NU], CORE, False),
    (["convolve", "--group", Z3, "--measure", NU, "--measure", U], CORE, False),
    (["check-acyclic", "--group", Z3, "--measure", NU], CORE, False),
    (["pushforward", "--measure", '{"weights": ["1/2", "0", "1/4", "1/4"]}', "--hom", HOM], CORE, False),
    (["limit", "--group", Z3, "--measure", NU], DYNAMICS, False),
    (["omega-limit", "--group", Z3, "--measure", NU, "--initial", U], DYNAMICS, False),
    (["accumulation-points", "--group", Z3, "--measure", NU], DYNAMICS, False),
    (["fixed-points", "--group", Z3, "--measure", NU], DYNAMICS, False),
    (["recurrent", "--group", Z3, "--measure", NU, "--initial", U], DYNAMICS, False),
    (["basin", "--group", Z3, "--measure", NU, "--eta", U], DYNAMICS, False),
    (["perturb", "--group", Z3, "--measure", NU, "--eps", "1/10"], DYNAMICS, False),
    (["transition", "--group", Z3, "--measure", NU], TRANSITION, False),
    (["power", "--group", Z3, "--measure", NU, "--exponent", "3"], TRANSITION, False),
    (["sample", "--group", Z3, "--measure", NU, "--steps", "3", "--trials", "1000"], SAMPLER, True),
]


@pytest.mark.parametrize("argv, modules, numpy", VERBS, ids=[v[0][0] for v in VERBS])
def test_each_verb_loads_only_the_modules_it_runs(argv, modules, numpy):
    code = "import sys; from convdyn import cli; assert cli.main(sys.argv[1:]) == 0; " + LOADED
    assert _fresh(code, *argv) == [modules, numpy, ["inspect"] if numpy else []]


def test_primitivity_loads_no_numpy():
    code = (
        "import convdyn as cd; g = cd.cyclic_group(3)\n"
        "assert cd.is_primitive_restricted(cd.ProbMeasure.uniform(g, {0, 1})) == (True, 2)\n" + LOADED
    )
    assert _fresh(code)[1] is False
