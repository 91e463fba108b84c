"""Golden transcript of the command-line interface.

Every case runs ``convdyn`` in-process from a temporary working directory
that holds a few input files, and is compared with the exit code, the
stdout bytes and the last stderr line kept in ``data/cli_golden.json``.
The cases cover all 14 verbs in exact and float mode with JSON and pretty
output, a non-acyclic driving measure, parse, usage and domain errors, and
the help and usage text of the parser.  Every case runs with
``COLUMNS=80``, so the help text does not wrap to the terminal's width.
The temporary directory's path is written as ``<cwd>`` in the stored
stderr lines.  Float power-iteration matrices are compared rounded
to 9 decimals, because BLAS kernels and the order of the products differ
in the last bits.  Their pretty output pads columns to the width of the
unrounded values, so for ``--iterative`` cases every run of spaces in
stdout is compared as one space, on both sides; values, rows and columns
stay pinned.

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_cli_golden.py``.  Recording keeps every
stored entry whose compared form is unchanged, so only the cases whose
output changed are rewritten.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from convdyn import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

FILES = {
    "g6.json": {"family": "product", "factors": [{"family": "cyclic", "n": 2}, {"family": "cyclic", "n": 3}]},
    "nu6.json": {"group": "g6.json", "weights": ["1/2", "1/2", "0", "0", "0", "0"]},
    "hom.json": {
        "source": {"family": "cyclic", "n": 4},
        "target": {"family": "cyclic", "n": 2},
        "map": [0, 1, 0, 1],
    },
    "loop.json": {"family": "product", "factors": ["loop.json", "loop.json"]},
}
BROKEN_FILE = ("broken.json", '{"weights": ["1/2",')

Z2 = '{"family": "cyclic", "n": 2}'
Z3 = '{"family": "cyclic", "n": 3}'
Z4 = '{"family": "cyclic", "n": 4}'
S3 = '{"family": "symmetric", "n": 3}'
D4 = '{"family": "dihedral", "n": 4}'
Z2_TABLE = '{"family": "table", "labels": ["e", "a"], "cayley": [[0, 1], [1, 0]]}'
NU_Z3 = '{"weights": ["1/3", "1/4", "5/12"]}'
NU_S3 = '{"weights": ["1/2", "0", "1/4", "1/4", "0", "0"]}'
MU_S3 = '{"weights": ["0", "1/3", "0", "0", "2/3", "0"]}'
NU_S3_PROPER = '{"weights": ["1/3", "0", "2/3", "0", "0", "0"]}'
NU_G6 = '{"weights": ["1/2", "1/2", "0", "0", "0", "0"]}'
MU_G6 = '{"weights": ["1/4", "1/2", "0", "1/8", "0", "1/8"]}'
ETA_G6 = '{"weights": ["1/4", "1/4", "1/4", "1/12", "1/12", "1/12"]}'
DELTA1_Z2 = '{"weights": ["0", "1"]}'
UNIFORM_Z2 = '{"weights": ["1/2", "1/2"]}'
NU_Z4_PERIODIC = '{"weights": ["0", "1/2", "0", "1/2"]}'

# One invocation of each verb; each runs in default and float mode, with
# JSON and with pretty output.
VERBS = [
    ("validate", ["validate", "--group", S3, "--measure", NU_S3]),
    ("convolve", ["convolve", "--group", S3, "--measure", NU_S3, "--measure", MU_S3]),
    ("transition", ["transition", "--group", Z3, "--measure", NU_Z3]),
    ("power-exponent", ["power", "--group", S3, "--measure", NU_S3, "--exponent", "3"]),
    ("power-iterative", ["power", "--group", Z3, "--measure", NU_Z3, "--iterative"]),
    ("check-acyclic", ["check-acyclic", "--group", D4,
                       "--measure", '{"weights": ["0", "1/2", "0", "0", "1/2", "0", "0", "0"]}']),
    ("limit", ["limit", "--group", S3, "--measure", NU_S3_PROPER]),
    ("omega-limit", ["omega-limit", "--group", "g6.json", "--measure", NU_G6, "--initial", MU_G6]),
    ("accumulation-points", ["accumulation-points", "--group", Z4, "--measure", NU_Z4_PERIODIC]),
    ("fixed-points", ["fixed-points", "--group", "g6.json", "--measure", NU_G6]),
    ("recurrent", ["recurrent", "--group", "g6.json", "--measure", NU_G6, "--initial", ETA_G6]),
    ("basin", ["basin", "--group", "g6.json", "--measure", NU_G6, "--eta", ETA_G6, "--candidate", MU_G6]),
    ("perturb", ["perturb", "--group", S3, "--measure", NU_S3_PROPER, "--eps", "1/10"]),
    ("pushforward", ["pushforward", "--hom", "hom.json",
                     "--measure", '{"weights": ["1/2", "1/4", "0", "1/4"]}']),
    ("sample", ["sample", "--group", Z3, "--measure", NU_Z3, "--steps", "5", "--trials", "500", "--seed", "7"]),
]

# The driving measure delta_1 on Z_2 is not acyclic: its support powers
# alternate between {1} and {0}.
NON_ACYCLIC = [
    ("limit", []),
    ("omega-limit", ["--initial", UNIFORM_Z2]),
    ("recurrent", ["--initial", UNIFORM_Z2]),
    ("basin", ["--eta", UNIFORM_Z2]),
    ("check-acyclic", []),
    ("accumulation-points", []),
    ("fixed-points", []),
    ("perturb", ["--eps", "1/2"]),
    ("power", ["--iterative"]),
    ("power", ["--exponent", "5"]),
    ("convolve", ["--measure", DELTA1_Z2]),
]

# Malformed input, domain errors and a few input forms: a measure file that
# names its group by path (and another group than --group's), a group file
# among its own factors, a table group, an invalid table for validate.
EDGE_CASES = [
    ("missing-group-file", ["limit", "--group", "missing.json", "--measure", NU_Z3]),
    ("missing-measure-file", ["limit", "--group", Z3, "--measure", "missing.json"]),
    ("broken-measure-file", ["limit", "--group", Z3, "--measure", "broken.json"]),
    ("broken-inline-group", ["limit", "--group", '{"family": ', "--measure", NU_Z3]),
    ("group-without-family", ["limit", "--group", '{"n": 3}', "--measure", NU_Z3]),
    ("unknown-family", ["limit", "--group", '{"family": "klein"}', "--measure", NU_Z3]),
    ("family-without-n", ["limit", "--group", '{"family": "cyclic"}', "--measure", NU_Z3]),
    ("boolean-n", ["limit", "--group", '{"family": "cyclic", "n": true}', "--measure", NU_Z3]),
    ("one-factor-product", ["limit", "--group", '{"family": "product", "factors": [' + Z2 + "]}",
                            "--measure", NU_Z3]),
    ("table-without-cayley", ["limit", "--group", '{"family": "table"}', "--measure", NU_Z3]),
    ("duplicate-labels", ["limit", "--group", '{"family": "table", "labels": ["a", "a"], '
                          '"cayley": [[0, 1], [1, 0]]}', "--measure", UNIFORM_Z2]),
    ("non-group-table", ["limit", "--group", '{"family": "table", "cayley": [[0, 1], [0, 1]]}',
                         "--measure", UNIFORM_Z2]),
    ("zero-order", ["limit", "--group", '{"family": "cyclic", "n": 0}', "--measure", NU_Z3]),
    ("symmetric-too-large", ["limit", "--group", '{"family": "symmetric", "n": 9}', "--measure", NU_Z3]),
    ("bad-rational", ["limit", "--group", Z3, "--measure", '{"weights": ["1/3", "x", "1/3"]}']),
    ("mixed-weights", ["limit", "--group", Z3, "--measure", '{"weights": ["1/3", 0.25, "5/12"]}']),
    ("mass-not-one", ["limit", "--group", Z3, "--measure", '{"weights": ["1/2", "1/2", "1/2"]}']),
    ("negative-weight", ["limit", "--group", Z3, "--measure", '{"weights": ["-1/3", "2/3", "2/3"]}']),
    ("wrong-length", ["limit", "--group", Z3, "--measure", UNIFORM_Z2]),
    ("measure-without-group", ["limit", "--measure", NU_Z3]),
    ("measure-without-weights", ["limit", "--group", Z3, "--measure", '{"w": []}']),
    ("no-measure", ["limit", "--group", Z3]),
    ("one-measure-for-convolve", ["convolve", "--group", Z3, "--measure", NU_Z3]),
    ("power-without-exponent", ["power", "--group", Z3, "--measure", NU_Z3]),
    ("negative-exponent", ["power", "--group", Z3, "--measure", NU_Z3, "--exponent", "-1"]),
    ("iterative-exact-mode", ["power", "--group", Z3, "--measure", NU_Z3, "--iterative", "--mode", "exact"]),
    ("iterative-zero-tol", ["power", "--group", Z3, "--measure", NU_Z3, "--iterative", "--tol", "0"]),
    ("bad-initial", ["omega-limit", "--group", Z3, "--measure", NU_Z3, "--initial", UNIFORM_Z2]),
    ("bad-eta", ["basin", "--group", Z3, "--measure", NU_Z3, "--eta", '{"weights": ["1", "0"]}']),
    ("bad-candidate", ["basin", "--group", "g6.json", "--measure", NU_G6, "--eta", ETA_G6,
                       "--candidate", '{"weights": ["1"]}']),
    ("infeasible-basin", ["basin", "--group", "g6.json", "--measure", NU_G6, "--eta", MU_G6,
                          "--candidate", MU_G6]),
    ("zero-eps", ["perturb", "--group", Z2, "--measure", DELTA1_Z2, "--eps", "0"]),
    ("unparsable-eps", ["perturb", "--group", Z2, "--measure", DELTA1_Z2, "--eps", "tiny"]),
    ("pushforward-two-measures", ["pushforward", "--hom", "hom.json", "--measure", UNIFORM_Z2,
                                  "--measure", UNIFORM_Z2]),
    ("pushforward-wrong-source", ["pushforward", "--hom", "hom.json", "--measure", UNIFORM_Z2]),
    ("pushforward-with-group", ["pushforward", "--group", Z2, "--hom", "hom.json",
                                "--measure", NU_Z4_PERIODIC]),
    ("not-a-homomorphism", ["pushforward", "--hom", '{"source": ' + Z4 + ', "target": ' + Z2
                            + ', "map": [0, 1, 1, 0]}', "--measure", NU_Z4_PERIODIC]),
    ("hom-without-map", ["pushforward", "--hom", '{"source": ' + Z4 + ', "target": ' + Z2 + "}",
                         "--measure", NU_Z4_PERIODIC]),
    ("validate-without-group", ["validate"]),
    ("validate-bad-table", ["validate", "--group", '{"family": "table", "cayley": '
                            '[[0, 1, 2, 3], [1, 3, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]}']),
    ("validate-table-with-measure", ["validate", "--group", Z2_TABLE, "--measure", '{"weights": ["1", "1"]}']),
    ("validate-invalid-group-with-measure", ["validate", "--group", '{"family": "table", "cayley": [[0, 1], [0, 1]]}',
                                             "--measure", UNIFORM_Z2]),
    ("validate-two-measures", ["validate", "--group", Z3, "--measure", NU_Z3,
                               "--measure", '{"weights": ["2", "0", "0"]}']),
    ("measure-file-with-group-path", ["limit", "--measure", "nu6.json"]),
    ("measure-file-with-other-group", ["limit", "--group", '{"family": "cyclic", "n": 6}', "--measure", "nu6.json"]),
    ("self-referencing-group-file", ["validate", "--group", "loop.json"]),
    ("table-group-limit", ["limit", "--group", Z2_TABLE, "--measure", '{"weights": ["1/4", "3/4"]}']),
    ("usage-missing-initial", ["omega-limit", "--group", Z3, "--measure", NU_Z3]),
    ("power-exponent-and-iterative", ["power", "--group", Z3, "--measure", NU_Z3, "--exponent", "2", "--iterative"]),
    ("power-tol-without-iterative", ["power", "--group", Z3, "--measure", NU_Z3, "--exponent", "2", "--tol", "0.5"]),
    ("power-max-iter-without-iterative", ["power", "--group", Z3, "--measure", NU_Z3, "--exponent", "2",
                                          "--max-iter", "5"]),
]

# The parser's own output: help on stdout, usage errors on stderr.
USAGE = [
    ("help", ["--help"]),
    ("limit-help", ["limit", "--help"]),
    ("power-help", ["power", "--help"]),
    ("no-verb", []),
    ("unknown-verb", ["frobnicate", "--group", Z3, "--measure", NU_Z3]),
]


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for name, argv in VERBS:
        for mode in (None, "float"):
            for output in ("json", "pretty"):
                full = list(argv)
                if mode is not None:
                    full += ["--mode", mode]
                full += ["--output", output]
                cases.append((f"{name}-{mode or 'default'}-{output}", full))
    for verb, extra in NON_ACYCLIC:
        for mode in (None, "float"):
            full = [verb, "--group", Z2, "--measure", DELTA1_Z2, *extra]
            if mode is not None:
                full += ["--mode", mode]
            suffix = f"-{extra[0].lstrip('-')}" if verb == "power" else ""
            cases.append((f"non-acyclic-{verb}{suffix}-{mode or 'default'}", full))
    cases.extend((f"edge-{name}", argv) for name, argv in EDGE_CASES)
    cases.extend((f"usage-{name}", argv) for name, argv in USAGE)
    return cases


CASES = _cases()

_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def _round(match: re.Match) -> str:
    s = f"{float(match.group()):.9f}"
    return "0.000000000" if s == "-0.000000000" else s


def run_case(argv: list[str], cwd: Path) -> dict:
    """Exit code, stdout and last stderr line of one in-process invocation
    from ``cwd``, with the input files written there first."""
    for name, blob in FILES.items():
        (cwd / name).write_text(json.dumps(blob))
    (cwd / BROKEN_FILE[0]).write_text(BROKEN_FILE[1])
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
    finally:
        os.chdir(previous)
    stdout = out.getvalue()
    if "--iterative" in argv:
        stdout = _FLOAT.sub(_round, stdout)
    lines = err.getvalue().replace(os.path.realpath(cwd), "<cwd>").splitlines()
    return {"argv": list(argv), "rc": rc, "stdout": stdout, "stderr": lines[-1] if lines else ""}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_exactly_the_cases(golden):
    assert list(golden) == [name for name, _ in CASES]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_matches_golden_transcript(name, argv, golden, tmp_path):
    assert comparable(run_case(argv, tmp_path)) == comparable(golden[name])


def comparable(case: dict) -> dict:
    """The case as compared: for ``--iterative`` runs, with each run of
    spaces in stdout made one space, since the column padding follows the
    last bits of the floats."""
    if "--iterative" not in case["argv"]:
        return case
    return {**case, "stdout": re.sub(" +", " ", case["stdout"])}


def record(tmp: Path) -> None:
    stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden = {}
    for k, (name, argv) in enumerate(CASES):
        cwd = tmp / f"case{k}"
        cwd.mkdir()
        case = run_case(argv, cwd)
        old = stored.get(name)
        golden[name] = old if old is not None and comparable(old) == comparable(case) else case
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
