from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from convdyn import cli

Z3 = '{"family": "cyclic", "n": 3}'
NU = '{"weights": ["1/3", "1/4", "5/12"]}'


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_limit_command(capsys):
    code, out, err = run_cli(capsys, "limit", "--group", Z3, "--measure", NU)
    assert code == 0 and err == ""
    assert json.loads(out) == {"limit": ["1/3", "1/3", "1/3"]}


def test_check_acyclic_on_oscillating_measure(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-acyclic",
        "--group",
        '{"family": "cyclic", "n": 2}',
        "--measure",
        '{"weights": ["0", "1"]}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["acyclic"] is False
    assert payload["period"] == 2
    assert payload["cycle_sets"] == [["1"], ["0"]]


def test_check_acyclic_witness(capsys):
    code, out, _ = run_cli(capsys, "check-acyclic", "--group", Z3, "--measure", NU)
    payload = json.loads(out)
    assert code == 0 and payload["acyclic"] is True and payload["witness_N"] == 1


def test_convolve_two_measures(capsys):
    code, out, _ = run_cli(
        capsys, "convolve", "--group", Z3, "--measure", NU, "--measure", NU
    )
    assert code == 0
    assert json.loads(out)["weights"] == ["23/72", "49/144", "49/144"]


def test_transition_matrix_output(capsys):
    code, out, _ = run_cli(capsys, "transition", "--group", Z3, "--measure", NU)
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 3
    assert payload["entries"][1] == ["5/12", "1/3", "1/4"]


def test_power_exact(capsys):
    code, out, _ = run_cli(
        capsys, "power", "--group", Z3, "--measure", NU, "--exponent", "2"
    )
    assert code == 0
    assert json.loads(out)["weights"] == ["23/72", "49/144", "49/144"]


def test_power_iterative_defaults_to_float(capsys):
    code, out, _ = run_cli(capsys, "power", "--group", Z3, "--measure", NU, "--iterative")
    payload = json.loads(out)
    assert code == 0 and payload["converged"] is True
    assert abs(payload["matrix"]["entries"][0][0] - 1 / 3) < 1e-11


def test_power_iterative_rejects_exact_mode(capsys):
    code, _, err = run_cli(
        capsys, "power", "--group", Z3, "--measure", NU, "--iterative", "--mode", "exact"
    )
    assert code == 1
    assert err.startswith("error:mode-mismatch:")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "tol must be positive"),
        ("--tol", "inf", "tol must be finite"),
        ("--max-iter", "-3", "max_iter must be >= 1, got -3"),
    ],
)
def test_power_iterative_rejects_bad_arguments(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "power", "--group", Z3, "--measure", NU, "--iterative", flag, value)
    assert (code, out, err) == (1, "", f"error:domain: {message}\n")


def test_fixed_points_command(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--group", Z3, "--measure", NU)
    payload = json.loads(out)
    assert code == 0
    assert payload == {"basis": [["1/3", "1/3", "1/3"]], "dimension": 0}


def test_omega_limit_and_recurrent(capsys, tmp_path):
    group_file = tmp_path / "g6.json"
    g6_blob = {
        "family": "product",
        "factors": [{"family": "cyclic", "n": 2}, {"family": "cyclic", "n": 3}],
    }
    group_file.write_text(json.dumps(g6_blob))
    nu = '{"weights": ["1/2", "1/2", "0", "0", "0", "0"]}'
    mu = '{"weights": ["1/4", "1/2", "0", "1/8", "0", "1/8"]}'
    code, out, _ = run_cli(
        capsys, "omega-limit", "--group", str(group_file), "--measure", nu, "--initial", mu
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["points"] == [["1/4", "1/4", "1/4", "1/12", "1/12", "1/12"]]
    assert payload["period"] == 1
    code, out, _ = run_cli(
        capsys,
        "recurrent",
        "--group",
        str(group_file),
        "--measure",
        nu,
        "--initial",
        '{"weights": ["1/4", "1/4", "1/4", "1/12", "1/12", "1/12"]}',
    )
    assert code == 0 and json.loads(out) == {"recurrent": True}


def test_basin_command(capsys):
    group = json.dumps(
        {
            "family": "product",
            "factors": [{"family": "cyclic", "n": 2}, {"family": "cyclic", "n": 3}],
        }
    )
    nu = '{"weights": ["1/2", "1/2", "0", "0", "0", "0"]}'
    eta = '{"weights": ["1/4", "1/4", "1/4", "1/12", "1/12", "1/12"]}'
    candidate = '{"weights": ["1/4", "1/2", "0", "1/8", "0", "1/8"]}'
    code, out, _ = run_cli(
        capsys,
        "basin",
        "--group",
        group,
        "--measure",
        nu,
        "--eta",
        eta,
        "--candidate",
        candidate,
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["constraints"] == [
        {"block": [0, 1, 2], "sum": "3/4"},
        {"block": [3, 4, 5], "sum": "1/4"},
    ]
    assert payload["dimension"] == 4
    assert payload["feasible"] is True
    assert payload["member"] is True


def test_accumulation_points_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "accumulation-points",
        "--group",
        '{"family": "cyclic", "n": 4}',
        "--measure",
        '{"weights": ["0", "1/2", "0", "1/2"]}',
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["period"] == 2
    assert payload["verified"] is True
    assert payload["points"] == [
        ["0", "1/2", "0", "1/2"],
        ["1/2", "0", "1/2", "0"],
    ]


def test_perturb_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "perturb",
        "--group",
        '{"family": "cyclic", "n": 2}',
        "--measure",
        '{"weights": ["0", "1"]}',
        "--eps",
        "1/2",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload == {"weights": ["1/4", "3/4"], "distance": "1/2"}


def test_perturb_float_weights(capsys):
    z4 = '{"family": "cyclic", "n": 4}'
    # the 1e-15 residue is outside the support; the result has support Z_4
    code, out, _ = run_cli(capsys, "perturb", "--group", z4,
                           "--measure", '{"weights": [0.0, 0.5, 1e-15, 0.499999999999999]}', "--eps", "1/10")
    assert code == 0
    assert all(w > 1e-14 for w in json.loads(out)["weights"])
    code, out, err = run_cli(capsys, "perturb", "--group", z4,
                             "--measure", '{"weights": [0.0, 0.5, 0.0, 0.5]}', "--eps", "1e-14")
    assert (code, out) == (1, "") and err.startswith("error:domain:") and "FLOAT_SUPPORT_TOL" in err


def test_pushforward_command(capsys):
    hom = json.dumps(
        {
            "source": {"family": "cyclic", "n": 4},
            "target": {"family": "cyclic", "n": 2},
            "map": [0, 1, 0, 1],
        }
    )
    code, out, _ = run_cli(
        capsys,
        "pushforward",
        "--hom",
        hom,
        "--measure",
        '{"weights": ["1/2", "0", "1/2", "0"]}',
    )
    assert code == 0
    assert json.loads(out)["weights"] == ["1", "0"]


def test_pushforward_refuses_group(capsys):
    hom = '{"source": {"family": "cyclic", "n": 4}, "target": {"family": "cyclic", "n": 2}, "map": [0, 1, 0, 1]}'
    for group in ('{"family": "cyclic", "n": 4}', Z3):  # the source group or another: both are refused
        code, out, err = run_cli(
            capsys, "pushforward", "--group", group, "--hom", hom, "--measure", '{"weights": ["1/2", "0", "1/2", "0"]}'
        )
        assert (code, out) == (2, "")
        assert err == "error:parse: pushforward takes its groups from --hom, not --group\n"


def test_sample_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--group",
        Z3,
        "--measure",
        NU,
        "--steps",
        "10",
        "--trials",
        "2000",
        "--seed",
        "21",
    )
    payload = json.loads(out)
    assert code == 0
    assert abs(sum(payload["frequencies"]) - 1) < 1e-12
    assert payload["tv_distance_to_exact"] < 0.1


def test_validate_good_and_bad(capsys):
    code, out, _ = run_cli(capsys, "validate", "--group", Z3)
    assert code == 0 and json.loads(out) == {"valid": True, "violations": []}
    bad = '{"family": "table", "cayley": [[0, 1, 2, 3], [1, 3, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]}'
    code, out, _ = run_cli(capsys, "validate", "--group", bad)
    payload = json.loads(out)
    assert code == 0
    assert payload["valid"] is False
    assert any(v["axiom"] == "latin-square" for v in payload["violations"])
    code, out, _ = run_cli(capsys, "validate", "--group", '{"family": "table", "cayley": [1, 2]}')
    assert code == 0
    assert json.loads(out) == {
        "valid": False,
        "violations": [{"axiom": "shape", "witness": [0], "detail": "row 0 is 1, not a list"}],
    }


def test_validate_reads_a_group_file_once(capsys, tmp_path, monkeypatch):
    from convdyn import serialize

    reads = []

    def counting(path):
        reads.append(path)
        return original(path)

    original = serialize._read_json
    monkeypatch.setattr(serialize, "_read_json", counting)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z4.json").write_text('{"family": "cyclic", "n": 4}')
    (tmp_path / "g8.json").write_text('{"family": "product", "factors": ["z4.json", {"family": "cyclic", "n": 2}]}')
    for name, factor_files in (("z4.json", 0), ("g8.json", 1)):
        reads.clear()
        code, out, _ = run_cli(capsys, "validate", "--group", name)
        assert code == 0 and json.loads(out) == {"valid": True, "violations": []}
        assert len(reads) == 1 + factor_files


def test_validate_checks_a_table_once_and_reports_it_before_labels_and_order(capsys, monkeypatch):
    from convdyn import groups

    calls = []

    def counting(cayley):
        calls.append(cayley)
        return original(cayley)

    original = groups.validate_table
    monkeypatch.setattr(groups, "validate_table", counting)
    monkeypatch.setattr(cli, "validate_table", counting)

    def validate(cayley, **fields):
        calls.clear()
        code, out, err = run_cli(capsys, "validate", "--group", json.dumps({"family": "table", "cayley": cayley, **fields}))
        assert len(calls) == 1
        return code, json.loads(out) if out else None, err

    good, bad = [[0, 1], [1, 0]], [[0, 1], [0, 1]]
    assert validate(good, labels=["e", "a"]) == (0, {"valid": True, "violations": []}, "")
    code, payload, _ = validate(bad)
    assert code == 0 and [v["axiom"] for v in payload["violations"]] == ["latin-square", "latin-square", "identity"]
    assert validate(bad, labels=["a", "a"])[1] == payload
    assert validate(good, labels=["a", "a"]) == (2, None, "error:parse: labels must be unique\n")
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 1)
    assert validate(bad)[1] == payload
    assert validate(good) == (1, None, "error:domain: group order 2 exceeds cap 1 (MAX_GROUP_ORDER)\n")


def test_validate_measure_errors_reported(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--group", Z3, "--measure", '{"weights": ["1/2", "1/2", "1/2"]}'
    )
    payload = json.loads(out)
    assert code == 0 and payload["valid"] is False


def test_validate_refuses_a_second_measure(capsys):
    bad = '{"weights": ["2", "0", "0"]}'
    for measures in ((NU, bad), (bad, NU), (NU, NU)):  # every measure would have to be checked
        argv = ["validate", "--group", Z3]
        for m in measures:
            argv += ["--measure", m]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error:parse: validate takes at most one --measure, got 2\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "limit", "--group", "/missing/z3.json", "--measure", NU)
    assert code == 2
    assert err.startswith("error:parse:")


def test_hom_file_that_is_not_an_object_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "hom.json"
    path.write_text('"source target map"')
    code, out, err = run_cli(
        capsys, "pushforward", "--hom", str(path), "--measure", '{"weights": ["1/2", "1/2"]}'
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:parse:") and "Traceback" not in err


def test_measure_file_naming_another_group_is_a_group_mismatch(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s3.json").write_text('{"family": "symmetric", "n": 3}')
    (tmp_path / "nu.json").write_text('{"group": "s3.json", "weights": ["1/2", "1/2", "0", "0", "0", "0"]}')
    z6 = '{"family": "cyclic", "n": 6}'
    mismatch = "error:group-mismatch: measure names a different group from the one supplied\n"
    u6 = '{"weights": ["1/6", "1/6", "1/6", "1/6", "1/6", "1/6"]}'
    for argv in (
        ["limit", "--group", z6, "--measure", "nu.json"],
        ["convolve", "--group", z6, "--measure", u6, "--measure", "nu.json"],
        ["omega-limit", "--group", z6, "--measure", u6, "--initial", "nu.json"],
        ["basin", "--group", z6, "--measure", u6, "--eta", u6, "--candidate", "nu.json"],
        ["pushforward", "--hom", '{"source": ' + z6 + ', "target": ' + z6 + ', "map": [0, 1, 2, 3, 4, 5]}',
         "--measure", "nu.json"],
    ):
        assert run_cli(capsys, *argv) == (1, "", mismatch), argv
    code, out, _ = run_cli(capsys, "validate", "--group", z6, "--measure", "nu.json")
    assert code == 0 and json.loads(out)["violations"] == [
        {"axiom": "measure", "witness": [], "detail": "measure names a different group from the one supplied"}
    ]
    # the same group, supplied or read from the file, gives the same answer
    half = {"limit": ["1/2", "1/2", "0", "0", "0", "0"]}
    for argv in (["limit", "--measure", "nu.json"], ["limit", "--group", "s3.json", "--measure", "nu.json"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, json.loads(out)) == (0, "", half)


def test_self_referencing_or_deeply_nested_input_is_a_parse_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop.json").write_text('{"family": "product", "factors": ["loop.json", "loop.json"]}')
    deep = '{"family": "table", "cayley": ' + "[" * 100_000 + "]" * 100_000 + "}"
    (tmp_path / "deep.json").write_text(deep)
    too_deep = "error:parse: input nested too deeply (or a group file that names itself as a factor)\n"
    for argv in (
        ["validate", "--group", "loop.json"],
        ["limit", "--group", "loop.json", "--measure", NU],
        ["limit", "--group", Z3, "--measure", '{"group": "loop.json", "weights": ["1"]}'],
        ["validate", "--group", deep],
        ["validate", "--group", "deep.json"],
        ["limit", "--group", Z3, "--measure", '{"weights": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ):
        assert run_cli(capsys, *argv) == (2, "", too_deep), argv[:3]


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "limit",
        "--group",
        '{"family": "cyclic", "n": 2}',
        "--measure",
        '{"weights": ["0", "1"]}',
    )
    assert code == 1
    assert err.startswith("error:not-acyclic:")


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_pretty_output(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--group", Z3, "--measure", NU, "--output", "pretty"
    )
    assert code == 0
    assert "0: 1/3" in out


def test_accumulation_points_of_slowly_mixing_measure(capsys):
    code, out, err = run_cli(
        capsys,
        "accumulation-points",
        "--group",
        '{"family": "cyclic", "n": 8}',
        "--measure",
        '{"weights": ["0", "999999/1000000", "0", "1/1000000", "0", "0", "0", "0"]}',
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "points": [["0", "1/4"] * 4, ["1/4", "0"] * 4],
        "period": 2,
        "verified": True,
    }


def _imported_modules(*argv):
    """Exit status, stdout and the set of modules a fresh interpreter imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    modules = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, modules


def test_exact_paths_do_not_load_numpy():
    def loads_numpy(modules):
        return any(m == "numpy" or m.startswith("numpy.") for m in modules)

    code, _, modules = _imported_modules("-c", "import convdyn")
    assert code == 0 and "convdyn" in modules and not loads_numpy(modules)
    code, out, modules = _imported_modules(
        "-m", "convdyn.cli", "accumulation-points", "--group", '{"family": "cyclic", "n": 4}',
        "--measure", '{"weights": ["0", "1/2", "0", "1/2"]}',
    )
    assert code == 0 and json.loads(out)["period"] == 2
    assert not loads_numpy(modules)
    code, out, modules = _imported_modules(
        "-m", "convdyn.cli", "sample", "--group", Z3, "--measure", NU,
        "--steps", "3", "--trials", "1000",
    )
    assert code == 0 and loads_numpy(modules)
    assert sum(json.loads(out)["frequencies"]) == pytest.approx(1.0)


def test_same_invocation_same_bytes():
    cmd = [
        sys.executable,
        "-m",
        "convdyn.cli",
        "transition",
        "--group",
        Z3,
        "--measure",
        NU,
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["entries"][0] == ["1/3", "1/4", "5/12"]


def test_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for verb in (
        "validate", "convolve", "power", "transition", "check-acyclic", "limit",
        "omega-limit", "accumulation-points", "fixed-points", "recurrent",
        "basin", "perturb", "pushforward", "sample",
    ):
        assert verb in out


def test_every_option_of_every_verb_has_help_text():
    from convdyn.transition import DEFAULT_MAX_ITER, DEFAULT_POWER_TOL

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    missing = [
        (verb, action.option_strings[0])
        for verb, parser in sub.choices.items()
        for action in parser._actions
        if not action.help
    ]
    assert missing == []
    # the defaults that the power help states are the library's
    helps = {a.dest: a.help for a in sub.choices["power"]._actions}
    assert f"(default {DEFAULT_POWER_TOL!r})" in helps["tol"]
    assert f"(default 2^{DEFAULT_MAX_ITER.bit_length() - 1})" in helps["max_iter"]


def test_matrix_output_reparses_to_same_values(capsys):
    from fractions import Fraction
    from convdyn.scalars import parse_weights

    code, out, _ = run_cli(capsys, "transition", "--group", Z3, "--measure", NU)
    assert code == 0
    payload = json.loads(out)
    rows = [parse_weights(row) for row in payload["entries"]]
    assert rows[0] == (Fraction(1, 3), Fraction(1, 4), Fraction(5, 12))
    assert rows[2] == (Fraction(1, 4), Fraction(5, 12), Fraction(1, 3))


def test_sample_command_is_deterministic(capsys):
    argv = [
        "sample", "--group", Z3, "--measure", NU,
        "--steps", "5", "--trials", "500", "--seed", "99",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


ONE_PER_VERB = [
    ["validate", "--group", Z3, "--measure", NU],
    ["convolve", "--group", Z3, "--measure", NU, "--measure", NU, "--mode", "float"],
    ["transition", "--group", Z3, "--measure", NU, "--output", "pretty"],
    ["power", "--group", Z3, "--measure", NU, "--iterative", "--tol", "1e-9", "--max-iter", "40"],
    ["check-acyclic", "--measure", NU],
    ["limit", "--group", Z3, "--measure", NU],
    ["omega-limit", "--group", Z3, "--measure", NU, "--initial", NU],
    ["accumulation-points", "--group", Z3, "--measure", NU],
    ["fixed-points", "--group", Z3, "--measure", NU],
    ["recurrent", "--group", Z3, "--measure", NU, "--initial", NU],
    ["basin", "--group", Z3, "--measure", NU, "--eta", NU, "--candidate", NU],
    ["perturb", "--group", Z3, "--measure", NU, "--eps", "1/10"],
    ["pushforward", "--hom", "hom.json", "--measure", NU],
    ["sample", "--group", Z3, "--measure", NU, "--steps", "3", "--trials", "10", "--seed", "4"],
]


def test_one_verb_table_covers_every_handler():
    assert [argv[0] for argv in ONE_PER_VERB] == list(cli._VERBS) == list(cli._HANDLERS)


@pytest.mark.parametrize("argv", ONE_PER_VERB, ids=[argv[0] for argv in ONE_PER_VERB])
def test_one_verb_parser_parses_as_the_full_parser(argv):
    assert vars(cli.build_parser(argv[0]).parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["limit", "--help"],
    ["power", "-h"],
    ["limit", "--group", Z3, "--bogus"],
    ["limit", "--group", Z3, "stray"],
    ["limit", "--group"],
    ["power", "--exponent", "two"],
    ["omega-limit", "--group", Z3, "--measure", NU],
    ["basin", "--mode", "fast", "--eta", NU],
])
def test_one_verb_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    """Help and usage errors of a command line naming a verb, where main
    builds only that verb's parser, match the full parser's byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")
    results = []
    for parse in (cli.build_parser().parse_args, cli.main):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        results.append((exc.value.code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert "usage: convdyn" in results[0][1] + results[0][2]


# The transition matrix of the uniform measure on S_5: 120 rows of "1/120",
# about 130 KB of JSON, more than a pipe holds.
S5_TRANSITION = [
    "transition", "--group", '{"family": "symmetric", "n": 5}',
    "--measure", json.dumps({"weights": ["1/120"] * 120}),
]


def _child_env(unbuffered: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_process_exit_keeps_all_output(capsys, tmp_path):
    """The process leaves through os._exit after flushing stdout: with stdout
    block-buffered, as on a pipe or a file, every byte still arrives."""
    assert cli.main(S5_TRANSITION) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 1 << 16
    cmd = [sys.executable, "-m", "convdyn.cli", *S5_TRANSITION]
    piped = subprocess.run(cmd, capture_output=True, env=_child_env(False), timeout=60)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == expected
    target = tmp_path / "out.json"
    with open(target, "wb") as fh:
        proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.PIPE, env=_child_env(False), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert target.read_bytes() == expected


@pytest.mark.parametrize("argv, code, stream", [
    (["limit", "--group", Z3, "--measure", NU], 0, "stdout"),
    (["--help"], 0, "stdout"),
    (["limit", "--group", '{"family": "cyclic", "n": 2}', "--measure", '{"weights": ["0", "1"]}'], 1, "stderr"),
    (["power", "--group", Z3, "--measure", NU], 2, "stderr"),
    (["limit", "--bogus"], 2, "stderr"),
])
def test_process_exit_status(argv, code, stream):
    proc = subprocess.run([sys.executable, "-m", "convdyn.cli", *argv], capture_output=True,
                          env=_child_env(False), timeout=60)
    assert proc.returncode == code
    assert getattr(proc, stream).strip() and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_after_one_byte_is_exit_1_without_traceback(unbuffered):
    proc = subprocess.Popen([sys.executable, "-m", "convdyn.cli", *S5_TRANSITION], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env(unbuffered))
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_before_the_first_write_is_exit_1_without_traceback(unbuffered):
    """A short output on a buffered stdout is first written by the final
    flush; unbuffered, by print.  Either write fails on a pipe with no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "convdyn.cli", "limit", "--group", Z3, "--measure", NU],
                              stdout=write_end, stderr=subprocess.PIPE, env=_child_env(unbuffered), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
