import json
import os
import subprocess
import sys

import pytest

import andortrees
from andortrees.analytic import ASYMPTOTIC_REFERENCE
from andortrees.cli import main
from andortrees.complexity import complexity, minimal_trees
from andortrees.formula import TruthTable, parse_formula, serialize, tree_size, truth_table

SRC = os.path.dirname(os.path.dirname(andortrees.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--max-size", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,a_hat,a_total"
    assert lines[1:] == ["1,2,2", "2,0,0", "3,4,8", "4,8,16"]


def test_count_json_embeds_config(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--max-size", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["config"]["n"] == 1
    assert payload["rows"][-1] == {"m": 3, "a_hat": 4, "a_total": 8}


def test_count_json_reports_the_default_size(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["config"]["max_size"] == 20
    assert len(payload["rows"]) == 20


#: (subcommand, flag) pairs that are not flags of the command: ones it never
#: read, and analyze --precision-bits, which went when the library began to
#: pick its own arithmetic
REMOVED_FLAGS = [
    (command, flag)
    for command, flags in {
        "count": ("--seed", "--trials", "--precision-bits"),
        "dist": ("--seed", "--trials", "--precision-bits"),
        "limit": ("--seed", "--trials", "--precision-bits", "--format"),
        "sample": ("--precision-bits", "--format"),
        "analyze": ("--seed", "--trials", "--format", "--precision-bits"),
        "complexity": ("--seed", "--trials", "--precision-bits"),
        "reduce": ("--seed", "--trials", "--precision-bits", "--format"),
        "verify": ("--seed", "--trials", "--precision-bits", "--format"),
    }.items()
    for flag in flags
]


#: each command's required flags, so that the flag under test is the only error
REQUIRED = {
    "count": ["--n", "1"],
    "dist": ["--n", "1", "--m", "3"],
    "limit": ["--n", "1", "--f-hex", "3"],
    "sample": ["--n", "1", "--m", "5"],
    "analyze": ["--n", "1", "--family", "singularity"],
    "complexity": ["--n", "1", "--all"],
    "reduce": ["--n", "1"],
    "verify": [],
}


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, command, flag):
    value = "json" if flag == "--format" else "7"
    with pytest.raises(SystemExit) as err:
        main([command, *REQUIRED[command], flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


#: one invocation per command that prints a JSON payload, and its flags
CONFIG_KEYS = [
    (["count", "--n", "1", "--max-size", "3", "--format", "json"],
     {"config", "n", "out", "max_size", "format"}),
    (["dist", "--n", "1", "--m", "3", "--format", "json"],
     {"config", "n", "out", "m", "format"}),
    (["limit", "--n", "1", "--f-hex", "3", "--m", "20"],
     {"config", "n", "out", "m", "f_hex", "tol"}),
    (["sample", "--n", "1", "--m", "5", "--trials", "20"],
     {"config", "n", "out", "m", "seed", "trials", "stats", "emit_trees"}),
    (["analyze", "--family", "no_first_level_leaf", "--n", "2"],
     {"config", "n", "out", "family", "params"}),
    (["analyze", "--family", "singularity", "--n", "2"],
     {"config", "n", "out", "family"}),
    (["analyze", "--family", "tautology_bounds", "--n", "16"],
     {"config", "n", "out", "family"}),
    (["complexity", "--n", "2", "--all", "--format", "json"],
     {"config", "n", "out", "all", "f_hex", "format"}),
    (["complexity", "--n", "2", "--f-hex", "8"],
     {"config", "n", "out", "all", "f_hex", "format"}),
]


@pytest.mark.parametrize(
    "argv,flags",
    CONFIG_KEYS,
    ids=[
        "count", "dist", "limit", "sample", "analyze", "singularity",
        "tautology_bounds", "complexity-all", "complexity-f-hex",
    ],
)
def test_config_lists_exactly_the_commands_flags(capsys, argv, flags):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == flags | {"command"}
    assert config["command"] == argv[0]


@pytest.mark.parametrize("n,exact", [("2", True), ("10000", True), ("10001", False)])
def test_analyze_is_exact_up_to_ten_thousand(capsys, n, exact):
    # a t-free family evaluates exactly up to n = 10^4, in floats above
    code, out, _ = run(capsys, "analyze", "--family", "no_first_level_leaf", "--n", n)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["config"]) == {"command", "config", "n", "out", "family", "params"}
    assert (payload["exact"] is not None) == exact


@pytest.mark.parametrize(
    "argv,why",
    [(["dist", "--n", "2"], "the following arguments are required: --m"),
     (["sample", "--n", "2"], "the following arguments are required: --m"),
     (["limit", "--n", "2"], "the following arguments are required: --f-hex"),
     (["analyze", "--n", "2"], "the following arguments are required: --family"),
     (["complexity", "--n", "2"], "one of the arguments --all --f-hex is required"),
     (["complexity", "--n", "2", "--all", "--f-hex", "8"],
      "argument --f-hex: not allowed with argument --all")],
    ids=["dist", "sample", "limit", "analyze", "complexity-neither", "complexity-both"],
)
def test_a_missing_or_conflicting_flag_is_a_usage_error(capsys, argv, why):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: andortrees {argv[0]}") and why in stderr


@pytest.mark.parametrize(
    "argv,why",
    [(["--family", family, "--params", "k=3"], f"--family {family} takes no --params")
     for family in ("tautology_bounds", "expected_first_level_leaves", "singularity")],
    ids=["tautology_bounds", "expected_first_level_leaves", "singularity"],
)
def test_analyze_builtin_flag_it_cannot_use_is_a_usage_error(capsys, argv, why):
    code, out, err = run(capsys, "analyze", "--n", "16", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {why}")


def test_config_reports_the_values_used(capsys):
    code, out, _ = run(capsys, "sample", "--n", "1", "--m", "5", "--trials", "20")
    config = json.loads(out)["config"]
    assert (config["seed"], config["trials"], config["stats"]) == (0, 20, ["simple_tautology_rate"])
    assert list(json.loads(out)["report"]["stats"]) == ["simple_tautology_rate"]
    code, out, _ = run(capsys, "limit", "--n", "1", "--f-hex", "3")
    payload = json.loads(out)
    assert payload["config"]["m"] == payload["M"] == 60
    assert payload["config"]["tol"] == 1e-4
    code, out, _ = run(capsys, "complexity", "--n", "2", "--f-hex", "8")
    assert json.loads(out)["config"]["format"] == "json"


def test_complexity_csv_for_one_function_is_a_usage_error(capsys):
    code, out, err = run(capsys, "complexity", "--n", "2", "--f-hex", "8", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err.startswith("error: complexity --f-hex prints JSON")


@pytest.mark.parametrize(
    "argv",
    [["limit", "--n", "2", "--f-hex", "0x8"], ["complexity", "--n", "2", "--f-hex", "1_0"],
     ["complexity", "--n", "2", "--f-hex", " 8"], ["complexity", "--n", "2", "--f-hex", "+8"]],
    ids=["0x8", "1_0", "space", "plus"],
)
def test_f_hex_takes_only_hex_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: truth table must be hex digits, got {argv[-1]!r}\n"


def test_closed_stdout_ends_quietly(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "andortrees", "count", "--n", "3", "--max-size", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.readline() == b"m,a_hat,a_total\n"
    proc.stdout.close()  # the pipe holds far less than the 3000 rows
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_closed_stdout_ends_quietly_during_chunked_json():
    proc = subprocess.Popen(
        [sys.executable, "-m", "andortrees", "complexity", "--n", "3", "--f-hex", "96"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # the pipe holds far less than the 10 MB of JSON
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_dist_csv(capsys):
    code, out, _ = run(capsys, "dist", "--n", "1", "--m", "3")
    rows = out.strip().splitlines()
    assert rows[0] == "truth_table_hex,count_and,count_or,probability"
    assert "3,0,2,1/4" in rows


def test_limit_json(capsys):
    code, out, _ = run(capsys, "limit", "--n", "1", "--f-hex", "3", "--m", "40")
    payload = json.loads(out)
    assert payload["converged"] is True
    assert 0.2 < payload["estimate"] < 0.4
    assert payload["f"] == "3"


def test_sample_report(capsys):
    code, out, _ = run(
        capsys,
        "sample", "--n", "1", "--m", "5", "--trials", "200", "--seed", "3",
        "--stats", "tautology_rate",
    )
    payload = json.loads(out)
    stat = payload["report"]["stats"]["tautology_rate"]
    assert 0 <= stat["estimate"] <= 1
    assert payload["config"]["seed"] == 3


def test_sample_json_nests_the_stat_records(capsys):
    """An mc report's StatResults come out as nested objects, field by field
    in declaration order; only the timing fields vary between runs."""
    code, out, _ = run(
        capsys,
        "sample", "--n", "1", "--m", "5", "--trials", "40", "--seed", "3",
        "--stats", "tautology_rate", "first_level_leaf_histogram",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert list(report) == [
        "m", "n", "trials", "seed", "generator", "stats", "seconds", "trees_per_s",
    ]
    assert report.pop("seconds") > 0 and report.pop("trees_per_s") > 0
    assert report == {
        "m": 5,
        "n": 1,
        "trials": 40,
        "seed": 3,
        "generator": "random.Random (Mersenne Twister)",
        "stats": {
            "tautology_rate": {
                "estimate": 0.2,
                "stderr": 0.0632455532033676,
                "ci95": [0.1049998967188637, 0.3475730647562145],
                "extra": {},
            },
            "first_level_leaf_histogram": {
                "estimate": None,
                "stderr": None,
                "ci95": None,
                "extra": {
                    "histogram": {"1": 22, "4": 18},
                    "mean": 2.35,
                    "mean_stderr": 0.23898825204470744,
                    "ks_statistic": 0.3917209066715911,
                    "ks_critical_1pct": 0.25734988929344765,
                    "scale": 2.8284271247461903,
                },
            },
        },
    }
    assert [list(stat) for stat in report["stats"].values()] == [
        ["estimate", "stderr", "ci95", "extra"]
    ] * 2


def test_sample_negative_emit_trees_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sample", "--n", "2", "--m", "7", "--emit-trees", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: count must be >= 0")


def test_sample_emit_trees(capsys):
    code, out, _ = run(
        capsys, "sample", "--n", "2", "--m", "7", "--emit-trees", "4", "--seed", "1"
    )
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("(") for line in lines)
    code2, out2, _ = run(
        capsys, "sample", "--n", "2", "--m", "7", "--emit-trees", "4", "--seed", "1"
    )
    assert out2 == out  # bit-reproducible for a fixed seed


def test_analyze_exact_family(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "no_first_level_leaf", "--n", "2")
    payload = json.loads(out)
    assert payload["exact"] == "11/200"
    assert payload["float"] == pytest.approx(0.055)


def test_analyze_with_params(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "nonleaf_subtrees", "--n", "2",
        "--params", "ell=1",
    )
    payload = json.loads(out)
    assert payload["float"] == pytest.approx(0.5)
    assert payload["asymptotic_reference"]["value"] == pytest.approx(0.25)


def test_analyze_repeated_param_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "analyze", "--family", "labels_from", "--n", "2", "--params", "gamma=1", "gamma=2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --params gives 'gamma' more than once")


#: a parameter for each catalog family that takes one
PARAMS = {
    "labels_from": "gamma=2",
    "exact_k_labels": "k=2",
    "nonleaf_subtrees": "ell=2",
    "nonleaf_subtrees_corrected": "ell=2",
}


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, formula) in ASYMPTOTIC_REFERENCE.items() if formula)
)
def test_analyze_reports_a_numeric_reference_value(capsys, name):
    params = ["--params", PARAMS[name]] if name in PARAMS else []
    code, out, _ = run(capsys, "analyze", "--family", name, "--n", "16", *params)
    assert code == 0
    reference = json.loads(out)["asymptotic_reference"]
    assert isinstance(reference["value"], float) and reference["value"] > 0


def test_analyze_first_level_leaves_reference_is_correctly_rounded(capsys):
    # 2 * (2n) ** 0.5 rounds twice and reads 183.45571672749804 here
    code, out, _ = run(capsys, "analyze", "--family", "expected_first_level_leaves", "--n", "4207")
    assert code == 0
    reference = json.loads(out)["asymptotic_reference"]
    assert reference == {"expr": "2*sqrt(2n)", "value": 183.45571672749801}


def test_analyze_unknown_family(capsys):
    code, out, err = run(capsys, "analyze", "--family", "nope", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown family 'nope'")


def test_analyze_param_without_equals_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "analyze", "--family", "labels_from", "--n", "2", "--params", "gamma"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --params entries look like key=value, got 'gamma'")


def test_analyze_non_integer_param_names_the_flag_and_key(capsys):
    code, out, err = run(
        capsys, "analyze", "--family", "labels_from", "--n", "2", "--params", "gamma=x"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --params gamma needs an integer, got 'x'\n"


@pytest.mark.parametrize(
    "params,why",
    [([], "missing 1 required positional argument: 'gamma'"),
     (["--params", "gama=3"], "unexpected keyword argument 'gama'")],
)
def test_analyze_bad_family_parameters_are_a_usage_error(capsys, params, why):
    code, out, err = run(capsys, "analyze", "--family", "labels_from", "--n", "2", *params)
    assert code == 2
    assert out == ""
    assert err.startswith("error: family 'labels_from':") and why in err


def test_analyze_t_dependent_family_uses_default_env(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "simple_x", "--n", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["t_env"]["tau_prime"] > 0
    assert payload["float"] > 0


def test_analyze_t_dependent_family_refuses_a_guess_above_n3(capsys):
    code, out, err = run(capsys, "analyze", "--family", "simple_x", "--n", "5")
    assert code == 2
    assert out == ""
    assert "error:" in err and "(0.12161, 0.5)" in err


def test_analyze_tautology_bounds(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "tautology_bounds", "--n", "10000"
    )
    payload = json.loads(out)
    assert set(payload["values"]) == {"lower", "E_ratio", "E1_bound", "E2_bound"}
    assert 0 < payload["values"]["lower"] < 0.5


def test_complexity_all_csv(capsys):
    code, out, _ = run(capsys, "complexity", "--n", "2", "--all")
    rows = out.strip().splitlines()
    assert rows[0] == "truth_table_hex,L,m_f"
    assert "6,7,16" in rows
    assert "0,0," in rows


def test_complexity_single(capsys):
    code, out, _ = run(capsys, "complexity", "--n", "2", "--f-hex", "8")
    payload = json.loads(out)
    assert payload["L"] == 3
    assert sorted(payload["witnesses"]) == ["(and x1 x2)", "(and x2 x1)"]


def test_complexity_all_n3(capsys):
    code, out, _ = run(capsys, "complexity", "--n", "3", "--all")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "truth_table_hex,L,m_f"
    assert len(rows) == 1 + 256
    L = {row.split(",")[0]: int(row.split(",")[1]) for row in rows[1:]}
    assert L["96"] == L["69"] == 17


def test_complexity_single_lists_the_witnesses_at_n3(capsys):
    code, out, _ = run(capsys, "complexity", "--n", "3", "--f-hex", "06")
    assert code == 0
    payload = json.loads(out)
    assert (payload["L"], payload["m_f"]) == (8, 24)
    assert len(set(payload["witnesses"])) == 24
    for text in payload["witnesses"]:
        tree = parse_formula(text, 3)
        assert tree_size(tree) == 8 and truth_table(tree, 3).bits == 0x06


@pytest.mark.parametrize("f_hex, witnesses", [("16", 3024), ("96", 131328)])
def test_complexity_single_prints_the_bytes_of_json_dumps(tmp_path, capsys, f_hex, witnesses):
    f = TruthTable.from_hex(f_hex, 3)
    record = complexity(f, 3)
    texts = [serialize(t) for t in minimal_trees(f, 3)]
    assert len(texts) == record.m_f == witnesses
    target = tmp_path / "out.json"
    for out in (None, str(target)):
        config = {"command": "complexity", "config": None, "n": 3, "out": out}
        config.update({"all": False, "f_hex": f_hex, "format": "json"})
        payload = {"config": config, "truth_table_hex": f_hex, "L": record.L}
        payload.update({"m_f": record.m_f, "witnesses": texts})
        argv = ["complexity", "--n", "3", "--f-hex", f_hex] + (["--out", out] if out else [])
        code, printed, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        got = target.read_text(encoding="utf-8") if out else printed
        assert got == json.dumps(payload, indent=2) + "\n"
        assert printed == ("" if out else got)


def test_complexity_single_over_enumeration_budget(tmp_path, capsys):
    # a config file from before the budget option was removed still loads
    cfg = tmp_path / "old.cfg"
    cfg.write_text("n = 4\nbudget = 9\n")
    code, out, _ = run(capsys, "complexity", "--config", str(cfg), "--f-hex", "1669")
    assert code == 0
    payload = json.loads(out)
    assert (payload["L"], payload["m_f"]) == (28, 45121536)
    assert payload["witnesses"] is None
    assert "budget" not in payload["config"]


def test_reduce_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(and x1 x2 (or x3 ~x3))"))
    code, out, err = run(capsys, "reduce", "--n", "3")
    assert code == 0
    assert out.strip() == "(and x1 x2)"
    assert "removed: (or x3 ~x3)" in err


@pytest.mark.parametrize(
    "n, code, out, err",
    [
        ("5", 0, "x5\n", "removed: (and x1 ~x1)\n"),
        ("14", 2, "", "error: truth tables limited to n <= 13 (asked for n=14)\n"),
    ],
)
def test_reduce_past_n4(capsys, monkeypatch, n, code, out, err):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(or x5 (and x1 ~x1))"))
    assert run(capsys, "reduce", "--n", n) == (code, out, err)


def test_missing_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count"])
    assert err.value.code == 2


def test_bad_value_reports_error(capsys):
    code, _, err = run(capsys, "dist", "--n", "1", "--m", "2")
    assert code == 2
    assert "empty size class" in err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1\nmax-size = 3\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg))
    assert out.strip().splitlines()[-1] == "3,4,8"
    # flags beat the file
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--max-size", "4")
    assert out.strip().splitlines()[-1] == "4,8,16"


def test_config_line_without_equals_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1\nmax-size 3\n")
    code, out, err = run(capsys, "count", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: config line 2: expected key = value\n"


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code, out, err = run(capsys, "count", "--n", "1", "--config", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file: ") and str(missing) in err


def test_complexity_all_beats_a_config_file_f_hex(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nf_hex = 8\n")
    code, out, _ = run(capsys, "complexity", "--config", str(cfg), "--all")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 16
    code, out, _ = run(capsys, "complexity", "--config", str(cfg))
    assert json.loads(out)["truth_table_hex"] == "8"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys, "count", "--n", "1", "--max-size", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip().splitlines()[0] == "m,a_hat,a_total"


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "counts.csv", tmp_path):
        code, out, err = run(capsys, "count", "--n", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out file: ") and str(target) in err
        assert err.count("\n") == 1


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_verify_exact_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "exact")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["failed"] == 0
    assert summary["config"] == {"command": "verify", "config": None, "out": None, "suite": "exact"}
    assert summary["checks"] == len(lines) - 1
    assert all("[PASS]" in line for line in err.strip().splitlines())
