"""Command-line surface: outputs, exit codes, JSON forms, determinism."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from qfib import cli
from qfib.cli import _parse_scheme, build_parser, main
from qfib.polyring import Poly


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qfib", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_table_maj_lp(capsys):
    assert main(["table", "--n", "3", "--k", "2", "--stat", "maj-lp"]) == 0
    assert capsys.readouterr().out.strip() == "z1^3*q^3 + z1*z2*q^2 + z1*z2*q"


def test_table_trivial(capsys):
    assert main(["table", "--n", "0", "--k", "3", "--stat", "inv-rlp"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_table_json_counts(capsys):
    assert (
        main(["table", "--n", "5", "--k", "2", "--stat", "rb-lpi", "--format", "json"])
        == 0
    )
    poly = Poly.from_json_dict(json.loads(capsys.readouterr().out))
    assert poly.evaluate((1, 1), 1) == 8


def test_table_append(capsys):
    assert (
        main(["table", "--n", "2", "--k", "2", "--stat", "maj-lp", "--append", "3,0"])
        == 0
    )
    out = capsys.readouterr().out.strip()
    # F_2 under a front shift by 3: every tile weight gains q^3
    assert out == Poly.parse("z1^2*q^7 + z2*q^3", 2).format()


def test_in_process_calls_share_one_parser_without_leaking_state(capsys):
    assert build_parser() is build_parser()
    table = ["table", "--n", "2", "--k", "2", "--stat", "maj-lp"]
    assert main(table) == 0
    plain = capsys.readouterr().out
    assert main(table + ["--append", "1,2"]) == 0
    assert capsys.readouterr().out != plain
    # a call without --append sees the default again
    assert build_parser().parse_args(table).append == (0, 0)
    assert main(table) == 0
    assert capsys.readouterr().out == plain
    # a usage error leaves the parser fit for the next call
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "2", "--k", "2", "--append", "1,2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(table) == 0
    assert capsys.readouterr().out == plain


def test_table_generic_scheme(capsys):
    # generic:i*(i-1)/2,0,0 is the inversion weight over reverse layers
    assert (
        main(["table", "--n", "3", "--k", "2", "--stat", "generic:i*(i-1)/2,0,0"]) == 0
    )
    assert capsys.readouterr().out.strip() == "z1^3 + 2*z1*z2*q"


def test_table_generic_table_form(capsys):
    assert main(["table", "--n", "3", "--k", "2", "--stat", "generic:[0 1],B=0,C=0"]) == 0
    assert capsys.readouterr().out.strip() == "z1^3 + 2*z1*z2*q"


@pytest.mark.parametrize(
    "expr, table",
    [
        ("i*(i-1)/2", (0, 1, 3)),
        ("--i+1", (2, 3, 4)),
        ("007", (7, 7, 7)),
        ("(0+i)*3", (3, 6, 9)),
        ("1 - -1", (2, 2, 2)),
        ("i**2", None),
        ("(1)(2)", None),
        ("True", None),
        ("0x10", None),
        ("1_0", None),
        ("i/2", None),
        pytest.param("(" * 5000 + "0" + ")" * 5000, None, id="nested-5000"),
        pytest.param("+".join(["1"] * 3000), None, id="sum-3000"),
        pytest.param("-" * 3000 + "1", None, id="negate-3000"),
    ],
)
def test_scheme_expression_boundary(expr, table, capsys):
    stat = f"generic:{expr},0,0"
    code = main(["table", "--n", "3", "--k", "3", "--stat", stat])
    if table is None:
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
    else:
        assert code == 0
        w = _parse_scheme(stat, 3)
        assert tuple(w.a(i) for i in (1, 2, 3)) == table


def test_enumerate_lp_listing(capsys):
    assert main(["enumerate", "--n", "4", "--k", "4", "--object", "lp"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["4321", "4312", "4231", "4123", "3421", "3412", "2341", "1234"]


def test_enumerate_lpi_listing(capsys):
    assert main(["enumerate", "--n", "4", "--k", "2", "--object", "lpi"]) == 0
    lines = capsys.readouterr().out.split()
    assert sorted(lines) == sorted(["12/34", "1/2/34", "1/23/4", "12/3/4", "1/2/3/4"])


def test_enumerate_with_stat(capsys):
    assert (
        main(["enumerate", "--n", "4", "--k", "4", "--object", "lp", "--with-stat", "inv"])
        == 0
    )
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out["4231"] == "5"
    assert out["1234"] == "0"
    assert out["4321"] == "6"


def test_enumerate_tilings(capsys):
    assert main(["enumerate", "--n", "3", "--k", "2", "--object", "tilings"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1,1,1", "1,2", "2,1"]


def test_enumerate_invalid_stat_combination(capsys):
    assert (
        main(["enumerate", "--n", "4", "--k", "2", "--object", "lpi", "--with-stat", "inv"])
        == 2
    )


@pytest.mark.parametrize("obj, stat", [("lp", "rb"), ("tilings", "inv")])
def test_enumerate_stat_must_be_a_catalog_pair(capsys, obj, stat):
    argv = ["enumerate", "--n", "4", "--k", "2", "--object", obj, "--with-stat", stat]
    assert main(argv) == 2
    assert f"unsupported statistic/family pair {stat}-{obj}" in capsys.readouterr().err


def test_verify_all_passes_for_maj_rlp(capsys):
    code = main(
        ["verify", "--identity", "all", "--k", "3", "--max-n", "6", "--stat", "maj-rlp"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "recursion" in out and "convolution" in out and "kreduce" in out
    assert "det " in out or "det n" in out


def test_verify_det_flags_trailing_weight_counterexample(capsys):
    # the closed form is not the determinant for trailing-length weights;
    # the verifier surfaces the counterexample and exits 1
    code = main(
        ["verify", "--identity", "det", "--k", "2", "--max-n", "6", "--stat", "inv-lp"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.splitlines()) == 6
    assert "FAIL" in captured.out
    assert "verification failed" in captured.err


def test_verify_det_passes_for_collapsing_scheme(capsys):
    code = main(
        ["verify", "--identity", "det", "--k", "2", "--max-n", "6", "--stat", "maj-lp"]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_verify_random_schemes(capsys):
    code = main(
        [
            "verify",
            "--identity",
            "recursion",
            "--k",
            "3",
            "--max-n",
            "6",
            "--random-schemes",
            "2",
            "--seed",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "random-5" in out and "random-6" in out


def test_verify_corrupt_hook_fails():
    result = run_cli(
        "verify",
        "--identity",
        "recursion",
        "--k",
        "3",
        "--max-n",
        "6",
        "--random-schemes",
        "1",
        env={"QFIB_CORRUPT_SCHEMES": "1"},
    )
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_verify_seed_env_override():
    result = run_cli(
        "verify",
        "--identity",
        "recursion",
        "--k",
        "2",
        "--max-n",
        "3",
        "--random-schemes",
        "1",
        "--seed",
        "1",
        env={"QFIB_SEED": "99"},
    )
    assert result.returncode == 0
    assert "random-99" in result.stdout


@pytest.mark.parametrize("value", ["cython", "bogus"])
def test_qfib_backend_variable_changes_nothing(value):
    # earlier releases chose a kernel set by QFIB_BACKEND and exited 1 on
    # values they could not import; the exit contract allows no such code
    args = ("table", "--n", "3", "--k", "2", "--stat", "maj-lp")
    plain = run_cli(*args)
    result = run_cli(*args, env={"QFIB_BACKEND": value})
    assert plain.returncode == result.returncode == 0
    assert result.stdout == plain.stdout
    assert "Traceback" not in result.stderr


def test_verify_json_stream(capsys):
    code = main(
        [
            "verify",
            "--identity",
            "recursion",
            "--k",
            "2",
            "--max-n",
            "4",
            "--stat",
            "maj-lp",
            "--format",
            "json",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines:
        record = json.loads(line)
        assert record["verdict"] == "pass"
        assert record["identity"] == "recursion"


def _verify_as_reports(argv):
    # verify as it was when it kept every report with its polynomials,
    # sorted them, then printed
    args = build_parser().parse_args(argv)
    reports = list(cli._verify_reports(args, cli._resolve_schemes(args, args.k)))
    reports.sort(key=lambda r: (r.identity, r.describe()))
    if args.format == "json":
        out = "".join(json.dumps(r.to_json_dict()) + "\n" for r in reports)
    else:
        out = "".join(r.describe() + "\n" for r in reports)
    failures = [r for r in reports if not r.passed]
    err = f"verification failed: {failures[0].describe()}\n" if failures else ""
    return out, err, 1 if failures else 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "all", "--k", "3", "--max-n", "4", "--stat", "maj-rlp"],
        ["verify", "--identity", "det", "--k", "2", "--max-n", "5", "--stat", "inv-lp"],
        ["verify", "--identity", "all", "--k", "2", "--max-n", "3", "--random-schemes", "3"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_keeps_lines_not_reports(argv, fmt, capsys):
    # stdout, stderr and the exit code are those of sorting and printing
    # the full reports, exit 1 included (inv-lp fails the determinant)
    argv = argv + ["--format", fmt]
    expected = _verify_as_reports(argv)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == expected
    assert code == 1 or "inv-lp" not in argv


def test_enumerate_json(capsys):
    code = main(
        [
            "enumerate",
            "--n",
            "3",
            "--k",
            "2",
            "--object",
            "lp",
            "--with-stat",
            "maj",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"object": "321", "stat": 3} in payload
    assert len(payload) == 3


def test_det_json(capsys):
    code = main(
        ["det", "--n", "4", "--k", "3", "--stat", "maj-lp", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is True
    assert Poly.from_json_dict(payload["exact"]) == Poly.from_json_dict(
        payload["closed"]
    )


def test_det_both_lines(capsys):
    code = main(["det", "--n", "2", "--k", "2", "--stat", "inv-lp", "--show", "both"])
    captured = capsys.readouterr()
    assert code == 1  # closed form differs from the determinant for inv weights
    exact, closed = captured.out.splitlines()
    assert closed == "-z2^3*q^4"
    assert exact.endswith("- z2^3*q^4")


def test_det_closed_only(capsys):
    code = main(["det", "--n", "2", "--k", "2", "--stat", "inv-lp", "--show", "closed"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-z2^3*q^4"


def test_det_match_for_maj(capsys):
    code = main(["det", "--n", "4", "--k", "3", "--stat", "maj-lp", "--show", "both"])
    assert code == 0
    exact, closed = capsys.readouterr().out.splitlines()
    assert exact == closed
    assert Poly.parse(exact, 3).evaluate((1, 1, 1), 1) == 1  # odd k sign


def test_det_k1(capsys):
    code = main(["det", "--n", "1", "--k", "1", "--stat", "inv-lp"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["z1", "z1"]


def test_det_size_guard(capsys):
    assert main(["det", "--n", "3", "--k", "7", "--stat", "maj-lp"]) == 2


def test_validate_scheme_pass(capsys):
    assert main(["validate-scheme", "--k", "3", "--stat", "maj-prlp", "--max-n", "6"]) == 0
    assert "coherent" in capsys.readouterr().out


def test_validate_scheme_corrupt_hook():
    result = run_cli(
        "validate-scheme",
        "--k",
        "3",
        "--random-schemes",
        "1",
        "--max-n",
        "5",
        env={"QFIB_CORRUPT_SCHEMES": "1"},
    )
    assert result.returncode == 1
    assert "incoherent" in result.stdout


def test_bad_flags_exit_2():
    assert run_cli("table", "--n", "3", "--k", "2").returncode == 2
    assert run_cli("table", "--n", "3", "--k", "2", "--stat", "nope").returncode == 2
    assert run_cli("verify", "--identity", "bogus", "--k", "2", "--max-n", "3").returncode == 2
    assert run_cli("table", "--n", "99", "--k", "2", "--stat", "maj-lp").returncode == 2
    bad_table = run_cli("table", "--n", "3", "--k", "3", "--stat", "generic:[1 x 3],0,0")
    assert bad_table.returncode == 2 and "Traceback" not in bad_table.stderr
    bad_seed = run_cli(
        "verify", "--identity", "recursion", "--k", "2", "--max-n", "3",
        "--random-schemes", "1", env={"QFIB_SEED": "abc"},
    )
    assert bad_seed.returncode == 2 and "Traceback" not in bad_seed.stderr
    # the q exponent 2^32 would carry into the z field of the packed key
    overflow = run_cli("table", "--n", "1", "--k", "1", "--stat", "generic:4294967296,0,0")
    assert overflow.returncode == 2 and overflow.stdout == ""


def test_verify_desk_scale_guard():
    assert (
        run_cli(
            "verify", "--identity", "convolution", "--k", "2", "--max-n", "11"
        ).returncode
        == 2
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["table", "--n", "3", "--k", "20", "--stat", "maj-lp"], 0),
        (["table", "--n", "10", "--k", "20001", "--stat", "maj-lp"], 2),
        (["enumerate", "--n", "3", "--k", "21", "--object", "tilings"], 2),
        (["validate-scheme", "--k", "3", "--stat", "maj-lp", "--max-n", "20"], 0),
        (["validate-scheme", "--k", "3", "--stat", "maj-lp", "--max-n", "100000"], 2),
        (["verify", "--identity", "det", "--k", "2", "--max-n", "2",
          "--random-schemes", "100000000"], 2),
    ],
)
def test_size_limits(argv, code):
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 5.0


def test_byte_identical_runs():
    args = ("verify", "--identity", "all", "--k", "2", "--max-n", "4", "--stat", "maj-rlp")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_console_script_installed():
    if shutil.which("qfib") is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        ["qfib", "table", "--n", "3", "--k", "2", "--stat", "maj-lp"],
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "z1^3*q^3 + z1*z2*q^2 + z1*z2*q"
