"""Command-line surface: outputs, exit codes, JSON forms, determinism."""

import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import time

import pytest

from qfib import cli
from qfib.cli import _parse_scheme, build_parser, main
from qfib.errors import LIMITS, DomainError
from qfib.lattice import MinorSpec, PolyMatrix, determinant, miles_sign_check
from qfib.layered import SCHEMED_PAIRS, builtin_scheme
from qfib.polyring import Poly
from qfib.tiling import WeightScheme, weighted_sum_enumerative


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
    "stat, same",
    [
        ("generic:A=[0 1 3],B=0,C=0", "generic:[0 1 3],0,0"),
        ("generic:a=[0 1 3],b=i,c=0", "generic:[0 1 3],i,0"),
        ("generic: A= i*2 ,B=[1 0 2], C=[0 0 1]", "generic:i*2,[1 0 2],[0 0 1]"),
        ("generic:0,B=0,0", "generic:0,0,0"),
        ("generic:B=1,A=0,C=0", None),
        ("generic:A=0,C=0,B=0", None),
        ("generic:0,c=1,0", None),
    ],
)
def test_scheme_components_take_their_own_labels(stat, same, capsys):
    # a label names the component in its place, in either case; another
    # component's label there is refused by name, not by its characters
    code = main(["table", "--n", "4", "--k", "3", "--stat", stat])
    out, err = capsys.readouterr()
    if same is None:
        assert code == 2
        assert err.startswith("error: ") and "use 0-9" not in err, err
        return
    assert code == 0
    assert main(["table", "--n", "4", "--k", "3", "--stat", same]) == 0
    assert capsys.readouterr().out == out
    assert _parse_scheme(stat, 3) == _parse_scheme(same, 3)


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --n 21 --k 2 --object tilings",
        "enumerate --n -1 --k 2 --object lp",
        "enumerate --n 4 --k 21 --object lp",
        "enumerate --n 4 --k 2 --object lpi --with-stat inv",
    ],
)
def test_refused_enumerate_writes_nothing(argv, fmt, capsys):
    # rows are written as they are made, so every check comes first
    assert main([*argv.split(), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


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


# Each guard the CLI checks, called at its LIMITS value and one past it: the
# first call runs (0 or 1), the second is refused (2) with a message naming
# the limit.  The value is the largest board a verb enumerates: n, max-n,
# 2 max-n on the convolution grid and n + 2k - 2 for a minor.
@pytest.mark.parametrize(
    "limit, at, past",
    [
        pytest.param("k", "table --n 3 --k 20 --stat maj-lp",
                     "table --n 3 --k 21 --stat maj-lp", id="k"),
        pytest.param("board", "table --n 20 --k 2 --stat maj-lp",
                     "table --n 21 --k 2 --stat maj-lp", id="board-table"),
        pytest.param("board", "enumerate --n 20 --k 1 --object lp",
                     "enumerate --n 21 --k 1 --object lp", id="board-enumerate"),
        pytest.param("board", "verify --identity recursion --k 1 --max-n 20 --stat maj-lp",
                     "verify --identity recursion --k 1 --max-n 21 --stat maj-lp",
                     id="board-verify"),
        pytest.param("board", "verify --identity convolution --k 1 --max-n 10 --stat maj-lp",
                     "verify --identity convolution --k 1 --max-n 11 --stat maj-lp",
                     id="convolution-grid"),
        pytest.param("det_dim", "det --k 6 --n 1 --stat generic:0,0,0",
                     "det --k 7 --n 1 --stat generic:0,0,0", id="det_dim-det"),
        pytest.param("det_dim", "verify --identity det --k 6 --max-n 1 --stat generic:0,0,0",
                     "verify --identity det --k 7 --max-n 1 --stat generic:0,0,0",
                     id="det_dim-verify"),
        pytest.param("board", "det --n 18 --k 2 --stat maj-lp",
                     "det --n 19 --k 2 --stat maj-lp", id="minor-grid-det"),
        pytest.param("board", "verify --identity det --k 2 --max-n 18 --stat maj-lp",
                     "verify --identity det --k 2 --max-n 19 --stat maj-lp",
                     id="minor-grid-verify"),
        pytest.param("validate_max_n", "validate-scheme --k 1 --max-n 20 --stat maj-lp",
                     "validate-scheme --k 1 --max-n 21 --stat maj-lp", id="validate_max_n"),
        pytest.param("random_schemes", "validate-scheme --k 1 --max-n 1 --random-schemes 1000",
                     "validate-scheme --k 1 --max-n 1 --random-schemes 1001",
                     id="random_schemes"),
        pytest.param("expr_len", f"table --n 1 --k 1 --stat generic:{'0' * 200},0,0",
                     f"table --n 1 --k 1 --stat generic:{'0' * 201},0,0", id="expr_len"),
    ],
)
def test_cli_guard_boundary(limit, at, past, capsys):
    assert main(at.split()) in (0, 1)
    capsys.readouterr()
    assert main(past.split()) == 2
    assert f"limited to {LIMITS[limit]} (LIMITS[{limit!r}])" in capsys.readouterr().err


# Arguments outside an operation's domain raise DomainError, not the
# SizeLimitError of a LIMITS guard, from the library and from the CLI.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: MinorSpec(0, 2), id="MinorSpec-n0"),
        pytest.param(lambda: MinorSpec(2, 0), id="MinorSpec-k0"),
        pytest.param(lambda: determinant(PolyMatrix(0, ())), id="determinant-empty"),
        pytest.param(lambda: miles_sign_check(0, 2), id="miles_sign_check-n0"),
        pytest.param(lambda: miles_sign_check(2, 0), id="miles_sign_check-k0"),
        *(
            pytest.param(argv, id=argv)
            for argv in (
                "det --k 0 --n 3 --stat maj-lp",
                "det --n 0 --k 2 --stat maj-lp",
                "table --n -1 --k 2 --stat maj-lp",
                "enumerate --n -1 --k 2 --object tilings",
                "verify --identity recursion --k 2 --max-n 0",
                "verify --identity kreduce --k 1 --max-n 3",
                "validate-scheme --k 2 --stat maj-lp --max-n 0",
                "validate-scheme --k 2 --random-schemes -1",
            )
        ),
    ],
)
def test_domain_errors_are_not_size_errors(call, capsys, monkeypatch):
    if callable(call):
        with pytest.raises(DomainError):
            call()
        return
    # main maps the errors it catches to exit 2; let it catch DomainError only
    monkeypatch.setattr(cli, "QfibError", DomainError)
    assert main(call.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


# sha256 of stdout and the exit code of each call: the canonical outputs,
# which a change to how they are written must keep byte for byte
_PINNED_OUTPUTS = {
    "table --n 8 --k 3 --stat maj-rlp --append 0,0 --format text":
        (0, "ed1983daf8f0fd678a85d932f9f2de891b4dd9b6c2e8b8fe28fcf31aa3ca60ac"),
    "table --n 8 --k 3 --stat maj-rlp --append 2,1 --format text":
        (0, "02b4a01df012b8ffc1ff8fc28a3672e565f76a80854c25feca036755834f4c4d"),
    "det --n 3 --k 2 --stat maj-rlp --show closed --format text":
        (0, "299e210c5bf396015704aef2ed30cb101c36bc2c5566e51a04843f574fde20fb"),
    "det --n 3 --k 2 --stat maj-rlp --show exact --format text":
        (0, "299e210c5bf396015704aef2ed30cb101c36bc2c5566e51a04843f574fde20fb"),
    "det --n 3 --k 2 --stat maj-rlp --show both --format text":
        (0, "ec4fd872dc55f7bb2183c4ac9c1a24a23659ee27a8881220a7b1edb93f30d5b8"),
    "verify --identity all --k 3 --max-n 4 --format text":
        (1, "d0bbc8e2900cf094d6f182c4431b547563e1aa208913ab57f74d923e0215aa09"),
    "enumerate --n 6 --k 3 --object tilings --format text":
        (0, "0c5feef4730a59322510530a445e7d48355873cdbe9517eb6997dbc2da69193a"),
    "enumerate --n 6 --k 3 --object lp --with-stat maj --format text":
        (0, "379722609decfa58980b9d86bce9f74c674b5f0d2c72ab92299a6fc3747ef432"),
    "enumerate --n 6 --k 3 --object lpi --with-stat rb --format text":
        (0, "5081cc177b34765b542d7ab2ba8cd2a2a9483275cad0e3a67f9b32d4c1cb3e86"),
    "enumerate --n 0 --k 3 --object lp --with-stat inv --format text":
        (0, "082f1b30dfd690d2eb56f15099a07810daa4555b553e0f0a8f7cb61e5f0aff94"),
    "table --n 8 --k 3 --stat maj-rlp --append 0,0 --format json":
        (0, "b757bde4818ff58716a6b4156142f9f136483601d40bd839cc1907ccaddc0c85"),
    "table --n 8 --k 3 --stat maj-rlp --append 2,1 --format json":
        (0, "b546d965a64ce24e2a61a587ce39943f51d583c5c684496783edd51616269bad"),
    "det --n 3 --k 2 --stat maj-rlp --show closed --format json":
        (0, "a221ae2aa1716b226a1c873d90fc8e799fb76c75edd9738806026655a33e9c11"),
    "det --n 3 --k 2 --stat maj-rlp --show exact --format json":
        (0, "2afe47422e30c042c866d4d5d9ba1cd296d693eb0b1671b5d935cf7407d2e96d"),
    "det --n 3 --k 2 --stat maj-rlp --show both --format json":
        (0, "7570a8e3ff1cc416562328cb06cf888daa8b8caedd77fbc820d79794e04bc548"),
    "verify --identity all --k 3 --max-n 4 --format json":
        (1, "91b31a28af789c79d51c3e653dd61e3d6bb0dd5498fe29f09f446c8577ae54d4"),
    "enumerate --n 6 --k 3 --object tilings --format json":
        (0, "ca1aa7450259aed91ae4d606ef087037823206fc5c123085a12f950a74f92afb"),
    "enumerate --n 6 --k 3 --object lp --with-stat maj --format json":
        (0, "b32cdd89e90d2845de6a38d74f78145565a965e6bd9477aef2559d6b78ec0cb9"),
    "enumerate --n 6 --k 3 --object lpi --with-stat rb --format json":
        (0, "a6e5e4f6bc9a0398be66a2c9840739b8c04734f176d16710bbeafb70a82cf542"),
    "enumerate --n 0 --k 3 --object lp --with-stat inv --format json":
        (0, "49b1b2dcc4a7c9f518574609c7516d35ca92c8e677304e0797530dc727b99416"),
    "det --n 2 --k 2 --stat inv-lp --format json":
        (1, "d343c10322980291a5d9ef1c763572b5b5803f6a1d0720478b40b31f0e6f0813"),
    # k = 4: the failing inv-* determinants and the k = 4 specializations
    "verify --identity all --k 4 --max-n 6 --format text":
        (1, "5abef1179c9e7d8952e8c21547cbb0f77207d4019129e97590b6c3f77df50a0d"),
    "verify --identity all --k 4 --max-n 6 --format json":
        (1, "57b00ee1e674c886639632e098d91282bdd108429d715a13821006f5454445b9"),
    # the largest tables, one per route of the recursion that prints them:
    # the packed window, the term-dict window (q-sparse), the closed form
    # (inv-*) and a long append; digests taken from the enumerative route
    "table --n 20 --k 4 --stat maj-rlp --format text":
        (0, "01ad6cd08d2e27d05cacbbad0a96f1161b0b4f6a4bc555931886f87752b07cad"),
    "table --n 18 --k 4 --stat rb-lpi --format text":
        (0, "036ed8f7d0799bc84c3ab0f7dcf5edd0cf26ac584f24ee254db00c846a1dcd58"),
    "table --n 20 --k 4 --stat 'generic:0,[0 1000000 7 9],[5 0 300000 2]' --format text":
        (0, "9710542c0b2b57af4b128e585c7272d0d79d1905ee72ec7c8fe7e212fc2d4d5a"),
    "table --n 20 --k 20 --stat inv-prlp --format text":
        (0, "74776e173f0ae7aab2fd8c57bc7faa6d2581877c8b054630c227bf914158b50b"),
    "table --n 20 --k 6 --stat maj-prlp --append 50,50 --format text":
        (0, "5146740e0b921a0fb9c6fe3e2aaf01c72efb40c0fea01245679917e6e6e2770c"),
    "table --n 20 --k 4 --stat maj-rlp --format json":
        (0, "39be11d2ed88fd930c5a319974622e3068fc3c6bccceee2b00e02bc72f797701"),
    "table --n 18 --k 4 --stat rb-lpi --format json":
        (0, "d3ca44d3e549bf8359c513b74adf22670b731b88d51f79827a23589ee8dadbc2"),
    "table --n 20 --k 4 --stat 'generic:0,[0 1000000 7 9],[5 0 300000 2]' --format json":
        (0, "e2e094064ba891d9e39dfe8613dc12aa173624bc5deebff746bd27f16d97360d"),
    "table --n 20 --k 20 --stat inv-prlp --format json":
        (0, "a6caba7091d187b874ae2a717aa2f460a3803850ab78b1295904c769f4c4ccde"),
    "table --n 20 --k 6 --stat maj-prlp --append 50,50 --format json":
        (0, "cea4f488a34dd58b4ce9eb039d362142dda325df976dbebc2e9160ab53e8796f"),
    # the largest C = 0 minors, whose rows move along their paths before the
    # expansion: two packed ones and one q-sparse one on the term ring;
    # digests taken from the plain expansion
    "det --n 6 --k 6 --stat maj-rlp --format text":
        (0, "97a1af465eb230533e7168554d181fa5218898ed9ce4556ae4f9773b3aa00445"),
    "det --n 6 --k 6 --stat maj-lp --format json":
        (0, "e2450b45c599a75bca6db56680e0ab01f03c21950d7b1707f494d52cc008095c"),
    "det --n 3 --k 6 --stat 'generic:0,[0 1000000 7 9 3 5],[0 0 0 0 0 0]' --format text":
        (0, "71221f52469638d438012d2c8e4d30dcef8fdfba46cde2cbf4b1b2050b960202"),
    # the largest n at k = 6, whose rows move through two whole cuts; the
    # plain expansion of the thinned minor took 17 s to print this
    "det --n 10 --k 6 --stat maj-lp --format text":
        (0, "d22d9e31a57c1ff98989eadc3c456f5dfc43acbeed7e7aca10b6c613317d0985"),
}


def test_outputs_match_pinned_digests(capsys):
    for argv, pinned in _PINNED_OUTPUTS.items():
        code = main(shlex.split(argv))
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == pinned, argv


def _table_shapes():
    """(argv scheme, scheme built apart from the CLI's parser, k, n, append)
    for each table shape the cli-session benchmark prints: every built-in,
    three expression and three value-table generic: schemes at k = 3 with
    appends, and the two k = 4 boards."""
    rng = random.Random(19)
    app = lambda: (rng.randint(0, 3), rng.randint(0, 3))
    shapes = [(str(p), builtin_scheme(p, 3), 3, 14, app()) for p in SCHEMED_PAIRS]
    c0, c1, c2 = 2, 3, 1
    for text, fns in (
        (f"{c0}+{c1}*(i-1),i-1,0", (lambda i: c0 + c1 * (i - 1), lambda i: i - 1, lambda i: 0)),
        (f"{c2}*i*(i-1)/2,1,0", (lambda i: c2 * i * (i - 1) // 2, lambda i: 1, lambda i: 0)),
        (f"({c0}+i)*{c1},1,i-1", (lambda i: (c0 + i) * c1, lambda i: 1, lambda i: i - 1)),
    ):
        shapes.append((f"generic:{text}", WeightScheme(3, *fns), 3, 14, app()))
    for b, c in (((0, 1, 2), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)), ((0, 0, 0), (1, 2, 3))):
        a = tuple(rng.randint(0, 3) for _ in range(3))
        text = ",".join("[" + " ".join(map(str, t)) + "]" for t in (a, b, c))
        shapes.append((f"generic:{text}", WeightScheme.from_tables(3, a, b, c), 3, 14, app()))
    shapes += [
        ("maj-rlp", builtin_scheme("maj-rlp", 4), 4, 20, (0, 0)),
        ("rb-lpi", builtin_scheme("rb-lpi", 4), 4, 18, (0, 0)),
    ]
    return shapes


_TABLE_SHAPES = _table_shapes()
_PRIME = 2**61 - 1


def _board_dp(w, n, before, after, zs, q):
    """F_n(zs; q) mod _PRIME by the board-position DP
    G(pos) = sum_i zs[i-1] q^e G(pos + i), G(n + 1) = 1, where e is the
    tile's WeightScheme.qexp plus the shift the appended boards give it."""
    g = [0] * (n + w.k + 1)
    g[n + 1] = 1
    for pos in range(n, 0, -1):
        g[pos] = sum(
            zs[i - 1] * g[pos + i]
            * pow(q, w.qexp(i, pos, n - pos - i + 1) + w.b(i) * before + w.c(i) * after, _PRIME)
            for i in range(1, min(w.k, n - pos + 1) + 1)
        ) % _PRIME
    return g[1]


def _eval_mod(p, zs, q):
    total = 0
    for m in p.monomials():
        term = m.coeff * pow(q, m.q_exp, _PRIME)
        for z, e in zip(zs, m.z_exps):
            term = term * pow(z, e, _PRIME) % _PRIME
        total += term
    return total % _PRIME


@pytest.mark.parametrize(
    "stat, w, k, n, append",
    _TABLE_SHAPES,
    ids=[f"{s}-k{k}-n{n}-append{b},{a}" for s, _, k, n, (b, a) in _TABLE_SHAPES],
)
def test_table_prints_the_tiling_sum(stat, w, k, n, append, capsys):
    # table's stdout, read back, is the enumerative oracle's sum, and at a
    # seeded point it is the value of a board DP written here from the
    # scheme's exponents, so neither check leans on the route table takes
    rng = random.Random(f"{stat} {append}")
    zs, q = [rng.randrange(2, _PRIME) for _ in range(k)], rng.randrange(2, _PRIME)
    expected = weighted_sum_enumerative(n, k, w, append)
    value = _board_dp(w, n, *append, zs, q)
    for fmt in ("text", "json"):
        argv = ["table", "--n", str(n), "--k", str(k), "--stat", stat,
                "--append", f"{append[0]},{append[1]}", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("}\n" if fmt == "json" else "\n") and out.count("\n") == 1
        poly = Poly.from_json_dict(json.loads(out)) if fmt == "json" else Poly.parse(out[:-1], k)
        assert poly == expected, (stat, fmt)
        assert _eval_mod(poly, zs, q) == value, (stat, fmt)


def test_console_script_installed():
    if shutil.which("qfib") is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        ["qfib", "table", "--n", "3", "--k", "2", "--stat", "maj-lp"],
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "z1^3*q^3 + z1*z2*q^2 + z1*z2*q"
