"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qfib.polyring import Poly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(name, trace, seed=1):
    args = argparse.Namespace(workload=name, seed=seed, seconds=1, trace=trace)
    return run.run(args, size="tiny")


def test_spec_names_the_implemented_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(name, trace):
    meta, result = _run(name, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == meta["ops_per_pass"] * meta["passes"]
    assert not meta["self_check_failures"]


def test_cli_session_failures_are_exactly_the_deep_nesting_calls():
    meta, result = _run("cli-session", 0)
    deep = workloads.CliSession(1, "tiny").deep_calls
    assert result["failed"] == deep * meta["passes"]
    assert all("nested" in line for line in meta["failure_examples"])


def _bump(poly):
    """The same polynomial with one coefficient raised by 1."""
    m = next(poly.monomials(), None)
    if m is None:
        return poly + Poly.one(poly.k)
    return poly + Poly.monomial(poly.k, 1, m.z_exps, m.q_exp)


def _bumped_outputs(name, out):
    if name == "verify-grid":
        if isinstance(out, list):
            return [dataclasses.replace(out[0], lhs=_bump(out[0].lhs))] + out[1:]
        return dataclasses.replace(out, lhs=_bump(out.lhs))
    if name == "long-board":
        return _bump(out)
    code, text, parsed = out
    return code, text, _bump(parsed)


@pytest.mark.parametrize("name", NAMES)
def test_checker_fails_an_output_with_one_coefficient_changed(name):
    wl = workloads.WORKLOADS[name](2, "tiny")
    checked = 0
    for op in wl.ops:
        if name == "cli-session" and not op.label.startswith("table"):
            continue
        out = op.run()
        assert op.check(out) is None, op.label
        assert op.check(_bumped_outputs(name, out)) is not None, op.label
        checked += 1
    assert checked >= 3


def test_failed_check_counts_without_aborting_the_run():
    wl = workloads.LongBoard(1, "tiny")
    good = wl.ops[0].check
    wl.ops[0].check = lambda out: good(_bump(out))
    record = worker.measure(wl, 0, trace=0)
    assert record["failed"] == record["wrong"] == len(record["walls"])
    assert record["attempted"] == len(wl.ops) * len(record["walls"])


@pytest.mark.parametrize("name", ["verify-grid", "cli-session"])
def test_self_times_and_remainder_add_up_to_traced_wall(name):
    import qfib.tiling

    original = qfib.tiling.weighted_sum_enumerative
    wl = workloads.WORKLOADS[name](1, "tiny")
    tracer = tracing.Tracer()
    wall, _, _ = worker.run_pass(wl, tracer)
    assert qfib.tiling.weighted_sum_enumerative is original
    stats, root_s = tracer.summarise()
    assert {n.split(".")[0] for n in stats} <= set(tracing.LAYERS)
    m = tracing.per_layer_metrics(stats, root_s, wall, wall, 1, tracer.counts, tracer.max_terms)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert m["trace.outside_s"] >= 0
    assert layers + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.wall_s"] == wall


def test_kernel_twin_parity(monkeypatch):
    import qfib
    from qfib import _kernels_py

    wl = workloads.VerifyGrid(1, "tiny")
    tracer = tracing.Tracer(kernel_samples=2)
    worker.run_pass(wl, tracer)
    assert "kernels.mul_terms" in tracer.samples

    monkeypatch.setitem(sys.modules, "qfib._kernels_cy", _kernels_py)
    monkeypatch.setattr(qfib, "_kernels_cy", _kernels_py, raising=False)
    assert tracing.kernel_twin_parity(tracer.samples) == []

    broken = types.SimpleNamespace(**{
        fn: getattr(_kernels_py, fn) for fn in tracing.KERNEL_FNS
    })
    broken.mul_terms = lambda a, b: {}
    monkeypatch.setitem(sys.modules, "qfib._kernels_cy", broken)
    monkeypatch.setattr(qfib, "_kernels_cy", broken)
    assert tracing.kernel_twin_parity(tracer.samples) == ["kernel twins disagree on mul_terms"]


def test_seed_changes_only_cost_neutral_inputs():
    a, b = workloads.LongBoard(1), workloads.LongBoard(2)
    assert [op.label for op in a.ops] == [op.label for op in workloads.LongBoard(1).ops]
    assert [op.label for op in a.ops] != [op.label for op in b.ops]
    for (wa, ka, _), (wb, kb, _) in zip(a.boards, b.boards):
        assert ka == kb
        assert [wa.b(i) for i in range(1, ka + 1)] == [wb.b(i) for i in range(1, kb + 1)]
        assert [wa.c(i) for i in range(1, ka + 1)] == [wb.c(i) for i in range(1, kb + 1)]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
