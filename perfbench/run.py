"""qfib benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/qfib`` beside this
directory and exits 2 without a result when that is missing.  Workloads,
their metrics and the predictions they support are described in
perfbench/README.md and listed in BENCHMARK.json.

Every process is a fresh interpreter started by this script and waited for.
With ``--trace 0`` it starts one unmeasured warm-up set-up (which also
writes the bytecode cache), SETUP_SAMPLES set-up-only processes and one
measured run; ``setup_s`` is the median over the set-ups, ``wall_s`` the
median pass time of the run.  Both are scaled to a nominal host speed by
reference work timed beside them (reference.py); the raw times are in the
metadata.  With ``--trace 1`` it starts one run whose passes alternate
untraced and traced, and reports the per-layer metrics.

The last stdout line is the result object; the line before it holds the
run's metadata.  ``correct`` is false when any output was wrong or a
once-per-run check failed; ``failed`` also counts operations that raised
where the CLI exit contract allows no exception.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 6
# Longest time a worker may take beyond its measuring time.
WORKER_SLACK_S = 100


def _worker(args, mode, size, timeout):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--size", size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed ({mode}): exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args, size="full"):
    """Run one workload; returns (metadata, result)."""
    import workloads

    setups = []
    if not args.trace:
        _worker(args, "setup", size, 60)
        setups = [_worker(args, "setup", size, 60) for _ in range(SETUP_SAMPLES)]
    rec = _worker(args, "run", size, args.seconds + WORKER_SLACK_S)
    setups.append(rec)
    attempted, failed = rec["attempted"], rec["failed"]
    if args.trace:
        metrics = rec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": rec["wall_s"],
            "peak_rss_mb": rec["peak_rss_mb"],
            "passed_ops": (attempted - failed) / attempted,
        }
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    cls = workloads.WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "why": cls.why,
        "bypasses": cls.bypasses,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "backend": rec["backend"],
        "nproc": os.cpu_count(),
        "ops_per_pass": rec["ops_per_pass"],
        "passes": rec["passes"],
        "cpu_s": rec["cpu_s"],
        "raw_setup_s": [s["raw_setup_s"] for s in setups],
        "raw_pass_s": rec["walls"],
        "failure_examples": rec["reasons"],
        "self_check_failures": rec["self_check_failures"],
    }
    for key in ("kernel_twin", "spans_file"):
        if key in rec:
            meta[key] = rec[key]
    result = {
        "correct": rec["wrong"] == 0 and not rec["self_check_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return meta, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfib" / "__init__.py").is_file():
        print(f"error: no qfib source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    meta, result = run(args)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
