"""One benchmark process: set up a workload, run its passes, check outputs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run [--size full|tiny]

run.py starts this script in a fresh interpreter for every set-up sample
and for the measured run.  ``--mode setup`` stops once the first operation
is ready; ``--mode run`` then repeats the workload's pass for about
``--seconds`` and checks every output after each pass, outside the timed
interval.  With ``--trace 1`` untraced and traced passes alternate, and the
traced ones record spans (see tracing.py).  The last stdout line is one
JSON object.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
CHUNK_S = 0.25
KERNEL_SAMPLES = 4


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.reason = f"raised {type(exc).__name__}"


def run_pass(workload, tracer=None):
    """One pass: returns its wall time, that time scaled to the nominal host
    speed, and the outputs of its operations.

    The operations run in chunks of about CHUNK_S; the reference work runs
    between chunks, outside the timed intervals, and each chunk is scaled
    by the mean of the reference times on either side of it.  The host
    speed swings within seconds, so a finer pairing tracks it better than
    one factor per pass.
    """
    ops = workload.ops
    outs = [None] * len(ops)
    workload.before_pass()
    if tracer is not None:
        tracer.install()
    wall = scaled = 0.0
    ref = reference.reference_seconds()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        try:
            outs[i] = op.run()
        except Exception as exc:  # counted as a failed operation
            outs[i] = Raised(exc)
        now = time.perf_counter()
        if now - start >= CHUNK_S or i == len(ops) - 1:
            next_ref = reference.reference_seconds()
            wall += now - start
            scaled += (now - start) * reference.REFERENCE_S / ((ref + next_ref) / 2)
            ref = next_ref
            start = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    return wall, scaled, outs


def _verdict(op, out):
    """(reason, wrong): reason is None when the output is right; wrong is
    true when the operation returned a wrong output rather than raising."""
    if isinstance(out, Raised):
        return out.reason, False
    try:
        reason = op.check(out)
    except Exception as exc:  # a malformed output is a wrong output
        reason = f"check raised {type(exc).__name__}: {exc}"
    return reason, reason is not None


def _same(a, b):
    if isinstance(a, Raised) or isinstance(b, Raised):
        return isinstance(a, Raised) and isinstance(b, Raised) and a.reason == b.reason
    return a == b


def measure(workload, seconds, trace):
    """Repeat the pass for about ``seconds``; returns the run's record.

    ``wall_s`` is the median scaled pass time (see run_pass); per-layer
    times are scaled by the run's median factor.  The first pass's outputs are checked against the oracles and
    kept; later passes must reproduce them exactly.  Peak RSS is read after
    the first pass, before any check: later passes run in a heap the earlier
    ones fragmented, and would tie the figure to how many passes fit in a run.
    """
    import tracing

    tracer = tracing.Tracer(KERNEL_SAMPLES) if trace else None
    walls, traced_walls, scaled, traced_scaled = [], [], [], []
    first = []
    record = {"attempted": 0, "failed": 0, "wrong": 0}
    reasons = []
    start = time.perf_counter()

    def one(traced):
        wall, wall_scaled, outs = run_pass(workload, tracer if traced else None)
        (traced_walls if traced else walls).append(wall)
        (traced_scaled if traced else scaled).append(wall_scaled)
        if traced:
            for key, value in workload.pass_counters(outs).items():
                tracer.add(key, value)
        if not first:
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first.extend((out, _verdict(op, out)) for op, out in zip(workload.ops, outs))
            outs = None
        for i, (op, (first_out, verdict)) in enumerate(zip(workload.ops, first)):
            if outs is not None and not _same(outs[i], first_out):
                verdict = ("differs from the first pass", True)
            reason, wrong = verdict
            if reason:
                record["failed"] += 1
                record["wrong"] += wrong
                reasons.append(f"{op.label}: {reason}")
        record["attempted"] += len(first)
        return wall

    while True:
        step = one(False)
        if trace:
            step += one(True)
        spent = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and spent + step > seconds:
            break
    record.update(
        walls=walls,
        wall_s=statistics.median(scaled),
        reasons=reasons[:5],
        passes=len(walls) + len(traced_walls),
        ops_per_pass=len(workload.ops),
        self_check_failures=workload.self_checks(),
    )
    if trace:
        stats, root_s = tracer.summarise()
        record["per_layer"] = tracing.per_layer_metrics(
            stats, root_s, sum(traced_walls), sum(walls), len(traced_walls),
            tracer.counts, tracer.max_terms,
            scale=statistics.median(s / w for s, w in zip(scaled + traced_scaled, walls + traced_walls)),
        )
        twin = tracing.kernel_twin_parity(tracer.samples)
        record["kernel_twin"] = "absent" if twin is None else (twin or "agree")
        if twin:
            record["self_check_failures"] += twin
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}.tsv"
        tracer.write(path)
        record["spans_file"] = str(path.relative_to(ROOT))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    ref_before = reference.reference_seconds()
    # Set-up: from here to the first operation being ready.
    t0 = time.perf_counter()
    import qfib
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setup_s = time.perf_counter() - t0

    src = Path(qfib.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"imported qfib from {src}, not from this checkout")
    ref = (ref_before + reference.reference_seconds()) / 2
    record = {
        "setup_s": setup_s * reference.REFERENCE_S / ref,
        "raw_setup_s": setup_s,
        "backend": qfib.BACKEND,
    }
    if args.mode == "run":
        record.update(measure(workload, args.seconds, args.trace))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
