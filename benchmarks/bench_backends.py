"""Benchmark the pure-Python term kernels against the compiled ones.

Runs each kernel on workloads taken from the package's real hot paths
(enumerative tiling sums, polynomial products of weighted sums, and the
shift/evaluate loops) and prints a timing table.  Usage:

    python benchmarks/bench_backends.py [--repeat N]
"""

import argparse
import time

from qfib import _kernels_py
from qfib.layered import builtin_scheme
from qfib.polyring import _zoffsets
from qfib.tiling import AppendSpec, _tile_deltas, weighted_sum_enumerative

try:
    from qfib import _kernels_cy
except ImportError:
    _kernels_cy = None


def _workloads():
    w = builtin_scheme("maj-rlp", 4)
    deltas18, _, _ = _tile_deltas(18, 4, w, AppendSpec())
    deltas20, _, _ = _tile_deltas(20, 4, w, AppendSpec())
    big = weighted_sum_enumerative(14, 4, w)._terms
    small = weighted_sum_enumerative(9, 4, w)._terms
    offs = _zoffsets(4)
    shifts = tuple((off, 2) for off in offs)
    return [
        ("sum_tilings(n=18, k=4)", "sum_tilings_terms", (18, 4, deltas18)),
        ("sum_tilings(n=20, k=4)", "sum_tilings_terms", (20, 4, deltas20)),
        ("mul(F14 * F14)", "mul_terms", (big, big)),
        ("mul(F14 * F9)", "mul_terms", (big, small)),
        ("add(F14 + F14)", "add_terms", (big, big)),
        ("shift_q(F14)", "shift_q_terms", (big, shifts)),
        ("evaluate(F14)", "eval_terms", (big, offs, (2, 1, 1, 3), 2)),
    ]


def _time(fn, args, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rows = []
    for label, name, call_args in _workloads():
        py = _time(getattr(_kernels_py, name), call_args, args.repeat)
        if _kernels_cy is not None:
            cy = _time(getattr(_kernels_cy, name), call_args, args.repeat)
            assert getattr(_kernels_py, name)(*call_args) == getattr(
                _kernels_cy, name
            )(*call_args), f"backend mismatch on {label}"
            rows.append((label, py, cy, py / cy))
        else:
            rows.append((label, py, None, None))

    header = f"{'workload':<24} {'python':>10} {'cython':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, py, cy, speedup in rows:
        if cy is None:
            print(f"{label:<24} {py * 1e3:>8.2f}ms {'n/a':>10} {'n/a':>8}")
        else:
            print(f"{label:<24} {py * 1e3:>8.2f}ms {cy * 1e3:>8.2f}ms {speedup:>7.1f}x")
    if _kernels_cy is None:
        print("\ncompiled kernels unavailable; rebuild with "
              "`python setup.py build_ext --inplace` to compare")


if __name__ == "__main__":
    main()
