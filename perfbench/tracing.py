"""Spans around calls into qfib's modules, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records one span per call: name, start, end, parent span and operation id.
A function is replaced under every name that refers to it in any loaded
qfib module, because several modules import the same function by name
(``weighted_sum_enumerative`` lives in tiling and is imported by identities,
lattice and cli).  Kernels are patched as attributes of the selected kernel
module, ``Poly`` and ``IdentityReport`` methods on their classes.
``uninstall()`` puts every original back.

Spans are kept in flat arrays and summarised (or written out) after the
traced passes.  A span's self time is its duration minus the durations of
its children; generator functions get one span per resumption.
"""

import functools
import importlib
import statistics
import sys
from array import array
from time import perf_counter

LAYERS = ("kernels", "polyring", "tiling", "identities", "lattice", "layered", "report", "cli")

KERNEL_FNS = (
    "add_terms", "sub_terms", "mul_terms", "scalar_mul_terms",
    "shift_q_terms", "times_q_terms", "eval_terms", "sum_tilings_terms",
)

# Poly methods by span name; all operators and shifts count as arithmetic.
POLY_METHODS = {
    "polyring.arith": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__pow__", "substitute_z_scale", "times_q",
    ),
    "polyring.parse": ("parse",),
    "polyring.from_json": ("from_json_dict",),
    "polyring.from_monomials": ("from_monomials",),
    "polyring.format": ("format", "__str__"),
    "polyring.to_json": ("to_json_dict",),
    "polyring.evaluate": ("evaluate",),
}

MODULE_FNS = {
    "tiling": (
        "weighted_sum_recursive", "weighted_sum_enumerative", "enumerate_tilings",
        "fibonacci_k", "tiling_weight", "validate_weight_scheme",
    ),
    "identities": (
        "verify_recursion", "verify_convolution", "verify_k_reduction",
        "verify_specializations", "convolution_count", "k_reduction_count",
    ),
    "lattice": (
        "build_minor", "determinant", "closed_form_det",
        "enumerate_noncrossing_tuples", "miles_sign_check",
    ),
    "layered": (
        "enumerate_family", "object_statistic", "distribution", "builtin_scheme",
        "format_object",
    ),
    "cli": ("main",),
}

REPORT_METHODS = {"report.compare": "compare", "report.describe": "describe",
                  "report.to_json": "to_json_dict"}

GENERATORS = {"tiling.enumerate_tilings", "layered.enumerate_family"}


def _count_mul(tr, args, result):
    tr.add("kernels.mul_terms.pairs", len(args[0]) * len(args[1]))
    tr.add("kernels.mul_terms.out", len(result))


def _count_leaves(tr, args, result):
    tr.add("kernels.sum_tilings_terms.leaves", sum(result.values()))


def _count_parse(tr, args, result):
    tr.add("polyring.parse.terms", result.n_terms)
    _count_terms(tr, args, result)


def _count_terms(tr, args, result):
    n = getattr(result, "n_terms", None)
    if n is not None and n > tr.max_terms:
        tr.max_terms = n


COUNTERS = {
    "kernels.mul_terms": _count_mul,
    "kernels.sum_tilings_terms": _count_leaves,
    "polyring.parse": _count_parse,
}


class Tracer:
    def __init__(self, kernel_samples=0):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op_id = -1
        self.counts = {}
        self.max_terms = 0
        self.kernel_samples = kernel_samples
        self.samples = {}
        self._undo = []

    # ------------------------------------------------------------------
    # recording

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        nid = self._nid(name)
        count = COUNTERS.get(name, _count_terms)
        sample = name.startswith("kernels.") and self.kernel_samples
        tr = self
        if name in GENERATORS:

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                key = name + ".yielded"
                while True:
                    idx = tr._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tr._close(idx)
                    tr.add(key, 1)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tr._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(idx)
            count(tr, args, result)
            if sample:
                kept = tr.samples.setdefault(name, [])
                if len(kept) < tr.kernel_samples:
                    kept.append(args)
            return result

        return traced

    # ------------------------------------------------------------------
    # patching

    def install(self):
        from qfib import _backend, polyring, report

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qfib" or n.startswith("qfib.")) and m is not None]
        kernels = _backend.kernels
        for fn_name in KERNEL_FNS:
            self._patch_everywhere(modules, kernels, fn_name, f"kernels.{fn_name}")
        for mod_name, fn_names in MODULE_FNS.items():
            mod = importlib.import_module(f"qfib.{mod_name}")
            for fn_name in fn_names:
                self._patch_everywhere(modules, mod, fn_name, f"{mod_name}.{fn_name}")
        for span, methods in POLY_METHODS.items():
            for method in methods:
                self._patch_method(polyring.Poly, method, span)
        for span, method in REPORT_METHODS.items():
            self._patch_method(report.IdentityReport, method, span)

    def _patch_everywhere(self, modules, home, fn_name, span):
        orig = getattr(home, fn_name)
        wrapped = self._wrap(span, orig)
        for mod in modules + [home]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, method, span):
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(span, raw.__func__))
        else:
            patched = self._wrap(span, raw)
        self._undo.append((cls, method, raw))
        setattr(cls, method, patched)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        self._stack.clear()

    # ------------------------------------------------------------------
    # summary

    def summarise(self):
        """Per span name: calls, self seconds, inclusive seconds, durations;
        plus the seconds covered by root spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root += dur[i]
            else:
                child[p] += dur[i]
        stats = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            s = stats.get(name)
            if s is None:
                s = stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            s["total_s"] += dur[i]
            s["durations"].append(dur[i])
        return stats, root

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\top\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.op[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def kernel_twin_parity(samples):
    """Compare both kernel modules on recorded inputs; returns failure lines,
    or None when the compiled twin does not import."""
    try:
        from qfib import _kernels_cy
    except ImportError:
        return None
    from qfib import _kernels_py

    failures = []
    for span, calls in samples.items():
        fn_name = span.split(".", 1)[1]
        for args in calls:
            if getattr(_kernels_py, fn_name)(*args) != getattr(_kernels_cy, fn_name)(*args):
                failures.append(f"kernel twins disagree on {fn_name}")
                break
    return failures


def per_layer_metrics(stats, root_s, wall_s, untraced_wall_s, passes, counts, max_terms, scale=1.0):
    """The per-layer metrics of one traced run, per pass.

    wall_s and untraced_wall_s are summed over the traced and the untraced
    passes respectively; there are ``passes`` of each.  Times are multiplied
    by ``scale``, the run's host-speed factor (see reference.py).
    """
    def get(name, field):
        s = stats.get(name)
        return s[field] if s else 0

    def per_pass(v):
        return v / passes

    def secs(v):
        return v * scale / passes

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = secs(sum(
            s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer
        ))
    for fn in ("mul_terms", "add_terms", "sub_terms", "shift_q_terms", "sum_tilings_terms"):
        m[f"kernels.{fn}.self_s"] = secs(get(f"kernels.{fn}", "self_s"))
    m["kernels.mul_terms.calls"] = per_pass(get("kernels.mul_terms", "calls"))
    pairs = counts.get("kernels.mul_terms.pairs", 0)
    m["kernels.mul_terms.pairs"] = per_pass(pairs)
    m["kernels.mul_terms.kept"] = counts.get("kernels.mul_terms.out", 0) / pairs if pairs else 0.0
    m["kernels.sum_tilings_terms.leaves"] = per_pass(counts.get("kernels.sum_tilings_terms.leaves", 0))

    for name in ("arith", "parse", "from_json", "format", "to_json"):
        m[f"polyring.{name}.self_s"] = secs(get(f"polyring.{name}", "self_s"))
    m["polyring.max_terms"] = max_terms
    m["polyring.parse.terms"] = per_pass(counts.get("polyring.parse.terms", 0))
    m["polyring.parse.total_s"] = secs(get("polyring.parse", "total_s"))
    m["polyring.parse.share"] = get("polyring.parse", "total_s") / wall_s

    m["tiling.weighted_sum_recursive.self_s"] = secs(get("tiling.weighted_sum_recursive", "self_s"))
    m["tiling.weighted_sum_enumerative.calls"] = per_pass(get("tiling.weighted_sum_enumerative", "calls"))
    m["tiling.weighted_sum_enumerative.self_s"] = secs(get("tiling.weighted_sum_enumerative", "self_s"))
    m["tiling.enumerate_tilings.self_s"] = secs(get("tiling.enumerate_tilings", "self_s"))
    m["tiling.enumerate_tilings.yielded"] = per_pass(counts.get("tiling.enumerate_tilings.yielded", 0))

    for fn in ("verify_recursion", "verify_convolution", "verify_k_reduction", "verify_specializations"):
        m[f"identities.{fn}.self_s"] = secs(get(f"identities.{fn}", "self_s"))
    hits = counts.get("identities.cache.hits", 0)
    misses = counts.get("identities.cache.misses", 0)
    m["identities.cache.hits"] = per_pass(hits)
    m["identities.cache.misses"] = per_pass(misses)
    m["identities.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    m["lattice.build_minor.self_s"] = secs(get("lattice.build_minor", "self_s"))
    m["lattice.determinant.calls"] = per_pass(get("lattice.determinant", "calls"))
    m["lattice.determinant.self_s"] = secs(get("lattice.determinant", "self_s"))
    m["lattice.determinant.total_s"] = secs(get("lattice.determinant", "total_s"))
    m["lattice.determinant.share"] = get("lattice.determinant", "total_s") / wall_s
    m["lattice.closed_form_det.self_s"] = secs(get("lattice.closed_form_det", "self_s"))

    m["layered.enumerate_family.self_s"] = secs(get("layered.enumerate_family", "self_s"))
    m["layered.object_statistic.self_s"] = secs(get("layered.object_statistic", "self_s"))
    m["report.compare.self_s"] = secs(get("report.compare", "self_s"))

    durations = stats.get("cli.main", {}).get("durations", [])
    m["cli.main.self_s"] = secs(get("cli.main", "self_s"))
    m["cli.main.samples"] = len(durations)
    if len(durations) >= 2:
        cuts = statistics.quantiles(durations, n=10, method="inclusive")
        m["cli.main.p50_ms"] = statistics.median(durations) * scale * 1e3
        m["cli.main.p90_ms"] = cuts[8] * scale * 1e3
    else:
        m["cli.main.p50_ms"] = m["cli.main.p90_ms"] = 0.0
    m["cli.stdout_bytes"] = per_pass(counts.get("cli.stdout_bytes", 0))

    m["trace.wall_s"] = secs(wall_s)
    m["trace.outside_s"] = secs(wall_s - root_s)
    m["trace.overhead_s"] = secs(wall_s - untraced_wall_s)
    m["trace.spans"] = per_pass(sum(s["calls"] for s in stats.values()))
    return m
