"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

A workload builds its inputs from a seed when it is constructed (that is
the set-up the benchmark times).  Its ``ops`` are one *pass*: the benchmark
repeats the same pass and reports the median pass time.  Every operation
carries its own check, which compares the output against oracles.py and
returns None when it is right or a one-line reason when it is not.

The seed changes only properties that leave the cost of a pass unchanged:
A tables, append lengths and evaluation points.  Board sizes, B and C
tables, the call mix and the call order are fixed: B and C decide how many
terms the polynomials have, and the order decides which outputs are still
held when the memory peak is reached.

Operations call qfib through module attributes (``tiling.weighted_sum_...``)
so that the traced run, which patches those attributes, sees every call.
"""

import contextlib
import io
import json
import random
import shlex

from qfib import cli, identities, lattice, report, tiling
from qfib.layered import SCHEMED_PAIRS, builtin_scheme
from qfib.polyring import Poly
from qfib.tiling import AppendSpec, WeightScheme

import oracles

# A generic: scheme nested this deep escapes cli.main as RecursionError
# instead of exiting 2.  The calls stay in cli-session, at this depth, so the
# defect shows in its failure count until the scheme parser is fixed.
DEEP_NESTING = 5000


class Op:
    """One operation: ``run()`` produces the output, ``check(output)``
    returns None when it is right, else the reason it is wrong."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    name = ""
    why = ""
    bypasses = ""

    def before_pass(self):
        """Reset program state that a fresh process would not have."""

    def pass_counters(self, outputs):
        """Counts read after a pass from its outputs or the program's caches."""
        return {}

    def self_checks(self):
        """Checks run once per run, outside the timing; returns failure lines."""
        return []


def _tables(w, k):
    """The scheme's (A, B, C) value tables for tile lengths 1..k."""
    return tuple(tuple(f(i) for i in range(1, k + 1)) for f in (w.a, w.b, w.c))


def _twisted(pair, k, rng):
    """The built-in scheme with the built-in B and C tables and a seeded A."""
    a = [rng.randint(0, 3) for _ in range(k)]
    _, b, c = _tables(builtin_scheme(pair, k), k)
    return WeightScheme.from_tables(k, a, b, c, name=f"{pair}~A{''.join(map(str, a))}")


# ----------------------------------------------------------------------
# verify-grid


def _cache_fns():
    fns = (getattr(identities, n, None) for n in ("_plain", "_front", "_back"))
    return [f for f in fns if hasattr(f, "cache_info")]


def _check_identity(r, size, kcap):
    if not (r.passed and r.lhs == r.rhs):
        return f"{r.identity} {r.params}: sides differ"
    if oracles.coeff_sum(r.lhs) != oracles.kfib(size, kcap):
        return f"{r.identity} {r.params}: lhs at z=q=1 is not F_{size}"
    return None


def _check_det(r, n, k, c_zero):
    lhs1 = oracles.collapse_q1(r.lhs)
    if lhs1 != oracles.collapse_q1(r.rhs):
        return f"det n={n}: det and closed form differ at q=1"
    if sum(lhs1.values()) != oracles.miles_sign(n, k):
        return f"det n={n}: wrong value at z=q=1"
    if r.passed != (r.lhs == r.rhs):
        return f"det n={n}: verdict does not match the polynomials"
    if c_zero and not r.passed:
        return f"det n={n}: C = 0 but det differs from the closed form"
    return None


def _check_specializations(reports, k):
    if not reports:
        return "no specialized reports"
    for r in reports:
        p = r.params
        if r.identity == "det-specialized":
            if not (r.passed and r.lhs == r.rhs):
                return f"{r.identity} {p}: sides differ"
            if oracles.coeff_sum(r.lhs) != oracles.miles_sign(p["n"], k):
                return f"{r.identity} {p}: wrong value at z=q=1"
            continue
        size = p["m"] + p["n"] if "m" in p else p["n"]
        reason = _check_identity(r, size, k)
        if reason:
            return reason
    return None


def _det_cell(n, k, w):
    spec = lattice.MinorSpec(n, k)
    return report.IdentityReport.compare(
        "det",
        {"n": n, "k": k, "scheme": w.name},
        lattice.determinant(lattice.build_minor(spec, w)),
        lattice.closed_form_det(spec, w),
    )


class VerifyGrid(Workload):
    name = "verify-grid"
    why = (
        "library calls of `verify --identity all` on the 7 built-in schemes and "
        "seeded A-twisted copies at k=4: determinant-bound, sums shared through "
        "the identities caches"
    )
    bypasses = "cli text I/O (Poly parse/format) and the recursive route"
    SIZES = {"full": (4, 6), "tiny": (3, 3)}

    def __init__(self, seed, size="full"):
        k, nmax = self.SIZES[size]
        rng = random.Random(seed)
        schemes = []
        for pair in SCHEMED_PAIRS:
            schemes.append((str(pair), builtin_scheme(pair, k)))
            schemes.append((None, _twisted(pair, k, rng)))
        self.ops = []
        for builtin, w in schemes:
            self.ops.extend(self._scheme_ops(builtin, w, k, nmax))

    @staticmethod
    def _scheme_ops(builtin, w, k, nmax):
        ops = []
        tag = w.name
        for n in range(1, nmax + 1):
            ops.append(Op(
                f"recursion {tag} n={n}",
                lambda n=n: identities.verify_recursion(n, k, w),
                lambda r, n=n: _check_identity(r, n, k),
            ))
        for m in range(1, nmax + 1):
            for n in range(1, nmax + 1):
                ops.append(Op(
                    f"convolution {tag} m={m} n={n}",
                    lambda m=m, n=n: identities.verify_convolution(m, n, k, w),
                    lambda r, s=m + n: _check_identity(r, s, k),
                ))
        for n in range(1, nmax + 1):
            ops.append(Op(
                f"kreduce {tag} n={n}",
                lambda n=n: identities.verify_k_reduction(n, k, w),
                lambda r, n=n: _check_identity(r, n, k),
            ))
        c_zero = not any(w.c(i) for i in range(1, k + 1))
        for n in range(1, nmax + 1):
            ops.append(Op(
                f"det {tag} n={n}",
                lambda n=n: _det_cell(n, k, w),
                lambda r, n=n: _check_det(r, n, k, c_zero),
            ))
        if builtin:
            ops.append(Op(
                f"specializations {builtin}",
                lambda: identities.verify_specializations(builtin, nmax, k),
                lambda reports: _check_specializations(reports, k),
            ))
        return ops

    def before_pass(self):
        # One pass stands for one `verify` process, which starts with empty
        # caches; the caches key on scheme identity and are never evicted.
        for f in _cache_fns():
            f.cache_clear()

    def pass_counters(self, outputs):
        hits = misses = 0
        for f in _cache_fns():
            info = f.cache_info()
            hits += info.hits
            misses += info.misses
        return {"identities.cache.hits": hits, "identities.cache.misses": misses}


# ----------------------------------------------------------------------
# long-board


class LongBoard(Workload):
    name = "long-board"
    why = (
        "weighted_sum_recursive on long boards with built-in B/C tables at "
        "k=2..4: the largest polynomials, where memory matters; calls share nothing"
    )
    bypasses = "lattice, identities and the cli"
    # (pair, k, n), largest first so that no earlier output is held while the
    # peak is reached.  Longer boards were tried: k=2 n=110 (55k terms,
    # 330 MB) made the pass time too noisy on a shared host to compare runs.
    BOARDS = {
        "full": [
            ("maj-lp", 2, 80),
            ("maj-rlp", 3, 45),
            ("maj-rlp", 2, 80),
            ("maj-prlp", 4, 34),
            ("rb-lpi", 3, 40),
            ("inv-prlp", 4, 80),
        ],
        "tiny": [("maj-lp", 2, 14), ("maj-rlp", 3, 10), ("inv-prlp", 4, 12)],
    }
    PARITY_N = 10

    def __init__(self, seed, size="full"):
        rng = random.Random(seed)
        self.boards = []
        self.ops = []
        for pair, k, n in self.BOARDS[size]:
            w = _twisted(pair, k, rng)
            app = AppendSpec(rng.randint(0, 3), rng.randint(0, 3))
            points = [
                ([rng.randrange(2, oracles.PRIME) for _ in range(k)],
                 rng.randrange(2, oracles.PRIME))
                for _ in range(2)
            ]
            self.boards.append((w, k, app))
            self.ops.append(Op(
                f"recursive {w.name} k={k} n={n} append={tuple(app)}",
                lambda n=n, k=k, w=w, app=app: tiling.weighted_sum_recursive(n, k, w, app),
                lambda p, n=n, k=k, w=w, app=app, pts=points: self._check(p, n, k, w, app, pts),
            ))

    @staticmethod
    def _check(poly, n, k, w, app, points):
        ones = ([1] * k, 1)
        got = oracles.eval_mod(poly, [ones] + points)
        if got[0] != oracles.kfib(n, k) % oracles.PRIME:
            return f"k={k} n={n}: value at z=q=1 is not F_n"
        for (zs, q), value in zip(points, got[1:]):
            if value != oracles.weighted_sum_mod(w, n, k, app.before, app.after, zs, q):
                return f"k={k} n={n}: differs from the position DP at a seeded point"
        return None

    def self_checks(self):
        failures = []
        n = self.PARITY_N
        for w, k, app in self.boards:
            rec = tiling.weighted_sum_recursive(n, k, w, app)
            if rec != tiling.weighted_sum_enumerative(n, k, w, app):
                failures.append(f"routes disagree: {w.name} k={k} n={n}")
        return failures


# ----------------------------------------------------------------------
# cli-session


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue()


def _table_op(argv, k, fmt):
    # Reading the table back is part of the operation: a downstream reader.
    def run():
        code, text = _call_cli(argv)
        if code != 0:
            return code, text, None
        if fmt == "json":
            return code, text, Poly.from_json_dict(json.loads(text))
        return code, text, Poly.parse(text.rstrip("\n"), k)
    return run


def _expect_exit(code):
    def check(out):
        return None if out[0] == code else f"exit {out[0]}, expected {code}"
    return check


class CliSession(Workload):
    name = "cli-session"
    why = (
        "many small independent in-process cli.main calls with stdout captured "
        "and tables read back: Poly text/JSON I/O rather than arithmetic"
    )
    bypasses = "the identities caches and the recursive route; determinants stay small"
    # board sizes: small table (k=3), big table (k=4), enumerate
    SIZES = {"full": (14, 20, 8), "tiny": (5, 7, 4)}
    FAMILY_STATS = [
        ("lp", "inv"), ("lp", "maj"), ("rlp", "inv"), ("rlp", "maj"),
        ("prlp", "inv"), ("prlp", "maj"), ("lpi", "rb"), ("lpi", "ls"),
    ]
    C_ZERO = ("inv-rlp", "maj-lp", "maj-rlp", "maj-prlp", "rb-lpi")

    def __init__(self, seed, size="full"):
        n_small, n_big, n_enum = self.SIZES[size]
        rng = random.Random(seed)
        self._expected = {}
        ops = []

        def table(stat, k, n, tables, fmt, append=(0, 0)):
            argv = ["table", "--n", str(n), "--k", str(k), "--stat", stat,
                    "--append", f"{append[0]},{append[1]}", "--format", fmt]
            key = (tables, k, n, append)
            ops.append(Op(
                f"table {stat} k={k} n={n} {fmt}",
                _table_op(argv, k, fmt),
                lambda out: self._check_table(out, key),
            ))

        k = 3
        for pair in SCHEMED_PAIRS:
            app = (rng.randint(0, 3), rng.randint(0, 3))
            for fmt in ("text", "json"):
                table(str(pair), k, n_small, _tables(builtin_scheme(pair, k), k), fmt, app)
        for pair, n in (("maj-rlp", n_big), ("rb-lpi", n_big - 2)):
            for fmt in ("text", "json"):
                table(pair, 4, n, _tables(builtin_scheme(pair, 4), 4), fmt)
        # generic: schemes given as expressions in i, with seeded constants
        c0, c1, c2 = (rng.randint(0, 3) for _ in range(3))
        exprs = [
            (f"{c0}+{c1}*(i-1)", "i-1", "0",
             lambda i: c0 + c1 * (i - 1), lambda i: i - 1, lambda i: 0),
            (f"{c2}*i*(i-1)/2", "1", "0",
             lambda i: c2 * i * (i - 1) // 2, lambda i: 1, lambda i: 0),
            (f"({c0}+i)*{c1}", "1", "i-1",
             lambda i: (c0 + i) * c1, lambda i: 1, lambda i: i - 1),
        ]
        for ea, eb, ec, *fns in exprs:
            tables = _tables(WeightScheme(k, *fns), k)
            app = (rng.randint(0, 3), rng.randint(0, 3))
            for fmt in ("text", "json"):
                table(f"generic:{ea},{eb},{ec}", k, n_small, tables, fmt, app)
        # generic: schemes given as value tables, A seeded
        value_tables = []
        for b, c in (((0, 1, 2), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)), ((0, 0, 0), (1, 2, 3))):
            a = tuple(rng.randint(0, 3) for _ in range(k))
            stat = "generic:" + ",".join(
                "[" + " ".join(map(str, t)) + "]" for t in (a, b, c)
            )
            value_tables.append((stat, c))
            app = (rng.randint(0, 3), rng.randint(0, 3))
            for fmt in ("text", "json"):
                table(stat, k, n_small, (a, b, c), fmt, app)

        def enum(obj, n, kk, fmt, stat=None):
            argv = ["enumerate", "--n", str(n), "--k", str(kk), "--object", obj,
                    "--format", fmt] + (["--with-stat", stat] if stat else [])
            ops.append(Op(
                f"enumerate {obj} {stat or ''} n={n} k={kk} {fmt}",
                lambda: _call_cli(argv),
                lambda out: self._check_enumerate(out, n, kk, fmt),
            ))

        for kk in (2, 3):
            for fmt in ("text", "json"):
                enum("tilings", n_enum + 2, kk, fmt)
        for family, stat in self.FAMILY_STATS:
            for fmt in ("text", "json"):
                enum(family, n_enum, k, fmt, stat)
        for family in ("lp", "rlp", "prlp", "lpi"):
            enum(family, n_enum, k, "text")

        def det(stat, n, kk, fmt):
            argv = ["det", "--n", str(n), "--k", str(kk), "--stat", stat, "--format", fmt]
            ops.append(Op(
                f"det {stat} n={n} k={kk} {fmt}",
                lambda: _call_cli(argv),
                lambda out: self._check_det(out, fmt),
            ))

        for stat in self.C_ZERO:
            det(stat, 5, 2, "text")
            for fmt in ("text", "json"):
                det(stat, 4, 3, fmt)
        for stat, c in value_tables:
            if not any(c):
                for fmt in ("text", "json"):
                    det(stat, 4, 3, fmt)

        def validate(stat):
            argv = ["validate-scheme", "--k", str(k), "--stat", stat]
            ops.append(Op(f"validate-scheme {stat}", lambda: _call_cli(argv), self._check_validate))

        for pair in SCHEMED_PAIRS:
            validate(str(pair))
        for ea, eb, ec, *_ in exprs:
            validate(f"generic:{ea},{eb},{ec}")

        invalid = [
            "table --n 21 --k 3 --stat maj-lp",
            "table --n 5 --k 3 --stat foo-bar",
            "table --n 5 --k 3 --stat ls-lpi",
            "table --n 5 --k 3 --stat generic:1,2",
            "table --n 5 --k 3 --stat generic:1+,0,0",
            "table --n 5 --k 3 --stat 'generic:[1 2],[0 0 0],[0 0 0]'",
            "table --n 5 --k 3 --stat generic:i/2,0,0",
            "table --n 5 --k 3 --stat generic:-1,0,0",
            "table --n 5 --k 0 --stat maj-lp",
            "table --k 3 --stat maj-lp",
            "table --n 5 --k 3 --stat maj-lp --format xml",
            "table --n 5 --k 3 --stat maj-lp --append x",
            "det --n 3 --k 7 --stat maj-lp",
            "det --n 20 --k 3 --stat maj-lp",
            "enumerate --n 5 --k 3 --object lpi --with-stat inv",
            "enumerate --n -1 --k 3 --object tilings",
            "verify --k 3 --identity all --max-n 0",
            "frobnicate --n 3",
        ]
        for line in invalid:
            argv = shlex.split(line)
            ops.append(Op(f"invalid: {line}", lambda argv=argv: _call_cli(argv), _expect_exit(2)))
        deep = "generic:" + "(" * DEEP_NESTING + "0" + ")" * DEEP_NESTING + ",0,0"
        for argv in (
            ["table", "--n", "5", "--k", "3", "--stat", deep],
            ["table", "--n", "5", "--k", "3", "--stat", deep, "--format", "json"],
            ["det", "--n", "2", "--k", "2", "--stat", deep],
            ["validate-scheme", "--k", "3", "--stat", deep],
        ):
            ops.append(Op(
                f"invalid: {argv[0]} with a scheme nested {DEEP_NESTING} deep",
                lambda argv=argv: _call_cli(argv),
                _expect_exit(2),
            ))
        self.deep_calls = 4
        self.ops = ops

    def _check_table(self, out, key):
        code, _, parsed = out
        if code != 0:
            return f"exit {code}"
        expected = self._expected.get(key)
        if expected is None:
            (a, b, c), k, n, append = key
            w = WeightScheme.from_tables(k, a, b, c)
            expected = tiling.weighted_sum_recursive(n, k, w, AppendSpec(*append))
            self._expected[key] = expected
        if parsed != expected:
            return "table read back differs from weighted_sum_recursive"
        return None

    @staticmethod
    def _check_enumerate(out, n, k, fmt):
        code, text = out
        if code != 0:
            return f"exit {code}"
        if fmt == "json":
            rows = [row["object"] for row in json.loads(text)]
        else:
            rows = text.splitlines()
        want = oracles.kfib(n, k)
        if len(rows) != want or len(set(rows)) != want:
            return f"{len(rows)} rows ({len(set(rows))} distinct), expected {want}"
        return None

    @staticmethod
    def _check_det(out, fmt):
        code, text = out
        if code != 0:
            return f"exit {code}"
        if fmt == "json":
            ok = json.loads(text).get("match") is True
        else:
            lines = text.splitlines()
            ok = len(lines) == 2 and lines[0] == lines[1]
        return None if ok else "exact determinant differs from the closed form"

    @staticmethod
    def _check_validate(out):
        code, text = out
        lines = text.splitlines()
        if code != 0 or not lines or not all(": coherent" in ln for ln in lines):
            return f"exit {code}, expected a coherent verdict"
        return None

    def pass_counters(self, outputs):
        return {
            "cli.stdout_bytes": sum(
                len(out[1].encode()) for out in outputs if isinstance(out, tuple)
            )
        }


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, LongBoard, CliSession)}
