"""Command-line interface.

Verbs: table (print a weighted tiling sum), enumerate (list combinatorial
objects), verify (run identity checks over a grid), det (exact versus closed
form minor determinant), validate-scheme (shift coherence of a scheme).

Exit codes, for every input: 0 success / all checks pass, 1 a check found a
counterexample, 2 usage error, bad input, a size guard refused the request
or memory ran out ("error: out of memory").  Output is byte-identical
across runs for identical flags; --format json switches every verb to the
canonical JSON forms.

Scheme flags accept a built-in statistic pair (inv-lp, inv-rlp, inv-prlp,
maj-lp, maj-rlp, maj-prlp, rb-lpi) or generic:A,B,C where each component is
a bracketed value table like [0 1 3] with one integer per tile length, or an
integer expression in the tile length i of at most LIMITS["expr_len"] (200)
characters.  A component may carry its own label, in either case
(generic:[0 1 3],B=0,c=0), but not another's:

    component := [label] ("[" integers separated by spaces "]" | expr)
    label := "A=" | "B=" | "C="
    expr := term (("+" | "-") term)*
    term := unary (("*" | "/") unary)*
    unary := "-" unary | "(" expr ")" | "i" | digits

Spaces may separate tokens, literals may have leading zeros, and division
must be exact.  The size guards, all in qfib.errors.LIMITS and checked by
_check_limit: --k <= 20; the largest board a verb sums or lists (--n,
--max-n, 2 * --max-n on the convolution grid, n + 2k - 2 for a minor) <= 20;
a minor's k <= 6; validate-scheme --max-n <= 20; --random-schemes <= 1000.
A value below a flag's domain is a DomainError.  QFIB_SEED overrides
--seed, and setting QFIB_CORRUPT_SCHEMES=1 deliberately breaks the shift
coherence of the --random-schemes schemes (a falsifiability hook for
testing the verifiers themselves).
"""

import argparse
import ast
import functools
import operator
import os
import re
import sys
import tempfile

from . import identities, lattice
from .errors import LIMITS, DomainError, QfibError, SizeLimitError
from .layered import (
    FAMILIES,
    SCHEMED_PAIRS,
    STATISTICS,
    StatPair,
    builtin_scheme,
    enumerate_family,
    format_object,
    object_statistic,
)
from .report import IdentityReport, json_object
from .tiling import (
    WeightScheme,
    corrupted_scheme,
    enumerate_tilings,
    random_scheme,
    validate_weight_scheme,
    weighted_sum_recursive,
)

_BUILTIN_NAMES = tuple(str(p) for p in SCHEMED_PAIRS)


# ----------------------------------------------------------------------
# scheme expressions: integer arithmetic in the tile length i

_EXPR_CHARS = frozenset("0123456789i+-*/() ")
_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.floordiv,
}


def _eval_expr(node, i: int, text: str) -> int:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name) and node.id == "i":
        return i
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_expr(node.operand, i, text)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        lhs, rhs = _eval_expr(node.left, i, text), _eval_expr(node.right, i, text)
        if isinstance(node.op, ast.Div) and (rhs == 0 or lhs % rhs):
            raise QfibError(f"scheme expression {text!r} does not divide exactly at i={i}")
        return _EXPR_OPS[type(node.op)](lhs, rhs)
    raise QfibError(f"bad scheme expression {text!r}: {type(node).__name__} not allowed")


def _check_limit(value: int, limit: str, expr: str, low: int = 0):
    """Refuse a value of the flags expr that is below low (DomainError) or
    past LIMITS[limit] (SizeLimitError).  A board's value is the largest
    board the verb sums or lists."""
    if value < low:
        raise DomainError(f"need {expr} >= {low}, got {value}")
    if value > LIMITS[limit]:
        raise SizeLimitError(
            f"{expr} is limited to {LIMITS[limit]} (LIMITS[{limit!r}]), got {value}"
        )


def _compile_expr(text: str):
    """Check an integer expression in the variable i; return it as a callable."""
    s = text.strip()
    _check_limit(len(s), "expr_len", "the length of a scheme expression")
    if not set(s) <= _EXPR_CHARS:
        raise QfibError(f"bad scheme expression {text!r}: use 0-9, i, + - * / ( )")
    # The grammar allows leading zeros (007); Python literals do not.
    s = re.sub(r"\b0+(?=\d)", "", s)
    try:
        tree = ast.parse(s, mode="eval").body
    except (SyntaxError, RecursionError, MemoryError):
        raise QfibError(f"bad scheme expression {text!r}") from None
    return lambda i: _eval_expr(tree, i, text)


def _split_components(text: str) -> list[str]:
    """Split on commas that are not inside brackets."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _component_fn(component: str, k: int, label: str):
    body = component.strip()
    if body[1:2] == "=" and body[0].upper() in "ABC":
        if body[0].upper() != label:
            raise QfibError(f"scheme component {component!r} stands where {label} belongs")
        body = body[2:].strip()
    if body.startswith("["):
        if not body.endswith("]"):
            raise QfibError(f"unclosed value table in {component!r}")
        try:
            values = [int(v) for v in body[1:-1].split()]
        except ValueError:
            raise QfibError(f"value table {component!r} needs integer entries") from None
        if len(values) != k:
            raise QfibError(
                f"value table {component!r} needs {k} entries, got {len(values)}"
            )
        return lambda i: values[i - 1]
    return _compile_expr(body)


def _parse_scheme(text: str, k: int) -> WeightScheme:
    if text in _BUILTIN_NAMES:
        return builtin_scheme(StatPair.parse(text), k)
    if text.startswith("generic:"):
        components = _split_components(text[len("generic:"):])
        if len(components) != 3:
            raise QfibError(
                f"generic scheme needs three comma-separated components, got {text!r}"
            )
        fns = [
            _component_fn(comp, k, label)
            for comp, label in zip(components, "ABC")
        ]
        return WeightScheme(k, *fns, name=text)
    raise QfibError(
        f"unknown scheme {text!r}: expected one of {', '.join(_BUILTIN_NAMES)} "
        "or generic:A,B,C"
    )


def _resolve_schemes(args, k: int) -> list[WeightScheme]:
    schemes = []
    if getattr(args, "stat", None):
        schemes.append(_parse_scheme(args.stat, k))
    count = getattr(args, "random_schemes", 0) or 0
    _check_limit(count, "random_schemes", "--random-schemes")
    if count:
        try:
            seed = int(os.environ.get("QFIB_SEED", args.seed))
        except ValueError:
            raise QfibError("QFIB_SEED must be an integer") from None
        factory = (
            corrupted_scheme
            if os.environ.get("QFIB_CORRUPT_SCHEMES")
            else random_scheme
        )
        schemes.extend(
            factory(k, seed + idx, name=f"{factory.__name__.split('_')[0]}-{seed + idx}")
            for idx in range(count)
        )
    if not schemes:
        schemes = [builtin_scheme(p, k) for p in SCHEMED_PAIRS]
    return schemes


# ----------------------------------------------------------------------
# verbs


def _check_minor(n: int, k: int, flag: str):
    """Refuse the k x k minor of n (read from flag) below n = 1, past
    LIMITS["det_dim"] or with a board n + 2k - 2 past LIMITS["board"]."""
    _check_limit(n, "board", flag, 1)
    _check_limit(k, "det_dim", "--k of a minor")
    _check_limit(n + 2 * k - 2, "board", f"{flag} + 2 * --k - 2")


def _cmd_table(args) -> int:
    _check_limit(args.n, "board", "--n")
    before, after = args.append
    scheme = _parse_scheme(args.stat, args.k)
    poly = weighted_sum_recursive(args.n, args.k, scheme, (before, after))
    print(poly.to_json() if args.format == "json" else poly.format())
    return 0


def _cmd_enumerate(args) -> int:
    _check_limit(args.n, "board", "--n")
    pair = StatPair(args.with_stat, args.object) if args.with_stat else None
    if args.object == "tilings":
        rows = ((",".join(map(str, t.parts)), None) for t in enumerate_tilings(args.n, args.k))
    else:
        rows = (
            (format_object(args.object, obj), object_statistic(pair, obj) if pair else None)
            for obj in enumerate_family(args.object, args.n, args.k)
        )
    # Every check is above, so a refused run writes nothing; from here each
    # row is written as it is made, and nothing grows with F_n.  An object's
    # text holds only digits, ",", "/" and " ", which a JSON string takes as
    # they are.
    out = sys.stdout
    if args.format == "json":
        out.write("[")
        sep = ""
        for text, value in rows:
            stat = "" if value is None else f', "stat": {value}'
            out.write(f'{sep}{{"object": "{text}"{stat}}}')
            sep = ", "
        out.write("]\n")
    else:
        for text, value in rows:
            out.write(f"{text}\n" if value is None else f"{text} {value}\n")
    return 0


def _det_report(n: int, k: int, w: WeightScheme) -> IdentityReport:
    spec = lattice.MinorSpec(n, k)
    return IdentityReport.compare(
        "det",
        {"n": n, "k": k, "scheme": w.name},
        lattice.determinant(lattice.build_minor(spec, w)),
        lattice.closed_form_det(spec, w),
    )


def _verify_reports(args, schemes):
    """Every report --identity asks for, scheme by scheme, made one at a
    time as they are drawn."""
    k, ns = args.k, range(1, args.max_n + 1)
    recursion = lambda w: (identities.verify_recursion(n, k, w) for n in ns)
    convolution = lambda w: (
        identities.verify_convolution(m, n, k, w) for m in ns for n in ns
    )
    kreduce = lambda w: (identities.verify_k_reduction(n, k, w) for n in ns if k >= 2)
    det = lambda w: (_det_report(n, k, w) for n in ns)
    specialized = lambda w: (
        identities.verify_specializations(w.name, args.max_n, k)
        if w.name in _BUILTIN_NAMES
        else []
    )
    verifiers = {
        "recursion": (recursion,),
        "convolution": (convolution,),
        "kreduce": (kreduce,),
        "det": (det,),
        "all": (recursion, convolution, kreduce, det, specialized),
    }[args.identity]
    return (r for w in schemes for verify in verifiers for r in verify(w))


def _cmd_verify(args) -> int:
    _check_limit(args.max_n, "board", "--max-n", 1)
    if args.identity == "kreduce" and args.k < 2:
        raise DomainError("kreduce needs --k >= 2")
    if args.identity in ("convolution", "all"):
        _check_limit(2 * args.max_n, "board", "2 * --max-n (the convolution grid)")
    if args.identity in ("det", "all"):
        _check_minor(args.max_n, args.k, "--max-n")
    schemes = _resolve_schemes(args, args.k)
    # Each report is rendered as it is made and its polynomials dropped:
    # only the sort key (identity, text line) and the verdict stay in
    # memory.  A JSON line carries both polynomials, so it waits in a
    # temporary file, found again by its offset and length; it is ASCII
    # (json.dumps escapes the rest), so its bytes are its characters.
    lines = []
    with tempfile.TemporaryFile() as spool:
        for r in _verify_reports(args, schemes):
            text = r.describe()
            place = None
            if args.format == "json":
                data = r.to_json().encode("ascii")
                place = spool.tell(), len(data)
                spool.write(data)
            lines.append(((r.identity, text), r.passed, place))
        lines.sort(key=operator.itemgetter(0))
        for (_, text), _, place in lines:
            if place is not None:
                spool.seek(place[0])
                text = spool.read(place[1]).decode("ascii")
            print(text)
    failed = next((text for (_, text), passed, _ in lines if not passed), None)
    if failed is not None:
        print(f"verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_det(args) -> int:
    _check_minor(args.n, args.k, "--n")
    scheme = _parse_scheme(args.stat, args.k)
    spec = lattice.MinorSpec(args.n, args.k)
    exact = closed = None
    if args.show in ("exact", "both"):
        exact = lattice.determinant(lattice.build_minor(spec, scheme))
    if args.show in ("closed", "both"):
        closed = lattice.closed_form_det(spec, scheme)
    if args.format == "json":
        payload = {"n": args.n, "k": args.k, "scheme": scheme.name}
        if exact is not None:
            payload["exact"] = exact
        if closed is not None:
            payload["closed"] = closed
        if exact is not None and closed is not None:
            payload["match"] = exact == closed
        print(json_object(payload))
    else:
        if exact is not None:
            print(exact.format())
        if closed is not None:
            print(closed.format())
    if exact is not None and closed is not None and exact != closed:
        print("determinant mismatch: exact != closed form", file=sys.stderr)
        return 1
    return 0


def _cmd_validate_scheme(args) -> int:
    _check_limit(args.max_n, "validate_max_n", "--max-n", 1)
    schemes = _resolve_schemes(args, args.k)
    bad = False
    for w in schemes:
        result = validate_weight_scheme(w, args.max_n)
        print(f"scheme {w.name}: {result}")
        bad = bad or not result.ok
    return 1 if bad else 0


# ----------------------------------------------------------------------
# argument plumbing


def _add_common(sub, *, n=False, k=True, stat=False, fmt=True):
    if n:
        sub.add_argument("--n", type=int, required=True, help="board length")
    if k:
        sub.add_argument("--k", type=int, required=True, help="maximum tile length")
    if stat:
        sub.add_argument(
            "--stat",
            required=stat == "required",
            help="statistic pair or generic:A,B,C scheme",
        )
    if fmt:
        sub.add_argument(
            "--format", choices=("text", "json"), default="text", help="output form"
        )


def _append_pair(text: str):
    before, sep, after = text.partition(",")
    if not sep:
        raise argparse.ArgumentTypeError("expected BEFORE,AFTER")
    try:
        pair = (int(before), int(after))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if pair[0] < 0 or pair[1] < 0:
        raise argparse.ArgumentTypeError("append lengths must be nonnegative")
    return pair


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args leaves it unchanged, and
    building it costs about a millisecond per in-process call of main."""
    parser = argparse.ArgumentParser(
        prog="qfib",
        description="Exact q-analogues of k-Fibonacci numbers from weighted tilings.",
        epilog=(
            "Environment: QFIB_SEED overrides --seed; QFIB_CORRUPT_SCHEMES=1 "
            "corrupts --random-schemes schemes to exercise the verifiers."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("table", help="print a weighted tiling sum")
    _add_common(p, n=True, stat="required")
    p.add_argument(
        "--append",
        type=_append_pair,
        default=(0, 0),
        metavar="BEFORE,AFTER",
        help="untiled board lengths appended before and after",
    )
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("enumerate", help="list tilings or layered objects")
    _add_common(p, n=True)
    p.add_argument(
        "--object",
        required=True,
        choices=("tilings", *FAMILIES),
    )
    p.add_argument(
        "--with-stat",
        choices=STATISTICS,
        help="annotate each object with a statistic",
    )
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="verify identities over a grid")
    _add_common(p, stat=True)
    p.add_argument(
        "--identity",
        required=True,
        choices=("recursion", "convolution", "kreduce", "det", "all"),
    )
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--random-schemes", type=int, default=0, metavar="R")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("det", help="minor determinant, exact and closed form")
    _add_common(p, n=True, stat="required")
    p.add_argument("--show", choices=("closed", "exact", "both"), default="both")
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("validate-scheme", help="check shift coherence of a scheme")
    _add_common(p, stat=True, fmt=False)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--random-schemes", type=int, default=0, metavar="R")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_validate_scheme)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limit(args.k, "k", "--k", 1)
        return args.fn(args)
    except QfibError as exc:
        message = exc
    except MemoryError:
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
