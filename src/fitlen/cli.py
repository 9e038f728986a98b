"""Command-line front end.

Subcommands build groups from the expression language, compute the
invariants, reproduce the built-in example families, and emit bound
reports.  Output on stdout is deterministic: identical arguments and
tool version produce byte-identical documents (phase timings go to
stderr).  Exit codes: 0 success, 1 usage error, 2 bound violation,
claim mismatch or failed order check of a constructed group or Hall
subgroup, each of which is an implementation bug since the bounds are
theorems.  A failed order check leaves stdout empty.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import __version__
from .bounds import check_all, enumerate_covers
from .config import DEFAULT_LIMITS, Limits
from .construct import (NATURAL, REGULAR, Cyclic, Direct, Iterated, Wreath,
                        build, expr_to_text, parse_expr)
from .errors import FitlenError, SylowSystemError, UsageError
from .hall import (canonical_sigma, frak_h, hall_profile, hall_subgroup,
                   verify_sylow_system)
from .oracle import (check_nilpotent_triple_product, check_trifactorization,
                     enumerate_group)
from .perms import parse_cycles

OK = 0
USAGE = 1
VIOLATION_EXIT = 2


# -- deterministic documents -------------------------------------------------

class Document:
    """An ordered key/value document with one optional aligned table."""

    def __init__(self):
        self.pairs: list[tuple[str, str]] = []
        self.columns: list[str] = []
        self.rows: list[list[str]] = []
        self.notes: list[str] = []

    def add(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def table(self, columns: list[str]) -> None:
        self.columns = columns

    def row(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self, fmt: str) -> str:
        if fmt == "kv":
            return self._render_kv()
        return self._render_table()

    def _render_kv(self) -> str:
        lines = ["%s = %s" % (k, v) for k, v in self.pairs]
        for i, row in enumerate(self.rows, 1):
            for col, cell in zip(self.columns, row):
                lines.append("entry.%d.%s = %s" % (i, col, cell))
        for i, text in enumerate(self.notes, 1):
            lines.append("note.%d = %s" % (i, text))
        return "\n".join(lines) + "\n"

    def _render_table(self) -> str:
        lines = []
        if self.pairs:
            width = max(len(k) for k, _ in self.pairs)
            for k, v in self.pairs:
                lines.append("%-*s  %s" % (width, k, v))
        if self.rows:
            lines.append("")
            widths = [len(c) for c in self.columns]
            for row in self.rows:
                for i, cell in enumerate(row):
                    widths[i] = max(widths[i], len(cell))
            header = "  ".join("%-*s" % (w, c)
                               for w, c in zip(widths, self.columns))
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append("  ".join("%-*s" % (w, c)
                                       for w, c in zip(widths, row)))
        if self.notes:
            lines.append("")
            lines.extend(self.notes)
        return "\n".join(lines) + "\n"


def _factored_text(factored: dict[int, int]) -> str:
    if not factored:
        return "1"
    parts = []
    for p in sorted(factored):
        e = factored[p]
        parts.append("%d^%d" % (p, e) if e > 1 else "%d" % p)
    return " * ".join(parts)


def _fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%s (floor %d)" % (value, value.numerator // value.denominator)


def _sigma_text(sigma) -> str:
    return ",".join(str(p) for p in sigma)


class _Timer:
    def __init__(self):
        self.phases: list[tuple[str, float]] = []
        self._last = time.perf_counter()

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        self.phases.append((phase, now - self._last))
        self._last = now

    def report(self) -> None:
        text = " ".join("%s=%.2fs" % (name, secs) for name, secs in self.phases)
        if text:
            print("timings: " + text, file=sys.stderr)


def _head(doc: Document, command: str, args) -> None:
    doc.add("tool", "fitlen %s" % __version__)
    doc.add("command", command)
    if getattr(args, "expr", None) is not None:
        doc.add("expression", expr_to_text(args.expr))
    doc.add("action", args.action)
    if getattr(args, "ell", None) is not None:
        doc.add("ell", args.ell)
    doc.add("max-degree", args.max_degree)
    doc.add("oracle-cap", args.oracle_cap)


def _limits(args):
    return Limits(max_degree=args.max_degree, oracle_cap=args.oracle_cap)


def _build_from_args(args):
    return build(args.expr, default_action=args.action, limits=_limits(args))


def _describe_group(doc: Document, cg) -> None:
    doc.add("degree", cg.degree)
    doc.add("order", cg.order)
    doc.add("order-factored", _factored_text(cg.group.factored_order))
    doc.add("primes", _sigma_text(cg.primes))
    doc.add("w", cg.num_primes)


# -- subcommands ---------------------------------------------------------------
# Each fills the document main() has headed and returns its exit code;
# main() prints the document and the timings.

def cmd_build(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    _describe_group(doc, cg)
    report = verify_sylow_system(cg)
    doc.table(["check", "primes", "expected", "actual", "status"])
    for label, checks in (("sylow-order", report.prime_checks),
                          ("pair-join", report.pair_checks)):
        for c in checks:
            doc.row(label, _sigma_text(c.primes), c.expected, c.actual, "ok")
    timer.mark("sylow-checks")
    return OK


def cmd_fitting(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    profile = hall_profile(cg, [cg.primes])
    doc.add("degree", cg.degree)
    doc.add("order", cg.order)
    doc.add("h", profile.h(cg.primes))
    timer.mark("fitting")
    return OK


def cmd_hall(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    sigma = _parse_sigma(args.sigma)
    key = canonical_sigma(cg, sigma)
    sub = hall_subgroup(cg, sigma)
    profile = hall_profile(cg, [sigma])
    doc.add("sigma", _sigma_text(sigma))
    doc.add("sigma-effective", _sigma_text(key))
    doc.add("hall-order", sub.order)
    doc.add("h", profile.h(sigma))
    timer.mark("hall")
    return OK


def cmd_frak(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    value = frak_h(cg, args.size)
    doc.add("subset-size", args.size)
    doc.add("frak-h", value)
    timer.mark("frak")
    return OK


def cmd_covers(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    doc.add("primes", _sigma_text(cg.primes))
    w = cg.num_primes
    # no cover has more than w + 1 members (see bounds.check_all)
    t_max = w + 1 if args.t_max is None else min(args.t_max, w + 1)
    doc.table(["t", "members", "degenerate"])
    count = 0
    for t in range(3, t_max + 1):
        for cover in enumerate_covers(cg.primes, t):
            doc.row(t, str(cover), "yes" if cover.degenerate else "no")
            count += 1
    doc.add("covers", count)
    timer.mark("covers")
    return OK


def _emit_bound_report(doc: Document, report) -> None:
    doc.add("h", report.h_actual)
    doc.table(["name", "inputs", "value", "bounded", "slack", "status"])
    for e in report.entries:
        doc.row(e.name, e.inputs,
                "-" if e.value is None else _fraction_text(e.value),
                "-" if e.bounded is None else e.bounded,
                "-" if e.slack is None else _fraction_text(e.slack),
                e.status)
    doc.add("lambda-sweep", "pass" if report.lambda_sweep_passed else "VIOLATION")
    doc.add("overall", "pass" if report.overall_pass else "VIOLATION")


def cmd_check(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    _describe_group(doc, cg)
    report = check_all(cg, t_max=args.t_max)
    timer.mark("check")
    _emit_bound_report(doc, report)
    return OK if report.overall_pass else VIOLATION_EXIT


# -- example families ----------------------------------------------------------

_P, _Q, _R, _S = 2, 3, 5, 7


def _family_expr(key: str, ell: int, action: str = NATURAL):
    P, Q, R = Cyclic(_P, 1), Cyclic(_Q, 1), Cyclic(_R, 1)

    def wr(base, top):
        return Wreath(base, top, action)

    if key == "3.2a":
        return wr(P, Iterated(wr(Q, R), ell))
    if key == "3.2b":
        return Direct(P, Iterated(wr(Q, R), ell))
    if key == "3.3":
        return wr(Iterated(wr(P, Q), ell), Iterated(wr(R, Q), ell))
    if key == "3.4":
        return wr(wr(Iterated(wr(P, Q), ell), Iterated(wr(R, P), ell)),
                  Iterated(wr(Q, R), ell))
    return None


def _family_claims(key: str, ell: int):
    """Claimed profile values: h, then h at each complement, then theta-2."""
    if key == "3.2a":
        return {"h": 2 * ell + 1, "h'%d" % _P: 2 * ell, "h'%d" % _Q: 2,
                "h'%d" % _R: 2, "theta-2": 2 * ell + 2}
    if key == "3.2b":
        return {"h": 2 * ell, "h'%d" % _P: 2 * ell, "h'%d" % _Q: 1,
                "h'%d" % _R: 1, "theta-2": 2 * ell}
    if key == "3.3":
        return {"h": 4 * ell, "h'%d" % _P: 2 * ell + 1, "h'%d" % _Q: 2,
                "h'%d" % _R: 2 * ell, "theta-2": 4 * ell + 1}
    if key == "3.4":
        return {"h": 6 * ell, "h'%d" % _P: 2 * ell + 2, "h'%d" % _Q: 2 * ell + 2,
                "h'%d" % _R: 2 * ell + 2, "theta-2": 6 * ell + 4}
    raise UsageError("unknown example family %r" % key)


def _group_level_allowed(key: str, ell: int) -> bool:
    # group-scale runs are pinned per family; everything else is
    # arithmetic-only regardless of the degree budget
    return ell == 1 and key in ("3.2a", "3.2b", "3.3", "3.4")


def cmd_example(args, doc: Document, timer: _Timer) -> int:
    key = args.family
    ell = args.ell if args.ell is not None else 1
    if ell < 1:
        raise UsageError("ell must be at least 1")
    doc.add("family", key)
    doc.add("ell-used", ell)
    if key == "3.5-arith":
        _example_35_arith(doc, ell)
        return OK

    claims = _family_claims(key, ell)
    if not _group_level_allowed(key, ell):
        doc.add("mode", "arithmetic-only")
        doc.note("group-level run not feasible at this scale; "
                 "claimed formulas instantiated and checked numerically")
        _example_arith_only(doc, key, ell, claims)
        return OK

    doc.add("mode", "group")
    expr = _family_expr(key, ell, args.action)
    doc.add("expression", expr_to_text(expr))
    cg = build(expr, default_action=args.action, limits=_limits(args))
    timer.mark("build")
    _describe_group(doc, cg)
    primes = cg.primes
    complements = {p: tuple(q for q in primes if q != p) for p in primes}
    subsets = [primes] + [complements[p] for p in primes]
    profile = hall_profile(cg, subsets)
    timer.mark("profile")
    measured = {"h": profile.h(primes)}
    for p in primes:
        measured["h'%d" % p] = profile.h(complements[p])
    measured["theta-2"] = sum(measured["h'%d" % p] for p in primes) - 2

    mismatched = [n for n, want in claims.items() if measured[n] != want]
    doc.table(["quantity", "claimed", "measured", "status"])
    for name, want in claims.items():
        doc.row(name, want, measured[name],
                "MISMATCH" if name in mismatched else "ok")
    report = check_all(cg, t_max=args.t_max)
    timer.mark("check")
    doc.add("bounds-overall", "pass" if report.overall_pass else "VIOLATION")
    for e in report.violations:
        doc.note("bound violation: %s %s" % (e.name, e.inputs))
    return VIOLATION_EXIT if mismatched or report.violations else OK


def _example_arith_only(doc: Document, key: str, ell: int, claims) -> None:
    doc.table(["quantity", "claimed", "measured", "status"])
    for name, want in claims.items():
        doc.row(name, want, "-", "-")
    h = claims["h"]
    theta2 = claims["theta-2"]
    doc.note("cover bound: theta-2 = %d >= h = %d: %s"
             % (theta2, h, "ok" if h <= theta2 else "FALSE"))
    if key == "3.4":
        pair = 2 * (2 * ell + 2) - 1
        rel = "<=" if h <= pair else ">"
        doc.note("top-two comparison: h = %d %s %d = "
                 "sum of two largest complements - 1" % (h, rel, pair))
        if h > pair:
            doc.note("three primes only: the top-two bound fails here, "
                     "so it cannot extend below four primes")


def _example_35_arith(doc: Document, ell: int) -> None:
    doc.add("mode", "arithmetic-only")
    doc.note("group-level run not feasible at this scale; "
             "claimed formulas instantiated and checked numerically")
    h = 12 * ell
    hp = 4 * ell + 3
    hq = 4 * ell + 2
    hpq = 4 * ell + 2
    doc.table(["quantity", "claimed", "measured", "status"])
    doc.row("h", h, "-", "-")
    doc.row("h'%d" % _P, hp, "-", "-")
    doc.row("h'%d" % _Q, hq, "-", "-")
    doc.row("h{%d,%d}" % (_P, _Q), hpq, "-", "-")
    triple = hp + hq + hpq - 2
    doc.note("covering-triple value: %d = 12*ell+5: %s; h <= it: %s"
             % (triple, "ok" if triple == 12 * ell + 5 else "FALSE",
                "ok" if h <= triple else "FALSE"))
    quad = 12 * ell + 2
    doc.note("half-weight of the four-complement cover: %d = 12*ell+2; "
             "h <= it: %s" % (quad, "ok" if h <= quad else "FALSE"))
    rest = 2 * quad + 2 - hp - hq
    doc.note("implied h'%d + h'%d = %d" % (_R, _S, rest))


def cmd_conjecture(args, doc: Document, timer: _Timer) -> int:
    cg = _build_from_args(args)
    timer.mark("build")
    T = enumerate_group(cg.group, _limits(args))
    timer.mark("enumerate")
    degree = cg.degree

    def gens_of(text: str):
        gens = []
        for part in text.split(";"):
            if not part.strip():
                continue
            perm = parse_cycles(part, degree)
            key = tuple(int(x) for x in perm.images)
            if key not in T.index:
                raise UsageError(
                    "generator %s is not an element of the built group" % perm)
            gens.append(key)
        return gens

    if args.n1 is not None or args.n2 is not None or args.n3 is not None:
        if None in (args.n1, args.n2, args.n3):
            raise UsageError("triple-product mode needs --n1, --n2 and --n3")
        rep = check_nilpotent_triple_product(
            T, gens_of(args.n1), gens_of(args.n2), gens_of(args.n3))
        doc.add("kind", "nilpotent-triple-product")
        doc.add("orders", ",".join(str(o) for o in rep.orders))
        doc.add("triple-product-order", rep.triple_product_order)
        doc.add("pairwise-permutable", rep.pairwise_permutable)
        doc.add("all-nilpotent", rep.all_nilpotent)
        doc.add("hypothesis-met", rep.hypothesis_met)
        if rep.hypothesis_met:
            doc.add("pair-h", ",".join(str(h) for h in rep.pair_h))
            doc.add("h", rep.h_g)
            doc.add("bound", rep.bound_value)
            doc.add("inequality-holds", rep.inequality_holds)
    else:
        if None in (args.H, args.K, args.L):
            raise UsageError("trifactorization mode needs --H, --K and --L")
        rep = check_trifactorization(
            T, gens_of(args.H), gens_of(args.K), gens_of(args.L))
        doc.add("kind", "trifactorization")
        doc.add("orders", ",".join(str(o) for o in rep.orders))
        doc.add("product-orders", ",".join(str(o) for o in rep.product_orders))
        doc.add("hypothesis-met", rep.hypothesis_met)
        doc.add("all-nilpotent", rep.all_nilpotent)
        if rep.hypothesis_met:
            doc.add("h-values", ",".join(str(h) for h in rep.h_values))
            doc.add("bound", rep.bound_value)
            doc.add("inequality-holds", rep.inequality_holds)
            if rep.kegel_confirmed is not None:
                doc.add("nilpotent-factors-imply-nilpotent", rep.kegel_confirmed)
    timer.mark("harness")
    return OK


def _parse_sigma(text: str):
    try:
        return tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        raise UsageError("bad prime set %r; expected comma-separated integers"
                         % text) from None


# -- argument parsing ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(USAGE)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fitlen",
                     description="Fitting-length bounds toolkit for "
                                 "soluble permutation groups")
    parser.add_argument("--version", action="version",
                        version="fitlen %s" % __version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, positional="expression", **kwargs):
        p = subs.add_parser(name, help=help)
        p.add_argument(positional, **kwargs)
        p.set_defaults(func=func)
        return p

    command("build", cmd_build, "build a group and check its Sylow system")
    command("fitting", cmd_fitting, "Fitting length of a built group")
    p = command("hall", cmd_hall, "Hall subgroup data for a prime set")
    p.add_argument("--sigma", required=True,
                   help="comma-separated primes, e.g. 2,3")
    p = command("frak", cmd_frak, "largest Hall Fitting length at one size")
    p.add_argument("--size", type=int, required=True,
                   help="prime-subset size")
    p = command("covers", cmd_covers, "enumerate covers of the prime set")
    p.add_argument("--t-max", type=int, default=None)
    p = command("check", cmd_check, "evaluate every applicable bound")
    p.add_argument("--t-max", type=int, default=None)
    p = command("example", cmd_example, "reproduce a built-in example family",
                "family", choices=["3.2a", "3.2b", "3.3", "3.4", "3.5-arith"])
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--ell", type=int, default=None,
                   help="iteration depth of the family (default 1)")
    p = command("conjecture", cmd_conjecture,
                "trifactorization harness on a tiny built group")
    p.add_argument("--H", help="generators of H, cycle notation, ';'-separated")
    p.add_argument("--K", help="generators of K")
    p.add_argument("--L", help="generators of L")
    p.add_argument("--n1", help="generators of N1 (triple-product mode)")
    p.add_argument("--n2", help="generators of N2")
    p.add_argument("--n3", help="generators of N3")

    for p in subs.choices.values():
        p.add_argument("--action", choices=[NATURAL, REGULAR], default=NATURAL,
                       help="wreath action used by IT() and example families")
        p.add_argument("--max-degree", type=int,
                       default=DEFAULT_LIMITS.max_degree)
        p.add_argument("--oracle-cap", type=int,
                       default=DEFAULT_LIMITS.oracle_cap)
        p.add_argument("--format", choices=["table", "kv"], default="table")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: it fills the document, main prints it.

    Nothing reaches stdout when the subcommand fails.
    """
    args = make_parser().parse_args(argv)
    doc = Document()
    timer = _Timer()
    try:
        # parsed inside the handler, so that a parse error exits 1
        if getattr(args, "expression", None) is not None:
            args.expr = parse_expr(args.expression)
        _head(doc, args.subcommand, args)
        code = args.func(args, doc, timer)
    except FitlenError as exc:
        print("fitlen: %s" % exc, file=sys.stderr)
        return VIOLATION_EXIT if isinstance(exc, SylowSystemError) else USAGE
    sys.stdout.write(doc.render(args.format))
    timer.report()
    return code


if __name__ == "__main__":
    sys.exit(main())
