"""Command line front end.

Subcommands:
  compute   evaluate one presentation across levels and methods
  verify    cross-check all applicable methods against each other
  lens      evaluate both lens space routes and their difference
  axioms    datum, representation, and number-theory consistency report

The methods are the routes of invariants.ROUTES.  run_routes runs each
route once per presentation over all the requested levels, and walks the
results level by level, each level's routes in order.  The default,
auto, skips a route that refuses its base or its datum (Unsupported) or
its cost (ComplexityCap) at a level; where every route refuses, the
first route's refusal is the error.  A method named with --method that
refuses exits with code 2, or 3 for a complexity cap: the first refusal
of the walk.  A route that refuses a level refuses every higher level
too (see invariants).  graph_sum's caps are the constants GRAPH_*_CAP of
invariants.  lens_direct is reached only through lens.
Every subcommand prints through emit_records: rows of raw values under
one header, each number rounded to 15 significant digits only where it is
printed, so the gates and the worst case read the raw values.

Each setting is checked once: by argparse (choices, or the type= of
--tolerance) or by the function that consumes it (parse_r_spec for --r,
_method_list and run_routes for --method).  A subcommand takes only the
flags it reads.

Exit codes, mapped from errors in main alone: 0 success, 1 verification
failure (a value that is not finite fails verify and lens), 2 malformed
input or configuration, 3 a request too large (a complexity cap, among
them the int64 phase bounds of cs11 and compact, named with the route and
level as an overflow is, or a value beyond floating-point range: a route
that overflows, or a compute value that is not finite).
Output is byte-identical for identical inputs, options, and seed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import math
import random
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .invariants import (
    ROUTES,
    ComplexityCap,
    Entry,
    InvariantResult,
    Unsupported,
    tau_lens_routes,
)
from .modular import ModularDatum, check_axioms, load_datum, r_rep_generators, sl2_datum
from .seifert import LensSpace, SeifertData, parse_seifert
from .sl2z import b_matrix, dedekind_sum, dedekind_sum_cotangent, rademacher_phi, sign


def parse_r_spec(text: str) -> tuple[int, ...]:
    """"a" or an inclusive range "a..b" of levels r >= 2."""
    t = text.strip()
    if ".." in t:
        lo_s, hi_s = t.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
    else:
        lo = hi = int(t)
    if lo < 2:
        raise ValueError(f"need r >= 2, got {lo}")
    return tuple(range(lo, hi + 1))


def random_seifert(rng: random.Random) -> SeifertData:
    """Seed-controlled random presentation.

    Bounds: both bases, genus <= 2 (>= 1 when non-orientable), at most 3
    exceptional pairs, alpha <= 7, |b| <= 3; normalized and
    non-normalized shapes each with probability one half.
    """
    base = rng.choice(("o", "n"))
    genus = rng.randint(1, 2) if base == "n" else rng.randint(0, 2)
    normalized = rng.random() < 0.5
    pairs = []
    for _ in range(rng.randint(0, 3)):
        if normalized:
            alpha = rng.randint(2, 7)
            beta = rng.choice(
                [x for x in range(1, alpha) if math.gcd(x, alpha) == 1]
            )
        else:
            alpha = rng.randint(1, 7)
            beta = rng.choice(
                [
                    x
                    for x in range(-7, 8)
                    if math.gcd(abs(x), alpha) == 1 and (x != 0 or alpha == 1)
                ]
            )
        pairs.append((alpha, beta))
    b = rng.randint(-3, 3) if normalized else None
    return SeifertData(base, genus, b, tuple(pairs))


def evaluate(method: str, r: int, entry: Entry) -> InvariantResult:
    """A route's entry at level r: its result, or what it raised there,
    raised again; an overflow, or an int64 bound's cap raised from one,
    names the route and the level."""
    if not isinstance(entry, Exception):
        return entry
    if isinstance(entry, OverflowError) or isinstance(entry.__cause__, OverflowError):
        raise type(entry)(f"{method} at r = {r}: {entry}") from None
    raise entry


def run_routes(
    data: SeifertData,
    levels: tuple[int, ...],
    methods: tuple[str, ...],
    datum: ModularDatum | None = None,
) -> list[list[InvariantResult]]:
    """The requested methods at each of the ascending levels, one row per
    level, each row in method order.

    Every name is checked before any route runs.  Each route runs once
    over all the levels, when the walk over (level, route) first reaches
    it.  "auto" tries every route of ROUTES and skips one that refuses its
    base, its datum or its cost at a level; where every route refuses, the
    first route's refusal is raised.  A method named explicitly lets its
    refusal propagate: the first in the walk.
    """
    auto = methods == ("auto",)
    names = tuple(ROUTES) if auto else methods
    for name in names:
        if name not in ROUTES:
            raise ValueError(f"unknown method {name!r}")
    sweeps: dict[str, list[Entry]] = {}
    rows = []
    for i, r in enumerate(levels):
        row = []
        refusals = []
        for name in names:
            if name not in sweeps:
                sweeps[name] = ROUTES[name](levels, datum, data)
            try:
                row.append(evaluate(name, r, sweeps[name][i]))
            except (ComplexityCap, Unsupported) as exc:
                if not auto:
                    raise
                refusals.append(exc)
        if not row:
            raise refusals[0]
        rows.append(row)
    return rows


def _max_gap(values: list[complex]) -> float:
    """Largest pairwise difference (0 for fewer than two values), or nan
    when a value is not finite.  Every gate is a `<` test, which nan and
    inf fail; worst cases are taken with np.max, which keeps a nan."""
    if not all(map(cmath.isfinite, values)):
        return math.nan
    return max((abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]), default=0.0)


RESULT_COLUMNS = ("r", "method", "re", "im", "abs", "phase", "sigma", "tolerance")
LENS_COLUMNS = ("r", "method", "route", "re", "im", "abs", "phase", "sigma", "diff")
VERIFY_COLUMNS = ("input", "r", "methods", "max_diff", "ok")
AXIOMS_COLUMNS = ("r", "check", "residual", "ok")


def result_record(res: InvariantResult) -> tuple:
    """res as a row under RESULT_COLUMNS."""
    val = res.value
    return (res.r, res.method, val.real, val.imag, abs(val), cmath.phase(val),
            res.sigma_used, res.tolerance_estimate)


def emit_records(
    columns: tuple[str, ...],
    rows: list[tuple],
    output: str,
    summary: dict | None = None,
    text: str | None = None,
    footer: str | None = None,
) -> None:
    """Print a non-empty list of rows, tuples of flat values (None, a bool,
    a number or a string) under the non-empty header columns, as records.

    A float prints as its 15 significant digits "%.15g" % x in text and
    CSV, and in JSON as json.dumps writes that rounded float.  JSON is
    json.dumps(doc, indent=1) for doc = the records, or {**summary, "rows":
    records} when a summary is given.  Text is an aligned table, or
    text.format(**record, mark=...) per row when a row format is given
    (mark is ok or FAIL from the record's ok), followed by the footer.
    """
    if output == "json":
        pad = " " if summary is None else "  "  # the indent of a record's brackets
        row_format = _row_format(columns, pad)
        out = "[\n" + ",\n".join([row_format % tuple(map(_token, row)) for row in rows]) + f"\n{pad[1:]}]"
        if summary is not None:  # a "rows" key of summary keeps its place
            items = {**summary, "rows": None}.items()
            fields = [f" {_token(k)}: {out if k == 'rows' else _token(v)}" for k, v in items]
            out = "{\n" + ",\n".join(fields) + "\n}"
        print(out)
        return
    if output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return
    if text is not None:
        for row in rows:
            # a format that rounds again, as .3e does, rounds the 15 digits
            record = {k: float(_cell(v)) if isinstance(v, float) else v for k, v in zip(columns, row)}
            print(text.format(**record, mark="ok" if record["ok"] else "FAIL"))
    else:
        cells = [columns, *([_cell(v) for v in row] for row in rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        for line in cells:
            print(" ".join(c.rjust(w) for c, w in zip(line, widths)))
    if footer is not None:
        print(footer)


@functools.lru_cache(maxsize=16)
def _row_format(columns: tuple[str, ...], pad: str) -> str:
    """A record's JSON text at indent pad, with %s for each value."""
    keys = [encode_basestring_ascii(k).replace("%", "%%") for k in columns]
    return f"{pad}{{\n" + ",\n".join(f"{pad} {k}: %s" for k in keys) + f"\n{pad}}}"


_NOT_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _token(v) -> str:
    """A flat value as json.dumps writes it, a float rounded to 15 digits.

    Distinct decimals of at most 15 digits are distinct doubles, so the
    repr of the rounded float has the digits of s = "%.15g" % v and differs
    from s in form only: ".0" after an integral value, and fixed notation
    in 1e15 <= |v| < 1e16 where %g has an exponent.  A 3-digit exponent
    takes the repr too: s may round beyond the largest double, and the
    guarantee fails for subnormals.
    """
    if isinstance(v, float):
        s = "%.15g" % v
        if "e" in s and (s[-4:] == "e+15" or s[-5] == "e"):
            s = repr(float(s))
        if "." in s or "e" in s:
            return s
        return _NOT_FINITE.get(s) or s + ".0"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return int.__repr__(v)


def _cell(val) -> str:
    if val is None:
        return "-"
    if isinstance(val, float):
        return "%.15g" % val
    return str(val)


def _method_list(args) -> tuple[str, ...]:
    entries = args.method or ["auto"]
    methods = tuple(m.strip() for entry in entries for m in entry.split(",") if m.strip())
    if not methods:
        raise ValueError("--method names no route")
    return methods


VERIFY_TEXT = "{input}  r={r}  methods={methods}  max_diff={max_diff:.15g}  {mark}"
AXIOMS_TEXT = "r={r:<4} {check:<42} {residual:.3e}  {mark}"


def cmd_compute(args) -> int:
    data = parse_seifert(args.seifert)
    r_values = parse_r_spec(args.r)
    datum = load_datum(args.datum) if args.datum else None
    if datum is not None:
        r_values = (datum.n_labels + 1,)  # the datum fixes r; --r is still checked
    methods = _method_list(args)
    results = [res for row in run_routes(data, r_values, methods, datum) for res in row]
    for res in results:
        if not cmath.isfinite(res.value):
            raise OverflowError(f"{res.method} at r = {res.r}: value beyond floating-point range")
    emit_records(RESULT_COLUMNS, [result_record(res) for res in results], args.format)
    return 0


def cmd_verify(args) -> int:
    r_values = parse_r_spec(args.r)
    if args.random is not None:
        if args.seifert is not None:
            raise ValueError("give either a presentation or --random, not both")
        if args.random < 1:
            raise ValueError(f"--random needs N >= 1, got {args.random}")
        rng = random.Random(args.seed)
        inputs = [random_seifert(rng) for _ in range(args.random)]
    elif args.seifert is None:
        raise ValueError("need a presentation or --random N")
    else:
        inputs = [parse_seifert(args.seifert)]
    rows = []
    diffs = []
    for data in inputs:
        for r, row in zip(r_values, run_routes(data, r_values, ("auto",))):
            values = [res.value for res in row]
            diff = _max_gap(values)
            diffs.append(diff)
            rows.append((str(data), r, len(values), diff, diff < args.tolerance))
    worst = float(np.max(diffs))
    ok = worst < args.tolerance
    emit_records(
        VERIFY_COLUMNS,
        rows,
        args.format,
        summary={"ok": ok, "worst": worst},
        text=VERIFY_TEXT,
        footer=f"{'VERIFY OK' if ok else 'VERIFY FAIL'} worst={worst:.15g} over {len(inputs)} input(s)",
    )
    return 0 if ok else 1


def cmd_lens(args) -> int:
    r_values = parse_r_spec(args.r)
    lens = LensSpace(args.p, args.q)
    records = []
    diffs = []
    for r in r_values:
        v1, v2, sigma = tau_lens_routes(r, lens)
        diff = _max_gap([v1, v2])
        diffs.append(diff)
        for route, val in (("matrix", v1), ("chain", v2)):
            records.append((r, "lens_direct", route, val.real, val.imag, abs(val), cmath.phase(val), sigma, diff))
    emit_records(LENS_COLUMNS, records, args.format)
    return 0 if np.max(diffs) < args.tolerance else 1


def cmd_axioms(args) -> int:
    r_values = parse_r_spec(args.r)
    datum = load_datum(args.datum) if args.datum else None
    rows = []

    def add(r_label, kind: str, name: str, residual: float) -> None:
        rows.append((r_label, f"{kind}.{name}", residual, residual < args.tolerance))

    for dm in [datum] if datum is not None else [sl2_datum(r) for r in r_values]:
        for name, residual in check_axioms(dm).items():
            add(dm.n_labels + 1, "axiom", name, residual)
    if datum is None:
        for r in r_values:
            gen = r_rep_generators(r)
            eye = np.eye(r - 1)
            xi2 = float(np.max(np.abs(gen.xi @ gen.xi - eye)))
            txi = gen.theta_diag[:, None] * gen.xi
            cube = txi @ txi @ txi
            txi3 = float(np.max(np.abs(cube - eye)))
            unit = float(np.max(np.abs(gen.xi @ gen.xi.conj().T - eye)))
            add(r, "rep", "xi_squared", xi2)
            add(r, "rep", "theta_xi_cubed", txi3)
            add(r, "rep", "xi_unitary", unit)
    ded = 0.0
    for q in range(1, 31):
        for s in range(1, q + 1):
            if math.gcd(s, q) != 1:
                continue
            ded = max(ded, abs(float(dedekind_sum(s, q)) - dedekind_sum_cotangent(s, q)))
    add("-", "numbers", "dedekind_recursion_vs_cotangent", ded)
    rng = random.Random(7)
    coc = 0
    for _ in range(50):
        mats = [
            b_matrix([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            for _ in range(2)
        ]
        a1, a2 = mats
        a3 = a1 * a2
        lhs = rademacher_phi(a3)
        rhs = rademacher_phi(a1) + rademacher_phi(a2) - 3 * sign(a1.c * a2.c * a3.c)
        coc = max(coc, abs(lhs - rhs))
    add("-", "numbers", "rademacher_cocycle", float(coc))
    ok = all(row[-1] for row in rows)
    emit_records(
        AXIOMS_COLUMNS,
        rows,
        args.format,
        summary={"ok": ok},
        text=AXIOMS_TEXT,
        footer="AXIOMS OK" if ok else "AXIOMS FAIL",
    )
    return 0 if ok else 1


def _positive_float(text: str) -> float:
    if not float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return float(text)


def _add_common(sp, tolerance=False, datum=False) -> None:
    """--r and --format, plus the flags the subcommand reads."""
    sp.add_argument("--r", default="3..10", help="level r or inclusive range a..b")
    sp.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    if tolerance:
        sp.add_argument("--tolerance", type=_positive_float, default=1e-9, help="agreement gate")
    if datum:
        sp.add_argument("--datum", default=None, help="JSON modular datum file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="seifert-rt",
        description="Quantum invariants of Seifert fibered 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compute", help="evaluate one presentation")
    sp.add_argument("seifert", help="presentation, e.g. 'o;g=0;b=-1;2/1,3/1,5/1'")
    sp.add_argument(
        "--method",
        action="append",
        help=f"comma-separated methods ({','.join(ROUTES)}) or 'auto' (default)",
    )
    _add_common(sp, datum=True)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("verify", help="cross-check methods against each other")
    sp.add_argument("seifert", nargs="?", default=None, help="presentation string")
    sp.add_argument("--random", type=int, default=None, metavar="N", help="verify N random presentations")
    sp.add_argument("--seed", type=int, default=0, help="seed for --random")
    _add_common(sp, tolerance=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("lens", help="both lens space routes")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    _add_common(sp, tolerance=True)
    sp.set_defaults(func=cmd_lens)

    sp = sub.add_parser("axioms", help="datum and identity residual report")
    _add_common(sp, tolerance=True, datum=True)
    sp.set_defaults(func=cmd_axioms)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        # a value beyond floating-point range is caught where it is read:
        # compute exits 3 on it, and verify, lens and axioms fail their gate
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ComplexityCap, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
