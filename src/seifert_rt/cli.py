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
too (see invariants).  graph_sum's caps are fixed in tau_graph_sum.
lens_direct is reached only through lens.
Every subcommand prints through emit_records.

Each setting is checked once: by argparse (choices, or the type= of
--tolerance) or by the function that consumes it (parse_r_spec for --r,
_method_list and run_routes for --method).  A subcommand takes only the
flags it reads.

Exit codes, mapped from errors in main alone: 0 success, 1 verification
failure (a value that is not finite fails verify and lens), 2 malformed
input or configuration, 3 a request too large (a complexity cap, or a
value beyond floating-point range: a route that overflows, named with
its level, or a compute value that is not finite).
Output is byte-identical for identical inputs, options, and seed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import random
import sys

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


def f15(x: float) -> float:
    """Round-trip through 15 significant digits for stable output."""
    return float(f"{x:.15g}")


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
    raised again; an overflow names the route and the level."""
    if isinstance(entry, OverflowError):
        raise OverflowError(f"{method} at r = {r}: {entry}") from None
    if isinstance(entry, Exception):
        raise entry
    return entry


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


def _value_fields(val: complex) -> dict:
    return {
        "re": f15(val.real),
        "im": f15(val.imag),
        "abs": f15(abs(val)),
        "phase": f15(cmath.phase(val)),
    }


def result_record(res: InvariantResult) -> dict:
    return {
        "r": res.r,
        "method": res.method,
        **_value_fields(res.value),
        "sigma": res.sigma_used,
        "tolerance": f15(res.tolerance_estimate),
    }


def emit_records(
    rows: list[dict],
    output: str,
    summary: dict | None = None,
    text: str | None = None,
    footer: str | None = None,
) -> None:
    """Print a non-empty list of records in the output format; the columns
    are the keys of the first record, in order.

    JSON is the list of rows, or {**summary, "rows": rows} when a summary
    is given.  Text is an aligned table, or text.format(**row, mark=...)
    per row when a row format is given (mark is ok or FAIL from the row's
    ok), followed by the footer.
    """
    columns = list(rows[0])
    if output == "json":
        print(json_text(rows, summary))
        return
    if output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
        return
    if text is not None:
        for row in rows:
            print(text.format(**row, mark="ok" if row["ok"] else "FAIL"))
    else:
        widths = {k: max([len(k)] + [len(_cell(row[k])) for row in rows]) for k in columns}
        print(" ".join(k.rjust(widths[k]) for k in columns))
        for row in rows:
            print(" ".join(_cell(row[k]).rjust(widths[k]) for k in columns))
    if footer is not None:
        print(footer)


def json_text(rows: list[dict], summary: dict | None = None) -> str:
    """json.dumps(doc, indent=1) for doc = rows, or {**summary, "rows": rows}
    when a summary is given, through json's C encoder, which indent turns off.

    rows is a non-empty list of non-empty records, and records and summary
    are flat: every value is None, a bool, a number or a string.  So one
    encoding of all rows, whose item separator carries the newline and the
    indent of a key, leaves only the brackets of each row to place, and the
    summary likewise.  An encoded JSON string never holds a raw newline, so
    the row boundary "},\n" cannot occur inside one.  A summary with its own
    key "rows", which keeps that key's place, goes through the indenting
    encoder.
    """
    if summary is not None and "rows" in summary:
        return json.dumps({**summary, "rows": rows}, indent=1)
    pad = " " if summary is None else "  "  # the indent of a row's brackets
    body = json.dumps(rows, separators=(",\n" + pad + " ", ": "))[2:-2]
    body = body.replace("},\n" + pad + " {", f"\n{pad}}},\n{pad}{{\n{pad} ")
    text = f"[\n{pad}{{\n{pad} {body}\n{pad}}}\n{pad[1:]}]"
    if summary is None:
        return text
    # the summary's items and the "rows" key, up to where its value starts
    head = json.dumps({**summary, "rows": 0}, separators=(",\n ", ": "))[1:-2]
    return f"{{\n {head}{text}\n}}"


def _cell(val) -> str:
    if val is None:
        return "-"
    if isinstance(val, float):
        return f"{val:.15g}"
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
    emit_records([result_record(res) for res in results], args.format)
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
    rows: list[dict] = []
    diffs = []
    for data in inputs:
        for r, row in zip(r_values, run_routes(data, r_values, ("auto",))):
            values = [res.value for res in row]
            diff = _max_gap(values)
            diffs.append(diff)
            rows.append(
                dict(input=str(data), r=r, methods=len(values), max_diff=f15(diff), ok=diff < args.tolerance)
            )
    worst = float(np.max(diffs))
    ok = worst < args.tolerance
    emit_records(
        rows,
        args.format,
        summary={"ok": ok, "worst": f15(worst)},
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
            records.append(
                {
                    "r": r,
                    "method": "lens_direct",
                    "route": route,
                    **_value_fields(val),
                    "sigma": sigma,
                    "diff": f15(diff),
                }
            )
    emit_records(records, args.format)
    return 0 if np.max(diffs) < args.tolerance else 1


def cmd_axioms(args) -> int:
    r_values = parse_r_spec(args.r)
    datum = load_datum(args.datum) if args.datum else None
    rows = []

    def add(r_label, kind: str, name: str, residual: float) -> None:
        rows.append(
            {
                "r": r_label,
                "check": f"{kind}.{name}",
                "residual": f15(residual),
                "ok": residual < args.tolerance,
            }
        )

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
    ok = all(row["ok"] for row in rows)
    emit_records(
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
