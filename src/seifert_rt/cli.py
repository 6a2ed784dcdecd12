"""Command line front end.

Subcommands:
  compute   evaluate one presentation across levels and methods
  table     compute restricted to the columns r,method,re,im,abs,phase
  verify    cross-check all applicable methods against each other
  lens      evaluate both lens space routes and their difference
  axioms    datum, representation, and number-theory consistency report

The methods are the routes of invariants.ROUTES.  The default, auto,
tries each route and skips one that refuses its base, its datum or its
cost; a method named with --method that refuses exits with code 2, or 3
for a complexity cap.  graph_sum's caps are fixed in tau_graph_sum.
lens_direct is reached only through lens.
Every subcommand prints through emit_records.

Each setting is checked once: by argparse (choices, or the type= of
--tolerance) or by the function that consumes it (parse_r_spec for --r,
evaluate for --method).  A subcommand takes only the flags it reads.

Exit codes, mapped from errors in main alone: 0 success, 1 verification
failure (a value that is not finite fails verify and lens), 2 malformed
input or configuration, 3 a request too large (a complexity cap, or a
value beyond floating-point range).
Output is byte-identical for identical inputs, options, and seed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import random
import sys

import numpy as np

from .invariants import ROUTES, ComplexityCap, InvariantResult, UnsupportedDatum, tau_lens_routes
from .modular import ModularDatum, check_axioms, load_datum, r_rep_generators, sl2_datum
from .seifert import LensSpace, SeifertData, UnsupportedBase, parse_seifert
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


def evaluate(
    method: str, data: SeifertData, r: int, cf_style: str, datum: ModularDatum | None = None
) -> InvariantResult:
    """One route at level r."""
    route = ROUTES.get(method)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    return route(r, datum, data, cf_style)


def run_routes(
    data: SeifertData, r: int, methods: tuple[str, ...], cf_style: str, datum: ModularDatum | None = None
) -> list[InvariantResult]:
    """The requested methods at level r, in order.

    "auto" tries every route of ROUTES and skips one that refuses its
    base, its datum or its cost; a method named explicitly lets the
    refusal propagate.
    """
    if methods != ("auto",):
        return [evaluate(m, data, r, cf_style, datum) for m in methods]
    results = []
    for name in ROUTES:
        try:
            results.append(evaluate(name, data, r, cf_style, datum))
        except (ComplexityCap, UnsupportedBase, UnsupportedDatum):
            continue
    return results


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
    records: list[dict],
    output: str,
    columns: list[str],
    summary: dict | None = None,
    text: str | None = None,
    footer: str | None = None,
) -> None:
    """Print records, restricted to columns, in the output format.

    JSON is the list of rows, or {**summary, "rows": rows} when a summary
    is given.  Text is an aligned table, or text.format(**row, mark=...)
    per row when a row format is given (mark is ok or FAIL from the row's
    ok), followed by the footer.
    """
    rows = [{k: rec.get(k) for k in columns} for rec in records]
    if output == "json":
        print(json.dumps(rows if summary is None else {**summary, "rows": rows}, indent=1))
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


def _cell(val) -> str:
    if val is None:
        return "-"
    if isinstance(val, float):
        return f"{val:.15g}"
    return str(val)


def _method_list(args) -> tuple[str, ...]:
    entries = args.method or ["auto"]
    return tuple(m.strip() for entry in entries for m in entry.split(",") if m.strip())


COMPUTE_COLUMNS = ["r", "method", "re", "im", "abs", "phase", "sigma", "tolerance"]
VERIFY_COLUMNS = ["input", "r", "methods", "max_diff", "ok"]
VERIFY_TEXT = "{input}  r={r}  methods={methods}  max_diff={max_diff:.15g}  {mark}"
LENS_COLUMNS = ["r", "method", "route", "re", "im", "abs", "phase", "sigma", "diff"]
AXIOMS_COLUMNS = ["r", "check", "residual", "ok"]
AXIOMS_TEXT = "r={r:<4} {check:<42} {residual:.3e}  {mark}"


def cmd_compute(args) -> int:
    """compute and table; they differ only in args.columns."""
    data = parse_seifert(args.seifert)
    r_values = parse_r_spec(args.r)
    datum = load_datum(args.datum) if args.datum else None
    if datum is not None:
        r_values = (datum.n_labels + 1,)  # the datum fixes r; --r is still checked
    methods = _method_list(args)
    results = [res for r in r_values for res in run_routes(data, r, methods, args.cf_style, datum)]
    emit_records([result_record(res) for res in results], args.format, args.columns)
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
        for r in r_values:
            values = [res.value for res in run_routes(data, r, ("auto",), args.cf_style)]
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
        VERIFY_COLUMNS,
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
        v1, v2, sigma = tau_lens_routes(r, lens, args.cf_style)
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
    emit_records(records, args.format, LENS_COLUMNS)
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
        AXIOMS_COLUMNS,
        summary={"ok": ok},
        text=AXIOMS_TEXT,
        footer="AXIOMS OK" if ok else "AXIOMS FAIL",
    )
    return 0 if ok else 1


def _positive_float(text: str) -> float:
    if not float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return float(text)


def _add_common(sp, cf_style=False, tolerance=False, datum=False) -> None:
    """--r and --format, plus the flags the subcommand reads."""
    sp.add_argument("--r", default="3..10", help="level r or inclusive range a..b")
    if cf_style:
        sp.add_argument(
            "--cf-style",
            choices=("minus", "euclidean"),
            default="minus",
            help="continued fraction style",
        )
    sp.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    if tolerance:
        sp.add_argument("--tolerance", type=_positive_float, default=1e-9, help="agreement gate")
    if datum:
        sp.add_argument("--datum", default=None, help="JSON modular datum file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifert-rt",
        description="Quantum invariants of Seifert fibered 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, columns in (
        ("compute", "evaluate one presentation", COMPUTE_COLUMNS),
        ("table", "delimited sweep (r,method,re,im,abs,phase)", COMPUTE_COLUMNS[:6]),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("seifert", help="presentation, e.g. 'o;g=0;b=-1;2/1,3/1,5/1'")
        sp.add_argument(
            "--method",
            action="append",
            help=f"comma-separated methods ({','.join(ROUTES)}) or 'auto' (default)",
        )
        _add_common(sp, cf_style=True, datum=True)
        sp.set_defaults(func=cmd_compute, columns=columns)

    sp = sub.add_parser("verify", help="cross-check methods against each other")
    sp.add_argument("seifert", nargs="?", default=None, help="presentation string")
    sp.add_argument("--random", type=int, default=None, metavar="N", help="verify N random presentations")
    sp.add_argument("--seed", type=int, default=0, help="seed for --random")
    _add_common(sp, cf_style=True, tolerance=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("lens", help="both lens space routes")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    _add_common(sp, cf_style=True, tolerance=True)
    sp.set_defaults(func=cmd_lens)

    sp = sub.add_parser("axioms", help="datum and identity residual report")
    _add_common(sp, tolerance=True, datum=True)
    sp.set_defaults(func=cmd_axioms)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ComplexityCap, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
