"""Check that two source trees give byte-identical command line output.

    python3 tools/same_output.py OLD_SRC NEW_SRC

Runs one fixed call set through ``seifert_rt.cli.main`` in one fresh
subprocess per tree, with ``PYTHONPATH`` set to that tree, and records the
stdout, stderr and exit code of every call.  Prints each side's sha256 over
those records, the number of calls that differ and the first five
differences (the argv and the first line that differs).  Two summary lines
follow: how many differing calls differ only in their numbers (the same
exit code and stderr, and the same stdout once every number is replaced by
one placeholder and whitespace is collapsed, so realigned text tables
count), and, over the differing calls whose stdout is JSON, the largest
|old - new| / max(1, |old|) per field name.  phase is left out: it is
ill-conditioned where tau is near 0.  Exits 1 when any call differs, 0
otherwise.

The call set is two passes of each benchmark workload at seed 901, read
from ``bench/workloads.py`` without writing anything under ``bench/``, and
fixed calls that cover the subcommands, large fibers over several chunks of
levels, the chain routes' sweeps (a window of large levels, a float
overflow part way through a window, and a loaded datum, whose file the
OLD_SRC tree writes once into a temporary directory, so both trees read the
same datum), each of cs11, compact and graph_sum on that loaded datum, the
graph_sum state sum (the largest sum its caps allow and the sum on the
most vertices, both summed one label of the central vertex at a time, the
second in JSON where tau cancels to about 1e-16; the first one level up,
refused by the term cap; and a genus-2 sum with three chains), and the
exact arithmetic: wide Euler denominators, huge slopes and framings, and
an int64 bound, refused when named and skipped in auto mode.  compact
alone runs over a window of 12 levels, over levels whose centered pairs
differ, with a fiber summed at the points, and refused by its int64
bound.  Three JSON calls reach each rule by which a JSON number differs
from its 15-digit text (values from 1e15 to 1e16, integral values, exact
1.0 and 0.0), and verify, lens and axioms each print CSV once.  No fiber
order sits just below the int64 bound, where a single level sums about
1e10 phases.  The 513 calls take about 2 s per tree on a 2-core x86 VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
SEED = 901
CS11_COMPACT = ("--method", "cs11,compact")
CHAIN_ROUTES = ("--method", "generic,section5")
# the level of the loaded datum, and the placeholder that stands for its path
DATUM_LEVEL = 7
DATUM = "<datum>"
FIXED_CALLS = [
    ("verify", "--random", "25", "--seed", "7", "--r", "3..10"),
    ("lens", "7", "3", "--r", "3..30"),
    ("lens", "0", "1"),
    ("axioms", "--r", "3..6"),
    # JSON of the two subcommands that print no workload call
    ("axioms", "--r", "3..4", "--format", "json"),
    ("lens", "7", "3", "--r", "3..6", "--format", "json"),
    ("compute", "o;g=0;b=-1;2/1,3/1,5/1", "--r", "3..40", "--format", "csv"),
    # larger fibers, several chunks of levels
    ("compute", "o;g=0;b=-1;17/5,16/3,15/2", "--r", "3..300", *CS11_COMPACT),
    ("compute", "o;g=0;b=-1;37/5,41/3", "--r", "3..60", *CS11_COMPACT),
    ("compute", "o;g=1;b=2;1499/7,197/3", "--r", "3..120", *CS11_COMPACT),
    ("compute", "o;g=0;b=-1;4001/1,4003/1,4007/1,4013/1", "--r", "50", *CS11_COMPACT),
    ("compute", "o;g=0;b=0;100001/100000", "--r", "5", *CS11_COMPACT),
    ("lens", "1499", "7", "--r", "3..60"),
    # compact alone: a 12-level window, three groups of centered pairs
    # (2/25 is 2/1, 2/-7 and 2/-15 at r = 3, 4, 5), a fiber of order 20011
    # summed at the points, and an int64 refusal from the first level
    ("compute", "n;g=1;b=-3;4/3,5/2,6/5", "--r", "135..146", "--method", "compact", "--format", "json"),
    ("compute", "nn:o;g=2;2/25,3/1", "--r", "3..5", "--method", "compact", "--format", "json"),
    ("compute", "o;g=0;b=-1;20011/3", "--r", "100", "--method", "compact", "--format", "json"),
    ("compute", "o;g=0;b=-1;2/1,300000000/1", "--r", "3..5", "--method", "compact"),
    # the chain routes: a window of large levels, an overflow of D^(2g - 2)
    # from r = 6 on, and a loaded datum
    ("compute", "o;g=1;b=2;7/3,11/4,13/5", "--r", "140..160", *CHAIN_ROUTES),
    ("compute", "o;g=287;b=-1;4/3,5/4", "--r", "3..8", *CHAIN_ROUTES),
    ("compute", "o;g=1;b=2;7/3,5/2", "--datum", DATUM),
    ("compute", "n;g=1;b=1;3/2,5/3", "--datum", DATUM, "--method", "generic"),
    # each sweep on the loaded datum: cs11 and compact refuse it, graph_sum sums on it
    ("compute", "o;g=0;b=-1;2/1,3/1,5/1", "--datum", DATUM, "--method", "cs11"),
    ("compute", "o;g=0;b=-1;2/1,3/1,5/1", "--datum", DATUM, "--method", "compact"),
    ("compute", "o;g=0;b=-1;2/1,3/1,5/1", "--datum", DATUM, "--method", "graph_sum"),
    # graph_sum: 5^8 terms at r = 6, 4^9 at r = 5 where tau cancels, 6^8 over
    # the term cap at r = 7, and genus 2
    ("compute", "o;g=0;b=-2;8/7", "--r", "6", "--method", "graph_sum"),
    ("compute", "o;g=0;b=-2;9/8", "--r", "5", "--method", "graph_sum", "--format", "json"),
    ("compute", "o;g=0;b=-2;8/7", "--r", "7", "--method", "graph_sum"),
    ("compute", "o;g=2;b=-1;3/2,5/3,7/4", "--r", "3..6", "--method", "graph_sum"),
    # exactness: a 60-bit Euler denominator, huge slopes and framing
    ("compute", "o;g=1;b=768614336404564650;1009/2,1013/5,1019/3,1021/4,1031/6,1033/7", "--r", "3..6"),
    ("compute", "nn:o;g=0;3/2305843009213693952,2/1", "--r", "3..12"),
    ("compute", "nn:o;g=1;3/2305843009213693951,2/1,7/-3", "--r", "5"),
    ("compute", "o;g=0;b=768614336404564650;3/2,2/1", "--r", "3..12"),
    ("compute", "nn:n;g=2;5/-12,7/9,3/100", "--r", "3..40", "--method", "cs11"),
    ("compute", "o;g=0;b=-1;3037000501/1", "--r", "3..5", "--method", "cs11"),
    # auto mode skips both int64 bounds
    ("compute", "o;g=0;b=-1;3037000501/1", "--r", "3"),
    ("compute", "o;g=0;b=0;", "--r", "2..30"),
    ("compute", "n;g=3;b=5;", "--r", "2..30", "--method", "cs11"),
    # each JSON token rule: values in 1e15..1e16, which %g writes with an
    # exponent and repr does not, integral values, and exact 1.0 and 0.0
    ("compute", "o;g=5;b=0;", "--r", "46", "--format", "json"),
    ("compute", "o;g=5;b=0;2/1", "--r", "20..40", "--format", "json"),
    ("compute", "o;g=0;b=0;", "--r", "2..30", "--format", "json"),
    # CSV of the subcommands that print no other CSV call
    ("verify", "--random", "5", "--seed", "3", "--r", "3..6", "--format", "csv"),
    ("lens", "7", "3", "--r", "3..6", "--format", "csv"),
    ("axioms", "--r", "3..4", "--format", "csv"),
]


def call_set(datum: str) -> list[list[str]]:
    """The argv of every call, the workload passes first, with datum the
    path of the datum file."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    calls = [
        list(inv.argv)
        for name in workloads.BUILDERS
        for k in range(2)
        for inv in workloads.build_pass(name, SEED, k)
    ]
    return calls + [[datum if a == DATUM else a for a in argv] for argv in FIXED_CALLS]


def run_calls(calls: list[list[str]]) -> list[list]:
    """[stdout, stderr, exit code] of each call, in this process."""
    from seifert_rt import cli

    records = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        records.append([out.getvalue(), err.getvalue(), code])
    return records


def run_tree(src: str, args: list[str], stdin: str = "") -> str:
    """This script run with args in a fresh interpreter that imports the
    program from src: its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-B", __file__, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def lines(record: list) -> list[str]:
    out, err, code = record
    return [f"exit {code}"] + [f"out: {s}" for s in out.splitlines()] + [
        f"err: {s}" for s in err.splitlines()
    ]


def first_difference(old: list, new: list) -> tuple[str, str]:
    a, b = lines(old), lines(new)
    for x, y in zip(a, b):
        if x != y:
            return x, y
    return (a[len(b)], "<end>") if len(a) > len(b) else ("<end>", b[len(a)])


def numbers_only(old: list, new: list) -> bool:
    """The same exit code and stderr, and the same stdout up to its numbers."""

    def shape(text: str) -> str:
        return " ".join(NUMBER.sub("#", text).split())

    return old[1:] == new[1:] and shape(old[0]) == shape(new[0])


def field_moves(old, new, moves: dict[str, float], field: str | None = None) -> None:
    """Into moves, per field name but phase, the largest relative move of
    the numbers at the same place in two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() & new.keys() - {"phase"}:
            field_moves(old[key], new[key], moves, key)
    elif isinstance(old, list) and isinstance(new, list):
        for a, b in zip(old, new):
            field_moves(a, b, moves, field)
    elif field is not None and all(type(v) in (int, float) for v in (old, new)):
        move = abs(old - new) / max(1.0, abs(old))
        moves[field] = max(moves.get(field, 0.0), move)


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        json.dump(run_calls(json.load(sys.stdin)), sys.stdout)
        return 0
    if argv[:1] == ["--datum"]:
        from seifert_rt.modular import save_datum, sl2_datum

        save_datum(sl2_datum(DATUM_LEVEL), argv[1])
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/same_output.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        datum = os.path.join(tmp, f"sl2_{DATUM_LEVEL}.json")
        run_tree(argv[0], ["--datum", datum])
        calls = call_set(datum)
        results = [json.loads(run_tree(src, ["--child"], json.dumps(calls))) for src in argv]
    for src, records in zip(argv, results):
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        print(f"{digest}  {src}")
    differ = [i for i, (old, new) in enumerate(zip(*results)) if old != new]
    print(f"{len(calls)} calls, {len(differ)} differ")
    for i in differ[:5]:
        old_line, new_line = first_difference(results[0][i], results[1][i])
        print(f"  {' '.join(calls[i])}\n    old: {old_line}\n    new: {new_line}")
    pairs = [(results[0][i], results[1][i]) for i in differ]
    print(f"{sum(numbers_only(old, new) for old, new in pairs)} of {len(differ)} differ only in numbers")
    moves: dict[str, float] = {}
    for old, new in pairs:
        try:
            field_moves(json.loads(old[0]), json.loads(new[0]), moves)
        except json.JSONDecodeError:
            pass
    print("largest JSON moves:", ", ".join(f"{k} {v:.2g}" for k, v in sorted(moves.items())) or "none")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
