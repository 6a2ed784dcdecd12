"""Workload process: one caller running one workload in a closed loop.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Set-up ends when ``seifert_rt.cli`` is imported, which is the first thing
this file does; ``--probe`` stops there and reports the time.  Otherwise the
process runs passes of the workload (see workloads.py) through
``cli.main(argv)`` while another pass fits in ``--seconds``, checks every
output and prints one JSON line with the raw measurements for run.py to
reduce: the latency of every workload call of every pass and the time of
the reference block run after it.

With ``--trace 1`` every pass runs twice on the same inputs, first untraced
and then under the span recorder, so the tracing overhead is measured on
identical work.
"""

import sys
import time

from seifert_rt import cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from seifert_rt import modular  # noqa: E402
from spans import SpanRecorder, datum_bytes  # noqa: E402
from workloads import ANCHORS, Invocation, build_pass  # noqa: E402

# taken before any wrapper is installed; lru_cache's own public interface
SL2_DATUM = modular.sl2_datum
LEVEL_CACHES = (modular.sl2_datum, modular.r_rep_generators)
# operands of the reference block: an orthogonal 96 x 96 matrix, so its
# powers stay bounded, and 2^15 phases, small enough to add little to the
# peak memory of the process
REF_MATRIX = np.linalg.qr(np.random.default_rng(0).standard_normal((96, 96)))[0]
REF_PHASES = 1j * np.linspace(0.0, 2 * np.pi, 1 << 15)


class Tally:
    """Outcome of every checked invocation of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.gap = 0.0  # worst pairwise route gap over max(1, |tau|)
        self.pairs = 0  # (presentation, level) pairs with printed tolerances
        self.violations = 0  # of those, pairs with a gap above the tolerances

    def fail(self, inv: Invocation, why: str) -> None:
        self.failures.append(f"{' '.join(inv.argv)}: {why}")


def invoke(inv: Invocation) -> tuple[float, object, str, str]:
    """Run cli.main once; returns (seconds, exit code or error, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed invocation, not a crashed run
            code = repr(exc)
        t1 = perf_counter()
    return t1 - t0, code, out.getvalue(), err.getvalue()


def check(inv: Invocation, code, text: str, err: str, tally: Tally) -> None:
    """Validate one output and record its route gaps; failures go to tally."""
    if code != 0:
        tally.fail(inv, f"exit {code!r} {err.strip()[-200:]}")
        return
    try:
        why = check_output(inv, json.loads(text), tally)
    except (ValueError, KeyError, TypeError, AttributeError):
        why = "unparsable output"
    if why:
        tally.fail(inv, why)


def check_output(inv: Invocation, doc, tally: Tally) -> str | None:
    """Reason the parsed output is wrong, or None."""
    if inv.kind == "verify":
        rows = doc.get("rows", [])
        if not doc.get("ok") or not all(row["ok"] for row in rows):
            return "verify gate failed"
        if sorted(row["r"] for row in rows) != sorted(inv.levels):
            return "missing level"
        # verify prints no values, so this gap is absolute
        tally.gap = max([tally.gap] + [row["max_diff"] for row in rows])
        return None
    by_level: dict[int, list[dict]] = {}
    for rec in doc:
        by_level.setdefault(rec["r"], []).append(rec)
    if sorted(by_level) != sorted(inv.levels) or any(len(v) < 2 for v in by_level.values()):
        return "missing level"
    for r, recs in by_level.items():
        vals = [complex(rec["re"], rec["im"]) for rec in recs]
        if inv.kind == "anchor":
            want = ANCHORS[inv.presentation](r)
            for rec, v in zip(recs, vals):
                if abs(v - want) > rec["tolerance"]:
                    return f"anchor mismatch at r={r} ({rec['method']})"
        scale = max(1.0, abs(vals[0]))
        violated = False
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                gap = abs(vals[i] - vals[j])
                violated |= gap > recs[i]["tolerance"] + recs[j]["tolerance"]
                tally.gap = max(tally.gap, gap / scale)
        tally.pairs += 1
        tally.violations += violated
    return None


def reference() -> float:
    """Seconds taken by a fixed block of work that does not use the program.

    The block mixes what the program spends its time on: interpreted
    Python (about half of it on an unloaded machine), products of small
    matrices and elementwise work on complex arrays.  The three slow down
    by different amounts on a loaded machine.  It runs after every workload
    call, so its time tracks how fast the shared machine runs at that
    moment.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(36000):
        acc += i * i % 7
    m = REF_MATRIX
    for _ in range(32):
        m = m @ REF_MATRIX
    for _ in range(2):
        np.exp(REF_PHASES).sum()
    return perf_counter() - t0


def run_pass(
    invs: list[Invocation], tally: Tally, rec: SpanRecorder | None, first_inv: int
) -> tuple[list[float], list[float]]:
    """Run one pass from empty level caches.

    Returns the latencies of its workload calls and the time of the
    reference block run after each of them.  Anchor calls are checked like
    every other call but left out, so the latency metrics describe the
    workload itself.
    """
    for cache in LEVEL_CACHES:
        cache.cache_clear()
    gc.collect()
    lat, ref = [], []
    for i, inv in enumerate(invs):
        if rec is not None:
            rec.invocation = first_inv + i
        dt, code, out, err = invoke(inv)
        if inv.kind != "anchor":
            lat.append(dt)
            ref.append(reference())
        tally.attempted += 1
        check(inv, code, out, err, tally)
    return lat, ref


def settle_malloc() -> None:
    """Put glibc's mmap threshold at its 32 MiB ceiling before measuring.

    glibc raises the threshold to the size of each large mapped block the
    process frees, so which arrays later come from the heap, and with them
    peak RSS, depended on the order of the first large frees: peak RSS moved
    by 15% between seeds.  Freeing one untouched block of just under 32 MiB
    first gives every run the state a long-lived process reaches anyway,
    without touching its pages or changing speed.
    """
    block = np.empty((32 << 20) - (8 << 10), dtype=np.uint8)
    del block


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0

    settle_malloc()
    tally = Tally()
    rec = SpanRecorder() if args.trace else None
    latencies, refs, traced = [], [], []
    hits = misses = 0
    cache_bytes = 0
    cache_consistent = True
    n_inv = 0
    start = perf_counter()
    longest = 0.0
    k = 0
    # no pass starts that would end after the deadline, but one always runs
    while k == 0 or perf_counter() - start + longest <= args.seconds:
        t0 = perf_counter()
        invs = build_pass(args.workload, args.seed, k, args.small)
        lat, ref = run_pass(invs, tally, None, n_inv)
        latencies.append(lat)
        refs.append(ref)
        n_inv += len(invs)
        if rec is not None:
            first = len(rec.spans)
            rec.install()
            try:
                traced.append(run_pass(invs, tally, rec, n_inv))
            finally:
                rec.uninstall()
            n_inv += len(invs)
            info = SL2_DATUM.cache_info()
            hits += info.hits
            misses += info.misses
            levels = rec.datum_levels(first, len(rec.spans))
            cache_consistent &= len(levels) == info.currsize
            cache_bytes = max(cache_bytes, sum(datum_bytes(r) for r in levels))
        longest = max(longest, perf_counter() - t0)
        k += 1

    result = {
        "ready": READY,
        "latencies": latencies,
        "refs": refs,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "gap": tally.gap,
        "tol_pairs": tally.pairs,
        "tol_violations": tally.violations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if rec is not None:
        stats, mismatch = rec.aggregate()
        result.update(
            traced_latencies=[lat for lat, _ in traced],
            traced_refs=[ref for _, ref in traced],
            layer_stats=stats,
            work=rec.work_counts(),
            self_time_mismatch=mismatch,
            datum_hits=hits,
            datum_misses=misses,
            datum_cache_bytes=cache_bytes,
            datum_cache_consistent=cache_consistent,
            spans=len(rec.spans),
        )
        if args.spans:
            rec.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
