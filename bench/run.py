"""Benchmark of the seifert-rt command line, end to end and per layer.

    python3 bench/run.py --workload verify-mixed --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  It byte-compiles ``src/seifert_rt``, times
set-up in several fresh processes, then runs the workload in one more fresh
process (worker.py) for ``--seconds`` and reduces what that process measured.
It prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``.  Exits 2, printing no result, when the
checkout holds no program.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BLAS threads of the workload process: one caller, one thread, steadier on
# a small shared machine than one thread per core
BLAS_THREADS = 1
# set-up is timed in this many fresh processes before the workload process
# and as many after it, so the median spans the run
SETUP_PROBES = 15
# nominal time of worker.reference(): a round figure between its least and
# median time on a 2-vCPU Xeon VM
REF_S = 0.005
WORKER_TIMEOUT = 150
FAILURES_SHOWN = 5


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RT_COMPLEXITY_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start worker.py with args; returns (start time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:  # a timeout or an interrupt: stop the worker first
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def normalize(latencies: list[list[float]], refs: list[list[float]]) -> list[list[float]]:
    """Latencies of each pass scaled to the machine speed where the
    reference block takes REF_S.

    The shared machine runs everything up to half again as slow for spells
    of tens of seconds to minutes, longer than a run.  The reference block
    runs after every call, so the mean of its times over a pass says how
    fast the machine ran during that pass.
    """
    return [[x * REF_S / statistics.fmean(ref) for x in lat] for lat, ref in zip(latencies, refs)]


def reduce(raw: dict, setups: list[float], trace: bool) -> tuple[dict[str, float], list[str]]:
    """All metrics from the worker's raw measurements, plus notes to print."""
    all_refs = [x for ref in raw["refs"] for x in ref]
    m: dict[str, float] = {}
    lat = normalize(raw["latencies"], raw["refs"])
    # a pass always holds the same number of calls, so the tail is the same
    # rank in every pass, however many passes fit in the run
    tails = [tail(passed) for passed in lat]
    _, pct, n = tails[0]
    m["setup_s"] = statistics.median(setups)
    m["wall_s"] = statistics.median(sum(passed) for passed in lat)
    m["call_p50_ms"] = 1e3 * statistics.median(x for passed in lat for x in passed)
    m["call_tail_ms"] = 1e3 * statistics.median(t for t, _, _ in tails)
    m["peak_rss_mb"] = raw["peak_rss_kb"] * 1024 / 1e6
    m["fail_frac"] = len(raw["failures"]) / raw["attempted"]
    # below double precision a gap carries no information
    m["route_gap_log10"] = math.log10(max(raw["gap"], sys.float_info.epsilon))
    m["tol_violation_frac"] = raw["tol_violations"] / max(raw["tol_pairs"], 1)
    notes = [
        f"setup_s median of {len(setups)} process starts",
        f"wall_s (median) and call_*_ms: {len(lat)} untraced passes, at the machine speed where the "
        f"reference block takes {REF_S * 1e3:g} ms (it took {statistics.median(all_refs) * 1e3:.3f} ms "
        f"median, {min(all_refs) * 1e3:.3f} ms least)",
        f"call_p50_ms is the median of all calls; call_tail_ms is p{pct:.2f} of the {n} calls "
        "of each pass, median over the passes",
        f"tol_violation_frac over {raw['tol_pairs']} (presentation, level) pairs",
    ]
    if trace:
        passes = len(raw["traced_latencies"])
        for name, st in raw["layer_stats"].items():
            for key, val in st.items():
                m[f"{name}.{key}"] = val / passes
        work = dict(raw["work"])
        m["invariants.tau_cs11.grid_mb"] = work.pop("invariants.tau_cs11.grid_bytes_max") / 1e6
        m["modular.g_matrix.gflop"] = work.pop("modular.g_matrix.flop") / 1e9 / passes
        m.update((k, v / passes) for k, v in work.items())
        lookups = raw["datum_hits"] + raw["datum_misses"]
        m["modular.sl2_datum.hit_ratio"] = raw["datum_hits"] / max(lookups, 1)
        m["modular.datum_cache_mb"] = raw["datum_cache_bytes"] / 1e6
        traced = normalize(raw["traced_latencies"], raw["traced_refs"])
        m["trace.overhead_frac"] = statistics.median(sum(passed) for passed in traced) / m["wall_s"] - 1
        notes += [
            f"per-layer values are per pass, mean of {passes} traced passes ({raw['spans']} spans)",
            "computed from inputs, not measured: *.digits, *.gflop, *.terms, *.grid_terms, "
            "*.grid_mb, *.chain_len, modular.datum_cache_mb",
            f"span self times vs cli.main: worst relative mismatch {raw['self_time_mismatch']:.2e}",
        ]
    return m, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="smallest passes (smoke test)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "seifert_rt" / "cli.py").is_file():
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    # the build step of a Python checkout; later imports then load bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "seifert_rt")], check=True)

    def probe() -> float:
        t0, res = spawn(["--probe"], 60)
        return res["ready"] - t0

    probe()  # warms the file cache; not counted
    setups = [probe() for _ in range(SETUP_PROBES)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
    wargs = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spans", str(span_file),
    ] + (["--small"] if args.small else [])
    t0, raw = spawn(wargs, WORKER_TIMEOUT)
    setups.append(raw["ready"] - t0)
    setups += [probe() for _ in range(SETUP_PROBES)]

    metrics, notes = reduce(raw, setups, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    failed = len(raw["failures"])
    correct = failed == 0
    if args.trace:
        correct &= raw["self_time_mismatch"] < 1e-9 and raw["datum_cache_consistent"]

    threads = worker_env()["OPENBLAS_NUM_THREADS"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"python {raw['python']}, numpy {raw['numpy']}, blas {raw['blas']}, blas threads {threads}")
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]!r} {unit}")
    for note in notes:
        print(f"  # {note}")
    for msg in raw["failures"][:FAILURES_SHOWN]:
        print(f"  FAIL {msg}")
    missing = [d["name"] for d in wanted if d["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
