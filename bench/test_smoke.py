"""Smoke test of the benchmark: the smallest size of each workload, untraced,
plus one traced run.  Not part of the tier-1 suite; run it with

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def assert_result(res: dict, metrics: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], float | int)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced(workload):
    res = bench(workload, 0)
    assert_result(res, SPEC["end_to_end"])
    assert all(res["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced():
    res = bench("verify-mixed", 1)
    assert_result(res, SPEC["per_layer"])
    assert res["metrics"]["cli.evaluate.calls"]["value"] > 0
    assert res["metrics"]["invariants.tau_graph_sum.terms"]["value"] > 0


def test_no_program(tmp_path):
    """Without the program the benchmark fails and prints no result."""
    (tmp_path / "bench").mkdir()
    for f in RUN.parent.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    cmd = [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "level-sweep",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
