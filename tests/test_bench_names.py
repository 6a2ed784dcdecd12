"""The program names that the traced benchmark run reads.

BENCHMARK.json lists per-layer metrics as <layer>.<function>.<metric>.  The
traced run wraps every public, non-class callable defined in
seifert_rt.<layer> and fails when a listed name produces no metric, so a
rename or a deletion there breaks the run.  The run also clears the level
caches of sl2_datum and r_rep_generators before every pass.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from seifert_rt import modular

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def function_names() -> list[str]:
    metrics = [d["name"] for d in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]]
    return sorted({name.rsplit(".", 1)[0] for name in metrics if name.count(".") == 2})


@pytest.mark.parametrize("name", function_names())
def test_per_layer_function_is_traced(name):
    layer, attr = name.split(".")
    mod = importlib.import_module(f"seifert_rt.{layer}")
    obj = getattr(mod, attr, None)
    assert not attr.startswith("_"), name
    assert callable(obj) and not isinstance(obj, type), name
    assert getattr(obj, "__module__", None) == mod.__name__, name


@pytest.mark.parametrize("fn", [modular.sl2_datum, modular.r_rep_generators])
def test_level_caches_can_be_cleared(fn):
    assert callable(fn.cache_clear) and callable(fn.cache_info)
