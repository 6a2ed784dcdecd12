"""End-to-end tests of the command line interface, driven through
main(argv) plus one real subprocess smoke test."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import seifert_rt
from seifert_rt import cli, invariants
from seifert_rt.cli import f15, main, parse_r_spec, random_seifert
from seifert_rt.invariants import ROUTES
from seifert_rt.modular import save_datum, sl2_datum

POINCARE = "o;g=0;b=-1;2/1,3/1,5/1"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- helpers


def test_parse_r_spec():
    assert parse_r_spec("7") == (7,)
    assert parse_r_spec("3..6") == (3, 4, 5, 6)
    with pytest.raises(ValueError):
        parse_r_spec("6..3")
    with pytest.raises(ValueError):
        parse_r_spec("x")
    for text in ("1", "1..4", "-3..5"):
        with pytest.raises(ValueError, match="r >= 2"):
            parse_r_spec(text)


def test_compute_rejects_too_small_level(capsys):
    code, _, err = run_cli(capsys, ["compute", POINCARE, "--r", "1"])
    assert code == 2
    assert "r >= 2" in err


def test_f15_rounding():
    assert f15(0.1 + 0.2) == 0.3
    assert f15(1.0) == 1.0
    assert f15(-0.5000000000000001) == -0.5


def test_random_seifert_is_seed_stable():
    a = [random_seifert(random.Random(42)) for _ in range(5)]
    b = [random_seifert(random.Random(42)) for _ in range(5)]
    assert a == b


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", POINCARE, "--r", "1"],
        ["compute", POINCARE, "--r", "6..3"],
        ["compute", POINCARE, "--format", "yaml"],
        ["compute", POINCARE, "--cf-style", "x"],
        ["verify", POINCARE, "--tolerance", "0"],
        ["compute", POINCARE, "--r", "3", "--method", "warp"],
        ["compute", POINCARE, "--r", "3", "--tolerance", "1e-3"],
        ["table", POINCARE, "--r", "3", "--tolerance", "1e-3"],
    ],
    ids=["r1", "r-empty", "format", "cf-style", "tolerance", "method", "compute-tol", "table-tol"],
)
def test_bad_setting_exits_2(capsys, argv):
    # argparse exits from inside main; the other checks return the code
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


# ---------------------------------------------------------------- compute


def test_compute_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, ["compute", POINCARE, "--r", "5", "--format", "json"]
    )
    assert code == 0
    records = json.loads(out)
    methods = [rec["method"] for rec in records]
    assert methods == ["generic", "cs11", "compact", "graph_sum", "section5"]
    for rec in records:
        assert rec["r"] == 5
        assert abs(rec["re"] - (-0.300750477503772)) < 1e-9
        assert abs(rec["im"] - 0.925614793410957) < 1e-9
        assert abs(rec["abs"] - math.hypot(rec["re"], rec["im"])) < 1e-12
        assert rec["tolerance"] > 0
    assert records[0]["sigma"] == 2
    assert records[1]["sigma"] is None


def test_compute_output_is_deterministic(capsys):
    argv = ["compute", POINCARE, "--r", "3..6", "--format", "json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_method_selection(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compute", POINCARE, "--r", "4", "--method", "cs11,compact", "--format", "json"],
    )
    assert code == 0
    records = json.loads(out)
    assert [rec["method"] for rec in records] == ["cs11", "compact"]
    # tau at r = 4 for this space is exactly -1/2
    assert abs(records[0]["re"] - (-0.5)) < 1e-12
    assert abs(records[0]["im"]) < 1e-12


def test_compute_rejects_bad_pair(capsys):
    code, _, err = run_cli(capsys, ["compute", "o;g=0;b=0;3/0", "--r", "3"])
    assert code == 2
    assert "coprime" in err


def test_compute_rejects_unknown_method(capsys):
    code, _, err = run_cli(
        capsys, ["compute", POINCARE, "--r", "3", "--method", "warp"]
    )
    assert code == 2


def test_explicit_graph_sum_beyond_cap_exits_3(capsys):
    code, _, err = run_cli(
        capsys, ["compute", POINCARE, "--r", "12", "--method", "graph_sum"]
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "o;g=70;b=0;", "--r", "100"],
        ["compute", "o;g=400;b=0;", "--r", "5"],
        ["verify", "o;g=400;b=0;", "--r", "5"],
    ],
)
def test_value_beyond_float_range_exits_3(capsys, argv):
    # D^(2g-2) overflows a float in generic; a request too large exits 3
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_complexity_cap_flag(capsys):
    # graph_sum's built-in chain length cap is 8: 10/9 expands to 9 digits, 9/8 to 8
    code, out, err = run_cli(
        capsys, ["compute", "o;g=0;b=0;10/9", "--r", "3", "--method", "graph_sum"]
    )
    assert code == 3
    assert out == ""
    assert "chain length 9 exceeds cap 8" in err
    code, out, _ = run_cli(capsys, ["compute", "o;g=0;b=0;9/8", "--r", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["method"] for row in rows] == list(ROUTES)
    values = [complex(row["re"], row["im"]) for row in rows]
    assert max(abs(a - b) for a in values for b in values) < 5e-15


def test_auto_graph_sum_within_caps(capsys):
    # auto runs graph_sum where its caps allow and skips it elsewhere
    def auto_route_names(presentation, *flags):
        code, out, _ = run_cli(
            capsys, ["compute", presentation, "--format", "json", *flags]
        )
        assert code == 0
        return [rec["method"] for rec in json.loads(out)]

    assert "graph_sum" in auto_route_names(POINCARE, "--r", "5")
    assert "graph_sum" not in auto_route_names(POINCARE, "--r", "12")
    assert "graph_sum" not in auto_route_names("n;g=1;b=0;", "--r", "5")
    assert "graph_sum" not in auto_route_names("o;g=0;b=0;10/9", "--r", "3")


def test_auto_mixed_with_methods_is_unknown(capsys):
    code, _, err = run_cli(
        capsys, ["compute", POINCARE, "--r", "3", "--method", "auto,generic"]
    )
    assert code == 2
    assert "unknown method 'auto'" in err


def test_lens_direct_only_via_lens(capsys, tmp_path):
    path = tmp_path / "d5.json"
    save_datum(sl2_datum(5), str(path))
    for extra in ([], ["--datum", str(path)]):
        code, _, err = run_cli(
            capsys, ["compute", POINCARE, "--r", "3", "--method", "lens_direct", *extra]
        )
        assert code == 2
        assert "unknown method 'lens_direct'" in err


def test_auto_skips_infeasible_graph_sum(capsys):
    # at r = 12 the state sum is out of range; auto must not attempt it
    code, out, _ = run_cli(
        capsys, ["compute", POINCARE, "--r", "12", "--format", "json"]
    )
    assert code == 0
    methods = {rec["method"] for rec in json.loads(out)}
    assert "graph_sum" not in methods
    assert {"generic", "cs11", "compact", "section5"} <= methods


# ------------------------------------------------------------------ table


def test_table_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", POINCARE, "--r", "3..5", "--format", "csv", "--method", "cs11"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,method,re,im,abs,phase"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["r"] for row in rows] == ["3", "4", "5"]
    assert abs(float(rows[0]["re"]) - math.sqrt(0.5)) < 1e-12
    assert abs(float(rows[1]["re"]) - (-0.5)) < 1e-12


def test_table_text_format_runs(capsys):
    code, out, _ = run_cli(capsys, ["table", "o;g=1;b=0;", "--r", "3"])
    assert code == 0
    assert "generic" in out


# ----------------------------------------------------------------- verify


def test_verify_single_input(capsys):
    code, out, _ = run_cli(capsys, ["verify", POINCARE, "--r", "3..5"])
    assert code == 0
    assert "VERIFY OK" in out
    assert "max_diff" in out


def test_verify_random_is_deterministic(capsys):
    argv = ["verify", "--random", "5", "--seed", "11", "--r", "3..5"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", POINCARE, "--r", "3", "--tolerance", "1e-30"]
    )
    assert code == 1
    assert "VERIFY FAIL" in out


def nan_at_level_3(route):
    """route, except that its value at r = 3 is nan."""

    def run(r, dm, data, cf):
        res = route(r, dm, data, cf)
        return replace(res, value=complex(math.nan)) if res.r == 3 else res

    return run


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_fails_on_nan(capsys, monkeypatch, fmt):
    # r = 3 comes first, so later finite rows must not hide the nan
    monkeypatch.setitem(ROUTES, "generic", nan_at_level_3(ROUTES["generic"]))
    code, out, _ = run_cli(capsys, ["verify", POINCARE, "--r", "3..5", "--format", fmt])
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[0].endswith("max_diff=nan  FAIL")
        assert out.splitlines()[-1].startswith("VERIFY FAIL worst=nan")
    else:
        doc = json.loads(out)
        assert not doc["ok"] and math.isnan(doc["worst"])
        assert [row["ok"] for row in doc["rows"]] == [False, True, True]


def test_compute_long_chain(capsys):
    # the 1001-digit generic chain printed nan while the other routes agreed
    code, out, _ = run_cli(capsys, ["compute", "nn:o;g=0;2/2001", "--r", "5", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    for row in rows:
        assert abs(complex(row["re"], row["im"]) - 0.371748034460184) < 1e-9, row["method"]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_random_needs_positive_count(capsys, count):
    code, out, err = run_cli(capsys, ["verify", "--random", count, "--r", "3"])
    assert code == 2
    assert out == ""
    assert "--random" in err


def test_verify_needs_exactly_one_input_mode(capsys):
    code, _, err = run_cli(capsys, ["verify", "--r", "3"])
    assert code == 2
    code, _, err = run_cli(
        capsys, ["verify", POINCARE, "--random", "3", "--r", "3"]
    )
    assert code == 2


# ------------------------------------------------------------------- lens


def test_lens_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["lens", "5", "4", "--r", "5", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["route"] for row in rows] == ["matrix", "chain"]
    for row in rows:
        assert abs(float(row["re"]) - (-0.415626937777453)) < 1e-9
        assert abs(float(row["im"]) - (-0.572061402817684)) < 1e-9
        assert float(row["diff"]) < 1e-9


def test_lens_fails_on_nan(capsys, monkeypatch):
    lens_routes = cli.tau_lens_routes

    def matrix_nan_at_level_3(r, lens, cf):
        v1, v2, sigma = lens_routes(r, lens, cf)
        return (complex(math.nan) if r == 3 else v1), v2, sigma

    monkeypatch.setattr(cli, "tau_lens_routes", matrix_nan_at_level_3)
    code, out, _ = run_cli(capsys, ["lens", "5", "4", "--r", "3..5", "--format", "csv"])
    assert code == 1
    assert [row["diff"] for row in csv.DictReader(io.StringIO(out))][:2] == ["nan", "nan"]


@pytest.mark.parametrize(
    "argv",
    [
        ["lens", "5", "4", "--cap", "3"],
        ["axioms", "--cap", "3"],
        ["axioms", "--cf-style", "minus"],
        ["compute", POINCARE, "--cap", "3"],
        ["table", POINCARE, "--cap", "3"],
        ["verify", POINCARE, "--cap", "3"],
    ],
)
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_flag_table_matches_parser():
    # each row of the README table: flags | meaning | subcommands ("all": every one)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = readme.split("Flags, and the subcommands that take them:", 1)[1].strip().splitlines()
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sp in subparsers.choices.items()
    }
    documented = {name: set() for name in parsed}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines):
        flag_cell, _, taken_cell = re.split(r"(?<!\\)\|", line)[1:-1]
        flags = re.findall(r"`(--[\w-]+)", flag_cell)
        takers = list(parsed) if taken_cell.strip() == "all" else re.findall(r"`(\w+)`", taken_cell)
        for name in takers:
            documented.setdefault(name, set()).update(flags)
    assert documented == parsed


def test_lens_rejects_non_coprime(capsys):
    code, _, err = run_cli(capsys, ["lens", "4", "2", "--r", "3"])
    assert code == 2
    assert "coprime" in err


# ----------------------------------------------------------------- axioms


def test_axioms_passes(capsys):
    code, out, _ = run_cli(capsys, ["axioms", "--r", "3..6"])
    assert code == 0
    assert "OK" in out


def test_axioms_with_datum_file(capsys, tmp_path):
    path = tmp_path / "d7.json"
    save_datum(sl2_datum(7), str(path))
    code, _, _ = run_cli(capsys, ["axioms", "--datum", str(path)])
    assert code == 0


# ----------------------------------------------------------- custom datum


def test_compute_with_datum_file(capsys, tmp_path):
    path = tmp_path / "d5.json"
    save_datum(sl2_datum(5), str(path))
    code, out, _ = run_cli(
        capsys,
        [
            "compute",
            "o;g=0;b=1;",
            "--datum",
            str(path),
            "--method",
            "generic",
            "--format",
            "json",
        ],
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["r"] == 5
    assert abs(rec["re"] - math.sqrt(0.4) * math.sin(math.pi / 5)) < 1e-12


def test_datum_file_forbids_number_theory_routes(capsys, tmp_path):
    path = tmp_path / "d5.json"
    save_datum(sl2_datum(5), str(path))
    code, _, err = run_cli(
        capsys,
        ["compute", "o;g=0;b=1;", "--datum", str(path), "--method", "cs11"],
    )
    assert code == 2
    assert "datum" in err


@pytest.mark.parametrize(
    "text, methods",
    [("o;g=0;b=1;", ["generic", "graph_sum", "section5"]), ("n;g=1;b=1;2/1", ["generic"])],
)
def test_auto_with_datum_file_skips_refusing_routes(capsys, tmp_path, text, methods):
    path = tmp_path / "d5.json"
    save_datum(sl2_datum(5), str(path))
    code, out, _ = run_cli(capsys, ["compute", text, "--datum", str(path), "--format", "json"])
    assert code == 0
    assert [rec["method"] for rec in json.loads(out)] == methods


def test_level_only_routes_build_no_datum(capsys, monkeypatch):
    def refuse(r):
        raise AssertionError(f"sl2_datum({r}) built")

    monkeypatch.setattr(cli, "sl2_datum", refuse)
    monkeypatch.setattr(invariants, "sl2_datum", refuse)
    code, out, _ = run_cli(
        capsys, ["compute", POINCARE, "--r", "3..6", "--method", "cs11,compact", "--format", "json"]
    )
    assert code == 0
    assert len(json.loads(out)) == 8


# ----------------------------------------------------------- output shape

# argv, CSV header, JSON summary keys (None: a bare list of rows), and the
# text footer pattern (None: an aligned table whose first line is the header)
OUTPUT_SHAPES = {
    "compute": (
        ["compute", POINCARE, "--r", "3"],
        "r,method,re,im,abs,phase,sigma,tolerance",
        None,
        None,
    ),
    "table": (["table", POINCARE, "--r", "3"], "r,method,re,im,abs,phase", None, None),
    "lens": (
        ["lens", "5", "4", "--r", "3"],
        "r,method,route,re,im,abs,phase,sigma,diff",
        None,
        None,
    ),
    "verify": (
        ["verify", POINCARE, "--r", "3"],
        "input,r,methods,max_diff,ok",
        ["ok", "worst"],
        r"VERIFY OK worst=\S+ over 1 input\(s\)",
    ),
    "axioms": (["axioms", "--r", "3"], "r,check,residual,ok", ["ok"], "AXIOMS OK"),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(OUTPUT_SHAPES))
def test_output_shape(capsys, command, fmt):
    argv, header, summary, footer = OUTPUT_SHAPES[command]
    code, out, _ = run_cli(capsys, [*argv, "--format", fmt])
    assert code == 0
    columns = header.split(",")
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == header
        assert len(lines) > 1
    elif fmt == "json":
        doc = json.loads(out)
        if summary is None:
            assert isinstance(doc, list)
            rows = doc
        else:
            assert isinstance(doc, dict)
            assert list(doc) == [*summary, "rows"]
            rows = doc["rows"]
        assert rows
        assert all(list(row) == columns for row in rows)
    elif footer is None:
        assert lines[0].split() == columns
    else:
        assert re.fullmatch(footer, lines[-1])


# ------------------------------------------------------------- subprocess


def test_module_entry_point():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(seifert_rt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "seifert_rt", "compute", POINCARE, "--r", "3"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "generic" in proc.stdout
