"""End-to-end tests of the command line interface, driven through
main(argv) plus one real subprocess smoke test."""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seifert_rt
from seifert_rt import cli, invariants, modular
from seifert_rt.cli import main, parse_r_spec, random_seifert
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


def emitted(*args, **kwargs) -> str:
    """What cli.emit_records prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit_records(*args, **kwargs)
    return out.getvalue()


def rounded(v):
    """v, or a float rounded to 15 significant digits: the value printed."""
    return float("%.15g" % v) if isinstance(v, float) else v


def reference_json(columns, rows, summary) -> str:
    records = [dict(zip(columns, map(rounded, row))) for row in rows]
    doc = records if summary is None else {**{k: rounded(v) for k, v in summary.items()}, "rows": records}
    return json.dumps(doc, indent=1) + "\n"


def reference_csv(columns, rows) -> str:
    def cell(v) -> str:
        return "-" if v is None else "%.15g" % v if isinstance(v, float) else str(v)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(v) for v in row] for row in rows)
    return out.getvalue()


def test_f15_rounding():
    # every format prints a float's 15 significant digits
    columns, rows = ("a", "b", "c"), [(0.1 + 0.2, 1.0, -0.5000000000000001)]
    assert emitted(columns, rows, "csv") == "a,b,c\n0.3,1,-0.5\n"
    assert emitted(columns, rows, "text").splitlines()[1].split() == ["0.3", "1", "-0.5"]
    assert json.loads(emitted(columns, rows, "json")) == [{"a": 0.3, "b": 1.0, "c": -0.5}]


def test_row_format_rounds_the_printed_15_digits():
    # .3e of the raw residual, 1.235e-10, would disagree with the 1.2355e-10
    # that JSON and CSV print
    rows = [(3, "axiom.x", 1.2354999999999998e-10, True)]
    out = emitted(("r", "check", "residual", "ok"), rows, "text", text=cli.AXIOMS_TEXT)
    assert "1.236e-10  ok" in out


@given(st.floats())
@settings(max_examples=500, deadline=None)
def test_json_token_is_the_repr_of_the_rounded_float(x):
    assert cli._token(x) == json.dumps(rounded(x))


# 1e15 <= |x| < 1e16, where %g writes an exponent and repr does not, the
# largest 15-digit value below it, integral values, subnormals, the
# smallest normal double, and the largest, whose 15 digits overflow
@pytest.mark.parametrize(
    "x",
    [1e15, -1.5e15, 1.19483972385924e15, 9.99999999999999e14, 9.999999999999999e14, 1e16,
     -4995611044547.0, 0.0, -0.0, 1.0, 1e-5, 5e-324, 1e-310, 2.2250738585072014e-308,
     1.7976931348623157e308],
)
def test_json_token_edge_cases(x):
    assert cli._token(x) == json.dumps(rounded(x))


# a flat record with every kind of value the emitter may meet: None, bools,
# ints, NaN, +-inf, -0.0 and a string with a quote, a backslash, ", " and a
# non-ASCII character
ODD_RECORD = {
    "r": 7, "input": 'a "b" \\ c, d é', "sigma": None, "ok": True, "bad": False,
    "re": math.nan, "im": math.inf, "abs": -math.inf, "phase": -0.0, "big": 10**20,
}


@pytest.mark.parametrize("n_rows", [1, 4])
@pytest.mark.parametrize(
    "summary", [None, {"ok": False, "worst": 2.5e-8}, {"rows": 1, "worst": 0.1 + 0.2}]
)
def test_json_text_equals_the_stdlib_indent(n_rows, summary):
    columns = tuple(ODD_RECORD)
    rows = [tuple(dict(ODD_RECORD, r=k).values()) for k in range(n_rows)]
    assert emitted(columns, rows, "json", summary) == reference_json(columns, rows, summary)


flat_value = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@st.composite
def tables(draw):
    """A header and a non-empty list of rows of flat values under it."""
    columns = tuple(draw(st.lists(st.text(), min_size=1, max_size=5, unique=True)))
    rows = draw(st.lists(st.tuples(*[flat_value] * len(columns)), min_size=1, max_size=4))
    return columns, rows


@given(
    table=tables(),
    summary=st.none() | st.dictionaries(st.text() | st.just("rows"), flat_value),
)
@settings(max_examples=200, deadline=None)
def test_json_text_equals_the_stdlib_indent_on_any_flat_records(table, summary):
    assert emitted(*table, "json", summary) == reference_json(*table, summary)


@given(table=tables())
@settings(max_examples=200, deadline=None)
def test_csv_equals_the_stdlib_writer_on_any_flat_records(table):
    assert emitted(*table, "csv") == reference_csv(*table)


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
        ["compute", POINCARE, "--method", ","],
    ],
    ids=["r1", "r-empty", "format", "cf-style", "tolerance", "method", "compute-tol", "no-method"],
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


BEYOND_FLOAT_RANGE = [
    # D^(2g-2) overflows a float in generic
    (["compute", "o;g=70;b=0;", "--r", "100"], "generic at r = 100:"),
    (["compute", "o;g=400;b=0;", "--r", "5"], "generic at r = 5:"),
    (["verify", "o;g=400;b=0;", "--r", "5"], "generic at r = 5:"),
    # a named route whose value is not finite: nan from compact, inf from cs11
    (["compute", "n;g=140;b=0;", "--r", "100", "--method", "compact"], "compact at r = 100:"),
    (["compute", "o;g=400;b=0;", "--r", "5", "--method", "cs11"], "cs11 at r = 5:"),
    # cs11's prefactor r^(g - 1) overflows part way through the window
    (["compute", "o;g=287;b=-1;4/3,5/4", "--r", "9..14", "--method", "cs11"], "cs11 at r = 12:"),
]


@pytest.mark.parametrize(
    "argv, named", BEYOND_FLOAT_RANGE, ids=[f"argv{i}" for i in range(len(BEYOND_FLOAT_RANGE))]
)
def test_value_beyond_float_range_exits_3(capsys, argv, named):
    # a request too large exits 3, and the message names the route and level
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {named}")
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["generic", "section5"])
def test_twist_power_overflow_on_a_loaded_datum_exits_3(capsys, tmp_path, method):
    # the twist power v^(-b) overflows at b = 10^400, on a loaded datum
    path = tmp_path / "d5.json"
    save_datum(sl2_datum(5), str(path))
    argv = ["compute", f"o;g=0;b={10**400};2/1", "--datum", str(path), "--method", method]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {method} at r = 5:")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compute", "o;g=0;b=-1;1000003/1", "--r", "3000", "--method", "compact"], "compact"),
        (["compute", "o;g=0;b=-1;600000000001/1", "--r", "3000", "--method", "cs11"], "cs11"),
    ],
    ids=["compact", "cs11"],
)
def test_int64_phase_bound_exits_3(capsys, argv, named):
    # the bound is checked, not asserted, so it holds under python -O too
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {named} at r = 3000: int64")
    assert err.count("\n") == 1


def test_auto_skips_the_int64_bounds(capsys):
    # cs11's alpha^2 and compact's (4 r alpha)^2 pass int64 at every level:
    # both are complexity caps, which auto mode skips (r = 3 only: from r = 5
    # the chain routes' unreduced twists drift apart on this fiber)
    argv = ["compute", "o;g=0;b=-1;3037000501/1", "--r", "3", "--format", "json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert [row["method"] for row in json.loads(out)] == ["generic", "graph_sum", "section5"]


def test_same_output_calls_parse():
    # the fixed calls of tools/same_output.py are valid command lines
    path = Path(__file__).parents[1] / "tools" / "same_output.py"
    spec = importlib.util.spec_from_file_location("same_output", path)
    same_output = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_output)
    parser = cli.build_parser()
    for argv in same_output.FIXED_CALLS:
        parser.parse_args(list(argv))


def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    calls = [["compute", POINCARE, "--r", "3..5"], ["verify", POINCARE, "--r", "3..5"]]
    first = [run_cli(capsys, argv) for argv in calls]
    again = [run_cli(capsys, argv) for argv in calls]
    assert first == again
    assert [code for code, _, _ in first] == [0, 0]
    assert cli.build_parser.cache_info().misses == 1


def test_complexity_cap_flag(capsys):
    # graph_sum's built-in chain length cap is 8: 10/9 expands to 9 digits, 9/8 to 8
    code, out, err = run_cli(
        capsys, ["compute", "o;g=0;b=0;10/9", "--r", "3", "--method", "graph_sum"]
    )
    assert code == 3
    assert out == ""
    assert "graph_sum chain length exceeds cap 8" in err
    code, out, _ = run_cli(capsys, ["compute", "o;g=0;b=0;9/8", "--r", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["method"] for row in rows] == list(ROUTES)
    values = [complex(row["re"], row["im"]) for row in rows]
    assert max(abs(a - b) for a in values for b in values) < 5e-15


def test_generic_chain_cap_exits_3_fast(capsys):
    # 2/2000001 expands, as given, into 1000001 digits; generic refuses it
    # while expanding, and auto prints the four other routes
    long_chain = "nn:o;g=0;2/2000001"
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["compute", long_chain, "--r", "5", "--method", "generic"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert err == f"error: generic chain length exceeds cap {invariants.CHAIN_CAP}\n"
    # its refusal at the first level ends generic's sweep over all 398
    t0 = time.perf_counter()
    argv = ["compute", long_chain, "--r", "3..400", "--method", "generic"]
    assert run_cli(capsys, argv)[::2] == (3, err)
    assert time.perf_counter() - t0 < 1.0
    code, out, _ = run_cli(capsys, ["compute", long_chain, "--r", "5", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["method"] for row in rows] == [m for m in ROUTES if m != "generic"]
    assert max(abs(row["re"] - 0.371748034460184) for row in rows) < 1e-9


def test_section5_chain_cap_exits_3_fast(capsys):
    # o;g=0;b=0;1000001/1000000 is normalized, a minus chain of 1000000 digits;
    # section5 refuses it while expanding.  nn:o;g=0;20001/-1 normalizes to a
    # 20000-digit chain, which auto skips in section5 (and graph_sum), while
    # generic expands it as given, one digit
    t0 = time.perf_counter()
    argv = ["compute", "o;g=0;b=0;1000001/1000000", "--r", "5", "--method", "section5"]
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert err == f"error: section5 chain length exceeds cap {invariants.CHAIN_CAP}\n"
    code, out, _ = run_cli(capsys, ["compute", "nn:o;g=0;20001/-1", "--r", "5", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["method"] for row in rows] == ["generic", "cs11", "compact"]
    values = [complex(row["re"], row["im"]) for row in rows]
    assert max(abs(a - b) for a in values for b in values) < 1e-9


def test_graph_sum_chain_cap_exits_3_fast(capsys):
    # 10000001/10000000 is normalized, a minus chain of 10000000 digits;
    # graph_sum refuses it at the ninth digit instead of expanding it all
    t0 = time.perf_counter()
    argv = ["compute", "o;g=0;b=0;10000001/10000000", "--r", "5", "--method", "graph_sum"]
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert err == "error: graph_sum chain length exceeds cap 8\n"


EXACT_FUNCTIONS = ("_dedekind_12q", "convergents", "signature_exact")


@pytest.mark.parametrize("presentation", [POINCARE, "nn:o;g=1;3/-7,5/11,1/4"])
def test_exact_work_runs_once_per_presentation(capsys, monkeypatch, presentation):
    """The exact number theory of every route runs once per presentation:
    four levels and thirty-eight make the same calls, counted at every
    name that binds the functions."""
    counts = dict.fromkeys(EXACT_FUNCTIONS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "seifert_rt"]
    for name in EXACT_FUNCTIONS:
        fn = getattr(seifert_rt.sl2z, name)
        wrapper = counted(name, fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, wrapper)

    def calls(levels):
        for stage in (
            invariants._generic_exact,
            invariants._cs11_exact,
            invariants._compact_exact,
            invariants._graph_sum_chains,
            invariants._graph_sum_exact,
            invariants._section5_exact,
        ):
            stage.cache_clear()
        counts.update(dict.fromkeys(counts, 0))
        code, _, _ = run_cli(capsys, ["compute", presentation, "--r", levels])
        assert code == 0
        return dict(counts)

    few = calls("3..6")
    assert all(few.values()), few
    assert calls("3..40") == few


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


@pytest.mark.parametrize(
    "text, levels",
    # graph_sum refuses 6^8 terms from r = 7 on, and r > 10 for the other
    [("o;g=0;b=-1;4/3,5/4", [3, 4, 5, 6]), ("o;g=0;b=-1;3/2,5/3", list(range(3, 11)))],
)
def test_auto_sweep_keeps_graph_sum_below_its_refusal(capsys, text, levels):
    code, out, _ = run_cli(capsys, ["compute", text, "--r", "3..14", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["r"] for row in rows if row["method"] == "graph_sum"] == levels
    assert [row["r"] for row in rows if row["method"] == "cs11"] == list(range(3, 15))


# presentation, --method and the start of stderr: the first exception of the
# walk over (level, route), whatever level each route stops at
NAMED_REFUSALS = [
    # graph_sum refuses its term cap at r = 7; generic never refuses
    ("o;g=0;b=-1;4/3,5/4", "graph_sum,generic", "error: 6^8 terms exceed cap 500000\n"),
    ("o;g=0;b=-1;4/3,5/4", "generic,graph_sum", "error: 6^8 terms exceed cap 500000\n"),
    # generic overflows D^(2g - 2) at r = 6, a level below graph_sum's refusal
    ("o;g=287;b=-1;4/3,5/4", "graph_sum,generic", "error: generic at r = 6: "),
    ("o;g=287;b=-1;4/3,5/4", "generic,graph_sum", "error: generic at r = 6: "),
    # both overflow at r = 6: the method order decides
    ("o;g=290;b=-1;4/3,5/4", "graph_sum,generic", "error: graph_sum at r = 6: "),
    ("o;g=290;b=-1;4/3,5/4", "generic,graph_sum", "error: generic at r = 6: "),
]


@pytest.mark.parametrize("text, methods, message", NAMED_REFUSALS)
def test_named_methods_raise_the_first_exception_of_the_walk(capsys, text, methods, message):
    code, out, err = run_cli(capsys, ["compute", text, "--r", "3..14", "--method", methods])
    assert (code, out) == (3, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_compute_exits_3_when_every_route_refuses(capsys, tmp_path):
    """With a loaded datum, generic refuses the 10001 digits of 2/20001 as
    given, cs11 and compact refuse the datum, graph_sum and section5 the
    base: auto raises the first route's refusal (it printed no row and
    crashed with an IndexError)."""
    path = tmp_path / "d5.json"
    save_datum(sl2_datum(5), str(path))
    code, out, err = run_cli(capsys, ["compute", "nn:n;g=1;2/20001", "--datum", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: generic chain length exceeds cap {invariants.CHAIN_CAP}\n"


def test_auto_mixed_with_methods_is_unknown(capsys):
    code, _, err = run_cli(
        capsys, ["compute", POINCARE, "--r", "3", "--method", "auto,generic"]
    )
    assert code == 2
    assert "unknown method 'auto'" in err


def test_unknown_method_is_refused_before_any_route_runs(capsys, monkeypatch):
    """A name that is no route exits 2 before the routes named ahead of it
    run, here a generic sweep of 298 levels."""

    def never(levels, datum, data):
        raise AssertionError("generic ran before the unknown method was refused")

    monkeypatch.setitem(invariants.ROUTES, "generic", never)
    argv = ["compute", POINCARE, "--r", "3..300", "--method", "generic,bogus"]
    assert run_cli(capsys, argv) == (2, "", "error: unknown method 'bogus'\n")


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


def test_table_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compute", POINCARE, "--r", "3..5", "--format", "csv", "--method", "cs11"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,method,re,im,abs,phase,sigma,tolerance"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["r"] for row in rows] == ["3", "4", "5"]
    assert abs(float(rows[0]["re"]) - math.sqrt(0.5)) < 1e-12
    assert abs(float(rows[1]["re"]) - (-0.5)) < 1e-12


def test_values_from_1e15_to_1e16_print_in_fixed_notation_in_json(capsys):
    # %g writes these with an exponent, and json.dumps (repr) does not
    argv = ["compute", "o;g=5;b=0;", "--r", "46", "--method", "generic"]
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["re"] >= 1e15
    assert '"re": 1194839723859240.0,' in out
    code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
    assert code == 0
    assert next(csv.DictReader(io.StringIO(out)))["re"] == "1.19483972385924e+15"


def test_table_text_format_runs(capsys):
    code, out, _ = run_cli(capsys, ["compute", "o;g=1;b=0;", "--r", "3"])
    assert code == 0
    assert "generic" in out


# ----------------------------------------------------------------- verify


def test_verify_single_input(capsys):
    code, out, _ = run_cli(capsys, ["verify", POINCARE, "--r", "3..5"])
    assert code == 0
    assert "VERIFY OK" in out
    assert "max_diff" in out


HUGE_FRAMINGS = [
    ("o;g=0;b=768614336404564650;3/2,2/1", "3..12"),
    ("o;g=0;b=100000000000000000000000;2/1,3/1,5/1", "3..12"),
    ("o;g=1;b=768614336404564650;1009/2,1013/5,1019/3,1021/4,1031/6,1033/7", "3..6"),
]


@pytest.mark.parametrize("text, levels", HUGE_FRAMINGS, ids=["b7e17", "b1e23", "b7e17-g1"])
def test_verify_passes_in_a_huge_framing(capsys, text, levels):
    """generic, section5 and graph_sum raise each twist of the built-in
    datum to its exponent's centred residue mod the twist order 4 r, so
    they agree with cs11 and compact whatever the size of the framing
    (raised to the framing as given, the first input failed with worst
    4.3e23)."""
    code, out, _ = run_cli(capsys, ["verify", text, "--r", levels])
    assert code == 0
    assert "VERIFY OK" in out


def test_compute_in_a_huge_framing_runs_every_route(capsys):
    # graph_sum's nan here failed the whole auto-mode request with exit 3
    text = HUGE_FRAMINGS[1][0]
    code, out, err = run_cli(capsys, ["compute", text, "--r", "5", "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [row["method"] for row in rows] == list(ROUTES)
    values = [complex(row["re"], row["im"]) for row in rows]
    assert max(abs(z - values[0]) for z in values) < 1e-13


def test_lens_chain_route_across_the_crossover(capsys):
    # g_matrix runs the chain kernel: 399, 400 and 402 take the sine transform
    code, out, _ = run_cli(capsys, ["lens", "7", "3", "--r", "398..402"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 5


def test_verify_random_is_deterministic(capsys):
    argv = ["verify", "--random", "5", "--seed", "11", "--r", "3..5"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, marker",
    [
        (["verify", POINCARE], "VERIFY FAIL"),
        # lens prints no footer; its diff (2.9e-16 here) fails the gate in the exit code
        (["lens", "5", "4"], "lens_direct"),
        (["axioms"], "AXIOMS FAIL"),
    ],
    ids=["verify", "lens", "axioms"],
)
def test_impossible_tolerance_fails(capsys, argv, marker):
    code, out, _ = run_cli(capsys, argv + ["--r", "3", "--tolerance", "1e-30"])
    assert code == 1
    assert marker in out


def nan_at_level_3(route):
    """route, except that its value at r = 3 is nan."""

    def run(levels, dm, data):
        return [
            res._replace(value=complex(math.nan)) if res.r == 3 else res
            for res in route(levels, dm, data)
        ]

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

    def matrix_nan_at_level_3(r, lens):
        v1, v2, sigma = lens_routes(r, lens)
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
        ["compute", POINCARE, "--cf-style", "euclidean"],
        ["verify", POINCARE, "--cap", "3"],
        ["verify", POINCARE, "--cf-style", "euclidean"],
        ["lens", "5", "4", "--cf-style", "euclidean"],
    ],
)
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_table_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", POINCARE, "--r", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'table'" in capsys.readouterr().err


def test_readme_python_blocks_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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


# argv, with d5.json and d5_noeps.json standing for datum files the test
# writes, and the whole of stderr
REFUSED = {
    "no-genus": (["compute", "o;x=0;b=0;", "--r", "3"], "missing g= field in 'o;x=0;b=0;'"),
    "no-framing": (["compute", "o;g=0;x=0;", "--r", "3"], "missing b= field in 'o;g=0;x=0;'"),
    "bad-framing": (["compute", "o;g=0;b=x;", "--r", "3"], "bad framing in 'o;g=0;b=x;'"),
    "bad-pair": (["compute", "o;g=0;b=0;a/1", "--r", "3"], "bad pair 'a/1' in 'o;g=0;b=0;a/1'"),
    "alpha-zero": (["compute", "o;g=0;b=0;0/1", "--r", "3"], "pair (0, 1) has alpha = 0"),
    "not-coprime": (["compute", "o;g=0;b=0;4/2", "--r", "3"], "pair (4, 2) is not coprime"),
    "out-of-range": (
        ["compute", "o;g=0;b=0;5/7", "--r", "3"],
        "normalized presentation needs 0 < beta < alpha, got (5, 7)",
    ),
    "graph_sum-base": (
        ["compute", "n;g=1;b=1;2/1", "--method", "graph_sum"],
        "graph state sum needs an orientable base",
    ),
    "section5-base": (
        ["compute", "n;g=1;b=1;2/1", "--method", "section5"],
        "chain decomposition needs an orientable base",
    ),
    "cs11-datum": (
        ["compute", "o;g=0;b=1;", "--datum", "d5.json", "--method", "cs11"],
        "method 'cs11' needs the built-in sl2 datum",
    ),
    "no-eps": (
        ["compute", "n;g=1;b=0;2/1", "--datum", "d5_noeps.json"],
        "label 1 has no cross-cap sign",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_message_exits_2(capsys, tmp_path, case):
    argv, message = REFUSED[case]
    save_datum(sl2_datum(5), str(tmp_path / "d5.json"))
    save_datum(replace(sl2_datum(5), eps=(1, None, 1, None)), str(tmp_path / "d5_noeps.json"))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_level_sweep_stays_bounded_in_memory(capsys):
    """cs11 and compact over r = 3..1000, about 500 000 (level, point)
    entries, taken in chunks of at most CS11_BLOCK and GAUSS_BLOCK points.
    The traced peak, output included, stays below 32 complex arrays of a
    block (8.4 MB); with both blocks unbounded it was 128 MB."""
    argv = ["compute", "o;g=0;b=-1;17/5,16/3,15/2", "--r", "3..1000", "--method", "cs11,compact"]
    cli.build_parser()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 998
    assert peak < 32 * 16 * max(invariants.CS11_BLOCK, modular.GAUSS_BLOCK), peak


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


@pytest.mark.parametrize(
    "text, method, code, message",
    [
        ("n;g=1;b=1;2/1", "graph_sum", 2, "graph state sum needs an orientable base"),
        (POINCARE, "graph_sum", 3, "level r = 4000 exceeds cap 10"),
        ("n;g=1;b=1;2/1", "section5", 2, "chain decomposition needs an orientable base"),
        ("nn:o;g=0;2/2000001", "generic", 3, f"generic chain length exceeds cap {invariants.CHAIN_CAP}"),
    ],
)
def test_datum_routes_refuse_before_building_the_datum(capsys, text, method, code, message):
    """A base check or cap reads no datum, so it refuses before the level's
    datum is built: the level cache stays empty.  Each of these once built
    the datum at r = 4000 before it refused, with its dense S of 128 MB;
    the datum now holds O(r) numbers, so the traced peak alone no longer
    shows it.  The peak still stays under 20 MB."""
    cli.build_parser()
    sl2_datum.cache_clear()
    tracemalloc.start()
    try:
        got = run_cli(capsys, ["compute", text, "--r", "4000", "--method", method])
        peak = tracemalloc.get_traced_memory()[1]
        built = sl2_datum.cache_info().currsize
    finally:
        tracemalloc.stop()
        sl2_datum.cache_clear()
    assert got == (code, "", f"error: {message}\n")
    assert built == 0
    assert peak < 20e6, peak


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
