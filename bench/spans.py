"""Span recorder for the traced run, installed from outside the program.

``SpanRecorder.install`` replaces every public function of the traced
modules with a timing wrapper, in every namespace that binds it: the
modules import each other's functions by name (``from .modular import
g_matrix``), so patching only the defining module would miss those calls.
Spans (name, start, end, parent, invocation) stay in memory; ``write``
saves them at the end of the run.  Self time is a span's duration minus the
durations of its direct children, so the self times of one invocation add up
to its ``cli.main`` span.

A few functions also keep a small probe of their arguments, from which
``work_counts`` computes work done (grid terms, Gauss-sum terms, chain
digits).  Those counts are computed from the inputs, not measured.
"""

from __future__ import annotations

import gzip
import importlib
from math import prod
from time import perf_counter

PACKAGE = "seifert_rt"
LAYERS = ("cli", "seifert", "sl2z", "modular", "invariants")


def _chain_len(data, cf_style, cf_expand) -> int:
    return sum(len(cf_expand(a, b, cf_style)) for a, b in data.pairs if (a, b) != (1, 0))


def _probe(name: str):
    """Argument probe for the functions whose work is counted; None for others.

    Probes run before the span starts and keep only small values, never a
    datum, so tracing does not keep level caches alive.
    """

    def arg(args, kwargs, i, key):
        return args[i] if len(args) > i else kwargs[key]

    if name == "invariants.tau_cs11":
        return lambda a, k: (arg(a, k, 0, "r"), arg(a, k, 1, "data"))
    if name == "modular.r_rep_gauss":
        return lambda a, k: (arg(a, k, 0, "mat").c, arg(a, k, 1, "r"))
    if name == "modular.g_matrix":
        return lambda a, k: (arg(a, k, 0, "datum").n_labels, len(arg(a, k, 1, "entries")))
    if name in ("invariants.tau_generic", "invariants.tau_graph_sum"):
        return lambda a, k: (
            arg(a, k, 0, "datum").n_labels,
            arg(a, k, 1, "data"),
            a[2] if len(a) > 2 else k.get("cf_style", "minus"),
        )
    if name == "modular.sl2_datum":
        return lambda a, k: arg(a, k, 0, "r")
    return None


class SpanRecorder:
    def __init__(self) -> None:
        self.modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        self.names: list[str] = []
        # span id -> (name index, start, end, parent id, invocation id, probe)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.invocation = -1
        self.originals = dict(self._public_functions())
        self.wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        self.patched: list[tuple[object, str, object]] = []

    def _public_functions(self):
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    yield f"{layer}.{attr}", obj

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        probe = _probe(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            info = probe(args, kwargs) if probe is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, self.invocation, info)

        return wrapper

    def install(self) -> None:
        """Patch every binding of every public function of the traced layers."""
        if self.patched:
            raise RuntimeError("recorder already installed")
        namespaces = [importlib.import_module(PACKAGE), *self.modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = self.wrappers.get(id(obj))
                if w is not None:
                    self.patched.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def uninstall(self) -> None:
        for ns, attr, obj in self.patched:
            setattr(ns, attr, obj)
        self.patched.clear()

    # ---- analysis ---------------------------------------------------------

    def closed_spans(self) -> list[tuple]:
        if self.stack or any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> list[float]:
        spans = self.closed_spans()
        out = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def aggregate(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per function: calls, inclusive seconds (outermost call only) and
        self seconds; plus the worst mismatch, over invocations, between the
        sum of self times and the ``cli.main`` span."""
        spans = self.closed_spans()
        selfs = self.self_times()
        stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        main_idx = self.names.index("cli.main")
        inv_self: dict[int, float] = {}
        inv_main: dict[int, float] = {}
        for sid, (idx, t0, t1, parent, inv, _) in enumerate(spans):
            st = stats[self.names[idx]]
            st["calls"] += 1
            st["self_s"] += selfs[sid]
            inv_self[inv] = inv_self.get(inv, 0.0) + selfs[sid]
            if idx == main_idx and parent < 0:
                inv_main[inv] = t1 - t0
            p = parent
            while p >= 0 and spans[p][0] != idx:
                p = spans[p][3]
            if p < 0:
                st["s"] += t1 - t0
        worst = 0.0
        for inv, total in inv_self.items():
            main = inv_main.get(inv)
            if main is None:
                return stats, float("inf")
            worst = max(worst, abs(total - main) / max(main, 1e-12))
        return stats, worst

    def work_counts(self) -> dict[str, float]:
        """Work computed from the probed arguments (labelled computed)."""
        cf_expand = self.originals["sl2z.cf_expand"]
        normalize = self.originals["seifert.normalize"]
        out = {
            "invariants.tau_cs11.grid_terms": 0,
            "invariants.tau_cs11.grid_bytes_max": 0,
            "modular.r_rep_gauss.terms": 0,
            "modular.g_matrix.digits": 0,
            "modular.g_matrix.flop": 0,
            "invariants.tau_generic.chain_len": 0,
            "invariants.tau_graph_sum.terms": 0,
        }
        for idx, _, _, _, _, info in self.closed_spans():
            if info is None:
                continue
            name = self.names[idx]
            if name == "invariants.tau_cs11":
                r, data = info
                terms = (r - 1) * prod(2 * a for a, _ in data.pairs)
                out["invariants.tau_cs11.grid_terms"] += terms
                # one complex128 value per grid term
                out["invariants.tau_cs11.grid_bytes_max"] = max(
                    out["invariants.tau_cs11.grid_bytes_max"], 16 * terms
                )
            elif name == "modular.r_rep_gauss":
                c, r = info
                out["modular.r_rep_gauss.terms"] += 2 * abs(c) * (r - 1) ** 2
            elif name == "modular.g_matrix":
                n, digits = info
                out["modular.g_matrix.digits"] += digits
                # one n x n complex matrix product per digit: n^3 complex
                # multiply-adds of 8 real flops each
                out["modular.g_matrix.flop"] += 8 * digits * n**3
            elif name == "invariants.tau_generic":
                _, data, style = info
                out["invariants.tau_generic.chain_len"] += _chain_len(data, style, cf_expand)
            elif name == "invariants.tau_graph_sum":
                n, data, style = info
                mm = normalize(data)
                out["invariants.tau_graph_sum.terms"] += n ** (1 + _chain_len(mm, style, cf_expand))
        return out

    def datum_levels(self, first: int, last: int) -> set[int]:
        """Levels requested from sl2_datum by spans first..last-1."""
        idx = self.names.index("modular.sl2_datum")
        return {s[5] for s in self.closed_spans()[first:last] if s[0] == idx}

    def write(self, path: str) -> None:
        """Save spans as gzip'd text: name, start, end, parent, invocation."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinvocation\n")
            for sid, (idx, t0, t1, parent, inv, _) in enumerate(self.closed_spans()):
                fh.write(f"{sid}\t{self.names[idx]}\t{t0!r}\t{t1!r}\t{parent}\t{inv}\n")


def datum_bytes(r: int) -> int:
    """Resident size of one cached sl2 datum: complex S and v, real dims."""
    n = r - 1
    return 16 * n * n + 16 * n + 8 * n
