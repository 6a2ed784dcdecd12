"""Acceptance gate: eleven cross-validation criteria, one test each.

Every test prints a single [criterion N] PASS/FAIL line (visible in the
default run through the tee'd capture mode) and then asserts."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from seifert_rt import invariants
from seifert_rt.cli import random_seifert
from seifert_rt.invariants import (
    ComplexityCap,
    tau_compact,
    tau_cs11,
    tau_generic,
    tau_graph_sum,
    tau_lens_routes,
    tau_section5,
    verlinde_dim,
)
from seifert_rt.modular import (
    check_axioms,
    r_rep_gauss,
    r_rep_generators,
    sl2_datum,
)
from seifert_rt.seifert import (
    LensSpace,
    SeifertData,
    euler_number,
    normalize,
    parse_seifert,
    reverse_orientation,
    seifert_from_lens,
)
from seifert_rt.sl2z import (
    SL2Z,
    b_matrix,
    cf_expand,
    convergents,
    dedekind_sum,
    dedekind_sum_cotangent,
    ext_gcd,
    linking_matrix,
    rademacher_phi,
    sigma_closed_form,
    sign,
    signature_exact,
)

from helpers import r_rep_word

S3_PLUS = parse_seifert("o;g=0;b=1;")
S3_MINUS = parse_seifert("o;g=0;b=-1;")
S1_S2 = parse_seifert("o;g=0;b=0;")


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def fifty_random(seed: int = 1234) -> list[SeifertData]:
    rng = random.Random(seed)
    return [random_seifert(rng) for _ in range(50)]


def route_values(data: SeifertData, r: int, style: str = "minus") -> list[complex]:
    datum = sl2_datum(r)
    vals = [
        tau_generic(datum, data, style).value,
        tau_cs11(r, data).value,
        tau_compact(r, data).value,
    ]
    if data.base == "o":
        vals.append(tau_section5(datum, data, style).value)
        try:
            vals.append(tau_graph_sum(datum, data, style).value)
        except ComplexityCap:
            pass
    return vals


def pair_spread(values: list[complex]) -> float:
    return max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )


def random_bounded_matrix(rng: random.Random, bound: int = 30) -> SL2Z:
    """Random group element with |a|, |c| <= bound and c != 0."""
    while True:
        a = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if c == 0 or math.gcd(a, c) != 1:
            continue
        _, x, y = ext_gcd(a, c)
        # a x + c y = 1, so columns (a, c) and (-y, x) close the matrix
        return SL2Z(a, -y, c, x)


def jn_variant(data: SeifertData, rng: random.Random) -> SeifertData:
    """An equivalent unnormalized presentation built from slide moves:
    fold the framing into a unit pair, shift a pair by its fiber order
    with a compensating unit pair, append a cancelling unit pair couple,
    and shuffle."""
    pairs = list(data.pairs)
    pairs.append((1, data.b))
    if pairs[:-1] and rng.random() < 0.8:
        i = rng.randrange(len(pairs) - 1)
        alpha, beta = pairs[i]
        if rng.random() < 0.5:
            pairs[i] = (alpha, beta - alpha)
            pairs.append((1, 1))
        else:
            pairs[i] = (alpha, beta + alpha)
            pairs.append((1, -1))
    if rng.random() < 0.7:
        k = rng.randint(1, 3)
        pairs.append((1, k))
        pairs.append((1, -k))
    rng.shuffle(pairs)
    return SeifertData(data.base, data.genus, None, tuple(pairs))


# ------------------------------------------------------------------ gate


def test_criterion_01_unit_values(monkeypatch):
    monkeypatch.setattr(invariants, "GRAPH_R_CAP", 16)
    t0 = time.perf_counter()
    worst = 0.0
    for r in range(3, 17):
        datum = sl2_datum(r)
        d_inv = math.sqrt(2.0 / r) * math.sin(math.pi / r)
        for data, expected in ((S3_PLUS, d_inv), (S3_MINUS, d_inv), (S1_S2, 1.0)):
            vals = [
                tau_generic(datum, data).value,
                tau_cs11(r, data).value,
                tau_compact(r, data).value,
                tau_section5(datum, data).value,
                tau_graph_sum(datum, data).value,
            ]
            worst = max(worst, max(abs(v - expected) for v in vals))
    dt = time.perf_counter() - t0
    report(1, worst < 1e-10 and dt < 1.0, f"max err {worst:.2e}, {dt:.2f} s")


def test_criterion_02_cross_method_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for data in fifty_random():
        for r in range(3, 11):
            worst = max(worst, pair_spread(route_values(data, r)))
    dt = time.perf_counter() - t0
    report(2, worst < 1e-8 and dt < 120.0, f"max pairwise {worst:.2e}, {dt:.1f} s")


def test_criterion_03_cf_style_invariance():
    worst = 0.0
    for data in fifty_random():
        for r in (3, 5, 8, 10):
            datum = sl2_datum(r)
            a = tau_generic(datum, data, "minus").value
            b = tau_generic(datum, data, "euclidean").value
            worst = max(worst, abs(a - b))
            if data.base == "o":
                a5 = tau_section5(datum, data, "minus").value
                b5 = tau_section5(datum, data, "euclidean").value
                worst = max(worst, abs(a5 - b5))
                try:
                    ag = tau_graph_sum(datum, data, "minus").value
                    bg = tau_graph_sum(datum, data, "euclidean").value
                except ComplexityCap:
                    continue
                worst = max(worst, abs(ag - bg))
    report(3, worst < 1e-9, f"max style gap {worst:.2e}")


def test_criterion_04_lens_consistency():
    worst_route = 0.0
    worst_cross = 0.0
    for p in range(2, 11):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            data = seifert_from_lens(LensSpace(p, q))
            for r in range(3, 13):
                v1, v2, _ = tau_lens_routes(r, LensSpace(p, q))
                worst_route = max(worst_route, abs(v1 - v2))
                via_fibration = tau_cs11(r, data).value
                worst_cross = max(worst_cross, abs(v1 - via_fibration), abs(v2 - via_fibration))
    ok = worst_route < 1e-9 and worst_cross < 1e-9
    report(4, ok, f"routes {worst_route:.2e}, vs fibration {worst_cross:.2e}")


def test_criterion_05_orientation_reversal():
    worst = 0.0
    for data in fifty_random(seed=77):
        norm = normalize(data)
        rev = reverse_orientation(norm)
        for r in range(3, 11):
            a = tau_cs11(r, norm).value
            b = tau_cs11(r, rev).value
            worst = max(worst, abs(b - a.conjugate()))
    report(5, worst < 1e-9, f"max conjugation gap {worst:.2e}")


def test_criterion_06_exact_signatures():
    rng = random.Random(4242)
    sig_fail = 0
    for _ in range(200):
        data = normalize(random_seifert(rng))
        e = euler_number(data)
        for style in ("minus", "euclidean"):
            cfs = tuple(cf_expand(a, b, style) for a, b in data.pairs)
            tables = tuple(convergents(c) for c in cfs)
            expected, _ = signature_exact(linking_matrix(data, cfs))
            for variant in ("sums", "phi"):
                if sigma_closed_form(data.base, sign(e), tables, variant) != expected:
                    sig_fail += 1
    coc_fail = 0
    for _ in range(200):
        w1 = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
        w2 = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
        a1, a2 = b_matrix(w1), b_matrix(w2)
        a3 = a1 * a2
        lhs = rademacher_phi(a3)
        rhs = rademacher_phi(a1) + rademacher_phi(a2) - 3 * sign(a1.c * a2.c * a3.c)
        if lhs != rhs:
            coc_fail += 1
    ok = sig_fail == 0 and coc_fail == 0
    report(6, ok, f"signature mismatches {sig_fail}, cocycle mismatches {coc_fail}")


def test_criterion_07_representation_suite():
    worst_pair = 0.0
    rng = random.Random(30)
    for r in (3, 5, 8, 13, 20):
        for _ in range(50):
            m = random_bounded_matrix(rng)
            gap = np.max(np.abs(r_rep_gauss(m, r) - r_rep_word(m, r)[:, 0]))
            worst_pair = max(worst_pair, float(gap))
    worst_rel = 0.0
    for r in range(2, 21):
        gen = r_rep_generators(r)
        n = r - 1
        eye = np.eye(n)
        worst_rel = max(worst_rel, float(np.max(np.abs(gen.xi @ gen.xi - eye))))
        tx = np.diag(gen.theta_diag) @ gen.xi
        worst_rel = max(worst_rel, float(np.max(np.abs(tx @ tx @ tx - eye))))
        worst_rel = max(
            worst_rel, float(np.max(np.abs(gen.xi @ gen.xi.conj().T - eye)))
        )
        worst_rel = max(worst_rel, float(np.max(np.abs(np.abs(gen.theta_diag) - 1))))
    ok = worst_pair < 1e-8 and worst_rel < 1e-10
    report(7, ok, f"route gap {worst_pair:.2e}, relations {worst_rel:.2e}")


def test_criterion_08_modular_axioms():
    worst = 0.0
    for r in range(2, 31):
        d = sl2_datum(r)
        rep = check_axioms(d)
        worst = max(worst, rep["s_squared"], rep["delta_product"])
        charge = abs(d.delta / d.D - np.exp(1j * math.pi * 3 * (2 - r) / (4 * r)))
        worst = max(worst, float(charge))
    report(8, worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_09_verlinde_integrality():
    worst = 0.0
    torus_ok = True
    for r in range(3, 13):
        d = sl2_datum(r)
        labels = range(d.n_labels)
        color_sets = [()]
        color_sets += [(c,) for c in labels]
        color_sets += list(itertools.combinations_with_replacement(labels, 2))
        for g in range(4):
            for colors in color_sets:
                val = verlinde_dim(d, g, colors)
                nearest = round(val)
                gap = abs(val - nearest)
                if nearest < 0:
                    gap = max(gap, abs(val))
                worst = max(worst, gap)
        if abs(verlinde_dim(d, 1) - (r - 1)) > 1e-6:
            torus_ok = False
    report(9, worst < 1e-6 and torus_ok, f"max integrality gap {worst:.2e}")


def test_criterion_10_equivalence_moves():
    rng = random.Random(60)
    worst = 0.0
    for _ in range(30):
        data = normalize(random_seifert(rng))
        variant = jn_variant(data, rng)
        for r in range(3, 11):
            a = tau_cs11(r, data).value
            b = tau_cs11(r, variant).value
            worst = max(worst, abs(a - b))
    report(10, worst < 1e-9, f"max move gap {worst:.2e}")


def test_criterion_11_dedekind_suite():
    worst = 0.0
    for q in range(1, 51):
        for s in range(0, q):
            if math.gcd(s, q) != 1:
                continue
            worst = max(
                worst, abs(float(dedekind_sum(s, q)) - dedekind_sum_cotangent(s, q))
            )
    unit_ok = all(dedekind_sum(s, 1) == 0 for s in range(-5, 6))
    odd_ok = all(
        dedekind_sum(-s, q) == -dedekind_sum(s, q)
        for q in range(2, 30)
        for s in range(1, q)
        if math.gcd(s, q) == 1
    )
    rng = random.Random(90)
    int_ok = True
    for _ in range(500):
        word = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
        phi = rademacher_phi(b_matrix(word))
        if not isinstance(phi, int):
            int_ok = False
    ok = worst < 1e-9 and unit_ok and odd_ok and int_ok
    report(
        11,
        ok,
        f"cotangent gap {worst:.2e}, unit {unit_ok}, odd {odd_ok}, integer {int_ok}",
    )
