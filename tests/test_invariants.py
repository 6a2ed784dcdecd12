"""Tests for the invariant evaluation routes, lens space values, fusion
dimensions and output normalizations."""

from __future__ import annotations

import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifert_rt import invariants
from seifert_rt.invariants import (
    METHODS,
    NORMALIZATIONS,
    ComplexityCap,
    InvariantResult,
    MissingBetti,
    convert_normalization,
    tau_compact,
    tau_cs11,
    tau_generic,
    tau_graph_sum,
    tau_lens,
    tau_lens_routes,
    tau_section5,
    verlinde_dim,
)
from seifert_rt.modular import MissingEpsilon, ModularDatum, sl2_datum
from seifert_rt.seifert import (
    LensSpace,
    SeifertData,
    UnsupportedBase,
    euler_number,
    normalize,
    parse_seifert,
    reverse_orientation,
    seifert_from_lens,
)
from seifert_rt.sl2z import cf_expand, dedekind_sum, sign

POINCARE = parse_seifert("o;g=0;b=-1;2/1,3/1,5/1")
S3_PLUS = parse_seifert("o;g=0;b=1;")
S3_MINUS = parse_seifert("o;g=0;b=-1;")
S1_S2 = parse_seifert("o;g=0;b=0;")


def all_route_values(data, r, cf_style="minus"):
    datum = sl2_datum(r)
    out = [
        tau_generic(datum, data, cf_style).value,
        tau_cs11(r, data).value,
        tau_compact(r, data).value,
    ]
    if data.base == "o":
        out.append(tau_section5(datum, data, cf_style).value)
        out.append(tau_graph_sum(datum, data, cf_style).value)
    return out


def spread(values):
    return max(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )


# ------------------------------------------------------ reference values


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_sphere_value_every_route(r):
    expected = math.sqrt(2.0 / r) * math.sin(math.pi / r)
    for data in (S3_PLUS, S3_MINUS):
        for val in all_route_values(data, r):
            assert abs(val - expected) < 1e-12


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_product_value_every_route(r):
    for val in all_route_values(S1_S2, r):
        assert abs(val - 1.0) < 1e-12


def test_poincare_frozen_values():
    got5 = tau_cs11(5, POINCARE).value
    assert abs(got5 - (-0.30075047750377215 + 0.925614793410957j)) < 1e-12
    got7 = tau_cs11(7, POINCARE).value
    assert abs(got7 - (-0.8460344491024053 + 0.04478304252582149j)) < 1e-12


def test_routes_agree_on_seeded_sample():
    from seifert_rt.cli import random_seifert

    rng = random.Random(314)
    for _ in range(12):
        data = random_seifert(rng)
        for r in (3, 5, 7):
            values = all_route_values(data, r)
            assert spread(values) < 1e-9, (data, r)


def test_cs11_invariant_under_normalization():
    from seifert_rt.cli import random_seifert

    rng = random.Random(99)
    for _ in range(10):
        data = random_seifert(rng)
        norm = normalize(data)
        for r in (4, 6):
            a = tau_cs11(r, data).value
            b = tau_cs11(r, norm).value
            assert abs(a - b) < 1e-10


def test_orientation_reversal_conjugates():
    from seifert_rt.cli import random_seifert

    rng = random.Random(500)
    for _ in range(15):
        data = normalize(random_seifert(rng))
        rev = reverse_orientation(data)
        for r in (3, 5):
            a = tau_cs11(r, data).value
            b = tau_cs11(r, rev).value
            assert abs(b - a.conjugate()) < 1e-10


# ------------------------------------------------ cs11 per-fiber Gauss sums


def cs11_grid(r, data):
    """Reference: the cs11 sum over the whole (mu, m) grid of all fibers,
    with every phase taken over the common denominator r prod alpha_j."""
    pairs = data.pairs
    n = len(pairs)
    ae = 2 if data.base == "o" else 1
    aeg = ae * data.genus
    e = euler_number(data)
    es = sign(e)
    A = math.prod(alpha for alpha, _ in pairs)
    dsum = sum((dedekind_sum(beta, alpha) for alpha, beta in pairs), Fraction(0))
    x = Fraction(3 * (ae - 1) * es) - e - 12 * dsum
    pref = cmath.exp(1j * math.pi * float(x % (4 * r)) / (2 * r))
    pref *= (-1) ** aeg * 1j**n * r ** (aeg / 2 - 1) / 2 ** (n + aeg / 2 - 1)
    pref /= math.sqrt(A)
    pref *= cmath.exp(1j * 3 * math.pi * (1 - ae) * es / 4)

    L = r * A
    NH = np.zeros(1, dtype=np.int64)
    NG = np.zeros(1, dtype=np.int64)
    SG = np.ones(1, dtype=np.int64)
    for alpha, beta in pairs:
        bstar = 0 if alpha == 1 else pow(beta % alpha, -1, alpha)
        bh, bg, bs = [], [], []
        for mu in (1, -1):
            for mm in range(alpha):
                bh.append(-(A // alpha) * (2 * r * mm + mu))
                bg.append(-2 * r * (A // alpha) * bstar * (r * mm * mm + mu * mm))
                bs.append(mu)
        NH = (NH[:, None] + np.array(bh, dtype=np.int64)[None, :]).ravel()
        NG = (NG[:, None] + np.array(bg, dtype=np.int64)[None, :]).ravel()
        SG = (SG[:, None] * np.array(bs, dtype=np.int64)[None, :]).ravel()
    base_vec = SG * np.exp(1j * math.pi * (NG % (2 * L)) / L)
    gam = np.arange(1, r, dtype=np.int64)
    phases = (gam[:, None] * NH[None, :]) % (2 * L)
    W = np.exp(1j * math.pi * phases / L) @ base_vec

    sgn_g = np.where((gam * aeg) % 2 == 1, -1.0, 1.0)
    den_e = 2 * r * e.denominator
    ph_e = np.exp(1j * math.pi * ((e.numerator * gam * gam) % (2 * den_e)) / den_e)
    sins = np.sin(np.pi * gam / r) ** (2 - n - aeg)
    return complex(pref * np.sum(sgn_g * ph_e * sins * W))


def cs11_mpmath(r, data, dps=40):
    """Reference: the factored cs11 sum in mpmath at dps digits, every
    phase an exact Fraction of pi."""

    def expjpi(f):
        f = Fraction(f)
        return mpmath.expjpi(mpmath.mpf(f.numerator) / f.denominator)

    with mpmath.workdps(dps):
        pairs = data.pairs
        n = len(pairs)
        ae = 2 if data.base == "o" else 1
        aeg = ae * data.genus
        e = euler_number(data)
        es = sign(e)
        x = 3 * (ae - 1) * es - e - 12 * sum(dedekind_sum(b, a) for a, b in pairs)
        half = mpmath.mpf(aeg) / 2
        pref = expjpi(x / (2 * r)) * expjpi(Fraction(3 * (1 - ae) * es, 4))
        pref *= (-1) ** aeg * mpmath.mpc(0, 1) ** n * mpmath.mpf(r) ** (half - 1)
        pref /= mpmath.mpf(2) ** (n + half - 1) * mpmath.sqrt(math.prod(a for a, _ in pairs))
        total = mpmath.mpc(0)
        for gam in range(1, r):
            w = mpmath.mpc(1)
            for a, b in pairs:
                bstar = 0 if a == 1 else pow(b % a, -1, a)
                w *= sum(
                    mu * expjpi(Fraction(-(gam * (2 * r * m + mu) + 2 * r * bstar * (r * m * m + mu * m)), r * a))
                    for mu in (1, -1)
                    for m in range(a)
                )
            total += (
                (-1) ** (gam * aeg)
                * expjpi(Fraction(e.numerator * gam * gam, 2 * r * e.denominator))
                * mpmath.sinpi(mpmath.mpf(gam) / r) ** (2 - n - aeg)
                * w
            )
        return complex(pref * total)


@st.composite
def small_seifert(draw):
    """Both bases, genus 0..2, 1..3 fibers with alpha <= 7, both shapes."""
    base = draw(st.sampled_from(("o", "n")))
    genus = draw(st.integers(1 if base == "n" else 0, 2))
    normalized = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        alpha = draw(st.integers(2 if normalized else 1, 7))
        betas = st.integers(1, alpha - 1) if normalized else st.integers(-7, 7)
        beta = draw(betas.filter(lambda x, a=alpha: math.gcd(x, a) == 1))
        pairs.append((alpha, beta))
    b = draw(st.integers(-3, 3)) if normalized else None
    return SeifertData(base, genus, b, tuple(pairs))


@given(data=small_seifert(), r=st.integers(3, 30))
@settings(max_examples=150, deadline=None)
def test_cs11_matches_grid_formula(data, r):
    res = tau_cs11(r, data)
    assert abs(res.value - cs11_grid(r, data)) <= res.tolerance_estimate


@given(data=small_seifert(), r=st.integers(3, 30), extra=st.data())
@settings(max_examples=150, deadline=None)
def test_cs11_and_compact_are_periodic_at_level_r(data, r, extra):
    """b -> b + 4rK, or beta -> beta + 4r alpha K, leaves tau_r unchanged.

    Every phase is a root of unity of order dividing 8r, so only the
    integer exponents change, by multiples of their periods.  Both shifts
    move e by -4rK; K takes the sign that keeps sign(e), which the
    formulas read, and runs up to about 2^61 / (4 r alpha).
    """
    e = euler_number(data)
    assume(e != 0)
    j = None if data.normalized else extra.draw(st.integers(0, len(data.pairs) - 1))
    alpha = 1 if j is None else data.pairs[j][0]
    k = -sign(e) * extra.draw(st.integers(1, 2**61 // (4 * r * alpha)))
    if j is None:
        shifted = SeifertData(data.base, data.genus, data.b + 4 * r * k, data.pairs)
    else:
        pairs = list(data.pairs)
        pairs[j] = (alpha, pairs[j][1] + 4 * r * alpha * k)
        shifted = SeifertData(data.base, data.genus, None, tuple(pairs))
    for route in (tau_cs11, tau_compact):
        ours, theirs = route(r, data), route(r, shifted)
        gap = abs(ours.value - theirs.value)
        assert gap <= ours.tolerance_estimate + theirs.tolerance_estimate, route.__name__


@pytest.mark.parametrize("k", [1, 3, 2**40 + 1])
def test_compact_is_exactly_periodic_in_beta(k):
    # beta -> beta + 4 r alpha K keeps sign(e), and the value must be identical:
    # at |tau| = 1.1e6 a rounding difference alone exceeds the absolute tolerances
    r = 25
    ours = tau_compact(r, parse_seifert("nn:o;g=2;2/1,2/1,2/1"))
    theirs = tau_compact(r, parse_seifert(f"nn:o;g=2;2/{1 + 200 * k},2/1,2/1"))
    assert theirs.value == ours.value


@pytest.mark.parametrize(
    "text",
    [
        "nn:o;g=0;3/2305843009213693952,2/1",
        "o;g=0;b=768614336404564650;3/2,2/1",
        "nn:o;g=1;3/2305843009213693951,2/1,7/-3",
        "nn:o;g=0;3/1000000007,2/1",
    ],
)
def test_cs11_and_compact_agree_on_huge_slopes(text):
    data = parse_seifert(text)
    ours, other = tau_cs11(5, data), tau_compact(5, data)
    assert abs(ours.value - other.value) <= ours.tolerance_estimate + other.tolerance_estimate


@pytest.mark.parametrize(
    "text", ["o;g=0;b=-1;97/5,101/7,103/9", "n;g=1;b=2;97/5,101/7,103/9"]
)
def test_cs11_large_fibers_match_other_routes(text):
    data = parse_seifert(text)
    r = 50
    ours = tau_cs11(r, data)
    for other in (tau_compact(r, data), tau_generic(sl2_datum(r), data)):
        gap = abs(ours.value - other.value)
        assert gap <= ours.tolerance_estimate + other.tolerance_estimate, other.method


@pytest.mark.parametrize(
    "text, r",
    [
        ("o;g=0;b=-1;2/1,3/1,5/1", 200),
        ("o;g=1;b=2;7/3,11/4,13/5", 50),
        ("n;g=1;b=2;7/3,11/4,13/5", 120),
        ("n;g=2;b=-3;5/2,7/3", 150),
        pytest.param(
            "o;g=2;b=0;7/3,5/2",
            100,
            marks=pytest.mark.xfail(
                strict=True,
                reason="|tau| = 3e6 here and the absolute error model does not scale with it",
            ),
        ),
    ],
)
def test_cs11_mpmath_reference(text, r):
    data = parse_seifert(text)
    res = tau_cs11(r, data)
    assert abs(res.value - cs11_mpmath(r, data)) <= res.tolerance_estimate


# -------------------------------------------------- column kernels, large r


# Relative gates against cs11_mpmath at r = 1000, one per route: ten times the
# largest relative error measured on the three presentations below, rounded up
# (generic 9.1e-12, section5 2.7e-11, compact 1.8e-13; the same to two digits
# with the whole-matrix kernels).
LARGE_R_GATES = {"generic": 1e-10, "section5": 3e-10, "compact": 2e-12}


@pytest.mark.parametrize(
    "text", ["o;g=0;b=-1;2/1,3/1,5/1", "o;g=1;b=2;7/3,11/4,13/5", "o;g=2;b=0;7/3,5/2"]
)
def test_column_routes_match_reference_at_large_r(text):
    r = 1000
    data = parse_seifert(text)
    ref = cs11_mpmath(r, data)
    datum = sl2_datum(r)
    for res in (tau_generic(datum, data), tau_section5(datum, data), tau_compact(r, data)):
        gate = LARGE_R_GATES[res.method] * max(1.0, abs(ref))
        assert abs(res.value - ref) <= gate, (res.method, abs(res.value - ref) / max(1.0, abs(ref)))


def test_column_routes_stay_linear_in_memory():
    """Peak traced allocation of one evaluation, the level datum already
    built: far below one (r - 1)^2 complex matrix, which the whole-matrix
    kernels allocated several of (64 MB each at r = 2000)."""
    data = parse_seifert("o;g=1;b=2;7/3,11/4,13/5")
    cases = [
        (2000, lambda: tau_compact(2000, data)),
        (1500, lambda: tau_generic(sl2_datum(1500), data)),
        (1500, lambda: tau_section5(sl2_datum(1500), data)),
    ]
    try:
        for r, run in cases:
            sl2_datum(r)
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            matrix = 16 * (r - 1) ** 2
            assert peak < matrix / 16, (r, peak)
    finally:
        sl2_datum.cache_clear()  # the large levels are not worth keeping


def test_generic_long_chain_stays_finite():
    """2/2001 expands, as given, into a 1001-digit minus chain, so D^-1001
    overflowed; the chain kernel scales each digit by 1/D instead."""
    data = parse_seifert("nn:o;g=0;2/2001")
    assert len(cf_expand(2, 2001, "minus")) == 1001
    r = 5
    want = 0.371748034460184
    for res in (tau_generic(sl2_datum(r), data), tau_cs11(r, data), tau_compact(r, data)):
        assert abs(res.value - want) <= res.tolerance_estimate, res.method


# ------------------------------------------------------------ lens spaces


def test_lens_frozen_values():
    assert (
        abs(
            tau_lens(5, LensSpace(5, 4)).value
            - (-0.41562693777745346 - 0.5720614028176843j)
        )
        < 1e-12
    )
    assert (
        abs(
            tau_lens(5, LensSpace(7, 3)).value
            - (-0.35355339059327373 + 0.4866244947338651j)
        )
        < 1e-12
    )


@pytest.mark.parametrize("r", [3, 5, 8])
def test_lens_unit_cases(r):
    d_inv = math.sqrt(2.0 / r) * math.sin(math.pi / r)
    for p, q in [(1, 0), (-1, 0), (1, 1)]:
        assert abs(tau_lens(r, LensSpace(p, q)).value - d_inv) < 1e-12
    assert abs(tau_lens(r, LensSpace(0, 1)).value - 1.0) < 1e-12


def test_lens_internal_routes_agree():
    for p in range(2, 9):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for r in (3, 6):
                v1, v2, _ = tau_lens_routes(r, LensSpace(p, q))
                assert abs(v1 - v2) < 1e-10, (p, q, r)


def test_lens_rejects_nan_route(monkeypatch):
    monkeypatch.setattr(invariants, "tau_lens_routes", lambda r, lens, cf: (math.nan, 1.0, 0))
    with pytest.raises(ArithmeticError):
        tau_lens(5, LensSpace(5, 4))


@pytest.mark.parametrize("p, q", [(5, 4), (7, 3), (12, 5)])
def test_lens_matrix_route_exact_for_huge_q(p, q):
    # L(p, q + p M) is L(p, q); its matrix route carries phi ~ M
    for r in (5, 7):
        want = tau_lens_routes(r, LensSpace(p, q))[0]
        assert abs(tau_lens_routes(r, LensSpace(p, q + p * 2**58))[0] - want) < 1e-12, r


def test_lens_matches_fibered_presentation():
    for p, q in [(5, 4), (7, 3), (4, 1), (9, 2)]:
        data = seifert_from_lens(LensSpace(p, q))
        for r in (4, 7):
            direct = tau_lens(r, LensSpace(p, q)).value
            via_fibration = tau_cs11(r, data).value
            assert abs(direct - via_fibration) < 1e-10


# ------------------------------------------------------- guards and caps


def test_graph_sum_caps():
    d = sl2_datum(5)
    with pytest.raises(ComplexityCap):
        tau_graph_sum(d, POINCARE, chain_cap=2)
    with pytest.raises(ComplexityCap):
        tau_graph_sum(sl2_datum(12), S3_PLUS, r_cap=10)
    with pytest.raises(ComplexityCap):
        tau_graph_sum(d, POINCARE, max_terms=10)


def test_nonorientable_base_unsupported_routes():
    kb = parse_seifert("n;g=1;b=0;")
    d = sl2_datum(5)
    with pytest.raises(UnsupportedBase):
        tau_graph_sum(d, kb)
    with pytest.raises(UnsupportedBase):
        tau_section5(d, kb)


def no_eps_datum(r):
    d = sl2_datum(r)
    return ModularDatum(
        d.n_labels,
        np.array(d.S),
        np.array(d.v),
        np.array(d.dims),
        d.D,
        d.delta,
        d.dual,
        (None,) * d.n_labels,
    )


def test_missing_epsilon_only_when_consumed():
    d = sl2_datum(5)
    bare = no_eps_datum(5)
    odd = parse_seifert("n;g=1;b=0;")
    even = parse_seifert("n;g=2;b=0;")
    with pytest.raises(MissingEpsilon):
        tau_generic(bare, odd)
    a = tau_generic(d, even).value
    b = tau_generic(bare, even).value
    assert a == b


def test_result_validation():
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 5, "other", None, None, 1e-12)
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 1, "cs11", None, None, 1e-12)
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 5, "cs11", None, None, 0.0)
    assert set(METHODS) >= {"generic", "cs11", "compact"}


def test_result_route_metadata():
    res = tau_generic(sl2_datum(5), POINCARE)
    assert res.method == "generic"
    assert res.sigma_used == 2
    assert res.cf_style == "minus"
    assert res.tolerance_estimate > 0
    res2 = tau_cs11(5, POINCARE)
    assert res2.sigma_used is None
    assert res2.cf_style is None


# ------------------------------------------------------ fusion dimensions


def test_verlinde_frozen():
    d5 = sl2_datum(5)
    assert abs(verlinde_dim(d5, 2) - 20.0) < 1e-9
    assert abs(verlinde_dim(d5, 0, (1, 1)) - 1.0) < 1e-9
    assert abs(verlinde_dim(sl2_datum(4), 1, (2,)) - 1.0) < 1e-9
    assert abs(verlinde_dim(d5, 0, (1, 2, 3)) - 1.0) < 1e-9


@pytest.mark.parametrize("r", range(3, 10))
def test_verlinde_torus_counts_labels(r):
    assert abs(verlinde_dim(sl2_datum(r), 1) - (r - 1)) < 1e-8


def test_verlinde_integrality():
    rng = random.Random(8)
    for r in range(3, 10):
        d = sl2_datum(r)
        for g in range(4):
            colors = tuple(
                rng.randrange(d.n_labels) for _ in range(rng.randint(0, 2))
            )
            val = verlinde_dim(d, g, colors)
            assert val > -1e-6
            assert abs(val - round(val)) < 1e-6, (r, g, colors, val)


# --------------------------------------------------------- normalizations


def test_convert_normalization_formulas():
    d = sl2_datum(5)
    res = tau_cs11(5, POINCARE)
    tau = res.value
    assert convert_normalization(res, "tau", d) == tau
    assert abs(convert_normalization(res, "tau_d", d) - d.D * tau) < 1e-12
    framed = convert_normalization(res, "framed", d, b1=0)
    assert abs(framed - d.D * tau) < 1e-12
    lescop = convert_normalization(res, "lescop", d, b1=0)
    assert abs(lescop - d.D * tau) < 1e-12
    lescop2 = convert_normalization(res, "lescop", d, b1=2)
    assert abs(lescop2 - d.D**3 * tau) < 1e-12
    assert tuple(NORMALIZATIONS) == ("tau", "tau_d", "framed", "lescop")


def test_convert_normalization_sphere_lands_on_one():
    d = sl2_datum(6)
    res = tau_cs11(6, S3_PLUS)
    assert abs(convert_normalization(res, "tau_d", d) - 1.0) < 1e-12


def test_convert_normalization_errors():
    d = sl2_datum(5)
    res = tau_cs11(5, POINCARE)
    with pytest.raises(MissingBetti):
        convert_normalization(res, "framed", d)
    with pytest.raises(MissingBetti):
        convert_normalization(res, "lescop", d)
    with pytest.raises(ValueError):
        convert_normalization(res, "other", d)
