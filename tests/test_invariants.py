"""Tests for the invariant evaluation routes, lens space values and fusion
dimensions."""

from __future__ import annotations

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seifert_rt import invariants
from seifert_rt.invariants import (
    ROUTES,
    ComplexityCap,
    InvariantResult,
    Unsupported,
    tau_compact,
    tau_cs11,
    tau_generic,
    tau_graph_sum,
    tau_lens_routes,
    tau_section5,
    verlinde_dim,
)
from seifert_rt.modular import (
    ModularDatum,
    check_axioms,
    g_matrix,
    gauss_columns,
    gauss_limit,
    gauss_modulus,
    load_datum,
    mirror_datum,
    save_datum,
    sl2_datum,
)
from seifert_rt.seifert import (
    LensSpace,
    SeifertData,
    euler_number,
    first_betti,
    normalize,
    parse_seifert,
    reverse_orientation,
    seifert_from_lens,
)
from seifert_rt.sl2z import (
    CF_STYLES,
    SL2Z,
    cf_expand,
    dedekind_sum,
    linking_matrix,
    sign,
    signature_exact,
)

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
def small_seifert(draw, bases=("o", "n")):
    """Genus 0..2, 1..3 fibers with alpha <= 7, both shapes; both bases
    unless bases says otherwise."""
    base = draw(st.sampled_from(bases))
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


@st.composite
def boundary_fibers(draw):
    """A level r and 1..2 fibers of order 2 (r - 1) - 1, 2 (r - 1) or
    2 (r - 1) + 1, where compact at the one level r switches from
    tabulating each fiber's Gauss sum on all alpha residues to summing it
    at the 2 (r - 1) points.  The examples add cs11's switch, a fiber of
    order CS11_BLOCK - 1, CS11_BLOCK or CS11_BLOCK + 1: up to CS11_BLOCK
    its Gauss sum is tabulated by one FFT per level, past it summed at the
    points."""
    r = draw(st.integers(3, 20))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        alpha = 2 * (r - 1) + draw(st.sampled_from((-1, 0, 1)))
        betas = st.integers(-3 * alpha, 3 * alpha)
        pairs.append((alpha, draw(betas.filter(lambda x, a=alpha: math.gcd(x, a) == 1))))
    base = draw(st.sampled_from(("o", "n")))
    return r, SeifertData(base, draw(st.integers(1 if base == "n" else 0, 1)), None, tuple(pairs))


@given(case=boundary_fibers())
@example(case=(4, SeifertData("o", 0, None, ((5, 2), (6, 1), (7, 3)))))
@example(case=(4, SeifertData("n", 1, None, ((5, -8), (7, 16)))))
@example(case=(11, SeifertData("o", 1, None, ((19, 7), (21, -5)))))
@example(case=(3, SeifertData("o", 0, None, ((invariants.CS11_BLOCK - 1, 5),))))
@example(case=(4, SeifertData("n", 1, None, ((invariants.CS11_BLOCK, -3),))))
@example(case=(4, SeifertData("o", 1, None, ((invariants.CS11_BLOCK + 1, 7),))))
@settings(max_examples=60, deadline=None)
def test_gauss_sum_routes_match_grid_at_table_boundary(case):
    r, data = case
    want = cs11_grid(r, data)
    for res in (tau_cs11(r, data), tau_compact(r, data)):
        assert abs(res.value - want) <= res.tolerance_estimate, res.method


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


def test_cs11_reduces_a_wide_euler_denominator_exactly():
    """Six fibers near 1000 give e a 60-bit denominator, so the numerators
    of e gam^2 mod 4 r den(e) pass int64 and cs11 reduces them in Python
    ints, over a sweep as at one level.  With b near 2^59 the phase is
    lost unless they are reduced; cs11 still agrees with compact."""
    data = parse_seifert("o;g=1;b=768614336404564650;1009/2,1013/5,1019/3,1021/4,1031/6,1033/7")
    assert 4 * 3 * 3 * euler_number(data).denominator >= 2**63
    for res in invariants.tau_cs11_sweep((3, 4, 5, 6), None, data):
        other = tau_compact(res.r, data)
        assert abs(res.value - other.value) <= 1e-13 * max(1.0, abs(other.value)), res.r


@st.composite
def wide_seifert(draw):
    """Both bases and shapes, genus 0..2, 0..6 fibers with alpha <= 1100,
    b and the unnormalized slopes up to 2^62 in absolute value."""
    base = draw(st.sampled_from(("o", "n")))
    genus = draw(st.integers(1 if base == "n" else 0, 2))
    normalized = draw(st.booleans())
    wide = st.integers(-(2**62), 2**62)
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        alpha = draw(st.integers(2 if normalized else 1, 1100))
        betas = st.integers(1, alpha - 1) if normalized else wide
        pairs.append((alpha, draw(betas.filter(lambda x, a=alpha: math.gcd(x, a) == 1))))
    return SeifertData(base, genus, draw(wide) if normalized else None, tuple(pairs))


@given(data=wide_seifert())
@settings(max_examples=150, deadline=None)
def test_cs11_exact_stage_is_the_fraction_formulas_in_integers(data):
    """cs11's exact stage holds only ints: e as its reduced numerator and
    denominator, and the Dedekind phase x as X = x A, read mod 4r as
    X mod 4 r A over A, which is float(x mod 4r) bit for bit."""
    (num, den), es, A, X, bstars = invariants._cs11_exact(data)
    assert all(type(v) is int for v in (num, den, es, A, X, *bstars))
    e = euler_number(data)
    assert (num, den, es) == (e.numerator, e.denominator, sign(e))
    assert A == math.prod(alpha for alpha, _ in data.pairs)
    ae = 2 if data.base == "o" else 1
    dsum = sum((dedekind_sum(beta, alpha) for alpha, beta in data.pairs), Fraction(0))
    x = Fraction(3 * (ae - 1) * sign(e)) - e - 12 * dsum
    assert Fraction(X, A) == x
    for r in range(2, 401):
        assert X % (4 * r * A) / A == float(x % (4 * r)), r


def test_single_level_calls_raise_their_overflow():
    """tau_cs11 and tau_compact raise the ComplexityCap that their sweep
    enters at the one level: alpha^2 and (4 r alpha)^2 pass int64."""
    data = parse_seifert("o;g=0;b=-1;3037000501/1")
    with pytest.raises(ComplexityCap, match="int64 phase overflow at r = 3, alpha = 3037000501"):
        tau_cs11(3, data)
    with pytest.raises(ComplexityCap, match="int64 Gauss phase overflow at r = 3, c = 3037000501"):
        tau_compact(3, data)


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


def test_gauss_sum_routes_agree_on_a_huge_fiber():
    """alpha = 2170633 at r = 3: cs11's Gauss-sum phase (u + cq m) m, with
    cq = bstar r mod alpha = 1957742, passes 2^63 unless the product is
    reduced first, and so does bstar r m^2.  Both Gauss-sum routes sum at
    the 4 points, in blocks, and agree with generic.  The slope has small
    continued fraction digits, so generic's chain does too: it raises the
    twists to its digits as given, which loses about 1e-10 on a digit of
    1.5e6 such as 3000017/2 has."""
    alpha, beta = 2170633, 830993
    r = 3
    bstar = pow(beta, -1, alpha)
    cq = bstar * r % alpha
    assert (cq * (alpha - 1) + alpha - 1) * (alpha - 1) > 2**63
    assert bstar * r * (alpha - 1) ** 2 > 2**63
    data = parse_seifert(f"o;g=0;b=-1;{alpha}/{beta}")
    results = [tau_cs11(r, data), tau_compact(r, data), tau_generic(sl2_datum(r), data)]
    for a, b in itertools.combinations(results, 2):
        gap = abs(a.value - b.value)
        assert gap <= a.tolerance_estimate + b.tolerance_estimate, (a.method, b.method)


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


# Relative gate of cs11 against cs11_mpmath on the cases below: ten times the
# largest relative error measured, rounded up (1.4e-14, on 13/10,12/11,13/10
# at r = 92).  The first three cancel to |tau| < 1e-32 or reach |tau| = 1e3,
# where the direct Gauss sums lost 6.8e-10, 8.3e-13 and 3.3e-13.
CS11_REFERENCE_GATE = 2e-13


@pytest.mark.parametrize(
    "text, r",
    [
        ("o;g=2;b=-1;2/1,4/1,14/1", 35),
        ("o;g=1;b=-3;16/3,14/9,11/1", 91),
        ("o;g=2;b=1;20/13,13/10", 52),
        ("n;g=1;b=-2;16/11,14/3,17/11", 71),
        ("o;g=1;b=-3;13/10,12/11,13/10", 92),
        ("n;g=1;b=2;7/3,11/4,13/5", 120),
        ("o;g=0;b=-1;2/1,3/1,5/1", 200),
        ("o;g=1;b=2;7/3,11/4,13/5", 50),
        ("n;g=2;b=-3;5/2,7/3", 150),
        ("o;g=2;b=0;7/3,5/2", 100),
    ],
)
def test_cs11_matches_reference_relative_to_its_size(text, r):
    data = parse_seifert(text)
    ref = cs11_mpmath(r, data)
    err = abs(tau_cs11(r, data).value - ref) / max(1.0, abs(ref))
    assert err <= CS11_REFERENCE_GATE, err


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


# Relative gate of compact's level sweep against cs11_mpmath on the 12-level
# windows below: ten times the largest relative error measured, rounded up
# (3.6e-14, on 5/2,7/3 at r = 135..146; the one-row kernel with its merged
# exponential gave the same or less than the two-row one on every window).
# Presentations of test_cs11_matches_reference_relative_to_its_size whose
# summands cancel lose far more, with either kernel: on 2/1,4/1,14/1 at
# 135..146, tau is 0 at odd r and compact is 2.2e-6 from it.
COMPACT_SWEEP_GATE = 4e-13


@pytest.mark.parametrize(
    "text, lo",
    [
        ("o;g=1;b=2;7/3,11/4,13/5", 39),
        ("n;g=1;b=-2;16/11,14/3,17/11", 39),
        ("o;g=0;b=-1;2/1,3/1,5/1", 135),
        ("n;g=2;b=-3;5/2,7/3", 135),
    ],
)
def test_compact_sweep_matches_reference(text, lo):
    data = parse_seifert(text)
    levels = tuple(range(lo, lo + 12))
    for r, res in zip(levels, invariants.tau_compact_sweep(levels, None, data), strict=True):
        ref = cs11_mpmath(r, data)
        err = abs(res.value - ref) / max(1.0, abs(ref))
        assert err <= COMPACT_SWEEP_GATE, (r, err)


@pytest.mark.parametrize("c", [7, 125, -125, 253083374])
def test_int64_limit_refuses_where_gauss_modulus_does(c, monkeypatch):
    """gauss_limit, found once per fiber, is the last level whose modulus
    4 r |c| has a square below 2^63: gauss_columns and compact's sweep
    refuse from the next level on, at one level and inside a sweep, with
    the message of gauss_modulus.  At |c| = 125 the first refused modulus
    is 3037000500, one past the largest allowed 3037000499.  The levels up
    to the limit are too large to sum here, so compact's sums are stubbed."""
    limit = gauss_limit(c)
    assert 4 * limit * abs(c) <= 3037000499 < 4 * (limit + 1) * abs(c)

    def refused(r: int) -> bool:
        mod = 4 * r * abs(c)
        return mod * mod >= 2**63

    assert not refused(limit) and refused(limit + 1)
    assert gauss_modulus(limit, c) == 4 * limit * abs(c)
    with pytest.raises(OverflowError) as exc:
        gauss_modulus(limit + 1, c)
    message = str(exc.value)
    assert message == f"int64 Gauss phase overflow at r = {limit + 1}, c = {c}"
    for levels in ((limit + 1,), (limit - 1, limit, limit + 1, limit + 2)):
        with pytest.raises(OverflowError) as exc:
            gauss_columns(SL2Z(1, 0, c, 1), levels)
        assert str(exc.value) == message
    monkeypatch.setattr(invariants, "_compact_sums", lambda levels, *_: [0j] * len(levels))
    alpha = abs(c)
    data = SeifertData("o", 0, -1, ((2, 1), (alpha, 1)))
    message = f"int64 Gauss phase overflow at r = {limit + 1}, c = {alpha}"
    levels = (limit - 1, limit, limit + 1, limit + 2)
    sweep = invariants.tau_compact_sweep(levels, None, data)
    assert [x.r for x in sweep[:2]] == [limit - 1, limit]
    assert [(type(x), str(x)) for x in sweep[2:]] == [(ComplexityCap, message)] * 2
    (alone,) = invariants.tau_compact_sweep((limit + 1,), None, data)
    assert (type(alone), str(alone)) == (ComplexityCap, message)


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


def test_wide_fiber_routes_stay_bounded_in_memory():
    """One fiber of order 10007 or 20011 at r = 100: cs11 held its whole
    (r - 1) x 2 alpha phase grid (67 MB traced at 10007), and an unblocked
    Gauss column takes (r - 1) x 2 alpha phases too (111 MB).  cs11
    tabulates 10007 by one FFT of 10007 entries and sums 20011, past
    CS11_BLOCK, at the points in blocks; compact sums both in blocks.  So
    each peaks far lower, and they still agree."""
    for text in ("o;g=0;b=-1;10007/1", "o;g=0;b=-1;20011/3"):
        data = parse_seifert(text)
        results = []
        for run in (tau_compact, tau_cs11):
            tracemalloc.start()
            try:
                results.append(run(100, data))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, (text, run.__name__, peak)
        a, b = results
        assert abs(a.value - b.value) <= a.tolerance_estimate + b.tolerance_estimate, text


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


def test_lens_matrix_route_reads_no_matrix_for_s1_x_s2():
    """For L(0, 1) route one is a power of w alone: its peak traced
    allocation, the level datum already built, stays near that of L(5, 1)
    (one Gauss column), far below one (r - 1)^2 complex matrix (64 MB)."""
    r = 2000
    sl2_datum(r)
    peaks = {}
    try:
        for p in (5, 0):
            tracemalloc.start()
            try:
                tau_lens_routes(r, LensSpace(p, 1))
                peaks[p] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        sl2_datum.cache_clear()  # the large level is not worth keeping
    assert peaks[0] < 2 * peaks[5], peaks


def test_lens_frozen_values():
    for p, q, want in [
        (5, 4, -0.41562693777745346 - 0.5720614028176843j),
        (7, 3, -0.35355339059327373 + 0.4866244947338651j),
    ]:
        v1, v2, _ = tau_lens_routes(5, LensSpace(p, q))
        assert abs(v1 - want) < 1e-12, (p, q, "matrix")
        assert abs(v2 - want) < 1e-12, (p, q, "chain")


@pytest.mark.parametrize("r", [3, 5, 8])
def test_lens_unit_cases(r):
    d_inv = math.sqrt(2.0 / r) * math.sin(math.pi / r)
    for p, q, want in [(1, 0, d_inv), (-1, 0, d_inv), (1, 1, d_inv), (0, 1, 1.0)]:
        v1, v2, _ = tau_lens_routes(r, LensSpace(p, q))
        assert abs(v1 - want) < 1e-12, (p, q, "matrix")
        assert abs(v2 - want) < 1e-12, (p, q, "chain")


def test_lens_routes_cf_style_invariant():
    # the chain route expands p / -q; the matrix route reads no digits
    for p, q in itertools.product(range(-10, 11), repeat=2):
        if math.gcd(p, q) != 1:
            continue
        for r in (3, 5, 8, 12):
            minus = tau_lens_routes(r, LensSpace(p, q), "minus")
            euclid = tau_lens_routes(r, LensSpace(p, q), "euclidean")
            for route, a, b in zip(("matrix", "chain"), minus, euclid):
                assert abs(a - b) < 1e-12, (p, q, r, route)


def test_lens_internal_routes_agree():
    for p in range(2, 9):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for r in (3, 6):
                v1, v2, _ = tau_lens_routes(r, LensSpace(p, q))
                assert abs(v1 - v2) < 1e-10, (p, q, r)


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
            via_fibration = tau_cs11(r, data).value
            for direct in tau_lens_routes(r, LensSpace(p, q))[:2]:
                assert abs(direct - via_fibration) < 1e-10


# ------------------------------------------------------ graph_sum state sum


def graph_sum_flat(datum, data, cf_style="minus"):
    """Reference: tau_graph_sum with its chains expanded in full and its
    state sum over one flat index, unravelled into one label array per
    plumbing vertex.  Each vertex q after the first joins its weight to the
    edge from its earlier neighbour p in one (nl x nl) table, gathered at
    the labels of p and q, the kernel's factors in the kernel's order.  The
    product is taken in place: complex multiply is not bitwise commutative
    under FMA, and numpy computes term * temporary as temporary *= term
    once the temporary passes 256 KiB.  Past invariants.GRAPH_BLOCK terms
    (read at call time) the terms are summed in nl rows, one per label of
    vertex 0, and the row sums added in order, as the kernel adds its
    blocks.  Value, sigma and tolerance, the floats as float.hex."""
    mm = normalize(data)
    cfs = tuple(cf_expand(a, b, cf_style) for a, b in mm.pairs)
    mtot = 1 + sum(map(len, cfs))
    full = linking_matrix(mm, cfs)
    head = 2 * mm.genus
    B = tuple(tuple(-full[head + i][head + j] for j in range(mtot)) for i in range(mtot))
    sig, nul = signature_exact(B)
    bexp = first_betti(mm) - 1 - mtot - nul - sig
    mir = mirror_datum(datum)
    nl = datum.n_labels
    genera = [mm.genus] + [0] * (mtot - 1)
    dual = np.array(mir.dual)
    vertex = []
    for p in range(mtot):
        a_p = sum(abs(B[p][q]) for q in range(mtot) if q != p)
        vertex.append(mir.v ** B[p][p] * mir.dims ** (2 - 2 * genera[p] - a_p))
    count = nl**mtot
    idx = np.unravel_index(np.arange(count), (nl,) * mtot)
    term = vertex[0][idx[0]]
    for q in range(1, mtot):
        for p in range(q):
            w0 = B[p][q]
            if w0 != 0:
                mat = mir.S if w0 > 0 else mir.S[dual, :]
                term *= (vertex[q] * mat ** abs(w0))[idx[p], idx[q]]
    if count > invariants.GRAPH_BLOCK:
        rows = term.reshape(nl, -1)
        total = np.sum(rows[0])
        for row in rows[1:]:
            total = total + np.sum(row)
    else:
        total = np.sum(term)
    val = complex(mir.delta**sig * datum.D**bexp * total)
    tol = invariants._tol(nl + 1, mtot + count // nl)
    return val.real.hex(), val.imag.hex(), sig, tol.hex()


def _hex(res):
    v = res.value
    return v.real.hex(), v.imag.hex(), res.sigma_used, res.tolerance_estimate.hex()


def pointed_datum(n, k):
    """The pointed datum of Z/n, n odd: twists exp(2 pi i k x^2 / n),
    S[x, y] = exp(4 pi i k x y / n), every dimension 1, dual(x) = -x."""
    x = np.arange(n)
    v = np.exp(2j * np.pi * k * x * x / n)
    S = np.exp(4j * np.pi * k * np.outer(x, x) / n)
    dual = tuple(int(y) for y in -x % n)
    eps = (1,) + (None,) * (n - 1)
    return ModularDatum(n, S, v, np.ones(n), math.sqrt(n), complex(np.sum(v.conj())), dual, eps)


def _in_graph_sum_caps(data, nl, cf_style):
    digits = sum(len(cf_expand(a, b, cf_style)) for a, b in normalize(data).pairs)
    return digits <= 8 and nl ** (1 + digits) <= 500_000


@given(
    data=small_seifert(bases=("o",)),
    r=st.integers(3, 10),
    cf_style=st.sampled_from(CF_STYLES),
)
@settings(max_examples=80, deadline=None)
def test_graph_sum_matches_flat_state_sum(data, r, cf_style):
    """The product tensor forms every term as the flat enumeration does, in
    the same order of factors, so the two agree bit for bit."""
    datum = sl2_datum(r)
    assume(_in_graph_sum_caps(data, datum.n_labels, cf_style))
    assert _hex(tau_graph_sum(datum, data, cf_style)) == graph_sum_flat(datum, data, cf_style)


@given(data=small_seifert(bases=("o",)), k=st.sampled_from((1, 2)))
@settings(max_examples=40, deadline=None)
def test_graph_sum_matches_flat_state_sum_with_duality(data, k):
    """Pointed Z/3 has dual(x) = -x, the only kind of datum here on which
    an edge weight read from the dual-permuted S differs from S; generic
    reads no duality, and agrees."""
    datum = pointed_datum(3, k)
    assert max(check_axioms(datum).values()) < 1e-12
    assume(_in_graph_sum_caps(data, datum.n_labels, "minus"))
    res = tau_graph_sum(datum, data)
    assert _hex(res) == graph_sum_flat(datum, data)
    ref = tau_generic(datum, data)
    assert abs(res.value - ref.value) <= res.tolerance_estimate + ref.tolerance_estimate


@given(
    data=small_seifert(bases=("o",)),
    kind=st.sampled_from([("sl2", r) for r in range(3, 11)] + [("Z/3", 1), ("Z/3", 2)]),
)
# 4^9 terms in blocks of 4^8, where |tau| cancels to about 1e-16
@example(data=parse_seifert("o;g=0;b=-2;9/8"), kind=("sl2", 5))
@settings(max_examples=40, deadline=None)
def test_graph_sum_blocked_and_whole_match_flat_state_sum(data, kind):
    """With GRAPH_BLOCK = 1 every state sum is summed one label of vertex 0
    at a time, and with GRAPH_BLOCK at the term cap every one is summed
    whole.  Either way it equals the flat enumeration, summed the same
    way, bit for bit, and the independent route (cs11 on sl2, generic on
    pointed Z/3, whose duality makes the edges at vertex 0 read S_dual)
    within the summed tolerances."""
    name, n = kind
    datum = sl2_datum(n) if name == "sl2" else pointed_datum(3, n)
    assume(_in_graph_sum_caps(data, datum.n_labels, "minus"))
    ref = tau_cs11(n, data) if name == "sl2" else tau_generic(datum, data)
    for block in (1, invariants.GRAPH_TERM_CAP):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "GRAPH_BLOCK", block)
            res = tau_graph_sum(datum, data)
            assert _hex(res) == graph_sum_flat(datum, data), block
        assert abs(res.value - ref.value) <= res.tolerance_estimate + ref.tolerance_estimate, block


@pytest.mark.parametrize("spec, r", [("o;g=0;b=-2;8/7", 6), ("o;g=0;b=-2;9/8", 5)])
def test_graph_sum_largest_state_sum_stays_small_in_memory(spec, r):
    """8/7 at r = 6 is 5^8 = 390 625 terms, the largest sum the caps allow,
    and 9/8 at r = 5 is 4^9 = 262 144 terms on the most vertices.  Past
    GRAPH_BLOCK terms the state sum is summed one label of vertex 0 at a
    time, so it holds one block of 5^7 terms beside the 5^6 before its
    last vertex (1.5 MB, 1.8 MB traced).  Summed whole it held 7.5 MB
    (7.8 MB traced), and the flat enumeration also held one index array
    per vertex (37.5 MB traced)."""
    data = parse_seifert(spec)
    datum = sl2_datum(r)
    tracemalloc.start()
    try:
        res = tau_graph_sum(datum, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak
    ref = tau_cs11(r, data)
    assert abs(res.value - ref.value) <= res.tolerance_estimate + ref.tolerance_estimate


# ------------------------------------------------------- guards and caps


def test_graph_sum_caps(monkeypatch):
    d = sl2_datum(5)
    with monkeypatch.context() as m, pytest.raises(ComplexityCap):
        m.setattr(invariants, "GRAPH_CHAIN_CAP", 2)
        tau_graph_sum(d, POINCARE)
    with pytest.raises(ComplexityCap):
        tau_graph_sum(sl2_datum(12), S3_PLUS)
    with monkeypatch.context() as m, pytest.raises(ComplexityCap):
        m.setattr(invariants, "GRAPH_TERM_CAP", 10)
        tau_graph_sum(d, POINCARE)


def test_generic_chain_cap_counts_digits_as_given():
    # 2/(2n - 1) has n minus digits; the cap is on all chains together, and
    # generic does not normalize, so 2/20001 is refused though 2/1 would do
    cap = invariants.CHAIN_CAP
    d = sl2_datum(3)
    at_cap = SeifertData("o", 0, None, ((2, 2 * (cap - 4000) - 1), (2, 2 * 4000 - 1)))
    res, ref = tau_generic(d, at_cap), tau_cs11(3, at_cap)
    assert abs(res.value - ref.value) <= res.tolerance_estimate + ref.tolerance_estimate
    for pairs in (((2, 2 * (cap - 4000) - 1), (2, 2 * 4001 - 1)), ((2, 2 * cap + 1),)):
        with pytest.raises(ComplexityCap, match=f"generic chain length exceeds cap {cap}"):
            tau_generic(d, SeifertData("o", 0, None, pairs))


def test_graph_sum_checks_every_cap_before_building_its_block(monkeypatch):
    """The level and term caps refuse before the plumbing block and its
    signature are built; the chain cap is named first when it and the level
    cap are both exceeded."""

    def no_signature(B):
        raise AssertionError("signature_exact ran for a refused call")

    monkeypatch.setattr(invariants, "signature_exact", no_signature)
    invariants._graph_sum_chains.cache_clear()
    invariants._graph_sum_exact.cache_clear()
    with pytest.raises(ComplexityCap, match="level r = 12 exceeds cap 10"):
        tau_graph_sum(sl2_datum(12), POINCARE)
    monkeypatch.setattr(invariants, "GRAPH_TERM_CAP", 10)
    with pytest.raises(ComplexityCap, match="terms exceed cap 10"):
        tau_graph_sum(sl2_datum(5), POINCARE)
    monkeypatch.setattr(invariants, "GRAPH_CHAIN_CAP", 2)
    with pytest.raises(ComplexityCap, match="graph_sum chain length exceeds cap 2"):
        tau_graph_sum(sl2_datum(12), POINCARE)


def test_section5_chain_cap_counts_normalized_digits():
    # 10001/10000 is a minus chain of 10000 twos, one more digit refuses; the
    # cap is counted while the digits are taken, so a million-digit chain is
    # refused at once.  nn:o;g=0;20001/-1 normalizes to 20001/20000, while
    # generic expands it as given, one digit
    cap = invariants.CHAIN_CAP
    d = sl2_datum(5)
    at_cap = parse_seifert(f"o;g=0;b=-1;{cap + 1}/{cap}")
    res, ref = tau_section5(d, at_cap), tau_cs11(5, at_cap)
    assert abs(res.value - ref.value) <= res.tolerance_estimate + ref.tolerance_estimate
    refused = (f"o;g=0;b=-1;{cap + 2}/{cap + 1}", "o;g=0;b=0;1000001/1000000", "nn:o;g=0;20001/-1")
    for text in refused:
        with pytest.raises(ComplexityCap, match=f"section5 chain length exceeds cap {cap}"):
            tau_section5(d, parse_seifert(text))
    tau_generic(d, parse_seifert("nn:o;g=0;20001/-1"))


EXACT_STAGES = (
    invariants._generic_exact,
    invariants._cs11_exact,
    invariants._compact_exact,
    invariants._graph_sum_chains,
    invariants._graph_sum_exact,
    invariants._section5_exact,
)
# 2/25 centers to 2/1 at r = 3, 2/-7 at r = 4 and 2/25 from r = 7 on
WARM_CASES = [
    "o;g=0;b=-1;2/1,3/1,5/1",
    "nn:o;g=0;2/25,3/-4",
    "nn:n;g=1;3/-7,5/11",
    "o;g=1;b=2;7/3,5/2",
    "o;g=0;b=0;",
]
WARM_LEVELS = (3, 4, 7, 11)


LEVEL_ROUTES = {"cs11": tau_cs11, "compact": tau_compact}
DATUM_ROUTES = {"generic": tau_generic, "graph_sum": tau_graph_sum, "section5": tau_section5}


def _route_call(route, text, r, style):
    """One route at level r as a bit pattern, or the refusal it raises."""
    data = parse_seifert(text)
    try:
        if route in LEVEL_ROUTES:
            res = LEVEL_ROUTES[route](r, data)
        else:
            res = DATUM_ROUTES[route](sl2_datum(r), data, style)
    except (ComplexityCap, Unsupported) as exc:
        return type(exc).__name__, str(exc)
    return (
        res.value.real.hex(),
        res.value.imag.hex(),
        res.sigma_used,
        res.tolerance_estimate.hex(),
    )


WARM_CALLS = [
    (route, text, r, style)
    for route, styles in [
        ("generic", ("minus", "euclidean")),
        ("cs11", ("minus",)),
        ("compact", ("minus",)),
        ("graph_sum", ("minus", "euclidean")),
        ("section5", ("minus", "euclidean")),
    ]
    for style in styles
    for text in WARM_CASES
    for r in WARM_LEVELS
]


def _cold(call):
    for stage in EXACT_STAGES:
        stage.cache_clear()
    return _route_call(*call)


def test_warm_case_list_covers_its_claims():
    """The compact pair changes its centered residue between levels, and
    graph_sum both refuses and evaluates the same presentation."""
    centered = {(25 + 4 * r) % (8 * r) - 4 * r for r in WARM_LEVELS}
    assert centered == {1, -7, 25}
    graph = [_cold(("graph_sum", WARM_CASES[0], r, "minus")) for r in WARM_LEVELS]
    assert graph[-1][0] == "ComplexityCap" and graph[0][0] != "ComplexityCap"


@given(order=st.permutations(WARM_CALLS))
@settings(max_examples=10, deadline=None)
def test_warm_exact_stages_give_bit_identical_values(order):
    """Each call, evaluated in a shuffled interleaving with warm exact
    stages, equals bit for bit the same call with every stage cold."""
    cold = {call: _cold(call) for call in WARM_CALLS}
    # the shuffled order, then the same calls grouped by presentation, so
    # that both misses and hits of each one-entry cache occur
    for call in order + sorted(order, key=lambda c: (c[1], c[0], c[3], c[2])):
        assert _route_call(*call) == cold[call], call


@given(data=small_seifert(), lo=st.integers(3, 16), width=st.integers(1, 8))
# one chunk of r = 3..10 holds levels with no more points 2 (r - 1) than
# alpha residues (r = 3 for alpha 5, r = 3, 4 for alpha 6, 7) and levels with
# more: compact tabulates each fiber's Gauss sum over the whole chunk
# (alpha x 8 <= 56 table entries against 88 points), cs11 by one FFT per level
@example(data=SeifertData("o", 0, None, ((5, 2), (6, 1), (7, 3))), lo=3, width=8)
# compact's centered pair 2/25 is 2/1 at r = 3, 2/-7 at r = 4 and 2/-15 at r = 5
@example(data=parse_seifert("nn:o;g=2;2/25,3/1"), lo=3, width=3)
# 2 (r - 1) points per level make three chunks of r = 3..200
@example(data=parse_seifert("n;g=1;b=2;7/3,5/2"), lo=3, width=198)
@settings(max_examples=40, deadline=None)
def test_sweep_equals_single_levels(data, lo, width):
    """Every route's sweep over a window of levels gives, at each level,
    what it gives at that level alone: the same value to 1e-14 max(1, |tau|)
    (only a sum blocked differently may move it), or a refusal of the same
    kind, since a refusal stands for every higher level."""
    levels = tuple(range(lo, lo + width))
    for name, route in ROUTES.items():
        sweep = route(levels, None, data)
        assert len(sweep) == len(levels), name
        for r, got in zip(levels, sweep):
            (want,) = route((r,), None, data)
            if isinstance(want, Exception):
                assert type(got) is type(want), (name, r, got, want)
                continue
            assert (got.r, got.method, got.sigma_used) == (r, name, want.sigma_used)
            assert got.tolerance_estimate == want.tolerance_estimate
            assert abs(got.value - want.value) <= 1e-14 * max(1.0, abs(want.value)), (name, r)


@given(data=small_seifert(), lo=st.integers(3, 16), width=st.integers(1, 8))
# generic and section5 overflow D^(2g - 2) from r = 6 on, part way through
@example(data=parse_seifert("o;g=287;b=-1;4/3,5/4"), lo=3, width=6)
@settings(max_examples=40, deadline=None)
def test_chain_sweeps_equal_single_levels_exactly(data, lo, width):
    """The chain routes lay every level's labels end to end, yet each
    level's entry equals its one-level call exactly, refusals included;
    tau_generic and tau_section5 on a datum equal the built-in sweep at its
    level, and the sweep on that datum loaded, at every level."""
    levels = tuple(range(lo, lo + width))
    for name, tau in (("generic", tau_generic), ("section5", tau_section5)):
        sweep = ROUTES[name](levels, None, data)
        for r, got in zip(levels, sweep, strict=True):
            (want,) = ROUTES[name]((r,), None, data)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), (name, r)
                continue
            assert got == want, (name, r)
            d = sl2_datum(r)
            assert tau(d, data) == want, (name, r)
            assert ROUTES[name](levels, d, data) == [want] * len(levels), (name, r)


@pytest.fixture(scope="module")
def loaded_sl2(tmp_path_factory):
    """The built-in datum at r = 5 and r = 146 after save_datum and
    load_datum: the same numbers, with a complex S."""
    out = {}
    for r in (5, 146):
        path = tmp_path_factory.mktemp("datum") / f"sl2_{r}.json"
        save_datum(sl2_datum(r), str(path))
        out[r] = load_datum(str(path))
        assert out[r].S.dtype == complex
    return out


def chain_scale(d, chains, d_power, label_power):
    """The forward scale of a chain route's sum at one level,
    D^d_power sum_j |dims_j^label_power| prod_k max|S g_k|, with g_k the
    k-th chain applied to the unit label."""
    norms = [np.max(np.abs(d.S @ g_matrix(d, c))) for c in chains]
    return d.D**d_power * np.sum(np.abs(d.dims**label_power)) * math.prod(norms)


@given(data=small_seifert(), r=st.sampled_from((5, 146)))
@settings(max_examples=60, deadline=None)
def test_real_and_complex_s_products_agree(data, r, loaded_sl2):
    """The built-in datum's real S takes the float (n x 2) product of
    DatumStack.apply_s; the loaded datum's complex S the complex one.  Both
    routes agree on the two within 16 eps of their forward scale (3.7 eps
    was the largest of 300 random draws at r = 146)."""
    d, dl = sl2_datum(r), loaded_sl2[r]
    eps = np.finfo(float).eps
    chains, _ = invariants._generic_exact(data, "minus")
    aeg = 2 * data.genus if data.base == "o" else data.genus
    scale = chain_scale(d, chains, aeg - 2, 2 - len(chains) - aeg)
    assert abs(tau_generic(d, data).value - tau_generic(dl, data).value) <= 16 * eps * scale
    if data.base == "o":
        g, chains, _ = invariants._section5_exact(data, "minus")
        scale = chain_scale(d, chains, 2 * g - 2, 2 - 2 * g - len(chains))
        assert abs(tau_section5(d, data).value - tau_section5(dl, data).value) <= 16 * eps * scale


def test_sweeps_need_ascending_levels():
    with pytest.raises(ValueError, match="ascend"):
        invariants.tau_cs11_sweep((5, 4), None, POINCARE)


def test_a_refusal_stands_for_every_higher_level():
    """graph_sum refuses its term cap at r = 7 and its level cap from
    r = 11 on: its sweep stops at the first refusal and repeats it.  A
    chain cap ends generic's sweep at its first level."""
    sweep = ROUTES["graph_sum"](tuple(range(5, 13)), None, parse_seifert("o;g=0;b=-1;4/3,5/4"))
    assert [type(e).__name__ for e in sweep] == ["InvariantResult"] * 2 + ["ComplexityCap"] * 6
    assert all(e is sweep[2] for e in sweep[2:])
    assert str(sweep[2]) == "6^8 terms exceed cap 500000"
    sweep = ROUTES["generic"]((3, 4, 5), None, parse_seifert("nn:o;g=0;2/20003"))
    cap = invariants.CHAIN_CAP
    assert [str(e) for e in sweep] == [f"generic chain length exceeds cap {cap}"] * 3


def test_every_route_is_one_sweep_of_levels_datum_and_data(loaded_sl2):
    """Every route of ROUTES is sweep(levels, datum, data): no levels give
    no entries, cs11 and compact refuse a loaded datum at every level, and
    graph_sum on a loaded datum is tau_graph_sum on it."""
    dl = loaded_sl2[5]
    for name, sweep in ROUTES.items():
        assert sweep((), None, POINCARE) == [], name
        assert sweep((), dl, POINCARE) == [], name
    for name in ("cs11", "compact"):
        entries = ROUTES[name]((3, 4, 5), dl, POINCARE)
        assert [(type(e), str(e)) for e in entries] == [
            (Unsupported, f"method {name!r} needs the built-in sl2 datum")
        ] * 3
    assert ROUTES["graph_sum"]((5,), dl, POINCARE) == [tau_graph_sum(dl, POINCARE)]


def test_nonorientable_base_unsupported_routes():
    kb = parse_seifert("n;g=1;b=0;")
    d = sl2_datum(5)
    with pytest.raises(Unsupported, match="orientable base"):
        tau_graph_sum(d, kb)
    with pytest.raises(Unsupported, match="orientable base"):
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
    with pytest.raises(ValueError, match="label 0 has no cross-cap sign"):
        tau_generic(bare, odd)
    a = tau_generic(d, even).value
    b = tau_generic(bare, even).value
    assert a == b


def test_result_validation():
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 5, "other", None, 1e-12)
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 5, "lens_direct", None, 1e-12)
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 1, "cs11", None, 1e-12)
    with pytest.raises(ValueError):
        InvariantResult(1 + 0j, 5, "cs11", None, 0.0)


def test_result_route_metadata():
    res = tau_generic(sl2_datum(5), POINCARE)
    assert res.method == "generic"
    assert res.sigma_used == 2
    assert res.tolerance_estimate > 0
    res2 = tau_cs11(5, POINCARE)
    assert res2.sigma_used is None


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
