"""Tests for the numeric category data and the two matrix representation
routes (word decomposition versus the Gauss-sum unit-label column)."""

from __future__ import annotations

import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_rt.modular import (
    ModularDatum,
    check_axioms,
    datum_from_dict,
    datum_to_dict,
    g_matrix,
    gauss_columns,
    load_datum,
    mirror_datum,
    r_rep_gauss,
    r_rep_generators,
    r_rep_word,
    save_datum,
    sl2_datum,
    w_phase,
)
from seifert_rt.sl2z import IDENTITY, SL2Z, XI, b_matrix, rademacher_phi, sign, theta_power


def toy_datum(n=3, dual=(0, 2, 1), eps=(1, None, None)):
    return ModularDatum(
        n_labels=n,
        S=np.eye(n, dtype=complex),
        v=np.ones(n, dtype=complex),
        dims=np.ones(n),
        D=1.0,
        delta=complex(n),
        dual=dual,
        eps=eps,
    )


# ----------------------------------------------------------------- datum


def test_sl2_datum_frozen_r3():
    d = sl2_datum(3)
    assert d.n_labels == 2
    assert np.allclose(d.S, [[1, 1], [1, -1]], atol=1e-14)
    assert np.allclose(d.dims, [1, 1], atol=1e-14)
    assert abs(d.D - math.sqrt(2)) < 1e-14
    assert abs(d.v[0] - 1) < 1e-14
    assert abs(d.v[1] - 1j) < 1e-14
    assert abs(d.delta - (1 - 1j)) < 1e-14
    assert d.dual == (0, 1)
    assert d.eps == (1, -1)


@pytest.mark.parametrize("r", [2, 7, 146])
def test_sl2_datum_s_is_real(r):
    """S is stored as float64, 8 bytes an entry."""
    S = sl2_datum(r).S
    assert S.dtype == np.float64
    assert S.nbytes == 8 * (r - 1) ** 2


@pytest.mark.parametrize("r", [7, 146, 400])
def test_sl2_datum_matches_mpmath(r):
    """S and v within 8 eps of a 30-digit evaluation (relative to max |S|
    for S), at every r: the unreduced arguments j l pi / r and
    pi (j^2 - 1) / 2r of the old build read 968 and 292 eps at r = 400.
    The reference takes sin(pi j l / r) at j l mod 2 r, an exact identity,
    as hi + lo, its double and the double of its remainder."""
    eps = np.finfo(float).eps
    d = sl2_datum(r)
    j = np.arange(1, r)
    with mpmath.workdps(30):
        s1 = mpmath.sinpi(mpmath.mpf(1) / r)
        exact = [mpmath.sinpi(mpmath.mpf(k) / r) / s1 for k in range(2 * r)]
        hi = np.array([float(x) for x in exact])
        lo = np.array([float(x - mpmath.mpf(h)) for x, h in zip(exact, hi)])
        v_ref = [mpmath.expjpi(mpmath.mpf(int(jj) ** 2 - 1) / (2 * r)) for jj in j]
        v_err = max(float(abs(mpmath.mpc(z) - ref)) for z, ref in zip(d.v, v_ref))
    k = np.outer(j, j) % (2 * r)
    s_err = np.max(np.abs(d.S - hi[k] - lo[k]))
    assert s_err <= 8 * eps * np.max(np.abs(hi)), (r, s_err / eps)
    assert v_err <= 8 * eps, (r, v_err / eps)


@pytest.mark.parametrize("r", [7, 146, 400])
def test_r_rep_generators_match_mpmath(r):
    """Xi and Theta within 8 eps of a 30-digit evaluation (relative to
    max |Xi| for Xi), at every r: the unreduced arguments j l pi / r and
    pi j^2 / 2r of the old build read 968 and 606 eps at r = 400.  The
    reference takes sqrt(2 / r) sin(pi j l / r) at j l mod 2 r, an exact
    identity, as hi + lo, its double and the double of its remainder."""
    eps = np.finfo(float).eps
    gen = r_rep_generators(r)
    j = np.arange(1, r)
    with mpmath.workdps(30):
        scale = mpmath.sqrt(mpmath.mpf(2) / r)
        exact = [scale * mpmath.sinpi(mpmath.mpf(k) / r) for k in range(2 * r)]
        hi = np.array([float(x) for x in exact])
        lo = np.array([float(x - mpmath.mpf(h)) for x, h in zip(exact, hi)])
        t_ref = [mpmath.expjpi(mpmath.mpf(int(jj) ** 2) / (2 * r) - mpmath.mpf(1) / 4) for jj in j]
        t_err = max(float(abs(mpmath.mpc(z) - ref)) for z, ref in zip(gen.theta_diag, t_ref))
    k = np.outer(j, j) % (2 * r)
    x_err = np.max(np.abs(gen.xi - hi[k] - lo[k]))
    assert x_err <= 8 * eps * np.max(np.abs(hi)), (r, x_err / eps)
    assert t_err <= 8 * eps, (r, t_err / eps)


def test_sl2_datum_invalid_level():
    with pytest.raises(ValueError, match="need r >= 2, got 1"):
        sl2_datum(1)
    with pytest.raises(ValueError, match="need r >= 2, got 0"):
        sl2_datum(0)


def test_datum_validation_errors():
    with pytest.raises(ValueError):
        toy_datum(dual=(1, 0, 2))  # unit label not self-dual
    with pytest.raises(ValueError):
        toy_datum(dual=(0, 1, 1))  # not a permutation
    with pytest.raises(ValueError):
        toy_datum(eps=(1, 2, None))
    with pytest.raises(ValueError):
        ModularDatum(
            n_labels=2,
            S=np.eye(3, dtype=complex),
            v=np.ones(2, dtype=complex),
            dims=np.ones(2),
            D=1.0,
            delta=2.0 + 0j,
            dual=(0, 1),
            eps=(1, 1),
        )


def test_datum_validation_messages():
    """The checks of dual and eps keep their messages, eps naming its first
    bad entry, also one that cannot be hashed."""
    cases = [
        ({"dual": (0, 1, 1)}, "dual must be an involutive permutation"),
        ({"n": 4, "dual": (0, 2, 3, 1), "eps": (1,) * 4}, "dual must be an involutive permutation"),
        ({"dual": (0, 1, 3)}, "dual must be an involutive permutation"),
        ({"dual": (1, 0, 2)}, "unit label must be self-dual"),
        ({"dual": (0, 1.0, 2)}, "dual must be an involutive permutation"),
        ({"n": 4, "dual": (0, 2.0, 1, 3), "eps": (1,) * 4}, "dual must be an involutive permutation"),
        ({"eps": (1, 2.5, "x")}, "eps entries must be +-1 or None, got 2.5"),
        ({"eps": (1, [1], 2)}, "eps entries must be +-1 or None, got [1]"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as exc:
            toy_datum(**kwargs)
        assert str(exc.value) == message, kwargs
    assert toy_datum(n=4, dual=(0, 2, 1, 3), eps=(1, None, None, -1)).dual == (0, 2, 1, 3)
    assert sl2_datum(6).eps == (1, -1, 1, -1, 1)


def test_datum_arrays_read_only():
    d = sl2_datum(5)
    with pytest.raises(ValueError):
        d.S[0, 0] = 99.0


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8, 13, 30])
def test_axioms_hold(r):
    report = check_axioms(sl2_datum(r))
    assert set(report) == {
        "s_symmetric",
        "s_dual",
        "s_squared",
        "unit_dims",
        "twist_dual",
        "delta_definition",
        "delta_product",
        "s_unitarity",
    }
    tol = 1e-12 if r <= 10 else 1e-9
    assert all(v < tol for v in report.values()), report


def test_axioms_flag_perturbed_s():
    d = sl2_datum(5)
    S = np.array(d.S)
    S[1, 2] += 1e-4
    bad = ModularDatum(d.n_labels, S, np.array(d.v), np.array(d.dims), d.D, d.delta, d.dual, d.eps)
    assert not all(v < 1e-10 for v in check_axioms(bad).values())


@pytest.mark.parametrize("r", range(3, 13))
def test_central_charge_phase(r):
    d = sl2_datum(r)
    expected = cmath.exp(1j * math.pi * 3 * (2 - r) / (4 * r))
    assert abs(d.delta / d.D - expected) < 1e-12
    assert abs(d.delta / d.D - w_phase(r) ** (-3)) < 1e-12


def test_mirror_datum():
    d = sl2_datum(6)
    m = mirror_datum(d)
    assert np.allclose(m.v * d.v, 1.0, atol=1e-14)
    assert abs(m.delta - d.delta.conjugate()) < 1e-12
    assert all(v < 1e-10 for v in check_axioms(m).values())
    back = mirror_datum(m)
    assert np.allclose(back.S, d.S, atol=1e-14)
    assert np.allclose(back.v, d.v, atol=1e-14)


# ------------------------------------------------------- chain evaluation


def test_g_matrix_base_cases():
    d = sl2_datum(5)
    e0 = np.eye(1, 4, dtype=complex)[0]
    assert np.array_equal(g_matrix(d, ()), e0)
    assert np.allclose(g_matrix(d, (0,)), d.S[:, 0] / d.D, atol=1e-14)


@pytest.mark.parametrize("r", [3, 5, 8])
def test_g_matrix_matches_representation(r):
    """diag(v)-and-S/D chains on the unit label equal the unit-label column
    of the unit-phase representation rescaled by w per digit-unit."""
    rng = random.Random(r)
    d = sl2_datum(r)
    w = w_phase(r)
    for _ in range(25):
        word = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        G = g_matrix(d, word)
        R = r_rep_word(b_matrix(word), r)
        scale = w ** sum(word)
        assert np.max(np.abs(G - scale * R[:, 0])) < 1e-11, word


@given(word=st.lists(st.integers(-6, 6), min_size=1, max_size=12), r=st.integers(2, 40))
@settings(max_examples=150, deadline=None)
def test_g_matrix_column_matches_full_chain(word, r):
    """The chain on the unit label is column 0 of the whole chain matrix,
    taken as a word in the generators, rescaled by w per digit-unit."""
    full = r_rep_word(b_matrix(tuple(word)), r)
    G = g_matrix(sl2_datum(r), word)
    assert np.max(np.abs(G - w_phase(r) ** sum(word) * full[:, 0])) < 1e-11


@given(word=st.lists(st.integers(-6, 6), max_size=8), r=st.integers(2, 60))
@settings(max_examples=150, deadline=None)
def test_g_matrix_equals_the_per_digit_product_bit_for_bit(word, r):
    """The chain's first digit reads the unit column S[:, 0], which is
    S e_0 exactly, and later digits run on the level's slice: the same bits
    as one product with S per digit from e_0.  The datum's S is real, so
    each product is the real (n x 2) one on the vector's float view, as in
    DatumStack.apply_s; S @ want would cast S to complex instead."""
    d = sl2_datum(r)
    want = np.eye(1, d.n_labels, dtype=complex)[0]
    for a in word:
        want = d.v**a / d.D * (d.S @ want.view(float).reshape(-1, 2)).view(complex).ravel()
    assert g_matrix(d, word).tobytes() == want.tobytes()


@st.composite
def sl2z_lower_nonzero(draw, c_max=60):
    """Any SL(2, Z) element with 0 < |c| <= c_max and a up to 60 or so."""
    c = draw(st.integers(-c_max, c_max).filter(bool))
    a = draw(st.integers(-60, 60).filter(lambda x: math.gcd(x, c) == 1))
    # a d - b c = 1: d is an inverse of a mod |c| (any d when |c| = 1)
    d = pow(a, -1, abs(c)) + abs(c) * draw(st.integers(-2, 2))
    return SL2Z(a, (a * d - 1) // c, c, d)


@given(mat=sl2z_lower_nonzero(), r=st.integers(2, 40))
@settings(max_examples=150, deadline=None)
def test_gauss_columns_match_full_matrix(mat, r):
    """The Gauss-sum unit column is column 0 of the whole representation
    matrix, taken as a word in the generators."""
    col = r_rep_gauss(mat, r)
    assert col.shape == (r - 1,)
    assert np.max(np.abs(col - r_rep_word(mat, r)[:, 0])) < 1e-10


def gauss_loop(mat, r):
    """Reference: the whole Gauss-sum matrix, one shift g = j + 2 r n mu
    at a time, with the sign mu a factor of each term."""
    c = mat.c
    phi = (rademacher_phi(mat) + 4) % 8 - 4
    jj = np.arange(1, r, dtype=np.int64)
    mod = 4 * r * abs(c)
    a, d = mat.a % mod, mat.d % mod
    djj = d * jj % mod * jj % mod
    total = np.zeros((r - 1, r - 1), dtype=complex)
    for mu in (1, -1):
        for n in range(abs(c)):
            g = jj + 2 * r * n * mu
            num = (a * g % mod * g % mod)[:, None] - 2 * mu * np.outer(g, jj) + djj[None, :]
            total += mu * np.exp((1j * math.pi / (2 * r * c)) * (num % mod))
    pref = 1j * sign(c) / math.sqrt(2 * r * abs(c)) * cmath.exp(-1j * math.pi * phi / 4)
    return pref * total


@given(mat=sl2z_lower_nonzero(c_max=1500), r=st.integers(2, 40))
# 2 (r - 1) = 78 points times |c| = 1499 shifts n: 116922 phases, summed at
# the points in eight blocks of 210 n
@example(mat=SL2Z(2, 1, 1499, 750), r=40)
# |c| = 2 (r - 1) - 1, 2 (r - 1) and 2 (r - 1) + 1: at one level H is
# tabulated on all |c| residues below the 38 points, from there on summed at them
@example(mat=SL2Z(2, 1, 37, 19), r=20)
@example(mat=SL2Z(3, 1, 38, 13), r=20)
@example(mat=SL2Z(-3, -1, -38, -13), r=20)
@example(mat=SL2Z(2, 1, 39, 20), r=20)
@settings(max_examples=60, deadline=None)
def test_gauss_blocks_match_shift_loop(mat, r):
    """The blocked kernel matches column 0 of the per-shift loop,
    including |c| whose shifts span several blocks and |c| on either side
    of the 2 (r - 1) points, where the kernel at one level switches from a
    table of H to sums at the points."""
    assert np.max(np.abs(r_rep_gauss(mat, r) - gauss_loop(mat, r)[:, 0])) <= 1e-13


@given(mat=sl2z_lower_nonzero(c_max=200), lo=st.integers(2, 40), width=st.integers(1, 8))
# |c| = 37 over six levels, whose 37 x 6 = 222 table entries the kernel sets
# against the P points of the call: P = 210 at r = 16..21 and P = 222 at
# r = 17..22 sum H at the points, P = 234 at r = 18..23 tabulates it, one row
# per level, for the six values of a r mod |c|
@example(mat=SL2Z(2, 1, 37, 19), lo=16, width=6)
@example(mat=SL2Z(2, 1, 37, 19), lo=17, width=6)
@example(mat=SL2Z(2, 1, 37, 19), lo=18, width=6)
# |c| = 197 at r = 98..100: P = 588 points, fewer than 3 x 197 = 591 table
# entries, so H is summed at them over n in eight blocks of 27
@example(mat=SL2Z(3, 1, 197, 66), lo=98, width=3)
@settings(max_examples=60, deadline=None)
def test_gauss_columns_over_levels_match_shift_loop(mat, lo, width):
    """The kernel swept over several levels equals, level by level,
    column 0 of the per-shift loop at each level."""
    levels = tuple(range(lo, lo + width))
    want = np.concatenate([gauss_loop(mat, r)[:, 0] for r in levels])
    assert np.max(np.abs(gauss_columns(mat, levels) - want)) <= 1e-13


@pytest.mark.parametrize("a0, c", [(2**63, 3), (-(2**64), 5), (3 * 2**70, 7)])
def test_gauss_columns_over_levels_take_entries_past_int64(a0, c):
    """a and d are reduced mod each level's modulus as Python ints: an
    entry past int64, or in uint64 range, gives each level's column."""
    a = next(a for a in range(a0, a0 + c) if (a - 1) % c == 0)
    mat = SL2Z(a, (a - 1) // c, c, 1)
    levels = (5, 6, 7)
    want = np.concatenate([r_rep_gauss(mat, r) for r in levels])
    assert np.max(np.abs(gauss_columns(mat, levels) - want)) <= 1e-14


def test_gauss_columns_need_ascending_levels():
    with pytest.raises(ValueError, match="ascend"):
        gauss_columns(SL2Z(2, 1, 37, 19), (5, 4))


# --------------------------------------------------------- representation


@pytest.mark.parametrize("r", [3, 4, 5, 9, 14, 20])
def test_generator_relations(r):
    gen = r_rep_generators(r)
    n = r - 1
    xi2 = gen.xi @ gen.xi
    assert np.max(np.abs(xi2 - np.eye(n))) < 1e-12
    tx = np.diag(gen.theta_diag) @ gen.xi
    assert np.max(np.abs(tx @ tx @ tx - np.eye(n))) < 1e-12
    assert np.max(np.abs(gen.xi @ gen.xi.conj().T - np.eye(n))) < 1e-12


def test_r_rep_word_special_matrices():
    r = 7
    n = r - 1
    assert np.allclose(r_rep_word(IDENTITY, r), np.eye(n), atol=1e-14)
    assert np.allclose(r_rep_word(-IDENTITY, r), np.eye(n), atol=1e-14)
    gen = r_rep_generators(r)
    assert np.allclose(r_rep_word(XI, r), gen.xi, atol=1e-12)
    assert np.allclose(
        r_rep_word(theta_power(3), r), np.diag(gen.theta_diag**3), atol=1e-12
    )


def test_r_rep_word_is_projective():
    rng = random.Random(11)
    for _ in range(20):
        word = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        m = b_matrix(word)
        a = r_rep_word(m, 6)
        b = r_rep_word(-m, 6)
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("r", [3, 8, 13])
def test_word_route_matches_gauss_route(r):
    rng = random.Random(100 + r)
    checked = 0
    while checked < 20:
        word = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
        m = b_matrix(word)
        if m.c == 0:
            continue
        a = r_rep_word(m, r)
        g = r_rep_gauss(m, r)
        assert np.max(np.abs(a[:, 0] - g)) < 1e-10, (word, m.rows())
        assert np.max(np.abs(r_rep_gauss(-m, r) - g)) < 1e-10
        checked += 1


def test_gauss_route_diagonal_case():
    with pytest.raises(ValueError, match="is upper triangular; use r_rep_word"):
        r_rep_gauss(theta_power(2), 5)
    with pytest.raises(ValueError, match="need r >= 2, got 1"):
        r_rep_gauss(SL2Z(0, -1, 1, 0), 1)


def test_representation_is_homomorphism():
    """Composing words multiplies the matrices, with no extra phase in
    this normalization."""
    r = 5
    rng = random.Random(2)
    for _ in range(15):
        w1 = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        lhs = r_rep_word(b_matrix(w1) * b_matrix(w2), r)
        rhs = r_rep_word(b_matrix(w1), r) @ r_rep_word(b_matrix(w2), r)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


# ----------------------------------------------------------- persistence


def test_datum_dict_round_trip():
    d = sl2_datum(7)
    back = datum_from_dict(datum_to_dict(d))
    assert back.n_labels == d.n_labels
    assert np.array_equal(back.S, d.S)
    assert np.array_equal(back.v, d.v)
    assert np.array_equal(back.dims, d.dims)
    assert back.D == d.D
    assert back.dual == d.dual
    assert back.eps == d.eps
    assert abs(back.delta - d.delta) < 1e-12


def test_datum_file_round_trip(tmp_path):
    d = sl2_datum(5)
    path = tmp_path / "datum.json"
    save_datum(d, str(path))
    back = load_datum(str(path))
    assert np.array_equal(back.S, d.S)
    assert np.array_equal(back.v, d.v)
    assert back.eps == d.eps


def test_datum_round_trip_keeps_missing_eps(tmp_path):
    d = toy_datum()
    path = tmp_path / "toy.json"
    save_datum(d, str(path))
    back = load_datum(str(path))
    assert back.eps == (1, None, None)
    assert back.dual == (0, 2, 1)
