"""Tests for the numeric category data and the two matrix representation
routes (word decomposition versus entrywise Gauss sums)."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_rt.modular import (
    DiagonalCase,
    InvalidLevel,
    ModularDatum,
    check_axioms,
    datum_from_dict,
    datum_to_dict,
    g_matrix,
    load_datum,
    mirror_datum,
    r_rep_gauss,
    r_rep_generators,
    r_rep_word,
    save_datum,
    sl2_datum,
    w_phase,
)
from seifert_rt.sl2z import IDENTITY, SL2Z, XI, b_matrix, theta_power


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


def test_sl2_datum_invalid_level():
    with pytest.raises(InvalidLevel):
        sl2_datum(1)
    with pytest.raises(InvalidLevel):
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
    assert np.allclose(g_matrix(d, ()), np.eye(4), atol=1e-14)
    assert np.allclose(g_matrix(d, (0,)), d.S / d.D, atol=1e-14)
    e0 = np.eye(1, 4, dtype=complex)[0]
    assert np.array_equal(g_matrix(d, (), e0), e0)
    assert np.allclose(g_matrix(d, (0,), e0), d.S[:, 0] / d.D, atol=1e-14)


@pytest.mark.parametrize("r", [3, 5, 8])
def test_g_matrix_matches_representation(r):
    """diag(v)-and-S/D chain products equal the unit-phase representation
    rescaled by w per digit-unit."""
    rng = random.Random(r)
    d = sl2_datum(r)
    w = w_phase(r)
    for _ in range(25):
        word = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        G = g_matrix(d, word)
        R = r_rep_word(b_matrix(word), r)
        scale = w ** sum(word)
        assert np.max(np.abs(G - scale * R)) < 1e-11, word


@given(
    word=st.lists(st.integers(-6, 6), min_size=1, max_size=12),
    r=st.integers(2, 40),
    label=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_g_matrix_column_matches_full_chain(word, r, label):
    """The chain applied to a unit vector is that column of the matrix."""
    d = sl2_datum(r)
    k = label.draw(st.integers(0, r - 2))
    ek = np.eye(1, r - 1, k, dtype=complex)[0]
    full = g_matrix(d, word)
    assert np.max(np.abs(g_matrix(d, word, ek) - full[:, k])) <= 1e-13
    assert np.max(np.abs(g_matrix(d, word, full) - g_matrix(d, word + word))) <= 1e-13


@st.composite
def sl2z_lower_nonzero(draw):
    """Any SL(2, Z) element with c != 0 and entries up to 60 or so."""
    c = draw(st.integers(-60, 60).filter(bool))
    a = draw(st.integers(-60, 60).filter(lambda x: math.gcd(x, c) == 1))
    # a d - b c = 1: d is an inverse of a mod |c| (any d when |c| = 1)
    d = pow(a, -1, abs(c)) + abs(c) * draw(st.integers(-2, 2))
    return SL2Z(a, (a * d - 1) // c, c, d)


@given(mat=sl2z_lower_nonzero(), r=st.integers(2, 40), cols=st.data())
@settings(max_examples=150, deadline=None)
def test_gauss_columns_match_full_matrix(mat, r, cols):
    """Summing only some columns gives those columns of the full matrix."""
    picked = cols.draw(st.lists(st.integers(0, r - 2), min_size=1, max_size=3))
    full = r_rep_gauss(mat, r)
    part = r_rep_gauss(mat, r, picked)
    assert part.shape == (r - 1, len(picked))
    assert np.max(np.abs(part - full[:, picked])) <= 1e-13


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
        assert np.max(np.abs(a - g)) < 1e-10, (word, m.rows())
        assert np.max(np.abs(r_rep_gauss(-m, r) - g)) < 1e-10
        checked += 1


def test_gauss_route_diagonal_case():
    with pytest.raises(DiagonalCase):
        r_rep_gauss(theta_power(2), 5)
    with pytest.raises(InvalidLevel):
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
