"""Tests for the integer matrix layer: continued fractions, Dedekind
sums, the Rademacher function, linking matrices and exact signatures."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifert_rt.seifert import SeifertData, parse_seifert
from seifert_rt.sl2z import (
    CF_STYLES,
    IDENTITY,
    XI,
    ConvergentTable,
    SL2Z,
    b_matrix,
    cf_digits,
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
    theta_power,
)


# ---------------------------------------------------------------- matrices


def test_sign():
    assert sign(-17) == -1
    assert sign(0) == 0
    assert sign(3) == 1


def test_sl2z_validation():
    with pytest.raises(ValueError):
        SL2Z(1, 0, 0, 2)
    with pytest.raises(ValueError):
        SL2Z(2, 0, 0, 2)
    m = SL2Z(7, 5, 4, 3)
    assert m.rows() == ((7, 5), (4, 3))


def test_sl2z_group_ops():
    m = SL2Z(7, 5, 4, 3)
    assert m * m.inverse() == IDENTITY
    assert m.inverse() * m == IDENTITY
    assert (-m).rows() == ((-7, -5), (-4, -3))
    assert XI * XI == -IDENTITY
    assert theta_power(3) == SL2Z(1, 3, 0, 1)


def test_ext_gcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (3, 0), (1, 1), (-9, -6)]:
        g, x, y = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert x * a + y * b == g


# ---------------------------------------------- continued fraction chains


def test_cf_expand_frozen():
    assert cf_expand(3, 2) == (2, 2)
    assert cf_expand(7, 5) == (3, 2, 2)
    assert cf_expand(-7, 5) == (2, 3, -1)
    assert cf_expand(7, 5, "euclidean") == (-2, -3, 1)
    assert cf_expand(-7, 5, "euclidean") == (-3, -2, -2)
    assert cf_expand(7, 1, "euclidean") == (7,)
    assert cf_expand(5, 1) == (5,)


def test_cf_expand_errors():
    with pytest.raises(ValueError, match="3/0 has zero denominator"):
        cf_expand(3, 0)
    with pytest.raises(ValueError, match="6/4 is not reduced"):
        cf_expand(6, 4)
    with pytest.raises(ValueError):
        cf_expand(3, 2, "nearest")


def test_cf_digits_are_lazy():
    # 2/(2n - 1) has n minus digits, last first 1, 2, 2, ...; taking five of
    # a 10^12-digit expansion must not build it
    assert tuple(itertools.islice(cf_digits(2, 2 * 10**12 - 1), 5)) == (1, 2, 2, 2, 2)
    with pytest.raises(ValueError, match="6/4 is not reduced"):
        next(cf_digits(6, 4))


def test_convergents_frozen():
    table = convergents((3, 2, 2))
    assert table.entries == (3, 2, 2)
    assert table.column_pairs == ((3, 1), (5, 3), (7, 5))
    assert table.final.rows()[0][0] == 7
    # the two-digit all-zero word realizes -identity
    assert convergents((0, 0)).final == -IDENTITY


def test_b_matrix_frozen():
    assert b_matrix((2, 2)).rows() == ((3, -2), (2, -1))
    assert b_matrix(()) == IDENTITY


coprime_pq = st.tuples(
    st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=60)
).filter(lambda t: math.gcd(t[0], t[1]) == 1)


@given(pq=coprime_pq, style=st.sampled_from(CF_STYLES))
def test_cf_digits_reverse_cf_expand(pq, style):
    assert tuple(cf_digits(*pq, style)) == cf_expand(*pq, style)[::-1]


@given(pq=coprime_pq, style=st.sampled_from(CF_STYLES))
def test_cf_chain_reaches_target(pq, style):
    """The convergent matrix carries (1, 0) to the expanded fraction,
    up to the overall sign ambiguity of the matrix group."""
    p, q = pq
    m = b_matrix(cf_expand(p, q, style))
    col = (m.a, m.c)
    assert col == (p, q) or col == (-p, -q)


@st.composite
def coprime_p_above_q(draw):
    q = draw(st.integers(min_value=1, max_value=60))
    p = draw(st.integers(min_value=q + 1, max_value=q + 120))
    assume(math.gcd(p, q) == 1)
    return p, q


@given(pq=coprime_p_above_q())
def test_cf_minus_digit_bound(pq):
    p, q = pq
    digits = cf_expand(p, q)
    assert all(a >= 2 for a in digits)


@given(
    word=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6)
)
def test_convergent_denominators_interlock(word):
    """Each convergent's lower entry is the previous one's upper entry."""
    pairs = convergents(tuple(word)).column_pairs
    assert pairs[0][1] == 1
    for k in range(1, len(pairs)):
        assert pairs[k][1] == pairs[k - 1][0]


# ------------------------------------------------ Dedekind and Rademacher


def test_dedekind_frozen():
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(5, 7) == Fraction(-1, 14)
    assert dedekind_sum(3, 14) == Fraction(3, 14)
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(4, 1) == 0


def test_dedekind_errors():
    with pytest.raises(ValueError, match="2 and 4 are not coprime"):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError, match="modulus must be positive, got 0"):
        dedekind_sum(1, 0)


coprime_sq = st.tuples(
    st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=80)
).filter(lambda t: math.gcd(t[0], t[1]) == 1)


@given(sq=coprime_sq)
def test_dedekind_oddness(sq):
    s, q = sq
    assert dedekind_sum(-s, q) == -dedekind_sum(s, q)


@given(sq=coprime_sq)
def test_dedekind_reciprocity(sq):
    h, k = sq
    lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
    rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
    assert lhs == rhs


@given(sq=coprime_sq)
@settings(max_examples=60)
def test_dedekind_cotangent_agreement(sq):
    s, q = sq
    exact = dedekind_sum(s, q)
    approx = dedekind_sum_cotangent(s, q)
    assert abs(float(exact) - approx) < 1e-9


def dedekind_recursion(s: int, q: int) -> Fraction:
    """The reciprocity recursion in Fraction, one term per Euclidean step:
    the reference for the integer dedekind_sum."""
    s %= q
    total = Fraction(0)
    sgn = 1
    h, k = s, q
    while h > 0:
        total += sgn * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sgn = -sgn
    return total


@st.composite
def coprime_wide(draw):
    q = draw(st.integers(min_value=1, max_value=10**30))
    s = draw(st.integers(min_value=-(10**30), max_value=10**30))
    assume(math.gcd(s, q) == 1)
    return s, q


@given(sq=st.one_of(coprime_sq, coprime_wide()))
@settings(max_examples=300)
def test_dedekind_matches_fraction_recursion(sq):
    s, q = sq
    assert dedekind_sum(s, q) == dedekind_recursion(s, q)


@given(word=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_rademacher_matches_fraction_formula(word):
    """phi in integers equals (a + d)/c - 12 sign(c) s(d, |c|) in Fraction."""
    m = b_matrix(tuple(word))
    if m.c == 0:
        want = Fraction(m.b, m.d)
    else:
        want = Fraction(m.a + m.d, m.c) - 12 * sign(m.c) * dedekind_recursion(m.d, abs(m.c))
    assert rademacher_phi(m) == want


def test_rademacher_frozen():
    assert rademacher_phi(theta_power(1)) == 1
    assert rademacher_phi(theta_power(-4)) == -4
    assert rademacher_phi(XI) == 0
    assert rademacher_phi(IDENTITY) == 0
    assert rademacher_phi(SL2Z(7, 5, 4, 3)) == 4


word_strategy = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=5
)


@given(word=word_strategy)
def test_rademacher_symmetries(word):
    m = b_matrix(tuple(word))
    assert rademacher_phi(-m) == rademacher_phi(m)
    assert rademacher_phi(m.inverse()) == -rademacher_phi(m)


@given(w1=word_strategy, w2=word_strategy)
def test_rademacher_cocycle(w1, w2):
    a1 = b_matrix(tuple(w1))
    a2 = b_matrix(tuple(w2))
    a3 = a1 * a2
    defect = 3 * sign(a1.c * a2.c * a3.c)
    assert rademacher_phi(a3) == rademacher_phi(a1) + rademacher_phi(a2) - defect


@given(
    word=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6)
)
def test_chain_signature_identity(word):
    """Partial sign sums along a chain close into digit-sum minus phi
    over three, with exact divisibility."""
    table = convergents(tuple(word))
    num = sum(table.entries) - rademacher_phi(table.final)
    assert num % 3 == 0
    partial = sum(sign(a * c) for a, c in table.column_pairs[:-1])
    assert partial == num // 3


# --------------------------------------------- linking matrix, signature


def test_linking_matrix_frozen_poincare():
    data = parse_seifert("o;g=0;b=-1;2/1,3/1,5/1")
    cfs = tuple(cf_expand(a, b) for a, b in data.pairs)
    assert cfs == ((2,), (3,), (5,))
    L = linking_matrix(data, cfs)
    assert L == (
        (1, 1, 1, 1),
        (1, 2, 0, 0),
        (1, 0, 3, 0),
        (1, 0, 0, 5),
    )
    assert signature_exact(L) == (2, 0)


def test_linking_matrix_frozen_small():
    # bare center vertex
    atom = SeifertData("o", 0, 2, ())
    assert linking_matrix(atom, ()) == ((-2,),)
    # orientable genus adds two null rows per handle
    torus = SeifertData("o", 1, 0, ())
    assert linking_matrix(torus, ()) == (
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
    )
    # one cross-cap couples to the center with weight -2
    kb = SeifertData("n", 1, 0, ())
    assert linking_matrix(kb, ()) == ((0, -2), (-2, -2))
    assert signature_exact(linking_matrix(kb, ())) == (0, 0)


def test_linking_matrix_shape_error():
    data = parse_seifert("o;g=0;b=-1;2/1,3/1,5/1")
    with pytest.raises(ValueError, match="3 pairs but 1 digit sequences"):
        linking_matrix(data, ((2,),))


def test_signature_exact_frozen():
    assert signature_exact(((0, 0), (0, 0))) == (0, 2)
    assert signature_exact(((0, 1), (1, 0))) == (0, 0)
    assert signature_exact(((2, 0), (0, -3))) == (0, 0)
    assert signature_exact(((1, 0), (0, 1))) == (2, 0)
    assert signature_exact(()) == (0, 0)


def test_signature_exact_shape_errors():
    with pytest.raises(ValueError, match="matrix is not square"):
        signature_exact(((1, 2),))
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        signature_exact(((1, 2), (3, 4)))


@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120)
def test_signature_exact_matches_eigenvalues(n, seed):
    rng = np.random.default_rng(seed)
    upper = rng.integers(-4, 5, size=(n, n))
    mat = np.triu(upper) + np.triu(upper, 1).T
    sig, nul = signature_exact(tuple(tuple(int(x) for x in row) for row in mat))
    eig = np.linalg.eigvalsh(mat.astype(float))
    assert sig == int(np.sum(eig > 1e-8) - np.sum(eig < -1e-8))
    assert nul == int(np.sum(np.abs(eig) <= 1e-8))


def test_signature_exact_splits_a_hyperbolic_pair_off_a_larger_matrix():
    # a zero diagonal leaves no pivot: a hyperbolic pair splits off and the
    # remaining rows are updated
    klein = linking_matrix(SeifertData("n", 2, -4, ()), ())
    assert all(klein[i][i] == 0 for i in range(len(klein)))
    assert signature_exact(klein) == (0, 1)
    assert signature_exact(((0, 1, 2), (1, 0, 3), (2, 3, 0))) == (-1, 0)


@st.composite
def zero_diagonal_symmetric(draw):
    n = draw(st.integers(3, 6))
    pairs = list(itertools.combinations(range(n), 2))
    upper = draw(st.lists(st.integers(-4, 4), min_size=len(pairs), max_size=len(pairs)))
    mat = [[0] * n for _ in range(n)]
    for (i, j), x in zip(pairs, upper):
        mat[i][j] = mat[j][i] = x
    return tuple(map(tuple, mat))


@given(mat=zero_diagonal_symmetric())
@settings(max_examples=100, deadline=None)
def test_signature_exact_matches_mpmath_on_zero_diagonals(mat):
    """Signs of the eigenvalues at 50 digits, below 1e-30 counted as zero."""
    with mpmath.workdps(50):
        eig, _ = mpmath.eigsy(mpmath.matrix(mat))
        signs = [0 if abs(x) < mpmath.mpf("1e-30") else int(mpmath.sign(x)) for x in eig]
    assert signature_exact(mat) == (sum(signs), signs.count(0))


def test_sigma_closed_form_validation():
    with pytest.raises(ValueError):
        sigma_closed_form("x", 1, ())
    with pytest.raises(ValueError):
        sigma_closed_form("o", 1, (), variant="other")


def test_sigma_closed_form_matches_exact_signature():
    """Both closed forms agree with the congruence-diagonalized linking
    matrix on seeded random presentations over both bases and styles."""
    from seifert_rt.cli import random_seifert
    from seifert_rt.seifert import euler_number, normalize

    rng = random.Random(20260822)
    for _ in range(120):
        data = normalize(random_seifert(rng))
        e = euler_number(data)
        for style in CF_STYLES:
            cfs = tuple(cf_expand(a, b, style) for a, b in data.pairs)
            tables = tuple(convergents(c) for c in cfs)
            expected, _ = signature_exact(linking_matrix(data, cfs))
            for variant in ("sums", "phi"):
                got = sigma_closed_form(data.base, sign(e), tables, variant)
                assert got == expected, (data, style, variant)


def test_convergent_table_is_frozen():
    table = convergents((2, 2))
    with pytest.raises(AttributeError):
        table.entries = (3,)
    assert isinstance(table, ConvergentTable)
