"""Tests for Seifert presentation data: parsing, normal form, orientation
reversal, Euler numbers and lens space conversions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from seifert_rt.seifert import (
    LensSpace,
    SeifertData,
    euler_number,
    first_betti,
    normalize,
    parse_seifert,
    render_seifert,
    reverse_orientation,
    seifert_from_lens,
)

from helpers import are_equivalent, lens_from_seifert

POINCARE = "o;g=0;b=-1;2/1,3/1,5/1"


# ----------------------------------------------------------- construction


def test_constructor_validation():
    with pytest.raises(ValueError, match=r"pair \(0, 1\) has alpha = 0"):
        SeifertData("o", 0, None, ((0, 1),))
    with pytest.raises(ValueError):
        SeifertData("o", 0, None, ((-2, 1),))
    with pytest.raises(ValueError):
        SeifertData("o", 0, None, ((4, 2),))
    with pytest.raises(ValueError):
        SeifertData("n", 0, None, ())
    with pytest.raises(ValueError):
        SeifertData("x", 0, None, ())
    with pytest.raises(ValueError):
        SeifertData("o", -1, None, ())
    # a recorded central framing forces the standard form on every pair
    with pytest.raises(ValueError):
        SeifertData("o", 0, 0, ((3, 4),))
    with pytest.raises(ValueError):
        SeifertData("o", 0, 0, ((3, -1),))


def test_normalized_property():
    assert parse_seifert(POINCARE).normalized
    assert not parse_seifert("nn:o;g=0;2/1,3/-1").normalized
    assert SeifertData("o", 1, 2, ()).normalized


def test_lens_space_validation():
    LensSpace(5, 4)
    LensSpace(1, 0)
    LensSpace(0, 1)
    with pytest.raises(ValueError):
        LensSpace(4, 2)
    with pytest.raises(ValueError):
        LensSpace(0, 0)


# -------------------------------------------------------- parse / render


@pytest.mark.parametrize(
    "text",
    [
        "o;g=2;b=-1;3/1,5/2",
        "n;g=1;b=0;",
        "nn:o;g=0;2/1,3/-1",
        POINCARE,
        "o;g=0;b=3;",
        "nn:n;g=2;5/-3",
    ],
)
def test_parse_render_round_trip(text):
    data = parse_seifert(text)
    assert render_seifert(data) == text
    assert parse_seifert(render_seifert(data)) == data
    assert str(data) == text


def test_parse_frozen():
    data = parse_seifert("o;g=2;b=-1;3/1,5/2")
    assert data.base == "o"
    assert data.genus == 2
    assert data.b == -1
    assert data.pairs == ((3, 1), (5, 2))
    un = parse_seifert("nn:o;g=0;2/1,3/-1")
    assert un.b is None
    assert un.pairs == ((2, 1), (3, -1))


@pytest.mark.parametrize(
    "text",
    ["", "o;g=0", "o;g=x;b=0;", "q;g=0;b=0;", "o;g=0;b=0;3-1", "o;g=0;b=0;3/2,"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_seifert(text)


# ----------------------------------------------------------- normal form


def test_normalize_frozen():
    data = SeifertData("o", 0, None, ((3, 4),))
    assert render_seifert(normalize(data)) == "o;g=0;b=1;3/1"
    # unit pairs fold entirely into the framing
    data2 = parse_seifert("nn:o;g=0;2/1,1/1")
    assert render_seifert(normalize(data2)) == "o;g=0;b=1;2/1"


def test_normalize_idempotent_and_euler_preserving():
    rng = random.Random(5)
    from seifert_rt.cli import random_seifert

    for _ in range(60):
        data = random_seifert(rng)
        norm = normalize(data)
        assert norm.normalized
        assert normalize(norm) == norm
        assert euler_number(norm) == euler_number(data)
        assert are_equivalent(norm, data)


def test_are_equivalent_frozen():
    assert are_equivalent(
        parse_seifert("nn:o;g=0;2/1,1/1"), parse_seifert("nn:o;g=0;2/3")
    )
    assert not are_equivalent(
        parse_seifert("o;g=0;b=0;"), parse_seifert("o;g=1;b=0;")
    )
    assert not are_equivalent(
        parse_seifert("o;g=0;b=0;2/1"), parse_seifert("o;g=0;b=1;2/1")
    )
    assert not are_equivalent(
        parse_seifert("o;g=0;b=0;"), parse_seifert("n;g=1;b=0;")
    )


# -------------------------------------------------- orientation and Euler


def test_euler_number_frozen():
    assert euler_number(parse_seifert(POINCARE)) == Fraction(-1, 30)
    assert euler_number(parse_seifert("nn:o;g=0;2/1,3/-1")) == Fraction(-1, 6)
    assert euler_number(parse_seifert("o;g=1;b=0;")) == 0


def test_reverse_orientation_frozen():
    rev = reverse_orientation(parse_seifert(POINCARE))
    assert render_seifert(rev) == "o;g=0;b=-2;2/1,3/2,5/4"
    assert euler_number(rev) == Fraction(1, 30)


def test_reverse_orientation_requires_normal_form():
    with pytest.raises(ValueError, match="reverse_orientation needs a normalized presentation"):
        reverse_orientation(SeifertData("o", 0, None, ((3, 4),)))


def test_reverse_orientation_involution():
    rng = random.Random(6)
    from seifert_rt.cli import random_seifert

    for _ in range(40):
        data = normalize(random_seifert(rng))
        rev = reverse_orientation(data)
        assert euler_number(rev) == -euler_number(data)
        assert are_equivalent(reverse_orientation(rev), data)


def test_first_betti_frozen():
    assert first_betti(parse_seifert(POINCARE)) == 0
    assert first_betti(SeifertData("o", 2, 0, ())) == 5
    assert first_betti(SeifertData("o", 1, 1, ())) == 2
    with pytest.raises(ValueError, match="first_betti implemented for orientable base only"):
        first_betti(parse_seifert("n;g=1;b=0;"))


# --------------------------------------------------------- lens bridging


def test_lens_from_seifert_frozen():
    assert lens_from_seifert((2, 1), (3, 1)) == LensSpace(5, 4)
    assert lens_from_seifert((1, 0), (1, 0)) == LensSpace(0, 1)


def test_seifert_from_lens_frozen():
    assert render_seifert(seifert_from_lens(LensSpace(5, 4))) == "nn:o;g=0;4/5"
    assert render_seifert(seifert_from_lens(LensSpace(1, 0))) == "nn:o;g=0;1/1"
    assert render_seifert(seifert_from_lens(LensSpace(0, 1))) == "nn:o;g=0;1/0"


def test_seifert_from_lens_euler():
    """The one-pair presentation of L(p, q) has Euler number -p/q."""
    for p, q in [(5, 4), (7, 3), (3, 2), (2, 1), (-3, 2), (1, 5)]:
        data = seifert_from_lens(LensSpace(p, q))
        assert euler_number(data) == Fraction(-p, q)
