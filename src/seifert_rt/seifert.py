"""Seifert fibered 3-manifolds over orientable and non-orientable bases.

A presentation records the base surface (orientable of genus g, or
non-orientable with g cross-caps), an optional integer framing b, and a
finite list of exceptional fiber pairs (alpha_j, beta_j).  With b recorded
the presentation is called normalized and every pair satisfies
0 < beta_j < alpha_j; without b the pairs are unconstrained apart from
alpha_j >= 1 and gcd(alpha_j, beta_j) = 1.  Both shapes describe closed
oriented 3-manifolds and are interchangeable via normalize().

The module also provides the rational Euler number, orientation
reversal, the one-fiber presentation of a lens space, the first Betti
number, and the text format: parse_seifert reads what render_seifert
writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


BASES = ("o", "n")


@dataclass(frozen=True)
class SeifertData:
    """Seifert presentation (base; genus | b; (alpha_1, beta_1), ...).

    base is "o" (orientable) or "n" (non-orientable, genus counts
    cross-caps and must be positive).  b is None for a non-normalized
    presentation.
    """

    base: str
    genus: int
    b: int | None
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise ValueError(f"base must be one of {BASES}, got {self.base!r}")
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        if self.base == "n" and self.genus < 1:
            raise ValueError("non-orientable base needs at least one cross-cap")
        for alpha, beta in self.pairs:
            if alpha == 0:
                raise ValueError(f"pair ({alpha}, {beta}) has alpha = 0")
            if alpha < 0:
                raise ValueError(f"alpha must be positive, got ({alpha}, {beta})")
            if math.gcd(alpha, beta) != 1:
                raise ValueError(f"pair ({alpha}, {beta}) is not coprime")
            if self.b is not None and not 0 < beta < alpha:
                raise ValueError(
                    f"normalized presentation needs 0 < beta < alpha, got ({alpha}, {beta})"
                )

    @property
    def normalized(self) -> bool:
        return self.b is not None

    def __str__(self) -> str:
        return render_seifert(self)


@dataclass(frozen=True)
class LensSpace:
    """The lens space L(p, q), gcd(p, q) = 1.  L(0, +-1) is S^1 x S^2."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"L({self.p}, {self.q}) needs coprime parameters")


def euler_number(data: SeifertData) -> Fraction:
    """Rational Euler number e = -(b + sum beta_j / alpha_j), exact."""
    total = Fraction(data.b if data.b is not None else 0)
    for alpha, beta in data.pairs:
        total += Fraction(beta, alpha)
    return -total


def normalize(data: SeifertData) -> SeifertData:
    """Unique normalized presentation of the same oriented manifold.

    Integer parts of beta_j / alpha_j move into b; alpha_j = 1 pairs are
    absorbed entirely.  Idempotent, preserves the Euler number.
    """
    b = data.b if data.b is not None else 0
    pairs = []
    for alpha, beta in data.pairs:
        if alpha == 1:
            b += beta
            continue
        k = beta // alpha
        b += k
        pairs.append((alpha, beta - k * alpha))
    return SeifertData(data.base, data.genus, b, tuple(pairs))


def reverse_orientation(data: SeifertData) -> SeifertData:
    """Presentation of the same manifold with reversed orientation.

    Defined on normalized input: (e; g | b; (a_j, b_j)) goes to
    (e; g | -n - b; (a_j, a_j - b_j)) with n the number of pairs.
    """
    if not data.normalized:
        raise ValueError("reverse_orientation needs a normalized presentation")
    pairs = tuple((alpha, alpha - beta) for alpha, beta in data.pairs)
    return SeifertData(data.base, data.genus, -len(data.pairs) - data.b, pairs)


def first_betti(data: SeifertData) -> int:
    """First Betti number; orientable base only."""
    if data.base != "o":
        raise ValueError("first_betti implemented for orientable base only")
    e = euler_number(data)
    return 2 * data.genus + (1 if e == 0 else 0)


def seifert_from_lens(lens: LensSpace) -> SeifertData:
    """One-fiber genus-0 presentation of L(p, q).

    L(p, q) = {o; 0; (|q|, sign(q) p)}; for q = 0 (so p = +-1, the
    3-sphere) the presentation {o; 0; (1, 1)} is returned.
    """
    p, q = lens.p, lens.q
    if q == 0:
        return SeifertData("o", 0, None, ((1, 1),))
    s = 1 if q > 0 else -1
    return SeifertData("o", 0, None, ((abs(q), s * p),))


# text format: "o;g=2;b=-1;3/1,5/2" (normalized), "nn:o;g=0;2/1,3/-1" (not)

def render_seifert(data: SeifertData) -> str:
    pairs = ",".join(f"{a}/{b}" for a, b in data.pairs)
    if data.normalized:
        return f"{data.base};g={data.genus};b={data.b};{pairs}"
    return f"nn:{data.base};g={data.genus};{pairs}"


def parse_seifert(text: str) -> SeifertData:
    """Inverse of render_seifert; raises ValueError on malformed input."""
    t = text.strip()
    normalized = True
    if t.startswith("nn:"):
        normalized = False
        t = t[3:]
    parts = t.split(";")
    want = 4 if normalized else 3
    if len(parts) != want:
        raise ValueError(f"expected {want} ';'-separated fields in {text!r}")
    base = parts[0].strip()
    if not parts[1].strip().startswith("g="):
        raise ValueError(f"missing g= field in {text!r}")
    try:
        genus = int(parts[1].strip()[2:])
    except ValueError:
        raise ValueError(f"bad genus in {text!r}") from None
    b: int | None = None
    if normalized:
        if not parts[2].strip().startswith("b="):
            raise ValueError(f"missing b= field in {text!r}")
        try:
            b = int(parts[2].strip()[2:])
        except ValueError:
            raise ValueError(f"bad framing in {text!r}") from None
    pair_field = parts[-1].strip()
    pairs = []
    if pair_field:
        for item in pair_field.split(","):
            bits = item.strip().split("/")
            if len(bits) != 2:
                raise ValueError(f"bad pair {item!r} in {text!r}")
            try:
                pairs.append((int(bits[0]), int(bits[1])))
            except ValueError:
                raise ValueError(f"bad pair {item!r} in {text!r}") from None
    return SeifertData(base, genus, b, tuple(pairs))
