"""Exact integer arithmetic in SL(2, Z).

Negative-regular and euclidean continued fractions with their convergent
matrices, Dedekind sums, the Rademacher function, closed-form signatures
of Seifert surgery links, the integer plumbing (linking) matrices those
links produce, and an exact congruence reduction computing the signature
and nullity of any symmetric rational matrix.

Everything runs on int and Fraction; the only floating point is the
cotangent-sum cross-check for Dedekind sums.  Dedekind sums are
integer-exact: the reciprocity recursion runs on int over one common
denominator 12 q, and the Rademacher function reads that integer
without forming a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .seifert import SeifertData


def sign(x) -> int:
    """Sign in {-1, 0, 1}; works for int and Fraction."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True)
class SL2Z:
    """Integer matrix [[a, b], [c, d]] with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self.rows()}")

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other: "SL2Z") -> "SL2Z":
        return SL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "SL2Z":
        return SL2Z(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "SL2Z":
        return SL2Z(self.d, -self.b, -self.c, self.a)


IDENTITY = SL2Z(1, 0, 0, 1)
XI = SL2Z(0, -1, 1, 0)


def theta_power(k: int) -> SL2Z:
    return SL2Z(1, k, 0, 1)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


CF_STYLES = ("minus", "euclidean")


def cf_expand(p: int, q: int, style: str = "minus") -> tuple[int, ...]:
    """Digits (a_1, ..., a_n) of a continued fraction expansion of p/q.

    The convergent matrix Theta^{a_n} Xi ... Theta^{a_1} Xi has first
    column +-(p, q)^T.  "minus" takes ceiling quotients (all-minus
    expansion, inner digits have absolute value >= 2 when |p/q| > 1),
    "euclidean" takes floor quotients.
    """
    return tuple(cf_digits(p, q, style))[::-1]


def cf_digits(p: int, q: int, style: str = "minus") -> Iterator[int]:
    """The digits of cf_expand(p, q, style) one at a time, last first.

    A caller that caps the length stops taking digits: a "minus"
    expansion can have about |p| + |q| of them (2/2000001 has 1000001).
    The arguments are checked when the first digit is taken.
    """
    if q == 0:
        raise ValueError(f"{p}/{q} has zero denominator")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not reduced")
    if style not in CF_STYLES:
        raise ValueError(f"style must be one of {CF_STYLES}, got {style!r}")
    while q != 0:
        if style == "minus":
            a = -((-p) // q)
        else:
            a = p // q
        yield a
        p, q = q, a * q - p


def b_matrix(entries: Sequence[int]) -> SL2Z:
    """Theta^{a_n} Xi ... Theta^{a_1} Xi for entries (a_1, ..., a_n)."""
    return convergents(entries).final


@dataclass(frozen=True)
class ConvergentTable:
    """Partial products B_k = Theta^{a_k} Xi ... Theta^{a_1} Xi, k = 1..n.

    The first column of B_k is (alpha_k, beta_k); beta_k = alpha_{k-1}.
    """

    entries: tuple[int, ...]
    matrices: tuple[SL2Z, ...]

    @property
    def final(self) -> SL2Z:
        return self.matrices[-1] if self.matrices else IDENTITY

    @property
    def column_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((m.a, m.c) for m in self.matrices)


def convergents(entries: Sequence[int]) -> ConvergentTable:
    mats = []
    acc = IDENTITY
    for a in entries:
        # theta_power(a) * XI * acc, written out
        acc = SL2Z(a * acc.a - acc.c, a * acc.b - acc.d, acc.a, acc.b)
        mats.append(acc)
    return ConvergentTable(tuple(entries), tuple(mats))


def dedekind_sum(s: int, q: int) -> Fraction:
    """Dedekind sum of s mod q, exact, via the reciprocity recursion.

    Odd in s, zero for q = 1, and equal to the classical cotangent sum
    (see dedekind_sum_cotangent) on coprime arguments.  Computed in
    integers (see _dedekind_12q), one Fraction at the end.
    """
    return Fraction(_dedekind_12q(s, q), 12 * q)


def _dedekind_12q(s: int, q: int) -> int:
    """12 q s(s, q), an integer, from the reciprocity recursion.

    The recursion sums (h^2 + k^2 + 1) / 12 h k - 1/4 with alternating
    signs over the Euclidean remainders k = a h + h' of (q, s), ending
    at h = 1.  There k / h + h / k telescopes to the quotients a and s / q,
    and 1 / h k to y / q, where y s = 1 mod q is the last Bezout
    coefficient of the remainder 1 (Knuth, Acta Arith. 33, 1977):
    12 q s(s, q) = q (a_0 - a_1 + ...) + s + y - 3 q [odd step count].
    """
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    s %= q
    if math.gcd(s, q) != 1:
        raise ValueError(f"{s} and {q} are not coprime")
    if s == 0:
        return 0
    quotients = 0
    sgn = 1
    h, k = s, q
    # Bezout coefficients of k and h: each remainder is y s mod q
    y_k, y_h = 0, 1
    while h > 0:
        a = k // h
        quotients += sgn * a
        h, k = k - a * h, h
        y_k, y_h = y_h, y_k - a * y_h
        sgn = -sgn
    return q * quotients + s + y_k - (3 * q if sgn < 0 else 0)


def dedekind_sum_cotangent(s: int, q: int) -> float:
    """Defining cotangent sum, floating point; cross-check oracle."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        return 0.0
    if math.gcd(s, q) != 1:
        raise ValueError(f"{s} and {q} are not coprime")
    total = 0.0
    for j in range(1, q):
        total += (
            math.cos(math.pi * j / q) / math.sin(math.pi * j / q)
            * math.cos(math.pi * s * j / q) / math.sin(math.pi * s * j / q)
        )
    return total / (4 * q)


def rademacher_phi(mat: SL2Z) -> int:
    """Rademacher function, always an integer on SL(2, Z).

    For [[a, b], [c, d]]: b/d when c = 0, otherwise
    (a + d)/c - 12 sign(c) times the Dedekind sum of d mod |c|, that is
    ((a + d) - 12 |c| s(d, |c|)) / c, formed in integers.
    Satisfies phi(-A) = phi(A) and the three-term cocycle relation
    phi(A1 A2) = phi(A1) + phi(A2) - 3 sign(c1 c2 c3).
    """
    if mat.c == 0:
        num, den = mat.b, mat.d
    else:
        num, den = mat.a + mat.d - _dedekind_12q(mat.d, abs(mat.c)), mat.c
    val, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"non-integral Rademacher value {Fraction(num, den)} at {mat.rows()}"
        )
    return val


def sigma_closed_form(
    base: str,
    euler_sign: int,
    tables: Sequence[ConvergentTable],
    variant: str = "sums",
) -> int:
    """Signature of the Seifert surgery link, in closed form.

    variant "sums": sign(e) (orientable base only) plus the double sum of
    sign(alpha_l beta_l) over all convergents of all chains.  variant
    "phi": the same value with each chain's inner sum replaced by its
    endpoint form sign(alpha beta) + (sum of digits - phi(B))/3.
    Both must equal the signature of the exact linking matrix.
    """
    if base not in ("o", "n"):
        raise ValueError(f"base must be 'o' or 'n', got {base!r}")
    if variant not in ("sums", "phi"):
        raise ValueError(f"variant must be 'sums' or 'phi', got {variant!r}")
    total = euler_sign if base == "o" else 0
    for table in tables:
        if variant == "sums":
            for alpha, beta in table.column_pairs:
                total += sign(alpha * beta)
        else:
            last = table.final
            total += sign(last.a * last.c)
            num = sum(table.entries) - rademacher_phi(last)
            if num % 3 != 0:
                raise ArithmeticError(
                    f"digit sum minus phi not divisible by 3 for {table.entries}"
                )
            total += num // 3
    return total


def linking_matrix(
    data: "SeifertData", cfs: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Integer linking matrix of the plumbing surgery presentation.

    cfs holds one digit tuple per exceptional pair.  Orientable base:
    2g zero rows, then a central vertex -b linked once to the head of
    each chain; chain j carries its digits in reverse order
    (a_m, ..., a_1) on the diagonal with unit links along the chain.
    Non-orientable base: g cross-cap rows (zero diagonal) each linked
    with -2 to the central vertex, whose diagonal becomes -b - 2g.
    """
    if len(cfs) != len(data.pairs):
        raise ValueError(f"{len(data.pairs)} pairs but {len(cfs)} digit sequences")
    b = data.b if data.b is not None else 0
    g = data.genus
    orientable = data.base == "o"
    head = 2 * g if orientable else g
    size = head + 1 + sum(len(c) for c in cfs)
    m = [[0] * size for _ in range(size)]
    center = head
    if orientable:
        m[center][center] = -b
    else:
        m[center][center] = -b - 2 * g
        for i in range(g):
            m[i][center] = m[center][i] = -2
    pos = center + 1
    for chain in cfs:
        digits = list(reversed(list(chain)))
        if digits:
            m[center][pos] = m[pos][center] = 1
        for i, a in enumerate(digits):
            m[pos + i][pos + i] = a
            if i + 1 < len(digits):
                m[pos + i][pos + i + 1] = m[pos + i + 1][pos + i] = 1
        pos += len(digits)
    return tuple(tuple(row) for row in m)


def signature_exact(mat: Sequence[Sequence[int | Fraction]]) -> tuple[int, int]:
    """(signature, nullity) of a symmetric rational matrix, exact.

    Fraction-free congruence reduction in Python ints.  Rational input is
    scaled by the squared lcm of its denominators, the congruence by lcm I.
    Nonzero diagonal entries d split off one at a time, and zero-diagonal
    hyperbolic pairs c two at a time (each contributing nothing to the
    signature).  What remains becomes d m_ij - m_ip m_pj, d times the Schur
    complement (c times it for a pair), so a negative d or c flips the
    inertia of the rest.  flip is the product of the signs of the d and c
    so far, and a pivot's true sign is the flip that includes its own d.
    Each block is then divided by the gcd of its entries, a positive scale.
    """
    n = len(mat)
    m = [list(row) for row in mat]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if not all(type(x) is int for row in m for x in row):
        fracs = [[Fraction(x) for x in row] for row in m]
        scale = math.lcm(*(x.denominator for row in fracs for x in row)) ** 2
        m = [[int(x * scale) for x in row] for row in fracs]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    sig = 0
    null = 0
    flip = 1
    while m:
        k = len(m)
        pivot = next((i for i in range(k) if m[i][i] != 0), None)
        if pivot is not None:
            d = m[pivot][pivot]
            flip *= sign(d)
            sig += flip
            rest = [i for i in range(k) if i != pivot]
            m = [[d * m[i][j] - m[i][pivot] * m[pivot][j] for j in rest] for i in rest]
        else:
            hyper = next(
                ((i, j) for i in range(k) for j in range(i + 1, k) if m[i][j] != 0), None
            )
            if hyper is None:
                null += k
                break
            i0, j0 = hyper
            c = m[i0][j0]
            flip *= sign(c)
            rest = [t for t in range(k) if t not in (i0, j0)]
            m = [
                [c * m[s][t] - (m[s][i0] * m[t][j0] + m[s][j0] * m[t][i0]) for t in rest]
                for s in rest
            ]
        g = math.gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return sig, null
