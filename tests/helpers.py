"""Helpers only the tests call: presentation equivalence, the lens space
of a two-fiber presentation, and the whole representation matrix as a
word in the generators, the reference for the Gauss and chain kernels."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from seifert_rt.modular import r_rep_generators
from seifert_rt.seifert import LensSpace, SeifertData, euler_number
from seifert_rt.sl2z import SL2Z, b_matrix, cf_expand, ext_gcd


def are_equivalent(d1: SeifertData, d2: SeifertData) -> bool:
    """Whether two presentations give the same oriented Seifert manifold.

    Same base and genus, equal total sum b + sum beta_j / alpha_j, and
    equal multisets of the non-integral residues beta_j / alpha_j mod 1.
    """
    if (d1.base, d1.genus) != (d2.base, d2.genus):
        return False
    if euler_number(d1) != euler_number(d2):
        return False

    def residues(d: SeifertData) -> list[Fraction]:
        out = []
        for alpha, beta in d.pairs:
            if alpha == 1:
                continue
            out.append(Fraction(beta, alpha) % 1)
        return sorted(out)

    return residues(d1) == residues(d2)


def lens_from_seifert(pair1: tuple[int, int], pair2: tuple[int, int]) -> LensSpace:
    """Lens space of the genus-0 two-fiber presentation {o; 0; pair1, pair2}.

    Returns L(p, q) with p = a1 b2 + a2 b1 and q = a1 b2' + a2' b1 where
    (b2', a2') solves a2 b2' - b2 a2' = 1 with the smallest non-negative a2'.
    """
    (a1, b1), (a2, b2) = pair1, pair2
    for alpha, beta in (pair1, pair2):
        if alpha < 1:
            raise ValueError(f"alpha must be positive, got ({alpha}, {beta})")
        if math.gcd(alpha, beta) != 1:
            raise ValueError(f"pair ({alpha}, {beta}) is not coprime")
    p = a1 * b2 + a2 * b1
    _, x, y = ext_gcd(a2, b2)
    # x a2 + y b2 = 1, so (b2', a2') = (x, -y) solves a2 b2' - b2 a2' = 1
    b2p, a2p = x, -y
    a2p_min = a2p % a2
    t = (a2p_min - a2p) // a2
    b2p += t * b2
    q = a1 * b2p + a2p_min * b1
    return LensSpace(p, q)


def r_rep_word(mat: SL2Z, r: int) -> np.ndarray:
    """Representation matrix via a word decomposition in the generators.

    The result depends only on mat up to overall sign (the word for -A
    gives the same matrix), and not on the decomposition chosen.
    """
    gen = r_rep_generators(r)
    if mat.c == 0:
        # mat = +-Theta^k with k = a b
        return np.diag(gen.theta_diag ** (mat.a * mat.b))
    entries = cf_expand(mat.a, mat.c, style="euclidean")
    B = b_matrix(entries)
    tail = B.inverse() * mat
    if tail.c != 0:
        raise ArithmeticError(f"decomposition failed for {mat.rows()}")
    k = tail.a * tail.b
    out = np.diag(gen.theta_diag**k)
    for a in entries:
        out = (gen.theta_diag**a)[:, None] * (gen.xi @ out)
    return out
