"""Numeric modular category data and its projective SL(2, Z) representation.

A datum packages the S-matrix, twists, quantum dimensions, global
dimension D, duality involution, and optional cross-cap signs of a
modular category with n labels (label 0 is the unit).  The quantum sl2
datum at level r - 2 is built from closed trigonometric formulas; any
other datum can be loaded from JSON.

The representation carried by S and the twists is evaluated two
independent ways: as a word in the generator matrices read off a
continued fraction decomposition, and entrywise through a finite Gauss
sum (defined whenever the lower-left entry is nonzero).  Both ways must
agree, which the test suite and the axioms subcommand check.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .sl2z import SL2Z, b_matrix, cf_expand, rademacher_phi, sign


class InvalidLevel(ValueError):
    """sl2 datum needs r >= 2."""


class DiagonalCase(ValueError):
    """Gauss-sum entries need a nonzero lower-left entry; use the word route."""


class MissingEpsilon(ValueError):
    """A cross-cap sign is required but not present in the datum."""


@dataclass(frozen=True, eq=False)
class ModularDatum:
    """Numeric modular category data; arrays are read-only.

    S is the unnormalized S-matrix (S[i][0] = dims[i], S/D unitary),
    v the ribbon twists, delta = sum of v_i^{-1} dims_i^2, dual the
    duality permutation, eps the optional cross-cap signs (None when
    unknown; only ever needed for self-dual labels).
    """

    n_labels: int
    S: np.ndarray
    v: np.ndarray
    dims: np.ndarray
    D: float
    delta: complex
    dual: tuple[int, ...]
    eps: tuple[int | None, ...]

    def __post_init__(self) -> None:
        n = self.n_labels
        if n < 1:
            raise ValueError("datum needs at least the unit label")
        if self.S.shape != (n, n):
            raise ValueError(f"S must be {n}x{n}, got {self.S.shape}")
        if self.v.shape != (n,) or self.dims.shape != (n,):
            raise ValueError("v and dims must have one entry per label")
        if len(self.dual) != n or len(self.eps) != n:
            raise ValueError("dual and eps must have one entry per label")
        if sorted(self.dual) != list(range(n)) or any(
            self.dual[self.dual[i]] != i for i in range(n)
        ):
            raise ValueError("dual must be an involutive permutation")
        if self.dual[0] != 0:
            raise ValueError("unit label must be self-dual")
        for e in self.eps:
            if e not in (1, -1, None):
                raise ValueError(f"eps entries must be +-1 or None, got {e!r}")
        for arr in (self.S, self.v, self.dims):
            arr.setflags(write=False)


@lru_cache(maxsize=None)
def sl2_datum(r: int) -> ModularDatum:
    """Quantum sl2 datum with labels j = 1..r-1 (array index j - 1).

    S[j][l] = sin(j l pi / r) / sin(pi / r), v_j = exp(i pi (j^2 - 1) / 2r),
    dims_j = sin(j pi / r) / sin(pi / r), D = sqrt(r / 2) / sin(pi / r),
    eps_j = (-1)^(j - 1), every label self-dual.
    """
    if r < 2:
        raise InvalidLevel(f"need r >= 2, got {r}")
    j = np.arange(1, r)
    s1 = math.sin(math.pi / r)
    S = (np.sin(np.pi * np.outer(j, j) / r) / s1).astype(complex)
    v = np.exp(1j * math.pi * (j * j - 1) / (2 * r))
    dims = np.sin(np.pi * j / r) / s1
    D = math.sqrt(r / 2) / s1
    delta = complex(np.sum(v.conj() * dims * dims))
    dual = tuple(range(r - 1))
    eps = tuple(1 if (jj - 1) % 2 == 0 else -1 for jj in range(1, r))
    return ModularDatum(r - 1, S, v, dims, D, delta, dual, eps)


def mirror_datum(datum: ModularDatum) -> ModularDatum:
    """Datum of the mirror category: inverse twists, dual-permuted S rows."""
    dual = np.array(datum.dual)
    S = np.array(datum.S[dual, :])
    v = 1.0 / datum.v
    delta = complex(np.sum(datum.v * datum.dims * datum.dims))
    return ModularDatum(
        datum.n_labels,
        S,
        np.array(v),
        np.array(datum.dims),
        datum.D,
        delta,
        datum.dual,
        datum.eps,
    )


def check_axioms(datum: ModularDatum) -> dict[str, float]:
    """Max absolute residual per axiom; all should be near zero.

    Keys: s_symmetric, s_dual, s_squared, unit_dims, twist_dual,
    delta_definition, delta_product, s_unitarity.
    """
    S = datum.S
    n = datum.n_labels
    dual = np.array(datum.dual)
    J = np.zeros((n, n))
    J[np.arange(n), dual] = 1.0
    delta_bar = np.sum(datum.v * datum.dims * datum.dims)
    out = {
        "s_symmetric": float(np.max(np.abs(S - S.T))),
        "s_dual": float(np.max(np.abs(S - S[np.ix_(dual, dual)]))),
        "s_squared": float(np.max(np.abs(S @ S - datum.D**2 * J))),
        "unit_dims": float(
            max(np.max(np.abs(S[:, 0] - datum.dims)), abs(datum.dims[0] - 1.0))
        ),
        "twist_dual": float(np.max(np.abs(datum.v[dual] - datum.v))),
        "delta_definition": float(
            abs(np.sum(datum.v.conj() * datum.dims**2) - datum.delta)
        ),
        "delta_product": float(abs(datum.delta * delta_bar - datum.D**2)),
        "s_unitarity": float(
            np.max(np.abs((S / datum.D) @ (S.conj().T / datum.D) - np.eye(n)))
        ),
    }
    return out


def g_matrix(
    datum: ModularDatum, entries: Sequence[int], start: np.ndarray | None = None
) -> np.ndarray:
    """T^{a_n} (S/D) ... T^{a_1} (S/D) start for digits (a_1, ..., a_n).

    T = diag(v) and start is a vector or a matrix, the identity by
    default.  Each digit costs one product with S: O(n^2) on a vector,
    O(n^3) on a matrix.  S/D is unitary, so the scale stays put however
    long the chain; 1/D rides on the twists instead of rebuilding S/D.
    """
    G = np.eye(datum.n_labels, dtype=complex) if start is None else start
    for a in entries:
        # scale the rows of S @ G; the transposes let G be a vector
        G = (datum.v**a / datum.D * (datum.S @ G).T).T
    return G


def w_phase(r: int) -> complex:
    """Unit w = exp(i pi / 4) exp(-i pi / 2r); w^{-3} = delta / D for sl2."""
    return cmath.exp(1j * math.pi * (r - 2) / (4 * r))


@dataclass(frozen=True, eq=False)
class RRep:
    """Generator images of the level r - 2 representation."""

    r: int
    xi: np.ndarray
    theta_diag: np.ndarray


@lru_cache(maxsize=None)
def r_rep_generators(r: int) -> RRep:
    """Xi_{jl} = sqrt(2/r) sin(j l pi / r); Theta_jj = e^{-i pi/4} e^{i pi j^2/2r}."""
    if r < 2:
        raise InvalidLevel(f"need r >= 2, got {r}")
    j = np.arange(1, r)
    xi = np.sqrt(2.0 / r) * np.sin(np.pi * np.outer(j, j) / r).astype(complex)
    theta = np.exp(-1j * math.pi / 4) * np.exp(1j * math.pi * j * j / (2 * r))
    xi.setflags(write=False)
    theta.setflags(write=False)
    return RRep(r, xi, theta)


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


def r_rep_gauss(
    mat: SL2Z, r: int, columns: Sequence[int] | None = None
) -> np.ndarray:
    """Representation matrix entrywise through a finite Gauss sum.

    Only the given columns (0-based, all by default) are summed, as an
    (r - 1) x len(columns) array: O(|c| r) work per column.  Needs
    c != 0 (raises DiagonalCase otherwise).  Identical for mat and
    -mat.  Phases are reduced exactly mod 4 r |c| in integer arithmetic
    before any floating point: a and d first, then each product in turn,
    so every int64 intermediate stays below mod^2, asserted < 2^63.
    """
    c = mat.c
    if c == 0:
        raise DiagonalCase(f"{mat.rows()} is upper triangular; use r_rep_word")
    if r < 2:
        raise InvalidLevel(f"need r >= 2, got {r}")
    # exp(-i pi phi / 4) has period 8 in phi; the centered residue keeps small phi
    phi = (rademacher_phi(mat) + 4) % 8 - 4
    jj = np.arange(1, r, dtype=np.int64)
    kk = jj if columns is None else jj[list(columns)]
    mod = 4 * r * abs(c)
    assert mod * mod < 2**63, f"int64 Gauss phase overflow at r = {r}, c = {c}"
    a, d = mat.a % mod, mat.d % mod
    dkk = d * kk % mod * kk % mod
    total = np.zeros((r - 1, len(kk)), dtype=complex)
    for mu in (1, -1):
        for n in range(abs(c)):
            # |g| < mod / 2
            g = jj + 2 * r * n * mu
            num = (a * g % mod * g % mod)[:, None] - 2 * mu * np.outer(g, kk) + dkk[None, :]
            total += mu * np.exp((1j * math.pi / (2 * r * c)) * (num % mod))
    pref = (
        1j
        * sign(c)
        / math.sqrt(2 * r * abs(c))
        * cmath.exp(-1j * math.pi * phi / 4)
    )
    return pref * total


def datum_to_dict(datum: ModularDatum) -> dict:
    def c_pairs(arr: np.ndarray) -> list[list[float]]:
        return [[float(z.real), float(z.imag)] for z in arr.ravel()]

    return {
        "n_labels": datum.n_labels,
        "S": c_pairs(datum.S),
        "v": c_pairs(datum.v),
        "dims": [float(x) for x in datum.dims],
        "D": float(datum.D),
        "dual": list(datum.dual),
        "eps": list(datum.eps),
    }


def datum_from_dict(obj: dict) -> ModularDatum:
    try:
        n = int(obj["n_labels"])
        S = np.array(
            [complex(re, im) for re, im in obj["S"]], dtype=complex
        ).reshape(n, n)
        v = np.array([complex(re, im) for re, im in obj["v"]], dtype=complex)
        dims = np.array([float(x) for x in obj["dims"]], dtype=float)
        D = float(obj["D"])
        dual = tuple(int(x) for x in obj["dual"])
        eps_raw = obj.get("eps", [None] * n)
        eps = tuple(None if e is None else int(e) for e in eps_raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed datum record: {exc}") from None
    delta = complex(np.sum(v.conj() * dims * dims))
    return ModularDatum(n, S, v, dims, D, delta, dual, eps)


def save_datum(datum: ModularDatum, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(datum_to_dict(datum), fh, indent=1)
        fh.write("\n")


def load_datum(path: str) -> ModularDatum:
    with open(path, encoding="utf-8") as fh:
        return datum_from_dict(json.load(fh))
