"""Numeric modular category data and its projective SL(2, Z) representation.

A datum packages the S-matrix, twists, quantum dimensions, global
dimension D, duality involution, and optional cross-cap signs of a
modular category with n labels (label 0 is the unit).  The quantum sl2
datum at level r - 2 is built from closed trigonometric formulas, each
argument reduced exactly first, and holds O(r) numbers: its twists,
dimensions and one sine table, from which its real (float64) S is
gathered, in bounded blocks of rows straight into its own buffer, only
when something first reads it.  Any other datum can be loaded from
JSON, with a complex S, kept dense.

The representation carried by S and the twists is evaluated here
entrywise through a finite Gauss sum (defined whenever the lower-left
entry is nonzero).  The test suite holds it against a second, whole-matrix
evaluation as a word in the generator matrices of r_rep_generators, read
off a continued fraction decomposition; the axioms subcommand checks the
datum axioms and the generator relations.  The numeric routes read only
the unit-label column of a representation matrix, so the chain kernel
and the Gauss kernel gauss_factors compute that column alone
(gauss_columns multiplies its factors out).  Both kernels take several
levels at once.  The chain kernel, DatumStack.chain, lays the datums of
the levels end to end and reads its first digit from the unit column
S[:, 0], with no product.  It applies the built-in S at a level past the
crossover DST_LEVEL as a type-I discrete sine transform, one FFT of
length 2 r, and never builds it there; any other real S takes each
later digit as one float product on the real and imaginary parts
together.  g_matrix is that kernel at one level.
gauss_factors chooses once per call between a table of its Gauss sum on
all residues and sums at the points, whichever has fewer entries.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .sl2z import SL2Z, rademacher_phi, sign


@dataclass(frozen=True, eq=False)
class ModularDatum:
    """Numeric modular category data; arrays are read-only.

    S is the unnormalized S-matrix (S[i][0] = dims[i], S/D unitary):
    real (float64) for the built-in sl2 datum, complex for a loaded one.
    v the ribbon twists, delta = sum of v_i^{-1} dims_i^2, dual the
    duality permutation, eps the optional cross-cap signs (None when
    unknown; only ever needed for self-dual labels).

    table and twist_order are no constructor arguments: sl2_datum and
    mirror_datum set them.  table is the built-in sl2 datum's sine table,
    from which its S (given as None) is gathered on the first read and
    kept; twist_order is the order of the twists, 4 r for the built-in
    datum and its mirror.  Both are None on any other datum, so a datum
    made by dataclasses.replace of a built-in one is a plain dense datum.
    """

    n_labels: int
    S: np.ndarray | None
    v: np.ndarray
    dims: np.ndarray
    D: float
    delta: complex
    dual: tuple[int, ...]
    eps: tuple[int | None, ...]
    table: np.ndarray | None = field(default=None, init=False, repr=False)
    twist_order: int | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        n = self.n_labels
        if n < 1:
            raise ValueError("datum needs at least the unit label")
        if self.S is None:
            if self.table is None:
                raise ValueError("S is required: only sl2_datum gathers it on demand")
            # the first read of S now reaches __getattr__
            object.__delattr__(self, "S")
        elif self.S.shape != (n, n):
            raise ValueError(f"S must be {n}x{n}, got {self.S.shape}")
        if self.v.shape != (n,) or self.dims.shape != (n,):
            raise ValueError("v and dims must have one entry per label")
        if len(self.dual) != n or len(self.eps) != n:
            raise ValueError("dual and eps must have one entry per label")
        # integer labels; every label self-dual is the identity, an involution,
        # and any other dual must hold each label once and map each back under
        # a second step
        dual = np.array(self.dual)
        if dual.dtype.kind not in "iu" or (
            self.dual != tuple(range(n))
            and not (
                np.array_equal(np.sort(dual), np.arange(n))
                and np.array_equal(dual[dual], np.arange(n))
            )
        ):
            raise ValueError("dual must be an involutive permutation")
        if self.dual[0] != 0:
            raise ValueError("unit label must be self-dual")
        try:
            signs = set(self.eps) <= {1, -1, None}
        except TypeError:  # an unhashable entry is none of them
            signs = False
        if not signs:
            e = next(e for e in self.eps if e not in (1, -1, None))
            raise ValueError(f"eps entries must be +-1 or None, got {e!r}")
        for arr in (self.__dict__.get("S"), self.v, self.dims):
            if arr is not None:
                arr.setflags(write=False)

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for an attribute the instance lacks: S of a datum
        # built from its table, until its first read
        if name != "S":
            raise AttributeError(name)
        S = _gather_s(self.table)
        object.__setattr__(self, "S", S)
        return S

    def twist(self, a: int) -> np.ndarray:
        """v^a.  With twists of known order o, an exponent |a| >= o is
        taken as its centred residue mod o, in -o/2..o/2 - 1, so a huge a
        loses nothing; a smaller one, and any a when the order is
        unknown, as it is."""
        o = self.twist_order
        return self.v ** (a if not o or abs(a) < o else (a + o // 2) % o - o // 2)


@lru_cache(maxsize=None)
def sl2_datum(r: int) -> ModularDatum:
    """Quantum sl2 datum with labels j = 1..r-1 (array index j - 1).

    S[j][l] = sin(j l pi / r) / sin(pi / r), v_j = exp(i pi (j^2 - 1) / 2r),
    dims_j = sin(j pi / r) / sin(pi / r), D = sqrt(r / 2) / sin(pi / r),
    eps_j = (-1)^(j - 1), every label self-dual.

    Every argument is reduced exactly before sin or exp: the datum keeps one
    real table of sin(pi k / r) / sin(pi / r) over k mod 2 r; dims is that
    table at k = j; v is taken at the exponent (j^2 - 1) mod 4 r, and the
    twists have order 4 r.  So the rounding of an argument stays below
    2 pi eps at every r, where j l pi / r reached r pi.  The datum holds
    O(r) numbers.  S is gathered from the table at k = j l mod 2 r, as
    real float64, only when something first reads datum.S (_gather_s), and
    then kept: 8 (r - 1)^2 bytes.  DatumStack reads no S at a level past
    the crossover (DST_LEVEL), so a chain route never builds it there.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    j = np.arange(1, r)
    s1 = math.sin(math.pi / r)
    table = np.sin(np.pi * np.arange(2 * r) / r) / s1
    v = np.exp(1j * math.pi * ((j * j - 1) % (4 * r)) / (2 * r))
    dims = table[j]
    D = math.sqrt(r / 2) / s1
    delta = complex(np.sum(v.conj() * dims * dims))
    dual = tuple(range(r - 1))
    eps = ((1, -1) * r)[: r - 1]
    table.setflags(write=False)
    # table and twist_order go in before __init__, which does not set them:
    # its S = None check reads the table
    datum = object.__new__(ModularDatum)
    object.__setattr__(datum, "table", table)
    object.__setattr__(datum, "twist_order", 4 * r)
    datum.__init__(r - 1, None, v, dims, D, delta, dual, eps)
    return datum


def _gather_s(table: np.ndarray) -> np.ndarray:
    """S[j][l] = table[j l mod 2 r] of the built-in sl2 datum's sine table,
    read-only float64.  S is allocated first and gathered into in blocks of
    whole rows, at most DATUM_BLOCK entries each (one row when a row is
    longer), so the build holds S and nothing else of its size."""
    r = table.size // 2
    n = r - 1
    # j l < r^2 never wraps int32 while r^2 < 2^31 (r <= 46340), int64 past
    # that; it is reduced mod 2 r in place by a floor division, cheaper than %
    ji = np.arange(1, r, dtype=np.int32 if r * r < 2**31 else np.int64)
    S = np.empty((n, n))
    step = max(1, DATUM_BLOCK // n)
    for i in range(0, n, step):
        jl = np.multiply.outer(ji[i : i + step], ji)
        jl -= jl // (2 * r) * (2 * r)
        # every index is in range, so clip changes none; unlike the default
        # raise mode it writes into out without a buffered copy
        np.take(table, jl, out=S[i : i + step], mode="clip")
    S.setflags(write=False)
    return S


def mirror_datum(datum: ModularDatum) -> ModularDatum:
    """Datum of the mirror category: inverse twists, of the same order, and
    dual-permuted S rows, kept dense."""
    dual = np.array(datum.dual)
    S = np.array(datum.S[dual, :])
    v = 1.0 / datum.v
    delta = complex(np.sum(datum.v * datum.dims * datum.dims))
    mirror = ModularDatum(
        datum.n_labels, S, np.array(v), np.array(datum.dims), datum.D, delta, datum.dual, datum.eps
    )
    object.__setattr__(mirror, "twist_order", datum.twist_order)
    return mirror


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


# a complex vector viewed as this dtype is its (n x 2) float view, real and
# imaginary parts side by side; one view, cheaper than view(float).reshape(-1, 2)
FLOAT_PAIR = np.dtype((np.float64, 2))


@dataclass(frozen=True, eq=False)
class DatumStack:
    """The datums of several levels laid end to end: each per-label vector
    is one flat array, level i on its entries slices[i].

    v holds the twists, dims the quantum dimensions, D each entry's global
    dimension and unit the unit-label columns S[:, 0], kept complex like
    v; the built-in datum's unit column is its dims, the same bits, so no
    S is read for it.  So a chain's twists and weights take one numpy op
    for every level; only S times a vector runs per level, on that level's
    own slice, and each level is summed on its own slice, so every entry
    equals its single-level value bit for bit.  real_s says whether every
    level's S is real, as the built-in sl2 datum's is; a loaded datum's S
    is complex.  dst marks the levels whose S is applied as a sine
    transform (_dst_level), and wrap is the smallest |a| whose twist
    power some level reduces: the smallest twist order, inf when no level
    knows its order.
    """

    datums: tuple[ModularDatum, ...]
    slices: tuple[slice, ...]
    v: np.ndarray
    dims: np.ndarray
    D: np.ndarray
    unit: np.ndarray
    real_s: bool
    dst: tuple[bool, ...]
    wrap: float

    @classmethod
    def of(cls, datums: Sequence[ModularDatum]) -> DatumStack:
        sizes = [d.n_labels for d in datums]
        starts = itertools.accumulate(sizes, initial=0)
        builtin = [d.table is not None for d in datums]
        return cls(
            tuple(datums),
            tuple(itertools.starmap(slice, itertools.pairwise(starts))),
            np.concatenate([d.v for d in datums]),
            np.concatenate([d.dims for d in datums]),
            np.repeat([d.D for d in datums], sizes),
            np.concatenate(
                [d.dims if b else d.S[:, 0] for d, b in zip(datums, builtin)], dtype=complex
            ),
            all(b or d.S.dtype == np.float64 for d, b in zip(datums, builtin)),
            tuple(map(_dst_level, datums)),
            min((d.twist_order for d in datums if d.twist_order), default=math.inf),
        )

    def apply_s(self, x: np.ndarray) -> np.ndarray:
        """S x for a complex vector x, with each level's S on its own slice.

        A level marked in dst takes the sine transform (_dst_s), which reads
        no S.  A real S multiplies the real and imaginary parts together:
        one float (n x 2) product on the float views of x and of the result,
        taken once per call.  A complex S takes the complex product.
        """
        y = np.empty_like(x)
        xs, ys = x, y
        if self.real_s:
            xs, ys = x.view(FLOAT_PAIR), y.view(FLOAT_PAIR)
        for d, s, dst in zip(self.datums, self.slices, self.dst):
            if dst:
                _dst_s(x[s], y[s])
            else:
                np.dot(d.S, xs[s], out=ys[s])
        return y

    def twist(self, a: int) -> np.ndarray:
        """v^a at every level, each level's ModularDatum.twist.  Below
        wrap no level reduces a, and one power serves every level."""
        if abs(a) < self.wrap:
            return self.v**a
        return np.concatenate([d.twist(a) for d in self.datums])

    def chain(self, entries: Sequence[int]) -> np.ndarray:
        """T^{a_n} (S/D) ... T^{a_1} (S/D) e_0 at every level, for digits
        (a_1, ..., a_n): e_0 when there are none.

        S e_0 is S[:, 0] exactly, so the first digit reads the unit column
        and each later one applies S once per level (apply_s), O(n^2) dense
        or O(n log n) as a sine transform.
        """
        if not entries:
            G = np.zeros(self.v.size, dtype=complex)
            G[[s.start for s in self.slices]] = 1
            return G
        G = self.twist(entries[0]) / self.D * self.unit
        for a in entries[1:]:
            G = self.twist(a) / self.D * self.apply_s(G)
        return G

    def sums(self, x: np.ndarray) -> list:
        """The sum of each level's slice of x."""
        return [x[s].sum() for s in self.slices]


def _dst_level(datum: ModularDatum) -> bool:
    """Whether DatumStack applies datum's S as a sine transform: the
    built-in datum at every level from DST_LEVEL on."""
    return datum.table is not None and datum.n_labels + 1 >= DST_LEVEL


def _dst_s(x: np.ndarray, out: np.ndarray) -> None:
    """S x of the built-in sl2 datum at level r = x.size + 1 into out, as a
    type-I discrete sine transform: sum_l x_l sin(pi j l / r) is i/2 times
    entry j of the FFT of (0, x, 0, -x reversed), of length 2 r.  np.fft is
    reached here, at the first call, not at import."""
    r = x.size + 1
    y = np.zeros(2 * r, dtype=complex)
    y[1:r] = x
    np.negative(x[::-1], out=y[r + 1 :])
    np.multiply(np.fft.fft(y)[1:r], 0.5j / math.sin(math.pi / r), out=out)


def g_matrix(datum: ModularDatum, entries: Sequence[int]) -> np.ndarray:
    """T^{a_n} (S/D) ... T^{a_1} (S/D) e_0 for digits (a_1, ..., a_n).

    T = diag(v) and e_0 is the unit label: the unit-label column of the
    chain, DatumStack.chain at the one level.  S/D is unitary, so the
    scale stays put however long the chain; 1/D rides on the twists
    instead of rebuilding S/D.
    """
    return DatumStack.of((datum,)).chain(entries)


def w_phase(r: int) -> complex:
    """Unit w = exp(i pi / 4) exp(-i pi / 2r); w^{-3} = delta / D for sl2."""
    return cmath.exp(1j * math.pi * (r - 2) / (4 * r))


# phases per block of a Gauss sum in gauss_columns, and points per chunk of
# compact's level sweep: bounds their memory whatever |c| and however many levels
GAUSS_BLOCK = 2**14
# entries per block of whole rows that sl2_datum gathers into S and
# r_rep_generators into xi: no temporary of the matrix's size at any r
DATUM_BLOCK = 2**14
# the crossover of DatumStack.apply_s (_dst_level).  Per apply to one complex
# vector the dense real product takes 6, 25 and 109 us at r = 176, 400 and
# 600, and the first read of S builds it once: 81, 387 and 997 us.  The sine
# transform takes 12, 14 and 17 us at r = 176, 288 and 400.  Counting one
# build per 16 applies, it is the cheaper from r = 176 at levels with small
# prime factors; where np.fft falls back to Bluestein's algorithm, at a
# level with a large prime factor, it costs up to 2.2 times the dense time
# below r = 550 (r = 227: 38 against 9 us plus the build).  No benchmark
# workload has such a level, so one rule serves every level; the sine
# transform also keeps the 8 (r - 1)^2 bytes of S out of the level cache
# (1 BLAS thread, 2-core x86 VM, numpy 2.4)
DST_LEVEL = 176


@dataclass(frozen=True, eq=False)
class RRep:
    """Generator images of the level r - 2 representation."""

    xi: np.ndarray
    theta_diag: np.ndarray


@lru_cache(maxsize=None)
def r_rep_generators(r: int) -> RRep:
    """Xi_{jl} = sqrt(2/r) sin(j l pi / r); Theta_jj = e^{-i pi/4} e^{i pi j^2/2r}.

    Each argument is reduced exactly first, as in sl2_datum: Xi is read from
    one complex table of sqrt(2/r) sin(pi k / r) over k mod 2 r, at
    k = j l mod 2 r, gathered into xi in blocks of whole rows of at most
    DATUM_BLOCK entries; the exponential is taken at j^2 mod 4 r.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    n = r - 1
    j = np.arange(1, r)
    table = np.sqrt(2.0 / r) * np.sin(np.pi * np.arange(2 * r) / r).astype(complex)
    xi = np.empty((n, n), dtype=complex)
    step = max(1, DATUM_BLOCK // n)
    for i in range(0, n, step):
        np.take(table, np.multiply.outer(j[i : i + step], j) % (2 * r), out=xi[i : i + step])
    theta = np.exp(-1j * math.pi / 4) * np.exp(1j * math.pi * ((j * j) % (4 * r)) / (2 * r))
    xi.setflags(write=False)
    theta.setflags(write=False)
    return RRep(xi, theta)


def r_rep_gauss(mat: SL2Z, r: int) -> np.ndarray:
    """Unit-label column of the representation matrix through a finite
    Gauss sum: gauss_columns at the one level r, its r - 1 entries.

    Needs c != 0 (raises ValueError otherwise).  Identical for mat and
    -mat.  OverflowError when (4 r |c|)^2 passes 2^63.
    """
    return gauss_columns(mat, (r,))


def gauss_modulus(r: int, c: int) -> int:
    """4 r |c|, the modulus of the Gauss-sum phases at level r.

    Every int64 intermediate of gauss_factors stays below its square:
    OverflowError when that passes 2^63, which happens from some level on.
    """
    mod = 4 * r * abs(c)
    if mod * mod >= 2**63:
        raise OverflowError(f"int64 Gauss phase overflow at r = {r}, c = {c}")
    return mod


# the largest modulus whose square stays below 2^63
INT64_ROOT = math.isqrt(2**63 - 1)


def gauss_limit(c: int) -> int:
    """The highest level whose Gauss phases fit int64: gauss_modulus(r, c)
    raises at every r past it and at no r up to it."""
    return INT64_ROOT // (4 * abs(c))


def gauss_columns(mat: SL2Z, levels: Sequence[int]) -> np.ndarray:
    """Unit-label columns of the Gauss-sum representation of mat at
    ascending levels.

    For each level r in turn, the r - 1 entries of the unit-label column
    (label k = 1) at that level, all concatenated: the product of the
    factors of gauss_factors, the kernel of r_rep_gauss (one level).
    """
    phase, factor, pref = gauss_factors(mat, levels)
    if len(levels) > 1:
        pref = np.repeat(pref, [r - 1 for r in levels])
    return pref * np.exp(1j * math.pi * phase) * factor


def gauss_factors(mat: SL2Z, levels: Sequence[int]) -> tuple:
    """The unit-label columns of gauss_columns, factored so that a caller
    can add the phases of several matrices before one exponential.

    Entry j at level r sums, over the 2 |c| shifts g = j + 2 r n mu,
    mu exp(i pi (a g^2 - 2 mu g + d) / 2rc).  With g split out, the n sum
    is the Gauss sum H(u) = sum_n exp(2 pi i (u n + a r n^2) / c) at
    u = a mu j - 1 mod |c|.  Both signs mu share a j^2, so each level is
    one row of r - 1 points, entry j being
    pref exp(i pi q / 2rc) (H(a j - 1) - L H(-a j - 1)) with the exact
    residue q = (a j^2 - 2 j + d) mod 4 r |c|, L = exp(2 i pi j / rc) and
    pref = i sign(c) exp(-i pi phi / 4) / sqrt(2 r |c|), one value per
    level.  Returns (q / 2rc, the linear factor, pref), the first two with
    one entry per point of all levels laid end to end, pref a Python
    scalar at one level and an array over the levels otherwise.

    H depends on r through a r mod |c| alone.  The call chooses once for
    all its L levels and the P = 2 sum (r - 1) points of H: when |c| L < P,
    H is tabulated on all |c| residues at every level and read at the
    points, else it is summed at the points; either way in blocks of at
    most GAUSS_BLOCK phases (one n when there are more entries), so work
    is O(P + |c| min(|c| L, P)) per call and memory bounded by the points
    asked for and the block.  At one level that is a table when
    |c| < 2 (r - 1).  Phases are exact residues mod 4 r |c| (mod |c| in H),
    each product reduced in turn, so every int64 intermediate stays below
    (4 r |c|)^2: OverflowError from the first level past gauss_limit, as
    gauss_modulus raises it.  Needs c != 0 (raises ValueError otherwise).
    """
    c = mat.c
    if c == 0:
        raise ValueError(f"{mat.rows()} is upper triangular; use r_rep_word")
    if list(levels) != sorted(levels):
        raise ValueError(f"levels must ascend, got {tuple(levels)}")
    if not levels:
        return np.empty(0), np.empty(0, dtype=complex), np.empty(0)
    if levels[0] < 2:
        raise ValueError(f"need r >= 2, got {levels[0]}")
    limit = gauss_limit(c)
    if levels[-1] > limit:
        gauss_modulus(levels[bisect.bisect_right(levels, limit)], c)
    cc = abs(c)
    ac = mat.a % cc
    # exp(-i pi phi / 4) has period 8 in phi; the centered residue keeps small phi
    phi = (rademacher_phi(mat) + 4) % 8 - 4
    rot = 1j * sign(c) * cmath.exp(-1j * math.pi * phi / 4)
    # per level: the modulus M = 4 r |c|, a and d mod M, r c, a r mod |c| for H
    # and pref; Python scalars at one level, else read at each point's row
    if len(levels) == 1:
        (r,) = levels
        j, row = np.arange(1, r), 0
        M, rc = 4 * r * cc, r * c
        A, D = mat.a % M, mat.d % M
        q = np.array([ac * r % cc])
        pref = rot / math.sqrt(2 * r * cc)
    else:
        rs = np.array(levels)
        size = rs - 1
        row = np.repeat(np.arange(len(levels)), size)
        j = np.arange(1, size.sum() + 1) - (np.cumsum(size) - size)[row]
        rr = rs[row]
        M, rc = 4 * cc * rr, c * rr
        # a and d reduced mod each level's modulus as Python ints: the
        # residues fit int64 whatever the size of a and d
        ad = np.array([[mat.a], [mat.d]], dtype=object) % (4 * cc * rs)
        A, D = ad.astype(np.int64)[:, row]
        q = ac * rs % cc
        pref = rot / np.sqrt(2 * cc * rs)
    # (a j - 2) j + d, each product reduced: below M (r + 1) <= M^2
    phase = ((A * j % M - 2) * j + D) % M / (2 * rc)
    lin = np.exp(1j * (2 * math.pi * j / rc))
    # H at u = mu a j - 1 mod |c|, mu = 1 in row 0 and -1 in row 1, each in
    # -|c|..|c| - 1 (an index that wraps once), with q the level of each point:
    # tabulated on all |c| residues at every level when that takes fewer
    # entries than the points, else summed at the points
    t = ac * j % cc
    u = np.array((t, -t)) - 1
    if cc * len(levels) < u.size:
        h = _gauss_h(np.arange(cc), q[:, None], c)[row, u]
    else:
        h = _gauss_h(u, q[row], c)
    return phase, h[0] - lin * h[1], pref


def _gauss_h(u: np.ndarray, q: np.ndarray, c: int) -> np.ndarray:
    """H(u; q) = sum_{0 <= n < |c|} exp(2 pi i (u n + q n^2) / c) at each
    entry of u and q broadcast together, summed over n in blocks of at
    most GAUSS_BLOCK phases (one n when there are more entries)."""
    cc = abs(c)
    size = np.broadcast(u, q).size
    step = max(1, GAUSS_BLOCK // size)
    # each phase is a residue mod |c|: with no more residues than entries,
    # exp is taken once per residue and looked up
    roots = np.exp(2j * math.pi / c * np.arange(cc)) if cc <= size else None
    out = 0
    for n0 in range(0, cc, step):
        n = np.arange(n0, min(n0 + step, cc))
        # u n + q n^2 = (u + q n) n, below 2 |c|^2 in size before the last reduction
        qn = np.multiply.outer(q, n) % cc
        ph = (u[..., None] + qn) * n % cc
        terms = np.exp(2j * math.pi / c * ph) if roots is None else roots[ph]
        out = out + terms.sum(axis=-1)
    return out


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
