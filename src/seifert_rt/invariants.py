"""Quantum invariants of Seifert fibered 3-manifolds at level r - 2.

Five independent evaluation routes for the same invariant tau_r, kept
deliberately separate so they cross-check each other:

  tau_generic    surgery-presentation sum over labels, any modular datum
  tau_cs11       fully number-theoretic closed sum (sl2 only): Dedekind
                 sums, exact rational phases, no matrix representation
  tau_compact    Gauss-sum product formula (sl2 only), free of continued
                 fractions, one representation matrix per exceptional pair
  tau_graph_sum  brute-force state sum over the plumbing graph in the
                 mirror datum (orientable base, capped complexity)
  tau_section5   chain decomposition with explicit framing bookkeeping
                 (orientable base)

ROUTES names the five, in this order, each with an adapter that takes
the level r and a loaded datum or None.  generic, graph_sum and section5
read a datum, the built-in sl2 one unless a datum is loaded; cs11 and
compact depend on r alone and refuse a loaded datum.  There is also a
lens space evaluator with two internal routes, Verlinde dimensions, and
conversion between the common output normalizations.

Conventions: tau_r(S^3) = D^{-1}, tau_r(S^1 x S^2) = 1, labels are
0-based array indices with the unit label at 0 (sl2 label j sits at
index j - 1), and t = exp(i pi / 2r).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modular import (
    MissingEpsilon,
    ModularDatum,
    g_matrix,
    mirror_datum,
    r_rep_gauss,
    r_rep_word,
    sl2_datum,
    w_phase,
)
from .seifert import (
    LensSpace,
    SeifertData,
    UnsupportedBase,
    euler_number,
    normalize,
)
from .sl2z import (
    SL2Z,
    ConvergentTable,
    cf_expand,
    convergents,
    dedekind_sum,
    ext_gcd,
    linking_matrix,
    rademacher_phi,
    sigma_closed_form,
    sign,
    signature_exact,
)

class ComplexityCap(RuntimeError):
    """Requested evaluation exceeds the configured complexity caps."""


class UnsupportedDatum(ValueError):
    """The route is a closed form for the built-in sl2 datum only."""


class MissingBetti(ValueError):
    """Target normalization needs the first Betti number."""


@dataclass(frozen=True)
class InvariantResult:
    """One evaluated invariant value with its provenance.

    sigma_used is the integer framing exponent the route consumed (None
    for routes that never form one), cf_style the continued fraction
    style (None for CF-free routes), tolerance_estimate an estimate of
    the numerical error of value.  It is not yet a bound: where tau
    cancels or |tau| is large the error can exceed it (ROADMAP.md,
    item 1).
    """

    value: complex
    r: int
    method: str
    sigma_used: int | None
    cf_style: str | None
    tolerance_estimate: float

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.r < 2:
            raise ValueError(f"need r >= 2, got {self.r}")
        if not self.tolerance_estimate > 0:
            raise ValueError("tolerance_estimate must be positive")


def _tol(r: int, work: int) -> float:
    return 1e-12 * max(1, (r - 1) * (1 + work))


def _drop_trivial(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    # (1, 0) has surgery coefficient 1/0; it is a trivial fiber and drops out
    return tuple((a, b) for a, b in pairs if (a, b) != (1, 0))


def _eps_weight(datum: ModularDatum, genus: int) -> np.ndarray:
    """eps^g on self-dual labels, 0 elsewhere; eps only needed for odd g."""
    nl = datum.n_labels
    dual = np.array(datum.dual)
    selfdual = dual == np.arange(nl)
    out = np.zeros(nl)
    if genus % 2 == 0:
        out[selfdual] = 1.0
        return out
    for i in np.nonzero(selfdual)[0]:
        if datum.eps[i] is None:
            raise MissingEpsilon(f"label {int(i)} has no cross-cap sign")
        out[i] = datum.eps[i]
    return out


def tau_generic(
    datum: ModularDatum, data: SeifertData, cf_style: str = "minus"
) -> InvariantResult:
    """Surgery-presentation evaluation, valid for any modular datum.

    Expands each exceptional pair into a continued fraction chain,
    applies it to the unit label e_0 (O(m n^2) for m digits and n
    labels), multiplies the columns S G^{chain} e_0, and weights labels by
    quantum dimensions, twists of the central framing, and (for a
    non-orientable base) cross-cap signs on self-dual labels.
    """
    pairs = _drop_trivial(data.pairs)
    n = len(pairs)
    g = data.genus
    orientable = data.base == "o"
    e = euler_number(data)
    tables = [convergents(cf_expand(a, b, cf_style)) for a, b in pairs]
    mtot = sum(len(t.entries) for t in tables)
    sigma = sigma_closed_form(data.base, sign(e), tables)
    nl = datum.n_labels
    e0 = np.eye(1, nl, dtype=complex)[0]
    col = np.ones(nl, dtype=complex)
    for t in tables:
        col *= datum.S @ g_matrix(datum, t.entries, e0)
    aeg = 2 * g if orientable else g
    if orientable:
        lab = datum.dims ** (2 - n - aeg)
    else:
        lab = _eps_weight(datum, g) * datum.dims ** (2 - n - aeg)
    if data.normalized:
        col = col * datum.v ** (-data.b)
    val = (
        (datum.delta / datum.D) ** sigma
        * datum.D ** (aeg - 2)
        * np.sum(lab * col)
    )
    r = datum.n_labels + 1
    return InvariantResult(
        complex(val), r, "generic", sigma, cf_style, _tol(r, mtot + n)
    )


def tau_cs11(r: int, data: SeifertData) -> InvariantResult:
    """Closed number-theoretic evaluation, sl2 datum only.

    All phases are exact rational multiples of pi reduced in integer
    arithmetic before exponentiation; the only irrational inputs are the
    sine factors.  No matrices, no continued fractions.  The sum over
    (mu, m) factors into one Gauss sum per fiber, so the work is
    O(r sum 2 alpha_j).
    """
    pairs = data.pairs
    n = len(pairs)
    g = data.genus
    ae = 2 if data.base == "o" else 1
    aeg = ae * g
    e = euler_number(data)
    es = sign(e)
    A = math.prod(alpha for alpha, _ in pairs)
    dsum = Fraction(0)
    for alpha, beta in pairs:
        dsum += dedekind_sum(beta, alpha)

    x = Fraction(3 * (ae - 1) * es) - e - 12 * dsum
    pref = cmath.exp(1j * math.pi * float(x % (4 * r)) / (2 * r))
    pref *= (-1) ** aeg * 1j**n * r ** (aeg / 2 - 1) / 2 ** (n + aeg / 2 - 1)
    pref /= math.sqrt(A)
    pref *= cmath.exp(1j * 3 * math.pi * (1 - ae) * es / 4)

    # W(gamma) = prod_j sum_{mu, m} mu exp(i pi X_j / (r alpha_j)) with
    # X_j = -gamma (2 r m + mu) - 2 r bstar (r m^2 + mu m) = gamma h + q, where
    # h and q are reduced mod 2 r alpha_j in Python ints: gamma h + q < 2 r^2 alpha_j
    gam = np.arange(1, r, dtype=np.int64)
    W = np.ones(r - 1, dtype=complex)
    for alpha, beta in pairs:
        bstar = 0 if alpha == 1 else pow(beta % alpha, -1, alpha)
        mod = 2 * r * alpha
        assert r * mod < 2**63, f"int64 phase overflow at r = {r}, alpha = {alpha}"
        terms = [
            (s, -(2 * r * m + s) % mod, -2 * r * bstar * (r * m * m + s * m) % mod)
            for s in (1, -1)
            for m in range(alpha)
        ]
        mu, h, q = np.array(terms, dtype=np.int64).T
        W *= np.exp(1j * math.pi * ((gam[:, None] * h + q) % mod) / (r * alpha)) @ mu

    sgn_g = np.where((gam * aeg) % 2 == 1, -1.0, 1.0)
    # exp(i pi e gam^2 / 2r) has period 2 den_e in the numerator of e, which
    # is reduced in Python ints: e.numerator gam^2 can pass 2^63 at any r
    den_e = 2 * r * e.denominator
    num_e = [e.numerator * g * g % (2 * den_e) for g in range(1, r)]
    ph_e = np.exp(1j * math.pi * np.array(num_e, dtype=float) / den_e)
    sins = np.sin(np.pi * gam / r) ** (2 - n - aeg)
    Z = np.sum(sgn_g * ph_e * sins * W)
    val = pref * Z
    # error model: the term count prod 2 alpha_j = 2^n A of the unfactored sum
    return InvariantResult(complex(val), r, "cs11", None, None, _tol(r, 2**n * A))


def tau_compact(r: int, data: SeifertData) -> InvariantResult:
    """Gauss-sum product evaluation, sl2 datum only, no continued fractions.

    Each exceptional pair contributes one representation matrix built
    from any integer solution of alpha sigma - beta rho = 1; the result
    does not depend on the solution chosen.  Only its unit-label column
    is summed: O(alpha r) per pair.
    """
    pairs = data.pairs
    n = len(pairs)
    g = data.genus
    ae = 2 if data.base == "o" else 1
    aeg = ae * g
    b = data.b if data.normalized else 0
    e = euler_number(data)
    es = sign(e)
    w = w_phase(r)
    phis = 0
    cols = np.ones(r - 1, dtype=complex)
    for alpha, beta in pairs:
        # the value has period 4 r alpha in beta at fixed sign(e), which is read
        # from the data as given: the centered residue makes it exactly
        # periodic and keeps phis, the exponent of w, small
        beta = (beta + 2 * r * alpha) % (4 * r * alpha) - 2 * r * alpha
        _, xg, yg = ext_gcd(alpha, beta)
        # alpha sig0 - beta rho0 = 1
        sig0, rho0 = xg, -yg
        N = SL2Z(-beta, -sig0, alpha, rho0)
        phis += rademacher_phi(N)
        cols = cols * r_rep_gauss(N, r, (0,))[:, 0]
    j = np.arange(1, r)
    xi1 = np.sqrt(2.0 / r) * np.sin(np.pi * j / r)
    sgn_j = np.where((j * aeg) % 2 == 1, -1.0, 1.0)
    # w has order 8r and exp(i pi b / 2r) period 4r in b: the integer exponents
    # are reduced first, to centered residues so that small ones stay as they are
    tpow = np.exp(1j * math.pi * ((-b % (4 * r) * j * j) % (4 * r)) / (2 * r))
    summand = sgn_j * tpow * cols * xi1 ** (2 - n - aeg)
    pref = (
        (-1) ** aeg
        * w ** ((phis - 3 * (ae - 1) * es + 4 * r) % (8 * r) - 4 * r)
        * cmath.exp(1j * math.pi * ((b + 2 * r) % (4 * r) - 2 * r) / (2 * r))
    )
    val = pref * np.sum(summand)
    return InvariantResult(
        complex(val), r, "compact", None, None, _tol(r, n * r)
    )


def tau_graph_sum(
    datum: ModularDatum,
    data: SeifertData,
    cf_style: str = "minus",
    chain_cap: int = 8,
    r_cap: int = 10,
    max_terms: int = 500_000,
) -> InvariantResult:
    """Brute-force plumbing state sum (orientable base only).

    Normalizes the presentation, negates its plumbing block, and sums the
    mirror datum's graph weights over every label assignment.  Wholly
    independent of the chain algebra in the other routes, and guarded by
    three complexity caps (total chain length, level, term count).
    """
    if data.base != "o":
        raise UnsupportedBase("graph state sum needs an orientable base")
    mm = normalize(data)
    g = mm.genus
    cfs = [cf_expand(a, b, cf_style) for a, b in mm.pairs]
    total_len = sum(len(c) for c in cfs)
    r = datum.n_labels + 1
    if total_len > chain_cap:
        raise ComplexityCap(f"chain length {total_len} exceeds cap {chain_cap}")
    if r > r_cap:
        raise ComplexityCap(f"level r = {r} exceeds cap {r_cap}")
    mtot = 1 + total_len
    nl = datum.n_labels
    if nl**mtot > max_terms:
        raise ComplexityCap(f"{nl}^{mtot} terms exceed cap {max_terms}")

    full = linking_matrix(mm, cfs)
    head = 2 * g
    B = [[-full[head + i][head + j] for j in range(mtot)] for i in range(mtot)]
    sig, nul = signature_exact(B)
    e = euler_number(mm)
    b1 = 2 * g + (1 if e == 0 else 0)
    bexp = b1 - 1 - mtot - nul - sig

    mir = mirror_datum(datum)
    genera = [g] + [0] * (mtot - 1)
    dual = np.array(mir.dual)
    vertex = []
    for p in range(mtot):
        a_p = sum(abs(B[p][q]) for q in range(mtot) if q != p)
        vertex.append(mir.v ** B[p][p] * mir.dims ** (2 - 2 * genera[p] - a_p))
    edges = []
    for p in range(mtot):
        for q in range(p + 1, mtot):
            w0 = B[p][q]
            if w0 == 0:
                continue
            mat = mir.S if w0 > 0 else mir.S[dual, :]
            edges.append((p, q, mat ** abs(w0)))

    count = nl**mtot
    idx = np.unravel_index(np.arange(count), (nl,) * mtot)
    term = np.ones(count, dtype=complex)
    for p in range(mtot):
        term *= vertex[p][idx[p]]
    for p, q, mat in edges:
        term *= mat[idx[p], idx[q]]
    val = mir.delta**sig * datum.D**bexp * np.sum(term)
    return InvariantResult(
        complex(val), r, "graph_sum", sig, cf_style, _tol(r, mtot + count // max(nl, 1))
    )


def tau_section5(
    datum: ModularDatum, data: SeifertData, cf_style: str = "minus"
) -> InvariantResult:
    """Chain-decomposition evaluation with explicit framing bookkeeping
    (orientable base only).

    Normalizes first, treats the central framing as one extra chain
    (-b, 0) when b is nonzero, and tracks the framing exponent through
    per-chain defects (sum of digits - phi)/3 plus a Maslov-type offset.
    """
    if data.base != "o":
        raise UnsupportedBase("chain decomposition needs an orientable base")
    mm = normalize(data)
    g = mm.genus
    b = mm.b
    pairs = mm.pairs
    n = len(pairs)
    e = euler_number(mm)
    es = sign(e)
    sb = sign(b)
    nl = datum.n_labels
    r = nl + 1

    if b == 0 and n == 0:
        val = datum.D ** (2 * g - 2) * np.sum(datum.dims ** (2 - 2 * g))
        return InvariantResult(complex(val), r, "section5", 0, cf_style, _tol(r, 1))

    def defect(table: ConvergentTable) -> int:
        num = sum(table.entries) - rademacher_phi(table.final)
        if num % 3 != 0:
            raise ArithmeticError(
                f"framing defect not divisible by 3 for {table.entries}"
            )
        return num // 3

    tables = [convergents(cf_expand(a, bt, cf_style)) for a, bt in pairs]
    cs = [defect(t) for t in tables]
    # each chain applied to the unit label, its digits scaled by 1/D
    e0 = np.eye(1, nl, dtype=complex)[0]
    cols = [datum.S @ g_matrix(datum, t.entries, e0) for t in tables]
    mtot = sum(len(t.entries) for t in tables)
    if b != 0:
        extra = convergents((-b, 0))
        cs.append(defect(extra))
        cols.append(datum.S @ g_matrix(datum, extra.entries, e0))
        mtot += 2
        n_comp = n + 1
        mu = n - 1 - sb * es
    else:
        n_comp = n
        mu = n - 1
    expo = mu + sum(cs)
    prod = np.ones(nl, dtype=complex)
    for c in cols:
        prod *= c
    val = (
        (datum.delta / datum.D) ** expo
        * datum.D ** (2 * g - 2)
        * np.sum(datum.dims ** (2 - 2 * g - n_comp) * prod)
    )
    return InvariantResult(
        complex(val), r, "section5", expo, cf_style, _tol(r, mtot + n_comp)
    )


def _datum(r: int, datum: ModularDatum | None) -> ModularDatum:
    """The loaded datum, or the built-in sl2 datum at level r."""
    return sl2_datum(r) if datum is None else datum


def _level(name: str, r: int, datum: ModularDatum | None) -> int:
    """r for an sl2 closed form, which depends on the level alone."""
    if datum is not None:
        raise UnsupportedDatum(f"method {name!r} needs the built-in sl2 datum")
    return r


# Each adapter is run(r, datum, data, cf_style), with datum the loaded datum
# or None for the built-in one.  A route refuses what it cannot run by raising
# ComplexityCap, UnsupportedBase or UnsupportedDatum; graph_sum's caps are the
# defaults of tau_graph_sum.  Adapters only: the routes must not share numeric
# code through this table, since their agreement is the cross-check.  The
# order is the output order.
ROUTES: dict[str, Callable[[int, ModularDatum | None, SeifertData, str], InvariantResult]] = {
    "generic": lambda r, dm, data, cf: tau_generic(_datum(r, dm), data, cf),
    "cs11": lambda r, dm, data, cf: tau_cs11(_level("cs11", r, dm), data),
    "compact": lambda r, dm, data, cf: tau_compact(_level("compact", r, dm), data),
    "graph_sum": lambda r, dm, data, cf: tau_graph_sum(_datum(r, dm), data, cf),
    "section5": lambda r, dm, data, cf: tau_section5(_datum(r, dm), data, cf),
}

METHODS = (*ROUTES, "lens_direct")


def tau_lens_routes(
    r: int, lens: LensSpace, cf_style: str = "minus"
) -> tuple[complex, complex, int]:
    """Both lens space routes: (single-matrix value, chain value, sigma).

    Route one feeds the matrix [[q, b], [p, d]] through the Gauss-sum
    representation (word route when p = 0) and multiplies by the
    Rademacher phase.  Route two expands p / -q into a chain with a
    trailing zero and evaluates the framed chain product.  The two must
    agree to numerical precision.
    """
    p, q = lens.p, lens.q
    datum = sl2_datum(r)
    _, xg, yg = ext_gcd(q, p)
    # q d0 - b0 p = 1 with d0 = xg, b0 = -yg
    U = SL2Z(q, -yg, p, xg)
    w = w_phase(r)
    mat = r_rep_word(U, r) if p == 0 else r_rep_gauss(U, r, (0,))
    # w has order 8r
    v1 = w ** ((rademacher_phi(U) + 4 * r) % (8 * r) - 4 * r) * mat[0, 0]

    entries = (0, 0, 0) if q == 0 else cf_expand(p, -q, cf_style) + (0,)
    table = convergents(entries)
    sigma = sum(sign(bm.a * bm.c) for bm in table.matrices[:-1])
    # the chain applied to e_0, each digit scaled by 1/D
    col = g_matrix(datum, entries, np.eye(1, datum.n_labels, dtype=complex)[0])
    v2 = (datum.delta / datum.D) ** sigma * col[0]
    return complex(v1), complex(v2), sigma


def tau_lens(r: int, lens: LensSpace, cf_style: str = "minus") -> InvariantResult:
    """Direct lens space value; both internal routes evaluated and compared."""
    v1, v2, sigma = tau_lens_routes(r, lens, cf_style)
    # written so that a nan fails too
    if not abs(v1 - v2) <= 1e-6:
        raise ArithmeticError(
            f"lens routes disagree for L({lens.p}, {lens.q}) at r = {r}: "
            f"{v1} vs {v2}"
        )
    return InvariantResult(
        v1, r, "lens_direct", sigma, cf_style, _tol(r, abs(lens.p) + abs(lens.q))
    )


def verlinde_dim(
    datum: ModularDatum, genus: int, colors: tuple[int, ...] = ()
) -> float:
    """Dimension of the surface block: D^{2g-2} sum_j dims_j^{2-2g-m} prod S.

    A non-negative integer for any modular datum; returned as the real
    part after checking the imaginary residue is negligible.
    """
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    for c in colors:
        if not 0 <= c < datum.n_labels:
            raise ValueError(f"color {c} out of range")
    vec = datum.dims.astype(complex) ** (2 - 2 * genus - len(colors))
    for c in colors:
        vec = vec * datum.S[c, :]
    val = datum.D ** (2 * genus - 2) * complex(np.sum(vec))
    if abs(val.imag) > 1e-6 * (1 + abs(val)):
        raise ArithmeticError(f"non-real dimension {val}")
    return float(val.real)


NORMALIZATIONS = ("tau", "tau_d", "framed", "lescop")


def convert_normalization(
    result: InvariantResult,
    target: str,
    datum: ModularDatum,
    b1: int | None = None,
) -> complex:
    """Convert a value between the common output normalizations.

    "tau" is the stored convention (tau(S^3) = D^{-1}), "tau_d" rescales
    by D (value 1 on S^3), "framed" multiplies by (delta/D)^{b1} D, and
    "lescop" by D^{b1 + 1}; the last two need the first Betti number.
    """
    if target not in NORMALIZATIONS:
        raise ValueError(f"target must be one of {NORMALIZATIONS}, got {target!r}")
    tau = result.value
    if target == "tau":
        return tau
    if target == "tau_d":
        return datum.D * tau
    if b1 is None:
        raise MissingBetti(f"target {target!r} needs the first Betti number")
    if target == "framed":
        return (datum.delta / datum.D) ** b1 * datum.D * tau
    return datum.D ** (b1 + 1) * tau
