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

Each route runs in two stages.  Its exact stage, a private _<route>_exact
function of the presentation alone (plus cf_style where the route reads
it), does the exact number theory: chain digits, the Euler number,
Dedekind sums, Rademacher phi, signatures.  It runs once per
presentation: functools.lru_cache(maxsize=1) keeps the last result,
which holds only what the numeric stage reads.  The numeric stage reads
that result.  generic, graph_sum and section5 read one datum per level
and raise the refusals that read no datum before any datum is built.
graph_sum runs level by level.  generic and section5 run once per
request, every level's labels laid end to end as one DatumStack: each
digit's twist power and each weighting is one numpy op for all levels,
and only the product with S runs per level, on that level's slice
(tau_generic_sweep, tau_section5_sweep).  cs11 and compact depend on the
level alone and run once per request, over all the requested levels as
one array of (level, point) entries, in chunks of at most CS11_BLOCK
points and table entries per fiber or GAUSS_BLOCK points
(tau_cs11_sweep, tau_compact_sweep).  Every sweep sums each level on its
own slice, and tau_generic, tau_section5, tau_cs11 and tau_compact are
the sweeps at one level.  compact keys its exact stage on the pairs
centered mod 4 r alpha, since that reduction depends on r, and groups its
levels by them.  It takes each fiber's column from gauss_factors as one
row of r - 1 points per level, factored into an exact phase, a linear
factor and a constant of the level: the phases of all fibers, its framing
twist and its sign add up to one exponential per point, and each level's
constants multiply that level's sum.  graph_sum splits its exact stage
in two, its chains (with its chain cap) and then, once its level and
term caps pass, the plumbing block.  No exact stage is shared between
routes; generic, section5 and graph_sum take their chain digits through
one capped expansion, _capped_chains, each with its own cap.  cs11 and
compact read no digits.

ROUTES names the five, in this order, each with an adapter
run(levels, datum, data) that takes the ascending tuple of levels, a
loaded datum or None, and the presentation, and returns one entry per
level: the InvariantResult, or the ComplexityCap, Unsupported or
OverflowError that the route raised at that level.  A route stops at its
first refusal, which stands for every higher level: each refusal either
ignores the level or grows with r.  generic, graph_sum and section5 read
a datum, the built-in sl2 one unless a datum is loaded, and expand
slopes in the default minus style; cs11 and compact depend on r alone
and refuse a loaded datum.  InvariantResult accepts these names only.
tau_lens_routes evaluates a lens space along two internal routes; there
are also Verlinde dimensions.

Conventions: tau_r(S^3) = D^{-1}, tau_r(S^1 x S^2) = 1, labels are
0-based array indices with the unit label at 0 (sl2 label j sits at
index j - 1), and t = exp(i pi / 2r).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .modular import (
    GAUSS_BLOCK,
    DatumStack,
    ModularDatum,
    g_matrix,
    gauss_factors,
    gauss_limit,
    gauss_modulus,
    mirror_datum,
    r_rep_gauss,
    sl2_datum,
    w_phase,
)
from .seifert import (
    LensSpace,
    SeifertData,
    first_betti,
    normalize,
)
from .sl2z import (
    SL2Z,
    _dedekind_12q,
    cf_digits,
    cf_expand,
    convergents,
    ext_gcd,
    linking_matrix,
    rademacher_phi,
    sigma_closed_form,
    sign,
    signature_exact,
)

# cs11's switch and bound: a fiber of order up to CS11_BLOCK has its Gauss sums
# tabulated by one FFT per level, a larger one summed at the points in blocks
# of at most CS11_BLOCK phases, and a chunk of levels holds at most CS11_BLOCK
# points and table entries per fiber, whatever alpha and however many levels
CS11_BLOCK = 2**14
# digits of all of a chain route's chains together (generic, section5): each
# costs a convergent matrix once and a product with S per level.  At the cap
# that is about 0.14 s and 3 MB once, then 0.1-0.2 s per level up to r = 200 on
# a 2-core x86 VM; 2/2000001 alone has 1000001 digits
CHAIN_CAP = 10_000


class ComplexityCap(RuntimeError):
    """Requested evaluation exceeds the configured complexity caps."""


class Unsupported(ValueError):
    """A route refuses a presentation or datum outside its scope."""


@dataclass(frozen=True)
class InvariantResult:
    """One evaluated invariant value with its provenance.

    sigma_used is the integer framing exponent the route consumed (None
    for routes that never form one), tolerance_estimate an estimate of
    the numerical error of value.  It is not yet a bound: where tau
    cancels or |tau| is large the error can exceed it (ROADMAP.md,
    item 1).
    """

    value: complex
    r: int
    method: str
    sigma_used: int | None
    tolerance_estimate: float

    def __post_init__(self) -> None:
        if self.method not in ROUTES:
            raise ValueError(f"method must be one of {tuple(ROUTES)}, got {self.method!r}")
        if self.r < 2:
            raise ValueError(f"need r >= 2, got {self.r}")
        if not self.tolerance_estimate > 0:
            raise ValueError("tolerance_estimate must be positive")


# one level's entry of a route's sweep: its result, or what it raised there
Entry = InvariantResult | ComplexityCap | Unsupported | OverflowError


def _single(entries: list[Entry]) -> InvariantResult:
    """The result of a sweep at one level, or its refusal raised."""
    (entry,) = entries
    if isinstance(entry, Exception):
        raise entry
    return entry


def _tol(r: int, work: int) -> float:
    return 1e-12 * max(1, (r - 1) * (1 + work))


def _drop_trivial(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    # (1, 0) has surgery coefficient 1/0; it is a trivial fiber and drops out
    return tuple((a, b) for a, b in pairs if (a, b) != (1, 0))


def _capped_chains(
    route: str, pairs: tuple[tuple[int, int], ...], cf_style: str, cap: int
) -> list[tuple[int, ...]]:
    """The chain digits of each pair, taken one at a time: ComplexityCap as
    soon as all chains together pass cap digits.  The one digit expansion
    of generic, section5 and graph_sum, each with its own cap."""
    chains = []
    room = cap
    for a, b in pairs:
        # cf_digits gives the digits last first; one past the room passes the cap
        digits = tuple(itertools.islice(cf_digits(a, b, cf_style), room + 1))
        room -= len(digits)
        if room < 0:
            raise ComplexityCap(f"{route} chain length exceeds cap {cap}")
        chains.append(digits[::-1])
    return chains


def _eps_weight(datum: ModularDatum, genus: int) -> np.ndarray:
    """eps^g on self-dual labels, 0 elsewhere; eps only needed for odd g."""
    nl = datum.n_labels
    selfdual = np.fromiter(datum.dual, np.intp, nl) == np.arange(nl)
    if genus % 2 == 0:
        return selfdual.astype(float)
    # a missing sign reads as nan, and only a self-dual one is used
    eps = np.array(datum.eps, dtype=float)
    if None in datum.eps:
        missing = np.flatnonzero(selfdual & np.isnan(eps))
        if missing.size:
            raise ValueError(f"label {int(missing[0])} has no cross-cap sign")
    return np.where(selfdual, eps, 0.0)


@functools.lru_cache(maxsize=1)
def _generic_exact(
    data: SeifertData, cf_style: str
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Exact stage of tau_generic: the chain digits of each non-trivial
    pair and the framing exponent sigma.

    At most CHAIN_CAP digits in all (ComplexityCap beyond).
    """
    chains = _capped_chains("generic", _drop_trivial(data.pairs), cf_style, CHAIN_CAP)
    tables = [convergents(c) for c in chains]
    # sign(e) of e = -(b + sum beta / alpha), over the common denominator prod alpha > 0
    A = math.prod(alpha for alpha, _ in data.pairs)
    es = -sign((data.b or 0) * A + sum(beta * (A // alpha) for alpha, beta in data.pairs))
    return tuple(chains), sigma_closed_form(data.base, es, tables)


def _chain_levels(
    levels: tuple[int, ...], dm: ModularDatum | None, pref: Callable[[ModularDatum], complex]
) -> tuple[DatumStack, list[complex], list[Entry]]:
    """A chain route's datums and prefactors: at each ascending level the
    loaded datum dm or the built-in sl2 datum, and pref of it, up to the
    first level whose prefactor overflows.  That OverflowError stands for
    its level and every higher one, the third item.  The stack keeps that
    level's datum too, so an overflow of the route's powers, which reads no
    level, still wins there, as it does at one level."""
    datums, prefs = [], []
    for r in levels:
        datums.append(sl2_datum(r) if dm is None else dm)
        try:
            prefs.append(pref(datums[-1]))
        except OverflowError as exc:
            return DatumStack.of(datums), prefs, [exc] * (len(levels) - len(prefs))
    return DatumStack.of(datums), prefs, []


def tau_generic(
    datum: ModularDatum, data: SeifertData, cf_style: str = "minus"
) -> InvariantResult:
    """Surgery-presentation evaluation on one datum: tau_generic_sweep at
    its one level."""
    return _single(tau_generic_sweep((datum.n_labels + 1,), datum, data, cf_style))


def tau_generic_sweep(
    levels: tuple[int, ...], datum: ModularDatum | None, data: SeifertData,
    cf_style: str = "minus",
) -> list[Entry]:
    """Surgery-presentation evaluation at each of the ascending levels,
    valid for any modular datum: the loaded datum, or the built-in sl2
    datum of each level when datum is None.

    Expands each exceptional pair into a continued fraction chain,
    applies it to the unit label e_0 (O(m n^2) for m digits and n
    labels), multiplies the columns S G^{chain} e_0, and weights labels by
    quantum dimensions, twists of the central framing, and (for a
    non-orientable base) cross-cap signs on self-dual labels.  Every
    level's labels are one DatumStack.  At most CHAIN_CAP digits in all.

    One entry per level: the result, or the refusal of the exact stage
    (ComplexityCap) at every level, raised before any datum is built; an
    OverflowError of the twist powers at every level, and one of the
    prefactor's float powers at its level and every higher one.
    """
    if not levels:
        return []
    try:
        chains, sigma = _generic_exact(data, cf_style)
    except ComplexityCap as exc:
        return [exc] * len(levels)
    n = len(chains)
    mtot = sum(map(len, chains))
    g = data.genus
    orientable = data.base == "o"
    aeg = 2 * g if orientable else g
    stack, prefs, stop = _chain_levels(
        levels, datum, lambda d: (d.delta / d.D) ** sigma * d.D ** (aeg - 2)
    )
    col = np.ones(stack.v.size, dtype=complex)
    try:
        for digits in chains:
            col *= stack.apply_s(stack.chain(digits))
        if data.normalized:
            col = col * stack.v ** (-data.b)
    except OverflowError as exc:
        return [exc] * len(levels)
    lab = stack.dims ** (2 - n - aeg)
    if not orientable:
        lab = np.concatenate([_eps_weight(d, g) for d in stack.datums]) * lab
    out: list[Entry] = []
    for d, pref, z in zip(stack.datums, prefs, stack.sums(lab * col)):
        r = d.n_labels + 1
        out.append(InvariantResult(complex(pref * z), r, "generic", sigma, _tol(r, mtot + n)))
    return out + stop


@functools.lru_cache(maxsize=1)
def _cs11_exact(data: SeifertData) -> tuple[tuple[int, int], int, int, int, tuple[int, ...]]:
    """Exact stage of tau_cs11, in integers: e as its reduced numerator and
    denominator, sign(e), A = prod alpha_j, X = x A for the Dedekind phase
    x = 3 (ae - 1) sign(e) - e - 12 sum_j s(beta_j, alpha_j), and each
    fiber's inverse bstar of beta mod alpha."""
    ae = 2 if data.base == "o" else 1
    # e A = -(b A + sum beta A / alpha), over the common denominator A = prod alpha > 0
    A = math.prod(alpha for alpha, _ in data.pairs)
    eA = -((data.b or 0) * A + sum(beta * (A // alpha) for alpha, beta in data.pairs))
    g = math.gcd(eA, A)
    # 12 s(beta, alpha) A = _dedekind_12q(beta, alpha) A / alpha
    dsum = sum(_dedekind_12q(beta, alpha) * (A // alpha) for alpha, beta in data.pairs)
    bstars = tuple(0 if a == 1 else pow(beta % a, -1, a) for a, beta in data.pairs)
    return (eA // g, A // g), sign(eA), A, 3 * (ae - 1) * sign(eA) * A - eA - dsum, bstars


def tau_cs11(r: int, data: SeifertData) -> InvariantResult:
    """Closed number-theoretic evaluation at level r, sl2 datum only:
    tau_cs11_sweep at the one level."""
    return _single(tau_cs11_sweep((r,), data))


def tau_cs11_sweep(
    levels: tuple[int, ...], data: SeifertData
) -> list[Entry]:
    """Closed number-theoretic evaluation at each of the ascending levels.

    All phases are exact rational multiples of pi reduced in integer
    arithmetic before exponentiation; the only irrational inputs are the
    sine factors.  No matrices, no continued fractions.  The sum over
    (mu, m) factors into one sum per fiber, and splitting gamma out of each
    phase leaves a Gauss sum G(u; q) over m at u = gamma + mu bstar mod
    alpha and q = bstar r mod alpha.  Over all residues u it is the DFT of
    the chirp exp(-2 pi i q m^2 / alpha): a fiber with alpha <= CS11_BLOCK
    is tabulated by one FFT per level, O(r + alpha log alpha), and a
    larger one summed at the 2 (r - 1) points in blocks of at most
    CS11_BLOCK phases (_cs11_gauss).  The levels are swept in chunks,
    each one array of (level, gamma) entries: a level weighs its
    2 (r - 1) points (gamma, mu) and one row of its widest table, and a
    chunk at most CS11_BLOCK (one level when it weighs more).  So memory
    is bounded by the block whatever alpha and r.

    One entry per level: the result, or the OverflowError of the first
    level that overflows, repeated at every higher level (a float power of
    r; alpha^2 past int64 does not depend on r and refuses every level).
    """
    pairs = data.pairs
    n = len(pairs)
    g = data.genus
    ae = 2 if data.base == "o" else 1
    aeg = ae * g
    if list(levels) != sorted(levels):
        raise ValueError(f"levels must ascend, got {tuple(levels)}")
    e, es, A, X, bstars = _cs11_exact(data)
    wide = next((alpha for alpha, _ in pairs if alpha * alpha >= 2**63), None)
    if wide is not None and levels:
        return [OverflowError(f"int64 phase overflow at r = {levels[0]}, alpha = {wide}")] * len(levels)
    prefs = []
    for r in levels:
        try:
            xr = X % (4 * r * A) / A
            pref = cmath.exp(1j * math.pi * xr / (2 * r))
            pref *= (-1) ** aeg * 1j**n * r ** (aeg / 2 - 1) / 2 ** (n + aeg / 2 - 1)
            pref /= math.sqrt(A)
            pref *= cmath.exp(1j * 3 * math.pi * (1 - ae) * es / 4)
        except OverflowError as exc:
            stop = [exc] * (len(levels) - len(prefs))
            break
        prefs.append(pref)
    else:
        stop = []
    # a level weighs its 2 (r - 1) points and its row of the widest table
    table = max((alpha for alpha, _ in pairs if alpha <= CS11_BLOCK), default=0)
    out: list[Entry] = []
    lo = 0
    while lo < len(prefs):
        hi, weight = lo + 1, 2 * (levels[lo] - 1) + table
        while hi < len(prefs) and weight + 2 * (levels[hi] - 1) + table <= CS11_BLOCK:
            weight += 2 * (levels[hi] - 1) + table
            hi += 1
        sums = _cs11_sums(levels[lo:hi], pairs, bstars, e, aeg)
        for r, pref, z in zip(levels[lo:hi], prefs[lo:hi], sums):
            # error model: the term count prod 2 alpha_j = 2^n A of the unfactored sum
            out.append(InvariantResult(complex(pref * z), r, "cs11", None, _tol(r, 2**n * A)))
        lo = hi
    return out + stop


def _cs11_sums(
    levels: tuple[int, ...],
    pairs: tuple[tuple[int, int], ...],
    bstars: tuple[int, ...],
    e: tuple[int, int],
    aeg: int,
) -> list[complex]:
    """The gamma sum Z of tau_cs11 at each of the ascending levels of one
    chunk, as one array of (level, gamma) entries summed level by level."""
    size = [r - 1 for r in levels]
    starts = list(itertools.accumulate(size, initial=0))

    def spread(values: list, counts: list[int]):
        """One value per level at each of its entries; at one level, the value."""
        return values[0] if len(counts) == 1 else np.repeat(values, counts)

    rr = spread(levels, size)
    gam = np.arange(1, starts[-1] + 1)
    if len(levels) > 1:
        gam -= np.repeat(starts[:-1], size)

    # W(gamma) = prod_j sum_{mu, m} mu exp(i pi X_j / (r alpha_j)) with
    # X_j = -gamma mu - 2 r ((gamma + mu bstar) m + bstar r m^2): the m sum is
    # G(u; q) = sum_m exp(-2 pi i (u m + q m^2) / alpha) at u = gamma + mu bstar
    # mod alpha and q = bstar r mod alpha, and the fiber sum is
    # h G(gamma + bstar) - conj(h) G(gamma - bstar) with h = exp(-i pi gamma / (r alpha))
    W = np.ones(starts[-1], dtype=complex)
    row = spread(range(len(levels)), size)
    for (alpha, _), bstar in zip(pairs, bstars):
        cq = np.array([bstar * r % alpha for r in levels])
        ud = (gam + np.array(((bstar,), (-bstar,)))) % alpha
        if alpha <= CS11_BLOCK:
            # G on all residues u at each level is the DFT of the chirp
            # exp(-2 pi i q m^2 / alpha), whose phase stays below alpha^2 <= 2^28
            m = np.arange(alpha)
            chirp = np.exp(-2j * math.pi / alpha * (cq[:, None] * m % alpha * m % alpha))
            g = np.fft.fft(chirp)[row, ud]
        else:
            g = _cs11_gauss(ud, np.repeat(cq, size), alpha)
        h = np.exp(spread([-1j * math.pi / (r * alpha) for r in levels], size) * gam)
        W *= h * g[0] - h.conj() * g[1]

    sgn_g = np.where((gam * aeg) % 2 == 1, -1.0, 1.0)
    # exp(i pi e gam^2 / 2r) has period 2 den_e in the numerator of e, which
    # is reduced exactly: e_num gam^2 can pass 2^63 at any r.  Reduced
    # first and after each factor gam, it stays below 2 den_e r, in int64 where
    # that fits and in Python ints where it does not
    e_num, e_den = e
    den_e = [2 * r * e_den for r in levels]
    if 2 * den_e[-1] * levels[-1] < 2**63:
        mod = spread([2 * d for d in den_e], size)
        num_e = spread([e_num % (2 * d) for d in den_e], size) * gam % mod * gam % mod
    else:
        num_e = [e_num * g * g % (2 * d) for r, d in zip(levels, den_e) for g in range(1, r)]
    den = spread([float(d) for d in den_e], size)
    ph_e = np.exp(1j * math.pi * np.array(num_e, dtype=float) / den)
    sins = np.sin(np.pi * gam / rr) ** (2 - len(pairs) - aeg)
    terms = sgn_g * ph_e * sins * W
    return [terms[i:j].sum() for i, j in itertools.pairwise(starts)]


def _cs11_gauss(u: np.ndarray, q: np.ndarray, alpha: int) -> np.ndarray:
    """G(u; q) = sum_{0 <= m < alpha} exp(-2 pi i (u m + q m^2) / alpha) at
    each entry of u, with q one value per column of u, summed over m in
    blocks of at most CS11_BLOCK phases (one m when there are more
    entries).  Every phase is a residue mod alpha, each product reduced, so
    no int64 intermediate reaches alpha^2."""
    step = max(1, CS11_BLOCK // u.size)
    G = 0
    for m0 in range(0, alpha, step):
        m = np.arange(m0, min(m0 + step, alpha))
        # u m + q m^2 = (u + q m) m
        ph = (u[..., None] + q[:, None] * m % alpha) % alpha * m % alpha
        G = G + np.exp(-2j * math.pi / alpha * ph).sum(axis=-1)
    return G


@functools.lru_cache(maxsize=1)
def _compact_exact(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[SL2Z, ...], int]:
    """Exact stage of tau_compact on its centered pairs: each pair's
    matrix N and the sum of their Rademacher phis."""
    mats = []
    phis = 0
    for alpha, beta in pairs:
        _, xg, yg = ext_gcd(alpha, beta)
        # alpha sig0 - beta rho0 = 1
        sig0, rho0 = xg, -yg
        N = SL2Z(-beta, -sig0, alpha, rho0)
        phis += rademacher_phi(N)
        mats.append(N)
    return tuple(mats), phis


def tau_compact(r: int, data: SeifertData) -> InvariantResult:
    """Gauss-sum product evaluation at level r, sl2 datum only:
    tau_compact_sweep at the one level."""
    return _single(tau_compact_sweep((r,), data))


def tau_compact_sweep(
    levels: tuple[int, ...], data: SeifertData
) -> list[Entry]:
    """Gauss-sum product evaluation at each of the ascending levels, sl2
    datum only, no continued fractions.

    Each exceptional pair contributes one representation matrix built
    from any integer solution of alpha sigma - beta rho = 1; the result
    does not depend on the solution chosen.  Only its unit-label column
    is summed: O(alpha r) per pair and level.  The levels are grouped by
    their centered pairs, which fix the matrices, and each group is swept
    in chunks of at most GAUSS_BLOCK points, 2 (r - 1) per level (one
    level when it has more).  Over a chunk every pair's column comes from
    one call of gauss_factors, factored into a phase, a linear factor and
    a constant per level: the phases of all pairs, the framing twist and
    the sign (-1)^(j aeg) add up to one exponential per point, n + 2
    transcendentals a point with each pair's linear factor and the sine,
    and the constants of a level multiply its sum.

    One entry per level: the result, or the OverflowError of the first
    level whose Gauss phases pass int64 (past gauss_limit of some alpha,
    raised by gauss_modulus), repeated at every higher level.
    """
    pairs = data.pairs
    n = len(pairs)
    g = data.genus
    ae = 2 if data.base == "o" else 1
    aeg = ae * g
    b = data.b if data.normalized else 0
    if list(levels) != sorted(levels):
        raise ValueError(f"levels must ascend, got {tuple(levels)}")
    # sign(e) of e = -(b + sum beta / alpha), over the common denominator prod alpha > 0
    A = math.prod(alpha for alpha, _ in pairs)
    es = -sign((data.b or 0) * A + sum(beta * (A // alpha) for alpha, beta in pairs))
    # the first level past the int64 limit of some fiber refuses, with every higher one
    limit = min((gauss_limit(alpha) for alpha, _ in pairs), default=math.inf)
    cut = bisect.bisect_right(levels, limit)
    stop: list[OverflowError] = []
    if cut < len(levels):
        try:
            for alpha, _ in pairs:
                gauss_modulus(levels[cut], alpha)
        except OverflowError as exc:
            stop = [exc] * (len(levels) - cut)
    kept = levels[:cut]
    groups: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for r in kept:
        # the value has period 4 r alpha in beta at fixed sign(e), which is read
        # from the data as given: the centered residue makes it exactly periodic
        # and keeps phis, the exponent of w, small.  It depends on r, so the exact
        # stage is keyed on the centered pairs
        centered = tuple(
            (alpha, (beta + 2 * r * alpha) % (4 * r * alpha) - 2 * r * alpha)
            for alpha, beta in pairs
        )
        groups.setdefault(centered, []).append(r)
    found: dict[int, InvariantResult] = {}
    for centered, group in groups.items():
        mats, phis = _compact_exact(centered)
        # the exponent of w, whose order is 8 r
        k = phis - 3 * (ae - 1) * es
        lo = 0
        while lo < len(group):
            hi, points = lo + 1, 2 * (group[lo] - 1)
            while hi < len(group) and points + 2 * (group[hi] - 1) <= GAUSS_BLOCK:
                points += 2 * (group[hi] - 1)
                hi += 1
            chunk = group[lo:hi]
            for r, z in zip(chunk, _compact_sums(chunk, mats, k, b, aeg)):
                found[r] = InvariantResult(complex(z), r, "compact", None, _tol(r, n * r))
            lo = hi
    return [found[r] for r in kept] + stop


def _compact_sums(levels: list[int], mats: tuple[SL2Z, ...], k: int, b: int, aeg: int) -> list:
    """tau_compact at each of the ascending levels of one chunk: one array
    of (level, j) entries, each level summed on its own slice and then
    multiplied by its constants, w^k (-1)^aeg exp(i pi b / 2r) and the
    prefactor of each matrix's column."""
    one = len(levels) == 1
    size = [r - 1 for r in levels]
    starts = list(itertools.accumulate(size[:-1], initial=0))
    # exp(i pi b / 2r) has period 4r in b, and (-1)^(j aeg) = exp(i pi 2r aeg j^2 / 2r)
    # since j^2 and j have one parity: each level's exponent of t^(j^2),
    # reduced exactly first as a Python int
    tw = [(2 * r * aeg - b) % (4 * r) for r in levels]
    # the levels and the twist exponents, and at each point its j, r and twist:
    # Python scalars at one level, else arrays read at each point's row
    if one:
        (rs,), (tw,) = levels, tw
        j, rr, tw_j = np.arange(1, rs), rs, tw
    else:
        rs, tw = np.array(levels), np.array(tw)
        row = np.repeat(np.arange(len(levels)), size)
        j, rr, tw_j = np.arange(1, sum(size) + 1) - np.array(starts)[row], rs[row], tw[row]
    # w = exp(i pi (r - 2) / 4r) has order 8r: w^k (-1)^aeg exp(i pi b / 2r) is
    # exp(i pi E / 4r) with E exact mod 8r
    expo = (k % (8 * rs) * (rs - 2) - 2 * tw) % (8 * rs)
    pref = (cmath.exp if one else np.exp)(1j * math.pi * expo / (4 * rs))
    # the phases in units of pi: the twist, then each matrix's column
    phase = tw_j * j * j % (4 * rr) / (2 * rr)
    factor = 1
    for N in mats:
        ph, fac, p = gauss_factors(N, levels)
        phase += ph
        factor = factor * fac
        pref = pref * p
    xi1 = np.sqrt(2.0 / rr) * np.sin(np.pi * j / rr)
    terms = np.exp(1j * math.pi * phase) * factor * xi1 ** (2 - len(mats) - aeg)
    # each level's slice summed alone, by one call at any number of levels
    sums = np.add.reduceat(terms, starts)
    return [pref * sums[0]] if one else list(pref * sums)


@functools.lru_cache(maxsize=1)
def _graph_sum_chains(
    data: SeifertData, cf_style: str, chain_cap: int
) -> tuple[SeifertData, tuple[tuple[int, ...], ...]]:
    """First exact stage of tau_graph_sum: the normalized presentation and
    the chain of each of its pairs.  ComplexityCap past chain_cap digits."""
    mm = normalize(data)
    return mm, tuple(_capped_chains("graph_sum", mm.pairs, cf_style, chain_cap))


@functools.lru_cache(maxsize=1)
def _graph_sum_exact(
    mm: SeifertData, cfs: tuple[tuple[int, ...], ...]
) -> tuple[int, tuple[tuple[int, ...], ...], int, int]:
    """Second exact stage of tau_graph_sum, once the caps pass: the genus,
    the negated plumbing block B, the signature of B and the exponent of D."""
    mtot = 1 + sum(map(len, cfs))
    full = linking_matrix(mm, cfs)
    head = 2 * mm.genus
    B = tuple(tuple(-full[head + i][head + j] for j in range(mtot)) for i in range(mtot))
    sig, nul = signature_exact(B)
    return mm.genus, B, sig, first_betti(mm) - 1 - mtot - nul - sig


def _graph_sum_caps(
    r: int, data: SeifertData, cf_style: str = "minus",
    chain_cap: int = 8, r_cap: int = 10, max_terms: int = 500_000,
) -> tuple[SeifertData, tuple[tuple[int, ...], ...]]:
    """The refusals of tau_graph_sum at level r, in order: its base, then
    its three complexity caps (total chain length, level, term count).
    None reads a datum.  Returns the first exact stage, _graph_sum_chains."""
    if data.base != "o":
        raise Unsupported("graph state sum needs an orientable base")
    mm, cfs = _graph_sum_chains(data, cf_style, chain_cap)
    if r > r_cap:
        raise ComplexityCap(f"level r = {r} exceeds cap {r_cap}")
    mtot = 1 + sum(map(len, cfs))
    if (r - 1) ** mtot > max_terms:
        raise ComplexityCap(f"{r - 1}^{mtot} terms exceed cap {max_terms}")
    return mm, cfs


def tau_graph_sum(
    datum: ModularDatum, data: SeifertData, cf_style: str = "minus", **caps: int
) -> InvariantResult:
    """Brute-force plumbing state sum (orientable base only).

    Normalizes the presentation, negates its plumbing block, and sums the
    mirror datum's graph weights over every label assignment: one complex
    tensor with an axis per plumbing vertex, nl^m values for m vertices,
    grown one vertex at a time with every term formed explicitly (at most
    7.5 MB at the default term cap: the last tensor and the one before it).
    Wholly independent of the chain algebra in the other routes, and
    guarded by three complexity caps, caps being any of chain_cap (8),
    r_cap (10) and max_terms (500 000) of _graph_sum_caps, all checked in
    that order before the plumbing block is built; the chain digits are
    taken one at a time up to the cap.
    """
    r = datum.n_labels + 1
    mm, cfs = _graph_sum_caps(r, data, cf_style, **caps)
    mtot = 1 + sum(map(len, cfs))
    nl = datum.n_labels
    g, B, sig, bexp = _graph_sum_exact(mm, cfs)

    # one axis per plumbing vertex, grown one vertex at a time.  In
    # linking_matrix's order every vertex q > 0 has one earlier neighbour p,
    # so its weight w_q and its edge matrix E_pq form one small table
    # f[l_p, l_q] = w_q[l_q] E_pq[l_p, l_q], and one pass appends axis q:
    # term[l_0, ..., l_q] = term[l_0, ..., l_q-1] f[l_p, l_q]
    mir = mirror_datum(datum)
    S_dual = mir.S[np.array(mir.dual), :]

    def weight(q: int) -> np.ndarray:
        """w_q = v^B_qq dims^(2 - 2 g_q - valence), on the labels of vertex q."""
        a_q = sum(abs(B[q][p]) for p in range(mtot) if p != q)
        return mir.v ** B[q][q] * mir.dims ** (2 - 2 * (g if q == 0 else 0) - a_q)

    term = weight(0)
    for q in range(1, mtot):
        (p,) = [p for p in range(q) if B[p][q] != 0]
        f = weight(q) * (mir.S if B[p][q] > 0 else S_dual) ** abs(B[p][q])
        term = term[..., None] * f.reshape((1,) * p + (nl,) + (1,) * (q - 1 - p) + (nl,))
    val = mir.delta**sig * datum.D**bexp * np.sum(term)
    return InvariantResult(
        complex(val), r, "graph_sum", sig, _tol(r, mtot + nl ** (mtot - 1))
    )


@functools.lru_cache(maxsize=1)
def _section5_exact(
    data: SeifertData, cf_style: str
) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Exact stage of tau_section5, from the normalized presentation: its
    genus, the chain digits of each pair followed by the central framing
    chain (-b, 0) when b is nonzero, and the framing exponent.  No chains
    when b = 0 and there are no pairs.  Unsupported on a non-orientable
    base, and at most CHAIN_CAP pair digits in all (ComplexityCap beyond).
    """
    if data.base != "o":
        raise Unsupported("chain decomposition needs an orientable base")
    mm = normalize(data)
    b = mm.b
    n = len(mm.pairs)
    if b == 0 and n == 0:
        return mm.genus, (), 0

    def defect(entries: tuple[int, ...]) -> int:
        num = sum(entries) - rademacher_phi(convergents(entries).final)
        if num % 3 != 0:
            raise ArithmeticError(f"framing defect not divisible by 3 for {entries}")
        return num // 3

    chains = _capped_chains("section5", mm.pairs, cf_style, CHAIN_CAP)
    if b != 0:
        chains.append((-b, 0))
        # sign(e) of e = -(b + sum beta / alpha), over the common denominator prod alpha > 0
        A = math.prod(alpha for alpha, _ in mm.pairs)
        es = -sign(b * A + sum(beta * (A // alpha) for alpha, beta in mm.pairs))
        mu = n - 1 - sign(b) * es
    else:
        mu = n - 1
    return mm.genus, tuple(chains), mu + sum(map(defect, chains))


def tau_section5(
    datum: ModularDatum, data: SeifertData, cf_style: str = "minus"
) -> InvariantResult:
    """Chain-decomposition evaluation on one datum (orientable base only):
    tau_section5_sweep at its one level."""
    return _single(tau_section5_sweep((datum.n_labels + 1,), datum, data, cf_style))


def tau_section5_sweep(
    levels: tuple[int, ...], datum: ModularDatum | None, data: SeifertData,
    cf_style: str = "minus",
) -> list[Entry]:
    """Chain-decomposition evaluation at each of the ascending levels, on
    the loaded datum or, when datum is None, the built-in sl2 datum of each
    level (orientable base only).

    Normalizes first, treats the central framing as one extra chain
    (-b, 0) when b is nonzero, and tracks the framing exponent through
    per-chain defects (sum of digits - phi)/3 plus a Maslov-type offset.
    Every level's labels are one DatumStack.  Entries and refusals as in
    tau_generic_sweep; the base check refuses every level too.
    """
    if not levels:
        return []
    try:
        g, chains, expo = _section5_exact(data, cf_style)
    except (ComplexityCap, Unsupported) as exc:
        return [exc] * len(levels)
    if not chains:
        stack, prefs, stop = _chain_levels(levels, datum, lambda d: d.D ** (2 * g - 2))
        terms = stack.dims ** (2 - 2 * g)
        work = 1
    else:
        stack, prefs, stop = _chain_levels(
            levels, datum, lambda d: (d.delta / d.D) ** expo * d.D ** (2 * g - 2)
        )
        # each chain applied to the unit label, its digits scaled by 1/D
        prod = np.ones(stack.v.size, dtype=complex)
        try:
            for digits in chains:
                prod *= stack.apply_s(stack.chain(digits))
        except OverflowError as exc:
            return [exc] * len(levels)
        n_comp = len(chains)
        terms = stack.dims ** (2 - 2 * g - n_comp) * prod
        work = sum(map(len, chains)) + n_comp
    out: list[Entry] = []
    for d, pref, z in zip(stack.datums, prefs, stack.sums(terms)):
        r = d.n_labels + 1
        out.append(InvariantResult(complex(pref * z), r, "section5", expo, _tol(r, work)))
    return out + stop


def _each_level(
    levels: tuple[int, ...], dm: ModularDatum | None, check: Callable[[int], object],
    run: Callable[[ModularDatum], InvariantResult],
) -> list[Entry]:
    """check(r), the route's refusals that read no datum, then run on the
    loaded datum dm or the built-in sl2 datum at r, at each ascending level
    r until the first refusal or overflow, which then stands for that
    level and every higher one.  So a refusal builds no datum."""
    out: list[Entry] = []
    for r in levels:
        try:
            check(r)
            out.append(run(sl2_datum(r) if dm is None else dm))
        except (ComplexityCap, Unsupported, OverflowError) as exc:
            return out + [exc] * (len(levels) - len(out))
    return out


def _refuse_datum(name: str, levels: tuple[int, ...]) -> list[Entry]:
    """An sl2 closed form's refusal of a loaded datum, at every level."""
    return [Unsupported(f"method {name!r} needs the built-in sl2 datum")] * len(levels)


# Each adapter is run(levels, datum, data), with levels ascending and datum the
# loaded datum or None for the built-in one; continued fractions take the
# routes' default style.  It returns one entry per level: the result, or the
# ComplexityCap or Unsupported refusal, or the OverflowError, that the route
# raised at that level.  A route stops at its first refusal, which stands for
# every higher level too: each one either ignores the level (the chain caps,
# the base checks, a loaded datum, cs11's alpha^2 bound) or grows with r
# (graph_sum's level and term caps, compact's int64 bound (4 r |c|)^2, a float
# power of r).  generic, section5, cs11 and compact sweep their numeric stage
# over all the levels at once, each level summed on its own slice; graph_sum
# runs level by level.  The datum routes raise the refusals that read no datum
# (their exact stage, or graph_sum's caps at their defaults in _graph_sum_caps)
# before any datum is built.
# Adapters only: the routes must not share numeric code through this table,
# since their agreement is the cross-check.  The order is the output order.
ROUTES: dict[str, Callable[[tuple[int, ...], ModularDatum | None, SeifertData], list[Entry]]] = {
    "generic": lambda levels, dm, data: tau_generic_sweep(levels, dm, data),
    "cs11": lambda levels, dm, data: (
        tau_cs11_sweep(levels, data) if dm is None else _refuse_datum("cs11", levels)
    ),
    "compact": lambda levels, dm, data: (
        tau_compact_sweep(levels, data) if dm is None else _refuse_datum("compact", levels)
    ),
    "graph_sum": lambda levels, dm, data: _each_level(
        levels, dm, lambda r: _graph_sum_caps(r, data), lambda d: tau_graph_sum(d, data)
    ),
    "section5": lambda levels, dm, data: tau_section5_sweep(levels, dm, data),
}


def tau_lens_routes(
    r: int, lens: LensSpace, cf_style: str = "minus"
) -> tuple[complex, complex, int]:
    """Both lens space routes: (single-matrix value, chain value, sigma).

    Route one feeds the matrix [[q, b], [p, d]] through the Gauss-sum
    representation (a power of w alone when p = 0) and multiplies by the
    Rademacher phase.  Route two expands p / -q into a chain with a
    trailing zero and evaluates the framed chain product.  The two must
    agree to numerical precision.
    """
    p, q = lens.p, lens.q
    datum = sl2_datum(r)
    _, xg, yg = ext_gcd(q, p)
    # q d0 - b0 p = 1 with d0 = xg, b0 = -yg
    U = SL2Z(q, -yg, p, xg)
    phi = rademacher_phi(U)
    if p == 0:
        # U = +-Theta^(q b), whose unit-label entry Theta_1^(q b) is w^(-q b)
        entry, phi = 1, phi - q * U.b
    else:
        entry = r_rep_gauss(U, r)[0]
    # w has order 8r
    v1 = w_phase(r) ** ((phi + 4 * r) % (8 * r) - 4 * r) * entry

    entries = (0, 0, 0) if q == 0 else cf_expand(p, -q, cf_style) + (0,)
    table = convergents(entries)
    sigma = sum(sign(bm.a * bm.c) for bm in table.matrices[:-1])
    # the chain applied to e_0, each digit scaled by 1/D
    col = g_matrix(datum, entries)
    v2 = (datum.delta / datum.D) ** sigma * col[0]
    return complex(v1), complex(v2), sigma


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
