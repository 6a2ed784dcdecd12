"""Seeded inputs for the three benchmark workloads.

A workload is a sequence of passes.  Pass k of a run is drawn from
``random.Random(f"{workload}:{seed}:{k}")``, so the same seed gives the same
inputs and every pass of a run sees fresh presentations.  The program only
receives the generated argument vectors.

The draws are balanced rather than free: the mix of bases, genera and fiber
counts, the multiset of levels and the multiset of fiber orders are fixed per
pass and only their assignment (and the slopes) come from the seed.  That
keeps the cost of a pass nearly independent of the seed, so runs with
different seeds can be compared.  Nothing here imports the program.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

# closed forms of the two anchor presentations at every level r
S3 = "o;g=0;b=1;"
S1XS2 = "o;g=0;b=0;"
ANCHORS = {
    S3: lambda r: complex(math.sqrt(2 / r) * math.sin(math.pi / r)),
    S1XS2: lambda r: 1 + 0j,
}


@dataclass(frozen=True)
class Invocation:
    """One call of ``cli.main``: its argv and what the output must hold."""

    argv: tuple[str, ...]
    kind: str  # "verify", "compute" or "anchor"
    levels: tuple[int, ...]
    presentation: str


def levels_arg(levels: tuple[int, ...]) -> str:
    lo, hi = levels[0], levels[-1]
    if levels != tuple(range(lo, hi + 1)):
        raise ValueError(f"levels {levels} are not one consecutive window")
    return str(lo) if lo == hi else f"{lo}..{hi}"


def compute(presentation: str, levels: tuple[int, ...], kind: str = "compute") -> Invocation:
    argv = ("compute", presentation, "--r", levels_arg(levels), "--format", "json")
    return Invocation(argv, kind, levels, presentation)


def anchors(levels: tuple[int, ...]) -> list[Invocation]:
    return [compute(p, levels, "anchor") for p in ANCHORS]


def coprime_betas(alpha: int, lo: int, hi: int) -> list[int]:
    return [x for x in range(lo, hi + 1) if math.gcd(abs(x), alpha) == 1 and (x != 0 or alpha == 1)]


def render(base: str, genus: int, b: int | None, pairs: list[tuple[int, int]]) -> str:
    body = ",".join(f"{a}/{c}" for a, c in pairs)
    if b is None:
        return f"nn:{base};g={genus};{body}"
    return f"{base};g={genus};b={b};{body}"


def minus_cf_len(p: int, q: int) -> int:
    """Length of the all-minus (ceiling quotient) continued fraction of p/q."""
    n = 0
    while q != 0:
        a = -((-p) // q)
        p, q = q, a * q - p
        n += 1
    return n


# ---- verify-mixed -------------------------------------------------------

VERIFY_LEVELS = tuple(range(3, 11))
# (base, genus) strata with their copies per pass; with 4 fiber counts and two
# forms this reproduces the odds of a uniform draw (base 1/2, then genus,
# fiber count and form uniform) exactly: 24 * 2 + 16 * 3 = 96 presentations.
VERIFY_STRATA = {("o", 0): 2, ("o", 1): 2, ("o", 2): 2, ("n", 1): 3, ("n", 2): 3}


def fiber_draws(normalized: bool) -> list[tuple[float, int, int]]:
    """(probability, alpha, beta) of every fiber a free draw can give."""
    alphas = range(2, 8) if normalized else range(1, 8)
    out = []
    for a in alphas:
        betas = coprime_betas(a, 1, a - 1) if normalized else coprime_betas(a, -7, 7)
        out += [(1 / len(alphas) / len(betas), a, b) for b in betas]
    return out


def fiber_chain_len(alpha: int, beta: int) -> int:
    """Chain length of one fiber once normalized; alpha = 1 folds into b."""
    return minus_cf_len(alpha, beta % alpha) if alpha > 1 else 0


@functools.cache
def chain_len_targets(nfib: int, normalized: bool, copies: int) -> tuple[int, ...]:
    """Total chain lengths at `copies` evenly spaced quantiles of a free draw.

    The capped graph_sum oracle costs about (r-1)^(1 + chain length), so the
    chain lengths of a pass decide most of its cost.  Drawing each cell at a
    fixed quantile keeps their multiset the same in every pass.
    """
    dist = {0: 1.0}
    for _ in range(nfib):
        nxt: dict[int, float] = {}
        for total, p in dist.items():
            for q, a, b in fiber_draws(normalized):
                key = total + fiber_chain_len(a, b)
                nxt[key] = nxt.get(key, 0.0) + p * q
        dist = nxt
    targets = []
    for i in range(copies):
        acc = 0.0
        for total in sorted(dist):
            acc += dist[total]
            if acc >= (i + 0.5) / copies:
                targets.append(total)
                break
    return tuple(targets)


def verify_presentation(
    rng: random.Random, base: str, genus: int, nfib: int, normalized: bool, chain_len: int
) -> str:
    """A free draw of the cell, repeated until its chain length is chain_len."""
    while True:
        pairs = []
        for _ in range(nfib):
            if normalized:
                alpha = rng.randint(2, 7)
                pairs.append((alpha, rng.choice(coprime_betas(alpha, 1, alpha - 1))))
            else:
                alpha = rng.randint(1, 7)
                pairs.append((alpha, rng.choice(coprime_betas(alpha, -7, 7))))
        if sum(fiber_chain_len(a, c) for a, c in pairs) == chain_len:
            break
    b = rng.randint(-3, 3) if normalized else None
    return render(base, genus, b, pairs)


def verify_pass(rng: random.Random, small: bool) -> list[Invocation]:
    # the genera of each (base, fiber count, form) group, and a fixed multiset
    # of chain lengths dealt to them at random
    groups: dict[tuple[str, int, bool], list[int]] = {}
    for (base, genus), copies in VERIFY_STRATA.items():
        for nfib in range(4):
            for normalized in (True, False):
                groups.setdefault((base, nfib, normalized), []).extend([genus] * (1 if small else copies))
    cells = []
    for (base, nfib, normalized), genera in groups.items():
        lengths = list(chain_len_targets(nfib, normalized, len(genera)))
        rng.shuffle(lengths)
        cells += [(base, g, nfib, normalized, n) for g, n in zip(genera, lengths)]
    if small:
        cells = rng.sample(cells, 8)
    rng.shuffle(cells)
    out = []
    for cell in cells:
        p = verify_presentation(rng, *cell)
        argv = ("verify", p, "--r", levels_arg(VERIFY_LEVELS), "--format", "json")
        out.append(Invocation(argv, "verify", VERIFY_LEVELS, p))
    return out + anchors(VERIFY_LEVELS)


# ---- level-sweep --------------------------------------------------------

SWEEP_WINDOW = 12
SWEEP_TOP = 146
SWEEP_TAIL = tuple(range(176, 401, 56))
# one presentation per slot and pass; the orientable genus-1 slot is the one
# whose |tau| grows fastest with r
SWEEP_SLOTS = (("o", 1), ("n", 1), ("o", 0))
# cost factors held fixed per presentation: the sum of the fiber orders sets
# the Gauss-sum length of `compact`, the total chain length the number of
# r x r products in `generic` and `section5`
SWEEP_CHAIN_LEN = 7
# fiber orders summing to 15, one triple per slot, dealt to the slots at
# random; their products set the cs11 grids, whose sum is then the same in
# every pass
SWEEP_TRIPLES = ((2, 6, 7), (4, 5, 6), (5, 5, 5))


def sweep_presentation(rng: random.Random, base: str, genus: int, triple: tuple[int, ...]) -> str:
    while True:
        alphas = rng.sample(triple, len(triple))
        pairs = [(a, rng.choice(coprime_betas(a, 1, a - 1))) for a in alphas]
        if sum(minus_cf_len(a, c) for a, c in pairs) == SWEEP_CHAIN_LEN:
            break
    b = rng.choice((-3, -2, -1, 1, 2, 3))
    return render(base, genus, b, pairs)


def sweep_windows(small: bool) -> list[tuple[int, ...]]:
    top = 20 if small else SWEEP_TOP
    out = [tuple(range(lo, min(lo + SWEEP_WINDOW, top + 1))) for lo in range(3, top + 1, SWEEP_WINDOW)]
    return out + ([] if small else [(r,) for r in SWEEP_TAIL])


def sweep_pass(rng: random.Random, small: bool) -> list[Invocation]:
    slots = SWEEP_SLOTS[:1] if small else SWEEP_SLOTS
    windows = sweep_windows(small)
    triples = rng.sample(SWEEP_TRIPLES, len(SWEEP_TRIPLES))
    out = []
    for (base, genus), triple in zip(slots, triples):
        p = sweep_presentation(rng, base, genus, triple)
        out += [compute(p, w) for w in windows]
    for w in windows:
        out += anchors(w)
    return out


# ---- wide-fibers --------------------------------------------------------

WIDE_COUNT = 48
WIDE_ALPHAS = tuple(range(11, 18))
WIDE_LEVELS = (30, 100)
WIDE_SLOTS = (("o", 0), ("o", 1), ("n", 1))


def wide_plan(count: int) -> list[tuple[int, tuple[int, int, int]]]:
    """(level, fiber orders) of every presentation, the same for every seed.

    Levels and orders are spread evenly and paired by a fixed shuffle, so the
    cs11 grid of a pass, sum (r-1) prod 2 alpha, does not depend on the draw.
    The first entry is the largest case (alpha = 17 three times, r = 100), so
    peak memory is set by the workload's size and not by the draw.
    """
    rng = random.Random("wide-fibers plan")
    lo, hi = WIDE_LEVELS
    levels = [lo + (hi - lo) * i // max(count - 1, 1) for i in range(count)]
    rng.shuffle(levels)
    columns = []
    for _ in range(3):
        col = [WIDE_ALPHAS[i % len(WIDE_ALPHAS)] for i in range(count)]
        rng.shuffle(col)
        columns.append(col)
    levels[0] = hi
    for col in columns:
        col[0] = WIDE_ALPHAS[-1]
    return [(levels[i], tuple(c[i] for c in columns)) for i in range(count)]


def wide_pass(rng: random.Random, small: bool) -> list[Invocation]:
    plan = wide_plan(4 if small else WIDE_COUNT)
    # the draw orders the fibers and the calls and picks the slopes; the
    # largest case stays first
    order = list(range(1, len(plan)))
    rng.shuffle(order)
    out = []
    for i in [0] + order:
        level, alphas = plan[i]
        alphas = rng.sample(alphas, len(alphas))
        base, genus = WIDE_SLOTS[i % len(WIDE_SLOTS)]
        pairs = [(a, rng.choice(coprime_betas(a, 1, a - 1))) for a in alphas]
        b = rng.randint(-3, 3)
        out.append(compute(render(base, genus, b, pairs), (level,)))
    # one window covers every level of the pass; the graph_sum oracle only
    # runs up to r = 10, so anchor it there too
    lo, hi = WIDE_LEVELS
    return out + anchors(tuple(range(lo, hi + 1))) + anchors(VERIFY_LEVELS)


BUILDERS = {"verify-mixed": verify_pass, "level-sweep": sweep_pass, "wide-fibers": wide_pass}


def build_pass(workload: str, seed: int, k: int, small: bool = False) -> list[Invocation]:
    """Invocations of pass k of a run of `workload` with `seed`."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}:{k}"), small)
