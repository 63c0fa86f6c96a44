"""
Brute-force ground truth at small sizes.

Nothing in this module knows the counting formulas. Cayley balls are
grown by breadth-first closure under single-letter pushes, with states
deduplicated by their canonical heap; exact walk distributions come
from dynamic programming over the same state space with integer path
counts. Agreement between these enumerations and the transfer-matrix
counts is the central correctness gate of the package.

For the group and the semigroup, states are core.ColoredHeap values.
The projective semigroup (f_i^2 = f_i) and the restricted-order
quotients (f_i^r = 1) need a coarser state: the same heap geometry but
with one piece per syllable, labeled by its exponent class. Pushing a
letter onto a column whose top piece is currently removable merges into
that piece (adding exponents mod r, deleting the piece when the class
hits zero; in the projective case the class is absorbed), otherwise it
stacks a new piece. This is the normal-form state of the quotient, so
key equality is element equality there as well.

Budgets are deliberately conservative and explicit. Callers may raise
them (the acceptance suite does, for the n=2 group at N=12 whose ball
holds about 1.06 million states), but exceeding a budget is an error,
never a silent truncation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from locfree import core
from locfree.counting import (
    GROUP,
    PROJECTIVE,
    RESTRICTED,
    SEMIGROUP,
    VARIANTS,
    _check_variant,
)

_U32 = struct.Struct("<I")

# Default enumeration budgets (states); see module docstring.
BALL_STATE_BUDGET = 2_000_000
DEFAULT_DISTRIBUTION_LIMITS = {GROUP: (3, 8), SEMIGROUP: (4, 10)}


class BudgetExceeded(RuntimeError):
    """An enumeration outgrew its configured state budget."""


@dataclass(frozen=True)
class BallCensus:
    """Exact census of the radius-`radius` ball around the identity."""

    n: int
    variant: str
    r: int | None
    radius: int
    counts: dict[int, int]  # length -> number of elements
    elements: dict[bytes, int]  # canonical key -> length

    def total(self) -> int:
        return sum(self.counts.values())


# ---------------------------------------------------------------------------
# Quotient states (projective / restricted): heaps of exponent-class pieces


def _syllable_push(columns, n, i, delta, r):
    """
    Push one letter of sign delta onto column i (0-based) of a
    syllable-piece heap. columns[i] is a tuple of (level, class) pieces;
    classes live in Z/rZ \\ {0}, or are the constant 1 when r is None
    (projective absorption). Returns the new columns tuple.
    """
    col = columns[i]
    mid = col[-1][0] if col else 0
    left = columns[i - 1][-1][0] if i >= 1 and columns[i - 1] else 0
    right = columns[i + 1][-1][0] if i + 1 < n and columns[i + 1] else 0
    drop = 1 + max(left, mid, right)

    if col and mid == drop - 1:
        # top piece of the neighborhood: the letter joins its syllable
        if r is None:
            return columns  # f_i f_i = f_i
        cls = (col[-1][1] + delta) % r
        if cls == 0:
            new_col = col[:-1]
        else:
            new_col = col[:-1] + ((mid, cls),)
    else:
        cls = 1 if r is None else delta % r
        new_col = col + ((drop, cls),)
    return columns[: i] + (new_col,) + columns[i + 1 :]


def _syllable_key(n, columns) -> bytes:
    pack = _U32.pack
    parts = [pack(n)]
    for col in columns:
        parts.append(pack(len(col)))
        for level, cls in col:
            parts.append(pack(level))
            parts.append(pack(cls))
    return b"".join(parts)


def enumerate_ball(
    n: int,
    radius: int,
    variant: str,
    r: int | None = None,
    max_states: int = BALL_STATE_BUDGET,
) -> BallCensus:
    """
    Breadth-first enumeration of all elements of reduced length up to
    `radius`, counted by exact length (= BFS depth, since every push
    changes the minimal spelling by at most one letter).
    """
    _check_variant(variant, r)
    if n < 1 or radius < 0:
        raise ValueError("need n >= 1 and radius >= 0")

    if variant in (GROUP, SEMIGROUP):
        start = core.empty_heap(n, variant)
        signs = (1, -1) if variant == GROUP else (1,)
        letters = [core.Letter(i, s) for i in range(1, n + 1) for s in signs]

        def expand(state):
            return [core.push_letter(state, g) for g in letters]

        def key_of(state):
            return core.canonical_key(state)

    else:
        rr = None if variant == PROJECTIVE else r
        start = ((),) * n
        signs = (1,) if variant == PROJECTIVE else (1, -1)
        moves = [(i, s) for i in range(n) for s in signs]

        def expand(state):
            return [_syllable_push(state, n, i, s, rr) for i, s in moves]

        def key_of(state):
            return _syllable_key(n, state)

    seen = {key_of(start): 0}
    frontier = [start]
    counts = {0: 1}
    for depth in range(1, radius + 1):
        nxt = []
        for state in frontier:
            for succ in expand(state):
                k = key_of(succ)
                if k not in seen:
                    if len(seen) >= max_states:
                        raise BudgetExceeded(
                            f"ball (n={n}, radius={radius}, {variant}) "
                            f"exceeds {max_states} states"
                        )
                    seen[k] = depth
                    nxt.append(succ)
        if nxt:
            counts[depth] = len(nxt)
        frontier = nxt
    return BallCensus(n, variant, r, radius, counts, seen)


# ---------------------------------------------------------------------------
# Exact walk distributions


@dataclass(frozen=True)
class ExactDistribution:
    """Exact N-step distribution; probabilities are rationals summing to 1."""

    n: int
    mode: str
    steps: int
    probabilities: dict[bytes, Fraction]


class _Interned:
    """Reachable states within `steps` pushes, with a transition table."""

    def __init__(self, n: int, steps: int, mode: str, max_states: int):
        signs = (1, -1) if mode == GROUP else (1,)
        letters = [core.Letter(i, s) for i in range(1, n + 1) for s in signs]
        start = core.empty_heap(n, mode)
        heaps = [start]
        ids = {start.columns: 0}
        depth_of = [0]
        succ: list[tuple[int, ...]] = []
        frontier = [0]
        for depth in range(1, steps + 1):
            nxt = []
            for sid in frontier:
                state = heaps[sid]
                row = []
                for g in letters:
                    t = core.push_letter(state, g)
                    tid = ids.get(t.columns)
                    if tid is None:
                        if len(heaps) >= max_states:
                            raise BudgetExceeded(
                                f"distribution (n={n}, N={steps}, {mode}) "
                                f"exceeds {max_states} states"
                            )
                        tid = len(heaps)
                        ids[t.columns] = tid
                        heaps.append(t)
                        depth_of.append(depth)
                        nxt.append(tid)
                    row.append(tid)
                succ.append(tuple(row))
            frontier = nxt
        # states first reached at full depth are never stepped from
        succ.extend(() for _ in frontier)
        assert len(succ) == len(heaps)
        self.n = n
        self.mode = mode
        self.steps = steps
        self.letters = letters
        self.heaps = heaps
        self.depth_of = depth_of
        self.succ = succ

    def path_counts(self) -> list[list[int]]:
        """counts[t][sid] = number of length-t letter paths ending at sid."""
        per_step = [[0] * len(self.heaps) for _ in range(self.steps + 1)]
        per_step[0][0] = 1
        for t in range(self.steps):
            cur, nxt = per_step[t], per_step[t + 1]
            for sid, row in enumerate(self.succ):
                c = cur[sid]
                if c:
                    for tid in row:
                        nxt[tid] += c
        return per_step

    def check_roof_recursion(self, per_step) -> None:
        """
        Semigroup only: a length-t path ends at w iff its last push laid
        the top cell of some roof column, so the path counts must obey

            counts[t][w] = sum over roof columns i of counts[t-1][w - top_i].
        """
        if self.mode != SEMIGROUP:
            raise ValueError("the roof recursion applies to semigroup paths")
        ids = {h.columns: sid for sid, h in enumerate(self.heaps)}
        for sid, heap in enumerate(self.heaps):
            if sid == 0:
                continue
            preds = []
            for i in roof_columns(heap):
                cols = heap.columns
                shrunk = cols[: i - 1] + (cols[i - 1][:-1],) + cols[i:]
                preds.append(ids[shrunk])
            for t in range(1, self.steps + 1):
                expected = sum(per_step[t - 1][p] for p in preds)
                if per_step[t][sid] != expected:
                    raise AssertionError(
                        f"roof recursion fails at state {sid}, step {t}"
                    )


def roof_columns(heap: core.ColoredHeap) -> tuple[int, ...]:
    return core.roof_of(heap).columns()


def _interned(n: int, steps: int, mode: str, max_states: int | None) -> _Interned:
    if mode not in (GROUP, SEMIGROUP):
        raise ValueError("mode must be group or semigroup")
    n_cap, steps_cap = DEFAULT_DISTRIBUTION_LIMITS[mode]
    if max_states is None and (n > n_cap or steps > steps_cap):
        raise BudgetExceeded(
            f"exact {mode} distribution capped at n <= {n_cap}, N <= {steps_cap} "
            "by default; pass max_states to raise the budget"
        )
    return _Interned(n, steps, mode, max_states or BALL_STATE_BUDGET)


def exact_distribution(
    n: int, N: int, mode: str, max_states: int | None = None
) -> ExactDistribution:
    """
    The exact distribution after N uniform letter pushes: path counts
    over (2n)^N equally likely letter sequences (n^N in semigroup mode),
    as Fractions keyed by canonical heap. In semigroup mode the path
    counts are additionally checked against the roof recursion on every
    state before probabilities are formed.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    table = _interned(n, N, mode, max_states)
    per_step = table.path_counts()
    if mode == SEMIGROUP:
        table.check_roof_recursion(per_step)
    denom = len(table.letters) ** N
    final = per_step[N]
    probs = {
        core.canonical_key(table.heaps[sid]): Fraction(c, denom)
        for sid, c in enumerate(final)
        if c
    }
    assert sum(probs.values()) == 1
    return ExactDistribution(n, mode, N, probs)


def exact_drift(n: int, N: int, mode: str, max_states: int | None = None) -> Fraction:
    """E[K(w_N)] / N as an exact rational."""
    return exact_drift_series(n, N, mode, max_states)[-1]


def exact_drift_series(
    n: int, N: int, mode: str, max_states: int | None = None
) -> list[Fraction]:
    """
    [E[K(w_1)]/1, ..., E[K(w_N)]/N] from a single dynamic program; the
    group sequence starts at 1 and decreases toward the limit drift.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    table = _interned(n, N, mode, max_states)
    per_step = table.path_counts()
    lengths = [h.length for h in table.heaps]
    base = len(table.letters)
    out = []
    for t in range(1, N + 1):
        weighted = sum(c * k for c, k in zip(per_step[t], lengths))
        out.append(Fraction(weighted, base**t * t))
    return out


def exact_entropy(n: int, N: int, mode: str = GROUP, max_states: int | None = None) -> float:
    """
    Shannon entropy rate H(mu_N)/N of the exact N-step distribution.

    Path counts are exact integers; only the final logarithms are
    floating point: H = log D - (1/D) sum_w c_w log c_w with D the
    total path count.
    """
    table = _interned(n, N, mode, max_states)
    final = table.path_counts()[N]
    denom = len(table.letters) ** N
    acc = 0.0
    for c in final:
        if c > 1:
            acc += c * math.log(c)
    return (math.log(denom) - acc / denom) / N


def brute_restricted(r: int, K: int, s: int) -> int:
    """
    Direct enumeration behind restricted_syllable_count: tuples
    (e_1, ..., e_s) of nonzero classes of Z/rZ whose geodesic lengths
    geo(e) = min(e, r - e) sum to K. Each class counts once; its
    geodesic spelling is unique except for the class r/2 at even r,
    whose two spellings f^(r/2) and f^(-r/2) are the same element.
    """
    if r < 2 or r > 7:
        raise ValueError("brute enumeration supports 2 <= r <= 7")
    if K > 12:
        raise ValueError("brute enumeration supports K <= 12")
    if not 1 <= s <= K:
        return 0
    geo = [min(e, r - e) for e in range(r)]
    memo: dict[tuple[int, int], int] = {}

    def count(slots: int, remaining: int) -> int:
        if slots == 0:
            return 1 if remaining == 0 else 0
        if remaining < slots:  # every class has geodesic length >= 1
            return 0
        got = memo.get((slots, remaining))
        if got is None:
            got = sum(
                count(slots - 1, remaining - geo[e])
                for e in range(1, r)
                if geo[e] <= remaining
            )
            memo[slots, remaining] = got
        return got

    return count(s, K)
