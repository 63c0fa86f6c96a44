"""
Brute-force ground truth at small sizes.

Nothing in this module knows the counting formulas. All four variants
are heaps of pieces: a state is a tuple of columns, each a tuple of
(level, label) pieces in ascending level order, and a letter is pushed
by core._drop_push under the variant's merge rule for a removable top
piece of its column. The group cancels opposite colors and the
semigroup always stacks, exactly as core.push_letter does, so their
state is core.heap_from_word(w, n).columns. The projective semigroup
(f_i^2 = f_i) absorbs the letter into the piece; the restricted-order
quotient (f_i^r = 1) labels pieces by exponent classes in Z/rZ \\ {0},
adds the letter's class and deletes the piece when it reaches 0. Either
way the state is the normal form, so the tuple itself is the key and
key equality is element equality.

One breadth-first explorer interns every state within a number of
pushes. Cayley-ball censuses count its states by depth; exact walk
distributions come from dynamic programming with integer path counts
over the same table, with transition rows kept. Agreement between these
enumerations and the transfer-matrix counts is the central correctness
gate of the package.

Budgets are deliberately conservative and explicit. Callers may raise
them (the acceptance suite does, for the n=2 group at N=12 whose ball
holds about 1.06 million states), but exceeding a budget is an error,
never a silent truncation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from locfree import core
from locfree.core import GROUP, SEMIGROUP
from locfree.counting import PROJECTIVE, RESTRICTED, VARIANTS, _check_variant

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
    elements: dict[core.Columns, int]  # state columns tuple -> length

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class ExactDistribution:
    """Exact N-step distribution; probabilities are rationals summing to 1."""

    n: int
    mode: str
    steps: int
    probabilities: dict[core.Columns, Fraction]  # state columns tuple -> mass


def _letters(n: int, variant: str, r: int | None):
    """The variant's letters as (column, label) pushes, and its merge rule."""
    if variant == GROUP:
        labels, merge = (1, -1), core._cancel
    elif variant == SEMIGROUP:
        labels, merge = (1,), None
    elif variant == PROJECTIVE:
        labels, merge = (1,), lambda top, label: top  # f_i f_i = f_i
    else:
        labels, merge = (1 % r, -1 % r), lambda top, label: (top + label) % r
    return [(i, label) for i in range(1, n + 1) for label in labels], merge


class _Interned:
    """
    Every state within `steps` pushes of the identity, breadth first.

    states[sid] is the columns tuple, depth_of[sid] the push count that
    first reached it, which is its reduced length: every push changes
    the length by at most one. succ[sid] lists the successor ids in
    letter order (states first reached at full depth are not stepped
    from); rows=False keeps none and leaves succ None, for callers that
    read only the depths. max_states=None means BALL_STATE_BUDGET.
    """

    def __init__(
        self, n: int, steps: int, variant: str, r: int | None = None,
        max_states: int | None = None, rows: bool = True,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        budget = BALL_STATE_BUDGET if max_states is None else max_states
        letters, merge = _letters(n, variant, r)
        push = core._drop_push
        start = ((),) * n
        states = [start]
        ids = {start: 0}
        depth_of = [0]
        succ: list[tuple[int, ...]] = []
        frontier = [0]
        for depth in range(1, steps + 1):
            nxt = []
            for sid in frontier:
                state = states[sid]
                row = []
                for i, label in letters:
                    t = push(state, i, label, merge)
                    tid = ids.get(t)
                    if tid is None:
                        if len(states) >= budget:
                            raise BudgetExceeded(
                                f"{variant} states within {steps} pushes (n={n}) "
                                f"exceed {budget}"
                            )
                        tid = ids[t] = len(states)
                        states.append(t)
                        depth_of.append(depth)
                        nxt.append(tid)
                    row.append(tid)
                if rows:
                    succ.append(tuple(row))
            frontier = nxt
        if rows:
            succ.extend(() for _ in frontier)
            assert len(succ) == len(states)
        self.steps = steps
        self.base = len(letters)
        self.states = states
        self.depth_of = depth_of
        self.succ = succ if rows else None

    def path_counts(self) -> list[list[int]]:
        """counts[t][sid] = number of length-t letter paths ending at sid."""
        per_step = [[0] * len(self.states) for _ in range(self.steps + 1)]
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

        Each push adds a cell, so counts[t][w] must be 0 unless t is w's
        depth, where the recursion is checked; as every w - top_i is one
        shallower than w, the two checks imply the recursion at every t.
        """
        depth_of = self.depth_of  # nondecreasing: ids follow BFS order
        for t, row in enumerate(per_step):
            if any(row[: bisect_left(depth_of, t)]) or any(row[bisect_right(depth_of, t):]):
                raise AssertionError(f"path counts at step {t} off states of length {t}")
        ids = {cols: sid for sid, cols in enumerate(self.states)}
        for sid, cols in enumerate(self.states[1:], 1):
            t = depth_of[sid]
            expected = sum(
                per_step[t - 1][ids[cols[:i] + (cols[i][:-1],) + cols[i + 1:]]]
                for i, mark in enumerate(core._roof_marks(cols)) if mark
            )
            if per_step[t][sid] != expected:
                raise AssertionError(f"roof recursion fails at state {sid}, step {t}")


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
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table = _Interned(n, radius, variant, r, max_states, rows=False)
    return BallCensus(
        n, variant, r, radius,
        dict(Counter(table.depth_of)),
        dict(zip(table.states, table.depth_of)),
    )


# ---------------------------------------------------------------------------
# Exact walk distributions


def _interned(n: int, steps: int, mode: str, max_states: int | None) -> _Interned:
    if steps < 1:
        raise ValueError("N must be >= 1")
    if mode not in (GROUP, SEMIGROUP):
        raise ValueError("mode must be group or semigroup")
    n_cap, steps_cap = DEFAULT_DISTRIBUTION_LIMITS[mode]
    if max_states is None and (n > n_cap or steps > steps_cap):
        raise BudgetExceeded(
            f"exact {mode} distribution capped at n <= {n_cap}, N <= {steps_cap} "
            "by default; pass max_states to raise the budget"
        )
    return _Interned(n, steps, mode, max_states=max_states)


def exact_distribution(
    n: int, N: int, mode: str, max_states: int | None = None
) -> ExactDistribution:
    """
    The exact distribution after N uniform letter pushes: path counts
    over (2n)^N equally likely letter sequences (n^N in semigroup mode),
    as Fractions keyed by the state's columns tuple (the columns of
    core.heap_from_word). In semigroup mode the path counts are
    additionally checked against the roof recursion on every state
    before probabilities are formed.
    """
    table = _interned(n, N, mode, max_states)
    per_step = table.path_counts()
    if mode == SEMIGROUP:
        table.check_roof_recursion(per_step)
    denom = table.base**N
    probs = {
        table.states[sid]: Fraction(c, denom)
        for sid, c in enumerate(per_step[N])
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
    table = _interned(n, N, mode, max_states)
    per_step = table.path_counts()
    out = []
    for t in range(1, N + 1):
        weighted = sum(c * k for c, k in zip(per_step[t], table.depth_of))
        out.append(Fraction(weighted, table.base**t * t))
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
    denom = table.base**N
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
