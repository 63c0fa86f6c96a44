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
pushes, one table entry per symmetry orbit. The automorphism
f_i -> f_i^{-1} of one column (group and restricted variants; it maps
the restricted class e to -e mod r) and the reflection i -> n+1-i (all
variants) permute the letters of the uniform walk, so lengths and path
counts are constant on their orbits. The representative is the smallest
state of its orbit (_canonical), and _orbit_size gives the orbit's size.

Cayley-ball counts (ball_counts) sum orbit sizes by depth. The exact
walk statistics come from dynamic programming with integer path counts
over the same table, with transition rows kept: exact_drift_series reads
the orbit masses, exact_entropy and exact_entropy_series the per-state
count mass/size of each orbit, and exact_distribution gives that count
to every state of the orbit, expanded by _orbit. Agreement between these
enumerations and the transfer-matrix counts is the central correctness
gate of the package.

Step t of the path counts reads only the orbits of depth <= t, a prefix
of the breadth-first ids: an orbit of depth d carries no mass before
step d. The steps' counts come one row at a time (_Interned.rows), and
exact_drift_series, exact_entropy and exact_entropy_series fold each row
as it comes, holding two at most: for exact_entropy(4, 10, SEMIGROUP)
that took the tracemalloc peak from 26.1 MB to 21.5 MB. Only
exact_distribution keeps every row, for its roof check. Once its roof
and normalisation checks pass, it releases the state map, the
transition rows and every step's counts but the last before it expands
the orbits, and it shares one Fraction among all states with the same
per-state count. For exact_distribution(4, 10, SEMIGROUP) that took the peak RSS of a fresh Python 3.11 process from
61.2 MB to 48.1 MB, and the tracemalloc peak from 39.5 MB to 26.4 MB.

Budgets are deliberately conservative and explicit. max_states bounds
the orbits stored, and exact_distribution also bounds the states it
returns by it. Callers may raise them (the acceptance suite does, for
the n=2 group at N=12, whose ball holds about 1.06 million states in
132,867 orbits), but exceeding a budget is an error, never a silent
truncation.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from locfree import core
from locfree.core import GROUP, SEMIGROUP
from locfree.counting import PROJECTIVE, _check_variant

# Default enumeration budgets (orbits); see module docstring.
BALL_STATE_BUDGET = 2_000_000
DEFAULT_DISTRIBUTION_LIMITS = {GROUP: (3, 8), SEMIGROUP: (4, 10)}


class BudgetExceeded(RuntimeError):
    """An enumeration outgrew its configured state budget."""


@dataclass(frozen=True)
class ExactDistribution:
    """Exact N-step distribution; probabilities are rationals summing to 1."""

    n: int
    mode: str
    steps: int
    probabilities: dict[core.Columns, Fraction]  # state columns tuple -> mass


def _letters(n: int, variant: str, r: int | None):
    """
    The variant's letters as (column, label) pushes, its merge rule, and
    its label flip: flip[label] is the label of the inverse letter under
    the automorphism f_i -> f_i^{-1}, or flip is None where the variant
    has no such automorphism (semigroup, projective).
    """
    flip = None
    if variant == GROUP:
        labels, merge, flip = (1, -1), core._cancel, {1: -1, -1: 1}
    elif variant == SEMIGROUP:
        labels, merge = (1,), None
    elif variant == PROJECTIVE:
        labels, merge = (1,), lambda top, label: top  # f_i f_i = f_i
    else:  # at r = 2, f_i^{-1} = f_i: one label
        labels, merge = (1,) if r == 2 else (1, r - 1), lambda top, label: (top + label) % r
        flip = [-e % r for e in range(r)]
    return [(i, label) for i in range(1, n + 1) for label in labels], merge, flip


def _flipped(col, flip):
    return tuple((level, flip[c]) for level, c in col)


def _canonical(state, i: int, flip):
    """
    The orbit representative of a state whose columns other than column
    i (1-based) are already canonical.

    A column is canonical when it is the smaller of itself and its
    label-flipped copy. The two first differ at the first cell whose
    label is not its own flip, so that cell alone decides. The
    representative is then the smaller of the columns tuple and its
    reflection, which makes it the smallest state of its orbit.
    """
    if flip is not None:
        col = state[i - 1]
        for _, label in col:
            inverse = flip[label]
            if inverse != label:
                if inverse < label:
                    state = state[: i - 1] + (_flipped(col, flip),) + state[i:]
                break
    mirror = state[::-1]
    return mirror if mirror < state else state


def _orbit_size(state, flip) -> int:
    """
    2^(columns that their flip changes), times 2 unless the reflection
    lands in the same flip orbit. The flip changes every non-empty
    column except one of self-inverse cells only (class r/2 at even r),
    so the non-empty columns are counted first and those, where they
    can occur, taken off. The only label that can be its own flip is
    len(flip) // 2: r/2 of the restricted flip list, and 1 of the
    group's, whose flip is -1.
    """
    moved = 0
    if flip is not None:
        moved = len(state) - state.count(())
        half = len(flip) // 2
        if flip[half] == half:
            moved -= sum(1 for col in state if col and all(c == half for _, c in col))
    return 2**moved * (1 if state[::-1] == state else 2)


def _orbit(rep, flip) -> set:
    """Every state of the orbit of rep: each column or its flip, then the reflection."""
    if flip is None:
        return {rep, rep[::-1]}
    states = set(itertools.product(*({col, _flipped(col, flip)} for col in rep)))
    return states | {state[::-1] for state in states}


def _per_state(mass: int, size: int) -> int:
    """The path count of each state of an orbit, from the orbit's mass and size."""
    c, rest = divmod(mass, size)
    if rest:
        raise AssertionError(f"orbit mass {mass} is not a multiple of its size {size}")
    return c


class _Interned:
    """
    Every orbit within `steps` pushes of the identity, breadth first,
    one representative each.

    states[sid] is the representative's columns tuple, sizes[sid] the
    orbit's size, and depth_of[sid] the push count that first reached
    it, which is the reduced length of every state of the orbit: every
    push changes the length by at most one. ids maps each
    representative back to its id, and flip is the variant's label flip
    (see _letters). succ[sid] lists the representative's successors as
    representative ids, in letter order and repeats included (orbits
    first reached at full depth are not stepped from); rows=False keeps
    none and leaves succ None, for callers that read only the depths.
    Path counts are constant on orbits, so path_counts returns the orbit
    masses: the sums of the path counts over each orbit.
    max_states=None means BALL_STATE_BUDGET; it bounds the orbits
    stored.
    """

    def __init__(
        self, n: int, steps: int, variant: str, r: int | None = None,
        max_states: int | None = None, rows: bool = True,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        budget = BALL_STATE_BUDGET if max_states is None else max_states
        letters, merge, flip = _letters(n, variant, r)
        push = core._drop_push
        canonical = _canonical
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
                    t = canonical(push(state, i, label, merge), i, flip)
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
        self.steps = steps
        self.base = len(letters)
        self.flip = flip
        self.states = states
        self.ids = ids
        self.depth_of = depth_of
        self.succ = succ if rows else None
        self.sizes = [_orbit_size(s, flip) for s in states]

    def rows(self):
        """
        counts[t] for t = 0, ..., steps, one step at a time:
        counts[t][sid] = number of length-t letter paths ending in orbit
        sid. Only the row being built and the one before it are held.

        An orbit of depth d carries no mass before step d, so step t
        reads only the orbits of depth <= t: a prefix of the ids, which
        follow BFS order.
        """
        cur = [0] * len(self.states)
        cur[0] = 1
        yield cur
        depth_of, succ = self.depth_of, self.succ
        for t in range(self.steps):
            nxt = [0] * len(self.states)
            for c, row in zip(cur[: bisect_right(depth_of, t)], succ):
                if c:
                    for tid in row:
                        nxt[tid] += c
            cur = nxt
            yield cur

    def path_counts(self) -> list[list[int]]:
        """Every row of rows(), for the callers that need them all at once."""
        return list(self.rows())

    def check_roof_recursion(self, per_step) -> None:
        """
        Semigroup only: a length-t path ends at w iff its last push laid
        the top cell of some roof column, so the per-state path counts
        c = mass/size must obey

            c[t](w) = sum over roof columns i of c[t-1](w - top_i),

        checked at every representative w, with each w - top_i looked up
        through its own representative. Each push adds a cell, so the
        counts must be 0 unless t is w's depth, where the recursion is
        checked; as every w - top_i is one shallower than w, the two
        checks imply the recursion at every t. A mass that its orbit
        size does not divide fails the check too.
        """
        depth_of = self.depth_of  # nondecreasing: ids follow BFS order
        for t, row in enumerate(per_step):
            if any(row[: bisect_left(depth_of, t)]) or any(row[bisect_right(depth_of, t):]):
                raise AssertionError(f"path counts at step {t} off states of length {t}")
        ids, flip, sizes = self.ids, self.flip, self.sizes
        counts = [_per_state(per_step[t][sid], sizes[sid]) for sid, t in enumerate(depth_of)]
        for sid, cols in enumerate(self.states[1:], 1):
            expected = sum(
                counts[ids[_canonical(cols[:i] + (cols[i][:-1],) + cols[i + 1:], i + 1, flip)]]
                for i, mark in enumerate(core._roof_marks(cols)) if mark
            )
            if counts[sid] != expected:
                raise AssertionError(f"roof recursion fails at state {sid}, step {depth_of[sid]}")


def ball_counts(
    n: int,
    radius: int,
    variant: str,
    r: int | None = None,
    max_states: int = BALL_STATE_BUDGET,
) -> dict[int, int]:
    """
    length -> number of elements of that reduced length, for every
    length up to `radius`: the orbit sizes summed by depth (= reduced
    length, since every push changes the minimal spelling by at most
    one letter). max_states bounds the orbits stored.
    """
    _check_variant(variant, r)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table = _Interned(n, radius, variant, r, max_states, rows=False)
    counts: dict[int, int] = {}
    for depth, size in zip(table.depth_of, table.sizes):
        counts[depth] = counts.get(depth, 0) + size
    return counts


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
    core.heap_from_word). The program runs over orbits; each state of
    orbit O gets C(O)/|O| of the orbit mass C(O). max_states bounds both
    the orbits stored and the states returned. In semigroup mode the
    path counts are additionally checked against the roof recursion on
    every orbit before probabilities are formed.
    """
    table = _interned(n, N, mode, max_states)
    per_step = table.path_counts()
    if mode == SEMIGROUP:
        table.check_roof_recursion(per_step)
    denom = table.base**N
    final = per_step[N]
    if sum(final) != denom:
        raise AssertionError(f"path counts at step {N} do not sum to {denom}")
    # free the state map, the transition rows and the earlier steps'
    # counts before the Fractions are built
    table.ids = table.succ = per_step = None
    budget = BALL_STATE_BUDGET if max_states is None else max_states
    support = sum(size for mass, size in zip(final, table.sizes) if mass)
    if support > budget:
        raise BudgetExceeded(f"{mode} distribution support of {support} states exceeds {budget}")
    probs = {}
    shared: dict[int, Fraction] = {}  # one Fraction per distinct per-state count
    for rep, mass, size in zip(table.states, final, table.sizes):
        if mass:
            c = _per_state(mass, size)
            p = shared.get(c)
            if p is None:
                p = shared[c] = Fraction(c, denom)
            probs.update(dict.fromkeys(_orbit(rep, table.flip), p))
    return ExactDistribution(n, mode, N, probs)


def exact_drift_series(
    n: int, N: int, mode: str, max_states: int | None = None
) -> list[Fraction]:
    """
    [E[K(w_1)]/1, ..., E[K(w_N)]/N] from a single dynamic program; the
    group sequence starts at 1 and decreases toward the limit drift.
    The program runs over orbits: every state of an orbit has the same
    length, so E[K(w_t)] is the sum of orbit mass times length.
    """
    table = _interned(n, N, mode, max_states)
    rows = table.rows()
    next(rows)  # step 0
    return [
        Fraction(sum(c * k for c, k in zip(masses, table.depth_of)), table.base**t * t)
        for t, masses in enumerate(rows, 1)
    ]


def _entropy_rate(masses: list[int], table: _Interned, t: int) -> float:
    """H(mu_t)/t from the orbit masses of step t; see exact_entropy."""
    denom = table.base**t
    acc = 0.0
    for mass, size in zip(masses, table.sizes):
        c = _per_state(mass, size)
        if c > 1:
            acc += mass * math.log(c)
    return (math.log(denom) - acc / denom) / t


def exact_entropy(n: int, N: int, mode: str = GROUP, max_states: int | None = None) -> float:
    """
    Shannon entropy rate H(mu_N)/N of the exact N-step distribution.

    Path counts are exact integers; only the final logarithms are
    floating point: H = log D - (1/D) sum_w c_w log c_w with D the
    total path count. Over orbits, each of the |O| states of orbit O
    carries c = C(O)/|O| of its mass C(O), so the sum is
    sum_O C(O) log(C(O)/|O|).
    """
    table = _interned(n, N, mode, max_states)
    return _entropy_rate(next(itertools.islice(table.rows(), N, None)), table, N)


def exact_entropy_series(
    n: int, N: int, mode: str, max_states: int | None = None
) -> list[float]:
    """
    [H(mu_1)/1, ..., H(mu_N)/N] from a single dynamic program; entry
    t - 1 equals exact_entropy(n, t, mode) bit for bit.
    """
    table = _interned(n, N, mode, max_states)
    rows = table.rows()
    next(rows)  # step 0
    return [_entropy_rate(masses, table, t) for t, masses in enumerate(rows, 1)]


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
