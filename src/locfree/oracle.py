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

Cayley-ball counts (ball_counts) sum orbit sizes by layer. The exact
walk statistics come from dynamic programming with integer path counts
over the same table and its transition rows: exact_drift_series reads
the orbit masses, exact_entropy and exact_entropy_series the per-state
count mass/size of each orbit, and exact_distribution gives that count
to every state of the orbit, expanded by _orbit. Agreement between these
enumerations and the transfer-matrix counts is the central correctness
gate of the package.

The table keeps the breadth-first layers as one list of id bounds
(_Interned.starts), and step t of the path counts reads only the layers
up to t, a prefix of the ids: an orbit of layer d carries no mass before
step d. The steps' counts come one row at a time (_Interned.rows), and
every caller folds each row as it comes, holding two at most.
exact_distribution reads only the last row; in semigroup mode its roof
check folds the rows first, keeping of each only the counts of the
orbits at that row's depth, one list by id, and hands back the last
row. Once its roof and normalisation checks pass, exact_distribution
releases the state map and the transition rows before it expands the
orbits, and it shares one Fraction among all states with the same
per-state count.

States share their columns: the table pools one object per distinct
column (_Interned.pool), and the states exact_distribution returns take
their columns, flipped or not, from the pool and one flipped copy of
each pooled column. A stored orbit then costs its n-tuple, its id, its
transition row and its entries in the path-count rows, not fresh copies
of its columns and cells.

Budgets are deliberately conservative and explicit. max_states bounds
the orbits stored, and exact_distribution also bounds the states it
returns by it. Callers may raise them (the acceptance suite does, for
the n=2 group at N=12, whose ball holds about 1.06 million states in
132,867 orbits), but exceeding a budget is an error, never a silent
truncation: BudgetExceeded, a ValueError like every budget error of the
walk and counting modules. As memory: exact_drift_series(2, 12, GROUP)
peaks at 47 MB RSS, and at N = 13 (398,588 orbits) at 111 MB, about
250 B per orbit over the 16 MB of the interpreter with the package
loaded (CPython 3.11, x86-64), so BALL_STATE_BUDGET orbits take roughly
0.5 GB.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from locfree import core
from locfree.core import GROUP, PROJECTIVE, SEMIGROUP

# Default enumeration budgets (orbits); see module docstring.
BALL_STATE_BUDGET = 2_000_000
DEFAULT_DISTRIBUTION_LIMITS = {GROUP: (3, 8), SEMIGROUP: (4, 10)}


class BudgetExceeded(ValueError):
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


def _orbit(rep, flips):
    """
    Every state of the orbit of rep, each once: each column or its
    flip, then the reflection. flips maps each column of rep to its
    flipped column, itself where the flip fixes it, or is None where the
    variant has no flip. rep's columns are canonical, so its reflection
    lies in its flip orbit only if rep is its own reflection.
    """
    if flips is None:
        states = (rep,)
    else:
        choices = ((col,) if flips[col] is col else (col, flips[col]) for col in rep)
        states = itertools.product(*choices)
    if rep[::-1] == rep:
        yield from states
    else:
        for state in states:
            yield state
            yield state[::-1]


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

    states[sid] is the representative's columns tuple and sizes[sid]
    the orbit's size. ids maps each representative back to its id, and
    flip is the variant's label flip (see _letters). Ids are breadth
    first: layer d, the orbits that d pushes first reached, is the id
    range starts[d] <= sid < starts[d + 1] (d = 0, ..., steps; the last
    bound is len(states)), and d is the reduced length of every state
    of the orbit, as every push changes the length by at most one.
    succ[sid] lists the representative's successors as representative
    ids, in letter order and repeats included; the last layer is not
    stepped from, so succ ends at starts[steps]. Path counts are
    constant on orbits, so rows yields the orbit masses: the sums of the
    path counts over each orbit. budget bounds the orbits stored.

    pool maps each distinct column of the stored states to the one
    object they all hold. A new state differs from the state it was
    pushed from in the pushed column only, which _canonical may flip
    or carry to the mirror position, so one lookup pools it.
    """

    def __init__(
        self, n: int, steps: int, variant: str, r: int | None = None,
        budget: int = BALL_STATE_BUDGET,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.budget = budget
        letters, merge, flip = _letters(n, variant, r)
        push = core._drop_push
        canonical = _canonical
        start = ((),) * n
        pool = {(): ()}
        states = [start]
        ids = {start: 0}
        starts = [0, 1]
        succ: list[tuple[int, ...]] = []
        for _ in range(steps):
            for sid in range(starts[-2], starts[-1]):
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
                        # the pushed column is the only one not pooled: at
                        # n - i if the state was mirrored, else at i - 1
                        j = n - i if t[n - i] is not state[n - i] else i - 1
                        col = t[j]
                        pooled = pool.setdefault(col, col)
                        if pooled is not col:
                            t = list(t)
                            t[j] = pooled
                            t = tuple(t)
                        tid = ids[t] = len(states)
                        states.append(t)
                    row.append(tid)
                succ.append(tuple(row))
            starts.append(len(states))
        self.steps = steps
        self.base = len(letters)
        self.flip = flip
        self.states = states
        self.ids = ids
        self.starts = starts
        self.succ = succ
        self.pool = pool
        self.sizes = [_orbit_size(s, flip) for s in states]

    def flips(self) -> dict | None:
        """
        Each pooled column -> its flipped column, one object each and
        the column itself where the flip fixes it; None where the
        variant has no flip. Between them, the keys and values are the
        columns of every state of the stored orbits (see _orbit).
        """
        if self.flip is None:
            return None
        flips = {}
        for col in self.pool:
            other = _flipped(col, self.flip)
            flips[col] = col if other == col else other
        return flips

    def rows(self):
        """
        counts[t] for t = 0, ..., steps, one step at a time:
        counts[t][sid] = number of length-t letter paths ending in orbit
        sid. Only the row being built and the one before it are held.

        An orbit of layer d carries no mass before step d, so step t
        reads only the layers up to t: the ids below starts[t + 1].
        """
        cur = [0] * len(self.states)
        cur[0] = 1
        yield cur
        starts, succ = self.starts, self.succ
        for t in range(self.steps):
            nxt = [0] * len(self.states)
            for c, row in zip(cur[: starts[t + 1]], succ):
                if c:
                    for tid in row:
                        nxt[tid] += c
            cur = nxt
            yield cur

    def check_roof_recursion(self, rows) -> list[int]:
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

        rows yields the orbit masses of steps 0, 1, ... (as rows() does).
        Each row is checked for zeros off depth t as it arrives, and
        only its depth-t per-state counts are kept, in one list indexed
        by id; the last row is returned.
        """
        starts, states, ids, flip = self.starts, self.states, self.ids, self.flip
        counts: list[int] = []  # counts[sid]: per-state count at sid's own depth
        for t, row in enumerate(rows):
            lo, hi = starts[t], starts[t + 1]
            if any(row[:lo]) or any(row[hi:]):
                raise AssertionError(f"path counts at step {t} off states of length {t}")
            counts.extend(map(_per_state, row[lo:hi], self.sizes[lo:hi]))
        for t in range(1, self.steps + 1):
            for sid in range(starts[t], starts[t + 1]):
                cols = states[sid]
                expected = sum(
                    counts[ids[_canonical(cols[:i] + (cols[i][:-1],) + cols[i + 1:], i + 1, flip)]]
                    for i, mark in enumerate(core._roof_marks(cols)) if mark
                )
                if counts[sid] != expected:
                    raise AssertionError(f"roof recursion fails at state {sid}, step {t}")
        return row


def ball_counts(
    n: int,
    radius: int,
    variant: str,
    r: int | None = None,
    max_states: int = BALL_STATE_BUDGET,
) -> dict[int, int]:
    """
    length -> number of elements of that reduced length, for every
    length up to `radius`: the orbit sizes summed over each layer (its
    depth is the reduced length, since every push changes the minimal
    spelling by at most one letter). max_states bounds the orbits stored.
    """
    core._check_variant(variant, r)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table = _Interned(n, radius, variant, r, max_states)
    layers = enumerate(itertools.pairwise(table.starts))
    return {d: sum(table.sizes[lo:hi]) for d, (lo, hi) in layers if lo < hi}


# ---------------------------------------------------------------------------
# Exact walk distributions


def _interned(n: int, steps: int, mode: str, max_states: int | None) -> _Interned:
    if steps < 1:
        raise ValueError("N must be >= 1")
    core._check_mode(mode)
    n_cap, steps_cap = DEFAULT_DISTRIBUTION_LIMITS[mode]
    if max_states is None and (n > n_cap or steps > steps_cap):
        raise BudgetExceeded(
            f"exact {mode} walk statistics (distribution, drift, entropy) capped at "
            f"n <= {n_cap}, N <= {steps_cap} by default; pass max_states to raise the budget"
        )
    budget = BALL_STATE_BUDGET if max_states is None else max_states
    return _Interned(n, steps, mode, budget=budget)


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
    if mode == SEMIGROUP:
        final = table.check_roof_recursion(table.rows())
    else:
        final = next(itertools.islice(table.rows(), N, None))
    denom = table.base**N
    if sum(final) != denom:
        raise AssertionError(f"path counts at step {N} do not sum to {denom}")
    # free the state map and the transition rows before the Fractions
    # are built
    table.ids = table.succ = None
    support = sum(size for mass, size in zip(final, table.sizes) if mass)
    if support > table.budget:
        raise BudgetExceeded(
            f"{mode} distribution support of {support} states exceeds {table.budget}"
        )
    flips = table.flips()
    probs = {}
    shared: dict[int, Fraction] = {}  # one Fraction per distinct per-state count
    for rep, mass, size in zip(table.states, final, table.sizes):
        if mass:
            c = _per_state(mass, size)
            p = shared.get(c)
            if p is None:
                p = shared[c] = Fraction(c, denom)
            for state in _orbit(rep, flips):
                probs[state] = p
    return ExactDistribution(n, mode, N, probs)


def exact_drift_series(
    n: int, N: int, mode: str, max_states: int | None = None
) -> list[Fraction]:
    """
    [E[K(w_1)]/1, ..., E[K(w_N)]/N] from a single dynamic program; the
    group sequence starts at 1 and decreases toward the limit drift.
    The program runs over orbits: every state of layer d has length d,
    so E[K(w_t)] is the sum over layers of the layer's mass times d.
    """
    table = _interned(n, N, mode, max_states)
    layers = list(enumerate(itertools.pairwise(table.starts)))
    rows = table.rows()
    next(rows)  # step 0
    return [
        Fraction(sum(d * sum(masses[lo:hi]) for d, (lo, hi) in layers), table.base**t * t)
        for t, masses in enumerate(rows, 1)
    ]


def exact_entropy(n: int, N: int, mode: str = GROUP, max_states: int | None = None) -> float:
    """
    Shannon entropy rate H(mu_N)/N of the exact N-step distribution.

    Path counts are exact integers; only the final logarithms are
    floating point: H = log D - (1/D) sum_w c_w log c_w with D the
    total path count. Over orbits, each of the |O| states of orbit O
    carries c = C(O)/|O| of its mass C(O), so the sum is
    sum_O C(O) log(C(O)/|O|).
    """
    return exact_entropy_series(n, N, mode, max_states)[-1]


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
    series = []
    for t, masses in enumerate(rows, 1):
        denom = table.base**t
        acc = 0.0  # sum_O C(O) log(C(O)/|O|), see exact_entropy
        for mass, size in zip(masses, table.sizes):
            if mass and (c := _per_state(mass, size)) > 1:
                acc += mass * math.log(c)
        series.append((math.log(denom) - acc / denom) / t)
    return series


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

    @cache
    def count(slots: int, remaining: int) -> int:
        if slots == 0:
            return 1 if remaining == 0 else 0
        if remaining < slots:  # every class has geodesic length >= 1
            return 0
        return sum(
            count(slots - 1, remaining - geo[e]) for e in range(1, r) if geo[e] <= remaining
        )

    return count(s, K)
