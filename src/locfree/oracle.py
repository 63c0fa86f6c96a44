"""
Brute-force ground truth at small sizes.

Nothing in this module knows the counting formulas. All four variants
are heaps of pieces: a state is a tuple of columns, each a tuple of
(level, label) pieces in ascending level order, and a letter's piece
drops to one above the highest top among its column and the two beside
it, and lands by core._land under the variant's merge rule for a
removable top piece of its column. The group cancels opposite colors
and the semigroup always stacks, exactly as core.push_letter does, so
their state is core.heap_from_word(w, n).columns. The projective semigroup
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
state of its orbit, and _orbit_sizes gives the orbits' sizes.

Cayley-ball counts (ball_counts) sum orbit sizes by layer. The exact
walk statistics come from dynamic programming with integer path counts
over the same table and its transition rows: exact_drift_series reads
the orbit masses, exact_entropy and exact_entropy_series the per-state
count mass/size of each orbit, and exact_distribution gives that count
to every state of the orbit. Agreement between these enumerations and
the transfer-matrix counts is the central correctness gate of the
package.

The table is a set of numpy arrays over one column pool (_Pool): one
object per distinct column, with its top level, its reduced length and
whether its flip changes it. A representative is a row of int32 column
ids, and each breadth-first layer a block of rows; the layers are kept
as one list of id bounds (_Interned.starts). A whole layer is stepped
at once: the drop levels come from the tops, core._land lands each
distinct (column, drop level, label) once, and the new states are
numbered by exact int64 codes of their rows (_codes), in the order the
one-state-at-a-time explorer would number them. Step t of the path
counts reads only the layers up to t, a prefix of the ids: an orbit of
layer d carries no mass before step d. The counts are exact integers,
int64 arrays while the largest possible count fits and Python ints
past it; they come one row at a time (_Interned.rows), and every caller
folds each row as it comes, holding two at most. exact_distribution
reads only the last row; in semigroup mode its roof check folds the
rows first, keeping of each only the counts of the orbits at that row's
depth, and hands back the last row. Once its roof and normalisation
checks pass, exact_distribution releases the table's arrays and
expands only the orbits that carry mass: each state of an orbit takes
every column of the representative or its flip (_Pool.choices), and
then its reflection. One Fraction is shared among all states with the
same per-state count.

Budgets are deliberately conservative and explicit. max_states bounds
the orbits stored, and exact_distribution also bounds the states it
returns by it. Callers may raise them (the acceptance suite does, for
the n=2 group at N=12, whose ball holds about 1.06 million states in
132,867 orbits), but exceeding a budget is an error, never a silent
truncation: BudgetExceeded, a ValueError like every budget error of the
walk and counting modules. As memory: exact_drift_series(2, 12, GROUP)
peaks at 46 MB RSS, and at N = 13 (398,588 orbits) at 76 MB, about
120 B per orbit over the 28 MB of the interpreter with the module and
numpy loaded (ru_maxrss, CPython 3.11, numpy 2.4, x86-64), so
BALL_STATE_BUDGET orbits take roughly 0.3 GB.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

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
    The variant's letters as (column, label) pushes, its merge rule, its
    label flip and its column length rule. flip[label] is the label of
    the inverse letter under the automorphism f_i -> f_i^{-1}, or flip is
    None where the variant has no such automorphism (semigroup,
    projective). length(col) is the reduced length of a column: its
    piece count, or for the restricted variant the sum of the geodesic
    lengths min(e, r - e) of its classes.
    """
    flip, length = None, len
    if variant == GROUP:
        labels, merge, flip = (1, -1), core._cancel, {1: -1, -1: 1}
    elif variant == SEMIGROUP:
        labels, merge = (1,), None
    elif variant == PROJECTIVE:
        labels, merge = (1,), lambda top, label: top  # f_i f_i = f_i
    else:  # at r = 2, f_i^{-1} = f_i: one label
        labels, merge = (1,) if r == 2 else (1, r - 1), lambda top, label: (top + label) % r
        flip = [-e % r for e in range(r)]
        length = lambda col: sum(min(e, r - e) for _, e in col)
    return [(i, label) for i in range(1, n + 1) for label in labels], merge, flip, length


def _flipped(col, flip):
    return tuple((level, flip[c]) for level, c in col)


def _orbit_sizes(states, moves):
    """
    The orbit size of each representative (a row of column ids):
    2^(its columns that their flip changes, moves[column id] true),
    times 2 unless the reflection fixes it. The columns of a
    representative are canonical, so its reflection lies in its flip
    orbit only if it is its own reflection.
    """
    moved = moves[states].sum(axis=1, dtype=np.int64)
    mirrored = (states != states[:, ::-1]).any(axis=1)
    return np.int64(1) << (moved + mirrored)


def _per_state(masses, sizes):
    """The path count of each state of some orbits, from the orbits' masses and sizes."""
    bad = np.flatnonzero(masses % sizes)
    if len(bad):
        i = bad[0]
        raise AssertionError(f"orbit mass {masses[i]} is not a multiple of its size {sizes[i]}")
    return masses // sizes


def _neighbours(tops):
    """The top levels left and right of each column of tops (states x columns), 0 at the edges."""
    edged = np.zeros((len(tops), tops.shape[1] + 2), tops.dtype)
    edged[:, 1:-1] = tops
    return edged[:, :-2], edged[:, 2:]


def _roof_mask(tops):
    """
    The roof of each state, from its columns' top levels (states x
    columns, 0 for an empty column): the non-empty columns whose top
    level is >= their neighbours'.
    """
    left, right = _neighbours(tops)
    return (tops > 0) & (tops >= left) & (tops >= right)


def _reflect_smaller(states, rank) -> None:
    """
    Replace each row of states (ids of canonical columns) by its
    reflection where that is the smaller state, in place. rank[c] is
    column c's place in the lexicographic order of the pooled columns,
    so the first position where a row and its reflection differ in rank
    decides, as it does between the columns tuples.
    """
    ranks = rank[states]
    back = ranks[:, ::-1]
    first = (ranks != back).argmax(axis=1)
    at = np.arange(len(states))
    swap = back[at, first] < ranks[at, first]
    states[swap] = states[swap, ::-1]


def _codes(rows, radix: int):
    """
    One int64 per row of ints in [0, radix), equal exactly where the
    rows are equal: each row read as a base-radix number. Before the
    number could pass 2^63 it is replaced by its rank among the distinct
    values so far, so the codes stay exact at any row width.
    """
    codes = np.zeros(len(rows), np.int64)
    bound = 1  # every code is below bound
    for j in range(rows.shape[1]):
        if bound * radix > 2**63:
            distinct, codes = np.unique(codes, return_inverse=True)
            bound = len(distinct)
        codes = codes * radix + rows[:, j]
        bound *= radix
    return codes


def _find(known, queries, radix: int):
    """
    For each row of queries, the index of the equal row of known (whose
    rows are distinct), or -1 where known holds none. Entries of both
    lie in [0, radix).
    """
    codes = _codes(np.concatenate([known, queries]), radix)
    keys, asked = codes[: len(known)], codes[len(known):]
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys, asked, sorter=order), len(keys) - 1)
    found = order[at]
    return np.where(keys[found] == asked, found, -1)


class _Pool:
    """
    The columns of the stored states, one entry each: cols[c] is the
    column with id c (id 0 the empty column), one object per distinct
    column, and index maps each column back to its id. flip and length
    are the variant's label flip and column length rule, from _letters.
    Every pooled column is canonical, the smaller of itself and its
    flip. tops[c] and lengths[c] are the column's top level and reduced
    length, and moves[c] whether the flip changes it.
    """

    def __init__(self, flip, length):
        self.flip, self.length = flip, length
        self.cols, self.tops, self.lengths, self.moves = [], [], [], []
        self.index = {}
        self.intern(())

    def intern(self, col) -> int:
        """
        The id of col's canonical form, pooled if new. The column and its
        flip first differ at the first cell whose label is not its own
        flip, so that cell alone decides.
        """
        moves = False
        if self.flip is not None:
            for _, label in col:
                inverse = self.flip[label]
                if inverse != label:
                    moves = True
                    if inverse < label:
                        col = _flipped(col, self.flip)
                    break
        cid = self.index.get(col)
        if cid is None:
            cid = self.index[col] = len(self.cols)
            self.cols.append(col)
            self.tops.append(col[-1][0] if col else 0)
            self.lengths.append(self.length(col))
            self.moves.append(moves)
        return cid

    def choices(self) -> dict | None:
        """
        Each pooled column -> (col,) where the flip fixes it, (col, its
        flipped column) where the flip changes it; None where the variant
        has no flip. Built on demand: the choices of a representative's
        columns give every state of its flip orbit.
        """
        if self.flip is None:
            return None
        return {
            col: (col, _flipped(col, self.flip)) if moves else (col,)
            for col, moves in zip(self.cols, self.moves)
        }

    def ranks(self):
        """rank[c]: the place of column c in the lexicographic order of the pool."""
        order = sorted(range(len(self.cols)), key=self.cols.__getitem__)
        rank = np.empty(len(order), np.int32)
        rank[order] = np.arange(len(order))
        return rank


class _Interned:
    """
    Every orbit within `steps` pushes of the identity, breadth first,
    one representative each.

    A representative is a row of ids into one column pool (_Pool):
    states[sid], an int32 array with one row per orbit, holds those of
    orbit sid, and sizes[sid] is the orbit's size. Its columns are
    canonical, and it is the smaller of its columns tuple and its
    reflection, which makes it the smallest state of its orbit; pool.cols
    gives the columns by id.

    Ids are breadth first: layer d, the orbits that d pushes first
    reached, is the id range starts[d] <= sid < starts[d + 1] (d = 0,
    ..., steps; the last bound is len(states)), and d is the reduced
    length of every state of the orbit, as every push changes the
    length by at most one. succ[sid] (an int32 array with one column
    per letter) lists the representative's successors as
    representative ids, in letter order and repeats included; the last
    layer is not stepped from, so succ ends at starts[steps]. Path
    counts are constant on orbits, so rows yields the orbit masses: the
    sums of the path counts over each orbit. budget bounds the orbits
    stored; None means BALL_STATE_BUDGET.
    """

    def __init__(
        self, n: int, steps: int, variant: str, r: int | None = None,
        budget: int | None = None,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.budget = budget = BALL_STATE_BUDGET if budget is None else budget
        letters, self.merge, flip, length = _letters(n, variant, r)
        self.base = len(letters)
        self.at = np.array([i - 1 for i, _ in letters])  # the column each letter pushes
        self.labels = sorted({label for _, label in letters})
        self.kind = np.array([self.labels.index(label) for _, label in letters])
        self.pool = _Pool(flip, length)
        layers = [np.zeros((1, n), np.int32)]
        starts = [0, 1]
        succ = []
        for d in range(steps):
            fresh, row = self._step(layers, starts, d)
            if starts[-1] + len(fresh) > budget:
                raise BudgetExceeded(
                    f"{variant} states within {steps} pushes (n={n}) exceed {budget}"
                )
            layers.append(fresh)
            starts.append(starts[-1] + len(fresh))
            succ.append(row)
        self.steps = steps
        self.states = np.concatenate(layers)
        self.starts = starts
        self.succ = np.concatenate(succ) if succ else np.zeros((0, self.base), np.int32)
        self.sizes = _orbit_sizes(self.states, np.array(self.pool.moves))
        # exact integers: int64 while base^steps, the largest mass, fits
        self.dtype = np.int64 if self.base**steps < 2**63 else object

    def _pushed_columns(self, layer, d: int):
        """
        The column ids before and after each push onto each state of
        layer d, both (states, letters). The drop levels come from the
        tops, and each distinct (column, drop level, label) lands its
        cell through core._land once.
        """
        pool = self.pool
        top = np.array(pool.tops, np.int32)[layer]
        left, right = _neighbours(top)
        drops = 1 + np.maximum(np.maximum(left, top), right)
        old = layer[:, self.at]
        # levels are at most d, so each drop level is below d + 2
        keys = (old * np.int64(d + 2) + drops[:, self.at]) * len(self.labels) + self.kind
        distinct, inverse = np.unique(keys, return_inverse=True)
        landed = []
        for key in distinct.tolist():
            rest, label = divmod(key, len(self.labels))
            c, drop = divmod(rest, d + 2)
            col = core._land(pool.cols[c], drop, self.labels[label], self.merge)
            landed.append(pool.intern(col))
        # numpy 2 shapes the inverse like keys, numpy 1 flat
        return old, np.array(landed, np.int32)[inverse.ravel()].reshape(old.shape)

    def _step(self, layers, starts, d: int):
        """
        Push every letter onto every state of layer d at once: the new
        layer d + 1 and the successor rows of layer d.

        A pushed state is one longer exactly when its new column is:
        those are layer d + 1, numbered in the order of their first push
        (states in id order, letters in order), and the others are
        looked up in layers d - 1 and d. Both go by exact codes of the
        rows (_codes).
        """
        pool, layer = self.pool, layers[-1]
        m, n = layer.shape
        old, new = self._pushed_columns(layer, d)
        lengths = np.array(pool.lengths, np.int32)
        grown = (lengths[new] > lengths[old]).ravel()
        pushed = np.repeat(layer, self.base, axis=0).reshape(m, self.base, n)
        pushed[np.arange(m)[:, None], np.arange(self.base), self.at] = new
        del old, new
        pushed = pushed.reshape(m * self.base, n)
        _reflect_smaller(pushed, pool.ranks())
        targets = np.empty(m * self.base, np.int32)
        fresh = pushed[grown]
        _, first, inverse = np.unique(
            _codes(fresh, len(pool.cols)), return_index=True, return_inverse=True
        )
        order = np.argsort(first)  # the new orbits by their first push
        place = np.empty(len(order), np.int32)
        place[order] = np.arange(starts[-1], starts[-1] + len(order))
        targets[grown] = place[inverse]
        if not grown.all():
            found = _find(np.concatenate(layers[-2:]), pushed[~grown], len(pool.cols))
            if (found < 0).any():
                raise AssertionError(f"a push from layer {d} left the stored layers")
            targets[~grown] = starts[max(d - 1, 0)] + found
        return fresh[first[order]], targets.reshape(m, self.base)

    def rows(self):
        """
        counts[t] for t = 0, ..., steps, one step at a time:
        counts[t][sid] = number of length-t letter paths ending in orbit
        sid, an array of exact integers. Only the row being built and
        the one before it are held.

        An orbit of layer d carries no mass before step d, so step t
        reads only the layers up to t: the ids below starts[t + 1].
        """
        cur = np.zeros(len(self.states), self.dtype)
        cur[0] = 1
        yield cur
        for t in range(self.steps):
            hi = self.starts[t + 1]
            nxt = np.zeros(len(self.states), self.dtype)
            np.add.at(nxt, self.succ[:hi], cur[:hi, None])
            cur = nxt
            yield cur

    def check_roof_recursion(self, rows):
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
        only its depth-t per-state counts are kept, in one array indexed
        by id; the last row is returned. The roof of a layer comes from
        its tops (_roof_mask), and w - top_i from the pool id of column
        i without its top cell; all of a layer's w - top_i are looked up
        in the layer above at once.
        """
        starts, states = self.starts, self.states
        counts = np.zeros(len(states), self.dtype)  # per-state count at each id's own depth
        for t, row in enumerate(rows):
            lo, hi = starts[t], starts[t + 1]
            if row[:lo].any() or row[hi:].any():
                raise AssertionError(f"path counts at step {t} off states of length {t}")
            counts[lo:hi] = _per_state(row[lo:hi], self.sizes[lo:hi])
        # a column whose pop is not pooled keeps its own id: its w - top_i
        # is then w itself, which the layer above does not hold
        pool = self.pool
        popped = np.array([pool.index.get(col[:-1], c) for c, col in enumerate(pool.cols)])
        tops, rank = np.array(pool.tops, np.int32), pool.ranks()
        for t in range(1, self.steps + 1):
            above, lo, hi = starts[t - 1], starts[t], starts[t + 1]
            layer = states[lo:hi]
            w, i = np.nonzero(_roof_mask(tops[layer]))
            pred = layer[w]
            pred[np.arange(len(w)), i] = popped[layer[w, i]]
            _reflect_smaller(pred, rank)
            found = _find(states[above:lo], pred, len(pool.cols))
            expected = np.zeros(hi - lo, self.dtype)
            np.add.at(expected, w, counts[above + found])
            wrong = expected != counts[lo:hi]
            wrong[w[found < 0]] = True
            if wrong.any():
                sid = lo + int(np.argmax(wrong))
                raise AssertionError(f"roof recursion fails at state {sid}, step {t}")
        return row


def ball_counts(
    n: int,
    radius: int,
    variant: str,
    r: int | None = None,
    max_states: int | None = None,
) -> dict[int, int]:
    """
    length -> number of elements of that reduced length, for every
    length up to `radius`: the orbit sizes summed over each layer (its
    depth is the reduced length, since every push changes the minimal
    spelling by at most one letter). max_states bounds the orbits
    stored; None means BALL_STATE_BUDGET.
    """
    core._check_variant(variant, r)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    table = _Interned(n, radius, variant, r, max_states)
    layers = enumerate(itertools.pairwise(table.starts))
    return {d: int(table.sizes[lo:hi].sum()) for d, (lo, hi) in layers if lo < hi}


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
    return _Interned(n, steps, mode, budget=max_states)


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
    if final.sum() != denom:
        raise AssertionError(f"path counts at step {N} do not sum to {denom}")
    live = np.flatnonzero(final)  # only the orbits that carry mass are expanded
    sizes = table.sizes[live]
    support = int(sizes.sum())
    if support > table.budget:
        raise BudgetExceeded(
            f"{mode} distribution support of {support} states exceeds {table.budget}"
        )
    per_state = _per_state(final[live], sizes)
    reps = table.states[live].T
    cols, choices = table.pool.cols, table.pool.choices()
    del table, final, sizes  # free the table's arrays before the Fractions are built
    probs = {}
    shared: dict[int, Fraction] = {}  # one Fraction per distinct per-state count
    # zip makes each representative's columns tuple, position by position
    for rep, c in zip(zip(*(map(cols.__getitem__, ids) for ids in reps)), map(int, per_state)):
        p = shared.get(c)
        if p is None:
            p = shared[c] = Fraction(c, denom)
        # rep's columns are canonical, so its reflection lies in its flip
        # orbit only if rep is its own reflection
        mirrored = rep[::-1] != rep
        states = (rep,) if choices is None else itertools.product(*map(choices.__getitem__, rep))
        for state in states:
            probs[state] = p
            if mirrored:
                probs[state[::-1]] = p
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
        Fraction(sum(d * int(masses[lo:hi].sum()) for d, (lo, hi) in layers), table.base**t * t)
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
    t - 1 equals exact_entropy(n, t, mode) bit for bit. Step t sums over
    the ids below starts[t + 1] only: deeper orbits carry no mass yet.
    """
    table = _interned(n, N, mode, max_states)
    rows = table.rows()
    next(rows)  # step 0
    series = []
    for t, masses in enumerate(rows, 1):
        hi = table.starts[t + 1]
        denom = table.base**t
        per_state = _per_state(masses[:hi], table.sizes[:hi]).tolist()
        acc = 0.0  # sum_O C(O) log(C(O)/|O|), see exact_entropy
        for mass, c in zip(masses[:hi].tolist(), per_state):
            if c > 1:
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
