"""
Words, colored heaps, and normal forms for the locally free group LF_n
and its positive semigroup LF_n^+.

LF_n is the group on generators f_1, ..., f_n subject only to the
commutation relations f_i f_j = f_j f_i for |i - j| >= 2; neighboring
generators (|i - j| = 1) satisfy no relation at all. Every element has a
unique normal form

    w = f_{a_1}^{m_1} f_{a_2}^{m_2} ... f_{a_s}^{m_s},    m_t != 0,

whose index sequence obeys the succession rules: after index 1 the next
index lies in {2, ..., n}; after index k with 2 <= k <= n-1 the next
index is either k-1 or lies in {k+1, ..., n}; after index n only n-1 may
follow. The reduced length of w is K(w) = sum |m_t|.

Elements are stored here as colored heaps: stacks of unit cells in an
n-column strip, one column per generator index. Pushing the letter
f_i^s drops a cell into column i from above; it comes to rest one level
above the highest cell among columns i-1, i, i+1, and is colored by the
sign s. In group mode the push cancels instead of landing when the cell
it would rest on sits in the same column, is currently removable (top of
its three-column neighborhood), and carries the opposite color. The heap
is the canonical object: two words spell the same element iff they build
the same heap, so heap equality is group-element equality and the cell
count is the reduced length.

A valid heap satisfies, and every operation here preserves:

  1. no two cells in horizontally adjacent columns share a level;
  2. every cell above level 1 rests on a cell one level below in
     columns i-1, i, or i+1;
  3. vertically touching cells in one column share a color (and in
     semigroup mode every color is +1).

The roof of a heap is the set of columns whose top cell has no cell at
the same or greater level in an adjacent column; exactly these top cells
can be removed (by multiplying with the inverse letter) while leaving a
valid heap, so the roof is the set of achievable generators and its
size drives the drift and entropy estimators in the walk module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import NamedTuple

GROUP = "group"
SEMIGROUP = "semigroup"

MODES = (GROUP, SEMIGROUP)

# The two quotients that only counting and the oracle know: the
# projective semigroup (f_i^2 = f_i) and the restricted-order quotient
# (f_i^r = 1).
PROJECTIVE = "projective"
RESTRICTED = "restricted"

VARIANTS = (GROUP, SEMIGROUP, PROJECTIVE, RESTRICTED)

# A cell is (level, color) with level >= 1 and color in {+1, -1}.
Cell = tuple[int, int]
# columns[i] holds the cells of column i+1 in ascending level order.
Columns = tuple[tuple[Cell, ...], ...]


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def _check_variant(variant: str, r) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == RESTRICTED:
        if r is None or r < 2:
            raise ValueError("restricted variant requires r >= 2")
    elif r is not None:
        raise ValueError("r is only meaningful for the restricted variant")


class Letter(NamedTuple):
    """A generator letter f_index^sign, sign in {+1, -1}: an (index, sign) pair."""

    index: int
    sign: int = 1

    def inverse(self) -> "Letter":
        return Letter(self.index, -self.sign)


class Syllable(NamedTuple):
    """A maximal run f_index^exponent in a normal form; exponent != 0."""

    index: int
    exponent: int


@dataclass(frozen=True)
class NormalWord:
    """A syllable spelling whose index sequence obeys the succession rules."""

    syllables: tuple[Syllable, ...]
    n: int

    @property
    def length(self) -> int:
        """Reduced length K = sum of |exponent| over syllables."""
        return sum(abs(s.exponent) for s in self.syllables)

    def letters(self) -> list[Letter]:
        """Letter-by-letter spelling, one Letter per unit of length."""
        out: list[Letter] = []
        for s in self.syllables:
            out += [Letter(s.index, 1 if s.exponent > 0 else -1)] * abs(s.exponent)
        return out


def succession_allowed(n: int, a: int, b: int) -> bool:
    """
    May syllable index b directly follow index a in a normal form on n
    columns? The three cases of the module docstring in one rule: b is
    a - 1 or lies above a (after 1 nothing lies below, after n nothing
    above).
    """
    return 1 <= a <= n and 1 <= b <= n and (b == a - 1 or b > a)


def validate_normal_word(word: NormalWord) -> None:
    """Raise ValueError unless the word satisfies all normal-form invariants."""
    n = word.n
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    prev = None
    for s in word.syllables:
        if not 1 <= s.index <= n:
            raise ValueError(f"syllable index {s.index} out of range 1..{n}")
        if s.exponent == 0:
            raise ValueError("syllable exponent must be nonzero")
        if prev is not None and not succession_allowed(n, prev, s.index):
            raise ValueError(f"index {s.index} may not follow {prev} (n={n})")
        prev = s.index


@dataclass(frozen=True)
class ColoredHeap:
    """
    Immutable heap of colored cells in an n-column strip.

    columns[i] is the stack of cells of column i+1 in ascending level
    order. Levels are stored explicitly (not inferred from stack
    position) so neighbor comparisons are O(1) per column. The empty
    heap is the group identity.
    """

    n: int
    mode: str = GROUP
    columns: Columns = ()

    def __post_init__(self):
        if type(self.n) is not int:  # bool is an int subclass
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _check_mode(self.mode)
        if not self.columns:
            object.__setattr__(self, "columns", ((),) * self.n)
        elif len(self.columns) != self.n:
            raise ValueError("columns length must equal n")

    @property
    def length(self) -> int:
        """Cell count = reduced word length K(w)."""
        return sum(len(col) for col in self.columns)

    @property
    def is_empty(self) -> bool:
        return all(not col for col in self.columns)


def _land(col, drop: int, label: int, merge=None):
    """
    The column `col` after a piece labelled `label` lands on it at level
    `drop`. When the column's own top piece sits just below the drop
    level (it is the unique maximum of its neighborhood, hence
    removable), the letter may merge into it instead: merge(top label,
    label) returns None to stack the new piece anyway, 0 to delete the
    top piece, or the top piece's new label. merge=None always stacks.
    The one landing rule: _push_all and the oracle's layer steps both
    land every piece here.
    """
    mid = col[-1][0] if col else 0
    merged = merge(col[-1][1], label) if merge and col and mid == drop - 1 else None
    if merged is None:
        return col + ((drop, label),)
    if merged == 0:
        return col[:-1]
    return col[:-1] + ((mid, merged),)


def _cancel(top: int, sign: int) -> int | None:
    """Group merge rule: a letter deletes a removable top cell of the opposite color."""
    return 0 if top == -sign else None


def _push_all(heap: ColoredHeap, letters) -> ColoredHeap:
    """
    Left fold of the letters over a list of the heap's columns, checking
    each letter, with one ColoredHeap built at the end. tops[i] is the
    top level of column i, with 0 sentinels at tops[0] and tops[n + 1];
    a letter f_i^s drops to one above the highest of tops[i - 1..i + 1]
    and lands by _land. Each letter is an (index, sign) pair of ints, a
    Letter or a bare tuple; anything else, a bare int, a float or a bool
    among them, raises ValueError.
    """
    n, mode = heap.n, heap.mode
    merge = _cancel if mode == GROUP else None
    semigroup = mode == SEMIGROUP
    cols = list(heap.columns)
    tops = [0, *(col[-1][0] if col else 0 for col in cols), 0]
    for letter in letters:
        try:
            i, s = letter
        except (TypeError, ValueError):
            raise ValueError(f"a letter is an (index, sign) pair, got {letter!r}") from None
        if type(i) is not int or type(s) is not int:  # bool is an int subclass
            raise ValueError(f"letter index and sign must be ints, got {letter!r}")
        if not 1 <= i <= n:
            raise ValueError(f"letter index {i} out of range 1..{n}")
        if s != 1:
            if s != -1:
                raise ValueError("letter sign must be +1 or -1")
            if semigroup:
                raise ValueError("semigroup heaps accept only positive letters")
        drop = tops[i - 1]  # the highest of the three tops, without a call of max
        if tops[i] > drop:
            drop = tops[i]
        if tops[i + 1] > drop:
            drop = tops[i + 1]
        col = _land(cols[i - 1], drop + 1, s, merge)
        cols[i - 1] = col
        tops[i] = col[-1][0] if col else 0
    return ColoredHeap(n, mode, tuple(cols))


def push_letter(heap: ColoredHeap, letter: Letter) -> ColoredHeap:
    """
    Heap of w * f_i^s given the heap of w.

    The arriving cell, colored s, drops to one above the highest top
    among columns i-1, i and i+1 and lands by _land. Group mode cancels
    it against a removable same-column top cell of color -s; semigroup
    mode always stacks. The cell count changes by exactly +1 or -1.
    """
    return _push_all(heap, (letter,))


def heap_from_word(letters, n: int, mode: str = GROUP) -> ColoredHeap:
    """
    The heap of a letter sequence: one fold of _push_all from the empty
    heap, checking each letter as push_letter does.

    Accepts Letter values or bare (index, sign) pairs. The result is
    invariant under swapping adjacent input letters whose indices
    differ by 2 or more.
    """
    return _push_all(ColoredHeap(n, mode), letters)


def _roof_marks(columns: Columns) -> tuple[int, ...]:
    """
    Roof marks of raw columns: a nonempty column whose top level is >=
    its neighbours' is marked with its top cell's label, any other 0.
    """
    tops = [col[-1][0] if col else 0 for col in columns]
    edged = [0, *tops, 0]
    return tuple(
        columns[i][-1][1] if t and t >= edged[i] and t >= edged[i + 2] else 0
        for i, t in enumerate(tops)
    )


def normal_form_readout(heap: ColoredHeap) -> NormalWord:
    """
    The unique normal form of the heap's element.

    Cells are emitted greedily: among all cells that are currently
    lowest in their own column and strictly below the lowest remaining
    cell of each adjacent column, take the one in the left-most column.
    Consecutive emissions from one column are vertically touching,
    hence share a color, and merge into a syllable. The output spells
    a word whose heap is the input; ties cannot arise because adjacent
    columns never hold cells at equal levels.

    Emitting from column i raises only low[i], the level of its lowest
    remaining cell (inf once empty, and at the sentinels 0 and n + 1), so
    the scan resumes at i - 1: O(n + K) in all.
    """
    n, cols = heap.n, heap.columns
    low = [inf, *(col[0][0] if col else inf for col in cols), inf]
    ptr = [0] * (n + 1)  # ptr[i]: cells of column i emitted so far
    runs: list[list[int]] = []  # [index, signed exponent]
    i = 1
    while i <= n:
        if low[i] < low[i - 1] and low[i] < low[i + 1]:
            col = cols[i - 1]
            color = col[ptr[i]][1]
            if runs and runs[-1][0] == i:
                runs[-1][1] += color
            else:
                runs.append([i, color])
            ptr[i] += 1
            low[i] = col[ptr[i]][0] if ptr[i] < len(col) else inf
            i = max(i - 1, 1)
        else:
            i += 1
    if min(low) < inf:
        raise ValueError("heap has no emittable cell; support invariant broken")
    word = NormalWord(tuple(Syllable(i, e) for i, e in runs), n)
    validate_normal_word(word)
    return word


def canonical_key(heap: ColoredHeap) -> Columns:
    """
    The heap's columns tuple, the key under which the oracle stores every
    state and every exact_distribution probability. Equal group elements
    have equal keys and conversely.
    """
    return heap.columns
