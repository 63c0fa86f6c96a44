"""
Heap checks that only the tests need: the structural invariants of a
colored heap, and its roof as a record, both read off the columns tuple.
The roof marks come from core._roof_marks, the one rule the oracle's
roof recursion also uses.
"""

from dataclasses import dataclass

from locfree import core


@dataclass(frozen=True)
class RoofSet:
    """Per-column roof indicator; marks[i] is the top color of column i+1 or 0."""

    n: int
    marks: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(1 for m in self.marks if m)

    def columns(self) -> tuple[int, ...]:
        """1-based marked column indices, ascending."""
        return tuple(i + 1 for i, m in enumerate(self.marks) if m)


def roof_of(heap: core.ColoredHeap) -> RoofSet:
    """
    Columns whose top cell is removable in one step; each mark is the
    top cell's color, the sign whose inverse letter performs the removal.
    """
    return RoofSet(heap.n, core._roof_marks(heap.columns))


def validate_heap(heap: core.ColoredHeap) -> None:
    """
    Raise ValueError unless the heap satisfies every structural invariant.

    Checked: strictly ascending levels per column; no level shared by
    adjacent columns; a supporting cell one level below every cell
    above level 1 (which also forces drop levels to be minimal); equal
    colors on vertically touching cells; positive colors only in
    semigroup mode.
    """
    n = heap.n
    cols = heap.columns
    levels = [set() for _ in range(n)]
    for i, col in enumerate(cols):
        prev_level = 0
        prev_color = 0
        for level, color in col:
            if color not in (1, -1):
                raise ValueError(f"column {i + 1}: color {color} invalid")
            if heap.mode == core.SEMIGROUP and color != 1:
                raise ValueError(f"column {i + 1}: negative color in semigroup mode")
            if level <= prev_level:
                raise ValueError(f"column {i + 1}: levels not strictly ascending")
            if level == prev_level + 1 and prev_color and color != prev_color:
                raise ValueError(f"column {i + 1}: touching cells of unequal color")
            levels[i].add(level)
            prev_level, prev_color = level, color
    for i in range(n - 1):
        shared = levels[i] & levels[i + 1]
        if shared:
            raise ValueError(f"columns {i + 1},{i + 2} share level {min(shared)}")
    for i, col in enumerate(cols):
        for level, _ in col:
            if level == 1:
                continue
            below = level - 1
            supported = any(
                below in levels[j] for j in range(max(0, i - 1), min(n, i + 2))
            )
            if not supported:
                raise ValueError(
                    f"column {i + 1}: cell at level {level} has no support"
                )
