"""Young diagrams, arm/leg statistics, checkerboard 2-colorings, compositions.

A diagram is stored as its weakly decreasing tuple of row lengths.  Boxes
are addressed by 1-based coordinates (c, r): c is the column counted from
the left, r is the position within that column counted from the corner row
upward.  Box (c, r) belongs to the diagram iff r <= column_length(c).

The arm of a box counts the boxes above it in its column; the leg counts
the boxes to its right in its row:

    arm(Y, s) = column_length(Y, s.c) - s.r
    leg(Y, s) = row_length(Y, s.r) - s.c

Both statistics extend to boxes measured against a *different* diagram, in
which case they may be negative; rows and columns beyond the diagram are
treated as length zero.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

from .laurent import _integers


class Box(NamedTuple):
    """1-based box coordinates: column c, position r within the column."""

    c: int
    r: int


class PartitionDiagram:
    """A Young diagram given by weakly decreasing positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterator[int] | tuple[int, ...] = ()):
        rows = _integers(rows)
        for x in rows:
            if x <= 0:
                raise ValueError(f"row lengths must be positive, got {x}")
        for a, b in zip(rows, rows[1:]):
            if a < b:
                raise ValueError(f"row lengths must be weakly decreasing, got {rows}")
        self.rows = rows

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return self.rows[0] if self.rows else 0

    def row_length(self, r: int) -> int:
        """Length of row r, zero outside the diagram."""
        if r < 1:
            raise ValueError(f"row index must be positive, got {r}")
        return self.rows[r - 1] if r <= len(self.rows) else 0

    def column_length(self, c: int) -> int:
        """Height of column c, zero outside the diagram."""
        if c < 1:
            raise ValueError(f"column index must be positive, got {c}")
        return sum(1 for x in self.rows if x >= c)

    def column_lengths(self) -> tuple[int, ...]:
        """All column heights, i.e. the transposed row lengths."""
        return tuple(self.column_length(c) for c in range(1, self.num_columns + 1))

    def transpose(self) -> "PartitionDiagram":
        return PartitionDiagram(self.column_lengths())

    def boxes(self) -> Iterator[Box]:
        """All boxes, row by row from the corner row upward."""
        for i, length in enumerate(self.rows):
            for c in range(1, length + 1):
                yield Box(c, i + 1)

    def __contains__(self, box: Box) -> bool:
        c, r = box
        return c >= 1 and r >= 1 and r <= self.column_length(c)

    def column_multiplicities(self) -> dict[int, int]:
        """Map each occurring column height to its number of columns."""
        return dict(Counter(self.column_lengths()))

    def to_json(self) -> list[int]:
        return list(self.rows)

    @classmethod
    def from_json(cls, data) -> "PartitionDiagram":
        return cls(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartitionDiagram) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("PartitionDiagram", self.rows))

    def __lt__(self, other: "PartitionDiagram") -> bool:
        return self.rows < other.rows

    def __repr__(self) -> str:
        return f"PartitionDiagram({list(self.rows)})"


EMPTY = PartitionDiagram(())


@lru_cache(maxsize=None)
def _partition_rows(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_rows(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[PartitionDiagram]:
    """All partitions of n, in decreasing lexicographic order of rows."""
    if n < 0:
        raise ValueError(f"cannot partition a negative number, got {n}")
    return [PartitionDiagram(rows) for rows in _partition_rows(n, n)]


def compositions(
    total: int, parts: int, lo: int = 0, hi: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Tuples of `parts` integers in lo..hi summing to total, ascending lexicographically.

    hi=None bounds each entry only by what the others leave of the total.
    Only heads from which the remaining entries can still reach the total
    are tried, so no tuple is built and then thrown away.
    """
    if parts < 0:
        raise ValueError(f"number of parts must be nonnegative, got {parts}")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if hi is None:
        hi = total - (parts - 1) * lo
    if parts == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    rest = parts - 1
    for head in range(max(lo, total - rest * hi), min(hi, total - rest * lo) + 1):
        for tail in compositions(total - head, rest, lo, hi):
            yield (head,) + tail


def relative_arm(measuring: PartitionDiagram, box: Box) -> int:
    """Arm of box measured in `measuring`; negative when box lies outside."""
    return measuring.column_length(box.c) - box.r


def relative_leg(measuring: PartitionDiagram, box: Box) -> int:
    """Leg of box measured in `measuring`; negative when box lies outside."""
    return measuring.row_length(box.r) - box.c


class ColoredDiagram:
    """A Young diagram with a checkerboard 2-coloring.

    The corner box (1, 1) carries color eps; colors alternate along rows
    and columns, so box (c, r) has color (eps + c + r) mod 2.
    """

    __slots__ = ("diagram", "eps")

    def __init__(self, diagram: PartitionDiagram, eps: int):
        if not isinstance(diagram, PartitionDiagram):
            diagram = PartitionDiagram(diagram)
        if eps not in (0, 1):
            raise ValueError(f"color of the corner box must be 0 or 1, got {eps}")
        self.diagram = diagram
        self.eps = eps

    def color(self, box: Box) -> int:
        return (self.eps + box.c + box.r) % 2

    def color_counts(self) -> tuple[int, int]:
        """Number of boxes of color 0 and of color 1."""
        counts = [0, 0]
        for box in self.diagram.boxes():
            counts[self.color(box)] += 1
        return tuple(counts)

    def transpose(self) -> "ColoredDiagram":
        # (c, r) -> (r, c) preserves c + r, so the coloring transposes along
        return ColoredDiagram(self.diagram.transpose(), self.eps)

    def recolor(self) -> "ColoredDiagram":
        return ColoredDiagram(self.diagram, 1 - self.eps)

    def to_json(self) -> dict:
        return {"rows": self.diagram.to_json(), "eps": self.eps}

    @classmethod
    def from_json(cls, data) -> "ColoredDiagram":
        (eps,) = _integers([data["eps"]])
        return cls(PartitionDiagram(data["rows"]), eps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredDiagram)
            and self.diagram == other.diagram
            and self.eps == other.eps
        )

    def __hash__(self) -> int:
        return hash(("ColoredDiagram", self.diagram.rows, self.eps))

    def __repr__(self) -> str:
        return f"ColoredDiagram({list(self.diagram.rows)}, eps={self.eps})"
