"""Young diagrams, checkerboard 2-colorings, compositions.

A diagram is its weakly decreasing tuple of row lengths `rows` together
with their conjugate `cols`, the column heights, computed once when the
diagram is built.  Rows and columns are indexed from 0 at the corner.

Take the box in row i and column j of a diagram X and measure it against
a diagram Y, whose rows and columns beyond its edge count as length zero.
Its arm counts the boxes of Y above it in column j, its leg the boxes of Y
to its right in row i:

    arm_Y = Y.cols[j] - i - 1
    leg_Y = Y.rows[i] - j - 1

Against X itself both are nonnegative; against another diagram they may
be negative.  `localization._patch_exponents` implements this formula.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .laurent import _integers


class PartitionDiagram:
    """A Young diagram: weakly decreasing positive row lengths and their conjugate.

    Immutable once built, because `enumerate_partitions` and the tables
    built on it share one object per partition among all callers.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: Iterator[int] | tuple[int, ...] = ()):
        rows = _integers(rows)
        # walk up from the shortest row; row h - 1 adds its extra columns of height h
        cols: list[int] = []
        for height in range(len(rows), 0, -1):
            x = rows[height - 1]
            if x <= 0:
                raise ValueError(f"row lengths must be positive, got {x}")
            if x < len(cols):
                raise ValueError(f"row lengths must be weakly decreasing, got {rows}")
            cols += [height] * (x - len(cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", tuple(cols))

    def __setattr__(self, name, value):
        raise AttributeError(f"PartitionDiagram is immutable, cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PartitionDiagram is immutable, cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild from the rows instead of setting the slots
        return PartitionDiagram, (self.rows,)

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    def transpose(self) -> "PartitionDiagram":
        return PartitionDiagram(self.cols)

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
def enumerate_partitions(n: int) -> tuple[PartitionDiagram, ...]:
    """All partitions of n, in decreasing lexicographic order of rows.

    Cached: every call with the same n returns the same tuple of shared
    diagrams, each built once from the tables of smaller n.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative number, got {n}")
    if n == 0:
        return (EMPTY,)
    return tuple(
        PartitionDiagram((first,) + rest.rows)
        for first in range(n, 0, -1)
        for rest in enumerate_partitions(n - first)
        if not rest.rows or rest.rows[0] <= first
    )


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


class ColoredDiagram:
    """A Young diagram with a checkerboard 2-coloring.

    The corner box carries color eps; colors alternate along rows and
    columns, so the box in row i and column j has color (eps + i + j) mod 2.
    """

    __slots__ = ("diagram", "eps")

    def __init__(self, diagram: PartitionDiagram, eps: int):
        if not isinstance(diagram, PartitionDiagram):
            diagram = PartitionDiagram(diagram)
        if type(eps) is not int or eps not in (0, 1):
            raise ValueError(f"color of the corner box must be 0 or 1, got {eps!r}")
        self.diagram = diagram
        self.eps = eps

    def color_counts(self) -> tuple[int, int]:
        """Number of boxes of color 0 and of color 1."""
        # row i starts with color (eps + i) mod 2 and alternates: color eps
        # holds ceil(x/2) of the x boxes of an even row, floor(x/2) of an odd one
        own = sum((x + 1 - i % 2) // 2 for i, x in enumerate(self.diagram.rows))
        other = self.diagram.size - own
        return (own, other) if self.eps == 0 else (other, own)

    def transpose(self) -> "ColoredDiagram":
        # (i, j) -> (j, i) preserves i + j, so the coloring transposes along
        return ColoredDiagram(self.diagram.transpose(), self.eps)

    def recolor(self) -> "ColoredDiagram":
        return ColoredDiagram(self.diagram, 1 - self.eps)

    def to_json(self) -> dict:
        return {"rows": self.diagram.to_json(), "eps": self.eps}

    @classmethod
    def from_json(cls, data) -> "ColoredDiagram":
        return cls(PartitionDiagram(data["rows"]), data["eps"])

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
