"""Young diagrams, checkerboard 2-colorings, and splits of a box count over slots.

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
be negative.  `localization._box_exponents` implements this formula.

`compositions(e, s)` splits e boxes over s slots: a fixed point's diagram sizes.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations_with_replacement

from .laurent import _Frozen, _integers


class PartitionDiagram(_Frozen):
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

    def __reduce__(self):
        # pickle and copy rebuild from the rows instead of setting the slots
        return PartitionDiagram, (self.rows,)

    def __hash__(self) -> int:
        # the field-tuple hash of `_Frozen`, without its getattr loop: diagrams
        # are cache keys of the ALE pair tallies
        return hash((self.rows, self.cols))

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    def to_json(self) -> list[int]:
        return list(self.rows)

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


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `parts` nonnegative integers summing to total, ascending lexicographically.

    Stars and bars: the entries are the gaps between the cuts 0 <= c_1 <= ..
    <= c_(parts-1) <= total, and cuts in ascending order give them in order.
    """
    if parts < 0:
        raise ValueError(f"number of parts must be nonnegative, got {parts}")
    if parts == 0 or total < 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple([b - a for a, b in zip((0,) + cuts, cuts + (total,))])


class ColoredDiagram(_Frozen):
    """A Young diagram with a checkerboard 2-coloring.

    The corner box carries color eps; colors alternate along rows and
    columns, so the box in row i and column j has color (eps + i + j) mod 2.
    Immutable once built, because the ALE enumeration shares one object per
    colored diagram among all its fixed points and calls.
    """

    __slots__ = ("diagram", "eps")

    def __init__(self, diagram: PartitionDiagram, eps: int):
        if not isinstance(diagram, PartitionDiagram):
            raise ValueError(f"expected a PartitionDiagram, got {diagram!r}")
        if type(eps) is not int or eps not in (0, 1):
            raise ValueError(f"color of the corner box must be 0 or 1, got {eps!r}")
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "eps", eps)

    def color_counts(self) -> tuple[int, int]:
        """Number of boxes of color 0 and of color 1."""
        # row i starts with color (eps + i) mod 2 and alternates: color eps
        # holds ceil(x/2) of the x boxes of an even row, floor(x/2) of an odd one
        own = sum((x + 1 - i % 2) // 2 for i, x in enumerate(self.diagram.rows))
        other = self.diagram.size - own
        return (own, other) if self.eps == 0 else (other, own)

    def to_json(self) -> dict:
        return {"rows": self.diagram.to_json(), "eps": self.eps}

    def __repr__(self) -> str:
        return f"ColoredDiagram({list(self.diagram.rows)}, eps={self.eps})"
