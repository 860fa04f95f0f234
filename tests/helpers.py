"""Per-box diagram statistics and Character operations that only the tests use.

The library reads arms and legs off a diagram's rows and their conjugate
(`localization._patch_exponents`) and counts box colors in closed form
(`ColoredDiagram.color_counts`).  Here the same quantities are taken box by
box, from 1-based coordinates (c, r): c is the column counted from the left,
r the row counted from the corner row upward, and box (c, r) lies in the
diagram iff r <= column_length(c).  They are the oracles for the closed forms.

    arm(Y, s) = column_length(Y, s.c) - s.r
    leg(Y, s) = row_length(Y, s.r) - s.c

The Character operations at the end are plain functions over
`Character.terms`, used to state symmetries of the tangent characters.
"""

from typing import NamedTuple

from hirzebruch.laurent import Character


class Box(NamedTuple):
    """1-based box coordinates: column c, position r within the column."""

    c: int
    r: int


def boxes(y):
    """All boxes of y, row by row from the corner row upward."""
    for i, length in enumerate(y.rows):
        for c in range(1, length + 1):
            yield Box(c, i + 1)


def row_length(y, r):
    """Length of row r, zero outside the diagram."""
    return y.rows[r - 1] if r <= len(y.rows) else 0


def column_length(y, c):
    """Height of column c, counted from the rows; zero outside the diagram."""
    return sum(1 for x in y.rows if x >= c)


def column_heights(y):
    """Every column height, counted from the rows."""
    return tuple(column_length(y, c) for c in range(1, row_length(y, 1) + 1))


def contains(y, box):
    return box.c >= 1 and box.r >= 1 and box.r <= column_length(y, box.c)


def relative_arm(measuring, box):
    """Arm of box measured in `measuring`; negative when box lies outside."""
    return column_length(measuring, box.c) - box.r


def relative_leg(measuring, box):
    """Leg of box measured in `measuring`; negative when box lies outside."""
    return row_length(measuring, box.r) - box.c


def color(eps, box):
    """Checkerboard color of box when the corner box has color eps."""
    return (eps + box.c + box.r) % 2


def color_counts_by_box(d):
    """Boxes of color 0 and of color 1 of a ColoredDiagram, one box at a time."""
    counts = [0, 0]
    for box in boxes(d.diagram):
        counts[color(d.eps, box)] += 1
    return tuple(counts)


def swap_t(x):
    """Exchange t1 and t2."""
    return x.substitute(((0, 1), (1, 0)))


def conjugate(x):
    """Negate every exponent (dual representation)."""
    return Character(
        x.rank, {(-a, -b, tuple(-e for e in es)): c for (a, b, es), c in x.terms.items()}
    )


def permute_framing(x, perm):
    """Relabel framing variables: new e_i carries the old e_perm[i-1] exponent."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, x.rank + 1)):
        raise ValueError(f"not a permutation of 1..{x.rank}: {perm}")
    return Character(
        x.rank,
        {(a, b, tuple(es[j - 1] for j in perm)): c for (a, b, es), c in x.terms.items()},
    )


def promote(x, rank):
    """Embed a rank-0 (framing-free) character into rank `rank`."""
    if x.rank == rank:
        return x
    if x.rank != 0:
        raise ValueError(f"can only promote from rank 0, have rank {x.rank}")
    zeros = (0,) * rank
    return Character(rank, {(a, b, zeros): c for (a, b, _), c in x.terms.items()})


def invariant_part(x, eps):
    """Keep the terms with a + b + sum_i c_i*eps_i even."""
    eps = tuple(eps)
    if len(eps) != x.rank:
        raise ValueError(f"expected {x.rank} parities, got {eps}")
    return Character(
        x.rank,
        {
            (a, b, es): c
            for (a, b, es), c in x.terms.items()
            if (a + b + sum(e * p for e, p in zip(es, eps))) % 2 == 0
        },
    )


def zero_weight_count(x, ordering):
    """Number of terms, with multiplicity, whose every key-exponent vanishes."""
    return sum(c for key, c in x.terms.items() if ordering.sign(key) == 0)
