"""Instanton counting on the A1 ALE space via 2-colored Young diagrams.

Torus fixed points of the rank-r instanton moduli space on the minimal
resolution of C^2 / {±1} are r-tuples of checkerboard-colored Young
diagrams; here a point is just that tuple of r `ColoredDiagram`s.
Writing N1 for the number of tableaux whose corner color is 1 and
(k0, k1) for the total box counts per color, the tuples that occur for
instanton number n are cut out by

    N1 + 2*(k0 - k1) = 0        and        n = k0 + N1/4.

Both constraints together force the total box count to be exactly 2n.
Give each colored diagram the charge eps + 2*(k0 - k1) of its own corner
and boxes: a tuple of 2n boxes is then valid exactly when its charges sum
to 0, and its instanton number is then n.  The enumeration builds only
those tuples, taking a diagram in a slot only while the later slots can
still bring the charge sum to 0.

The tangent character at a fixed point is the Z/2-invariant part of the
flat-space character: each summand-pair block keeps only the monomials
t1^a t2^b e... whose weight a + b + sum_i c_i*eps_i is even.  Morse
indexes are always counted against the ordering t2 >> e1 > .. > er >> t1.
A point's index and dimension are sums over its ordered summand pairs of
two cached tallies, the pair's term count and its negative terms
(`_pair_tally`), so `ale_poincare` builds no character;
`ale_tangent_character`, which `ale --points` prints, assembles the same
pair terms (`_pair_exponents`) into one.

This route shares only the flat pair formula (`localization._patch_exponents`,
written from the per-box `_box_exponents`) and the framing table
(`localization._framings`) with the Hirzebruch-surface counting, and serves
as an independent oracle for the p = 2, k = 0 spaces.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from . import InvariantError
from .laurent import (
    Character,
    Forms,
    Ordering,
    TPolynomial,
    _rational,
    ale_ordering,
    form_sign,
)
from .localization import _framings, _patch_exponents
from .partitions import ColoredDiagram, PartitionDiagram, compositions, enumerate_partitions


@lru_cache(maxsize=None)
def _colored_table(size: int) -> tuple[tuple[ColoredDiagram, int], ...]:
    """Each colored diagram of `size` boxes with its charge eps + 2*(k0 - k1).

    Diagrams come in `enumerate_partitions` order, each with eps 0 before
    eps 1.  Cached: every call shares the same immutable diagrams.
    """
    table = []
    for diagram in enumerate_partitions(size):
        for eps in (0, 1):
            colored = ColoredDiagram(diagram, eps)
            k0, k1 = colored.color_counts()
            table.append((colored, eps + 2 * (k0 - k1)))
    return tuple(table)


def _extend(
    prefixes: Iterator[tuple[tuple[ColoredDiagram, ...], int]],
    table: tuple[tuple[ColoredDiagram, int], ...],
    reachable: set[int],
) -> Iterator[tuple[tuple[ColoredDiagram, ...], int]]:
    """Each (prefix, charge sum) of `prefixes`, one slot longer.

    The new slot's entries run in `table` order, and a grown prefix is kept
    only if its charge sum lies in `reachable`: the sums that the later
    slots can still bring to 0.  So every prefix kept completes to a tuple
    that is kept.
    """
    for prefix, total in prefixes:
        for colored, charge in table:
            if total + charge in reachable:
                yield prefix + (colored,), total + charge


def enumerate_colored_fixed_points(r: int, n) -> Iterator[tuple[ColoredDiagram, ...]]:
    """All rank-r fixed points with instanton number n, deterministic order.

    The total box count of a valid tuple is 2n, so a non-integer or
    negative 2n yields an empty stream.  n may be an exact rational; a
    float or a bool is a ValueError.

    For each composition of 2n into r slot sizes, the charge sums that the
    later slots can reach are computed first; the slots are then filled in
    order from the cached per-size tables, and an entry is taken only if
    the rest of the tuple can still balance its charge.  No tuple is built
    and then thrown away: each point is the tuple the walk built, its
    entries the tables' shared diagrams.  Points come in lexicographic
    order: by composition, ascending, then slot by slot in
    `enumerate_partitions` order with eps 0 before eps 1.
    """
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    n = _rational(n)
    boxes = 2 * n
    if boxes.denominator != 1 or boxes < 0:
        return
    for sizes in compositions(int(boxes), r):
        # from the last slot back: the charge sums after each slot that the
        # slots after it can still bring to 0
        reachable = [{0}]
        for size in reversed(sizes[1:]):
            charges = {charge for _, charge in _colored_table(size)}
            reachable.append({total - c for total in reachable[-1] for c in charges})
        walk = iter((((), 0),))
        for size, sums in zip(sizes, reversed(reachable)):
            walk = _extend(walk, _colored_table(size), sums)
        for point, _ in walk:
            yield point


@lru_cache(maxsize=None)
def _pair_exponents(
    y_a: PartitionDiagram, y_b: PartitionDiagram, parity: int
) -> tuple[tuple[int, int], ...]:
    """(t1, t2) exponents of the Z/2-invariant terms of a summand pair.

    The flat pair terms t1^x t2^y e_b/e_a of `_patch_exponents(y_a, y_b)`
    whose weight x + y + eps_b - eps_a is even; `parity` is
    (eps_b - eps_a) mod 2.  Cached: every caller shares the same tuple.
    """
    return tuple((x, y) for x, y in _patch_exponents(y_a, y_b) if (x + y + parity) % 2 == 0)


@lru_cache(maxsize=None)
def _pair_tally(
    y_a: PartitionDiagram, y_b: PartitionDiagram, parity: int, forms: Forms
) -> tuple[int, int]:
    """(terms, negative terms) of a pair's invariant character under `forms`.

    `forms` are what the ordering maps the pair's framing vector e_b/e_a
    to (`laurent.ale_ordering`).  Every coefficient is +1 and merging equal
    monomials keeps their sign, so both numbers add up over the pairs of a
    point to its dimension and its Morse index.
    """
    exponents = _pair_exponents(y_a, y_b, parity)
    return len(exponents), sum(1 for x, y in exponents if form_sign(forms, x, y) < 0)


def _check_dimension(point: tuple[ColoredDiagram, ...], dimension: int) -> None:
    """InvariantError unless `dimension` is 2rn - (r - N1)*N1/2 at `point`.

    The point's boxes number B = 2n, so this is the integer identity
    2*dim = 2r*B - r*N1 + N1^2, read off its diagram sizes and corners.
    """
    r, n1 = len(point), sum(t.eps for t in point)
    twice = 2 * r * sum(t.diagram.size for t in point) - r * n1 + n1 * n1
    if 2 * dimension != twice:
        raise InvariantError(
            f"ALE tangent character has dimension {dimension}, expected {Fraction(twice, 2)}"
        )


def ale_tangent_character(point: tuple[ColoredDiagram, ...]) -> Character:
    """Torus character of the tangent space at an ALE fixed point.

    `point` is a tuple of r colored diagrams, as the enumeration yields
    it.  Sum over ordered summand pairs of the Z/2-invariant part of the
    flat-space pair character: a pair term t1^x t2^y e_b/e_a is kept
    when x + y + eps_b - eps_a is even.  Raises InvariantError unless the
    dimension equals 2*r*n - N0*N1/2, the quiver-variety dimension of
    the point's stratum; the correction vanishes whenever all corner
    labels agree (in particular for every r <= 2 sector).
    """
    framings = _framings(len(point))
    keys = [
        (x, y, es)
        for colored_a, framings_a in zip(point, framings)
        for colored_b, es in zip(point, framings_a)
        for x, y in _pair_exponents(
            colored_a.diagram, colored_b.diagram, (colored_b.eps - colored_a.eps) % 2
        )
    ]
    _check_dimension(point, len(keys))
    return Character(len(point), Counter(keys))


def _pair_forms(ordering: Ordering, r: int) -> tuple[tuple[Forms, ...], ...]:
    """Entry [a][b]: the ordering's forms at the framing vector e_b/e_a of pair (a, b)."""
    return tuple(tuple(map(ordering, row)) for row in _framings(r))


def _counted_index(
    point: tuple[ColoredDiagram, ...], pair_forms: tuple[tuple[Forms, ...], ...]
) -> int:
    """Morse index of `point` summed from the pair tallies; the dimension is checked."""
    dimension = index = 0
    for colored_a, forms_a in zip(point, pair_forms):
        for colored_b, forms in zip(point, forms_a):
            terms, negative = _pair_tally(
                colored_a.diagram, colored_b.diagram, (colored_b.eps - colored_a.eps) % 2, forms
            )
            dimension += terms
            index += negative
    _check_dimension(point, dimension)
    return index


def ale_poincare(r: int, n) -> TPolynomial:
    """Poincare polynomial of the rank-r, instanton-number-n moduli space.

    Sum of t^(2 * Morse index) over all fixed points, the indexes counted
    under `ale_ordering(r)`.
    """
    pair_forms = _pair_forms(ale_ordering(r), r)
    points = enumerate_colored_fixed_points(r, n)
    return TPolynomial(Counter(2 * _counted_index(point, pair_forms) for point in points))
