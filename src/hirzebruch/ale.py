"""Instanton counting on the A1 ALE space via 2-colored Young diagrams.

Torus fixed points of the rank-r instanton moduli space on the minimal
resolution of C^2 / {±1} are r-tuples of checkerboard-colored Young
diagrams.  Writing N1 for the number of tableaux whose corner color is 1
and (k0, k1) for the total box counts per color, the tuples that occur
for instanton number n are cut out by

    N1 + 2*(k0 - k1) = 0        and        n = k0 + N1/4.

Both constraints together force the total box count to be exactly 2n.

The tangent character at a fixed point is the Z/2-invariant part of the
flat-space character: each summand-pair block keeps only the monomials
t1^a t2^b e... whose weight a + b + sum_i c_i*eps_i is even.  Morse
indexes are counted against the ordering t2 >> e1 > .. > er >> t1.

This route shares only the flat pair formula (`localization._patch_exponents`)
with the Hirzebruch-surface counting, and serves as an independent oracle
for the p = 2, k = 0 spaces.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .laurent import Character, OrderingSpec, TPolynomial, _rational, ale_ordering
from .localization import InvariantError, _framing_ratio, _patch_exponents
from .partitions import ColoredDiagram, compositions, enumerate_partitions


@dataclass(frozen=True)
class ColoredFixedPoint:
    """A fixed point: one checkerboard-colored diagram per summand."""

    tableaux: tuple[ColoredDiagram, ...]

    def __post_init__(self):
        object.__setattr__(self, "tableaux", tuple(self.tableaux))
        for t in self.tableaux:
            if not isinstance(t, ColoredDiagram):
                raise ValueError(f"expected ColoredDiagram entries, got {t!r}")

    @property
    def rank(self) -> int:
        return len(self.tableaux)

    def eps(self) -> tuple[int, ...]:
        return tuple(t.eps for t in self.tableaux)

    def corner_color_count(self) -> int:
        return sum(t.eps for t in self.tableaux)

    def box_color_counts(self) -> tuple[int, int]:
        k0 = k1 = 0
        for t in self.tableaux:
            a, b = t.color_counts()
            k0 += a
            k1 += b
        return k0, k1

    def instanton_number(self) -> Fraction:
        k0, _ = self.box_color_counts()
        return k0 + Fraction(self.corner_color_count(), 4)

    def is_valid(self) -> bool:
        n1 = self.corner_color_count()
        k0, k1 = self.box_color_counts()
        return n1 + 2 * (k0 - k1) == 0

    def transpose(self) -> "ColoredFixedPoint":
        return ColoredFixedPoint(tuple(t.transpose() for t in self.tableaux))

    def reverse(self) -> "ColoredFixedPoint":
        return ColoredFixedPoint(tuple(reversed(self.tableaux)))

    def to_json(self) -> dict:
        return {"tableaux": [t.to_json() for t in self.tableaux]}

    @classmethod
    def from_json(cls, data) -> "ColoredFixedPoint":
        return cls(tuple(ColoredDiagram.from_json(item) for item in data["tableaux"]))


def _colored_tuples(sizes: tuple[int, ...]) -> Iterator[tuple[ColoredDiagram, ...]]:
    return itertools.product(
        *(
            [ColoredDiagram(d, eps) for d in enumerate_partitions(size) for eps in (0, 1)]
            for size in sizes
        )
    )


def enumerate_colored_fixed_points(r: int, n) -> Iterator[ColoredFixedPoint]:
    """All rank-r fixed points with instanton number n, deterministic order.

    The total box count of a valid tuple is 2n, so a non-integer or
    negative 2n yields an empty stream.  n may be an exact rational; a
    float or a bool is a ValueError.
    """
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    n = _rational(n)
    boxes = 2 * n
    if boxes.denominator != 1 or boxes < 0:
        return
    for sizes in compositions(int(boxes), r):
        for tableaux in _colored_tuples(sizes):
            fp = ColoredFixedPoint(tableaux)
            if fp.is_valid() and fp.instanton_number() == n:
                yield fp


def ale_tangent_character(fp: ColoredFixedPoint) -> Character:
    """Torus character of the tangent space at an ALE fixed point.

    Sum over ordered summand pairs of the Z/2-invariant part of the
    flat-space pair character: a pair term t1^x t2^y e_b/e_a is kept
    when x + y + eps_b - eps_a is even.  Raises InvariantError unless the
    dimension equals 2*r*n - N0*N1/2, the quiver-variety dimension of
    the point's stratum; the correction vanishes whenever all corner
    labels agree (in particular for every r <= 2 sector).
    """
    r = fp.rank
    eps = fp.eps()
    terms: dict = {}
    for a in range(r):
        for b in range(r):
            es, parity = _framing_ratio(r, b + 1, a + 1), eps[b] - eps[a]
            for x, y in _patch_exponents(fp.tableaux[a].diagram, fp.tableaux[b].diagram):
                if (x + y + parity) % 2 == 0:
                    terms[x, y, es] = terms.get((x, y, es), 0) + 1
    total = Character(r, terms)
    n1 = fp.corner_color_count()
    expected = 2 * r * fp.instanton_number() - Fraction((r - n1) * n1, 2)
    if expected.denominator != 1 or total.dimension() != int(expected):
        raise InvariantError(
            f"ALE tangent character has dimension {total.dimension()},"
            f" expected {expected}"
        )
    return total


def ale_index(fp: ColoredFixedPoint, ordering: OrderingSpec | None = None) -> int:
    """Morse index: negative-weight directions of the tangent character."""
    if ordering is None:
        ordering = ale_ordering(fp.rank)
    return ale_tangent_character(fp).negative_count(ordering)


def ale_poincare(r: int, n, ordering: OrderingSpec | None = None) -> TPolynomial:
    """Poincare polynomial of the rank-r, instanton-number-n moduli space.

    Sum of t^(2 * Morse index) over all fixed points.  The choice of
    admissible ordering changes individual indexes but not the sum.
    """
    if ordering is None:
        ordering = ale_ordering(r)
    return TPolynomial(
        Counter(2 * ale_index(fp, ordering) for fp in enumerate_colored_fixed_points(r, n))
    )
