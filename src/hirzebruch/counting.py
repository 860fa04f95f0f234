"""Fixed-point enumeration, Morse indexes and Poincare polynomials.

The Poincare polynomial of a moduli space is assembled from the fixed
loci of the reduced one-parameter action: each locus is a product of
partial flag varieties recorded by a single diagram per summand, it
contributes its own Poincare polynomial (`component_factor`) shifted by
t^(2 * Morse index).  The Morse index has a closed form in terms of the
diagrams and the k-string, and independently equals the number of
negative-weight directions of the reduced tangent character.  The closed
form splits into a k-string part (`_pair_terms`) and one term per column
of each summand's diagram (`_column_term`).  Since the component factor
splits over column heights as well, the sum over the loci of one k-string
is a product over slots and heights of monomial factors
1/(1 - q^h t^b) (`_slots_series`), and `poincare_polynomial` reads one
row of it per k-string without visiting a locus.

Enumeration orders are deterministic: k-strings ascend lexicographically
within their search box, box distributions over the diagram slots ascend
lexicographically, and each slot runs over partitions in decreasing
lexicographic order with the rightmost slot varying fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .laurent import QSeries, TPolynomial
from .localization import (
    FixedPointDatum,
    ModuliParams,
    ReducedFixedPointDatum,
)
from .partitions import PartitionDiagram, compositions, enumerate_partitions


def check_nonempty(params: ModuliParams) -> bool:
    """Whether the moduli space contains any point.

    After normalizing k into 0..r-1 by twisting, the space is nonempty
    iff n - p*k^2*(r-1)/(2r) is an integer and n >= p*k*(r-k)/(2r).
    """
    k = params.k % params.r
    offset = params.n - Fraction(params.p * k * k * (params.r - 1), 2 * params.r)
    if offset.denominator != 1:
        return False
    bound = Fraction(params.p * k * (params.r - k), 2 * params.r)
    return params.n >= bound


def _k_strings(params: ModuliParams) -> Iterator[tuple[tuple[int, ...], int]]:
    """All k-strings compatible with params, with their integer box excess.

    In integers: with N = 2rn and s = r * sum k_a^2 - k^2, the pair sum
    sum_{a<b} (k_a - k_b)^2, a string has excess (N - p*s) / 2r, which
    must be a nonnegative integer.  Since r*k_a - k = sum_b (k_a - k_b),
    Cauchy-Schwarz gives p * (r*k_a - k)^2 <= (r-1) * p*s <= (r-1) * N,
    an exact bound on each entry.
    """
    r, k = params.r, params.k
    dim = 2 * r * params.n
    if dim < 0 or dim.denominator != 1:
        return
    dim = int(dim)
    # |r*k_a - k| <= spread
    spread = math.isqrt((r - 1) * dim // params.p)
    lo = -((spread - k) // r)
    hi = (k + spread) // r
    for ks in compositions(k, r, lo, hi):
        scaled = dim - params.p * (r * sum(x * x for x in ks) - k * k)
        if scaled >= 0 and scaled % (2 * r) == 0:
            yield ks, scaled // (2 * r)


def _diagram_tuples(sizes: tuple[int, ...]) -> Iterator[tuple[PartitionDiagram, ...]]:
    if not sizes:
        yield ()
        return
    for head in enumerate_partitions(sizes[0]):
        for tail in _diagram_tuples(sizes[1:]):
            yield (head,) + tail


def enumerate_fixed_points(params: ModuliParams) -> Iterator[FixedPointDatum]:
    """All torus fixed points of the moduli space, in deterministic order."""
    for ks, excess in _k_strings(params):
        for sizes in compositions(excess, 2 * params.r):
            for diagrams in _diagram_tuples(sizes):
                yield FixedPointDatum(ks, diagrams[: params.r], diagrams[params.r :])


def enumerate_reduced_fixed_points(
    params: ModuliParams,
) -> Iterator[ReducedFixedPointDatum]:
    """All fixed-locus labels of the reduced action, in deterministic order."""
    for ks, excess in _k_strings(params):
        for sizes in compositions(excess, params.r):
            for diagrams in _diagram_tuples(sizes):
                yield ReducedFixedPointDatum(ks, diagrams)


def l_prime(p: int, ka: int, kb: int) -> int:
    """Morse-index contribution of the boundary blocks of an ordered pair."""
    d = ka - kb
    if d >= 0:
        return d * (p * (d - 1) + 2) // 2
    m = -d
    return (m - 1) * (p * m + 2) // 2


@lru_cache(maxsize=None)
def _pair_terms(p: int, ks: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Sum of `l_prime` over pairs a < b of a k-string, and each slot's thresholds.

    Pair a < b hands the threshold d = k_a - k_b to slot a when d >= 0,
    else -d - 1 to slot b.  One sorted tuple of thresholds per slot.
    """
    total = 0
    thresholds: list[list[int]] = [[] for _ in ks]
    for a, ka in enumerate(ks):
        for b in range(a + 1, len(ks)):
            total += l_prime(p, ka, ks[b])
            d = ka - ks[b]
            if d >= 0:
                thresholds[a].append(d)
            else:
                thresholds[b].append(-d - 1)
    return total, tuple(tuple(sorted(th)) for th in thresholds)


def _column_term(thresholds: tuple[int, ...], h: int) -> int:
    """Minus one, minus the thresholds below h: the index term of a column of height h."""
    return -1 - sum(1 for th in thresholds if h > th)


def _slot_term(thresholds: tuple[int, ...], y: PartitionDiagram) -> int:
    """The index terms of the columns of y."""
    return sum(_column_term(thresholds, h) for h in y.cols)


def morse_index_closed(params: ModuliParams, rfp: ReducedFixedPointDatum) -> int:
    """Morse index of a reduced fixed locus, by the closed formula.

    Diagonal terms contribute |Y_a| - (number of columns of Y_a); each
    pair a < b contributes l_prime + |Y_a| + |Y_b| minus the columns of one
    slot longer than its threshold.  Summed: the pair part of `_pair_terms`,
    plus r * sum |Y_a|, plus one `_slot_term` per slot.
    """
    pairs, thresholds = _pair_terms(params.p, rfp.ks)
    slots = sum(_slot_term(th, y) for th, y in zip(thresholds, rfp.ys))
    return pairs + params.r * rfp.box_count() + slots


def _factor_terms(ys) -> dict[int, int]:
    """Coefficients of the product of the component factors of every diagram in ys.

    A diagram has rows[h-1] - rows[h] columns of height h, so each drop
    m > 0 between consecutive rows multiplies by 1 + t^2 + .. + t^(2m).
    """
    terms = {0: 1}
    for y in ys:
        for x, below in zip(y.rows, y.rows[1:] + (0,)):
            m = x - below
            if m:
                grown: dict[int, int] = {}
                for deg, coeff in terms.items():
                    for top in range(deg, deg + 2 * m + 1, 2):
                        grown[top] = grown.get(top, 0) + coeff
                terms = grown
    return terms


def component_factor(y: PartitionDiagram) -> TPolynomial:
    """Poincare polynomial of the flag-variety factor attached to one diagram.

    Product over occurring column heights of 1 + t^2 + .. + t^(2m), where
    m is the number of columns of that height.
    """
    return TPolynomial(_factor_terms((y,)))


@dataclass(frozen=True)
class IndexedPoint:
    """A reduced fixed locus with its Morse index and component factor."""

    datum: ReducedFixedPointDatum
    index: int
    factor: TPolynomial

    def to_json(self) -> dict:
        record = self.datum.to_json()
        record["index"] = self.index
        record["factor"] = self.factor.to_pairs()
        return record


def indexed_points(params: ModuliParams) -> Iterator[IndexedPoint]:
    """Reduced fixed loci decorated with Morse index and component factor."""
    for rfp in enumerate_reduced_fixed_points(params):
        factor = TPolynomial(_factor_terms(rfp.ys))
        yield IndexedPoint(rfp, morse_index_closed(params, rfp), factor)


@lru_cache(maxsize=None)
def _slots_series(thresholds: tuple[tuple[int, ...], ...], order: int) -> QSeries:
    """Sum over r-tuples of diagrams Y, r = len(thresholds), of q^|Y| times
    t^(2 * (r*|Y| + their `_slot_term`s)) times their component factors.

    A diagram with m_h columns of height h gives x_h^(m_h) [m_h + 1]_(t^2),
    x_h = q^h t^(2 * (r*h + `_column_term`)), and sum_m x^m [m + 1]_(t^2) is
    1/((1 - x)(1 - x t^2)).  A slot has at most r - 1 thresholds, so no
    degree is negative.  The cached series is shared: never modify it.
    """
    r = len(thresholds)
    series = QSeries(order)
    series.add_monomial(0, 0)
    for th in thresholds:
        for h in range(1, order + 1):
            low = 2 * (r * h + _column_term(th, h))
            series.mul_inverse_one_minus(h, low)
            series.mul_inverse_one_minus(h, low + 2)
    return series


def poincare_polynomial(params: ModuliParams) -> TPolynomial:
    """Poincare polynomial of the moduli space.

    The sum over reduced fixed loci of t^(2 * Morse index) times the
    locus's component factor, taken one k-string at a time.  With excess e,
    `morse_index_closed` is the k-string's pair part plus r*e plus one
    `_slot_term` per slot, so a k-string gives t^(2 * pair part) times row
    e of `_slots_series`.  The zero polynomial means the space is empty.
    """
    coeffs: dict[int, int] = {}
    for ks, excess in _k_strings(params):
        pairs, thresholds = _pair_terms(params.p, ks)
        for deg, coeff in _slots_series(thresholds, excess).rows[excess].items():
            deg += 2 * pairs
            coeffs[deg] = coeffs.get(deg, 0) + coeff
    return TPolynomial(coeffs)


def rank2_series_closed(p: int, order: int) -> QSeries:
    """Generating series of rank-2, k=0 Poincare polynomials, closed form.

    The series is a product of four infinite q-Pochhammer-type factors
    times a bracket summing two families of k-string sectors, indexed by
    h >= 0 and h > 0, each weighted by q^(p h^2) and an explicit t-power.
    Sector m = 0, 1, 2, .. has h = ceil(m/2), from the first family for even
    m and the second for odd m, and carries the ratios R_i = (1 - q^i
    t^(4i-4)) / (1 - q^i t^(4i)), i = 1..m; the bracket is summed innermost
    first, as c_0 + R_1 (c_1 + R_2 (c_2 + ..)).  Truncated exactly at the order.
    """
    if type(p) is not int or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    series = QSeries(order)
    for m in range(2 * math.isqrt(order // p), -1, -1):
        h = (m + 1) // 2
        if m % 2:
            series.add_monomial(p * h * h, 2 * (2 * h - 1) * (p * h + 1))
        else:
            series.add_monomial(p * h * h, 2 * h * (p * (2 * h - 1) + 2))
        if m:
            series.mul_one_minus(m, 4 * m - 4)
            series.mul_inverse_one_minus(m, 4 * m)
    for i in range(1, order + 1):
        series.mul_inverse_one_minus(i, 4 * i)
        series.mul_inverse_one_minus(i, 4 * i - 2)
        series.mul_inverse_one_minus(i, 4 * i - 2)
        series.mul_inverse_one_minus(i, 4 * i - 4)
    return series


def _series_direct(p: int, r: int, order: int) -> QSeries:
    return QSeries(
        order,
        {n: poincare_polynomial(ModuliParams(p, r, 0, n)) for n in range(order + 1)},
    )


def rank2_series_direct(p: int, order: int) -> QSeries:
    """Generating series of rank-2, k=0 Poincare polynomials, term by term."""
    return _series_direct(p, 2, order)


def hilbert_series_r1(p: int, order: int) -> QSeries:
    """Generating series of rank-1 (Hilbert scheme) Poincare polynomials."""
    return _series_direct(p, 1, order)
