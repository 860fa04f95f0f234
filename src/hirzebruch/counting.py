"""Fixed-point enumeration, Morse indexes and Poincare polynomials.

The Poincare polynomial of a moduli space is assembled from the fixed
loci of the reduced one-parameter action: each locus is a product of
partial flag varieties recorded by a single diagram per summand, it
contributes its own Poincare polynomial (`component_factor`) shifted by
t^(2 * Morse index).  The Morse index has a closed form in terms of the
diagrams and the k-string, and independently equals the number of
negative-weight directions of the reduced tangent character.

Enumeration orders are deterministic: k-strings ascend lexicographically
within their search box, box distributions over the diagram slots ascend
lexicographically, and each slot runs over partitions in decreasing
lexicographic order with the rightmost slot varying fastest.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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
    """All k-strings compatible with params, with their integer box excess."""
    if params.n < 0:
        return
    # |k_a - k/r| <= sqrt(2n/p): the pair sum is bounded by 2rn/p and
    # Cauchy-Schwarz turns that into a per-entry bound around the mean.
    radius = math.isqrt(int(2 * params.n // params.p)) + 1
    center = Fraction(params.k, params.r)
    lo = math.ceil(center - radius)
    hi = math.floor(center + radius)
    for ks in compositions(params.k, params.r, lo, hi):
        excess = params.n - params.pair_weight(ks)
        if excess < 0 or excess.denominator != 1:
            continue
        yield ks, int(excess)


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


def n_prime(y_alpha: PartitionDiagram, y_beta: PartitionDiagram, diff: int) -> int:
    """Number of columns whose boxes cancel in the pair's index count.

    Counts columns of y_alpha strictly longer than diff when diff >= 0,
    else columns of y_beta strictly longer than -diff - 1.
    """
    if diff >= 0:
        return sum(1 for length in y_alpha.cols if length > diff)
    return sum(1 for length in y_beta.cols if length > -diff - 1)


def morse_index_closed(params: ModuliParams, rfp: ReducedFixedPointDatum) -> int:
    """Morse index of a reduced fixed locus, by the closed formula.

    Diagonal terms contribute |Y_a| - (number of columns of Y_a); each
    pair a < b contributes l_prime + |Y_a| + |Y_b| - n_prime.
    """
    total = sum(y.size - len(y.cols) for y in rfp.ys)
    r = params.r
    for a in range(r):
        for b in range(a + 1, r):
            diff = rfp.ks[a] - rfp.ks[b]
            total += (
                l_prime(params.p, rfp.ks[a], rfp.ks[b])
                + rfp.ys[a].size
                + rfp.ys[b].size
                - n_prime(rfp.ys[a], rfp.ys[b], diff)
            )
    return total


def component_factor(y: PartitionDiagram) -> TPolynomial:
    """Poincare polynomial of the flag-variety factor attached to one diagram.

    Product over occurring column heights of 1 + t^2 + .. + t^(2m), where
    m is the number of columns of that height.
    """
    poly = TPolynomial.one()
    for mult in Counter(y.cols).values():
        poly = poly * TPolynomial({2 * j: 1 for j in range(mult + 1)})
    return poly


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
        factor = TPolynomial.one()
        for y in rfp.ys:
            factor = factor * component_factor(y)
        yield IndexedPoint(rfp, morse_index_closed(params, rfp), factor)


def poincare_polynomial(params: ModuliParams) -> TPolynomial:
    """Poincare polynomial of the moduli space.

    Sum over reduced fixed loci of t^(2 * Morse index) times the locus's
    component factor.  The zero polynomial means the space is empty.
    """
    total = TPolynomial.zero()
    for point in indexed_points(params):
        total = total + TPolynomial.t_power(2 * point.index) * point.factor
    return total


def _bracket_ratio(series: QSeries, i: int) -> QSeries:
    # multiply by (1 - q^i t^(4i-4)) / (1 - q^i t^(4i))
    series = series.mul_one_minus(i, TPolynomial.t_power(4 * i - 4))
    return series.mul_inverse_one_minus(i, TPolynomial.t_power(4 * i))


def rank2_series_closed(p: int, order: int) -> QSeries:
    """Generating series of rank-2, k=0 Poincare polynomials, closed form.

    The series is a product of four infinite q-Pochhammer-type factors
    times a bracket summing two families of k-string sectors, indexed by
    h >= 0 and h > 0, each weighted by q^(p h^2) and an explicit t-power.
    Truncated exactly at the given q-order.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    series = QSeries.one(order)
    for i in range(1, order + 1):
        series = series.mul_inverse_one_minus(i, TPolynomial.t_power(4 * i))
        series = series.mul_inverse_one_minus(i, TPolynomial.t_power(4 * i - 2))
        series = series.mul_inverse_one_minus(i, TPolynomial.t_power(4 * i - 2))
        series = series.mul_inverse_one_minus(i, TPolynomial.t_power(4 * i - 4))
    bracket = QSeries.zero(order)
    h = 0
    while p * h * h <= order:
        term = QSeries.term(
            order, p * h * h, TPolynomial.t_power(2 * h * (p * (2 * h - 1) + 2))
        )
        for i in range(1, 2 * h + 1):
            term = _bracket_ratio(term, i)
        bracket = bracket + term
        h += 1
    h = 1
    while p * h * h <= order:
        term = QSeries.term(
            order, p * h * h, TPolynomial.t_power(2 * (2 * h - 1) * (p * h + 1))
        )
        for i in range(1, 2 * h):
            term = _bracket_ratio(term, i)
        bracket = bracket + term
        h += 1
    return series * bracket


def _series_direct(p: int, r: int, order: int) -> QSeries:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    series = QSeries.zero(order)
    for n in range(order + 1):
        poly = poincare_polynomial(ModuliParams(p, r, 0, Fraction(n)))
        series = series + QSeries.term(order, n, poly)
    return series


def rank2_series_direct(p: int, order: int) -> QSeries:
    """Generating series of rank-2, k=0 Poincare polynomials, term by term."""
    return _series_direct(p, 2, order)


def hilbert_series_r1(p: int, order: int) -> QSeries:
    """Generating series of rank-1 (Hilbert scheme) Poincare polynomials."""
    return _series_direct(p, 1, order)
