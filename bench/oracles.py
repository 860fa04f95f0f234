"""Answers computed apart from the hirzebruch package.

Nothing here imports the package: each function is a second, independent
route to a number the package also computes, so a change that alters an
answer is caught without a stored copy of earlier output.

* `k_strings` is a bounded search over integer r-tuples, pruned by the sum
  of squares, not the box filter the package uses.
* `euler_number` is the number of torus fixed points: for each k-string,
  the number of 2r-tuples of partitions with `excess` boxes in total, i.e.
  the q^excess coefficient of prod_i (1 - q^i)^(-2r).  It equals P(1).
* `goettsche_series` is Goettsche's product for the Hilbert schemes of
  points, prod_i 1 / ((1 - t^(2i-2) q^i) (1 - t^(2i) q^i)), which is the
  rank-1 answer for every p.

Polynomials are lists of [degree, coefficient] pairs in ascending degree,
the form the package's `TPolynomial.to_pairs` and its JSON output use.
"""

from __future__ import annotations

import math
from fractions import Fraction


def pair_weight(p: int, ks: tuple[int, ...]) -> Fraction:
    """(p / 2r) * sum over pairs a < b of (k_a - k_b)^2."""
    r = len(ks)
    total = sum((ks[a] - ks[b]) ** 2 for a in range(r) for b in range(a + 1, r))
    return Fraction(p * total, 2 * r)


def k_strings(p: int, r: int, k: int, n) -> list[tuple[tuple[int, ...], int]]:
    """All (k-string, excess) pairs of the moduli space (p, r, k, n).

    The pair sum r * sum(k_a^2) - k^2 is at most 2rn/p, which bounds the
    sum of squares; the search spends that budget entry by entry.
    """
    n = Fraction(n)
    if n < 0:
        return []
    budget = math.floor((2 * r * n / p + k * k) / r)
    found = []

    def extend(prefix: tuple[int, ...], left_sum: int, left_sq: int) -> None:
        if len(prefix) == r - 1:
            if left_sum * left_sum <= left_sq:
                found.append(prefix + (left_sum,))
            return
        bound = math.isqrt(left_sq)
        for x in range(-bound, bound + 1):
            extend(prefix + (x,), left_sum - x, left_sq - x * x)

    extend((), k, budget)
    out = []
    for ks in found:
        excess = n - pair_weight(p, ks)
        if excess >= 0 and excess.denominator == 1:
            out.append((ks, int(excess)))
    return out


def multipartition_counts(colors: int, order: int) -> list[int]:
    """q^0..q^order coefficients of prod_i (1 - q^i)^(-colors)."""
    counts = [1] + [0] * order
    for _ in range(colors):
        for i in range(1, order + 1):
            for m in range(i, order + 1):
                counts[m] += counts[m - i]
    return counts


def euler_number(p: int, r: int, k: int, n) -> int:
    """Number of torus fixed points, which is P(1) of the moduli space."""
    strings = k_strings(p, r, k, n)
    if not strings:
        return 0
    counts = multipartition_counts(2 * r, max(excess for _, excess in strings))
    return sum(counts[excess] for _, excess in strings)


def goettsche_series(order: int) -> list[list[list[int]]]:
    """Rank-1 Poincare polynomials for n = 0..order, from Goettsche's product."""
    series: list[dict[int, int]] = [{} for _ in range(order + 1)]
    series[0][0] = 1
    for i in range(1, order + 1):
        for shift in (2 * i - 2, 2 * i):
            # multiply by 1 / (1 - t^shift q^i); ascending m reuses updated terms
            for m in range(i, order + 1):
                for degree, coeff in series[m - i].items():
                    series[m][degree + shift] = series[m].get(degree + shift, 0) + coeff
    return [sorted([d, c] for d, c in poly.items() if c) for poly in series]


def evaluate(pairs, t: int) -> int:
    return sum(c * t**d for d, c in pairs)


def poincare_problems(pairs, p: int, r: int, k: int, n) -> list[str]:
    """Ways the Poincare polynomial `pairs` of (p, r, k, n) is wrong."""
    problems = []
    label = f"P({p},{r},{k},{n})"
    if any(d % 2 or c <= 0 for d, c in pairs):
        problems.append(f"{label} has an odd degree or a nonpositive coefficient")
    euler = euler_number(p, r, k, n)
    if evaluate(pairs, 1) != euler:
        problems.append(f"{label}(1) = {evaluate(pairs, 1)}, expected {euler}")
    if euler and evaluate(pairs, 0) != 1:
        problems.append(f"{label}(0) = {evaluate(pairs, 0)}, the space is connected")
    if r == 1:
        exact = Fraction(n)
        if exact.denominator == 1 and 0 <= exact:
            expected = goettsche_series(int(exact))[int(exact)]
            if [list(x) for x in pairs] != expected:
                problems.append(f"{label} differs from Goettsche's product")
    return problems


def character_problems(terms: dict, rank: int, dimension: int, reduced: bool) -> list[str]:
    """Ways a tangent character, as an exponent-to-coefficient map, is wrong.

    A full character at an isolated fixed point has no trivial weight; a
    reduced one does, along the positive-dimensional fixed locus.
    """
    problems = []
    if sum(terms.values()) != dimension:
        problems.append(f"dimension {sum(terms.values())}, expected 2rn = {dimension}")
    if any(c < 0 for c in terms.values()):
        problems.append("negative coefficient")
    if not reduced and (0, 0, (0,) * rank) in terms:
        problems.append("trivial weight at an isolated fixed point")
    return problems
