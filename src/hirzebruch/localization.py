"""Equivariant tangent-space characters at torus fixed points.

The moduli space of rank-r framed torsion-free sheaves on the p-th
Hirzebruch surface carries an action of an (r+2)-torus: t1, t2 scale the
two affine coordinates and e1..er scale the framing.  A fixed point is a
direct sum of twisted ideal sheaves and is labelled by integers
k1..kr summing to the first Chern class datum k, together with a pair of
Young diagrams (one per coordinate patch on the fiber over each of the
two torus-fixed base points) for every summand.  The second Chern class
datum n satisfies

    n = sum_a (|Y1_a| + |Y2_a|) + (p / 2r) * sum_{a<b} (k_a - k_b)^2

and may be a non-integer rational; 2*r*n is always an integer when fixed
points exist.

The tangent character decomposes into boundary contributions, which only
see the k-differences, and patchwise contributions, which see the
diagrams.  Both are assembled here; their total dimension is checked
against 2*r*n on every call.

For a one-parameter subgroup that weights t1 and t2 equally and dominates
the framing weights, the fixed loci are labelled by a single diagram per
summand with

    n = sum_a |Y_a| + (p / 2r) * sum_{a<b} (k_a - k_b)^2

and the tangent character collapses to a character in t1 and the framing
variables only (`reduced_tangent_character`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import Character, Matrix2, _integers
from .partitions import PartitionDiagram, relative_arm, relative_leg


class InvariantError(Exception):
    """A structural invariant failed; signals inconsistent data or a bug."""


@dataclass(frozen=True)
class ModuliParams:
    """Numerical parameters (p, r, k, n) of a moduli space."""

    p: int
    r: int
    k: int
    n: Fraction

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r}")
        if not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k}")
        object.__setattr__(self, "n", Fraction(self.n))

    def pair_weight(self, ks: tuple[int, ...]) -> Fraction:
        """(p / 2r) * sum over pairs of squared k-differences."""
        total = sum(
            (ks[i] - ks[j]) ** 2 for i in range(self.r) for j in range(i + 1, self.r)
        )
        return Fraction(self.p * total, 2 * self.r)

    def expected_dimension(self) -> int:
        value = 2 * self.r * self.n
        if value.denominator != 1:
            raise InvariantError(f"2*r*n must be an integer, got {value}")
        return int(value)


def _as_diagrams(items) -> tuple[PartitionDiagram, ...]:
    out = []
    for item in items:
        out.append(item if isinstance(item, PartitionDiagram) else PartitionDiagram(item))
    return tuple(out)


class _Datum:
    """What both fixed-point records share: a k-string, diagrams and JSON keys."""

    _keys: tuple[str, ...]

    def validate(self, params: ModuliParams) -> None:
        if len(self.ks) != params.r:
            raise InvariantError(f"expected {params.r} summands, got {len(self.ks)}")
        if sum(self.ks) != params.k:
            raise InvariantError(f"k-string {self.ks} does not sum to k={params.k}")
        n = self.box_count() + params.pair_weight(self.ks)
        if n != params.n:
            raise InvariantError(
                f"box-count constraint violated: counted {n}, expected {params.n}"
            )

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or any(key not in data for key in cls._keys):
            raise ValueError(
                f"a fixed-point record must be an object with keys"
                f" {', '.join(cls._keys)}, got {data!r}"
            )
        try:
            return cls(*(data[key] for key in cls._keys))
        except TypeError as exc:
            raise ValueError(f"malformed fixed-point record {data!r}: {exc}") from None


@dataclass(frozen=True)
class FixedPointDatum(_Datum):
    """A torus fixed point: k-string plus one diagram pair per summand."""

    ks: tuple[int, ...]
    y1: tuple[PartitionDiagram, ...]
    y2: tuple[PartitionDiagram, ...]

    _keys = ("k", "Y1", "Y2")

    def __post_init__(self):
        object.__setattr__(self, "ks", _integers(self.ks))
        object.__setattr__(self, "y1", _as_diagrams(self.y1))
        object.__setattr__(self, "y2", _as_diagrams(self.y2))
        if not (len(self.ks) == len(self.y1) == len(self.y2)):
            raise ValueError("ks, y1 and y2 must all have one entry per summand")

    def box_count(self) -> int:
        return sum(y.size for y in self.y1) + sum(y.size for y in self.y2)

    def to_json(self) -> dict:
        return {
            "k": list(self.ks),
            "Y1": [y.to_json() for y in self.y1],
            "Y2": [y.to_json() for y in self.y2],
        }


@dataclass(frozen=True)
class ReducedFixedPointDatum(_Datum):
    """A fixed-locus label for the reduced action: k-string plus one diagram each."""

    ks: tuple[int, ...]
    ys: tuple[PartitionDiagram, ...]

    _keys = ("k", "Y")

    def __post_init__(self):
        object.__setattr__(self, "ks", _integers(self.ks))
        object.__setattr__(self, "ys", _as_diagrams(self.ys))
        if len(self.ks) != len(self.ys):
            raise ValueError("ks and ys must have one entry per summand")

    def box_count(self) -> int:
        return sum(y.size for y in self.ys)

    def to_json(self) -> dict:
        return {"k": list(self.ks), "Y": [y.to_json() for y in self.ys]}


def patch1_matrix(p: int) -> Matrix2:
    """Exponent action of t1 -> t1^p, t2 -> t2/t1."""
    return ((p, -1), (0, 1))


def patch2_matrix(p: int) -> Matrix2:
    """Exponent action of t1 -> t1/t2, t2 -> t2^p."""
    return ((1, 0), (-1, p))


def merge_t_matrix() -> Matrix2:
    """Exponent action of t2 -> t1 (both torus weights collapse onto t1)."""
    return ((1, 1), (0, 0))


def reduced_patch_matrix(p: int) -> Matrix2:
    """Exponent action of t1 -> 1, t2 -> t1^p."""
    return ((0, p), (0, 0))


@lru_cache(maxsize=None)
def l_character(p: int, d: int) -> Character:
    """Boundary contribution of a summand pair with k-difference d.

    This is the character (framing prefactor stripped, rank 0) of the
    degree-one cohomology of O(-d*C - C_inf) on the p-th Hirzebruch
    surface, pushed down to a sum of line bundles O(-p*d') on the base:

    * d = 0: zero.
    * d > 0: sections of O(p*d') for d' = 0..d-1 contribute monomials
      t1^-i t2^-j over i, j >= 0 with i + j = p*d'.
    * d < 0: the H^1 of O(-p*d') for d' = 1..-d contributes monomials
      t1^a t2^b over a, b >= 1 with a + b = p*d'.

    Dimensions of the d and -d blocks sum to p*d^2.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    terms: dict = {}
    if d > 0:
        for dp in range(d):
            for i in range(p * dp + 1):
                terms[(-i, -(p * dp - i), ())] = 1
    elif d < 0:
        for dp in range(1, -d + 1):
            for a in range(1, p * dp):
                terms[(a, p * dp - a, ())] = 1
    return Character(0, terms)


def _framing_ratio(rank: int, beta: int, alpha: int) -> tuple[int, ...]:
    # exponent vector of e_beta * e_alpha^-1 (zero when alpha == beta)
    es = [0] * rank
    if alpha != beta:
        es[beta - 1] += 1
        es[alpha - 1] -= 1
    return tuple(es)


def n_character(
    y_alpha: PartitionDiagram,
    y_beta: PartitionDiagram,
    alpha: int,
    beta: int,
    rank: int,
) -> Character:
    """Patchwise contribution of the summand pair (alpha, beta).

    e_beta/e_alpha times the sum, over boxes of y_alpha, of
    t1^-leg_in_y_beta t2^(1 + arm_in_y_alpha), plus the sum, over boxes
    of y_beta, of t1^(1 + leg_in_y_alpha) t2^-arm_in_y_beta.  Arms are
    always measured in the box's own diagram; legs in the other one, and
    may be negative.  The dimension is |y_alpha| + |y_beta|.
    """
    if not (1 <= alpha <= rank and 1 <= beta <= rank):
        raise ValueError(f"summand labels must lie in 1..{rank}, got {alpha}, {beta}")
    es = _framing_ratio(rank, beta, alpha)
    terms: dict = {}
    for s in y_alpha.boxes():
        key = (-relative_leg(y_beta, s), 1 + relative_arm(y_alpha, s), es)
        terms[key] = terms.get(key, 0) + 1
    for s in y_beta.boxes():
        key = (1 + relative_leg(y_alpha, s), -relative_arm(y_beta, s), es)
        terms[key] = terms.get(key, 0) + 1
    return Character(rank, terms)


def _check_dimension(params: ModuliParams, x: Character, label: str) -> None:
    expected = params.expected_dimension()
    if x.dimension() != expected:
        raise InvariantError(
            f"{label} has dimension {x.dimension()}, expected 2*r*n = {expected}"
        )


def tangent_character(params: ModuliParams, fp: FixedPointDatum) -> Character:
    """Full torus character of the tangent space at a fixed point.

    Sums, over ordered summand pairs (a, b), the boundary contribution
    e_b/e_a * l_character(p, k_a - k_b) plus the two patch contributions,
    each pushed through its coordinate substitution and shifted by the
    appropriate power of the patch's base variable:

        t1^(p(k_b - k_a)) * n_character(Y1...)(t1^p, t2/t1)
        t2^(p(k_b - k_a)) * n_character(Y2...)(t1/t2, t2^p)

    Raises InvariantError unless the dimension equals 2*r*n.
    """
    fp.validate(params)
    p, r = params.p, params.r
    m1, m2 = patch1_matrix(p), patch2_matrix(p)
    total = Character.zero(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = fp.ks[a - 1] - fp.ks[b - 1]
            shift = p * (fp.ks[b - 1] - fp.ks[a - 1])
            lpart = Character.monomial(r, 0, 0, _framing_ratio(r, b, a)) * l_character(
                p, d
            ).promote(r)
            n1 = n_character(fp.y1[a - 1], fp.y1[b - 1], a, b, r).substitute(m1)
            n2 = n_character(fp.y2[a - 1], fp.y2[b - 1], a, b, r).substitute(m2)
            total = (
                total
                + lpart
                + Character.monomial(r, shift, 0) * n1
                + Character.monomial(r, 0, shift) * n2
            )
    _check_dimension(params, total, "tangent character")
    return total


def reduced_tangent_character(
    params: ModuliParams, rfp: ReducedFixedPointDatum
) -> Character:
    """Character of the tangent space under the reduced one-parameter action.

    Every term lives in t1 and the framing variables only: the boundary
    blocks are evaluated at t2 = t1 and the patch contributions at
    (t1, t2) = (1, t1^p), shifted by t1^(p(k_b - k_a)).  Raises
    InvariantError unless the dimension equals 2*r*n.
    """
    rfp.validate(params)
    p, r = params.p, params.r
    merge, reduced = merge_t_matrix(), reduced_patch_matrix(p)
    total = Character.zero(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = rfp.ks[a - 1] - rfp.ks[b - 1]
            shift = p * (rfp.ks[b - 1] - rfp.ks[a - 1])
            lpart = Character.monomial(r, 0, 0, _framing_ratio(r, b, a)) * l_character(
                p, d
            ).promote(r).substitute(merge)
            npart = n_character(rfp.ys[a - 1], rfp.ys[b - 1], a, b, r).substitute(reduced)
            total = total + lpart + Character.monomial(r, shift, 0) * npart
    if any(key[1] for key in total.terms):
        raise InvariantError("reduced tangent character contains a t2 exponent")
    _check_dimension(params, total, "reduced tangent character")
    return total
