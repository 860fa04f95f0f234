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
variables only (`reduced_tangent_character`): the merged full character,
taken at empty first-patch diagrams and Y2 = Y, with t2 set to t1.

Every patch term comes from one per-box arm/leg formula, `_patch_exponents`
(Nakajima-Yoshioka, "Instanton counting on blowup. I", math/0306198).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import InvariantError
from .laurent import Character, Matrix2, _Frozen, _integers, _rational
from .partitions import EMPTY, PartitionDiagram


class ModuliParams(_Frozen):
    """Numerical parameters (p, r, k, n) of a moduli space."""

    __slots__ = ("p", "r", "k", "n")

    def __init__(self, p: int, r: int, k: int, n: Fraction | int | str):
        if type(p) is not int or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        if type(r) is not int or r < 1:
            raise ValueError(f"r must be a positive integer, got {r!r}")
        if type(k) is not int:
            raise ValueError(f"k must be an integer, got {k!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", _rational(n))

    def pair_weight(self, ks: tuple[int, ...]) -> Fraction:
        """(p / 2r) * sum over pairs of squared k-differences."""
        # sum_{a<b} (k_a - k_b)^2 = r * sum_a k_a^2 - (sum_a k_a)^2
        squares = sum(x * x for x in ks)
        total = sum(ks)
        return Fraction(self.p * (len(ks) * squares - total * total), 2 * self.r)

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


class _Datum(_Frozen):
    """What both fixed-point records share: a k-string, diagrams and JSON keys."""

    __slots__ = ()
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


class FixedPointDatum(_Datum):
    """A torus fixed point: k-string plus one diagram pair per summand."""

    __slots__ = ("ks", "y1", "y2")
    _keys = ("k", "Y1", "Y2")

    def __init__(self, ks, y1, y2):
        ks = _integers(ks)
        y1 = _as_diagrams(y1)
        y2 = _as_diagrams(y2)
        if not (len(ks) == len(y1) == len(y2)):
            raise ValueError("ks, y1 and y2 must all have one entry per summand")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)

    def box_count(self) -> int:
        return sum(y.size for y in self.y1) + sum(y.size for y in self.y2)

    def to_json(self) -> dict:
        return {
            "k": list(self.ks),
            "Y1": [y.to_json() for y in self.y1],
            "Y2": [y.to_json() for y in self.y2],
        }


class ReducedFixedPointDatum(_Datum):
    """A fixed-locus label for the reduced action: k-string plus one diagram each."""

    __slots__ = ("ks", "ys")
    _keys = ("k", "Y")

    def __init__(self, ks, ys):
        ks = _integers(ks)
        ys = _as_diagrams(ys)
        if len(ks) != len(ys):
            raise ValueError("ks and ys must have one entry per summand")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ys", ys)

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

    Dimensions of the d and -d blocks sum to p*d^2.  Each call builds a
    new Character, so a caller may change it freely.
    """
    return Character(0, {(x, y, ()): 1 for x, y in _l_exponents(p, d)})


@lru_cache(maxsize=None)
def _l_exponents(p: int, d: int) -> tuple[tuple[int, int], ...]:
    # the (t1, t2) exponents of the monomials of `l_character`, each with
    # coefficient 1; a tuple, so the cached value cannot be changed
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if d > 0:
        return tuple((-i, i - p * dp) for dp in range(d) for i in range(p * dp + 1))
    return tuple((a, p * dp - a) for dp in range(1, -d + 1) for a in range(1, p * dp))


def _framing_ratio(rank: int, beta: int, alpha: int) -> tuple[int, ...]:
    # exponent vector of e_beta * e_alpha^-1 (zero when alpha == beta)
    es = [0] * rank
    if alpha != beta:
        es[beta - 1] += 1
        es[alpha - 1] -= 1
    return tuple(es)


def _patch_exponents(y_alpha: PartitionDiagram, y_beta: PartitionDiagram):
    """(t1, t2) exponents of the patch terms of a summand pair, one per box.

    Over the boxes of y_alpha: (-leg_in_y_beta, 1 + arm_in_y_alpha); over
    the boxes of y_beta: (1 + leg_in_y_alpha, -arm_in_y_beta).  Arms are
    always measured in the box's own diagram; legs in the other one, and
    may be negative (see `partitions`).  Boxes go row by row from the
    corner, each row from left to right.
    """
    rows_a, cols_a, rows_b, cols_b = y_alpha.rows, y_alpha.cols, y_beta.rows, y_beta.cols
    for i, length in enumerate(rows_a):
        other = rows_b[i] if i < len(rows_b) else 0
        for j in range(length):
            yield j + 1 - other, cols_a[j] - i
    for i, length in enumerate(rows_b):
        other = rows_a[i] if i < len(rows_a) else 0
        for j in range(length):
            yield other - j, i + 1 - cols_b[j]


def n_character(
    y_alpha: PartitionDiagram,
    y_beta: PartitionDiagram,
    alpha: int,
    beta: int,
    rank: int,
) -> Character:
    """Patchwise contribution of the summand pair (alpha, beta).

    e_beta/e_alpha times the sum of t1^x t2^y over the exponents (x, y)
    of `_patch_exponents(y_alpha, y_beta)`.  The dimension is
    |y_alpha| + |y_beta|.
    """
    if not (1 <= alpha <= rank and 1 <= beta <= rank):
        raise ValueError(f"summand labels must lie in 1..{rank}, got {alpha}, {beta}")
    es = _framing_ratio(rank, beta, alpha)
    terms: dict = {}
    for x, y in _patch_exponents(y_alpha, y_beta):
        terms[x, y, es] = terms.get((x, y, es), 0) + 1
    return Character(rank, terms)


def tangent_character(params: ModuliParams, fp: FixedPointDatum) -> Character:
    """Full torus character of the tangent space at a fixed point.

    Sums, over ordered summand pairs (a, b), the boundary contribution
    e_b/e_a * l_character(p, k_a - k_b) plus the two patch contributions,
    each pushed through its coordinate substitution and shifted by the
    appropriate power of the patch's base variable:

        t1^(p(k_b - k_a)) * n_character(Y1...)(t1^p, t2/t1)
        t2^(p(k_b - k_a)) * n_character(Y2...)(t1/t2, t2^p)

    The terms are counted into one table and become one Character.
    Raises InvariantError unless the dimension equals 2*r*n.
    """
    fp.validate(params)
    p, r, ks = params.p, params.r, fp.ks
    # (diagrams, substitution, which base variable carries the shift)
    patches = ((fp.y1, patch1_matrix(p), (1, 0)), (fp.y2, patch2_matrix(p), (0, 1)))
    terms: dict = {}
    for a in range(r):
        for b in range(r):
            es = _framing_ratio(r, b + 1, a + 1)
            for x, y in _l_exponents(p, ks[a] - ks[b]):
                terms[x, y, es] = terms.get((x, y, es), 0) + 1
            shift = p * (ks[b] - ks[a])
            for ys, ((m11, m12), (m21, m22)), (s1, s2) in patches:
                for x, y in _patch_exponents(ys[a], ys[b]):
                    key = (m11 * x + m12 * y + s1 * shift, m21 * x + m22 * y + s2 * shift, es)
                    terms[key] = terms.get(key, 0) + 1
    total = Character(r, terms)
    expected = params.expected_dimension()
    if total.dimension() != expected:
        raise InvariantError(
            f"tangent character has dimension {total.dimension()}, expected 2*r*n = {expected}"
        )
    return total


def reduced_tangent_character(
    params: ModuliParams, rfp: ReducedFixedPointDatum
) -> Character:
    """Character of the tangent space under the reduced one-parameter action.

    The merged full character: `tangent_character` at the k-string ks with
    empty first-patch diagrams and Y2 = Y, with t2 set to t1.  So the
    boundary blocks are evaluated at t2 = t1 and the patch contributions at
    (t1, t2) = (1, t1^p), shifted by t1^(p(k_b - k_a)).  Raises
    InvariantError unless the dimension equals 2*r*n.
    """
    full = FixedPointDatum(rfp.ks, (EMPTY,) * len(rfp.ys), rfp.ys)
    return tangent_character(params, full).substitute(merge_t_matrix())
