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
diagrams.  Both are counted into one table here; the total dimension is
checked against 2*r*n on every call.

For a one-parameter subgroup that weights t1 and t2 equally and dominates
the framing weights, the fixed loci are labelled by a single diagram per
summand with

    n = sum_a |Y_a| + (p / 2r) * sum_{a<b} (k_a - k_b)^2

and the tangent character collapses to a character in t1 and the framing
variables only (`reduced_tangent_character`): the merged full character,
taken at empty first-patch diagrams and Y2 = Y, with t2 set to t1.

Every patch term comes from one per-box arm/leg formula, `_box_exponents`
(Nakajima-Yoshioka, "Instanton counting on blowup. I", math/0306198).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import InvariantError
from .laurent import Character, _Frozen, _integers, _rational
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

    @property
    def dim(self) -> int | None:
        """2rn, the dimension of the moduli space, or None when it is not an integer."""
        dim, rest = divmod(2 * self.r * self.n.numerator, self.n.denominator)
        return None if rest else dim


def _as_diagrams(items) -> tuple[PartitionDiagram, ...]:
    out = []
    for item in items:
        out.append(item if isinstance(item, PartitionDiagram) else PartitionDiagram(item))
    return tuple(out)


class _Datum(_Frozen):
    """What both fixed-point records share: a k-string, diagrams and JSON keys."""

    __slots__ = ()
    _keys: tuple[str, ...]

    def validate(self, params: ModuliParams) -> int:
        """Check the k-string against (r, k) and 2rn = 2r*boxes + p*(r*sum k_a^2 - k^2);
        returns 2rn."""
        r, k, ks = params.r, params.k, self.ks
        if len(ks) != r:
            raise InvariantError(f"expected {r} summands, got {len(ks)}")
        if sum(ks) != k:
            raise InvariantError(f"k-string {ks} does not sum to k={k}")
        dim = 2 * r * self.box_count() + params.p * (r * sum(x * x for x in ks) - k * k)
        if dim != params.dim:
            raise InvariantError(
                f"box-count constraint violated: counted {Fraction(dim, 2 * r)},"
                f" expected {params.n}"
            )
        return dim

    @classmethod
    def _from_record(cls, data, params: ModuliParams):
        # the record of a JSON object with the keys of `to_json`, first refusing a row longer
        # than n, which no fixed point has (p >= 1): `cols` has an entry per box of a row
        if not isinstance(data, dict) or any(key not in data for key in cls._keys):
            raise ValueError(
                f"a fixed-point record must be an object with keys"
                f" {', '.join(cls._keys)}, got {data!r}"
            )
        lists = [data[key] for key in cls._keys[1:] if isinstance(data[key], list)]
        rows = [x for ys in lists for y in ys if isinstance(y, list) for x in y if type(x) is int]
        longest = max(rows, default=None)
        if longest is not None and longest > params.n:
            raise InvariantError(
                f"box-count constraint violated: a row of {longest} boxes, n = {params.n}"
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


@lru_cache(maxsize=None)
def _l_exponents(p: int, d: int) -> tuple[tuple[int, int], ...]:
    """(t1, t2) exponents of the boundary block of a summand pair with k-difference d.

    The block, framing prefactor stripped, is the degree-one cohomology of
    O(-d*C - C_inf) on the p-th Hirzebruch surface, pushed down to a sum of
    line bundles O(-p*d') on the base; each monomial has coefficient 1:

    * d = 0: none.
    * d > 0: sections of O(p*d') for d' = 0..d-1 contribute monomials
      t1^-i t2^-j over i, j >= 0 with i + j = p*d'.
    * d < 0: the H^1 of O(-p*d') for d' = 1..-d contributes monomials
      t1^a t2^b over a, b >= 1 with a + b = p*d'.

    The d and -d blocks have p*d^2 monomials together.  Cached, as a tuple.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if d > 0:
        return tuple((-i, i - p * dp) for dp in range(d) for i in range(p * dp + 1))
    return tuple((a, p * dp - a) for dp in range(1, -d + 1) for a in range(1, p * dp))


@lru_cache(maxsize=None)
def _framings(rank: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry [a][b]: the exponent vector of e_b/e_a of summand pair (a, b), zero if a == b."""
    table = []
    for a in range(rank):
        row = []
        for b in range(rank):
            es = [0] * rank
            es[b] += 1
            es[a] -= 1
            row.append(tuple(es))
        table.append(tuple(row))
    return tuple(table)


def _box_exponents(y_c: PartitionDiagram, y_e: PartitionDiagram):
    """(t1, t2) exponents (-leg, 1 + arm) of the boxes of y_c, the leg measured in y_e.

    Box (i, j) gives (j + 1 - y_e.rows[i], y_c.cols[j] - i), row by row from the corner.
    """
    rows_e, cols_c = y_e.rows, y_c.cols
    for i, length in enumerate(y_c.rows):
        other = rows_e[i] if i < len(rows_e) else 0
        for j in range(length):
            yield j + 1 - other, cols_c[j] - i


def _patch_exponents(y_alpha: PartitionDiagram, y_beta: PartitionDiagram):
    """Patch-term (t1, t2) exponents of a summand pair: `_box_exponents(y_alpha, y_beta)`,
    then (1, 1) minus those of `_box_exponents(y_beta, y_alpha)`."""
    yield from _box_exponents(y_alpha, y_beta)
    for x, y in _box_exponents(y_beta, y_alpha):
        yield 1 - x, 1 - y


def _tangent_keys(params: ModuliParams, datum: _Datum, y1s, y2s) -> list:
    """The (t1, t2, framing) exponent of every tangent term at `datum`, one key per term.

    `datum` is validated, and its k-string read; y1s and y2s are its Y1 and
    Y2 diagrams.  Sums, over ordered summand pairs (a, b), e_b/e_a times the
    boundary block `_l_exponents(p, k_a - k_b)` and the patch terms t1^x t2^y
    of the pair on the Y1 and on the Y2 diagrams, pushed through the charts
    (t1^p, t2/t1) and (t1/t2, t2^p), with shift = p(k_b - k_a):

        t1^(p*x - y + shift) t2^y   and   t1^x t2^(p*y - x + shift)

    Box by box: an exponent of `_box_exponents(Y_c, Y_e)` is a term of pair
    (c, e), and its chart image taken from (p - 1, 1) or (1, p - 1) one of
    (e, c).  Raises InvariantError unless there are 2*r*n keys.
    """
    dim = datum.validate(params)
    p, r, ks, framings = params.p, params.r, datum.ks, _framings(params.r)
    keys: list = []
    add = keys.append
    for c in range(r):
        y1, y2 = y1s[c], y2s[c]
        for e in range(r):
            es = framings[c][e]
            if ks[c] != ks[e]:
                for x, y in _l_exponents(p, ks[c] - ks[e]):
                    add((x, y, es))
            if not (y1.rows or y2.rows):
                continue
            dual, shift = framings[e][c], p * (ks[e] - ks[c])
            for x, y in _box_exponents(y1, y1s[e]) if y1.rows else ():
                x = p * x - y + shift
                add((x, y, es))
                add((p - 1 - x, 1 - y, dual))
            for x, y in _box_exponents(y2, y2s[e]) if y2.rows else ():
                y = p * y - x + shift
                add((x, y, es))
                add((1 - x, p - 1 - y, dual))
    # every key counts once, so the character's dimension is the number of keys
    if len(keys) != dim:
        raise InvariantError(
            f"tangent character has dimension {len(keys)}, expected 2*r*n = {dim}"
        )
    return keys


def tangent_character(params: ModuliParams, fp: FixedPointDatum) -> Character:
    """Full torus character of the tangent space at a fixed point: the terms
    of `_tangent_keys`, counted into one Character.  Raises InvariantError
    unless the dimension equals 2*r*n.
    """
    return Character(params.r, Counter(_tangent_keys(params, fp, fp.y1, fp.y2)))


def reduced_tangent_character(
    params: ModuliParams, rfp: ReducedFixedPointDatum
) -> Character:
    """Character of the tangent space under the reduced one-parameter action.

    The merged full character: the keys of `_tangent_keys` at the k-string ks
    with empty first-patch diagrams and Y2 = Y, counted with t2 set to t1.
    So the boundary blocks are evaluated at t2 = t1 and the patch
    contributions at (t1, t2) = (1, t1^p), shifted by t1^(p(k_b - k_a)).
    Raises InvariantError unless the dimension equals 2*r*n.
    """
    keys = _tangent_keys(params, rfp, (EMPTY,) * params.r, rfp.ys)
    return Character(params.r, Counter([(x + y, 0, es) for x, y, es in keys]))
