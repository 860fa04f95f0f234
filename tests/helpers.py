"""Per-box diagram statistics, the rows enumeration of partitions, the
pairwise Morse index, the per-locus Poincare sum, the enumerated slot
tables, the Fraction k-string search over bounded compositions, series
arithmetic on one TPolynomial per power of q, ring arithmetic on Characters
and TPolynomials, the ALE validity filter, framing vectors, transposes, and Character
operations that only the tests use.

The library reads arms and legs off a diagram's rows and their conjugate
(`localization._box_exponents`) and counts box colors in closed form
(`ColoredDiagram.color_counts`).  Here the same quantities are taken box by
box, from 1-based coordinates (c, r): c is the column counted from the left,
r the row counted from the corner row upward, and box (c, r) lies in the
diagram iff r <= column_length(c).  They are the oracles for the closed forms.

    arm(Y, s) = column_length(Y, s.c) - s.r
    leg(Y, s) = row_length(Y, s.r) - s.c

The package builds each Character and TPolynomial in one call from its
term table and does no arithmetic on them.  `add`, `negate` and `product`
are that arithmetic, over the term tables, for the identities and series
oracles written with it; `substitute` applies a monomial map to (t1, t2),
for the chart maps of the tangent-character oracles.  The Character operations at the end are plain
functions over `Character.terms`, used to state symmetries of the tangent
characters.  `key_ordering` writes an ordering as a list of keys, for the
orderings beside the package's two; `flat_sign` is its sign as a sum over
the flat exponent vector.  `check_record` states what the package's immutable
records promise.  `equivariant_volume` integrates 1 over a moduli space by
localization, to be compared with values known from outside it.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import pytest
from hirzebruch import ale
from hirzebruch.counting import _factor_terms, enumerate_fixed_points, indexed_points, l_prime
from hirzebruch.laurent import Character, QSeries, TPolynomial, form_sign
from hirzebruch.localization import tangent_character
from hirzebruch.partitions import ColoredDiagram, PartitionDiagram, enumerate_partitions


def _table(x):
    return x.terms if isinstance(x, Character) else x.coeffs


def _like(x, table):
    # a Character of x's rank, or a TPolynomial, with the given terms
    return Character(x.rank, table) if isinstance(x, Character) else TPolynomial(table)


def _same_ring(x, y):
    if type(x) is not type(y) or getattr(x, "rank", None) != getattr(y, "rank", None):
        raise ValueError(f"cannot combine {x!r} and {y!r}")


def add(x, *others):
    """The sum of Characters of one rank, or of TPolynomials."""
    table = dict(_table(x))
    for y in others:
        _same_ring(x, y)
        for key, coeff in _table(y).items():
            table[key] = table.get(key, 0) + coeff
    return _like(x, table)


def negate(x):
    return _like(x, {key: -coeff for key, coeff in _table(x).items()})


def product(x, y):
    """x * y for two Characters of one rank or two TPolynomials: exponents add."""
    _same_ring(x, y)
    table = {}
    for k1, c1 in _table(x).items():
        for k2, c2 in _table(y).items():
            if isinstance(x, Character):
                (a1, b1, e1), (a2, b2, e2) = k1, k2
                key = (a1 + a2, b1 + b2, tuple(u + v for u, v in zip(e1, e2)))
            else:
                key = k1 + k2
            table[key] = table.get(key, 0) + c1 * c2
    return _like(x, table)


def substitute(x, matrix):
    """The monomial map with integer matrix ((m11, m12), (m21, m22)) on (t1, t2).

    A term t1^a t2^b of a Character goes to t1^(m11*a + m12*b) t2^(m21*a + m22*b),
    framing exponents untouched.  Colliding images add up, so this is a ring
    homomorphism for any integer matrix.
    """
    (m11, m12), (m21, m22) = matrix
    table = {}
    for (a, b, es), coeff in x.terms.items():
        key = (m11 * a + m12 * b, m21 * a + m22 * b, es)
        table[key] = table.get(key, 0) + coeff
    return Character(x.rank, table)


def partition_rows(n, cap=None):
    """Row tuples of the partitions of n with parts <= cap, decreasing lexicographically.

    The enumeration the cached diagram table replaced, kept as its oracle.
    """
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partition_rows(n - first, first)
    ]


def n_prime(y_alpha, y_beta, diff):
    """Number of columns whose boxes cancel in the pair's index count.

    Counts columns of y_alpha strictly longer than diff when diff >= 0,
    else columns of y_beta strictly longer than -diff - 1.
    """
    if diff >= 0:
        return sum(1 for length in y_alpha.cols if length > diff)
    return sum(1 for length in y_beta.cols if length > -diff - 1)


def morse_index_pairwise(params, rfp):
    """Morse index of a reduced fixed locus, summed pair by pair.

    Diagonal terms contribute |Y_a| - (number of columns of Y_a); each
    pair a < b contributes l_prime + |Y_a| + |Y_b| - n_prime.  The form the
    per-slot split of `morse_index_closed` replaced, kept as its oracle.
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


def poincare_by_loci(params):
    """Sum over reduced fixed loci of t^(2 * Morse index) times the locus's factor.

    The per-locus engine the per-slot convolution replaced, kept as its
    oracle; the index is the pairwise one, so the oracle shares no index
    code with `poincare_polynomial`.
    """
    coeffs = {}
    for point in indexed_points(params):
        shift = 2 * morse_index_pairwise(params, point.datum)
        for deg, coeff in point.factor.coeffs.items():
            coeffs[deg + shift] = coeffs.get(deg + shift, 0) + coeff
    return TPolynomial(coeffs)


@lru_cache(maxsize=None)
def slot_table(thresholds, size):
    """Sum over diagrams Y of `size` boxes of t^(2 * slot term) times Y's
    component factor, as sorted (degree, coefficient) pairs.

    The slot term is minus the columns of Y, minus its columns longer than
    each threshold, so degrees may be negative.  The enumerated per-slot
    table that the closed product `_slots_series` replaced, kept as its
    oracle.
    """
    terms = {}
    for y in enumerate_partitions(size):
        shift = 2 * (-len(y.cols) - sum(1 for th in thresholds for h in y.cols if h > th))
        for deg, coeff in _factor_terms((y,)).items():
            terms[deg + shift] = terms.get(deg + shift, 0) + coeff
    return tuple(sorted(terms.items()))


def convolved_slot_tables(thresholds, order):
    """{boxes: {degree: coeff}} for every box count <= order: the slot tables
    of every slot's thresholds, convolved over the box counts of the slots."""
    partial = {0: {0: 1}}
    for th in thresholds:
        grown = {}
        for used, terms in partial.items():
            for size in range(order - used + 1):
                into = grown.setdefault(used + size, {})
                for deg, coeff in terms.items():
                    for step, mult in slot_table(th, size):
                        into[deg + step] = into.get(deg + step, 0) + coeff * mult
        partial = grown
    return partial


def bounded_compositions(total, parts, lo=0, hi=None):
    """Tuples of `parts` integers in lo..hi summing to total, ascending lexicographically.

    hi=None bounds each entry only by what the others leave of the total.
    One generator per part, trying only heads from which the rest can still
    reach the total.  The bounded search `fraction_k_strings` runs on, and
    the oracle of the stars-and-bars `compositions` at lo=0.
    """
    if parts < 0:
        raise ValueError(f"number of parts must be nonnegative, got {parts}")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if hi is None:
        hi = total - (parts - 1) * lo
    if parts == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    rest = parts - 1
    for head in range(max(lo, total - rest * hi), min(hi, total - rest * lo) + 1):
        for tail in bounded_compositions(total - head, rest, lo, hi):
            yield (head,) + tail


def pair_weight(p, ks):
    """(p / 2r) * sum over pairs a < b of (k_a - k_b)^2, r = len(ks), pair by pair."""
    pairs = sum((x - y) ** 2 for x, y in itertools.combinations(ks, 2))
    return Fraction(p * pairs, 2 * len(ks))


def fraction_k_strings(params, full_box=False):
    """(k-string, excess) pairs by the rational searches the integer one replaced.

    In the box |k_a - k/r| <= isqrt(2n/p) + 1 it takes the compositions of
    k, or with full_box every string of the box that sums to k (the search
    before `compositions`), and keeps those whose excess n - pair_weight is
    a nonnegative integer.
    """
    if params.n < 0:
        return []
    radius = math.isqrt(int(2 * params.n // params.p)) + 1
    center = Fraction(params.k, params.r)
    lo = math.ceil(center - radius)
    hi = math.floor(center + radius)
    if full_box:
        box = itertools.product(range(lo, hi + 1), repeat=params.r)
        strings = (ks for ks in box if sum(ks) == params.k)
    else:
        strings = bounded_compositions(params.k, params.r, lo, hi)
    out = []
    for ks in strings:
        excess = params.n - pair_weight(params.p, ks)
        if excess >= 0 and excess.denominator == 1:
            out.append((ks, int(excess)))
    return out


# Series as {q-exponent: TPolynomial} maps truncated at `order`, multiplied
# term by term: the arithmetic the in-place monomial factors of `QSeries`
# replaced, kept as their oracle.


def spread_one_minus(order, coeffs, qexp, poly):
    """coeffs times (1 - q^qexp * poly)."""
    out, minus = dict(coeffs), negate(poly)
    for q, p in coeffs.items():
        q += qexp
        if q <= order:
            out[q] = add(out[q], product(p, minus)) if q in out else product(p, minus)
    return out


def spread_inverse_one_minus(order, coeffs, qexp, poly):
    """coeffs times 1/(1 - q^qexp * poly): each term spreads into q^(m*qexp) poly^m."""
    out = {}
    for q, p in coeffs.items():
        while q <= order:
            out[q] = add(out[q], p) if q in out else p
            q, p = q + qexp, product(p, poly)
    return out


def series_sum(left, right):
    out = dict(left)
    for q, p in right.items():
        out[q] = add(out.get(q, TPolynomial()), p)
    return out


def series_product(order, left, right):
    out = {}
    for q1, p1 in left.items():
        for q2, p2 in right.items():
            if q1 + q2 <= order:
                out[q1 + q2] = add(out.get(q1 + q2, TPolynomial()), product(p1, p2))
    return out


def rank2_series_by_products(p, order):
    """The closed rank-2 series as the Pochhammer product times the bracket.

    Each sector term of the bracket is multiplied by its own ratios
    (1 - q^i t^(4i-4)) / (1 - q^i t^(4i)), the terms are summed, and the
    sum is multiplied by the product series.
    """
    pochhammer = {0: TPolynomial({0: 1})}
    for i in range(1, order + 1):
        for degree in (4 * i, 4 * i - 2, 4 * i - 2, 4 * i - 4):
            pochhammer = spread_inverse_one_minus(order, pochhammer, i, TPolynomial({degree: 1}))
    bracket = {}
    sectors = [(h, 2 * h, 2 * h * (p * (2 * h - 1) + 2)) for h in range(order + 1)]
    sectors += [(h, 2 * h - 1, 2 * (2 * h - 1) * (p * h + 1)) for h in range(1, order + 1)]
    for h, ratios, degree in sectors:
        if p * h * h <= order:
            term = {p * h * h: TPolynomial({degree: 1})}
            for i in range(1, ratios + 1):
                term = spread_one_minus(order, term, i, TPolynomial({4 * i - 4: 1}))
                term = spread_inverse_one_minus(order, term, i, TPolynomial({4 * i: 1}))
            bracket = series_sum(bracket, term)
    return QSeries(order, series_product(order, pochhammer, bracket))


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


def is_valid(fp):
    """Whether a tuple of colored diagrams is an ALE fixed point: N1 + 2*(k0 - k1) == 0.

    With `instanton_number`, the filter that the charge-pruned enumeration
    replaced, kept as its oracle; the colors are counted box by box.
    """
    counts = [color_counts_by_box(t) for t in fp.tableaux]
    k0, k1 = sum(c[0] for c in counts), sum(c[1] for c in counts)
    return fp.corner_color_count() + 2 * (k0 - k1) == 0


def instanton_number(fp):
    """k0 + N1/4, with k0 the boxes of color 0."""
    k0 = sum(color_counts_by_box(t)[0] for t in fp.tableaux)
    return k0 + Fraction(fp.corner_color_count(), 4)


def counted_index(fp, ordering):
    """The ALE Morse index of `fp` under `ordering`, summed from the pair tallies."""
    return ale._counted_index(fp, ale._pair_forms(ordering, fp.rank))


def transpose(y):
    """The conjugate diagram: its rows are y's column heights."""
    return PartitionDiagram(y.cols)


def transpose_colored(d):
    # (i, j) -> (j, i) preserves i + j, so the coloring transposes along
    return ColoredDiagram(transpose(d.diagram), d.eps)


def swap_t(x):
    """Exchange t1 and t2."""
    return substitute(x, ((0, 1), (1, 0)))


def framing_ratio(rank, beta, alpha):
    """Exponent vector of e_beta / e_alpha, 1-based; zero when alpha == beta."""
    es = [0] * rank
    if alpha != beta:
        es[beta - 1] += 1
        es[alpha - 1] -= 1
    return tuple(es)


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


def key_ordering(keys):
    """The ordering with priority list `keys`, as `laurent.main_ordering` gives one.

    A key is a name ("t1", "e3") or a tuple of names, each name in one key.
    At framing vector es it is the form u*x + v*y + w: u and v count t1 and
    t2 in it, w sums its framing exponents.  Zero forms are dropped, and the
    list ends at the first constant one."""
    groups = [(key,) if isinstance(key, str) else tuple(key) for key in keys]

    def forms(es):
        kept = []
        for group in groups:
            u, v = group.count("t1"), group.count("t2")
            w = sum(es[int(name[1:]) - 1] for name in group if name[0] == "e")
            if u or v or w:
                kept.append((u, v, w))
                if not (u or v):
                    break
        return tuple(kept)

    return forms


def sign(ordering, key):
    """Sign of the monomial `key` = (a, b, es) under `ordering`, by `form_sign`."""
    a, b, es = key
    return form_sign(ordering(es), a, b)


def zero_weight_count(x, ordering):
    """Number of terms, with multiplicity, of weight 0 under `ordering`."""
    return sum(c for key, c in x.terms.items() if sign(ordering, key) == 0)


def flat_sign(keys, key):
    """Sign of a monomial under `keys`, each a tuple of names, as a sum over
    the flat exponent vector (a, b, c1, .., cr).

    Each key sums the entries at its variables' positions, and the first
    nonzero sum gives the sign: the oracle of `key_ordering` and `form_sign`.
    """
    a, b, es = key
    flat = (a, b) + tuple(es)
    for group in keys:
        value = sum(flat[int(name[1:]) + 1 if name[0] == "e" else int(name[1]) - 1] for name in group)
        if value:
            return 1 if value > 0 else -1
    return 0


def check_record(record, expected_repr):
    """Check what an immutable record promises, as its dataclass form did.

    Its fields are its `__slots__`.  A copy built from them by keyword is
    equal to it and hashes like their tuple.  A record of another class
    with the same fields is unequal.  It prints as `expected_repr`, rejects
    setting and deleting attributes, and pickles and copies to an equal
    record.
    """
    cls = type(record)
    fields = cls.__slots__
    values = tuple(getattr(record, name) for name in fields)

    class Other(cls):
        __slots__ = ()

    twin = cls(**dict(zip(fields, values)))
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    assert record != Other(*values) and Other(*values) != record
    assert record != values
    assert repr(record) == expected_repr
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
    # pickle and copy call the constructor, which checks the fields again
    assert record.__reduce__() == (cls, values)
    copies = (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record))
    for copied in copies:
        assert type(copied) is cls and copied == record


def equivariant_volume(params, eps1, eps2, a):
    """The sum over the fixed points of 1 / e(T), at the weights eps1, eps2 of
    t1, t2 and a_i of e_i: each tangent character term t1^x t2^y e^es of
    coefficient c contributes the factor (x*eps1 + y*eps2 + sum(e_i*a_i))^-c.
    No weight may be 0.  `a` may be longer than the rank."""
    total = Fraction(0)
    for point in enumerate_fixed_points(params):
        term = Fraction(1)
        for (x, y, es), coeff in tangent_character(params, point).terms.items():
            weight = x * eps1 + y * eps2 + sum(map(math.prod, zip(es, a)))
            assert weight, f"the weight of t1^{x} t2^{y} e^{es} is 0 at {point}"
            term /= Fraction(weight) ** coeff
        total += term
    return total
