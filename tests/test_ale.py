from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from helpers import (
    add,
    bounded_compositions,
    check_record,
    color_counts_by_box,
    counted_index,
    framing_ratio,
    instanton_number,
    invariant_part,
    is_valid,
    permute_framing,
    swap_t,
    transpose_colored,
    zero_weight_count,
)
from hypothesis import given, strategies as st

from hirzebruch import InvariantError, ale
from hirzebruch.ale import (
    ColoredFixedPoint,
    ale_poincare,
    ale_tangent_character,
    enumerate_colored_fixed_points,
)
from hirzebruch.counting import poincare_polynomial
from hirzebruch.laurent import Character, OrderingSpec, TPolynomial, ale_ordering, main_ordering
from hirzebruch.localization import ModuliParams, _patch_exponents
from hirzebruch.partitions import ColoredDiagram, PartitionDiagram, enumerate_partitions


def cfp(*pairs):
    return ColoredFixedPoint(
        tuple(ColoredDiagram(PartitionDiagram(rows), eps) for rows, eps in pairs)
    )


def mono(a, b, e, coeff=1):
    return Character(2, {(a, b, tuple(e)): coeff})


def points(r, n):
    return list(enumerate_colored_fixed_points(r, n))


def corners(fp):
    return tuple(t.eps for t in fp.tableaux)


def test_point_counts_frozen():
    assert len(points(2, 1)) == 4
    assert len(points(2, 2)) == 16
    assert len(points(2, Fraction(1, 2))) == 2
    assert len(points(1, 1)) == 2
    assert len(points(2, 3)) == 48
    assert len(points(2, 4)) == 133


def test_poincare_frozen_values():
    assert ale_poincare(2, 1) == TPolynomial({0: 1, 2: 2, 4: 1})
    assert ale_poincare(2, 2) == TPolynomial({0: 1, 2: 2, 4: 5, 6: 5, 8: 3})
    assert ale_poincare(2, 3) == TPolynomial(
        {0: 1, 2: 2, 4: 5, 6: 10, 8: 13, 10: 12, 12: 5}
    )
    assert ale_poincare(2, 4) == TPolynomial(
        {0: 1, 2: 2, 4: 5, 6: 10, 8: 20, 10: 28, 12: 33, 14: 24, 16: 10}
    )
    assert ale_poincare(2, Fraction(1, 2)) == TPolynomial({0: 1, 2: 1})
    assert ale_poincare(1, 1) == TPolynomial({0: 1, 2: 1})
    assert ale_poincare(1, 2) == TPolynomial({0: 1, 2: 2, 4: 2})
    assert ale_poincare(1, 3) == TPolynomial({0: 1, 2: 2, 4: 4, 6: 3})


def test_empty_sectors():
    for r, n in ((2, Fraction(1, 4)), (2, -1), (1, Fraction(1, 2)), (2, Fraction(3, 4))):
        assert points(r, n) == []
        assert ale_poincare(r, n) == TPolynomial()


def _colored_tuples(sizes):
    if not sizes:
        yield ()
        return
    for diagram in enumerate_partitions(sizes[0]):
        for eps in (0, 1):
            head = ColoredDiagram(diagram, eps)
            for tail in _colored_tuples(sizes[1:]):
                yield (head,) + tail


def recursive_colored_points(r, n):
    """The enumeration as it was before the shared generators, as an order oracle."""
    out = []
    for sizes in bounded_compositions(int(2 * n), r):
        for tableaux in _colored_tuples(sizes):
            fp = ColoredFixedPoint(tableaux)
            if is_valid(fp) and instanton_number(fp) == n:
                out.append(fp)
    return out


def test_enumeration_order_matches_recursive_oracle():
    for r, max_boxes in ((1, 10), (2, 10), (3, 8), (4, 8), (5, 6)):
        for boxes in range(max_boxes + 1):
            n = Fraction(boxes, 2)
            assert points(r, n) == recursive_colored_points(r, n), (r, n)


def charge(colored):
    k0, k1 = color_counts_by_box(colored)
    return colored.eps + 2 * (k0 - k1)


@st.composite
def colored_tuples(draw):
    r = draw(st.integers(1, 4))
    return tuple(
        ColoredDiagram(
            draw(st.sampled_from(enumerate_partitions(draw(st.integers(0, 4))))),
            draw(st.integers(0, 1)),
        )
        for _ in range(r)
    )


@given(colored_tuples())
def test_charges_balance_exactly_on_valid_tuples(tableaux):
    # a tuple of 2n boxes has instanton number n and is valid iff its charges sum to 0
    fp = ColoredFixedPoint(tableaux)
    n = Fraction(sum(t.diagram.size for t in tableaux), 2)
    balanced = sum(charge(t) for t in tableaux) == 0
    assert (is_valid(fp) and instanton_number(fp) == n) == balanced


def test_enumeration_rejects_bad_rank():
    with pytest.raises(ValueError):
        points(0, 1)
    with pytest.raises(ValueError):
        points(True, 1)


@pytest.mark.parametrize("n", [0.1, 0.5, 1.0, True, None, "1/0"])
def test_enumeration_rejects_inexact_n(n):
    with pytest.raises(ValueError):
        points(2, n)
    with pytest.raises(ValueError):
        ale_poincare(2, n)


def test_enumeration_accepts_exact_text():
    assert points(2, "1/2") == points(2, Fraction(1, 2))
    assert ale_poincare(2, "1/2") == TPolynomial({0: 1, 2: 1})


def test_integer_sector_has_uniform_corners():
    for fp in points(2, 2):
        assert is_valid(fp)
        assert corners(fp) == (0, 0)
        assert instanton_number(fp) == 2
        assert sum(t.diagram.size for t in fp.tableaux) == 4


def test_fractional_sector_frozen():
    got = points(2, Fraction(1, 2))
    assert [fp.to_json() for fp in got] == [
        {"tableaux": [{"rows": [], "eps": 1}, {"rows": [1], "eps": 1}]},
        {"tableaux": [{"rows": [1], "eps": 1}, {"rows": [], "eps": 1}]},
    ]
    first, second = got
    assert ale_tangent_character(first) == add(mono(0, 0, (-1, 1)), mono(1, 1, (1, -1)))
    assert ale_tangent_character(second) == add(mono(0, 0, (1, -1)), mono(1, 1, (-1, 1)))
    assert counted_index(first, ale_ordering(2)) == 1
    assert counted_index(second, ale_ordering(2)) == 0


def test_rank_one_frozen_characters():
    flat = cfp(([2], 0))
    tall = cfp(([1, 1], 0))
    assert ale_tangent_character(flat) == Character(
        1, {(-1, 1, (0,)): 1, (2, 0, (0,)): 1}
    )
    assert ale_tangent_character(tall) == Character(
        1, {(1, -1, (0,)): 1, (0, 2, (0,)): 1}
    )
    assert counted_index(flat, ale_ordering(1)) == 0
    assert counted_index(tall, ale_ordering(1)) == 1


def sector_polynomials(r, n):
    """The points of (r, n) split by their corner-color vector, each part summed."""
    sectors = defaultdict(Counter)
    for fp in points(r, n):
        sectors[corners(fp)][2 * counted_index(fp, ale_ordering(r))] += 1
    return {vector: TPolynomial(counts) for vector, counts in sectors.items()}


@pytest.mark.parametrize("r, n", [(2, 2), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_all_zero_corner_sector_matches_the_surface(r, n):
    polys = sector_polynomials(r, n)
    assert polys[(0,) * r] == poincare_polynomial(ModuliParams(2, r, 0, n))


@pytest.mark.parametrize(
    "r, n",
    [(5, 2), (3, Fraction(3, 2)), (4, Fraction(3, 2)), (3, Fraction(5, 2)), (4, Fraction(1, 2))],
)
def test_permuted_corner_vectors_give_equal_polynomials(r, n):
    by_class = defaultdict(dict)
    for vector, poly in sector_polynomials(r, n).items():
        by_class[tuple(sorted(vector))][vector] = poly
    assert any(len(sectors) > 1 for sectors in by_class.values())
    for sectors in by_class.values():
        first, *others = sectors.values()
        assert all(poly == first for poly in others), sectors


def test_rank_four_sum_still_counts_the_all_one_sector():
    # ale_poincare(4, 1) also sums the (1,1,1,1) sector, so it is not the surface's
    polys = sector_polynomials(4, 1)
    assert set(polys) == {(0, 0, 0, 0), (1, 1, 1, 1)}
    surface = poincare_polynomial(ModuliParams(2, 4, 0, 1))
    assert ale_poincare(4, 1) == add(polys[(0, 0, 0, 0)], polys[(1, 1, 1, 1)])
    assert ale_poincare(4, 1) != surface


def transpose(fp):
    return ColoredFixedPoint(map(transpose_colored, fp.tableaux))


def reverse(fp):
    return ColoredFixedPoint(fp.tableaux[::-1])


def test_transpose_matches_t_swap():
    for fp in points(2, 2):
        swapped = swap_t(ale_tangent_character(fp))
        assert ale_tangent_character(transpose(fp)) == swapped
        assert instanton_number(transpose(fp)) == instanton_number(fp)


def test_reverse_matches_framing_swap():
    for fp in points(2, 2):
        relabeled = permute_framing(ale_tangent_character(fp), (2, 1))
        assert ale_tangent_character(reverse(fp)) == relabeled


def test_transpose_and_reverse_permute_the_point_set():
    originals = {str(fp.to_json()) for fp in points(2, 2)}
    assert {str(transpose(fp).to_json()) for fp in points(2, 2)} == originals
    assert {str(reverse(fp).to_json()) for fp in points(2, 2)} == originals


def test_poincare_ordering_invariance():
    orderings = [
        OrderingSpec(["t2", "e1", "e2", "t1"]),
        OrderingSpec(["t2", "e2", "e1", "t1"]),
        OrderingSpec(["t1", "e1", "e2", "t2"]),
        OrderingSpec(["t1", "e2", "e1", "t2"]),
    ]
    for r, n in ((2, 1), (2, 2)):
        # each ordering gives no term weight 0, so its counts are Morse indexes
        for ordering in orderings:
            assert not any(zero_weight_count(ale_tangent_character(fp), ordering)
                           for fp in points(r, n))
            counts = Counter(2 * counted_index(fp, ordering) for fp in points(r, n))
            assert TPolynomial(counts) == ale_poincare(r, n), ordering


def test_poincare_at_one_counts_points():
    for n in (1, 2, 3):
        assert ale_poincare(2, n)(1) == len(points(2, n))


def test_tangent_dimension_tracks_corner_split():
    # dimension is 2rn - N0*N1/2 at each point, also in mixed sectors
    for r, n in ((3, Fraction(3, 2)), (5, 1)):
        got = points(r, n)
        assert got
        for fp in got:
            n1 = fp.corner_color_count()
            expected = 2 * r * n - Fraction((r - n1) * n1, 2)
            assert ale_tangent_character(fp).dimension() == expected


def ale_tangent_character_oracle(fp):
    # the pair-by-pair assembly that the single term count replaced
    r, eps = fp.rank, corners(fp)
    total = Character(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            ya, yb = fp.tableaux[a - 1].diagram, fp.tableaux[b - 1].diagram
            es = framing_ratio(r, b, a)
            block = Character(r, Counter((x, y, es) for x, y in _patch_exponents(ya, yb)))
            total = add(total, invariant_part(block, eps))
    return total


@pytest.mark.parametrize(
    "r, n, corner_counts",
    [
        (2, 5, {0}),
        (3, 3, {0}),
        (4, 2, {0, 4}),
        # mixed corner colors within a point: eps_b - eps_a is nonzero
        (3, Fraction(5, 2), {2}),
        (4, Fraction(3, 2), {2}),
    ],
)
def test_tangent_character_matches_pairwise_oracle(r, n, corner_counts):
    found = points(r, n)
    assert {fp.corner_color_count() for fp in found} == corner_counts
    for fp in found:
        assert ale_tangent_character(fp) == ale_tangent_character_oracle(fp)


def orderings_for(r):
    es = [f"e{i}" for i in range(1, r + 1)]
    return [
        ale_ordering(r),
        main_ordering(r),  # grouped {t1+t2}
        OrderingSpec([es[-1], "t1"] + es[:-1] + ["t2"]),  # led by a framing variable
        OrderingSpec(["t1"] + es + ["t2"]),  # led by t1
        OrderingSpec(["t2"] + es[::-1] + ["t1"]),  # permuted e's
        OrderingSpec([("t2", "e1")] + es[1:] + ["t1"]),  # t2 grouped with e1
    ]


# a sector whose points do not all share one corner color, per rank
MIXED_SECTOR = {3: Fraction(5, 2), 4: Fraction(3, 2), 5: Fraction(1)}


@pytest.mark.parametrize("r, max_boxes", [(1, 8), (2, 8), (3, 8), (4, 8), (5, 2)])
def test_counted_index_matches_the_character(r, max_boxes):
    # every sector up to 2n = max_boxes, mixed corner colors included
    orderings = orderings_for(r)
    mixed = set()
    for boxes in range(max_boxes + 1):
        n = Fraction(boxes, 2)
        count = Counter()
        for fp in points(r, n):
            x = ale_tangent_character(fp)
            if 0 < fp.corner_color_count() < r:
                mixed.add(n)
            indexes = [x.negative_count(ordering) for ordering in orderings]
            for ordering, index in zip(orderings, indexes):
                assert counted_index(fp, ordering) == index, (fp, ordering)
            count[2 * indexes[0]] += 1  # orderings[0] is the one ale_poincare counts under
        assert ale_poincare(r, n) == TPolynomial(count), n
    assert (MIXED_SECTOR[r] in mixed) if r in MIXED_SECTOR else not mixed


def test_wrong_rank_ordering_is_rejected_on_a_nonempty_space():
    fp = points(2, 1)[0]
    for ordering in (ale_ordering(1), ale_ordering(3), main_ordering(3)):
        with pytest.raises(ValueError):
            counted_index(fp, ordering)


def test_main_ordering_is_not_admissible_on_the_ale_space():
    # at r = 1, n = 1 the point [2] has the invariant term t1^-1 t2, which
    # main_ordering weighs 0: its negative-term count is no Morse index there
    [fp] = [fp for fp in points(1, 1) if fp.tableaux[0].diagram == PartitionDiagram((2,))]
    x = ale_tangent_character(fp)
    assert x.terms.get((-1, 1, (0,))) == 1
    assert zero_weight_count(x, main_ordering(1)) == 1
    assert zero_weight_count(x, ale_ordering(1)) == 0


@pytest.fixture
def drop_one_pair_term(monkeypatch):
    """Make `ale._pair_exponents` lose one term, at the first nonempty pair after each reset."""
    original = ale._pair_exponents
    dropped = []

    def drop_one(y_a, y_b, parity):
        exponents = original(y_a, y_b, parity)
        if exponents and not dropped:
            dropped.append((y_a, y_b, parity))
            return exponents[1:]
        return exponents

    def reset():
        dropped.clear()
        ale._pair_tally.cache_clear()

    monkeypatch.setattr(ale, "_pair_exponents", drop_one)
    reset()
    yield reset
    # the cached tallies were counted from the broken pairs
    ale._pair_tally.cache_clear()


@pytest.mark.parametrize("r, n", [(1, 1), (2, Fraction(1, 2)), (3, Fraction(5, 2))])
def test_a_dropped_pair_term_fails_the_dimension_check(drop_one_pair_term, r, n):
    fp = points(r, n)[0]
    n1 = fp.corner_color_count()
    expected = 2 * r * n - Fraction((r - n1) * n1, 2)
    message = f"ALE tangent character has dimension {expected - 1}, expected {expected}"
    calls = (
        lambda: ale_poincare(r, n),
        lambda: counted_index(fp, ale_ordering(r)),
        lambda: ale_tangent_character(fp),
    )
    for call in calls:
        drop_one_pair_term()
        with pytest.raises(InvariantError) as caught:
            call()
        assert str(caught.value) == message


def test_colored_point_json_round_trip():
    fp = cfp(([2, 1], 1), ([], 0))
    data = fp.to_json()
    assert data == {"tableaux": [{"rows": [2, 1], "eps": 1}, {"rows": [], "eps": 0}]}
    assert cfp(*((t["rows"], t["eps"]) for t in data["tableaux"])) == fp


def test_colored_point_keeps_the_dataclass_contract():
    fp = next(enumerate_colored_fixed_points(2, 1))
    check_record(
        fp,
        "ColoredFixedPoint(tableaux=(ColoredDiagram([], eps=0), ColoredDiagram([2], eps=0)))",
    )
    assert ColoredFixedPoint(tableaux=list(fp.tableaux)) == fp
    with pytest.raises(ValueError) as caught:
        ColoredFixedPoint((1,))
    assert str(caught.value) == "expected ColoredDiagram entries, got 1"
