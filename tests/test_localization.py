from fractions import Fraction

import pytest
from helpers import (
    boxes,
    check_record,
    conjugate,
    promote,
    relative_arm,
    relative_leg,
    swap_t,
)
from hypothesis import given, strategies as st

from hirzebruch.counting import enumerate_fixed_points, enumerate_reduced_fixed_points
from hirzebruch.laurent import Character, main_ordering
from hirzebruch.localization import (
    FixedPointDatum,
    InvariantError,
    ModuliParams,
    ReducedFixedPointDatum,
    _patch_exponents,
    l_character,
    merge_t_matrix,
    n_character,
    patch1_matrix,
    patch2_matrix,
    reduced_tangent_character,
    tangent_character,
)
from hirzebruch.partitions import PartitionDiagram, enumerate_partitions


def mono(rank, a, b, e=None, coeff=1):
    return Character.monomial(rank, a, b, e, coeff)


@st.composite
def diagrams(draw, max_size=8):
    n = draw(st.integers(0, max_size))
    rows = []
    cap = n
    while n > 0:
        part = draw(st.integers(1, min(n, cap)))
        rows.append(part)
        cap = part
        n -= part
    return PartitionDiagram(rows)


def test_params_validation():
    with pytest.raises(ValueError):
        ModuliParams(0, 1, 0, 1)
    with pytest.raises(ValueError):
        ModuliParams(1, 0, 0, 1)
    with pytest.raises(ValueError):
        ModuliParams(1, 1, Fraction(1, 2), 1)
    params = ModuliParams(2, 2, 1, "1/2")
    assert params.n == Fraction(1, 2)
    assert params.expected_dimension() == 2
    with pytest.raises(InvariantError):
        ModuliParams(1, 1, 0, Fraction(1, 3)).expected_dimension()


def test_records_keep_the_dataclass_contract():
    check_record(ModuliParams(2, 2, 0, 3), "ModuliParams(p=2, r=2, k=0, n=Fraction(3, 1))")
    check_record(
        FixedPointDatum((0, 1), ((1,), ()), ((), (2, 1))),
        "FixedPointDatum(ks=(0, 1), y1=(PartitionDiagram([1]), PartitionDiagram([])),"
        " y2=(PartitionDiagram([]), PartitionDiagram([2, 1])))",
    )
    check_record(
        ReducedFixedPointDatum((0, 1), ((1,), ())),
        "ReducedFixedPointDatum(ks=(0, 1), ys=(PartitionDiagram([1]), PartitionDiagram([])))",
    )
    assert ModuliParams(p=1, r=2, k=0, n="1/2") == ModuliParams(1, 2, 0, Fraction(1, 2))
    assert FixedPointDatum(ks=[0], y1=[[1]], y2=[[]]) == FixedPointDatum((0,), ((1,),), ((),))
    assert ReducedFixedPointDatum(ks=[0], ys=[[1]]) == ReducedFixedPointDatum((0,), ((1,),))
    # the two fixed-point records never compare equal, even on equal k-strings
    assert FixedPointDatum((0,), ((),), ((),)) != ReducedFixedPointDatum((0,), ((),))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ModuliParams(0, 1, 0, 1), "p must be a positive integer, got 0"),
        (lambda: ModuliParams(1, 0, 0, 1), "r must be a positive integer, got 0"),
        (lambda: ModuliParams(1, 1, True, 1), "k must be an integer, got True"),
        (lambda: ModuliParams(1, 1, 0, 0.5), "expected an exact rational, got 0.5"),
        (lambda: FixedPointDatum((0.5,), ((),), ((),)), "expected integers, got 0.5"),
        (
            lambda: FixedPointDatum((0,), ((),), ()),
            "ks, y1 and y2 must all have one entry per summand",
        ),
        (
            lambda: ReducedFixedPointDatum((0, 1), ((1,),)),
            "ks and ys must have one entry per summand",
        ),
        (
            lambda: ReducedFixedPointDatum((0,), ((1, 2),)),
            "row lengths must be weakly decreasing, got (1, 2)",
        ),
    ],
)
def test_record_error_messages(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "p, r, k, n",
    [
        (1, 1, 0, 0.1),
        (1, 1, 0, 1.0),
        (1, 1, 0, True),
        (True, 1, 0, 1),
        (1, True, 0, 1),
        (1, 1, False, 1),
        (1, 1, 0, None),
        (1, 1, 0, "x"),
        (1, 2, 0, "1/0"),
    ],
)
def test_params_reject_floats_and_bools(p, r, k, n):
    with pytest.raises(ValueError):
        ModuliParams(p, r, k, n)


def test_pair_weight_reference():
    params = ModuliParams(2, 2, 0, 2)
    assert params.pair_weight((1, -1)) == 2
    assert params.pair_weight((0, 0)) == 0
    assert ModuliParams(1, 3, 0, 0).pair_weight((1, 0, -1)) == 1
    assert ModuliParams(2, 2, 1, 0).pair_weight((1, 0)) == Fraction(1, 2)


@given(
    st.integers(1, 3),
    st.lists(st.integers(-6, 6), min_size=1, max_size=7),
)
def test_pair_weight_equals_the_pairwise_sum(p, ks):
    # k is 0 here, so most k-strings drawn do not sum to k
    r = len(ks)
    pairs = sum((ks[a] - ks[b]) ** 2 for a in range(r) for b in range(a + 1, r))
    assert ModuliParams(p, r, 0, 0).pair_weight(tuple(ks)) == Fraction(p * pairs, 2 * r)


def test_l_character_frozen_values():
    assert l_character(1, 0) == Character.zero(0)
    assert l_character(1, 1) == mono(0, 0, 0)
    assert l_character(1, 2) == mono(0, 0, 0) + mono(0, -1, 0) + mono(0, 0, -1)
    assert l_character(2, 2) == (
        mono(0, 0, 0) + mono(0, -2, 0) + mono(0, -1, -1) + mono(0, 0, -2)
    )
    assert l_character(1, -1) == Character.zero(0)
    assert l_character(1, -2) == mono(0, 1, 1)
    assert l_character(2, -1) == mono(0, 1, 1)
    assert l_character(3, -1) == mono(0, 1, 2) + mono(0, 2, 1)


def test_l_character_dimension_identity():
    for p in (1, 2, 3):
        for d in range(5):
            total = l_character(p, d).dimension() + l_character(p, -d).dimension()
            assert total == p * d * d


def test_l_character_recurrences():
    for p in (1, 2, 3):
        for d in range(1, 5):
            step = Character(
                0, {(-i, -(p * (d - 1) - i), ()): 1 for i in range(p * (d - 1) + 1)}
            )
            assert l_character(p, d) == l_character(p, d - 1) + step
        for d in range(0, -4, -1):
            step = Character(
                0, {(a, p * (1 - d) - a, ()): 1 for a in range(1, p * (1 - d))}
            )
            assert l_character(p, d - 1) == l_character(p, d) + step


def test_changing_an_l_character_changes_no_later_character():
    params = ModuliParams(2, 2, 1, Fraction(5, 2))
    points = list(enumerate_fixed_points(params))
    before = [dict(tangent_character(params, fp).terms) for fp in points]
    kept = {d: dict(l_character(2, d).terms) for d in range(-3, 4)}
    for d in kept:
        x = l_character(2, d)
        assert x is not l_character(2, d)
        x.terms.clear()
        x.terms[(9, 9, ())] = 5
    assert {d: l_character(2, d).terms for d in kept} == kept
    assert [tangent_character(params, fp).terms for fp in points] == before
    assert len(points) == 28


def test_l_character_rejects_bad_p():
    with pytest.raises(ValueError):
        l_character(0, 1)


def test_n_character_frozen_values():
    box = PartitionDiagram([1])
    empty = PartitionDiagram([])
    assert n_character(box, box, 1, 1, 1) == mono(1, 1, 0) + mono(1, 0, 1)
    assert n_character(empty, box, 1, 2, 2) == mono(2, 0, 0, (-1, 1))
    assert n_character(box, empty, 1, 2, 2) == mono(2, 1, 1, (-1, 1))
    assert n_character(PartitionDiagram([2]), box, 1, 1, 1) == (
        mono(1, 0, 1) + mono(1, 1, 1) + mono(1, 2, 0)
    )


def test_n_character_rejects_bad_labels():
    empty = PartitionDiagram([])
    with pytest.raises(ValueError):
        n_character(empty, empty, 0, 1, 2)
    with pytest.raises(ValueError):
        n_character(empty, empty, 1, 3, 2)


@given(diagrams(), diagrams())
def test_n_character_dimension_is_box_count(ya, yb):
    assert n_character(ya, yb, 1, 2, 2).dimension() == ya.size + yb.size


@given(diagrams(), diagrams())
def test_n_character_duality(ya, yb):
    # swapping the pair dualizes the character up to a t1*t2 twist
    lhs = n_character(ya, yb, 1, 2, 2)
    rhs = mono(2, 1, 1) * conjugate(n_character(yb, ya, 2, 1, 2))
    assert lhs == rhs


@given(diagrams(), diagrams())
def test_n_character_transpose_symmetry(ya, yb):
    # transposing both diagrams swaps the roles of t1 and t2
    lhs = n_character(ya.transpose(), yb.transpose(), 1, 2, 2)
    assert lhs == swap_t(n_character(ya, yb, 1, 2, 2))


def test_patch_matrices():
    assert patch1_matrix(2) == ((2, -1), (0, 1))
    assert patch2_matrix(2) == ((1, 0), (-1, 2))
    assert merge_t_matrix() == ((1, 1), (0, 0))


def test_tangent_character_rank_one_frozen():
    one_box = PartitionDiagram([1])
    empty = PartitionDiagram([])
    params = ModuliParams(2, 1, 0, 1)
    first = FixedPointDatum((0,), (one_box,), (empty,))
    second = FixedPointDatum((0,), (empty,), (one_box,))
    assert tangent_character(params, first) == mono(1, 2, 0, (0,)) + mono(1, -1, 1, (0,))
    assert tangent_character(params, second) == mono(1, 0, 2, (0,)) + mono(1, 1, -1, (0,))
    params1 = ModuliParams(1, 1, 0, 1)
    assert tangent_character(params1, first) == mono(1, 1, 0, (0,)) + mono(1, -1, 1, (0,))
    assert tangent_character(params1, second) == mono(1, 0, 1, (0,)) + mono(1, 1, -1, (0,))


def test_tangent_character_boundary_only_frozen():
    # all diagrams empty: only the k-difference blocks contribute
    params = ModuliParams(2, 2, 0, 2)
    fp = FixedPointDatum((1, -1), ((), ()), ((), ()))
    up = (-1, 1)
    down = (1, -1)
    expected = (
        mono(2, 0, 0, up)
        + mono(2, -2, 0, up)
        + mono(2, -1, -1, up)
        + mono(2, 0, -2, up)
        + mono(2, 1, 1, down)
        + mono(2, 1, 3, down)
        + mono(2, 2, 2, down)
        + mono(2, 3, 1, down)
    )
    assert tangent_character(params, fp) == expected
    assert expected.dimension() == 8


def test_tangent_character_dimension_grid():
    for p in (1, 2):
        for n in (1, 2, 3):
            params = ModuliParams(p, 1, 0, n)
            for a in range(n + 1):
                for y1 in enumerate_partitions(a):
                    for y2 in enumerate_partitions(n - a):
                        fp = FixedPointDatum((0,), (y1,), (y2,))
                        x = tangent_character(params, fp)
                        assert x.dimension() == 2 * n


def test_reduced_tangent_character_frozen():
    params = ModuliParams(2, 2, 0, 1)
    rfp = ReducedFixedPointDatum((0, 0), (PartitionDiagram([1]), PartitionDiagram([])))
    x = reduced_tangent_character(params, rfp)
    assert x == (
        mono(2, 0, 0, (0, 0))
        + mono(2, 2, 0, (0, 0))
        + mono(2, 2, 0, (-1, 1))
        + mono(2, 0, 0, (1, -1))
    )

    params1 = ModuliParams(1, 2, 0, 1)
    boundary = ReducedFixedPointDatum((1, -1), ((), ()))
    y = reduced_tangent_character(params1, boundary)
    assert y == (
        mono(2, 0, 0, (-1, 1))
        + mono(2, -1, 0, (-1, 1), coeff=2)
        + mono(2, 2, 0, (1, -1))
    )
    assert y.negative_count(main_ordering(2)) == 3


def test_reduced_character_is_t2_free():
    params = ModuliParams(3, 2, 1, Fraction(7, 4))
    for rfp in enumerate_reduced_fixed_points(params):
        x = reduced_tangent_character(params, rfp)
        assert all(key[1] == 0 for key in x.terms)
        assert x.dimension() == params.expected_dimension()


def test_reduced_matches_merged_full():
    # the reduced character is the full one at an empty first patch,
    # with both torus weights collapsed onto t1
    merge = merge_t_matrix()
    for p, r, k, n in ((1, 2, 0, 2), (2, 2, 1, Fraction(3, 2)), (1, 3, 0, 1)):
        params = ModuliParams(p, r, k, n)
        points = enumerate_reduced_fixed_points(params)
        assert points
        for rfp in points:
            empties = (PartitionDiagram([]),) * r
            full = FixedPointDatum(rfp.ks, empties, rfp.ys)
            merged = tangent_character(params, full).substitute(merge)
            assert merged == reduced_tangent_character(params, rfp)


# Oracles: the pair-by-pair ring-algebra assembly that the single term
# count in localization replaced.  Each builds its characters through
# Character arithmetic, one pair block at a time.


def framing_ratio(rank, beta, alpha):
    es = [0] * rank
    if alpha != beta:
        es[beta - 1] += 1
        es[alpha - 1] -= 1
    return tuple(es)


def patch_exponents_oracle(y_alpha, y_beta):
    # the arm/leg formula box by box, in the order of `_patch_exponents`
    out = [(-relative_leg(y_beta, s), 1 + relative_arm(y_alpha, s)) for s in boxes(y_alpha)]
    out += [(1 + relative_leg(y_alpha, s), -relative_arm(y_beta, s)) for s in boxes(y_beta)]
    return out


def n_character_oracle(y_alpha, y_beta, alpha, beta, rank):
    es = framing_ratio(rank, beta, alpha)
    terms = {}
    for x, y in patch_exponents_oracle(y_alpha, y_beta):
        terms[x, y, es] = terms.get((x, y, es), 0) + 1
    return Character(rank, terms)


def tangent_character_oracle(params, fp):
    p, r = params.p, params.r
    m1, m2 = patch1_matrix(p), patch2_matrix(p)
    total = Character.zero(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = fp.ks[a - 1] - fp.ks[b - 1]
            shift = p * (fp.ks[b - 1] - fp.ks[a - 1])
            lpart = mono(r, 0, 0, framing_ratio(r, b, a)) * promote(l_character(p, d), r)
            n1 = n_character(fp.y1[a - 1], fp.y1[b - 1], a, b, r).substitute(m1)
            n2 = n_character(fp.y2[a - 1], fp.y2[b - 1], a, b, r).substitute(m2)
            total = total + lpart + mono(r, shift, 0) * n1 + mono(r, 0, shift) * n2
    return total


def reduced_tangent_character_oracle(params, rfp):
    p, r = params.p, params.r
    reduced = ((0, p), (0, 0))  # t1 -> 1, t2 -> t1^p
    total = Character.zero(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = rfp.ks[a - 1] - rfp.ks[b - 1]
            shift = p * (rfp.ks[b - 1] - rfp.ks[a - 1])
            lpart = mono(r, 0, 0, framing_ratio(r, b, a)) * promote(
                l_character(p, d), r
            ).substitute(merge_t_matrix())
            npart = n_character(rfp.ys[a - 1], rfp.ys[b - 1], a, b, r).substitute(reduced)
            total = total + lpart + mono(r, shift, 0) * npart
    assert not any(key[1] for key in total.terms)
    return total


@given(diagrams(), diagrams())
def test_patch_exponents_match_the_per_box_formula_in_order(ya, yb):
    assert list(_patch_exponents(ya, yb)) == patch_exponents_oracle(ya, yb)


@given(diagrams(), diagrams(), st.integers(1, 3), st.integers(1, 3))
def test_n_character_matches_per_box_oracle(ya, yb, alpha, beta):
    assert n_character(ya, yb, alpha, beta, 3) == n_character_oracle(ya, yb, alpha, beta, 3)


@pytest.mark.parametrize(
    "p, r, k, n",
    [(2, 2, 0, 5), (1, 3, 0, 3), (3, 2, 1, Fraction(15, 4)), (2, 4, 1, Fraction(11, 4))],
)
def test_tangent_character_matches_pairwise_oracle(p, r, k, n):
    params = ModuliParams(p, r, k, n)
    points = list(enumerate_fixed_points(params))
    assert points
    for fp in points:
        assert tangent_character(params, fp) == tangent_character_oracle(params, fp)


def test_reduced_tangent_character_matches_pairwise_oracle():
    params = ModuliParams(1, 4, 0, 2)
    points = enumerate_reduced_fixed_points(params)
    assert points
    for rfp in points:
        expected = reduced_tangent_character_oracle(params, rfp)
        assert reduced_tangent_character(params, rfp) == expected


def test_validation_failures_raise_invariant_error():
    params = ModuliParams(1, 2, 0, 1)
    with pytest.raises(InvariantError):
        tangent_character(params, FixedPointDatum((1,), ((),), ((),)))
    with pytest.raises(InvariantError):
        tangent_character(params, FixedPointDatum((1, 0), ((), ()), ((), ())))
    with pytest.raises(InvariantError):
        # box count inconsistent with n
        tangent_character(params, FixedPointDatum((0, 0), ((), ()), ((), ())))
    with pytest.raises(ValueError):
        FixedPointDatum((0, 0), ((),), ((), ()))
    with pytest.raises(ValueError):
        ReducedFixedPointDatum((0, 0), ((),))


def test_fixed_point_json_round_trip():
    fp = FixedPointDatum((1, -1), ([2, 1], []), ([], [1]))
    assert FixedPointDatum.from_json(fp.to_json()) == fp
    assert fp.to_json() == {"k": [1, -1], "Y1": [[2, 1], []], "Y2": [[], [1]]}
    rfp = ReducedFixedPointDatum((0,), ([3],))
    assert ReducedFixedPointDatum.from_json(rfp.to_json()) == rfp
    assert rfp.to_json() == {"k": [0], "Y": [[3]]}


@pytest.mark.parametrize("ks", [(0.5, -0.5), (True, False), "00", (0, 1.0)])
def test_non_integer_k_strings_are_rejected(ks):
    with pytest.raises(ValueError):
        FixedPointDatum(ks, ((), ()), ((), ()))
    with pytest.raises(ValueError):
        ReducedFixedPointDatum(ks, ((), ()))
