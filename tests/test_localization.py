import math
from collections import Counter
from fractions import Fraction

import pytest
from helpers import (
    add,
    boxes,
    check_record,
    equivariant_volume,
    framing_ratio,
    pair_weight,
    product,
    promote,
    relative_arm,
    relative_leg,
    transpose,
)
from hypothesis import given, settings, strategies as st

import hirzebruch.localization
from hirzebruch.counting import (
    check_nonempty,
    enumerate_fixed_points,
    enumerate_reduced_fixed_points,
)
from hirzebruch.laurent import Character, main_ordering
from hirzebruch.localization import (
    FixedPointDatum,
    InvariantError,
    ModuliParams,
    ReducedFixedPointDatum,
    _framings,
    _l_exponents,
    _patch_exponents,
    reduced_tangent_character,
    tangent_character,
)
from hirzebruch.partitions import PartitionDiagram, enumerate_partitions


def mono(rank, a, b, e=None, coeff=1):
    return Character(rank, {(a, b, (0,) * rank if e is None else tuple(e)): coeff})


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
    assert params.dim == 2
    assert ModuliParams(1, 1, 0, Fraction(1, 3)).dim is None


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


@settings(deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    st.lists(diagrams(max_size=3), min_size=12, max_size=12),
    st.booleans(),
    st.integers(-1, 1),
    st.booleans(),
)
def test_validate_accepts_exactly_the_pairwise_constraint(p, ks, ys, reduced, miss, integral):
    # n is the pairwise count, or misses it by one box, or by 1/(4r+1), which
    # leaves 2rn no integer
    r, ks = len(ks), tuple(ks)
    y1, y2 = ys[:r], ys[r : 2 * r]
    datum = ReducedFixedPointDatum(ks, y2) if reduced else FixedPointDatum(ks, y1, y2)
    counted = datum.box_count() + pair_weight(p, ks)
    offset = miss + (0 if integral else Fraction(1, 4 * r + 1))
    params = ModuliParams(p, r, sum(ks), counted + offset)
    twice = 2 * r * params.n
    assert params.dim == (twice if twice.denominator == 1 else None)
    if counted == params.n:
        assert datum.validate(params) == params.dim
    else:
        with pytest.raises(InvariantError) as caught:
            datum.validate(params)
        assert str(caught.value) == (
            f"box-count constraint violated: counted {counted}, expected {params.n}"
        )


# The boundary block of a pair with k-difference d is t1^x t2^y summed over
# `_l_exponents(p, d)`, and its patch block is e_b/e_a times t1^x t2^y summed
# over `_patch_exponents`: every monomial has coefficient 1, so a block is the
# multiset of its exponents.


def test_l_character_frozen_values():
    assert _l_exponents(1, 0) == ()
    assert _l_exponents(1, 1) == ((0, 0),)
    assert sorted(_l_exponents(1, 2)) == [(-1, 0), (0, -1), (0, 0)]
    assert sorted(_l_exponents(2, 2)) == [(-2, 0), (-1, -1), (0, -2), (0, 0)]
    assert _l_exponents(1, -1) == ()
    assert _l_exponents(1, -2) == ((1, 1),)
    assert _l_exponents(2, -1) == ((1, 1),)
    assert sorted(_l_exponents(3, -1)) == [(1, 2), (2, 1)]


def test_l_character_dimension_identity():
    for p in (1, 2, 3):
        for d in range(5):
            total = len(_l_exponents(p, d)) + len(_l_exponents(p, -d))
            assert total == p * d * d


def test_l_character_recurrences():
    for p in (1, 2, 3):
        for d in range(1, 5):
            step = [(-i, -(p * (d - 1) - i)) for i in range(p * (d - 1) + 1)]
            assert sorted(_l_exponents(p, d)) == sorted(_l_exponents(p, d - 1) + tuple(step))
        for d in range(0, -4, -1):
            step = [(a, p * (1 - d) - a) for a in range(1, p * (1 - d))]
            assert sorted(_l_exponents(p, d - 1)) == sorted(_l_exponents(p, d) + tuple(step))


def test_changing_an_l_character_changes_no_later_character():
    # the boundary blocks are cached tuples that every call shares, so a
    # caller that changes the character it got changes no later one
    params = ModuliParams(2, 2, 1, Fraction(5, 2))
    points = list(enumerate_fixed_points(params))
    before = [dict(tangent_character(params, fp).terms) for fp in points]
    for d in range(-3, 4):
        assert type(_l_exponents(2, d)) is tuple and _l_exponents(2, d) is _l_exponents(2, d)
    for fp in points:
        x = tangent_character(params, fp)
        assert x is not tangent_character(params, fp)
        x.terms.clear()
        x.terms[(9, 9, (0, 0))] = 5
    assert [tangent_character(params, fp).terms for fp in points] == before
    assert len(points) == 28


def test_l_character_rejects_bad_p():
    with pytest.raises(ValueError):
        _l_exponents(0, 1)


def test_n_character_frozen_values():
    box = PartitionDiagram([1])
    empty = PartitionDiagram([])
    assert sorted(_patch_exponents(box, box)) == [(0, 1), (1, 0)]
    assert list(_patch_exponents(empty, box)) == [(0, 0)]
    assert list(_patch_exponents(box, empty)) == [(1, 1)]
    assert _framings(2) == (((0, 0), (-1, 1)), ((1, -1), (0, 0)))
    assert sorted(_patch_exponents(PartitionDiagram([2]), box)) == [(0, 1), (1, 1), (2, 0)]


@given(diagrams(), diagrams())
def test_n_character_dimension_is_box_count(ya, yb):
    assert len(list(_patch_exponents(ya, yb))) == ya.size + yb.size


@given(diagrams(), diagrams())
def test_n_character_duality(ya, yb):
    # swapping the pair dualizes the block up to a t1*t2 twist
    lhs = Counter(_patch_exponents(ya, yb))
    assert lhs == Counter((1 - x, 1 - y) for x, y in _patch_exponents(yb, ya))
    assert _framings(2)[1][0] == tuple(-e for e in _framings(2)[0][1])


@given(diagrams(), diagrams())
def test_n_character_transpose_symmetry(ya, yb):
    # transposing both diagrams swaps the roles of t1 and t2
    lhs = Counter(_patch_exponents(transpose(ya), transpose(yb)))
    assert lhs == Counter((y, x) for x, y in _patch_exponents(ya, yb))


def test_tangent_character_rank_one_frozen():
    one_box = PartitionDiagram([1])
    empty = PartitionDiagram([])
    params = ModuliParams(2, 1, 0, 1)
    first = FixedPointDatum((0,), (one_box,), (empty,))
    second = FixedPointDatum((0,), (empty,), (one_box,))
    assert tangent_character(params, first) == add(mono(1, 2, 0, (0,)), mono(1, -1, 1, (0,)))
    assert tangent_character(params, second) == add(mono(1, 0, 2, (0,)), mono(1, 1, -1, (0,)))
    params1 = ModuliParams(1, 1, 0, 1)
    assert tangent_character(params1, first) == add(mono(1, 1, 0, (0,)), mono(1, -1, 1, (0,)))
    assert tangent_character(params1, second) == add(mono(1, 0, 1, (0,)), mono(1, 1, -1, (0,)))


def test_tangent_character_boundary_only_frozen():
    # all diagrams empty: only the k-difference blocks contribute
    params = ModuliParams(2, 2, 0, 2)
    fp = FixedPointDatum((1, -1), ((), ()), ((), ()))
    up = (-1, 1)
    down = (1, -1)
    expected = add(
        mono(2, 0, 0, up),
        mono(2, -2, 0, up),
        mono(2, -1, -1, up),
        mono(2, 0, -2, up),
        mono(2, 1, 1, down),
        mono(2, 1, 3, down),
        mono(2, 2, 2, down),
        mono(2, 3, 1, down),
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
    assert x == add(
        mono(2, 0, 0, (0, 0)),
        mono(2, 2, 0, (0, 0)),
        mono(2, 2, 0, (-1, 1)),
        mono(2, 0, 0, (1, -1)),
    )

    params1 = ModuliParams(1, 2, 0, 1)
    boundary = ReducedFixedPointDatum((1, -1), ((), ()))
    y = reduced_tangent_character(params1, boundary)
    assert y == add(
        mono(2, 0, 0, (-1, 1)),
        mono(2, -1, 0, (-1, 1), coeff=2),
        mono(2, 2, 0, (1, -1)),
    )
    assert y.negative_count(main_ordering(2)) == 3


def test_reduced_character_is_t2_free():
    params = ModuliParams(3, 2, 1, Fraction(7, 4))
    for rfp in enumerate_reduced_fixed_points(params):
        x = reduced_tangent_character(params, rfp)
        assert all(key[1] == 0 for key in x.terms)
        assert x.dimension() == params.dim


def test_reduced_matches_merged_full():
    # the reduced character is the full one at an empty first patch,
    # with both torus weights collapsed onto t1
    merge = ((1, 1), (0, 0))  # t2 -> t1
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
# the ring arithmetic of `helpers`, one pair block at a time, takes each patch
# block from the per-box formula, and writes its own chart maps as exponent
# matrices for `Character.substitute`.


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


def boundary_character(p, d):
    return Character(0, Counter((x, y, ()) for x, y in _l_exponents(p, d)))


def tangent_character_oracle(params, fp):
    p, r = params.p, params.r
    m1 = ((p, -1), (0, 1))  # t1 -> t1^p, t2 -> t2/t1
    m2 = ((1, 0), (-1, p))  # t1 -> t1/t2, t2 -> t2^p
    total = Character(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = fp.ks[a - 1] - fp.ks[b - 1]
            shift = p * (fp.ks[b - 1] - fp.ks[a - 1])
            framing = mono(r, 0, 0, framing_ratio(r, b, a))
            lpart = product(framing, promote(boundary_character(p, d), r))
            n1 = n_character_oracle(fp.y1[a - 1], fp.y1[b - 1], a, b, r).substitute(m1)
            n2 = n_character_oracle(fp.y2[a - 1], fp.y2[b - 1], a, b, r).substitute(m2)
            n1, n2 = product(mono(r, shift, 0), n1), product(mono(r, 0, shift), n2)
            total = add(total, lpart, n1, n2)
    return total


def reduced_tangent_character_oracle(params, rfp):
    p, r = params.p, params.r
    reduced = ((0, p), (0, 0))  # t1 -> 1, t2 -> t1^p
    total = Character(r)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            d = rfp.ks[a - 1] - rfp.ks[b - 1]
            shift = p * (rfp.ks[b - 1] - rfp.ks[a - 1])
            lpart = product(
                mono(r, 0, 0, framing_ratio(r, b, a)),
                promote(boundary_character(p, d), r).substitute(((1, 1), (0, 0))),  # t2 -> t1
            )
            npart = n_character_oracle(rfp.ys[a - 1], rfp.ys[b - 1], a, b, r).substitute(reduced)
            total = add(total, lpart, product(mono(r, shift, 0), npart))
    assert not any(key[1] for key in total.terms)
    return total


@given(diagrams(), diagrams())
def test_patch_exponents_match_the_per_box_formula_in_order(ya, yb):
    assert list(_patch_exponents(ya, yb)) == patch_exponents_oracle(ya, yb)


@given(diagrams(), diagrams(), st.integers(1, 3), st.integers(1, 3))
def test_n_character_matches_per_box_oracle(ya, yb, alpha, beta):
    # the library's pair framing and patch terms, as one block
    es = _framings(3)[alpha - 1][beta - 1]
    block = Character(3, Counter((x, y, es) for x, y in _patch_exponents(ya, yb)))
    assert block == n_character_oracle(ya, yb, alpha, beta, 3)


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


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(-3, 3), st.integers(0, 2), st.data())
def test_tangent_character_matches_pairwise_oracle_anywhere(p, r, k, extra, data):
    # n is `extra` boxes more than at the most balanced k-string, so the space
    # has points; one of them is checked, and again rebuilt from its record,
    # so that no diagram is shared with the partition tables
    q, rest = divmod(k, r)
    squares = rest * (q + 1) ** 2 + (r - rest) * q * q
    params = ModuliParams(p, r, k, extra + Fraction(p * (r * squares - k * k), 2 * r))
    fp = data.draw(st.sampled_from(list(enumerate_fixed_points(params))))
    rebuilt = FixedPointDatum._from_record(fp.to_json(), params)
    assert rebuilt == fp and all(y is not z for y, z in zip(rebuilt.y2, fp.y2) if y.rows)
    expected = tangent_character_oracle(params, fp)
    assert tangent_character(params, fp) == expected == tangent_character(params, rebuilt)


def test_reduced_tangent_character_matches_pairwise_oracle():
    for params in (ModuliParams(1, 4, 0, 2), ModuliParams(3, 2, 1, Fraction(15, 4))):
        points = list(enumerate_reduced_fixed_points(params))
        assert points
        for rfp in points:
            expected = reduced_tangent_character_oracle(params, rfp)
            assert reduced_tangent_character(params, rfp) == expected


# generic weights, so that no tangent weight at these points is 0
EPS1, EPS2, A = 101, 1009, (0, 100003, 250007)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_rank_one_volume_is_that_of_the_hilbert_scheme(p, k, n):
    # the volume of Hilb^n is the q^n coefficient of exp(q * vol(X)), and the
    # two charts give vol(X) = 1/(p*eps1*eps2)
    volume = equivariant_volume(ModuliParams(p, 1, k, n), EPS1, EPS2, A)
    assert volume == Fraction(1, math.factorial(n) * (p * EPS1 * EPS2) ** n)


@pytest.mark.parametrize(
    "r, k, ns",
    [(2, 1, ("1/4", "5/4", "9/4")), (3, 1, ("1/3", "4/3", "7/3")), (3, 2, ("1/3", "4/3", "7/3"))],
)
def test_volume_vanishes_on_the_first_hirzebruch_surface_at_k_not_0_mod_r(r, k, ns):
    # the blowup formula: at p = 1 and 0 < k < r the instanton part is 0;
    # `ns` are the three smallest n of a nonempty space
    spaces = [ModuliParams(1, r, k, n) for n in ns]
    assert [check_nonempty(params) for params in spaces] == [True] * 3
    assert not check_nonempty(ModuliParams(1, r, k, Fraction(ns[0]) - 1))
    for params in spaces:
        assert equivariant_volume(params, EPS1, EPS2, A) == 0


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



def test_a_dropped_term_fails_the_tangent_dimension_check(monkeypatch):
    # the k-string (1, -1) of (1, 2, 0, 1) has no boxes: its 4 terms are the
    # boundary blocks of d = 2 (3 terms) and d = -2 (1 term)
    params = ModuliParams(1, 2, 0, 1)
    fp = FixedPointDatum((1, -1), ((), ()), ((), ()))
    assert tangent_character(params, fp).dimension() == 4
    monkeypatch.setattr(
        hirzebruch.localization, "_l_exponents", lambda p, d: _l_exponents(p, d)[1:]
    )
    with pytest.raises(InvariantError) as caught:
        tangent_character(params, fp)
    assert str(caught.value) == "tangent character has dimension 2, expected 2*r*n = 4"

def test_fixed_point_json_round_trip():
    fp = FixedPointDatum((1, -1), ([2, 1], []), ([], [1]))
    rfp = ReducedFixedPointDatum((0,), ([3],))
    for datum, params in ((fp, ModuliParams(1, 2, 0, 5)), (rfp, ModuliParams(1, 1, 0, 3))):
        datum.validate(params)
        assert type(datum)._from_record(datum.to_json(), params) == datum
    assert fp.to_json() == {"k": [1, -1], "Y1": [[2, 1], []], "Y2": [[], [1]]}
    assert rfp.to_json() == {"k": [0], "Y": [[3]]}


@pytest.mark.parametrize("ks", [(0.5, -0.5), (True, False), "00", (0, 1.0)])
def test_non_integer_k_strings_are_rejected(ks):
    with pytest.raises(ValueError):
        FixedPointDatum(ks, ((), ()), ((), ()))
    with pytest.raises(ValueError):
        ReducedFixedPointDatum(ks, ((), ()))
