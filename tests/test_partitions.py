import copy
import itertools
import pickle
from collections import Counter

import pytest
from helpers import (
    Box,
    bounded_compositions,
    boxes,
    check_record,
    color_counts_by_box,
    column_heights,
    contains,
    partition_rows,
    relative_arm,
    relative_leg,
    row_length,
)
from hypothesis import given, strategies as st

from hirzebruch.partitions import (
    ColoredDiagram,
    PartitionDiagram,
    compositions,
    enumerate_partitions,
)


def slow_partition_count(n, cap=None):
    # independent reference: count partitions by largest part
    if cap is None:
        cap = n
    if n == 0:
        return 1
    return sum(slow_partition_count(n - first, first) for first in range(1, min(n, cap) + 1))


@st.composite
def diagrams(draw, max_size=10):
    n = draw(st.integers(0, max_size))
    rows = []
    cap = n
    while n > 0:
        part = draw(st.integers(1, min(n, cap)))
        rows.append(part)
        cap = part
        n -= part
    return PartitionDiagram(rows)


def test_rows_must_be_positive_and_decreasing():
    with pytest.raises(ValueError):
        PartitionDiagram([2, 0])
    with pytest.raises(ValueError):
        PartitionDiagram([-1])
    with pytest.raises(ValueError):
        PartitionDiagram([1, 2])


@pytest.mark.parametrize("rows", [[1.5], [True], [2.0, 1], ["1"]])
def test_non_integer_rows_are_rejected(rows):
    with pytest.raises(ValueError):
        PartitionDiagram(rows)


def test_colored_diagram_from_json_rejects_a_non_integer_color():
    with pytest.raises(ValueError):
        ColoredDiagram.from_json({"rows": [1], "eps": 0.5})
    with pytest.raises(ValueError):
        ColoredDiagram.from_json({"rows": [1], "eps": True})
    assert ColoredDiagram.from_json({"rows": [1], "eps": 1}).eps == 1


@pytest.mark.parametrize("eps", [True, 1.0, 2, -1])
def test_colored_diagram_rejects_a_color_that_is_not_0_or_1(eps):
    with pytest.raises(ValueError):
        ColoredDiagram(PartitionDiagram([2, 1]), eps)


def test_basic_shape_queries():
    y = PartitionDiagram([3, 1, 1])
    assert y.size == 5
    assert len(y.rows) == 3
    assert len(y.cols) == 3
    assert [row_length(y, r) for r in (1, 2, 3, 4)] == [3, 1, 1, 0]
    assert y.cols == column_heights(y) == (3, 1, 1)
    assert Counter(y.cols) == {3: 1, 1: 2}
    assert y.transpose().rows == (3, 1, 1)
    assert contains(y, Box(1, 3)) and contains(y, Box(2, 1)) and not contains(y, Box(2, 2))


def test_boxes_against_membership():
    y = PartitionDiagram([4, 2, 1])
    found = list(boxes(y))
    assert len(found) == y.size == len(set(found))
    for box in found:
        assert contains(y, box)
    assert not contains(y, Box(5, 1)) and not contains(y, Box(1, 4))


def test_cols_are_the_counted_column_heights():
    for n in range(13):
        for y in enumerate_partitions(n):
            assert y.cols == column_heights(y)
            assert y.transpose().rows == y.cols
            assert y.transpose().transpose() == y


def test_enumeration_counts_match_reference():
    for n in range(13):
        got = enumerate_partitions(n)
        assert len(got) == slow_partition_count(n)
        assert len(set(got)) == len(got)
        assert all(y.size == n for y in got)


def test_enumeration_is_one_shared_table_equal_to_the_rows_oracle():
    for n in range(13):
        got = enumerate_partitions(n)
        assert isinstance(got, tuple)
        assert [y.rows for y in got] == partition_rows(n)
        again = enumerate_partitions(n)
        assert again is got
        assert all(a is b for a, b in zip(got, again))


def test_shared_diagrams_cannot_be_changed():
    y = enumerate_partitions(2)[0]
    with pytest.raises(AttributeError):
        y.rows = (5,)
    with pytest.raises(AttributeError):
        y.cols = (5,)
    with pytest.raises(AttributeError):
        y.extra = 1
    with pytest.raises(AttributeError):
        del y.rows
    with pytest.raises(AttributeError):
        del y.cols
    assert [d.rows for d in enumerate_partitions(2)] == [(2,), (1, 1)]
    assert [d.cols for d in enumerate_partitions(2)] == [(1, 1), (2,)]


@given(diagrams())
def test_pickle_and_copies_round_trip(y):
    for twin in (pickle.loads(pickle.dumps(y)), copy.deepcopy(y), copy.copy(y)):
        assert type(twin) is PartitionDiagram
        assert (twin.rows, twin.cols) == (y.rows, y.cols)
        assert twin == y and hash(twin) == hash(y)
        with pytest.raises(AttributeError):
            twin.rows = ()


@given(diagrams())
def test_diagrams_are_records_of_rows_and_cols(y):
    class Other(PartitionDiagram):
        __slots__ = ()

    assert PartitionDiagram(y.rows) == y and hash(y) == hash((y.rows, y.cols))
    assert Other(y.rows) != y and y != Other(y.rows)
    assert y != y.rows
    # pickle and copy rebuild from the rows alone
    assert y.__reduce__() == (PartitionDiagram, (y.rows,))


def test_diagrams_have_no_order():
    with pytest.raises(TypeError):
        PartitionDiagram([2]) < PartitionDiagram([1, 1])


def test_enumeration_order_is_decreasing_lex():
    rows = [y.rows for y in enumerate_partitions(6)]
    assert rows == sorted(rows, reverse=True)
    assert rows[0] == (6,)
    assert rows[-1] == (1,) * 6


def test_enumeration_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_compositions_edge_cases():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(4, 1)) == [(4,)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(-1, 2)) == []
    assert list(compositions(-2, 1)) == []
    assert list(compositions(-1, 0)) == []
    assert list(compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]
    with pytest.raises(ValueError):
        list(compositions(0, -1))
    with pytest.raises(TypeError):
        compositions(1, 2, -1)


@given(
    total=st.integers(-6, 6),
    parts=st.integers(0, 4),
    lo=st.integers(-3, 2),
    width=st.integers(-1, 5),
)
def test_compositions_match_filtered_box(total, parts, lo, width):
    # the bounded oracle, against every tuple of its box that sums to total
    hi = lo + width
    box = [
        xs for xs in itertools.product(range(lo, hi + 1), repeat=parts) if sum(xs) == total
    ]
    assert list(bounded_compositions(total, parts, lo, hi)) == box


@given(total=st.integers(-2, 6), parts=st.integers(0, 5))
def test_compositions_match_the_filtered_product(total, parts):
    product = [
        xs for xs in itertools.product(range(total + 1), repeat=parts) if sum(xs) == total
    ]
    assert list(compositions(total, parts)) == product


def test_compositions_match_the_bounded_oracle():
    for total in range(-2, 10):
        for parts in range(7):
            assert list(compositions(total, parts)) == list(bounded_compositions(total, parts))


def test_compositions_do_not_nest_a_generator_per_part():
    # more parts than the recursion limit allows frames
    assert list(compositions(0, 5000)) == [(0,) * 5000]
    assert len(list(compositions(1, 3000))) == 3000


def test_arm_and_leg_reference_values():
    assert relative_arm(PartitionDiagram([1, 1]), Box(1, 1)) == 1
    assert relative_leg(PartitionDiagram([2]), Box(1, 1)) == 1
    assert relative_leg(PartitionDiagram([3, 1]), Box(1, 2)) == 0
    assert relative_arm(PartitionDiagram([2, 2]), Box(2, 1)) == 1
    # outside the measuring diagram both go negative
    assert relative_leg(PartitionDiagram([]), Box(1, 1)) == -1
    assert relative_arm(PartitionDiagram([]), Box(1, 1)) == -1
    assert relative_leg(PartitionDiagram([1]), Box(2, 1)) == -1


@given(diagrams())
def test_transpose_is_an_involution(y):
    assert y.transpose().transpose() == y
    assert y.transpose().size == y.size


@given(diagrams())
def test_own_arm_and_leg_are_nonnegative(y):
    for s in boxes(y):
        assert relative_arm(y, s) >= 0
        assert relative_leg(y, s) >= 0


@given(diagrams())
def test_boxes_with_zero_arm_are_the_column_tops(y):
    tops = sum(1 for s in boxes(y) if relative_arm(y, s) == 0)
    assert tops == len(y.cols)


@given(diagrams(), st.integers(1, 6), st.integers(1, 6))
def test_arm_and_leg_swap_under_transpose(y, c, r):
    assert relative_arm(y, Box(c, r)) == relative_leg(y.transpose(), Box(r, c))


def test_json_round_trip():
    y = PartitionDiagram([3, 1])
    assert PartitionDiagram.from_json(y.to_json()) == y
    d = ColoredDiagram(y, 1)
    assert ColoredDiagram.from_json(d.to_json()) == d
    assert d.to_json() == {"rows": [3, 1], "eps": 1}


def test_coloring_reference_values():
    # one box: the corner carries eps; two boxes: the second carries 1 - eps
    assert ColoredDiagram(PartitionDiagram([1]), 0).color_counts() == (1, 0)
    assert ColoredDiagram(PartitionDiagram([1]), 1).color_counts() == (0, 1)
    for rows in ([2], [1, 1]):
        for eps in (0, 1):
            assert ColoredDiagram(PartitionDiagram(rows), eps).color_counts() == (1, 1)
    assert ColoredDiagram(PartitionDiagram([2, 1]), 0).color_counts() == (1, 2)
    assert ColoredDiagram(PartitionDiagram([4]), 0).color_counts() == (2, 2)


def test_coloring_rejects_bad_eps():
    with pytest.raises(ValueError):
        ColoredDiagram(PartitionDiagram([1]), 2)


@given(diagrams(), st.integers(0, 1))
def test_recoloring_swaps_counts(y, eps):
    d = ColoredDiagram(y, eps)
    k0, k1 = d.color_counts()
    assert d.recolor().color_counts() == (k1, k0)
    assert k0 + k1 == y.size


@given(diagrams(), st.integers(0, 1))
def test_color_imbalance_bounded_by_columns(y, eps):
    # each column alternates colors, so it contributes at most 1 to the gap
    k0, k1 = ColoredDiagram(y, eps).color_counts()
    assert abs(k0 - k1) <= len(y.cols)


def test_color_counts_match_the_per_box_count():
    for n in range(11):
        for y in enumerate_partitions(n):
            for eps in (0, 1):
                d = ColoredDiagram(y, eps)
                assert d.color_counts() == color_counts_by_box(d)


@given(diagrams(), st.integers(0, 1))
def test_transpose_preserves_coloring(y, eps):
    d = ColoredDiagram(y, eps)
    assert d.transpose().color_counts() == d.color_counts()
    assert d.transpose().eps == eps


def test_colored_diagrams_cannot_be_changed():
    d = ColoredDiagram(PartitionDiagram([2, 1]), 0)
    with pytest.raises(AttributeError):
        d.eps = 1
    with pytest.raises(AttributeError):
        d.diagram = PartitionDiagram([3])
    with pytest.raises(AttributeError):
        d.extra = 1
    with pytest.raises(AttributeError):
        del d.eps
    assert (d.diagram.rows, d.eps) == ((2, 1), 0)
    assert repr(d) == "ColoredDiagram([2, 1], eps=0)"


def test_colored_diagram_keeps_the_record_contract():
    check_record(ColoredDiagram(PartitionDiagram([2, 1]), 0), "ColoredDiagram([2, 1], eps=0)")
    check_record(ColoredDiagram(PartitionDiagram(()), 1), "ColoredDiagram([], eps=1)")


@pytest.mark.parametrize("diagram", [[2, 1], (1,), None])
def test_colored_diagram_takes_only_a_diagram(diagram):
    with pytest.raises(ValueError):
        ColoredDiagram(diagram, 0)
    assert ColoredDiagram.from_json({"rows": [2, 1], "eps": 0}).diagram == PartitionDiagram([2, 1])


@given(diagrams(), st.integers(0, 1))
def test_colored_pickle_and_copies_round_trip(y, eps):
    d = ColoredDiagram(y, eps)
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert type(twin) is ColoredDiagram
        assert twin == d and hash(twin) == hash(d)
        assert twin.to_json() == d.to_json()
        with pytest.raises(AttributeError):
            twin.eps = 1 - eps
