import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from helpers import (
    add,
    clear_every_cache,
    column_heights,
    convolved_slot_tables,
    fraction_k_strings,
    morse_index_pairwise,
    n_prime,
    pair_weight,
    poincare_by_loci,
    product,
    rank2_series_by_products,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import hirzebruch.counting
import hirzebruch.partitions
from hirzebruch.counting import (
    _grow,
    _k_strings,
    _factor_terms,
    _pair_terms,
    _slots_series,
    check_nonempty,
    enumerate_fixed_points,
    enumerate_reduced_fixed_points,
    hilbert_series_r1,
    indexed_points,
    l_prime,
    morse_index_closed,
    poincare_polynomial,
    rank2_series_closed,
    rank2_series_direct,
)
from hirzebruch.laurent import TPolynomial, main_ordering
from hirzebruch.localization import (
    FixedPointDatum,
    ModuliParams,
    ReducedFixedPointDatum,
    _chart_keys,
    reduced_tangent_character,
    tangent_character,
)
from hirzebruch.partitions import PartitionDiagram, enumerate_partitions
from test_localization import reduced_tangent_character_oracle, tangent_character_oracle


@lru_cache(maxsize=None)
def slow_partition_count(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        return 1
    return sum(slow_partition_count(n - first, first) for first in range(1, min(n, cap) + 1))


def full_count(params):
    return sum(1 for _ in enumerate_fixed_points(params))


def reduced_count(params):
    return sum(1 for _ in enumerate_reduced_fixed_points(params))


def test_check_nonempty_frozen_cases():
    assert check_nonempty(ModuliParams(1, 1, 0, 0))
    assert check_nonempty(ModuliParams(1, 1, 5, 2))
    assert not check_nonempty(ModuliParams(1, 1, 0, -1))
    assert not check_nonempty(ModuliParams(1, 1, 0, Fraction(1, 2)))
    assert check_nonempty(ModuliParams(2, 2, 1, Fraction(1, 2)))
    assert not check_nonempty(ModuliParams(2, 2, 1, 0))
    assert not check_nonempty(ModuliParams(2, 2, 1, 1))
    assert check_nonempty(ModuliParams(1, 2, 1, Fraction(1, 4)))
    assert check_nonempty(ModuliParams(1, 2, 1, Fraction(5, 4)))
    assert not check_nonempty(ModuliParams(1, 2, 1, Fraction(3, 4)))


def test_check_nonempty_is_twist_invariant():
    # shifting k by a multiple of r does not change the answer
    for k in (-3, -1, 0, 1, 2, 5):
        for n in (Fraction(1, 2), 1, Fraction(3, 2), 2):
            base = check_nonempty(ModuliParams(2, 2, k % 2, n))
            assert check_nonempty(ModuliParams(2, 2, k, n)) == base


def test_check_nonempty_matches_enumeration():
    for p in (1, 2):
        for r in (1, 2):
            for k in range(r):
                for j in range(-4, 6 * r + 1):
                    params = ModuliParams(p, r, k, Fraction(j, 2 * r))
                    assert check_nonempty(params) == (full_count(params) > 0)


def test_fixed_point_counts_frozen():
    assert full_count(ModuliParams(2, 2, 0, 1)) == 4
    assert reduced_count(ModuliParams(2, 2, 0, 1)) == 2
    assert full_count(ModuliParams(2, 2, 0, 2)) == 16
    assert reduced_count(ModuliParams(2, 2, 0, 2)) == 7
    assert full_count(ModuliParams(1, 1, 0, 1)) == 2
    assert reduced_count(ModuliParams(1, 1, 0, 1)) == 1
    assert full_count(ModuliParams(1, 2, 0, 1)) == 6
    assert reduced_count(ModuliParams(1, 2, 0, 1)) == 4
    assert full_count(ModuliParams(1, 2, 0, 2)) == 22
    assert full_count(ModuliParams(2, 2, 1, Fraction(1, 2))) == 2
    assert reduced_count(ModuliParams(2, 2, 1, Fraction(1, 2))) == 2
    assert full_count(ModuliParams(1, 1, 0, 0)) == 1
    assert full_count(ModuliParams(2, 2, 1, 1)) == 0


def test_rank_one_counts_match_partition_oracle():
    for n in range(7):
        params = ModuliParams(1, 1, 0, n)
        expected = sum(
            slow_partition_count(a) * slow_partition_count(n - a) for a in range(n + 1)
        )
        assert full_count(params) == expected
        assert reduced_count(params) == slow_partition_count(n)


def test_full_enumeration_order_frozen():
    got = [fp.to_json() for fp in enumerate_fixed_points(ModuliParams(2, 2, 0, 1))]
    assert got == [
        {"k": [0, 0], "Y1": [[], []], "Y2": [[], [1]]},
        {"k": [0, 0], "Y1": [[], []], "Y2": [[1], []]},
        {"k": [0, 0], "Y1": [[], [1]], "Y2": [[], []]},
        {"k": [0, 0], "Y1": [[1], []], "Y2": [[], []]},
    ]


def test_reduced_enumeration_order_frozen():
    got = [rp.to_json() for rp in enumerate_reduced_fixed_points(ModuliParams(1, 2, 0, 2))]
    assert got == [
        {"k": [-1, 1], "Y": [[], [1]]},
        {"k": [-1, 1], "Y": [[1], []]},
        {"k": [0, 0], "Y": [[], [2]]},
        {"k": [0, 0], "Y": [[], [1, 1]]},
        {"k": [0, 0], "Y": [[1], [1]]},
        {"k": [0, 0], "Y": [[2], []]},
        {"k": [0, 0], "Y": [[1, 1], []]},
        {"k": [1, -1], "Y": [[], [1]]},
        {"k": [1, -1], "Y": [[1], []]},
    ]


def test_k_strings_match_box_filter_order():
    nonempty = fractional = 0
    for p in (1, 2, 3):
        for r in range(1, 7):
            for k in (-2, -1, 0, 1):
                # the least n of the twist class of k, then one more
                least = Fraction(p * (k % r) * (r - k % r), 2 * r)
                for n in (least, least + 1, least - Fraction(1, 2), Fraction(-1)):
                    params = ModuliParams(p, r, k, n)
                    got = list(_k_strings(params))
                    assert got == fraction_k_strings(params, full_box=True), params
                    nonempty += bool(got)
                    fractional += bool(got) and n.denominator != 1
    assert nonempty > 100 and fractional > 50


def test_k_strings_match_the_fraction_search():
    for p in (1, 2, 3):
        for r in range(1, 7):
            for k in range(-4, 5):
                for j in range(-2, 8 * r + 1):
                    params = ModuliParams(p, r, k, Fraction(j, 2 * r))
                    assert list(_k_strings(params)) == fraction_k_strings(params), params


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(-9, 9),
    st.integers(-3, 40),
    st.integers(1, 13),
)
def test_k_strings_match_the_fraction_search_at_random(p, r, k, num, den):
    # n need not make 2rn an integer; then both searches find nothing
    params = ModuliParams(p, r, k, Fraction(num, den) / r)
    assert list(_k_strings(params)) == fraction_k_strings(params)


def test_k_strings_match_box_filter_at_ranks_7_and_8():
    # n < p/2, where the box filter's box has at most three values per entry
    nonempty = 0
    for p in (1, 2, 3):
        for r in (7, 8):
            for k in range(-2, r + 2):
                for j in range(-1, p * r):
                    params = ModuliParams(p, r, k, Fraction(j, 2 * r))
                    got = list(_k_strings(params))
                    assert got == fraction_k_strings(params, full_box=True), params
                    nonempty += bool(got)
    assert nonempty > 20


def completions(k, left, lo, hi):
    """Every tuple of `left` entries in lo..hi that sums to k."""
    return [t for t in itertools.product(range(lo, hi + 1), repeat=left) if sum(t) == k]


@pytest.mark.parametrize("r", range(2, 6))
def test_grow_keeps_exactly_the_prefixes_with_a_completion_in_budget(r, monkeypatch):
    # every prefix that a `_grow` yields has a completion in lo..hi within the
    # budget, and every prefix in lo..hi that has one is yielded, in order
    levels = []

    def recording_grow(prefixes, k, left, lo, hi, budget):
        grown = []
        levels.append((grown, k, left, lo, hi, budget))
        for item in _grow(prefixes, k, left, lo, hi, budget):
            grown.append(item)
            yield item

    monkeypatch.setattr(hirzebruch.counting, "_grow", recording_grow)
    kept = 0
    for p in (1, 2):
        for k in (-1, 0, 1, r):
            for j in range(0, 6 * r + 1, 2):
                params = ModuliParams(p, r, k, Fraction(j, 2 * r))
                levels.clear()
                list(_k_strings(params))
                # a space whose excesses are not integers is never searched
                integral = (params.n - pair_weight(p, (k,) + (0,) * (r - 1))).denominator
                assert len(levels) == (r - 1 if integral == 1 else 0)
                for grown, goal, left, lo, hi, budget in levels:
                    expected = [
                        head
                        for head in itertools.product(range(lo, hi + 1), repeat=r - left)
                        if any(
                            sum(x * x for x in head + tail) <= budget
                            for tail in completions(goal - sum(head), left, lo, hi)
                        )
                    ]
                    assert [prefix for prefix, _, _ in grown] == expected
                    for prefix, total, squares in grown:
                        assert (total, squares) == (sum(prefix), sum(x * x for x in prefix))
                    kept += len(grown)
    assert kept > 20 * r


def test_k_strings_stream_without_a_list_per_level():
    # a search that finished a level before starting the next, or that built
    # whole strings before testing their squares, would not return
    first = list(itertools.islice(_k_strings(ModuliParams(1, 8, 0, 10**4)), 5))
    assert len(first) == 5
    assert first == sorted(first)
    assert all(sum(ks) == 0 and excess >= 0 for ks, excess in first)


def drained_peak(params):
    """Peak bytes allocated while draining `_k_strings(params)`, keeping nothing."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in _k_strings(params):
            pass
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_k_string_search_memory_does_not_grow_with_the_strings():
    small, large = ModuliParams(1, 6, 0, 1), ModuliParams(1, 6, 0, 2)
    assert len(list(_k_strings(large))) > 2 * len(list(_k_strings(small)))
    drained_peak(large)  # the first drain allocates what later ones reuse
    assert drained_peak(large) <= drained_peak(small) + 1024


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(-20, 20),
    st.integers(-3, 48),
    st.integers(1, 16),
)
def test_check_nonempty_agrees_with_the_k_string_search(p, r, k, num, den):
    # the closed form and the search are independent: each checks the other
    params = ModuliParams(p, r, k, Fraction(num, den))
    assert check_nonempty(params) == any(True for _ in _k_strings(params))


def test_enumerated_points_satisfy_constraints():
    for params in (
        ModuliParams(1, 2, 1, Fraction(5, 4)),
        ModuliParams(2, 3, 2, Fraction(8, 3)),
        ModuliParams(3, 2, 0, 2),
    ):
        seen = set()
        for fp in enumerate_fixed_points(params):
            fp.validate(params)
            seen.add(fp)
        assert len(seen) == full_count(params)  # no duplicates


def test_deep_rank_enumerates_without_recursion_error():
    # 1,200 diagram slots, more than the recursion limit allows frames
    points = list(enumerate_fixed_points(ModuliParams(1, 600, 0, 0)))
    assert [(fp.ks, fp.box_count()) for fp in points] == [((0,) * 600, 0)]


def test_l_prime_frozen_values():
    assert l_prime(1, 2, 0) == 3
    assert l_prime(1, 0, 2) == 2
    assert l_prime(2, 1, 0) == 1
    assert l_prime(2, 0, 1) == 0
    assert l_prime(3, 3, 0) == 12
    assert l_prime(2, 5, 5) == 0
    assert all(l_prime(p, d, 0) >= 0 for p in (1, 2, 3) for d in range(-5, 6))


def test_n_prime_frozen_values():
    ya = PartitionDiagram([2, 1])
    yb = PartitionDiagram([3])
    assert n_prime(ya, PartitionDiagram([1]), 0) == 2
    assert n_prime(ya, PartitionDiagram([1]), 1) == 1
    assert n_prime(ya, yb, -1) == 3
    assert n_prime(ya, yb, -2) == 0
    assert n_prime(PartitionDiagram([]), yb, 0) == 0


def test_morse_index_frozen_values():
    params = ModuliParams(1, 2, 0, 1)
    assert morse_index_closed(params, ReducedFixedPointDatum((1, -1), ((), ()))) == 3
    assert morse_index_closed(params, ReducedFixedPointDatum((-1, 1), ((), ()))) == 2
    two = ModuliParams(2, 2, 0, 1)
    assert morse_index_closed(two, ReducedFixedPointDatum((0, 0), ((), (1,)))) == 1
    assert morse_index_closed(two, ReducedFixedPointDatum((0, 0), ((1,), ()))) == 0


def test_morse_index_closed_matches_the_pairwise_sum():
    # every reduced locus with 0 <= 2rn <= 4r, fractional n included
    loci = 0
    for p in (1, 2, 3):
        for r in range(1, 5):
            for k in (-1, 0, 1):
                for j in range(4 * r + 1):
                    params = ModuliParams(p, r, k, Fraction(j, 2 * r))
                    for rfp in enumerate_reduced_fixed_points(params):
                        assert morse_index_closed(params, rfp) == morse_index_pairwise(
                            params, rfp
                        ), (params, rfp)
                        loci += 1
    assert loci > 0


def test_morse_index_matches_character_count():
    ordering = main_ordering(2)
    for p in (1, 2):
        for n in (1, 2):
            params = ModuliParams(p, 2, 0, n)
            for rfp in enumerate_reduced_fixed_points(params):
                x = reduced_tangent_character(params, rfp)
                assert x.negative_count(ordering) == morse_index_closed(params, rfp)


def test_component_factor_frozen_values():
    # the component factor of one diagram, as its {degree: coeff} table
    frozen = {
        (): {0: 1},
        (1,): {0: 1, 2: 1},
        (2,): {0: 1, 2: 1, 4: 1},
        (1, 1): {0: 1, 2: 1},
        (2, 1): {0: 1, 2: 2, 4: 1},
        (3, 1): {0: 1, 2: 2, 4: 2, 6: 1},
    }
    for rows, terms in frozen.items():
        assert _factor_terms((PartitionDiagram(rows),)) == terms


def test_component_factor_at_one_counts_diagram_pairs():
    # evaluating at t=1 counts the ways to split each column group
    y = PartitionDiagram([3, 2, 2, 1])
    mults = Counter(column_heights(y)).values()
    expected = 1
    for m in mults:
        expected *= m + 1
    assert TPolynomial(_factor_terms((y,)))(1) == expected


def component_factor_oracle(y):
    # one polynomial product per column height, as the factor was first built
    poly = TPolynomial({0: 1})
    for mult in Counter(column_heights(y)).values():
        poly = product(poly, TPolynomial({2 * j: 1 for j in range(mult + 1)}))
    return poly


def test_component_factor_matches_the_column_count_oracle():
    for n in range(11):
        for y in enumerate_partitions(n):
            assert TPolynomial(_factor_terms((y,))) == component_factor_oracle(y)


def poincare_running_sum(params):
    # the running sum the single term table replaced, kept as its oracle
    total = TPolynomial()
    for _, index, factor in indexed_points(params):
        total = add(total, product(TPolynomial({2 * index: 1}), factor))
    return total


@pytest.mark.parametrize(
    "p, r, k, n",
    [(2, 2, 0, 4), (1, 3, 0, 4), (3, 3, 1, 7), (1, 2, 1, Fraction(5, 2)),
     (2, 4, 1, Fraction(5, 2)), (1, 1, 0, 6), (2, 2, 1, 1)],
)
def test_poincare_polynomial_matches_the_running_sum(p, r, k, n):
    params = ModuliParams(p, r, k, n)
    assert poincare_polynomial(params) == poincare_running_sum(params)


@pytest.mark.parametrize("r", range(1, 6))
def test_poincare_polynomial_matches_the_per_locus_sum(r):
    # every n with 0 <= 2rn <= 8r, fractional ones included; most are empty
    empty = 0
    for p in (1, 2, 3):
        for k in range(-2, 3):
            for j in range(8 * r + 1):
                params = ModuliParams(p, r, k, Fraction(j, 2 * r))
                got = poincare_polynomial(params)
                assert got == poincare_by_loci(params), params
                empty += got == TPolynomial()
    assert empty > 0


@pytest.mark.parametrize(
    "p, r, k, n",
    [(1, 1, 0, Fraction(1, 2)), (2, 2, 1, 1), (1, 3, 1, 0), (3, 4, 2, Fraction(1, 4)),
     (1, 2, 0, -1)],
)
def test_empty_spaces_have_the_zero_polynomial(p, r, k, n):
    params = ModuliParams(p, r, k, n)
    assert not check_nonempty(params)
    assert poincare_polynomial(params) == poincare_by_loci(params) == TPolynomial()


def test_warm_poincare_polynomial_builds_no_diagram(monkeypatch):
    params = ModuliParams(1, 3, 0, 8)
    poincare_polynomial(params)
    built = []
    for cls in (PartitionDiagram, ReducedFixedPointDatum, FixedPointDatum):
        original = cls.__init__

        def counting_init(self, *args, original=original, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    poincare_polynomial(params)
    assert built == []


def test_cold_results_equal_warm_ones():
    grid = [ModuliParams(p, r, k, Fraction(j, 2 * r))
            for p, r, k in [(1, 3, 0), (2, 4, 1), (1, 2, 1), (3, 5, -1)]
            for j in range(6 * r + 1)]
    first = [poincare_polynomial(params) for params in grid]
    assert [poincare_polynomial(params) for params in grid] == first
    for params, expected in zip(grid, first):
        clear_every_cache()
        assert _slots_series.cache_info().currsize == 0
        assert _pair_terms.cache_info().currsize == 0
        assert enumerate_partitions.cache_info().currsize == 0
        assert poincare_polynomial(params) == expected, params


def test_cold_characters_equal_warm_ones_and_the_oracle():
    # every cache emptied before each point, so that its chart keys are built
    # afresh: the characters are those of a warm cache and of the pairwise
    # oracles of test_localization.  It sits here, before the next test empties
    # the caches again, so that the tests after it find them as warm as before
    spaces = [(2, 2, 0, 5), (1, 3, 0, 3), (3, 2, 1, Fraction(15, 4))]
    points = [
        (params, fp)
        for params in (ModuliParams(*space) for space in spaces)
        for fp in enumerate_fixed_points(params)
    ]
    reduced = ModuliParams(1, 4, 0, 2)
    loci = list(enumerate_reduced_fixed_points(reduced))
    assert (len(points), len(loci)) == (678, 68)

    def characters():
        return (
            [tangent_character(params, fp) for params, fp in points],
            [reduced_tangent_character(reduced, rfp) for rfp in loci],
        )

    first = characters()
    warm, warm_reduced = characters()
    assert (warm, warm_reduced) == first
    for (params, fp), expected in zip(points, warm):
        clear_every_cache()
        assert _chart_keys.cache_info().currsize == 0
        cold = tangent_character(params, fp)
        assert cold == expected == tangent_character_oracle(params, fp)
    for rfp, expected in zip(loci, warm_reduced):
        clear_every_cache()
        cold = reduced_tangent_character(reduced, rfp)
        assert cold == expected == reduced_tangent_character_oracle(reduced, rfp)
    # a point rebuilt from its record holds new diagrams of the same values,
    # and finds the chart keys that the enumerated point left in the cache
    params, fp = next((params, fp) for params, fp in points if any(y.rows for y in fp.y1))
    expected = tangent_character(params, fp)
    rebuilt = FixedPointDatum._from_record(fp.to_json(), params)
    assert all(y is not z for y, z in zip(rebuilt.y1 + rebuilt.y2, fp.y1 + fp.y2) if y.rows)
    before = _chart_keys.cache_info()
    assert tangent_character(params, rebuilt) == expected
    after = _chart_keys.cache_info()
    assert after.hits > before.hits and after.misses == before.misses


def test_cold_poincare_polynomial_enumerates_no_diagram(monkeypatch):
    clear_every_cache()
    built = []
    original = PartitionDiagram.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("the Poincare polynomial enumerated diagrams")

    monkeypatch.setattr(PartitionDiagram, "__init__", counting_init)
    for module in (hirzebruch.partitions, hirzebruch.counting):
        monkeypatch.setattr(module, "enumerate_partitions", refuse)
    monkeypatch.setattr(hirzebruch.counting, "_factor_terms", refuse)
    got = poincare_polynomial(ModuliParams(1, 3, 0, 8))
    assert built == []
    monkeypatch.undo()
    assert got == poincare_running_sum(ModuliParams(1, 3, 0, 8))


def _slot_thresholds(r):
    # the thresholds of every k-string with entries -2..2, which run over
    # 0..4, and every sorted tuple of at most r - 1 entries 0..4 in one slot
    found = {_pair_terms(1, ks)[1] for ks in itertools.product(range(-2, 3), repeat=r)}
    for size in range(r):
        for th in itertools.combinations_with_replacement(range(5), size):
            found.add((th,) + ((),) * (r - 1))
    return sorted(found)


@pytest.mark.parametrize("r", range(1, 5))
def test_slots_series_rows_match_the_enumerated_slot_tables(r):
    order = 8
    for thresholds in _slot_thresholds(r):
        series = _slots_series(thresholds, order)
        expected = convolved_slot_tables(thresholds, order)
        for s in range(order + 1):
            row = {deg - 2 * r * s: coeff for deg, coeff in series.rows[s].items() if coeff}
            assert row == {d: c for d, c in expected[s].items() if c}, (thresholds, s)


def test_indexed_points_frozen():
    got = list(indexed_points(ModuliParams(2, 2, 0, 1)))
    assert got == [
        (ReducedFixedPointDatum((0, 0), ((), (1,))), 1, TPolynomial({0: 1, 2: 1})),
        (ReducedFixedPointDatum((0, 0), ((1,), ())), 0, TPolynomial({0: 1, 2: 1})),
    ]
    assert all(type(index) is int for _, index, _ in got)


def test_poincare_polynomial_frozen():
    assert poincare_polynomial(ModuliParams(2, 2, 0, 1)) == TPolynomial(
        {0: 1, 2: 2, 4: 1}
    )
    assert poincare_polynomial(ModuliParams(2, 2, 0, 2)) == TPolynomial(
        {0: 1, 2: 2, 4: 5, 6: 5, 8: 3}
    )
    assert poincare_polynomial(ModuliParams(1, 2, 0, 1)) == TPolynomial(
        {0: 1, 2: 2, 4: 2, 6: 1}
    )
    assert poincare_polynomial(ModuliParams(1, 1, 0, 2)) == TPolynomial(
        {0: 1, 2: 2, 4: 2}
    )
    assert poincare_polynomial(ModuliParams(1, 1, 0, 3)) == TPolynomial(
        {0: 1, 2: 2, 4: 4, 6: 3}
    )
    assert poincare_polynomial(ModuliParams(2, 2, 1, 1)) == TPolynomial()
    assert poincare_polynomial(ModuliParams(2, 2, 1, Fraction(1, 2))) == TPolynomial(
        {0: 1, 2: 1}
    )


def test_poincare_at_one_counts_full_fixed_points():
    for params in (
        ModuliParams(1, 2, 0, 2),
        ModuliParams(2, 2, 0, 2),
        ModuliParams(2, 3, 1, Fraction(5, 3)),
        ModuliParams(1, 1, 0, 4),
    ):
        assert poincare_polynomial(params)(1) == full_count(params)


def test_rank2_series_closed_frozen_coefficients():
    s1 = rank2_series_closed(1, 2)
    assert TPolynomial(s1.rows[0]) == TPolynomial({0: 1})
    assert TPolynomial(s1.rows[1]) == TPolynomial({0: 1, 2: 2, 4: 2, 6: 1})
    assert TPolynomial(s1.rows[2]) == TPolynomial({0: 1, 2: 2, 4: 5, 6: 6, 8: 6, 10: 2})
    s2 = rank2_series_closed(2, 2)
    assert TPolynomial(s2.rows[1]) == TPolynomial({0: 1, 2: 2, 4: 1})
    assert TPolynomial(s2.rows[2]) == TPolynomial({0: 1, 2: 2, 4: 5, 6: 5, 8: 3})


def test_rank2_series_closed_matches_direct():
    for p in (1, 2, 3):
        assert rank2_series_closed(p, 6) == rank2_series_direct(p, 6)


def test_rank2_series_closed_matches_the_product_of_series():
    # the in-place monomial factors against the product-times-bracket form
    for p in (1, 2, 3, 4):
        for order in range(11):
            closed, expected = rank2_series_closed(p, order), rank2_series_by_products(p, order)
            assert closed == expected
            assert closed.to_json() == expected.to_json()


def test_hilbert_series_frozen_coefficients():
    s = hilbert_series_r1(1, 3)
    assert TPolynomial(s.rows[0]) == TPolynomial({0: 1})
    assert TPolynomial(s.rows[1]) == TPolynomial({0: 1, 2: 1})
    assert TPolynomial(s.rows[2]) == TPolynomial({0: 1, 2: 2, 4: 2})
    assert TPolynomial(s.rows[3]) == TPolynomial({0: 1, 2: 2, 4: 4, 6: 3})


@pytest.mark.parametrize("p", [0, 1.0, True, Fraction(1)])
def test_rank2_series_closed_rejects_a_p_that_is_not_a_positive_int(p):
    with pytest.raises(ValueError, match="p must be a positive integer"):
        rank2_series_closed(p, 2)


def test_series_reject_negative_order():
    with pytest.raises(ValueError):
        rank2_series_closed(1, -1)
    with pytest.raises(ValueError):
        rank2_series_direct(1, -1)
    with pytest.raises(ValueError):
        hilbert_series_r1(1, -1)
