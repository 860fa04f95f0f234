import itertools
from fractions import Fraction

import pytest
from helpers import (
    add,
    conjugate,
    flat_sign,
    invariant_part,
    key_ordering,
    negate,
    permute_framing,
    product,
    promote,
    series_product,
    series_sum,
    sign,
    spread_inverse_one_minus,
    spread_one_minus,
    substitute,
    swap_t,
    zero_weight_count,
)
from hypothesis import given, strategies as st

from hirzebruch.laurent import (
    Character,
    QSeries,
    TPolynomial,
    ale_ordering,
    main_ordering,
)


def mono(a, b, e=(), coeff=1):
    return Character(len(e), {(a, b, tuple(e)): coeff})


@st.composite
def characters(draw, rank=2):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.integers(-3, 3),
                st.tuples(*[st.integers(-2, 2)] * rank),
                st.integers(-4, 4),
            ),
            max_size=6,
        )
    )
    return add(Character(rank), *(mono(a, b, e, coeff) for a, b, e, coeff in terms))


def test_zero_terms_are_pruned():
    x = add(mono(1, 0), negate(mono(1, 0)))
    assert x == Character(0) == Character(0, {(1, 0, ()): 0})
    assert not x
    assert x.dimension() == 0


def test_framing_length_must_match_the_rank():
    # the error names the first bad vector, even one whose coefficient is 0
    cases = [
        (1, {(0, 0, (1, 2)): 1}, "(1, 2)"),
        (2, {(0, 0, (1,)): 1}, "(1,)"),
        (1, {(0, 0, (1,)): 1, (0, 0, (1, 2)): 1, (1, 0, ()): 1}, "(1, 2)"),
        (2, {(0, 0, (1,)): 0}, "(1,)"),
        (0, {(1, 1, ()): 2, (0, 0, (0,)): 1}, "(0,)"),
    ]
    for rank, terms, bad in cases:
        with pytest.raises(ValueError) as caught:
            Character(rank, terms)
        assert str(caught.value) == f"expected {rank} framing exponents, got {bad}"


def test_constructor_drops_zeros_and_copies_the_table():
    assert Character(1, {(0, 0, (1,)): 0, (1, 0, (0,)): 2}).terms == {(1, 0, (0,)): 2}
    assert Character(2, {(0, 0, (1, 0)): 0}).terms == {}
    for empty in (None, {}):
        x = Character(2, empty)
        assert x.terms == {} and x == Character(2) and not x and x.dimension() == 0
    table = {(0, 1, (1, -1)): 3}
    x = Character(2, table)
    table[0, 1, (1, -1)] = 5
    table[2, 2, (0, 0)] = 1
    assert x.terms == {(0, 1, (1, -1)): 3} and x.terms is not table


def test_character_is_unhashable():
    # its public term table can change, which would lose it in a set or dict
    x = mono(1, 0, (1,))
    assert x == mono(1, 0, (1,))
    with pytest.raises(TypeError):
        hash(x)


# `add` and `product` write the identities below; they refuse to mix ranks
def test_mixed_rank_arithmetic_is_rejected():
    with pytest.raises(ValueError):
        add(mono(0, 0, (1,)), mono(0, 0, (1, 0)))
    with pytest.raises(ValueError):
        product(mono(0, 0, (1,)), mono(0, 0, (1, 0)))


def test_product_of_monomials_adds_exponents():
    x = product(mono(1, 2, (1, 0)), mono(3, -1, (0, 2)))
    assert x == mono(4, 1, (1, 2))


def test_scalar_multiplication():
    x = add(mono(1, 0, (0,)), mono(0, 1, (1,)))
    two = mono(0, 0, (0,), coeff=2)
    assert product(two, x) == add(x, x) == product(x, two)
    assert add(x, x) == Character(1, {(1, 0, (0,)): 2, (0, 1, (1,)): 2})


def test_dimension_counts_with_multiplicity():
    x = add(mono(1, 0, coeff=3), mono(0, 2, coeff=-1))
    assert x.dimension() == 2


def test_substitute_reference_values():
    # t1 -> t1^p, t2 -> t2/t1 at p = 2
    x = substitute(mono(1, 1, (1, -1)), ((2, -1), (0, 1)))
    assert x == mono(1, 1, (1, -1))
    y = substitute(mono(0, 2, ()), ((2, -1), (0, 1)))
    assert y == mono(-2, 2, ())


def test_substitute_accumulates_collisions():
    # t2 -> t1 merges t1*t2 and t1^2 into one slot
    x = substitute(add(mono(1, 1), mono(2, 0)), ((1, 1), (0, 0)))
    assert x == mono(2, 0, coeff=2)


@given(characters(), characters())
def test_substitute_is_additive_and_multiplicative(x, y):
    m = ((1, 2), (0, 1))
    assert substitute(add(x, y), m) == add(substitute(x, m), substitute(y, m))
    assert substitute(product(x, y), m) == product(substitute(x, m), substitute(y, m))


@given(characters())
def test_conjugate_is_an_involution(x):
    assert conjugate(conjugate(x)) == x
    assert conjugate(x).dimension() == x.dimension()


def test_conjugate_negates_all_exponents():
    x = mono(1, -2, (3, 0), coeff=5)
    assert conjugate(x) == mono(-1, 2, (-3, 0), coeff=5)


def test_swap_t_reference():
    assert swap_t(mono(1, 2, (1, 0))) == mono(2, 1, (1, 0))


def test_permute_framing():
    x = add(mono(0, 0, (1, -1)), mono(1, 0, (0, 2)))
    assert permute_framing(x, (2, 1)) == add(mono(0, 0, (-1, 1)), mono(1, 0, (2, 0)))
    with pytest.raises(ValueError):
        permute_framing(x, (1, 0))


def test_promote_embeds_rank_zero():
    x = add(mono(1, 2), mono(0, 0, coeff=3))
    up = promote(x, 2)
    assert up.rank == 2
    assert up == add(mono(1, 2, (0, 0)), mono(0, 0, (0, 0), coeff=3))
    with pytest.raises(ValueError):
        promote(mono(0, 0, (1,)), 2)


def test_invariant_part_keeps_even_total_weight():
    x = add(mono(1, 0, (1, 0)), mono(1, 1, (1, 0)), mono(0, 0, (1, 1)))
    assert invariant_part(x, (1, 0)) == mono(1, 0, (1, 0))
    assert invariant_part(x, (0, 0)) == add(mono(1, 1, (1, 0)), mono(0, 0, (1, 1)))
    assert invariant_part(x, (1, 1)) == add(mono(1, 0, (1, 0)), mono(0, 0, (1, 1)))


def test_ordering_sign_uses_first_nonzero_group():
    ordering = main_ordering(2)
    assert sign(ordering, (1, 0, (0, 0))) > 0
    assert sign(ordering, (1, -2, (0, 0))) < 0  # t-group sums to -1
    assert sign(ordering, (1, -1, (0, 1))) > 0  # tie broken by e1 group... e2 here
    assert sign(ordering, (1, -1, (-1, 0))) < 0
    assert sign(ordering, (0, 0, (0, 0))) == 0


def sign_by_name(keys, key):
    # the sign read variable by variable from its name, as first written
    a, b, es = key
    exponent = {"t1": a, "t2": b, **{f"e{i + 1}": x for i, x in enumerate(es)}}
    for group in keys:
        value = sum(exponent[name] for name in group)
        if value:
            return 1 if value > 0 else -1
    return 0


@given(
    st.permutations(["t1", "t2", "e1", "e2", "e3"]),
    st.integers(0, 4),
    st.tuples(*[st.integers(-2, 2)] * 5),
)
def test_ordering_sign_matches_the_name_lookup(names, split, exps):
    # group the first `split` names into one summed key, the rest stay single
    keys = ([tuple(names[:split])] if split else []) + [(name,) for name in names[split:]]
    key = (exps[0], exps[1], exps[2:])
    assert sign(key_ordering(keys), key) == sign_by_name(keys, key)


@st.composite
def orderings_and_keys(draw):
    """The keys of a random ordering of rank 0..4, its names cut into groups, and monomials."""
    rank = draw(st.integers(0, 4))
    names = draw(st.permutations(["t1", "t2"] + [f"e{i}" for i in range(1, rank + 1)]))
    cuts = sorted(draw(st.sets(st.integers(1, len(names) - 1))))
    bounds = [0] + cuts + [len(names)]
    keys = [tuple(names[i:j]) for i, j in zip(bounds, bounds[1:])]
    small = st.integers(-2, 2)
    monomials = draw(
        st.lists(st.tuples(small, small, st.tuples(*[small] * rank)), min_size=1, max_size=8)
    )
    return keys, monomials


@given(orderings_and_keys())
def test_ordering_sign_matches_the_flat_sum(case):
    keys, monomials = case
    ordering = key_ordering(keys)
    for key in monomials:
        assert sign(ordering, key) == flat_sign(keys, key), (keys, key)


def test_orderings_are_their_key_lists():
    # the two hard-coded orderings against the key lists they were written as
    for r in range(5):
        names = [f"e{i}" for i in range(1, r + 1)]
        main_keys = key_ordering([("t1", "t2")] + names)
        ale_keys = key_ordering(["t2"] + names + ["t1"])
        for es in itertools.product(range(-2, 3), repeat=r):
            assert main_ordering(r)(es) == main_keys(es), es
            assert ale_ordering(r)(es) == ale_keys(es), es
        # a framing vector one entry longer or shorter
        for wrong in [(0,) * (r + 1)] + ([(0,) * (r - 1)] if r else []):
            for ordering in (main_ordering(r), ale_ordering(r)):
                with pytest.raises(ValueError, match=f"ordering covers rank {r}"):
                    ordering(wrong)


def test_ordering_forms_reference():
    # zero forms are dropped and the list ends at the first constant form
    assert main_ordering(2)((1, -1)) == ((1, 1, 0), (0, 0, 1))
    assert main_ordering(2)((0, 0)) == ((1, 1, 0),)
    assert ale_ordering(2)((0, 0)) == ((0, 1, 0), (1, 0, 0))
    assert ale_ordering(3)((0, -1, 1)) == ((0, 1, 0), (0, 0, -1))
    grouped = key_ordering([("t2", "e2"), "e1", ("t1", "e3")])
    assert grouped((1, -1, 1)) == ((0, 1, -1), (0, 0, 1))
    assert grouped((0, 0, 1)) == ((0, 1, 0), (1, 0, 1))


def test_ale_ordering_reference():
    ordering = ale_ordering(2)
    # t2 decides first, then e's, then t1
    assert sign(ordering, (5, -1, (0, 0))) < 0
    assert sign(ordering, (-5, 0, (1, -1))) > 0
    assert sign(ordering, (1, 0, (0, 0))) > 0


def test_negative_count_reference():
    x = add(mono(-1, 0, (0, 0), coeff=2), mono(1, 1, (0, 0)), mono(0, 0, (-1, 1)))
    ordering = main_ordering(2)
    assert x.negative_count(ordering) == 3
    assert zero_weight_count(x, ordering) == 0


def test_negative_count_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        negate(mono(1, 0, (0, 0))).negative_count(main_ordering(2))


@given(characters())
def test_negative_count_splits_dimension(x):
    # force nonnegative coefficients
    x = Character(2, {key: abs(c) for key, c in x.terms.items()})
    ordering = main_ordering(2)
    total = x.negative_count(ordering) + zero_weight_count(x, ordering)
    assert total + conjugate(x).negative_count(ordering) == x.dimension()


def test_character_json_round_trip():
    # the records list every term in order, and the character is rebuilt from them
    x = add(mono(1, -2, (0, 3), coeff=4), mono(0, 0, (1, 1)))
    data = x.to_json()
    assert data == sorted(data, key=lambda d: (d["t1"], d["t2"], d["e"]))
    assert data == [
        {"coeff": 1, "t1": 0, "t2": 0, "e": [1, 1]},
        {"coeff": 4, "t1": 1, "t2": -2, "e": [0, 3]},
    ]
    assert Character(2, {(d["t1"], d["t2"], tuple(d["e"])): d["coeff"] for d in data}) == x
    assert Character(2).to_json() == []


def test_tpolynomial_text_formatting():
    assert TPolynomial().text() == "0"
    assert TPolynomial({0: 1}).text() == "1"
    assert TPolynomial({2: 2, 0: 1, 4: 1}).text() == "1 + 2*t^2 + t^4"
    assert TPolynomial({1: 1}).text() == "t"
    assert TPolynomial({3: -1, 0: 1}).text() == "1 - t^3"


def test_tpolynomial_arithmetic_and_eval():
    f = TPolynomial({0: 1, 2: 1})
    g = TPolynomial({0: 1, 2: -1})
    assert product(f, g).to_pairs() == [[0, 1], [4, -1]]
    assert add(f, g)(10) == 2
    assert f(3) == 10 and TPolynomial()(3) == 0
    assert f.coeffs == {0: 1, 2: 1} and TPolynomial({1: 0}).coeffs == {}


def test_tpolynomial_rejects_bad_degrees():
    with pytest.raises(ValueError):
        TPolynomial({-1: 1})


def test_tpolynomial_pairs_round_trip():
    f = TPolynomial({0: 1, 6: 2})
    assert TPolynomial.from_pairs(f.to_pairs()) == f


@pytest.mark.parametrize("pairs", [[[0, 1.5]], [[2.0, 1]], [[0, False]], [["1", 1]]])
def test_tpolynomial_from_pairs_rejects_non_integers(pairs):
    with pytest.raises(ValueError):
        TPolynomial.from_pairs(pairs)


def test_qseries_truncation():
    s = QSeries(2, {3: TPolynomial({0: 1})})
    assert s == QSeries(2)
    s.add_monomial(3, 0)
    assert s == QSeries(2)
    t = QSeries(2, {1: TPolynomial({0: 1})})
    assert TPolynomial(t.rows[1]) == TPolynomial({0: 1})
    assert TPolynomial(t.rows[2]) == TPolynomial()


def test_qseries_product_truncates():
    # (1 + q)^3 = (1 - q^2)^3 / (1 - q)^3, truncated at q^3
    cube = QSeries(3, {0: TPolynomial({0: 1})})
    for _ in range(3):
        cube.mul_one_minus(2, 0)
        cube.mul_inverse_one_minus(1, 0)
    assert TPolynomial(cube.rows[2]) == TPolynomial({0: 3})
    assert TPolynomial(cube.rows[3]) == TPolynomial({0: 1})
    one_plus_q = {0: TPolynomial({0: 1}), 1: TPolynomial({0: 1})}
    assert cube == QSeries(3, series_product(3, series_product(3, one_plus_q, one_plus_q), one_plus_q))


def test_qseries_geometric_inverse():
    # 1/(1-q) through order 4
    s = QSeries(4, {0: TPolynomial({0: 1})})
    s.mul_inverse_one_minus(1, 0)
    for j in range(5):
        assert TPolynomial(s.rows[j]) == TPolynomial({0: 1})
    s.mul_one_minus(1, 0)
    assert s == QSeries(4, {0: TPolynomial({0: 1})})


def mul_inverse_one_minus_oracle(order, coeffs, x):
    # the running sum s + s*x + s*x^2 + .., one series per power of the monomial x
    total = term = coeffs
    while True:
        term = series_product(order, term, x)
        if not term:
            return total
        total = series_sum(total, term)


@given(
    st.integers(0, 6),
    st.dictionaries(
        st.integers(0, 6),
        st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=3),
        max_size=4,
    ),
    st.integers(1, 4),
    st.integers(0, 4),
)
def test_qseries_one_minus_and_its_inverse_match_the_running_sums(order, rows, qexp, degree):
    coeffs = {q: TPolynomial(c) for q, c in rows.items() if q <= order}
    x = {qexp: TPolynomial({degree: 1})}
    s = QSeries(order, coeffs)
    s.mul_inverse_one_minus(qexp, degree)
    assert s == QSeries(order, mul_inverse_one_minus_oracle(order, coeffs, x))
    assert s == QSeries(order, spread_inverse_one_minus(order, coeffs, qexp, x[qexp]))
    s.mul_one_minus(qexp, degree)
    assert s == QSeries(order, coeffs)
    s.mul_one_minus(qexp, degree)
    minus = {q: negate(p) for q, p in series_product(order, coeffs, x).items()}
    assert s == QSeries(order, series_sum(coeffs, minus))
    assert s == QSeries(order, spread_one_minus(order, coeffs, qexp, x[qexp]))


def test_qseries_inverse_requires_positive_exponent():
    with pytest.raises(ValueError):
        QSeries(2, {0: TPolynomial({0: 1})}).mul_inverse_one_minus(0, 0)


@pytest.mark.parametrize("qexp, degree", [(0, 0), (-1, 0), (1, -1), (1.0, 0), (True, 0), (1, 0.5)])
def test_qseries_factors_require_a_positive_integer_exponent(qexp, degree):
    s = QSeries(2, {0: TPolynomial({0: 1})})
    with pytest.raises(ValueError):
        s.mul_inverse_one_minus(qexp, degree)
    with pytest.raises(ValueError):
        s.mul_one_minus(qexp, degree)
    assert s == QSeries(2, {0: TPolynomial({0: 1})})


@pytest.mark.parametrize(
    "order, qexp",
    [
        (2.5, 0),
        (True, 0),
        (Fraction(2), 0),
        (-1, 0),
        (2, 0.1),
        (2, True),
        (2, Fraction(1)),
        (2, Fraction(1, 2)),
        (2, -1),
    ],
)
def test_qseries_rejects_non_integer_indices(order, qexp):
    with pytest.raises(ValueError):
        QSeries(order, {qexp: TPolynomial({0: 1})})
    if type(order) is int and order >= 0:
        with pytest.raises(ValueError):
            QSeries(order).add_monomial(qexp, 0)


def test_qseries_json():
    s = QSeries(2, {0: TPolynomial({0: 1}), 1: TPolynomial({2: 3})})
    # q^2 t^4 cancels to a 0 entry, which no output shows
    s.mul_inverse_one_minus(2, 4)
    s.mul_one_minus(2, 4)
    assert s.rows[2] == {4: 0}
    assert s.to_json() == [
        {"q": "0", "poly": [[0, 1]]},
        {"q": "1", "poly": [[2, 3]]},
    ]
    assert repr(s) == "<QSeries (1)*q^0 + (3*t^2)*q^1>"
