from fractions import Fraction

import pytest
from helpers import conjugate, invariant_part, permute_framing, promote, swap_t, zero_weight_count
from hypothesis import given, strategies as st

from hirzebruch.laurent import (
    Character,
    OrderingSpec,
    QSeries,
    TPolynomial,
    ale_ordering,
    main_ordering,
)


def mono(a, b, e=(), coeff=1):
    return Character.monomial(len(e), a, b, e, coeff)


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
    x = Character.zero(rank)
    for a, b, e, coeff in terms:
        x = x + mono(a, b, e, coeff)
    return x


def test_zero_terms_are_pruned():
    x = mono(1, 0) - mono(1, 0)
    assert x == Character.zero(0)
    assert not x
    assert x.dimension() == 0


def test_framing_length_must_match_the_rank():
    with pytest.raises(ValueError):
        Character(1, {(0, 0, (1, 2)): 1})
    with pytest.raises(ValueError):
        Character(2, {(0, 0, (1,)): 1})


def test_mixed_rank_arithmetic_is_rejected():
    with pytest.raises(ValueError):
        mono(0, 0, (1,)) + mono(0, 0, (1, 0))
    with pytest.raises(ValueError):
        mono(0, 0, (1,)) * mono(0, 0, (1, 0))


def test_product_of_monomials_adds_exponents():
    x = mono(1, 2, (1, 0)) * mono(3, -1, (0, 2))
    assert x == mono(4, 1, (1, 2))


def test_scalar_multiplication():
    x = mono(1, 0, (0,)) + mono(0, 1, (1,))
    assert 2 * x == x + x == x * 2


def test_dimension_counts_with_multiplicity():
    x = mono(1, 0, coeff=3) + mono(0, 2, coeff=-1)
    assert x.dimension() == 2


def test_substitute_reference_values():
    # t1 -> t1^p, t2 -> t2/t1 at p = 2
    x = mono(1, 1, (1, -1)).substitute(((2, -1), (0, 1)))
    assert x == mono(1, 1, (1, -1))
    y = mono(0, 2, ()).substitute(((2, -1), (0, 1)))
    assert y == mono(-2, 2, ())


def test_substitute_accumulates_collisions():
    # t2 -> t1 merges t1*t2 and t1^2 into one slot
    x = (mono(1, 1) + mono(2, 0)).substitute(((1, 1), (0, 0)))
    assert x == mono(2, 0, coeff=2)


@given(characters(), characters())
def test_substitute_is_additive_and_multiplicative(x, y):
    m = ((1, 2), (0, 1))
    assert (x + y).substitute(m) == x.substitute(m) + y.substitute(m)
    assert (x * y).substitute(m) == x.substitute(m) * y.substitute(m)


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
    x = mono(0, 0, (1, -1)) + mono(1, 0, (0, 2))
    assert permute_framing(x, (2, 1)) == mono(0, 0, (-1, 1)) + mono(1, 0, (2, 0))
    with pytest.raises(ValueError):
        permute_framing(x, (1, 0))


def test_promote_embeds_rank_zero():
    x = mono(1, 2) + mono(0, 0, coeff=3)
    up = promote(x, 2)
    assert up.rank == 2
    assert up == mono(1, 2, (0, 0)) + mono(0, 0, (0, 0), coeff=3)
    with pytest.raises(ValueError):
        promote(mono(0, 0, (1,)), 2)


def test_invariant_part_keeps_even_total_weight():
    x = mono(1, 0, (1, 0)) + mono(1, 1, (1, 0)) + mono(0, 0, (1, 1))
    assert invariant_part(x, (1, 0)) == mono(1, 0, (1, 0))
    assert invariant_part(x, (0, 0)) == mono(1, 1, (1, 0)) + mono(0, 0, (1, 1))
    assert invariant_part(x, (1, 1)) == mono(1, 0, (1, 0)) + mono(0, 0, (1, 1))


def test_ordering_validation():
    with pytest.raises(ValueError):
        OrderingSpec(["t1", "e1"])  # t2 missing
    with pytest.raises(ValueError):
        OrderingSpec(["t1", "t2", "e2"])  # e1 missing
    with pytest.raises(ValueError):
        OrderingSpec(["t1", "t2", "t1"])  # duplicate
    ordering = OrderingSpec(["t2", "e1", "e2", "t1"])
    assert ordering.rank == 2


def test_ordering_sign_uses_first_nonzero_group():
    ordering = main_ordering(2)
    assert ordering.sign((1, 0, (0, 0))) > 0
    assert ordering.sign((1, -2, (0, 0))) < 0  # t-group sums to -1
    assert ordering.sign((1, -1, (0, 1))) > 0  # tie broken by e1 group... e2 here
    assert ordering.sign((1, -1, (-1, 0))) < 0
    assert ordering.sign((0, 0, (0, 0))) == 0


def test_ale_ordering_reference():
    ordering = ale_ordering(2)
    # t2 decides first, then e's, then t1
    assert ordering.sign((5, -1, (0, 0))) < 0
    assert ordering.sign((-5, 0, (1, -1))) > 0
    assert ordering.sign((1, 0, (0, 0))) > 0


def test_negative_count_reference():
    x = mono(-1, 0, (0, 0), coeff=2) + mono(1, 1, (0, 0)) + mono(0, 0, (-1, 1))
    ordering = main_ordering(2)
    assert x.negative_count(ordering) == 3
    assert zero_weight_count(x, ordering) == 0


def test_negative_count_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        (-mono(1, 0, (0, 0))).negative_count(main_ordering(2))


@given(characters())
def test_negative_count_splits_dimension(x):
    # force nonnegative coefficients
    x = Character(2, {key: abs(c) for key, c in x.terms.items()})
    ordering = main_ordering(2)
    total = x.negative_count(ordering) + zero_weight_count(x, ordering)
    assert total + conjugate(x).negative_count(ordering) == x.dimension()


def test_character_json_round_trip():
    x = mono(1, -2, (0, 3), coeff=4) + mono(0, 0, (1, 1))
    data = x.to_json()
    assert data == sorted(data, key=lambda d: (d["t1"], d["t2"], d["e"]))
    assert Character.from_json(data) == x
    assert Character.from_json([], rank=2) == Character.zero(2)
    with pytest.raises(ValueError):
        Character.from_json([])


@pytest.mark.parametrize(
    "item",
    [
        {"coeff": 1.5, "t1": 0, "t2": 0, "e": [0]},
        {"coeff": 1, "t1": 1.0, "t2": 0, "e": [0]},
        {"coeff": 1, "t1": 0, "t2": True, "e": [0]},
        {"coeff": 1, "t1": 0, "t2": 0, "e": ["0"]},
    ],
)
def test_character_from_json_rejects_non_integers(item):
    with pytest.raises(ValueError):
        Character.from_json([item])


def test_tpolynomial_text_formatting():
    assert TPolynomial.zero().text() == "0"
    assert TPolynomial.one().text() == "1"
    assert TPolynomial({2: 2, 0: 1, 4: 1}).text() == "1 + 2*t^2 + t^4"
    assert TPolynomial({1: 1}).text() == "t"
    assert TPolynomial({3: -1, 0: 1}).text() == "1 - t^3"


def test_tpolynomial_arithmetic_and_eval():
    f = TPolynomial({0: 1, 2: 1})
    g = TPolynomial({0: 1, 2: -1})
    assert (f * g).to_pairs() == [[0, 1], [4, -1]]
    assert (f + g)(10) == 2
    assert f(3) == 10
    assert f.degree() == 2 and TPolynomial.zero().degree() == -1
    assert f.coefficient(2) == 1 and f.coefficient(1) == 0


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
    s = QSeries.term(2, 3, TPolynomial.one())
    assert s == QSeries.zero(2)
    t = QSeries.term(2, 1, TPolynomial.one())
    assert t.coefficient(1) == TPolynomial.one()
    assert t.coefficient(2) == TPolynomial.zero()


def test_qseries_product_truncates():
    one_plus_q = QSeries.one(3) + QSeries.term(3, 1, TPolynomial.one())
    cube = one_plus_q * one_plus_q * one_plus_q
    assert cube.coefficient(2) == TPolynomial({0: 3})
    assert cube.coefficient(3) == TPolynomial({0: 1})


def test_qseries_geometric_inverse():
    # 1/(1-q) through order 4
    s = QSeries.one(4).mul_inverse_one_minus(1, TPolynomial.one())
    for j in range(5):
        assert s.coefficient(j) == TPolynomial.one()
    back = s.mul_one_minus(1, TPolynomial.one())
    assert back == QSeries.one(4)


def test_qseries_inverse_requires_positive_exponent():
    with pytest.raises(ValueError):
        QSeries.one(2).mul_inverse_one_minus(0, TPolynomial.one())


def test_qseries_fractional_exponents():
    half = Fraction(1, 2)
    s = QSeries.term(1, half, TPolynomial({2: 1}))
    sq = s * s
    assert sq.coefficient(1) == TPolynomial({4: 1})
    assert s.coefficient(half) == TPolynomial({2: 1})


def test_qseries_json():
    s = QSeries.one(1) + QSeries.term(1, Fraction(1, 2), TPolynomial({2: 3}))
    assert s.to_json() == [
        {"q": "0", "poly": [[0, 1]]},
        {"q": "1/2", "poly": [[2, 3]]},
    ]
