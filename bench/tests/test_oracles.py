"""The benchmark's own checks: oracles, spans and bytecode counts.

    python3 -m pytest bench/tests
"""

import itertools
import json
from fractions import Fraction

import pytest

import oracles
import repeat
import tracer
import workloads
from hirzebruch import counting
from hirzebruch.ale import ale_poincare
from hirzebruch.localization import ModuliParams, tangent_character


def brute_force_k_strings(p, r, k, n):
    n = Fraction(n)
    out = []
    for ks in itertools.product(range(-4, 5), repeat=r):
        if sum(ks) != k:
            continue
        excess = n - oracles.pair_weight(p, ks)
        if excess >= 0 and excess.denominator == 1:
            out.append((ks, int(excess)))
    return out


@pytest.mark.parametrize(
    "space",
    [(1, 2, 0, 3), (2, 3, 1, Fraction(8, 3)), (3, 4, 2, Fraction(7, 2)), (1, 3, 0, 0), (1, 2, 0, -1)],
)
def test_k_string_search_matches_brute_force(space):
    assert sorted(oracles.k_strings(*space)) == sorted(brute_force_k_strings(*space))


def test_multipartition_counts_are_partition_numbers_for_one_color():
    assert oracles.multipartition_counts(1, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert oracles.multipartition_counts(2, 3) == [1, 2, 5, 10]


@pytest.mark.parametrize("space, euler", [((1, 3, 0, 8), 61227), ((3, 3, 1, 7), 7776)])
def test_euler_number_equals_p_at_one(space, euler):
    assert oracles.euler_number(*space) == euler
    params = ModuliParams(*space)
    assert counting.poincare_polynomial(params)(1) == euler


def test_goettsche_product_matches_the_rank_one_series():
    expected = oracles.goettsche_series(6)
    assert expected[1] == [[0, 1], [2, 1]]
    for p in (1, 2):
        series = counting.hilbert_series_r1(p, 6).to_json()
        assert [item["poly"] for item in series] == expected


def test_poincare_problems_accepts_the_answer_and_rejects_a_changed_one():
    pairs = counting.poincare_polynomial(ModuliParams(2, 2, 0, 3)).to_pairs()
    assert oracles.poincare_problems(pairs, 2, 2, 0, 3) == []
    wrong = [list(x) for x in pairs]
    wrong[-1][1] += 1
    assert oracles.poincare_problems(wrong, 2, 2, 0, 3)
    assert oracles.poincare_problems([[1, 1]] + pairs[1:], 2, 2, 0, 3)


def test_ale_oracle_agrees_where_the_workload_applies_it():
    for r in (1, 2, 3):
        for n in range(4 - r):
            surface = counting.poincare_polynomial(ModuliParams(2, r, 0, n)).to_pairs()
            assert ale_poincare(r, n).to_pairs() == surface


def test_character_problems():
    params = ModuliParams(2, 2, 0, 2)
    fp = next(counting.enumerate_fixed_points(params))
    terms = tangent_character(params, fp).terms
    assert oracles.character_problems(terms, 2, 8, reduced=False) == []
    assert oracles.character_problems(terms, 2, 9, reduced=False)
    trivial = dict(terms)
    trivial[(0, 0, (0, 0))] = 1
    assert oracles.character_problems(trivial, 2, 9, reduced=False)
    assert oracles.character_problems(trivial, 2, 9, reduced=True) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "3"],
        ["sweep", "--mode", "crosscheck", "--p", "1,2", "--r", "1..2", "--k", "0", "--n", "0..2"],
        ["tangent", "--p", "2", "--r", "2", "--k", "0", "--n", "1", "--reduced"],
        ["check", "--p", "1", "--r", "3", "--k", "1", "--n", "1/2"],
    ],
)
def test_expected_result_matches_cli_main(argv, capsys):
    from hirzebruch import cli

    assert cli.main(argv + ["--format", "json"]) == 0
    answer = json.loads(capsys.readouterr().out)["result"]
    expected, problems = workloads.expected_result(argv)
    assert problems == []
    assert answer == json.loads(json.dumps(expected))


def test_bytecode_count_repeats_and_credits_files():
    params = ModuliParams(1, 2, 0, 3)
    counts = []
    for _ in range(2):
        counter = tracer.BytecodeCounter()
        counter.start()
        counting.poincare_polynomial(params)
        counter.stop()
        counting.poincare_polynomial(params)  # after stop: not counted
        counts.append(counter.per_file)
    assert counts[0] == counts[1]
    assert counts[0][counting.__file__] > 0


def test_spans_count_calls_and_restore_the_modules():
    from hirzebruch import cli, localization

    original = counting.poincare_polynomial
    spans = tracer.Spans()
    spans.install()
    try:
        assert cli.poincare_polynomial is not original
        counting.poincare_polynomial(ModuliParams(2, 2, 0, 2))
        tangent_call = localization.tangent_character
        params = ModuliParams(2, 2, 0, 1)
        tangent_call(params, next(counting.enumerate_fixed_points(params)))
    finally:
        spans.uninstall()
    assert counting.poincare_polynomial is original and cli.poincare_polynomial is original
    assert spans.counters["localization.characters"] == 1
    assert spans.counters["counting.points"] > 0
    assert spans.counters["laurent.tpoly_inits"] > 0
    assert all(v >= 0 for v in spans.self_ns.values())


def test_spread_is_quartile_distance_over_median():
    assert repeat.spread([1.0] * 10) == 0.0
    assert repeat.spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3
    )
