"""End-to-end acceptance checks.

Every check is exact integer arithmetic with zero tolerance.  Each test
prints one [PASS]/[FAIL] line (visible with pytest -s) and then asserts,
so a red run still shows which criterion broke and how.
"""

from fractions import Fraction

from hirzebruch.ale import (
    ColoredFixedPoint,
    ale_index,
    ale_poincare,
    ale_tangent_character,
)
from hirzebruch.counting import (
    check_nonempty,
    enumerate_fixed_points,
    enumerate_reduced_fixed_points,
    hilbert_series_r1,
    morse_index_closed,
    poincare_polynomial,
    rank2_series_closed,
    rank2_series_direct,
)
from hirzebruch.laurent import Character, OrderingSpec, TPolynomial, main_ordering
from hirzebruch.localization import ModuliParams, reduced_tangent_character, tangent_character
from hirzebruch.partitions import ColoredDiagram, PartitionDiagram


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {num:02d} {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _grid_cells():
    # every (p, r, k) cell with the admissible n values up to 3
    for p in (1, 2, 3):
        for r in (1, 2, 3):
            for k in range(r):
                start = Fraction(p * k * (r - k), 2 * r)
                ns = []
                n = start
                while n <= 3:
                    ns.append(n)
                    n += 1
                yield p, r, k, ns


def test_01_golden_polynomials():
    got1 = poincare_polynomial(ModuliParams(2, 2, 0, 1))
    got2 = poincare_polynomial(ModuliParams(2, 2, 0, 2))
    ok = got1 == TPolynomial({0: 1, 2: 2, 4: 1}) and got2 == TPolynomial(
        {0: 1, 2: 2, 4: 5, 6: 5, 8: 3}
    )
    _report(1, "golden Poincare polynomials at (2,2,0,1) and (2,2,0,2)", ok,
            f"got {got1.text()!r} and {got2.text()!r}")


def test_02_oracle_equivalence():
    mismatches = []
    for n in (1, 2, 3, 4):
        surface = poincare_polynomial(ModuliParams(2, 2, 0, n))
        oracle = ale_poincare(2, n)
        if surface != oracle:
            mismatches.append((n, surface.text(), oracle.text()))
    _report(2, "surface and orbifold polynomials agree for n = 1..4",
            not mismatches, str(mismatches) if mismatches else "4 values")


def _printed_points():
    def cfp(a, b):
        return ColoredFixedPoint((
            ColoredDiagram(PartitionDiagram(a), 0),
            ColoredDiagram(PartitionDiagram(b), 0),
        ))

    e = (0, 0)
    up = (1, -1)
    down = (-1, 1)
    return [
        (cfp([], [1, 1]),
         {(1, -1, e): 1, (0, 2, e): 1, (1, 1, up): 1, (0, 0, down): 1}, 2),
        (cfp([], [2]),
         {(2, 0, e): 1, (-1, 1, e): 1, (1, 1, up): 1, (0, 0, down): 1}, 1),
        (cfp([1, 1], []),
         {(1, -1, e): 1, (0, 2, e): 1, (1, 1, down): 1, (0, 0, up): 1}, 1),
        (cfp([2], []),
         {(2, 0, e): 1, (-1, 1, e): 1, (1, 1, down): 1, (0, 0, up): 1}, 0),
        (cfp([], [4]),
         {(2, 0, e): 1, (4, 0, e): 1, (-3, 1, e): 1, (-1, 1, e): 1,
          (1, 1, up): 1, (3, 1, up): 1, (0, 0, down): 1, (-2, 0, down): 1}, 2),
        (cfp([], [3, 1]),
         {(2, 0, e): 1, (3, -1, e): 1, (-1, 1, e): 1, (-2, 2, e): 1,
          (1, 1, up): 1, (3, 1, up): 1, (0, 0, down): 1, (-2, 0, down): 1}, 3),
        (cfp([], [2, 2]),
         {(2, 0, e): 1, (1, -1, e): 1, (-1, 1, e): 1, (0, 2, e): 1,
          (1, 1, up): 1, (2, 2, up): 1, (0, 0, down): 1, (-1, -1, down): 1}, 3),
        (cfp([1], [2, 1]),
         {(2, 0, up): 1, (1, 1, up): 2, (0, 2, up): 1,
          (0, 0, down): 2, (1, -1, down): 1, (-1, 1, down): 1}, 3),
        (cfp([2], [2]),
         {(2, 0, e): 2, (-1, 1, e): 2, (2, 0, up): 1, (-1, 1, up): 1,
          (2, 0, down): 1, (-1, 1, down): 1}, 1),
        (cfp([2], [1, 1]),
         {(2, 0, e): 1, (1, -1, e): 1, (-1, 1, e): 1, (0, 2, e): 1,
          (0, 0, up): 1, (1, 1, up): 1, (0, 0, down): 1, (1, 1, down): 1}, 2),
    ]


def test_03_printed_characters_and_indexes():
    ordering = OrderingSpec(["t2", "e1", "e2", "t1"])
    bad = []
    for pos, (fp, terms, index) in enumerate(_printed_points(), 1):
        x = ale_tangent_character(fp)
        if x != Character(2, terms) or ale_index(fp, ordering) != index:
            bad.append(pos)
    _report(3, "ten printed weight decompositions and indexes reproduced",
            not bad, f"mismatch at positions {bad}" if bad else "10 points")


def test_04_dimension_invariant():
    checked = 0
    for p, r, k, ns in _grid_cells():
        for n in ns:
            params = ModuliParams(p, r, k, n)
            expected = params.expected_dimension()
            for fp in enumerate_fixed_points(params):
                assert tangent_character(params, fp).dimension() == expected
                checked += 1
    _report(4, "tangent dimension equals 2rn on the full grid",
            checked > 0, f"{checked} fixed points")


def test_05_fixed_point_counts():
    count1 = sum(1 for _ in enumerate_fixed_points(ModuliParams(2, 2, 0, 1)))
    count2 = sum(1 for _ in enumerate_fixed_points(ModuliParams(2, 2, 0, 2)))
    ok = count1 == 4 and count2 == 16
    total = 0
    for p, r, k, ns in _grid_cells():
        for n in ns:
            params = ModuliParams(p, r, k, n)
            full = sum(1 for _ in enumerate_fixed_points(params))
            ok = ok and poincare_polynomial(params)(1) == full
            total += full
    _report(5, "counts 4 and 16, and P(1) equals the fixed-point count",
            ok, f"grid total {total}")


def test_06_series_coherence():
    bad = []
    for p in (1, 2, 3):
        if rank2_series_closed(p, 5) != rank2_series_direct(p, 5):
            bad.append(p)
    _report(6, "closed and direct rank-2 series agree through q^5",
            not bad, f"p mismatches {bad}" if bad else "p = 1, 2, 3")


def _hilbert_oracle(order):
    # product over m of 1/(1 - t^(2m-2) q^m) / (1 - t^(2m) q^m), plain dicts
    series = {0: {0: 1}}
    for m in range(1, order + 1):
        for texp in (2 * m - 2, 2 * m):
            out = {}
            for q in range(order + 1):
                acc = {}
                j = 0
                while j * m <= q:
                    for t, c in series.get(q - j * m, {}).items():
                        acc[t + j * texp] = acc.get(t + j * texp, 0) + c
                    j += 1
                out[q] = {t: c for t, c in acc.items() if c}
            series = out
    return series


def test_07_hilbert_check():
    oracle = _hilbert_oracle(6)
    ok = True
    for p in (1, 2, 3):
        series = hilbert_series_r1(p, 6)
        for q in range(7):
            got = dict(series.coefficient(q).coeffs)
            ok = ok and got == oracle[q]
    _report(7, "rank-1 series matches the product formula and is p-independent",
            ok, "orders 0..6, p = 1, 2, 3")


def test_08_nonemptiness_criterion():
    seen_empty = seen_nonempty = 0
    ok = True
    for p, r, k, _ in _grid_cells():
        for j in range(-4, 6 * r + 1):
            params = ModuliParams(p, r, k, Fraction(j, 2 * r))
            populated = any(True for _ in enumerate_fixed_points(params))
            ok = ok and check_nonempty(params) == populated
            if populated:
                seen_nonempty += 1
            else:
                seen_empty += 1
    _report(8, "nonemptiness criterion matches enumeration",
            ok and seen_empty > 0 and seen_nonempty > 0,
            f"{seen_nonempty} nonempty, {seen_empty} empty cells")


def test_09_ordering_invariance():
    orderings = [
        OrderingSpec(["t2", "e1", "e2", "t1"]),
        OrderingSpec(["t2", "e2", "e1", "t1"]),
        OrderingSpec(["t1", "e1", "e2", "t2"]),
        OrderingSpec(["t1", "e2", "e1", "t2"]),
    ]
    ok = True
    for r, n in ((2, 1), (2, 2)):
        polys = [ale_poincare(r, n, ordering) for ordering in orderings]
        ok = ok and all(poly == polys[0] for poly in polys)
    _report(9, "orbifold polynomial is ordering-independent",
            ok, "4 orderings at (2,1) and (2,2)")


def test_10_index_cross_validation():
    ordering = main_ordering(2)
    checked = 0
    ok = True
    for p in (1, 2):
        for n in range(5):
            params = ModuliParams(p, 2, 0, n)
            for rfp in enumerate_reduced_fixed_points(params):
                x = reduced_tangent_character(params, rfp)
                ok = ok and x.negative_count(ordering) == morse_index_closed(params, rfp)
                checked += 1
    _report(10, "closed Morse index equals the character count",
            ok and checked > 0, f"{checked} reduced fixed points")
