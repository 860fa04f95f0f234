"""Re-measure the ROADMAP baseline table: median CPU time of each entry.

    python3 bench/baselines.py

Each entry runs once to warm the caches, then REPEATS times; the table
gives the median CPU milliseconds.  Single-threaded, in one process.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hirzebruch import ale, counting, localization  # noqa: E402

M = localization.ModuliParams
REPEATS = 7


def entries():
    points_2204 = list(counting.enumerate_fixed_points(M(2, 2, 0, 4)))
    r6 = M(1, 6, 0, 2)
    return [
        ("`poincare` (2,2,0,8)", lambda: counting.poincare_polynomial(M(2, 2, 0, 8))),
        ("`poincare` (1,3,0,8)", lambda: counting.poincare_polynomial(M(1, 3, 0, 8))),
        ("`poincare` (3,3,1,7)", lambda: counting.poincare_polynomial(M(3, 3, 1, 7))),
        ("`poincare` (1,6,0,2)", lambda: counting.poincare_polynomial(r6)),
        ("`ale_poincare(2,5)`", lambda: ale.ale_poincare(2, 5)),
        ("`ale_poincare(3,3)`", lambda: ale.ale_poincare(3, 3)),
        ("series p=1, order 10, closed", lambda: counting.rank2_series_closed(1, 10)),
        ("series p=1, order 10, direct", lambda: counting.rank2_series_direct(1, 10)),
        (
            "full tangent characters, (2,2,0,4)",
            lambda: [localization.tangent_character(M(2, 2, 0, 4), fp) for fp in points_2204],
        ),
        ("`_k_strings`, p=1, r=6, n=2", lambda: list(counting._k_strings(r6))),
    ]


def main() -> int:
    print("| workload | median CPU time |\n| --- | --- |")
    for label, fn in entries():
        fn()
        times = []
        for _ in range(REPEATS):
            start = time.process_time()
            fn()
            times.append(time.process_time() - start)
        print(f"| {label} | {1000 * statistics.median(times):.0f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
