"""Run each workload several times on the same code and print the spread.

    python3 bench/repeat.py --first-seed N

Runs every workload of BENCHMARK.json RUNS times for `run_seconds`, each
run with its own seed (N, N + 1, ...).  Two calls with different N give
two sets of runs to compare.  For every end-to-end metric the table shows
the median over runs and the spread,
the distance between the first and third quartiles as a share of the
median, beside the metric's bound from BENCHMARK.json.  A spread below a
third of the bound is marked ok.  It also checks that every run failed
the same share of its operations.  Raw results go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def spread(values: list[float]) -> float:
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args()

    status = 0
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            command = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out = ROOT / ".bench_out" / f"repeat-{workload}-seed{args.first_seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1))

        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {RUNS} runs, correct={correct}, failed shares={sorted(map(str, shares))}")
        print(f"{'metric':32} {'median':>16} {'spread':>8} {'bound':>6}")
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            bound = metric["bound"]
            s = spread(values)
            mark = "ok" if s < bound / 3 else ("within bound" if s < bound else "TOO WIDE")
            print(f"{metric['name']:32} {statistics.median(values):16.6g} {s:8.4f} {bound:>6} {mark}")
        if not correct or len(shares) != 1:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
