"""Check that the counts repeat exactly in separate processes.

    python3 bench/exact.py

Runs every workload twice with --trace 0 and twice with --trace 1, under
two different PYTHONHASHSEED values, and compares `bytecodes` and every
per-layer metric whose unit is `count`.  The counts do not depend on the
run length, so the runs are as short as the benchmark allows: the fixed
phases and the fewest timed passes.  The counts hold for one CPython
version, which is printed.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "4242")
SEED = 1
SECONDS = 1


def counts(config: dict, workload: str, trace: int, hash_seed: str) -> dict:
    command = config["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(f"{platform.python_implementation()} {platform.python_version()}")
    status = 0
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            a, b = (counts(config, workload, trace, h) for h in HASH_SEEDS)
            differ = sorted(name for name in a if a[name] != b.get(name))
            verdict = "identical" if not differ else f"DIFFER: {differ}"
            print(f"{workload} trace {trace}: {len(a)} counts under PYTHONHASHSEED "
                  f"{' and '.join(HASH_SEEDS)}: {verdict}")
            if differ:
                status = 1
                for name in differ:
                    print(f"  {name}: {a[name]} vs {b.get(name)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
