"""The three workloads: fixed lists of operations and the checks on them.

A workload builds its inputs once (`__init__`, which is what `setup_s`
measures) and then hands the runner one pass at a time: a list of steps,
each an `Op` to time or an untimed action.  Every pass runs the same
operations; the seed only fixes their order within a pass.  `check`
returns the problems found with one operation's result; an empty list
means the answer agreed with the independent computations in `oracles`.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

F = Fraction


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str
    call: Callable[[], object]
    kind: str  # which end-to-end statistics it feeds, see README.md
    points: int = 1  # fixed points the operation visits, for time per point


class Workload:
    """In-process library calls with warm caches, timed in CPU seconds."""

    clock = staticmethod(time.process_time_ns)
    in_process = True
    min_passes = 3  # timed passes per run, at least
    child_count_share = 0.2  # of the counted pass, by time; see run.child_count_ops

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.reference: dict[str, object] = {}

    def pass_steps(self, shuffle: bool = True) -> list:
        steps = list(self.ops)
        if shuffle:
            self.rng.shuffle(steps)
        return steps

    def failed(self, result) -> bool:
        return False

    def setup_problems(self) -> list[str]:
        return []

    def check(self, op: Op, result) -> list[str]:
        """Oracles on the first result of an operation, equality after."""
        if op.name in self.reference:
            return [] if result == self.reference[op.name] else [f"{op.name}: result changed"]
        self.reference[op.name] = result
        return [f"{op.name}: {problem}" for problem in self.oracle_problems(op, result)]

    def oracle_problems(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# (p, r, k, n): the ROADMAP baselines first, then r = 1..6 at p = 1..3
POINCARE_GRID = [
    (2, 2, 0, 8), (1, 3, 0, 8), (3, 3, 1, 7), (1, 6, 0, 2),
    (1, 1, 0, 6), (2, 1, 0, 8), (3, 1, 2, 5), (1, 1, 0, 10), (2, 1, -1, 3),
    (3, 1, 0, 4),
    (1, 2, 0, 3), (1, 2, 1, F(13, 4)), (2, 2, 1, F(5, 2)), (3, 2, 1, F(15, 4)),
    (2, 2, 0, 5), (3, 2, 0, 6), (1, 2, -1, F(9, 4)), (2, 2, 0, 2), (2, 2, 0, 3), (1, 2, 0, 1),
    (3, 2, 1, F(3, 4)), (1, 2, 0, 2),
    (1, 3, 1, F(7, 3)), (2, 3, 1, F(8, 3)), (1, 3, 2, F(7, 3)), (3, 3, 2, 4),
    (2, 3, 0, 4), (3, 3, 0, 5), (1, 3, 0, 2), (2, 3, 1, F(5, 3)), (3, 3, 1, 1),
    (2, 3, 0, 2),
    (2, 4, 1, F(11, 4)), (3, 4, 2, F(7, 2)), (3, 4, 0, 3), (1, 4, 1, F(19, 8)),
    (2, 4, 0, 2), (1, 4, 0, 1), (2, 4, 2, 4),
    (3, 5, 0, 2), (2, 5, 0, 2), (2, 5, 1, F(14, 5)), (1, 5, 0, 1), (3, 5, 1, F(11, 5)),
    (2, 6, 1, F(11, 6)), (1, 6, 1, F(17, 12)), (3, 6, 0, 1),
]
SERIES_P, SERIES_ORDER = 1, 8
# p = 2, k = 0 grid entries compared with the A1 oracle: small ones, and
# r <= 3, where every integer-n A1 fixed point has all corner colors 0.
# From r = 4 on, ale_poincare also counts the sector with four corners of
# color 1, which is another moduli space (see CHANGES.md).
ALE_CHECK_BOXES = 6
ALE_CHECK_RANK = 3


def locus_count(p: int, r: int, k: int, n) -> int:
    """Number of reduced fixed loci: r-tuples of diagrams per k-string."""
    strings = oracles.k_strings(p, r, k, n)
    if not strings:
        return 0
    counts = oracles.multipartition_counts(r, max(e for _, e in strings))
    return sum(counts[e] for _, e in strings)


class PoincareGrid(Workload):
    """Poincare polynomials over a (p, r, k, n) grid and three q-series."""

    def __init__(self, seed: int):
        super().__init__(seed)
        # calls go through the module, so the spans of a traced run see them
        from hirzebruch import counting
        from hirzebruch.localization import ModuliParams

        for p, r, k, n in POINCARE_GRID:
            params = ModuliParams(p, r, k, F(n))
            self.ops.append(
                Op(
                    f"poincare {p},{r},{k},{n}",
                    lambda params=params: counting.poincare_polynomial(params).to_pairs(),
                    "point",
                    points=locus_count(p, r, k, n),
                )
            )
        for name in ("rank2_series_closed", "rank2_series_direct", "hilbert_series_r1"):
            self.ops.append(
                Op(
                    name,
                    lambda name=name: getattr(counting, name)(SERIES_P, SERIES_ORDER).to_json(),
                    "series",
                )
            )

    def oracle_problems(self, op: Op, result) -> list[str]:
        if op.kind == "point":
            p, r, k, n = (F(x) for x in op.name.split()[1].split(","))
            p, r, k = int(p), int(r), int(k)
            problems = oracles.poincare_problems(result, p, r, k, n)
            if p == 2 and k == 0 and 2 * n <= ALE_CHECK_BOXES and r <= ALE_CHECK_RANK:
                from hirzebruch.ale import ale_poincare

                if ale_poincare(r, n).to_pairs() != result:
                    problems.append("differs from the A1 oracle ale_poincare")
            return problems
        series = {item["q"]: item["poly"] for item in result}
        if op.name == "hilbert_series_r1":
            expected = oracles.goettsche_series(SERIES_ORDER)
            return [
                f"q^{n} differs from Goettsche's product"
                for n in range(SERIES_ORDER + 1)
                if series.get(str(n), []) != expected[n]
            ]
        problems = []
        for n in range(SERIES_ORDER + 1):
            problems += oracles.poincare_problems(series.get(str(n), []), SERIES_P, 2, 0, n)
        # the closed product and the direct sum must agree term by term
        other = "rank2_series_direct" if op.name == "rank2_series_closed" else "rank2_series_closed"
        if other in self.reference and self.reference[other] != result:
            problems.append(f"differs from {other}")
        return problems


TANGENT_SPACES = [(2, 2, 0, 5), (1, 3, 0, 3), (3, 2, 1, F(15, 4))]
REDUCED_SPACE = (1, 4, 0, 2)
ALE_SPACES = [(2, 5), (3, 3)]


class Characters(Workload):
    """Tangent characters at every fixed point, reduced indexes, ALE counts."""

    def __init__(self, seed: int):
        super().__init__(seed)
        from hirzebruch import ale, localization
        from hirzebruch.counting import enumerate_fixed_points, enumerate_reduced_fixed_points
        from hirzebruch.laurent import main_ordering

        self.spaces = {}
        for p, r, k, n in TANGENT_SPACES:
            params = localization.ModuliParams(p, r, k, F(n))
            points = list(enumerate_fixed_points(params))
            self.spaces[params] = len(points)
            for i, fp in enumerate(points):
                self.ops.append(
                    Op(
                        f"tangent {p},{r},{k},{n} #{i}",
                        lambda params=params, fp=fp: localization.tangent_character(params, fp),
                        "point",
                    )
                )
        params = localization.ModuliParams(*REDUCED_SPACE)
        ordering = main_ordering(params.r)
        self.reduced = {}
        for i, rfp in enumerate(enumerate_reduced_fixed_points(params)):
            name = f"reduced {','.join(map(str, REDUCED_SPACE))} #{i}"
            self.reduced[name] = (params, rfp)

            def reduced(params=params, rfp=rfp):
                x = localization.reduced_tangent_character(params, rfp)
                return x, x.negative_count(ordering)

            self.ops.append(Op(name, reduced, "reduced"))
        for r, n in ALE_SPACES:
            self.ops.append(
                Op(f"ale {r},{n}", lambda r=r, n=n: ale.ale_poincare(r, n).to_pairs(), "ale")
            )

    def oracle_problems(self, op: Op, result) -> list[str]:
        from hirzebruch.counting import morse_index_closed, poincare_polynomial
        from hirzebruch.localization import ModuliParams

        if op.kind == "point":
            p, r, k, n = (F(x) for x in op.name.split()[1].split(","))
            return oracles.character_problems(result.terms, int(r), int(2 * r * n), reduced=False)
        if op.kind == "reduced":
            params, rfp = self.reduced[op.name]
            x, index = result
            problems = oracles.character_problems(
                x.terms, params.r, int(2 * params.r * params.n), reduced=True
            )
            if index != morse_index_closed(params, rfp):
                problems.append(f"negative count {index} differs from morse_index_closed")
            return problems
        r, n = (int(x) for x in op.name.split()[1].split(","))
        problems = oracles.poincare_problems(result, 2, r, 0, n)
        if poincare_polynomial(ModuliParams(2, r, 0, F(n))).to_pairs() != result:
            problems.append("differs from the surface polynomial at p=2, k=0")
        return problems

    def setup_problems(self) -> list[str]:
        """Each space must have as many fixed points as its Euler number."""
        return [
            f"{params}: {count} fixed points, Euler number {euler}"
            for params, count in self.spaces.items()
            if count != (euler := oracles.euler_number(params.p, params.r, params.k, params.n))
        ]


# Cached requests: each runs once against an empty cache directory
# (computes and writes), then once more (reads).
CACHED_REQUESTS = [
    ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "3"],
    ["poincare", "--p", "1", "--r", "3", "--k", "0", "--n", "2"],
    ["poincare", "--p", "3", "--r", "2", "--k", "1", "--n", "15/4"],
    ["poincare", "--p", "2", "--r", "4", "--k", "1", "--n", "11/4"],
    ["poincare", "--p", "1", "--r", "1", "--k", "0", "--n", "5"],
    ["series", "--p", "1", "--max-order", "4"],
    ["series", "--p", "2", "--max-order", "5"],
    ["series", "--p", "1", "--max-order", "3", "--method", "direct"],
    ["hilbert", "--p", "1", "--max-order", "5"],
    ["hilbert", "--p", "3", "--max-order", "4"],
    ["ale", "--r", "2", "--n", "2"],
    ["ale", "--r", "2", "--n", "3/2"],
    ["ale", "--r", "3", "--n", "1"],
    ["ale", "--r", "1", "--n", "2"],
    ["check", "--p", "2", "--r", "2", "--k", "1", "--n", "1/2"],
    ["check", "--p", "1", "--r", "3", "--k", "1", "--n", "1/2"],
    ["check", "--p", "3", "--r", "4", "--k", "2", "--n", "7/2"],
    ["check", "--p", "1", "--r", "2", "--k", "0", "--n", "-1"],
    ["sweep", "--mode", "crosscheck", "--p", "2", "--r", "2", "--k", "0", "--n", "1,2"],
    ["sweep", "--mode", "crosscheck", "--p", "1,2", "--r", "1..2", "--k", "0", "--n", "0..2"],
]
UNCACHED_REQUESTS = [
    ["tangent", "--p", "2", "--r", "2", "--k", "0", "--n", "2", "--reduced"],
    ["fixed-points", "--p", "1", "--r", "2", "--k", "1", "--n", "9/4"],
]
# Computed and written once, then read back after the entry is cut in half.
TRUNCATED_REQUEST = ["poincare", "--p", "1", "--r", "2", "--k", "0", "--n", "2"]


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def expected_result(argv: list[str]):
    """The library's answer to a command line, as its JSON result."""
    from hirzebruch.ale import ale_poincare
    from hirzebruch.counting import (
        check_nonempty,
        enumerate_fixed_points,
        enumerate_reduced_fixed_points,
        hilbert_series_r1,
        poincare_polynomial,
        rank2_series_closed,
        rank2_series_direct,
    )
    from hirzebruch.laurent import main_ordering
    from hirzebruch.localization import ModuliParams, reduced_tangent_character

    sub, flags = argv[0], _flags([a for a in argv if a != "--reduced"])

    def params(p=None, r=None, k=None, n=None):
        return ModuliParams(
            p if p is not None else int(flags["p"]),
            r if r is not None else int(flags["r"]),
            k if k is not None else int(flags["k"]),
            n if n is not None else F(flags["n"]),
        )

    def expand(text: str, convert) -> list:
        out = []
        for token in text.split(","):
            if ".." in token:
                lo, hi = token.split("..")
                out += [convert(x) for x in range(int(lo), int(hi) + 1)]
            else:
                out.append(convert(token))
        return out

    if sub == "poincare":
        ps = params()
        pairs = poincare_polynomial(ps).to_pairs()
        return pairs, oracles.poincare_problems(pairs, ps.p, ps.r, ps.k, ps.n)
    if sub == "series":
        fn = rank2_series_direct if flags.get("method") == "direct" else rank2_series_closed
        return fn(int(flags["p"]), int(flags["max-order"])).to_json(), []
    if sub == "hilbert":
        order = int(flags["max-order"])
        result = hilbert_series_r1(int(flags["p"]), order).to_json()
        goettsche = oracles.goettsche_series(order)
        problems = [] if [x["poly"] for x in result] == goettsche else ["differs from Goettsche"]
        return result, problems
    if sub == "ale":
        n = F(flags["n"])
        pairs = ale_poincare(int(flags["r"]), n).to_pairs()
        problems = []
        if n.denominator == 1 and pairs != poincare_polynomial(params(2, None, 0, n)).to_pairs():
            problems.append("differs from the surface polynomial at p=2, k=0")
        return pairs, problems
    if sub == "check":
        ps = params()
        nonempty = check_nonempty(ps)
        problems = []
        if nonempty != bool(oracles.k_strings(ps.p, ps.r, ps.k, ps.n)):
            problems.append("nonemptiness differs from the k-string search")
        return {"nonempty": nonempty}, problems
    if sub == "sweep":
        rows = []
        for p in expand(flags["p"], int):
            for r in expand(flags["r"], int):
                for k in expand(flags["k"], int):
                    for n in expand(flags["n"], F):
                        pairs = poincare_polynomial(params(p, r, k, n)).to_pairs()
                        row = {"p": p, "r": r, "k": k, "n": str(n), "poincare": pairs}
                        if p == 2 and k % r == 0:
                            row["ale"] = ale_poincare(r, n).to_pairs()
                            row["match"] = row["ale"] == pairs
                        else:
                            row["ale"], row["match"] = None, "n/a"
                        rows.append(row)
        problems = [f"sweep row {row} does not match" for row in rows if row["match"] is False]
        return rows, problems
    if sub == "tangent":
        ps = params()
        ordering = main_ordering(ps.r)
        records = []
        for rfp in enumerate_reduced_fixed_points(ps):
            x = reduced_tangent_character(ps, rfp)
            records.append(
                {
                    "fixed_point": rfp.to_json(),
                    "character": x.to_json(),
                    "dimension": x.dimension(),
                    "index": x.negative_count(ordering),
                }
            )
        return records, []
    if sub == "fixed-points":
        return [fp.to_json() for fp in enumerate_fixed_points(params())], []
    raise ValueError(f"no expected result for {argv}")


class Cli(Workload):
    """One client in a closed loop, one `hirzebruch` process per request.

    With `in_process` set, each request is a call of `cli.main` in this
    process instead, for the counted, traced and memory passes.
    """

    clock = staticmethod(time.perf_counter_ns)
    min_passes = 2  # a pass takes 7-11 s
    child_count_share = 0.0  # a request may depend on the ones before it

    def __init__(self, seed: int, root: Path, tmp_dir: Path, env: dict):
        super().__init__(seed)
        self.root, self.tmp_dir, self.env = root, tmp_dir, env
        self.in_process = False
        self.passes = 0
        self.expected = {}
        self.setup_problems_found = []
        for argv in CACHED_REQUESTS + UNCACHED_REQUESTS + [TRUNCATED_REQUEST]:
            result, problems = expected_result(argv)
            self.expected[" ".join(argv)] = json.loads(json.dumps(result))
            self.setup_problems_found += [f"{' '.join(argv)}: {p}" for p in problems]
        self.first_output: dict[str, bytes] = {}

    def setup_problems(self) -> list[str]:
        return self.setup_problems_found

    def _request(self, argv: list[str]):
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "hirzebruch", *argv],
                env=self.env,
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            return proc.returncode, proc.stdout, proc.stderr
        # no standard-library frames around cli.main, so that a counted pass
        # counts the program's bytecodes only (once the first pass imported it)
        cli = sys.modules.get("hirzebruch.cli") or importlib.import_module("hirzebruch.cli")
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = cli.main(argv)
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue().encode(), err.getvalue().encode()

    def pass_steps(self, shuffle: bool = True) -> list:
        self.passes += 1
        base = self.tmp_dir / f"pass{self.passes}"
        shutil.rmtree(base, ignore_errors=True)
        cache, lone = base / "cache", base / "truncated"
        self.first_output = {}

        def op(argv, kind, cache_dir):
            full = argv + ["--format", "json"]
            if cache_dir is not None:
                full += ["--cache-dir", str(cache_dir)]
            return Op(f"{kind} {' '.join(argv)}", lambda: self._request(full), kind)

        first = [op(a, "cold", cache) for a in CACHED_REQUESTS]
        first += [op(a, "uncached", None) for a in UNCACHED_REQUESTS]
        first.append(op(TRUNCATED_REQUEST, "cold", lone))
        second = [op(a, "hit", cache) for a in CACHED_REQUESTS]
        second.append(op(TRUNCATED_REQUEST, "truncated", lone))
        if shuffle:
            self.rng.shuffle(first)
            self.rng.shuffle(second)
        return first + [lambda: self._truncate(lone)] + second

    @staticmethod
    def _truncate(cache_dir: Path) -> None:
        for entry in cache_dir.glob("*.json"):
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 2])

    def failed(self, result) -> bool:
        return result[0] != 0

    def check(self, op: Op, result) -> list[str]:
        code, stdout, stderr = result
        request = op.name.split(" ", 1)[1]
        try:
            answer = json.loads(stdout)["result"]
        except (ValueError, KeyError, TypeError):
            return [f"{op.name}: unreadable output {stdout[:200]!r}"]
        problems = []
        if answer != self.expected[request]:
            problems.append(f"{op.name}: differs from the library's answer")
        if op.kind in ("hit", "truncated") and stdout != self.first_output.get(request):
            problems.append(f"{op.name}: cache hit is not byte-identical to its miss")
        self.first_output.setdefault(request, stdout)
        return problems

    def close(self) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


WORKLOADS = {"poincare-grid": PoincareGrid, "characters": Characters, "cli": Cli}
