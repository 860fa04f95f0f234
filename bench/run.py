"""Benchmark of the hirzebruch library and command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Details (interpreter, per-operation times, spans) go to .bench_out/.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

START = time.perf_counter()  # --seconds counts from here
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3  # fresh processes per run for setup_s and cold_p50_ms
TRACED_PASSES = 3  # passes with spans installed, in a --trace 1 run
END_SECONDS = 0.5  # after the last timed pass: clean-up and the details file
TAIL_BEYOND = 10  # samples beyond the tail percentile
REFERENCE_SHARE = 0.15  # reference time, as a share of the operations' time
REFERENCE_EVERY_NS = 50_000_000  # operations' time between two runs of the reference
REFERENCE_SPAN = 5  # reference runs on each side that a scale is taken over
REFERENCE_NS = 800_000  # one reference chunk's CPU time where the benchmark was written
CHILD_REFERENCE_NS = 70_000_000  # wall time of `python -c pass` there
CHILD_REFERENCE_EVERY_NS = 400_000_000
CHILD_START_CPU_NS = 60_000_000  # CPU time of `python -c pass` there


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """The highest value with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 1 - TAIL_BEYOND, 0)] if ordered else 0.0


class Pass:
    """Per-operation times and failures of one pass over a workload."""

    def __init__(self):
        self.ns: dict[str, float] = {}  # normalized, when a reference ran
        self.raw_ns: dict[str, int] = {}  # as the clock read
        self.ops: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised: failed, not wrong
        self.problems: list[str] = []  # answers that disagree with a check

    @property
    def seconds(self) -> float:
        return sum(self.ns.values()) / 1e9

    @property
    def raw_seconds(self) -> float:
        return sum(self.raw_ns.values()) / 1e9


def reference_chunk() -> dict:
    """Fixed work of the kind the program does: tuple keys, dicts, integers."""
    table: dict = {}
    for i in range(2000):
        key = (i % 37, i % 11, (i % 5, i % 3))
        table[key] = table.get(key, 0) + i
    return table


class Reference:
    """How fast the machine runs `reference_chunk` right now.

    The machine's speed drifts by a quarter over seconds and minutes (see
    README.md).  After every REFERENCE_EVERY_NS of timed operations the
    reference runs for REFERENCE_SHARE of that time, and those operations'
    times are scaled by REFERENCE_NS / (time per chunk): a slower machine
    slows both alike.  The time per chunk is taken over the REFERENCE_SPAN
    runs of the reference before and after too: one run is as short as an
    operation and as noisy, while the drift it should follow is slower.
    """

    def __init__(self, clock, chunk=reference_chunk, chunk_ns=REFERENCE_NS,
                 every_ns=REFERENCE_EVERY_NS, share=REFERENCE_SHARE):
        self.clock, self.chunk, self.chunk_ns, self.every_ns = clock, chunk, chunk_ns, every_ns
        self.share = share

    def run(self, busy_ns: float) -> tuple[int, int]:
        """Chunks run, and their time, for `share` of `busy_ns`."""
        chunks = 0
        start = self.clock()
        while True:
            self.chunk()
            chunks += 1
            elapsed = self.clock() - start
            if elapsed >= self.share * busy_ns:
                return chunks, elapsed

    def scale(self, busy_ns: float) -> float:
        chunks, elapsed = self.run(busy_ns)
        return self.chunk_ns * chunks / elapsed

    def scales(self, runs: list[tuple[int, int]]) -> list[float]:
        """The scale for each of a pass's reference runs, with its neighbours."""
        out = []
        for i in range(len(runs)):
            near = runs[max(i - REFERENCE_SPAN, 0) : i + REFERENCE_SPAN + 1]
            out.append(self.chunk_ns * sum(c for c, _ in near) / sum(e for _, e in near))
        return out


def run_pass(workload, steps=None, reference: Reference | None = None, counter=None) -> Pass:
    """One pass; with a reference, `ns` holds normalized times.

    A `counter` (a `tracer.BytecodeCounter`) runs during the operations
    only, not during the checks of their answers.
    """
    record = Pass()
    clock = workload.clock
    pending: list[str] = []  # operations timed since the reference last ran
    windows: list[list[str]] = []  # the operations before each reference run
    runs: list[tuple[int, int]] = []

    def run_reference() -> None:
        runs.append(reference.run(sum(record.raw_ns[name] for name in pending)))
        windows.append(list(pending))
        pending.clear()

    for step in workload.pass_steps() if steps is None else steps:
        if not hasattr(step, "call"):
            step()  # an untimed action between operations
            continue
        record.attempted += 1
        record.ops[step.name] = step
        if counter is not None:
            counter.start()
        start = clock()
        try:
            result = step.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, exc
        else:
            error = None
        end = clock()
        if counter is not None:
            counter.stop()
        record.raw_ns[step.name] = record.ns[step.name] = end - start
        if reference is not None:
            pending.append(step.name)
            if sum(record.raw_ns[name] for name in pending) >= reference.every_ns:
                run_reference()
        if error is not None:
            record.failed += 1
            record.errors.append(f"{step.name}: raised {error!r}")
        elif workload.failed(result):
            record.failed += 1
        else:
            record.problems += workload.check(step, result)
    if pending:
        run_reference()
    if reference is not None:
        for names, scale in zip(windows, reference.scales(runs)):
            for name in names:
                record.ns[name] = record.raw_ns[name] * scale
    return record


def op_medians(passes: list[Pass], select, per_point: bool = False) -> list[float]:
    """Each selected operation's median time over passes, in nanoseconds."""
    out = []
    for name, op in passes[0].ops.items():
        if select(op):
            value = median([p.ns[name] for p in passes])
            out.append(value / op.points if per_point else value)
    return out


def samples(passes: list[Pass], select, per_point: bool = False) -> list[float]:
    """Every time of every selected operation in every pass, in nanoseconds.

    A median over these is steadier than a median of per-operation medians:
    a single operation's time varies by a fifth from pass to pass here, and
    the pooled median draws on its neighbours too.
    """
    return [
        p.ns[name] / (op.points if per_point else 1)
        for name, op in passes[0].ops.items()
        if select(op)
        for p in passes
    ]


def timed_passes(
    workload, deadline: float, least: int | None = None, between=None, reference=None,
    reserve=lambda: 0.0,
) -> list[Pass]:
    """At least `least` whole passes, then more while one fits before `deadline`.

    `deadline` is a `time.perf_counter()` reading.  `between` runs after
    each pass, outside the passes' time; `reserve()` is the time that must
    be left after the last pass.
    """
    least = workload.min_passes if least is None else least
    passes = []
    longest = 0.0
    while len(passes) < least or time.perf_counter() + longest + reserve() < deadline:
        start = time.perf_counter()
        passes.append(run_pass(workload, reference=reference))
        if between is not None:
            between()
        longest = max(longest, time.perf_counter() - start)
    return passes


def make_workload(name: str, seed: int):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, ROOT, OUT / f"tmp-{os.getpid()}", child_env(seed))
    return cls(seed)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def start_chunk(seed: int):
    """A reference chunk for process times: one `python -c pass`."""
    argv = [sys.executable, "-c", "pass"]
    return lambda: subprocess.run(argv, env=child_env(seed), cwd=ROOT, check=True)


def run_child(argv: list[str], seed: int) -> tuple[float, str]:
    """CPU seconds and standard output of one child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        argv, env=child_env(seed), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}")
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return cpu, proc.stdout


def cache_clearers() -> list:
    """`cache_clear` of every lru-cached function of the hirzebruch modules."""
    return [
        obj.cache_clear
        for module_name, module in list(sys.modules.items())
        if module_name == "hirzebruch" or module_name.startswith("hirzebruch.")
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def probe(name: str, seed: int) -> None:
    """Child mode: set up, then time a pass over the point operations, each
    with cold caches."""
    workload = make_workload(name, seed)
    setup_ns = time.process_time_ns()  # interpreter start, import and inputs
    setup_ns *= Reference(time.process_time_ns, share=1.0).scale(setup_ns)
    clearers = cache_clearers()

    def clear_caches() -> None:
        for clear in clearers:
            clear()

    steps = []
    for op in workload.pass_steps():
        if op.kind == "point":
            steps += [clear_caches, op]  # an untimed action, then the operation
    record = run_pass(workload, steps, Reference(workload.clock))
    report = {
        "setup_s": setup_ns / 1e9,
        "cold_ns": sum(record.ns.values()),
        "problems": record.problems + workload.setup_problems(),
    }
    print(json.dumps(report))


class Probes:
    """Fresh processes for setup_s (and cold_p50_ms), spread over the run."""

    def __init__(self, name: str, seed: int, in_process: bool):
        self.seed = seed
        self.setups: list[float] = []
        self.colds: list[float] = []
        self.problems: list[str] = []
        if in_process:
            self.argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                         "--seed", str(seed), "--probe"]
        else:
            self.argv = [sys.executable, "-m", "hirzebruch", "--version"]
        self.in_process = in_process
        self.longest = 0.0  # wall seconds of the slowest probe so far

    def reserve(self) -> float:
        """Wall seconds that the probes still to run will take, about."""
        return max(SETUP_PROBES - len(self.setups) - 1, 0) * self.longest

    def run_one(self) -> None:
        if len(self.setups) >= SETUP_PROBES:
            return
        start = time.perf_counter()
        cpu, out = run_child(self.argv, self.seed)
        self.longest = max(self.longest, time.perf_counter() - start)
        if not self.in_process:
            # scaled by the CPU time of as long a run of bare interpreter starts
            starts = Reference(children_cpu_ns, start_chunk(self.seed), CHILD_START_CPU_NS, share=1.0)
            self.setups.append(cpu * starts.scale(cpu * 1e9))
            return
        report = json.loads(out.splitlines()[-1])
        self.setups.append(report["setup_s"])
        self.colds.append(report["cold_ns"])
        self.problems += report["problems"]

    def finish(self) -> None:
        while len(self.setups) < SETUP_PROBES:
            self.run_one()


def counted_pass(workload, child_ops: int = 0, child: bool = False) -> tuple[dict[str, int], Pass]:
    """Bytecodes of one pass per source file, the benchmark's own excluded.

    The pass may be shared with the memory child: it counts the last
    `child_ops` steps (`child`), this process the others.  With warm caches
    an operation's count does not depend on what ran before it, so the two
    parts add up to the count of a whole pass.
    """
    from tracer import BytecodeCounter

    counter = BytecodeCounter()
    steps = workload.pass_steps(shuffle=False)  # the same order whatever the seed
    cut = len(steps) - child_ops
    record = run_pass(workload, steps[cut:] if child else steps[:cut], counter=counter)
    per_file = counter.per_file
    return {f: n for f, n in per_file.items() if not f.startswith(str(BENCH))}, record


def memory_pass(workload) -> tuple[float, Pass]:
    steps = workload.pass_steps(shuffle=False)  # the same order whatever the seed
    gc.collect()  # the same collector state whatever ran before
    tracemalloc.start()
    try:
        record = run_pass(workload, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, record


def child_count_ops(workload, first: Pass) -> int:
    """How many of the last operations the memory child counts.

    They are worth `child_count_share` of the first pass's time, which is
    about what makes the child end when this process ends its part.
    """
    target = workload.child_count_share * sum(first.raw_ns.values())
    taken = count = 0
    for op in reversed(workload.ops):
        if taken >= target:
            break
        taken += first.raw_ns[op.name]
        count += 1
    return count


def memory_child(name: str, seed: int, child_ops: int) -> None:
    """Child mode: one pass to warm the caches, one under tracemalloc, then
    the counted pass over the last `child_ops` steps."""
    workload = make_workload(name, seed)
    workload.in_process = True  # cli: cli.main in this process
    try:
        warm = run_pass(workload)
        peak_mb, record = memory_pass(workload)
        per_file, counted = counted_pass(workload, child_ops, child=True)
    finally:
        workload.close()
    passes = (warm, record, counted)
    report = {
        "peak_mb": peak_mb,
        "bytecodes_per_file": per_file,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [problem for p in passes for problem in p.problems],
    }
    print(json.dumps(report))


def end_to_end(name: str, workload, seed: int, deadline: float):
    """The fixed phases first, then timed passes until `deadline`."""
    marks = [("start", time.perf_counter())]
    probes = Probes(name, seed, workload.in_process)
    probes.run_one()
    passes = []
    # The library workloads' first pass warms the caches and runs every
    # oracle; `cli` warms the library's caches in this process for the
    # counted pass, which calls cli.main here.
    in_process = workload.in_process
    workload.in_process = True
    passes.append(run_pass(workload))
    marks.append(("first pass", time.perf_counter()))
    # The tracemalloc pass runs in a child beside the counted pass, and the
    # child counts a share of that pass too: none of it is timed, and each
    # is several times slower than a plain pass.
    child_ops = child_count_ops(workload, passes[0])
    memory = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--memory-child", str(child_ops)],
        env=child_env(seed), cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        per_file, counted = counted_pass(workload, child_ops)
    finally:
        out = memory.communicate()[0]
    workload.in_process = in_process
    marks.append(("counted and memory passes", time.perf_counter()))
    if memory.returncode != 0:
        raise RuntimeError(f"the tracemalloc pass exited with {memory.returncode}")
    report = json.loads(out.splitlines()[-1])
    record = Pass()
    record.attempted, record.failed = report["attempted"], report["failed"]
    record.problems = report["problems"]
    peak_mb = report["peak_mb"]
    for source, count in report["bytecodes_per_file"].items():
        per_file[source] = per_file.get(source, 0) + count
    passes += [record, counted]

    if workload.in_process:
        reference = Reference(workload.clock)
    else:
        # a request is mostly a process start: the reference is one too
        reference = Reference(
            workload.clock,
            start_chunk(seed),
            CHILD_REFERENCE_NS,
            CHILD_REFERENCE_EVERY_NS,
        )
    timed = timed_passes(
        workload, deadline, between=probes.run_one, reference=reference, reserve=probes.reserve
    )
    marks.append(("timed passes", time.perf_counter()))
    probes.finish()
    marks.append(("probes", time.perf_counter()))
    passes += timed
    setup_s = median(probes.setups)
    if workload.in_process:
        cold_ms = median(probes.colds) / 1e6
        hit_ms = median(samples(timed, lambda op: op.kind == "point")) / 1e6
        points, per_point = (lambda op: op.kind == "point"), True  # per fixed point
    else:
        cold_ms = median(samples(timed, lambda op: op.kind == "cold")) / 1e6
        hit_ms = median(samples(timed, lambda op: op.kind == "hit")) / 1e6
        points, per_point = (lambda op: True), False  # per request
    point_p50 = median(samples(timed, points, per_point))
    point_tail = tail(op_medians(timed, points, per_point))
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_s": (sum(op_medians(timed, lambda op: True)) / 1e9, "s"),
        "bytecodes": (sum(per_file.values()), "count"),
        "peak_alloc_mb": (peak_mb, "MB"),
        "point_p50_us": (point_p50 / 1e3, "us"),
        "point_tail_us": (point_tail / 1e3, "us"),
        "cold_p50_ms": (cold_ms, "ms"),
        "hit_p50_ms": (hit_ms, "ms"),
    }
    details = {
        "phase_seconds": {b[0]: b[1] - a[1] for a, b in zip(marks, marks[1:])},
        "timed_passes": len(timed),
        "pass_seconds": [p.seconds for p in timed],
        "raw_pass_seconds": [p.raw_seconds for p in timed],
        "op_ns": {name: [p.ns[name] for p in timed] for name in timed[0].ops},
        "raw_op_ns": {name: [p.raw_ns[name] for p in timed] for name in timed[0].ops},
        "bytecodes_per_file": per_file,
    }
    return metrics, passes, probes.problems, details


def per_layer(name: str, workload, seed: int, deadline: float):
    """The traced and counted passes first, then untraced ones until `deadline`."""
    from tracer import LAYERS, Spans

    import fractions

    import_ms = 0.0
    if not workload.in_process:
        code = "import time; t = time.perf_counter(); import hirzebruch.cli; print(time.perf_counter() - t)"
        probes = [run_child([sys.executable, "-c", code], seed)[1] for _ in range(SETUP_PROBES)]
        import_ms = median([1000 * float(out) for out in probes])
        workload.in_process = True  # spans see only this process
    passes = [run_pass(workload)]
    spans = Spans()
    spans.install()
    traced, self_s = [], {layer: [] for layer in LAYERS}
    try:
        for _ in range(TRACED_PASSES):
            spans.reset()
            traced.append(run_pass(workload))
            for layer in LAYERS:
                self_s[layer].append(spans.self_ns[layer] / 1e9)
    finally:
        spans.uninstall()
    per_file, counted = counted_pass(workload)
    untraced = timed_passes(workload, deadline, TRACED_PASSES)
    passes += untraced + traced + [counted]

    counters = spans.counters
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median(self_s[layer]), "s")
        source = str(SRC / "hirzebruch" / f"{layer}.py")
        metrics[f"{layer}.bytecodes"] = (per_file.get(source, 0), "count")

    def count(name: str) -> tuple[int, str]:
        return counters.get(name, 0), "count"

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    characters = counters.get("localization.characters", 0)
    character_ns = sum(
        spans.total_ns.get(f"localization.{fn}", 0)
        for fn in ("tangent_character", "reduced_tangent_character")
    )
    points = counters.get("counting.points", 0)
    cache = spans.cache
    metrics.update(
        {
            "partitions.diagrams": count("partitions.diagrams"),
            "laurent.character_inits": count("laurent.character_inits"),
            "laurent.tpoly_inits": count("laurent.tpoly_inits"),
            "laurent.qseries_inits": count("laurent.qseries_inits"),
            "localization.characters": count("localization.characters"),
            "localization.us_per_character": (ratio(character_ns / 1e3, characters), "us"),
            "counting.points": count("counting.points"),
            "counting.us_per_point": (ratio(1e6 * self_s["counting"][-1], points), "us"),
            "ale.candidates": count("ale.candidates"),
            "ale.points": count("ale.points"),
            "ale.accept_ratio": (
                ratio(counters.get("ale.points", 0), counters.get("ale.candidates", 0)),
                "ratio",
            ),
            "cli.import_ms": (import_ms, "ms"),
            "cli.cache_hits": count("cli.cache_hits"),
            "cli.cache_misses": count("cli.cache_misses"),
            "cli.cache_get_ms": (ratio(sum(cache["get"]) / 1e6, len(cache["get"])), "ms"),
            "cli.cache_put_ms": (ratio(sum(cache["put"]) / 1e6, len(cache["put"])), "ms"),
            "fractions.bytecodes": (per_file.get(fractions.__file__, 0), "count"),
            "trace_overhead_s": (
                median([p.seconds for p in traced]) - median([p.seconds for p in untraced]),
                "s",
            ),
        }
    )
    details = {
        "span_calls": dict(spans.calls),
        "span_total_ns": dict(spans.total_ns),
        "bytecodes_per_file": per_file,
    }
    return metrics, passes, [], details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("poincare-grid", "characters", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="length of the whole run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory-child", type=int, metavar="CHILD_OPS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not (args.probe or args.memory_child is not None):
        parser.error("--seconds is required")

    if not (SRC / "hirzebruch" / "__init__.py").is_file():
        print(f"bench: no hirzebruch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HIRZEBRUCH_CACHE_DIR", None)  # every cache stays in .bench_out
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.memory_child is not None:
        memory_child(args.workload, args.seed, args.memory_child)
        return 0

    deadline = START + args.seconds - END_SECONDS
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, passes, problems, details = measure(args.workload, workload, args.seed, deadline)
    finally:
        workload.close()
    problems = workload.setup_problems() + problems
    for record in passes:
        problems += record.problems
    errors = [e for record in passes for e in record.errors]
    for line in (problems + errors)[:20]:
        print(f"bench: {line}", file=sys.stderr)
    details.update(
        {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "child_pythonhashseed": args.seed % 2**32,
            "problems": problems,
            "errors": errors,
        }
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str))
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
