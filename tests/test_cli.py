import argparse
import ast
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import hirzebruch
import hirzebruch.ale
import hirzebruch.counting
from hirzebruch import __version__
from hirzebruch.cli import (
    CACHE_ENV_VAR,
    COMMANDS,
    MAX_CELLS,
    MAX_ORDER,
    MAX_RANK,
    MAX_TANGENT_TERMS,
    _RATIONAL,
    _common,
    _indented,
    _rational,
    _top_parser,
    main,
)
from hirzebruch.laurent import QSeries
from hirzebruch.localization import InvariantError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poincare_text(capsys):
    code, out, err = run(
        capsys, "poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1"
    )
    assert code == 0
    assert out == "1 + 2*t^2 + t^4\n"
    assert err == ""


def test_poincare_json_envelope(capsys):
    code, out, _ = run(
        capsys,
        "poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2", "--format", "json",
    )
    assert code == 0
    envelope = json.loads(out)
    assert set(envelope) == {"request", "result", "version"}
    assert envelope["version"] == __version__
    assert envelope["request"] == {
        "subcommand": "poincare", "p": 2, "r": 2, "k": 0, "n": "2",
    }
    assert envelope["result"] == [[0, 1], [2, 2], [4, 5], [6, 5], [8, 3]]


def test_output_is_byte_deterministic(capsys):
    args = ("poincare", "--p", "1", "--r", "2", "--k", "0", "--n", "2",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_text_and_fractional_input(capsys):
    code, out, _ = run(capsys, "check", "--p", "2", "--r", "2", "--k", "1", "--n", "1/2")
    assert code == 0
    assert out == '{"nonempty": true}\n'
    code, out, _ = run(capsys, "check", "--p", "2", "--r", "2", "--k", "1", "--n", "1")
    assert code == 0
    assert out == '{"nonempty": false}\n'


def test_malformed_arguments_exit_2(capsys):
    for argv in (
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1.5"],
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1/0"],
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "3/00"],
        ["poincare", "--p", "2", "--r", "2", "--k", "0"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


# --n is parsed to the text of its Fraction, so that parsing loads no fractions
@settings(max_examples=300, deadline=None)
@given(st.from_regex(_RATIONAL))
@example("+007")
@example("-0")
@example("0/5")
@example("-0/7")
@example("-6/4")
@example("10/5")
@example("+0012/18")
@example("3/06")
@example("-4/010")
def test_rational_option_is_the_text_of_its_fraction(text):
    assert _rational(text) == str(Fraction(text))


def test_invalid_values_exit_2(capsys):
    # parses fine but fails domain validation
    code, _, err = run(capsys, "poincare", "--p", "0", "--r", "1", "--k", "0", "--n", "1")
    assert code == 2
    assert "error" in err


def test_fixed_points_text_frozen(capsys):
    code, out, _ = run(
        capsys, "fixed-points", "--p", "2", "--r", "2", "--k", "0", "--n", "1"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert [json.loads(line) for line in lines] == [
        {"k": [0, 0], "Y1": [[], []], "Y2": [[], [1]]},
        {"k": [0, 0], "Y1": [[], []], "Y2": [[1], []]},
        {"k": [0, 0], "Y1": [[], [1]], "Y2": [[], []]},
        {"k": [0, 0], "Y1": [[1], []], "Y2": [[], []]},
    ]


def test_fixed_points_reduced(capsys):
    code, out, _ = run(
        capsys, "fixed-points", "--p", "2", "--r", "2", "--k", "0", "--n", "1",
        "--reduced",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert records == [
        {"k": [0, 0], "Y": [[], [1]], "index": 1, "factor": [[0, 1], [2, 1]]},
        {"k": [0, 0], "Y": [[1], []], "index": 0, "factor": [[0, 1], [2, 1]]},
    ]


def test_empty_space_lists_nothing(capsys):
    code, out, _ = run(
        capsys, "fixed-points", "--p", "2", "--r", "2", "--k", "1", "--n", "1"
    )
    assert code == 0
    assert out == "\n"


def test_tangent_records(capsys):
    code, out, _ = run(
        capsys, "tangent", "--p", "2", "--r", "1", "--k", "0", "--n", "1"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 2
    for record in records:
        assert set(record) == {"fixed_point", "character", "dimension"}
        assert record["dimension"] == 2
        assert sum(term["coeff"] for term in record["character"]) == 2


def test_tangent_reduced_includes_index(capsys):
    code, out, _ = run(
        capsys, "tangent", "--p", "2", "--r", "2", "--k", "0", "--n", "1", "--reduced"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert [record["index"] for record in records] == [1, 0]
    assert all(record["dimension"] == 4 for record in records)


@pytest.mark.parametrize(
    "p, r, k, n, loci", [(2, 2, 0, "2", 7), (1, 3, 0, "2", 27), (3, 2, 1, "7/4", 4)]
)
def test_reduced_listings_agree_on_loci_and_indexes(capsys, p, r, k, n, loci):
    # the index counted from the reduced character and the closed one
    def rows(subcommand):
        code, out, _ = run(
            capsys, subcommand, "--p", str(p), "--r", str(r), "--k", str(k), "--n", n,
            "--reduced", "--format", "json",
        )
        assert code == 0
        return json.loads(out)["result"]

    tangent = [(row["fixed_point"], row["index"]) for row in rows("tangent")]
    listed = [({"k": row["k"], "Y": row["Y"]}, row["index"]) for row in rows("fixed-points")]
    assert len(listed) == loci and tangent == listed


def test_tangent_reduced_computes_no_closed_index_or_factor(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("tangent --reduced computed an index or factor it drops")

    for name in ("morse_index_closed", "_pair_terms", "_slot_term", "_factor_terms"):
        monkeypatch.setattr(hirzebruch.counting, name, refuse)
    code, out, _ = run(
        capsys, "tangent", "--p", "1", "--r", "3", "--k", "0", "--n", "2", "--reduced"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 27


def test_tangent_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    records = [{"k": [0], "Y1": [[1]], "Y2": [[]]}]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(records))
    code, out, _ = run(
        capsys, "tangent", "--p", "2", "--r", "1", "--k", "0", "--n", "1",
        "--fixed-points", str(path),
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 2

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(records)))
    code, piped, _ = run(
        capsys, "tangent", "--p", "2", "--r", "1", "--k", "0", "--n", "1",
        "--fixed-points", "-",
    )
    assert code == 0
    assert piped == out


def test_inconsistent_fixed_point_record_exits_3(capsys, tmp_path):
    # box count contradicts n, so the dimension invariant must trip
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"k": [0], "Y1": [[1, 1]], "Y2": [[]]}]))
    code, _, err = run(
        capsys, "tangent", "--p", "2", "--r", "1", "--k", "0", "--n", "1",
        "--fixed-points", str(path),
    )
    assert code == 3
    assert "invariant violation" in err


@pytest.mark.parametrize(
    "reduced, record",
    [
        (False, {"k": [0], "Y1": [[10**30]], "Y2": [[]]}),
        (True, {"k": [0], "Y": [[10**30]]}),
        # the rest of the record is malformed too: the long row is still refused first
        (False, {"k": [0], "Y1": [[10**30]], "Y2": 0}),
        (False, {"k": [0], "Y1": [[10**30], 7], "Y2": [[]]}),
        (True, {"k": [0, 0], "Y": [[10**30], 0]}),
        (False, {"k": [0], "Y1": [[1, 10**30]], "Y2": [[]]}),
    ],
    ids=["full", "reduced", "full-bad-Y2", "full-bad-row", "reduced-bad-rows", "full-increasing"],
)
def test_oversized_fixed_point_record_exits_3_before_building_a_diagram(
    capsys, monkeypatch, reduced, record
):
    # a diagram's conjugate has an entry per box of its longest row, so the record
    # must be refused before its diagrams are built: a row of 10^30 would raise
    # OverflowError, and one of 10^12 MemoryError
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([record])))
    started = time.monotonic()
    code, out, err = run(
        capsys, "tangent", "--p", "1", "--r", "1", "--k", "0", "--n", "1",
        *["--reduced"] * reduced, "--fixed-points", "-",
    )
    assert time.monotonic() - started < 1
    assert (code, out) == (3, "")
    assert err.startswith("invariant violation: box-count constraint violated")


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("n", ["-1", "-1/2"])
def test_empty_diagrams_at_a_negative_n_exit_3(capsys, monkeypatch, n, reduced):
    # a record with no row has no row to refuse, so it reaches the box count
    record = {"k": [0], "Y": [[]]} if reduced else {"k": [0], "Y1": [[]], "Y2": [[]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([record])))
    code, out, err = run(
        capsys, "tangent", "--p", "1", "--r", "1", "--k", "0", f"--n={n}",
        *["--reduced"] * reduced, "--fixed-points", "-",
    )
    assert (code, out) == (3, "")
    assert err == (
        f"invariant violation: box-count constraint violated: counted 0, expected {n}\n"
    )


@pytest.mark.parametrize(
    "n, row",
    [(str(10**30), 10**30), (str(10**12), 10**12), (f"{MAX_TANGENT_TERMS + 1}/2", 1),
     ("200000/3", 1)],
    ids=["overflow", "memory", "limit-plus-one", "non-integral"],
)
def test_tangent_above_the_term_limit_exits_2_before_reading_a_record(
    capsys, monkeypatch, n, row
):
    # a record consistent with a huge --n passes the row guard: a row of 10^30
    # boxes raised OverflowError, and one of 10^12 MemoryError
    stdin = io.StringIO(json.dumps([{"k": [0], "Y1": [[row]], "Y2": [[]]}]))
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(
        capsys, "tangent", "--p", "1", "--r", "1", "--k", "0", "--n", n, "--fixed-points", "-",
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: a tangent character here has 2rn = {2 * Fraction(n)} terms,"
        f" more than {MAX_TANGENT_TERMS}\n"
    )
    assert stdin.tell() == 0


def test_tangent_at_the_term_limit_reads_its_records(capsys, monkeypatch):
    # the record's single box contradicts n, which only reading it shows
    monkeypatch.setattr(sys, "stdin", io.StringIO('[{"k": [0], "Y1": [[1]], "Y2": [[]]}]'))
    code, out, err = run(
        capsys, "tangent", "--p", "1", "--r", "1", "--k", "0", "--n",
        str(MAX_TANGENT_TERMS // 2), "--fixed-points", "-",
    )
    assert (code, out) == (3, "")
    assert err.startswith("invariant violation: box-count constraint violated")


def _hirzebruch(*argv, stdin="", stdout=subprocess.PIPE):
    """Run the command line in a fresh interpreter on this checkout's package."""
    env = dict(os.environ)
    env.pop(CACHE_ENV_VAR, None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hirzebruch.__file__))
    return subprocess.run(
        [sys.executable, *argv], input=stdin, stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "records",
    [
        '[{"k": [0, 0], "Y1": [[], [1]]}]',
        "[5]",
        '[{"k": 5, "Y": []}]',
        "5",
        # non-integer numbers were truncated by int() and answered with exit 0
        '[{"k": [0.9, -0.9], "Y1": [[], [1.7]], "Y2": [[], []]}]',
        '[{"k": "00", "Y": [[], [1]]}]',
        '[{"k": [0, 0], "Y1": [[], [true]], "Y2": [[], []], "Y": [[], [true]]}]',
        # a missing key is reported before any row is read, however long
        '[{"k": [0, 0], "Y1": [[], [1000000000000000000000000000000]]}]',
    ],
)
def test_malformed_fixed_point_record_exits_2(records):
    for reduced in ((), ("--reduced",)):
        done = _hirzebruch(
            "-m", "hirzebruch", "tangent", "--p", "2", "--r", "2", "--k", "0",
            "--n", "1", *reduced, "--fixed-points", "-", stdin=records,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        # p=0 never ended the bracket loop; p=-1 blamed a q-exponent
        (["series", "--p", "0", "--max-order", "2"], "", "p must be a positive integer"),
        (["series", "--p", "-1", "--max-order", "2"], "", "p must be a positive integer"),
        (
            ["tangent", "--p", "2", "--r", "2", "--k", "0", "--n", "1",
             "--fixed-points", "-"],
            "[" * 100000 + "]" * 100000,
            "nested too deeply",
        ),
        # a box count of sys.maxsize or more is refused before range() overflows
        (["fixed-points", "--p", "1", "--r", "1", "--k", "0", "--n", "1" + "0" * 23], "",
         "cannot split 1" + "0" * 23 + " boxes"),
        (["ale", "--r", "1", "--n", "9" * 20], "", "cannot split 1" + "9" * 19 + "8 boxes"),
    ],
    ids=["series-p0", "series-p-1", "deep-records", "fixed-points-huge-n", "ale-huge-n"],
)
def test_hang_and_recursion_inputs_exit_2(argv, stdin, message):
    done = _hirzebruch("-m", "hirzebruch", *argv, stdin=stdin)
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_unwritable_stdout_exits_2(sink):
    # the write failed in print(); exit 1 with a traceback, and a second
    # error from the flush at shutdown
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("the system has no /dev/full")
        stdout = open("/dev/full", "w")
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "w")
    with stdout:
        done = _hirzebruch(
            "-m", "hirzebruch", "poincare", "--p", "2", "--r", "2", "--k", "0",
            "--n", "2", stdout=stdout,
        )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_cli_reads_math_names_through_the_package():
    # the package's lazy table is the one record of which submodule defines
    # each public name, so the command line imports from no submodule itself
    with open(hirzebruch.cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = [
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
    ]
    assert imported == []


def test_cli_import_loads_no_thread_pool():
    done = _hirzebruch(
        "-c", "import sys, hirzebruch.cli; print('concurrent.futures' in sys.modules)"
    )
    assert done.returncode == 0
    assert done.stdout == "False\n"


# Runs the command line as `python -m hirzebruch` does, then prints as the last
# line of stderr the sorted hirzebruch modules of the process and which of the
# WATCHED standard-library modules it loaded.  It prints with repr, not json,
# so that it loads none of the WATCHED modules itself.
WATCHED = ("dataclasses", "fractions", "hashlib", "inspect", "json", "tempfile", "typing")
_LOADED = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(repr(["
    "sorted(m for m in sys.modules if m.split('.')[0] == 'hirzebruch'),"
    f" sorted(m for m in {WATCHED!r} if m in sys.modules)]), file=sys.stderr))\n"
    "sys.argv[0] = 'hirzebruch'\n"
    "runpy.run_module('hirzebruch', run_name='__main__', alter_sys=True)\n"
)
CLI_ONLY = ["hirzebruch", "hirzebruch.cli"]


def _loaded(*argv, flags=()):
    """The hirzebruch modules and the WATCHED ones that a fresh `python flags -m
    hirzebruch argv` process loads, and its stdout."""
    done = _hirzebruch(*flags, "-c", _LOADED, *argv)
    assert done.returncode == 0, done.stderr
    ours, stdlib = ast.literal_eval(done.stderr.splitlines()[-1])
    return ours, stdlib, done.stdout


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["poincare", "--help"]])
def test_version_and_help_load_no_math_layer(argv):
    ours, stdlib, _ = _loaded(*argv)
    assert ours == CLI_ONLY
    assert "fractions" not in stdlib


@pytest.mark.parametrize(
    "argv",
    [
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2"],
        ["series", "--p", "1", "--max-order", "3"],
        ["ale", "--r", "2", "--n", "1"],
    ],
)
def test_json_cache_hit_loads_no_math_layer(tmp_path, argv):
    argv = [*argv, "--format", "json", "--cache-dir", str(tmp_path)]
    cold, _, computed = _loaded(*argv)
    hit, hit_stdlib, served = _loaded(*argv)
    assert "hirzebruch.laurent" in cold
    assert hit == CLI_ONLY
    assert served == computed
    assert "fractions" not in hit_stdlib


@pytest.mark.parametrize(
    "argv",
    [
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2"],
        ["check", "--p", "1", "--r", "3", "--k", "1", "--n", "1/2"],
        ["series", "--p", "1", "--max-order", "3"],
    ],
)
def test_cold_surface_request_loads_no_ale_oracle(argv):
    loaded, _, _ = _loaded(*argv, "--format", "json")
    assert "hirzebruch.counting" in loaded
    assert "hirzebruch.ale" not in loaded


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2"], ()),
        (["check", "--p", "1", "--r", "3", "--k", "1", "--n", "1/2"], ()),
        (["series", "--p", "1", "--max-order", "3"], ()),
        # -S: no site module, whose start-up hooks may import typing themselves
        (["ale", "--r", "2", "--n", "1"], ("-S",)),
    ],
)
def test_cold_request_loads_no_dataclasses(argv, flags):
    loaded, stdlib, _ = _loaded(*argv, "--format", "json", flags=flags)
    assert "hirzebruch.laurent" in loaded
    assert "dataclasses" not in stdlib
    assert "inspect" not in stdlib
    if "-S" in flags:
        assert "typing" not in stdlib


@pytest.mark.parametrize(
    "argv", [["--version"], ["--help"], ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "3"]]
)
def test_version_help_and_an_uncached_text_request_load_no_json(argv):
    # -S: no site module, whose .pth files may import tempfile themselves
    _, stdlib, _ = _loaded(*argv, flags=("-S",))
    assert not {"hashlib", "json", "tempfile"} & set(stdlib)


def test_missing_fixed_point_file_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "tangent", "--p", "2", "--r", "1", "--k", "0", "--n", "1",
        "--fixed-points", str(tmp_path / "absent.json"),
    )
    assert code == 2
    assert "error" in err


def test_series_methods_agree(capsys):
    args = ("--p", "1", "--max-order", "2")
    _, closed, _ = run(capsys, "series", *args, "--method", "closed")
    _, direct, _ = run(capsys, "series", *args, "--method", "direct")
    assert closed == direct
    lines = closed.strip().split("\n")
    assert lines[0] == "q^0: 1"
    assert lines[1] == "q^1: 1 + 2*t^2 + 2*t^4 + t^6"


@pytest.mark.parametrize(
    "argv, name",
    [
        (("series", "--method", "closed"), "rank2_series_closed"),
        (("series", "--method", "direct"), "rank2_series_direct"),
        (("hilbert",), "hilbert_series_r1"),
    ],
)
def test_series_dispatch_calls_only_its_own_function(capsys, tmp_path, monkeypatch, argv, name):
    # both methods print the same series, so only the calls tell them apart
    calls = []
    for fn in ("rank2_series_closed", "rank2_series_direct", "hilbert_series_r1"):
        def record(p, order, fn=fn, real=getattr(hirzebruch.counting, fn)):
            calls.append(fn)
            return real(p, order)

        monkeypatch.setattr(hirzebruch.counting, fn, record)
    args = (*argv, "--p", "1", "--max-order", "2", "--format", "json",
            "--cache-dir", str(tmp_path))
    code, computed, _ = run(capsys, *args)
    assert (code, calls) == (0, [name])
    calls.clear()
    assert run(capsys, *args) == (0, computed, "")
    assert calls == []


def test_hilbert_series_output(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--p", "2", "--max-order", "2", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result == [
        {"q": "0", "poly": [[0, 1]]},
        {"q": "1", "poly": [[0, 1], [2, 1]]},
        {"q": "2", "poly": [[0, 1], [2, 2], [4, 2]]},
    ]


def test_ale_poly_and_points(capsys):
    code, out, _ = run(capsys, "ale", "--r", "2", "--n", "1")
    assert code == 0
    assert out == "1 + 2*t^2 + t^4\n"
    code, out, _ = run(capsys, "ale", "--r", "2", "--n", "1/2")
    assert code == 0
    assert out == "1 + t^2\n"

    code, out, _ = run(capsys, "ale", "--r", "2", "--n", "1", "--points")
    lines = out.strip().split("\n")
    assert lines[0] == "1 + 2*t^2 + t^4"
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 4
    assert sorted(record["index"] for record in records) == [0, 1, 1, 2]
    assert all(record["dimension"] == 4 for record in records)


def test_ale_points_record_lists_each_tableau(capsys):
    # a point's record is its tableaux in slot order, each as its own record
    code, out, _ = run(capsys, "ale", "--r", "2", "--n", "3/2", "--points", "--format", "json")
    assert code == 0
    records = json.loads(out)["result"]["points"]
    points = list(hirzebruch.ale.enumerate_colored_fixed_points(2, "3/2"))
    assert [record["fixed_point"] for record in records] == [
        {"tableaux": [{"rows": list(t.diagram.rows), "eps": t.eps} for t in point]}
        for point in points
    ]
    assert records[-1]["fixed_point"] == {
        "tableaux": [{"rows": [1, 1, 1], "eps": 1}, {"rows": [], "eps": 1}]
    }


@pytest.mark.parametrize("n", ["0", "1/2", "1", "3/2", "2"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_ale_points_poly_is_the_ale_result(capsys, r, n):
    def result(*points):
        code, out, _ = run(capsys, "ale", "--r", str(r), "--n", n, *points, "--format", "json")
        assert code == 0
        return json.loads(out)["result"]

    listing = result("--points")
    assert listing["poly"] == result()
    indexes = Counter(2 * record["index"] for record in listing["points"])
    assert listing["poly"] == [[deg, indexes[deg]] for deg in sorted(indexes)]


@pytest.mark.parametrize(
    "argv",
    [
        ["ale", "--r", "2", "--n", "2", "--ordering", "ale"],
        ["tangent", "--p", "1", "--r", "2", "--k", "0", "--n", "2", "--reduced",
         "--ordering", "main"],
    ],
)
def test_ordering_option_is_refused(capsys, argv):
    # each index is counted in the one ordering it is defined for; there is no knob
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --ordering" in err
    assert "Traceback" not in err


def test_sweep_check_mode(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "check",
        "--p", "2", "--r", "2", "--k", "0,1", "--n", "0..1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p\tr\tk\tn\tnonempty"
    assert len(lines) == 5
    assert lines[1] == "2\t2\t0\t0\ttrue"
    assert lines[2] == "2\t2\t0\t1\ttrue"
    assert lines[3] == "2\t2\t1\t0\tfalse"
    assert lines[4] == "2\t2\t1\t1\tfalse"


def test_sweep_crosscheck_mode(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "crosscheck", "--format", "json",
        "--p", "1,2", "--r", "2", "--k", "0", "--n", "1",
    )
    assert code == 0
    rows = json.loads(out)["result"]
    assert len(rows) == 2
    assert rows[0]["p"] == 1 and rows[0]["match"] == "n/a" and rows[0]["ale"] is None
    assert rows[1]["p"] == 2 and rows[1]["match"] is True
    assert rows[1]["ale"] == rows[1]["poincare"] == [[0, 1], [2, 2], [4, 1]]


def test_sweep_mixed_rationals(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "poincare", "--format", "json",
        "--p", "2", "--r", "2", "--k", "1", "--n", "1/2,3/2",
    )
    assert code == 0
    rows = json.loads(out)["result"]
    assert [row["n"] for row in rows] == ["1/2", "3/2"]
    assert rows[0]["poincare"] == [[0, 1], [2, 1]]
    # any spelling of n is the text of its fraction, in the request and the rows
    code, out, _ = run(
        capsys, "sweep", "--mode", "check", "--format", "json",
        "--p", "1", "--r", "1", "--k", "0", "--n=-0,+3/6,04,0..1",
    )
    assert code == 0
    envelope = json.loads(out)
    texts = ["0", "1/2", "4", "0", "1"]
    assert envelope["request"]["n"] == texts
    assert [row["n"] for row in envelope["result"]] == texts


def test_sweep_keeps_bad_cell_input_as_an_error_row(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "poincare", "--format", "json",
        "--p", "0,1", "--r", "1", "--k", "0", "--n", "1",
    )
    assert code == 0
    assert json.loads(out)["result"] == [
        {"p": 0, "r": 1, "k": 0, "n": "1", "error": "p must be a positive integer, got 0"},
        {"p": 1, "r": 1, "k": 0, "n": "1", "poincare": [[0, 1], [2, 1]]},
    ]


def test_sweep_exits_3_on_an_invariant_violation(capsys, monkeypatch):
    def broken(params):
        raise InvariantError("2*r*n must be an integer, got 1/2")

    monkeypatch.setattr(hirzebruch.counting, "poincare_polynomial", broken)
    code, out, err = run(
        capsys, "sweep", "--mode", "poincare", "--p", "1", "--r", "1", "--k", "0", "--n", "1"
    )
    assert (code, out) == (3, "")
    assert err == "invariant violation: 2*r*n must be an integer, got 1/2\n"


def test_sweep_list_starting_with_a_minus_sign_needs_the_equals_form(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "check", "--p", "1", "--r", "2", "--k=-1,0", "--n", "1/4,1"
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "1\t2\t-1\t1/4\ttrue", "1\t2\t-1\t1\tfalse",
        "1\t2\t0\t1/4\tfalse", "1\t2\t0\t1\ttrue",
    ]
    done = _hirzebruch(
        "-m", "hirzebruch", "sweep", "--mode", "check", "--p", "1", "--r", "2",
        "--k", "-1,0", "--n", "1",
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "argument --k: expected one argument" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [["series", "--p", "1"], ["series", "--p", "1", "--method", "direct"], ["hilbert"]],
    ids=["series-closed", "series-direct", "hilbert"],
)
def test_max_order_above_the_limit_exits_2_before_any_series(capsys, monkeypatch, argv):
    def refuse(self, *args):
        raise AssertionError("a QSeries was allocated")

    monkeypatch.setattr(QSeries, "__init__", refuse)
    started = time.perf_counter()
    code, out, err = run(capsys, *argv, "--max-order", "1000000000")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: --max-order must be at most {MAX_ORDER}, got 1000000000\n"


def test_max_order_at_the_limit_is_computed(capsys):
    code, out, _ = run(capsys, "series", "--p", "1", "--max-order", str(MAX_ORDER))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"q^{MAX_ORDER}: 1 + ")


RANKED_COMMANDS = {
    "fixed-points": ["fixed-points", "--p", "1", "--k", "0"],
    "fixed-points-reduced": ["fixed-points", "--reduced", "--p", "1", "--k", "0"],
    "tangent": ["tangent", "--p", "1", "--k", "0"],
    "tangent-reduced": ["tangent", "--reduced", "--p", "1", "--k", "0"],
    "poincare": ["poincare", "--p", "1", "--k", "0"],
    "check": ["check", "--p", "1", "--k", "0"],
    "ale": ["ale"],
    "ale-points": ["ale", "--points"],
}


@pytest.mark.parametrize("argv", RANKED_COMMANDS.values(), ids=RANKED_COMMANDS)
def test_rank_above_the_limit_exits_2(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv, "--r", str(MAX_RANK + 1), "--n", "0")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: --r must be at most {MAX_RANK}, got {MAX_RANK + 1}\n"


@pytest.mark.parametrize("argv", RANKED_COMMANDS.values(), ids=RANKED_COMMANDS)
def test_rank_at_the_limit_is_computed(capsys, argv):
    # each summand nests one generator; at this rank they stay under the recursion limit
    code, out, err = run(capsys, *argv, "--r", str(MAX_RANK), "--n", "0")
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("mode", ["poincare", "check", "crosscheck"])
def test_sweep_cell_above_the_rank_limit_is_an_error_cell(capsys, mode):
    code, out, _ = run(
        capsys, "sweep", "--mode", mode, "--p", "2", "--r", f"1,{MAX_RANK + 1}",
        "--k", "0", "--n", "0",
    )
    assert code == 0
    header, first, refused = out.splitlines()
    assert "error" not in first
    assert refused == (
        f"2\t{MAX_RANK + 1}\t0\t0\terror:--r must be at most {MAX_RANK}, got {MAX_RANK + 1}"
    )


def _sweep_check(capsys, *lists):
    """(exit code, stdout, stderr) of a check sweep, with argparse's exit as a code."""
    argv = ["sweep", "--mode", "check"]
    for flag, values in zip(("--p", "--r", "--k", "--n"), lists):
        argv.append(f"{flag}={values}")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_range_above_the_cell_limit_exits_2_before_expanding(capsys, monkeypatch):
    code, out, err = _sweep_check(capsys, "1", "1", "0", f"0..{MAX_CELLS}")
    assert (code, out) == (2, "")
    limit = f"makes the list {MAX_CELLS + 1} values long, more than {MAX_CELLS}"
    assert f"argument --n: '0..{MAX_CELLS}' {limit}" in err

    monkeypatch.setattr(hirzebruch.cli, "MAX_CELLS", 5)
    # ranges and single values add up within one list
    code, _, err = _sweep_check(capsys, "1,2,3,4..6", "1", "0", "0")
    assert code == 2
    assert "argument --p: '4..6' makes the list 6 values long, more than 5" in err

    def refuse(text):
        raise AssertionError("a value of a refused range was converted")

    monkeypatch.setattr(hirzebruch.cli, "_rational", refuse)
    code, out, err = _sweep_check(capsys, "1", "1", "0", "0..5")
    assert (code, out) == (2, "")
    assert "argument --n: '0..5' makes the list 6 values long, more than 5" in err


def test_sweep_grid_above_the_cell_limit_exits_2_before_any_cell(capsys, monkeypatch):
    monkeypatch.setattr(hirzebruch.cli, "MAX_CELLS", 5)
    monkeypatch.setattr(hirzebruch.cli, "_cmd_check", mock.Mock(side_effect=AssertionError))
    code, out, err = _sweep_check(capsys, "1,2", "1,2", "0", "0..1")
    assert (code, out) == (2, "")
    assert err == "error: the sweep grid has 8 cells, more than 5\n"


def test_sweep_at_the_cell_limit_runs_every_cell(capsys, monkeypatch):
    monkeypatch.setattr(hirzebruch.cli, "MAX_CELLS", 6)
    code, out, _ = _sweep_check(capsys, "1", "1,2", "0", "0..2")
    assert code == 0
    assert len(out.splitlines()) == 1 + 6


def _with_result(entry: bytes, result) -> bytes:
    stored = json.loads(entry)
    stored["result"] = result
    return json.dumps(stored, sort_keys=True).encode()


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1",
            "--cache-dir", str(cache))
    _, first, _ = run(capsys, *args)
    [entry] = cache.glob("*.json")

    # the second run must read the cache: it cannot compute
    def no_compute(params):
        raise AssertionError("a cached result was recomputed")

    monkeypatch.setattr(hirzebruch.counting, "poincare_polynomial", no_compute)
    assert run(capsys, *args) == (0, first, "")

    # an entry whose result was altered is neither served nor kept
    monkeypatch.undo()
    intact = entry.read_bytes()
    for poison in ([[0, 7]], [[0, 7.5]]):
        entry.write_bytes(_with_result(intact, poison))
        assert run(capsys, *args) == (0, first, "")
        assert entry.read_bytes() == intact


@pytest.mark.parametrize(
    "damage",
    ["truncate", "{}", "[1]", '{"request": {}}', "null",
     pytest.param([[0, 7]], id="result-7"), pytest.param([[0, 7.5]], id="result-7.5"),
     # too deeply nested for the json parser, which raises RecursionError
     pytest.param("[" * 200_000, id="nested"),
     # refused by open, as a file without read permission is for a user other than root
     pytest.param(PermissionError, id="permission")],
)
def test_unreadable_cache_entry_is_recomputed(capsys, tmp_path, monkeypatch, damage):
    cache = tmp_path / "cache"
    args = ("poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2",
            "--format", "json", "--cache-dir", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    [entry] = cache.glob("*.json")
    intact = entry.read_bytes()
    if damage is PermissionError:
        def refuse(path, *args, **kwargs):
            if os.fspath(path) == str(entry):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(hirzebruch.cli, "open", refuse, raising=False)
    elif damage == "truncate":
        entry.write_bytes(intact[: len(intact) // 2])
    elif isinstance(damage, list):
        entry.write_bytes(_with_result(intact, damage))
    else:
        entry.write_bytes(damage.encode())
    code, again, err = run(capsys, *args)
    assert (code, again, err) == (0, first, "")
    assert entry.read_bytes() == intact


def test_a_directory_in_place_of_a_cache_entry_exits_2(capsys, tmp_path):
    # the read is a miss, and the write cannot replace a directory
    cache = tmp_path / "cache"
    args = ("poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2",
            "--cache-dir", str(cache))
    assert run(capsys, *args)[0] == 0
    [entry] = cache.glob("*.json")
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert [path.name for path in cache.iterdir()] == [entry.name] and entry.is_dir()


def test_failed_cache_write_leaves_no_temp_file(capsys, tmp_path, monkeypatch):
    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(hirzebruch.cli.os, "replace", full_disk)
    code, out, err = run(
        capsys, "check", "--p", "1", "--r", "1", "--k", "0", "--n", "1",
        "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err
    assert list(tmp_path.iterdir()) == []


def test_crosscheck_sweep_shares_cache_entries_with_poincare_and_ale(
    capsys, tmp_path, monkeypatch
):
    cache = str(tmp_path / "cache")
    code, _, _ = run(
        capsys, "sweep", "--mode", "crosscheck", "--p", "1,2", "--r", "2", "--k", "0",
        "--n", "1,2", "--cache-dir", cache,
    )
    assert code == 0

    def refuse(*args):
        raise AssertionError("a result the sweep cached was recomputed")

    monkeypatch.setattr(hirzebruch.counting, "poincare_polynomial", refuse)
    monkeypatch.setattr(hirzebruch.ale, "ale_poincare", refuse)
    served = (0, "1 + 2*t^2 + 5*t^4 + 5*t^6 + 3*t^8\n", "")
    poincare = ("poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2")
    assert run(capsys, *poincare, "--cache-dir", cache) == served
    assert run(capsys, "ale", "--r", "2", "--n", "2", "--cache-dir", cache) == served


def test_check_sweep_writes_no_cache_entry(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, _, _ = run(
        capsys, "sweep", "--mode", "check", "--p", "1,2", "--r", "2", "--k", "0,1",
        "--n", "0..2", "--cache-dir", str(cache),
    )
    assert code == 0
    assert list(cache.iterdir()) == []


def test_cache_entry_name_and_bytes_are_pinned(capsys, tmp_path):
    # re-pin with PINNED_OUTPUT at a version bump: the version is in both
    code, _, _ = run(
        capsys, "check", "--p", "1", "--r", "1", "--k", "0", "--n", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    [entry] = tmp_path.iterdir()
    assert (__version__, entry.name) == (
        "0.1.0", "97f6e6266686697db7652acec46ebd9b6bd92462666b0ab2f5837ac46eb9b2d1.json"
    )
    assert entry.read_text(encoding="utf-8") == (
        '{"digest": "43a46c87194f2fd02fa90bcdf73cea704c656b0f71a0dd39cc5844c4dabf73d4",'
        ' "request": {"k": 0, "n": "1", "p": 1, "r": 1, "subcommand": "check"},'
        ' "result": {"nonempty": true}, "version": "0.1.0"}'
    )


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
    run(capsys, "check", "--p", "1", "--r", "1", "--k", "0", "--n", "1")
    assert len(list(cache.glob("*.json"))) == 1


def test_timing_goes_to_stderr(capsys):
    code, out, err = run(
        capsys, "poincare", "--p", "1", "--r", "1", "--k", "0", "--n", "1", "--timing"
    )
    assert code == 0
    assert out == "1 + t^2\n"
    assert err.startswith("timing_ms=")


def test_timing_of_a_cache_hit_leaves_stdout_unchanged(capsys, tmp_path):
    args = ("poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    code, computed, _ = run(capsys, *args)
    assert code == 0
    code, served, err = run(capsys, *args, "--timing")
    assert code == 0
    assert served == computed
    assert re.fullmatch(r"timing_ms=\d+\n", err)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# What `hirzebruch NAME --help` prints at 80 columns, pinned byte for byte;
# argparse formats these alike on Python 3.10 to 3.13.
SUBCOMMAND_HELP = {
    "fixed-points": """\
usage: hirzebruch fixed-points [-h] [--format {text,json}]
                               [--cache-dir CACHE_DIR] [--timing] --p P --r R
                               --k K --n N [--reduced]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --p P                 Hirzebruch surface degree
  --r R                 sheaf rank
  --k K                 first Chern datum
  --n N                 second Chern datum, a or a/b
  --reduced             list reduced fixed loci with Morse index and component
                        factor
""",
    "tangent": """\
usage: hirzebruch tangent [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                          [--timing] --p P --r R --k K --n N [--reduced]
                          [--fixed-points FILE]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --p P                 Hirzebruch surface degree
  --r R                 sheaf rank
  --k K                 first Chern datum
  --n N                 second Chern datum, a or a/b
  --reduced             reduced characters
  --fixed-points FILE   read fixed-point records from FILE ('-' for stdin)
                        instead of enumerating
""",
    "poincare": """\
usage: hirzebruch poincare [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                           [--timing] --p P --r R --k K --n N

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --p P                 Hirzebruch surface degree
  --r R                 sheaf rank
  --k K                 first Chern datum
  --n N                 second Chern datum, a or a/b
""",
    "series": """\
usage: hirzebruch series [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                         [--timing] --p P [--max-order MAX_ORDER]
                         [--method {closed,direct}]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --p P                 Hirzebruch surface degree
  --max-order MAX_ORDER
                        q-truncation order, at most 50
  --method {closed,direct}
                        closed product/bracket form or term-by-term summation
""",
    "hilbert": """\
usage: hirzebruch hilbert [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                          [--timing] [--p P] [--max-order MAX_ORDER]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --p P                 Hirzebruch surface degree
  --max-order MAX_ORDER
                        q-truncation order, at most 50
""",
    "ale": """\
usage: hirzebruch ale [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                      [--timing] --r R --n N [--points]

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --r R                 instanton rank
  --n N                 instanton number, a or a/b
  --points              also list fixed points with characters and indexes
""",
    "check": """\
usage: hirzebruch check [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                        [--timing] --p P --r R --k K --n N

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --p P                 Hirzebruch surface degree
  --r R                 sheaf rank
  --k K                 first Chern datum
  --n N                 second Chern datum, a or a/b
""",
    "sweep": """\
usage: hirzebruch sweep [-h] [--format {text,json}] [--cache-dir CACHE_DIR]
                        [--timing] --mode {poincare,check,crosscheck} --p P
                        --r R --k K --n N

A list that starts with '-' needs '=', as in --k=-1,0.

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format
  --cache-dir CACHE_DIR
                        result cache directory (default: $HIRZEBRUCH_CACHE_DIR
                        if set)
  --timing              report elapsed milliseconds on stderr
  --mode {poincare,check,crosscheck}
                        what to compute per cell
  --p P                 e.g. 1,2 or 1..3
  --r R
  --k K                 e.g. 0,1 or --k=-1,0
  --n N                 e.g. 0..4 or --n=-1/2,0,1
""",
}


@pytest.mark.parametrize("name", SUBCOMMAND_HELP)
def test_subcommand_help_is_unchanged(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == SUBCOMMAND_HELP[name]


def test_top_level_help_lists_every_subcommand_with_its_summary(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    summaries = {
        "fixed-points": "list torus fixed points",
        "tangent": "tangent characters at fixed points",
        "poincare": "Poincare polynomial of a moduli space",
        "series": "rank-2, k=0 generating series",
        "hilbert": "rank-1 (Hilbert scheme) generating series",
        "ale": "A1 orbifold Poincare polynomial",
        "check": "decide whether the moduli space is nonempty",
        "sweep": "run a parameter grid",
    }
    assert list(summaries) == list(SUBCOMMAND_HELP)
    for name, summary in summaries.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(summary)}$", out, re.M), name


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["--format", "json", "poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1"],
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1", "--bogus"],
    ],
)
def test_bad_command_line_exits_2_with_the_top_level_usage(argv):
    code, out, err = _main_in_process(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: hirzebruch [-h] [--version]")
    assert "\nhirzebruch: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["poincare", "--help"],
        ["check", "--p", "1", "--r", "2", "--k", "0", "--n", "1"],
        ["sweep", "--mode", "check", "--p", "1", "--r", "1,2", "--k", "0", "--n", "1/2,1"],
        ["ale", "--r", "2", "--n", "1", "--format", "json"],
        ["--help"],
        ["poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1", "--bogus"],
    ],
)
def test_one_request_builds_at_most_two_parsers(monkeypatch, argv):
    """A line that starts with a subcommand's name builds that subcommand's
    parser, and the top-level one after it only to report leftover arguments;
    --version and --help build the top-level parser alone."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, _ = _main_in_process(argv)
    if argv[0] not in COMMANDS:
        assert (code, built) == (0, ["hirzebruch"])
    elif argv[-1] == "--bogus":
        assert (code, built) == (2, [f"hirzebruch {argv[0]}", "hirzebruch"])
    else:
        assert (code, built) == (0, [f"hirzebruch {argv[0]}"])


def _option_strings() -> list[str]:
    """Every option string of every subcommand."""
    strings = set()
    for *_, add_arguments in COMMANDS.values():
        parser = argparse.ArgumentParser()
        _common(parser)
        add_arguments(parser)
        strings.update(s for action in parser._actions for s in action.option_strings)
    return sorted(strings)


_OPTIONS = _option_strings()
_VALUES = ["1", "-1", "1/2", "x", "-", "0..2", "--k=-1,0"]
_TOKENS = st.one_of(
    st.sampled_from(_OPTIONS + ["--version", "-h", "--"] + _VALUES),
    st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)).map("=".join),
    # abbreviations, such as --ma for --max-order or --ve for --version
    st.sampled_from(_OPTIONS + ["--version"]).flatmap(
        lambda s: st.integers(2, len(s)).map(lambda end: s[:end])
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(COMMANDS)), st.lists(_TOKENS, max_size=8))
def test_top_level_parser_hands_a_named_line_whole_to_its_subcommand(name, tokens):
    # `_parse` skips the top-level parser for such a line, since it would
    # pass the line on unchanged and leave nothing over
    argv = [name, *tokens]
    known, extras = _top_parser().parse_known_args(argv)
    assert (known.subcommand, extras) == (argv, [])


def test_module_entry_point_subprocess():
    done = _hirzebruch(
        "-m", "hirzebruch", "poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1"
    )
    assert done.returncode == 0
    assert done.stdout == "1 + 2*t^2 + t^4\n"
    bad = _hirzebruch("-m", "hirzebruch", "poincare", "--p", "2")
    assert bad.returncode == 2


# One request per subcommand; the digest of their JSON output is pinned to
# the version, because cache keys hash only the version: a change of any
# output byte must come with a version bump, or old cache entries go stale.
# After an intended change, bump the version here, in __init__.py and in
# pyproject.toml, and pin the new digest.
PINNED_REQUESTS = [
    ["fixed-points", "--p", "1", "--r", "2", "--k", "1", "--n", "9/4", "--reduced"],
    ["tangent", "--p", "3", "--r", "2", "--k", "1", "--n", "7/4"],
    ["tangent", "--p", "1", "--r", "3", "--k", "0", "--n", "2", "--reduced"],
    ["poincare", "--p", "1", "--r", "3", "--k", "0", "--n", "2"],
    ["poincare", "--p", "1", "--r", "6", "--k", "0", "--n", "2"],
    ["series", "--p", "1", "--max-order", "3"],
    ["series", "--p", "1", "--max-order", "3", "--method", "direct"],
    ["series", "--p", "2", "--max-order", "8"],
    ["hilbert", "--p", "2", "--max-order", "4"],
    ["hilbert", "--p", "1", "--max-order", "8"],
    ["ale", "--r", "2", "--n", "3/2", "--points"],
    ["ale", "--r", "3", "--n", "2"],
    ["check", "--p", "3", "--r", "4", "--k", "2", "--n", "7/2"],
    ["sweep", "--mode", "crosscheck", "--p", "1,2", "--r", "2", "--k", "0", "--n", "0..2"],
    # six k-strings; some pairs hand their threshold to the second slot,
    # and one slot takes two thresholds
    ["fixed-points", "--p", "2", "--r", "3", "--k", "1", "--n", "8/3", "--reduced"],
    ["sweep", "--mode", "check", "--p", "1..2", "--r", "2,3", "--k=-1,0",
     "--n", "0,1/2,2/3,1"],
]
PINNED_OUTPUT = (
    "0.1.0",
    "a9691fc000c8508268650183fd9b20e561cdee7fb7b431fd1974c46278c78fc8",
)


def test_output_digest_is_pinned_to_the_version(capsys):
    digest = hashlib.sha256()
    for argv in PINNED_REQUESTS:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        digest.update(out.encode())
    assert (__version__, digest.hexdigest()) == PINNED_OUTPUT


# Two listings of mixed corner sectors (N1 = 2 < r), where the dimension
# check's correction (r - N1)*N1/2 is not zero: no pinned request reaches one.
PINNED_MIXED_ALE = (
    "0.1.0",
    {
        ("ale", "--r", "3", "--n", "1/2", "--points"):
            "1e58badad058c0c6040433b20c131c643e906430dc3c738824a09aad8b5eaea7",
        ("ale", "--r", "4", "--n", "3/2", "--points"):
            "6145c0991400621e42191665c64bc364c72396eec71d0f40c4ca43de025425a7",
    },
)


def test_mixed_sector_ale_listings_are_pinned(capsys):
    digests = {}
    for argv in PINNED_MIXED_ALE[1]:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        digests[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert (__version__, digests) == PINNED_MIXED_ALE


# The text renderers are pinned apart from the JSON: the pinned requests plus
# one sweep per mode with a bad cell (p = 0), whose row prints its error.
PINNED_TEXT_REQUESTS = PINNED_REQUESTS + [
    ["sweep", "--mode", mode, "--p", "0,2", "--r", "2", "--k", "0,1", "--n", "1/2,1"]
    for mode in ("poincare", "check", "crosscheck")
]
PINNED_TEXT = (
    "0.1.0",
    "c62eddbb4edd9238dad16c947f0a9687c4cc476b6121198801eba9bf32457142",
)


def test_text_output_digest_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in PINNED_TEXT_REQUESTS:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digest.update(out.encode())
    assert (__version__, digest.hexdigest()) == PINNED_TEXT


def test_json_output_renders_no_text(capsys, monkeypatch):
    def no_text(args, payload):
        raise AssertionError("text rendered for --format json")

    commands = hirzebruch.cli.COMMANDS
    for name, (summary, handler, _, add_arguments) in list(commands.items()):
        monkeypatch.setitem(commands, name, (summary, handler, no_text, add_arguments))
    for argv in PINNED_REQUESTS:
        assert run(capsys, *argv, "--format", "json")[0] == 0


# `cli._indented` writes the envelope; `json.dumps` stays here as its oracle.
# Strings draw from the characters json escapes or spells out (quote,
# backslash, controls, non-ASCII, astral, U+2028) and from all of Unicode;
# int lists take bools and None, which are no ints to the encoder's fast path.
_JSON_TEXT = st.text(
    st.sampled_from('"\\\x00\x1f\n\x7f\xe9\u2028\U0001f600a') | st.characters(), max_size=6
)
_JSON_INTS = st.integers() | st.sampled_from([2**64, -(2**64) - 1, 3**90, -1, 0])
_JSON_TREES = st.recursive(
    _JSON_TEXT | _JSON_INTS | st.booleans() | st.none()
    | st.lists(_JSON_INTS | st.booleans() | st.none(), max_size=5),
    lambda trees: st.lists(trees, max_size=4) | st.dictionaries(_JSON_TEXT, trees, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
@example({})
@example([])
@example({"": [[], {}, [[]], {"a": {}}], "\u2028\"\\": [[{}]]})
@example([[1, True], [0, None], [False, 2**64], [-(2**70), -1]])
@example({"\U0001f600\x00\xe9": ["\x1f\u2028\U0001f600", 2**65, None, True, []]})
def test_envelope_encoder_writes_the_bytes_of_json_dumps(value):
    assert _indented(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), (1, 2), {1: 2}, [[1], {"a": 0.0}]])
def test_envelope_encoder_refuses_what_an_envelope_never_holds(value):
    with pytest.raises(TypeError):
        _indented(value)


def test_json_output_runs_no_pure_python_encoder(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python json encoder ran")

    monkeypatch.setattr("json.encoder._make_iterencode", refuse)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    for argv in PINNED_REQUESTS + [list(argv) for argv in PINNED_MIXED_ALE[1]]:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["version"] == __version__


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == __version__


@pytest.mark.parametrize(
    "argv, request_",
    [
        (
            ["fixed-points", "--p", "2", "--r", "2", "--k", "0", "--n", "1"],
            {"subcommand": "fixed-points", "p": 2, "r": 2, "k": 0, "n": "1",
             "reduced": False},
        ),
        (
            ["tangent", "--p", "2", "--r", "2", "--k", "0", "--n", "1", "--reduced"],
            {"subcommand": "tangent", "p": 2, "r": 2, "k": 0, "n": "1",
             "reduced": True, "ordering": "main"},
        ),
        (
            ["poincare", "--p", "2", "--r", "2", "--k", "1", "--n", "3/2"],
            {"subcommand": "poincare", "p": 2, "r": 2, "k": 1, "n": "3/2"},
        ),
        (
            ["series", "--p", "1", "--max-order", "2", "--method", "direct"],
            {"subcommand": "series", "p": 1, "max_order": 2, "method": "direct"},
        ),
        (
            ["hilbert", "--p", "1", "--max-order", "2"],
            {"subcommand": "hilbert", "p": 1, "max_order": 2},
        ),
        (
            ["ale", "--r", "2", "--n", "1/2"],
            {"subcommand": "ale", "r": 2, "n": "1/2", "ordering": "ale"},
        ),
        (
            ["ale", "--r", "2", "--n", "1", "--points"],
            {"subcommand": "ale", "r": 2, "n": "1", "ordering": "ale", "points": True},
        ),
        (
            ["check", "--p", "2", "--r", "2", "--k", "1", "--n", "1/2"],
            {"subcommand": "check", "p": 2, "r": 2, "k": 1, "n": "1/2"},
        ),
        (
            ["sweep", "--mode", "check", "--p", "1,2", "--r", "2", "--k", "0",
             "--n", "0,1/2"],
            {"subcommand": "sweep", "mode": "check", "p": [1, 2], "r": [2], "k": [0],
             "n": ["0", "1/2"]},
        ),
    ],
)
def test_json_request_is_frozen(capsys, argv, request_):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["request"] == request_


_SUBCOMMANDS = [
    "fixed-points", "tangent", "poincare", "series", "hilbert", "ale", "check", "sweep",
]
_INTEGERS = ["-1", "0", "1", "2", "3"]
_RATIONALS = _INTEGERS + ["-1/2", "1/2", "3/2", "7/4", "5/2"]
_JUNK = ["--bogus", "x", "", "-", "1.5", "1/0", "--p", "--n", "--reduced", "--format"]


@st.composite
def _argvs(draw):
    """Bounded command lines: p, r <= 3, n <= 3, max-order <= 4, plus junk tokens."""
    sub = draw(st.sampled_from(_SUBCOMMANDS))
    flags = {
        "fixed-points": ["p", "r", "k", "n", "reduced"],
        "tangent": ["p", "r", "k", "n", "reduced"],
        "poincare": ["p", "r", "k", "n"],
        "series": ["p", "max-order", "method"],
        "hilbert": ["p", "max-order"],
        "ale": ["r", "n", "points"],
        "check": ["p", "r", "k", "n"],
        "sweep": ["mode", "p", "r", "k", "n"],
    }[sub]
    values = {
        "p": _INTEGERS, "r": _INTEGERS, "k": _INTEGERS + ["-2"], "n": _RATIONALS,
        "max-order": _INTEGERS + ["4"], "method": ["closed", "direct"],
        "mode": ["poincare", "check", "crosscheck"],
    }
    argv = [sub]
    for flag in flags:
        if not draw(st.integers(0, 9)):
            continue  # a missing flag is an argparse error, or a default
        if flag in ("reduced", "points"):
            argv.append(f"--{flag}")
        elif sub == "sweep" and flag != "mode":
            items = draw(st.lists(st.sampled_from(values[flag]), min_size=1, max_size=2))
            if flag != "n" and draw(st.booleans()):
                items = [f"{min(items, key=int)}..{max(items, key=int)}"]
            argv += [f"--{flag}", ",".join(items)]
        else:
            argv += [f"--{flag}", draw(st.sampled_from(values[flag]))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


_SMALL = st.one_of(
    st.integers(-1, 2), st.sampled_from([0.5, 1.0, True, False, None, "1", "00"])
)
_DIAGRAM = st.lists(st.integers(1, 2), max_size=2).map(lambda rows: sorted(rows, reverse=True))
# well-typed records reach the invariant checks and the characters; the
# others mix wrong types into the same shape, or are any JSON at all
_RECORDS = st.one_of(
    st.lists(
        st.integers(1, 3).flatmap(
            lambda r: st.fixed_dictionaries(
                {"k": st.lists(st.integers(-1, 1), min_size=r, max_size=r)}
                | {key: st.lists(_DIAGRAM, min_size=r, max_size=r) for key in ("Y", "Y1", "Y2")}
            )
        ),
        max_size=2,
    ),
    st.lists(
        st.fixed_dictionaries(
            {key: st.one_of(_SMALL, st.lists(st.one_of(_SMALL, st.lists(_SMALL))))
             for key in ("k", "Y", "Y1", "Y2")}
        ),
        max_size=2,
    ),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=3)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)
        ),
        max_leaves=10,
    ),
)


def _main_in_process(argv, stdin=""):
    """(exit code, stdout, stderr) of cli.main, with argparse's SystemExit as a code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(argv, stdin=""):
    with mock.patch.dict(os.environ):
        os.environ.pop(CACHE_ENV_VAR, None)
        code, out, _ = _main_in_process(argv, stdin)
    assert code in (0, 2, 3), (argv, code)
    if code != 0:
        assert out == "", (argv, code)


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_fuzzed_command_lines_keep_the_exit_contract(argv):
    _assert_exit_contract(argv)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["1", "2", "3"]),
    st.sampled_from(["0", "1", "-1"]),
    st.sampled_from(["1", "3/2", "2"]),
    st.booleans(),
    _RECORDS,
)
def test_fuzzed_fixed_point_records_keep_the_exit_contract(r, k, n, reduced, records):
    argv = ["tangent", "--p", "2", "--r", r, "--k", k, "--n", n, "--fixed-points", "-"]
    _assert_exit_contract(argv + ["--reduced"] * reduced, json.dumps(records))
