import hashlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hirzebruch
import hirzebruch.counting
from hirzebruch import __version__
from hirzebruch.cli import CACHE_ENV_VAR, MAX_ORDER, main
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
        ["poincare", "--p", "2", "--r", "2", "--k", "0"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


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


def test_tangent_reduced_computes_no_closed_index_or_factor(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("tangent --reduced computed an index or factor it drops")

    for name in ("morse_index_closed", "_pair_terms", "_slot_term", "component_factor",
                 "_factor_terms"):
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
    ],
    ids=["series-p0", "series-p-1", "deep-records"],
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


def test_cli_import_loads_no_thread_pool():
    done = _hirzebruch(
        "-c", "import sys, hirzebruch.cli; print('concurrent.futures' in sys.modules)"
    )
    assert done.returncode == 0
    assert done.stdout == "False\n"


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


def test_ale_ordering_flag_is_wired_through(capsys):
    _, default, _ = run(capsys, "ale", "--r", "2", "--n", "2")
    _, explicit, _ = run(capsys, "ale", "--r", "2", "--n", "2", "--ordering", "ale")
    assert default == explicit
    _, ale_json, _ = run(capsys, "ale", "--r", "2", "--n", "2", "--format", "json")
    _, main_json, _ = run(
        capsys, "ale", "--r", "2", "--n", "2", "--ordering", "main",
        "--format", "json",
    )
    ale_pairs = json.loads(ale_json)["result"]
    main_pairs = json.loads(main_json)["result"]
    # a different chamber redistributes indexes but never changes the point count
    assert ale_pairs != main_pairs
    assert sum(c for _, c in ale_pairs) == 16
    assert sum(c for _, c in main_pairs) == 16


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

    monkeypatch.setattr(hirzebruch.cli, "poincare_polynomial", broken)
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

    monkeypatch.setattr(hirzebruch.cli, "poincare_polynomial", no_compute)
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
     pytest.param([[0, 7]], id="result-7"), pytest.param([[0, 7.5]], id="result-7.5")],
)
def test_unreadable_cache_entry_is_recomputed(capsys, tmp_path, damage):
    cache = tmp_path / "cache"
    args = ("poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "2",
            "--format", "json", "--cache-dir", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    [entry] = cache.glob("*.json")
    intact = entry.read_bytes()
    if damage == "truncate":
        entry.write_bytes(intact[: len(intact) // 2])
    elif isinstance(damage, list):
        entry.write_bytes(_with_result(intact, damage))
    else:
        entry.write_bytes(damage.encode())
    code, again, err = run(capsys, *args)
    assert (code, again, err) == (0, first, "")
    assert entry.read_bytes() == intact


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_module_entry_point_subprocess():
    env = dict(os.environ)
    env.pop(CACHE_ENV_VAR, None)
    done = subprocess.run(
        [sys.executable, "-m", "hirzebruch",
         "poincare", "--p", "2", "--r", "2", "--k", "0", "--n", "1"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert done.stdout == "1 + 2*t^2 + t^4\n"
    bad = subprocess.run(
        [sys.executable, "-m", "hirzebruch", "poincare", "--p", "2"],
        capture_output=True, text=True, env=env,
    )
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


def test_json_output_renders_no_text(capsys, monkeypatch):
    def no_text(args, payload):
        raise AssertionError("text rendered for --format json")

    for name in ("_records_text", "_poly_text", "_series_text", "_ale_text",
                 "_check_text", "_sweep_text"):
        monkeypatch.setattr(hirzebruch.cli, name, no_text)
    for argv in PINNED_REQUESTS:
        assert run(capsys, *argv, "--format", "json")[0] == 0


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
            ["ale", "--r", "2", "--n", "1", "--ordering", "main", "--points"],
            {"subcommand": "ale", "r": 2, "n": "1", "ordering": "main", "points": True},
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
        "tangent": ["p", "r", "k", "n", "reduced", "ordering"],
        "poincare": ["p", "r", "k", "n"],
        "series": ["p", "max-order", "method"],
        "hilbert": ["p", "max-order"],
        "ale": ["r", "n", "ordering", "points"],
        "check": ["p", "r", "k", "n"],
        "sweep": ["mode", "p", "r", "k", "n"],
    }[sub]
    values = {
        "p": _INTEGERS, "r": _INTEGERS, "k": _INTEGERS + ["-2"], "n": _RATIONALS,
        "max-order": _INTEGERS + ["4"], "method": ["closed", "direct"],
        "ordering": ["main", "ale"], "mode": ["poincare", "check", "crosscheck"],
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
