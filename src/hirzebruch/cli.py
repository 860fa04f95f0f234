"""Command-line interface.

Exit codes: 0 on success (an empty moduli space is a successful result),
2 on malformed input, 3 on an internal invariant violation (which would
signal a bug in the formulas, or an internally inconsistent fixed-point
record supplied by the caller).

JSON output is a deterministic envelope {request, result, version}:
identical requests against the same version produce identical bytes.
`_indented` writes it: the bytes of `json.dumps` with sorted keys and an
indent of 2, without the pure-Python encoder that an indent selects.
Timing is reported on stderr (with --timing) so stdout stays canonical.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
import time

from . import InvariantError, __version__

# The handlers and renderers read each math name from the package when they
# run, so a cache hit, --help and --version load no math layer (nor json,
# hashlib or tempfile, which load where they are used).
_lib = sys.modules[__package__]

CACHE_ENV_VAR = "HIRZEBRUCH_CACHE_DIR"
# The work of a series grows about as the cube of its order; at p = 1 and
# order 50, `series --method direct` takes 1.3 s and `hilbert` 0.2 s.
MAX_ORDER = 50
# A sweep runs one request per cell of its grid, and a range a..b in one of
# its lists is expanded into its values: both are bounded, so an absurd grid
# is refused before any work.
MAX_CELLS = 10_000
# The k-string search and the ALE enumeration chain one generator per summand
# (`counting._grow`, `ale._extend`), so near rank 1000 they pass the
# interpreter's recursion limit; larger ranks are refused.
MAX_RANK = 256
# Every tangent character at (p, r, k, n) has exactly 2rn terms, counted with
# multiplicity, so `tangent` refuses a larger 2rn before it reads a record.
MAX_TANGENT_TERMS = 100_000

_RATIONAL = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")
_RANGE = re.compile(r"^([+-]?\d+)\.\.([+-]?\d+)$")


def __getattr__(name: str):
    # Code outside the package that reads a public name through this module,
    # such as `cli.poincare_polynomial`, gets the package's current binding.
    return getattr(_lib, name)


def _rational(text: str) -> str:
    """An argparse type: `text` in lowest terms, "a" or "a/b", as `str(Fraction(text))`
    prints it; the math layers take it as it is, so parsing loads no fractions."""
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer or a fraction a/b, got {text!r}"
        )
    num, _, den = text.partition("/")
    a, b = int(num), int(den or 1)
    g = math.gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def _list_of(convert):
    """An argparse type: comma-separated `convert` values and integer ranges a..b,
    at most MAX_CELLS values in all."""

    def parse(text: str) -> list:
        out = []
        for token in text.split(","):
            token = token.strip()
            matched = _RANGE.match(token)
            if matched:
                lo, hi = int(matched.group(1)), int(matched.group(2))
                count = len(out) + max(0, hi - lo + 1)
                if count > MAX_CELLS:
                    raise argparse.ArgumentTypeError(
                        f"{token!r} makes the list {count} values long, more than {MAX_CELLS}"
                    )
                out.extend(convert(str(x)) for x in range(lo, hi + 1))
            else:
                out.append(convert(token))
        return out

    parse.__name__ = f"{convert.__name__} list"
    return parse


def _request(subcommand: str, **fields) -> dict:
    """The JSON request of a subcommand, with n (sweep: every n) as exact text.
    Refuses a rank r above MAX_RANK; a sweep's list of ranks is checked per cell."""
    r = fields.get("r")
    if isinstance(r, int) and r > MAX_RANK:
        raise ValueError(f"--r must be at most {MAX_RANK}, got {r}")
    return {"subcommand": subcommand, **fields}


_ENCODER = None  # the JSONEncoder(sort_keys=True) of `_compact`, built on its first call


def _compact(obj) -> str:
    """`json.dumps(obj, sort_keys=True)` from one kept encoder: `json.dumps`
    builds a new one on every call with a keyword other than its defaults."""
    global _ENCODER
    if _ENCODER is None:
        from json import JSONEncoder
        _ENCODER = JSONEncoder(sort_keys=True)
    return _ENCODER.encode(obj)


def _indented(value) -> str:
    """What `json.dumps` writes with sorted keys and an indent of 2, byte for
    byte, for the values an envelope holds: dicts with str keys, lists, str,
    int, bool and None.  An indent turns json's C encoder off (CPython 3.13 and
    before); here a list of ints and every join run in C.  Any other value is a
    TypeError."""
    from json.encoder import encode_basestring_ascii as quote

    def encode(value, pad: str) -> str:
        kind = type(value)
        if kind is int:
            return int.__repr__(value)
        if kind is str:
            return quote(value)
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        inner = pad + "  "
        if kind is dict:
            if not value:
                return "{}"
            pairs = sorted(value.items())
            items = (f"{quote(key)}: {encode(child, inner)}" for key, child in pairs)
            return f"{{{inner}{f',{inner}'.join(items)}{pad}}}"
        if kind is not list:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # exact: a bool is no int here
            items = map(int.__repr__, value)
        else:
            items = map(encode, value, itertools.repeat(inner))
        return f"[{inner}{f',{inner}'.join(items)}{pad}]"

    return encode(value, "\n")


def _digest(result) -> str:
    import hashlib
    return hashlib.sha256(_compact(result).encode()).hexdigest()


class Cache:
    """Content-addressed result store keyed by (version, request).

    Each entry also holds the sha256 of its result's canonical JSON, so a
    damaged entry is never served: it is a miss, recomputed and rewritten.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, request: dict) -> str:
        digest = _digest({"version": __version__, "request": request})
        return os.path.join(self.root, f"{digest}.json")

    def get(self, request: dict):
        """The stored result, or None when the entry is absent, unreadable or
        does not match its digest."""
        import json
        try:
            with open(self._path(request), encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(entry, dict):
            return None
        result = entry.get("result")
        return result if entry.get("digest") == _digest(result) else None

    def put(self, request: dict, payload) -> None:
        import tempfile
        path = self._path(request)
        blob = _compact(
            {
                "version": __version__,
                "request": request,
                "result": payload,
                "digest": _digest(payload),
            }
        )
        # unique temp name so concurrent writers never share a partial file
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.root, suffix=".tmp", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise


def _cached(cache: Cache | None, request: dict, compute):
    if cache is not None:
        hit = cache.get(request)
        if hit is not None:
            return hit
    payload = compute()
    if cache is not None:
        cache.put(request, payload)
    return payload


def _params(args) -> ModuliParams:
    return _lib.ModuliParams(args.p, args.r, args.k, args.n)


def _cmd_fixed_points(args, cache):
    request = _request(
        "fixed-points", p=args.p, r=args.r, k=args.k, n=args.n, reduced=args.reduced
    )
    params = _params(args)
    if not args.reduced:
        return request, [fp.to_json() for fp in _lib.enumerate_fixed_points(params)]
    return request, [
        {**locus.to_json(), "index": index, "factor": factor.to_pairs()}
        for locus, index, factor in _lib.indexed_points(params)
    ]


def _records_text(args, records) -> str:
    return "\n".join(_compact(record) for record in records)


def _load_fixed_point_records(source: str) -> list:
    import json
    try:
        if source == "-":
            records = json.load(sys.stdin)
        else:
            with open(source, encoding="utf-8") as handle:
                records = json.load(handle)
    except RecursionError:
        raise ValueError("fixed-point records are nested too deeply to parse") from None
    if not isinstance(records, list):
        raise ValueError(f"fixed-point records must be a JSON list, got {records!r}")
    return records


def _character_record(fixed_point: dict, x, ordering=None) -> dict:
    """A fixed point's JSON record with its tangent character x, x's dimension
    and, given an ordering, its index."""
    record = {
        "fixed_point": fixed_point,
        "character": x.to_json(),
        "dimension": x.dimension(),
    }
    if ordering is not None:
        record["index"] = x.negative_count(ordering)
    return record


def _cmd_tangent(args, cache):
    request = _request(
        "tangent", p=args.p, r=args.r, k=args.k, n=args.n, reduced=args.reduced, ordering="main"
    )
    params = _params(args)
    terms = 2 * params.r * params.n
    if terms > MAX_TANGENT_TERMS:
        raise ValueError(
            f"a tangent character here has 2rn = {terms} terms,"
            f" more than {MAX_TANGENT_TERMS}"
        )
    if args.reduced:
        datum, character = _lib.ReducedFixedPointDatum, _lib.reduced_tangent_character
        enumerate_points = _lib.enumerate_reduced_fixed_points
        ordering = _lib.main_ordering(params.r)
    else:
        datum, character = _lib.FixedPointDatum, _lib.tangent_character
        enumerate_points, ordering = _lib.enumerate_fixed_points, None
    if args.fixed_points:
        records = _load_fixed_point_records(args.fixed_points)
        points = [datum._from_record(record, params) for record in records]
    else:
        points = list(enumerate_points(params))
    return request, [
        _character_record(point.to_json(), character(params, point), ordering)
        for point in points
    ]


def _cmd_poincare(args, cache):
    request = _request("poincare", p=args.p, r=args.r, k=args.k, n=args.n)

    def compute():
        return _lib.poincare_polynomial(_params(args)).to_pairs()

    return request, _cached(cache, request, compute)


def _poly_text(args, pairs) -> str:
    return _lib.TPolynomial.from_pairs(pairs).text()


def _series_text(args, payload) -> str:
    return "\n".join(
        f"q^{item['q']}: {_poly_text(args, item['poly'])}" for item in payload
    )


def _cmd_series(args, cache):
    """`series` and `hilbert`; only a `series` request names its method."""
    if args.max_order > MAX_ORDER:
        raise ValueError(f"--max-order must be at most {MAX_ORDER}, got {args.max_order}")
    request = _request(args.subcommand, p=args.p, max_order=args.max_order)
    name = "hilbert_series_r1"
    if args.subcommand == "series":
        request["method"] = args.method
        name = f"rank2_series_{args.method}"

    def compute():
        return getattr(_lib, name)(args.p, args.max_order).to_json()

    return request, _cached(cache, request, compute)


def _cmd_ale(args, cache):
    request = _request("ale", r=args.r, n=args.n, ordering="ale")

    def compute():
        return _lib.ale_poincare(args.r, args.n).to_pairs()

    if not args.points:
        return request, _cached(cache, request, compute)
    request["points"] = True
    ordering = _lib.ale_ordering(args.r)
    points = [
        _character_record(
            {"tableaux": [t.to_json() for t in point]}, _lib.ale_tangent_character(point), ordering
        )
        for point in _lib.enumerate_colored_fixed_points(args.r, args.n)
    ]
    return request, {"poly": compute(), "points": points}


def _ale_text(args, payload) -> str:
    if not args.points:
        return _poly_text(args, payload)
    records = [_compact(record) for record in payload["points"]]
    return "\n".join([_poly_text(args, payload["poly"])] + records)


def _cmd_check(args, cache):
    request = _request("check", p=args.p, r=args.r, k=args.k, n=args.n)

    def compute():
        return {"nonempty": _lib.check_nonempty(_params(args))}

    return request, _cached(cache, request, compute)


def _check_text(args, payload) -> str:
    return _compact(payload)


def _sweep_text(args, rows: list[dict]) -> str:
    def text(value) -> str:
        if isinstance(value, list):  # a polynomial's pairs
            return _poly_text(args, value)
        if isinstance(value, bool):
            return "true" if value else "false"
        return "-" if value is None else str(value)

    columns = ["nonempty"] if args.mode == "check" else ["poincare"]
    if args.mode == "crosscheck":
        columns += ["ale", "match"]
    lines = ["\t".join(["p", "r", "k", "n", *columns])]
    for row in rows:
        cells = [str(row[key]) for key in ("p", "r", "k", "n")]
        if "error" in row:
            cells.append(f"error:{row['error']}")
        else:
            cells.extend(text(row[col]) for col in columns)
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _cmd_sweep(args, cache):
    cells = len(args.p) * len(args.r) * len(args.k) * len(args.n)
    if cells > MAX_CELLS:
        raise ValueError(f"the sweep grid has {cells} cells, more than {MAX_CELLS}")
    request = _request("sweep", mode=args.mode, p=args.p, r=args.r, k=args.k, n=args.n)
    rows = []
    for p, r, k, n in itertools.product(args.p, args.r, args.k, args.n):
        # a cell is a poincare, ale or check request; check cells are not cached
        cell = argparse.Namespace(p=p, r=r, k=k, n=n, points=False)
        row = {"p": p, "r": r, "k": k, "n": n}
        try:
            if args.mode == "check":
                row.update(_cmd_check(cell, None)[1])
            else:
                row["poincare"] = _cmd_poincare(cell, cache)[1]
            if args.mode == "crosscheck":  # the ALE oracle exists at p=2, k=0 mod r
                ale = _cmd_ale(cell, cache)[1] if p == 2 and k % r == 0 else None
                row["ale"] = ale
                row["match"] = "n/a" if ale is None else ale == row["poincare"]
        except ValueError as exc:  # bad input for this cell, such as p = 0
            row["error"] = str(exc)
        rows.append(row)
    return request, rows


def _write_stdout(text: str) -> None:
    """Print text and flush.  If stdout cannot take it (a closed pipe, a full
    disk), point its descriptor at os.devnull before the error propagates, so
    the flush at interpreter shutdown raises no second error."""
    try:
        print(text, flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _common(parser) -> None:
    """The flags that every subcommand takes, first of its options."""
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    parser.add_argument(
        "--cache-dir", help=f"result cache directory (default: ${CACHE_ENV_VAR} if set)"
    )
    parser.add_argument(
        "--timing", action="store_true", help="report elapsed milliseconds on stderr"
    )


def _moduli(parser) -> None:
    """--p, --r, --k and --n of one moduli space."""
    parser.add_argument("--p", type=int, required=True, help="Hirzebruch surface degree")
    parser.add_argument("--r", type=int, required=True, help="sheaf rank")
    parser.add_argument("--k", type=int, required=True, help="first Chern datum")
    parser.add_argument("--n", type=_rational, required=True, help="second Chern datum, a or a/b")


def _fixed_points_args(parser) -> None:
    _moduli(parser)
    help_ = "list reduced fixed loci with Morse index and component factor"
    parser.add_argument("--reduced", action="store_true", help=help_)


def _tangent_args(parser) -> None:
    _moduli(parser)
    parser.add_argument("--reduced", action="store_true", help="reduced characters")
    help_ = "read fixed-point records from FILE ('-' for stdin) instead of enumerating"
    parser.add_argument("--fixed-points", metavar="FILE", help=help_)


def _hilbert_args(parser, p_default=1) -> None:
    """--p and --max-order; `series` requires its --p (`p_default` None)."""
    parser.add_argument(
        "--p", type=int, default=p_default, required=p_default is None,
        help="Hirzebruch surface degree",
    )
    help_ = f"q-truncation order, at most {MAX_ORDER}"
    parser.add_argument("--max-order", type=int, default=5, help=help_)


def _series_args(parser) -> None:
    _hilbert_args(parser, None)
    help_ = "closed product/bracket form or term-by-term summation"
    parser.add_argument("--method", choices=("closed", "direct"), default="closed", help=help_)


def _ale_args(parser) -> None:
    parser.add_argument("--r", type=int, required=True, help="instanton rank")
    parser.add_argument("--n", type=_rational, required=True, help="instanton number, a or a/b")
    help_ = "also list fixed points with characters and indexes"
    parser.add_argument("--points", action="store_true", help=help_)


def _sweep_args(parser) -> None:
    parser.description = "A list that starts with '-' needs '=', as in --k=-1,0."
    modes = ("poincare", "check", "crosscheck")
    parser.add_argument("--mode", choices=modes, required=True, help="what to compute per cell")
    parser.add_argument("--p", type=_list_of(int), required=True, help="e.g. 1,2 or 1..3")
    parser.add_argument("--r", type=_list_of(int), required=True)
    parser.add_argument("--k", type=_list_of(int), required=True, help="e.g. 0,1 or --k=-1,0")
    help_ = "e.g. 0..4 or --n=-1/2,0,1"
    parser.add_argument("--n", type=_list_of(_rational), required=True, help=help_)


# Each subcommand's summary, handler, text renderer and the function that adds
# its options after the common ones.  A request builds its own parser only.
COMMANDS = {
    "fixed-points": ("list torus fixed points", _cmd_fixed_points, _records_text,
                     _fixed_points_args),
    "tangent": ("tangent characters at fixed points", _cmd_tangent, _records_text,
                _tangent_args),
    "poincare": ("Poincare polynomial of a moduli space", _cmd_poincare, _poly_text, _moduli),
    "series": ("rank-2, k=0 generating series", _cmd_series, _series_text, _series_args),
    "hilbert": ("rank-1 (Hilbert scheme) generating series", _cmd_series, _series_text,
                _hilbert_args),
    "ale": ("A1 orbifold Poincare polynomial", _cmd_ale, _ale_text, _ale_args),
    "check": ("decide whether the moduli space is nonempty", _cmd_check, _check_text, _moduli),
    "sweep": ("run a parameter grid", _cmd_sweep, _sweep_text, _sweep_args),
}


def _top_parser():
    """The parser of --help, --version and the subcommand's name; it hands the
    name and all that follows it to that subcommand, with no extras."""
    top = argparse.ArgumentParser(
        prog="hirzebruch",
        description="Exact fixed-point data and Poincare polynomials of framed-sheaf "
        "moduli on\nHirzebruch surfaces, with an A1 orbifold cross-check.",
        epilog="subcommands:\n"
        + "\n".join(f"  {name:<14}{row[0]}" for name, row in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--version", action="version", version=__version__)
    top.add_argument(
        "subcommand", nargs=argparse.PARSER, choices=COMMANDS,
        help="one of the subcommands below, then its options",
    )
    return top


def _parse(argv):
    """The options of a command line (None: sys.argv[1:]), with its subcommand's
    handler and renderer.  A line that starts with a subcommand's name goes
    straight to that subcommand's parser, as the top-level parser would send
    it; only --help, --version and bad lines build the top-level one."""
    argv = sys.argv[1:] if argv is None else argv
    extras = []
    if not argv or argv[0] not in COMMANDS:
        known, extras = _top_parser().parse_known_args(argv)
        argv = known.subcommand
    name, *rest = argv
    _, handler, render, add_arguments = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"hirzebruch {name}")
    _common(parser)
    add_arguments(parser)
    args, more = parser.parse_known_args(rest)
    if extras or more:  # after the subcommand's own errors and --help, as subparsers do
        _top_parser().error(f"unrecognized arguments: {' '.join(extras + more)}")
    args.subcommand = name
    return args, handler, render


def main(argv=None) -> int:
    args, handler, render = _parse(argv)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    started = time.monotonic()
    try:
        cache = Cache(cache_dir) if cache_dir else None
        request, payload = handler(args, cache)
        if args.format == "json":
            output = _indented({"request": request, "result": payload, "version": __version__})
        else:
            output = render(args, payload)
        _write_stdout(output)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        elapsed = int(1000 * (time.monotonic() - started))
        print(f"timing_ms={elapsed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
