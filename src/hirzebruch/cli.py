"""Command-line interface.

Exit codes: 0 on success (an empty moduli space is a successful result),
2 on malformed input, 3 on an internal invariant violation (which would
signal a bug in the formulas, or an internally inconsistent fixed-point
record supplied by the caller).

JSON output is a deterministic envelope {request, result, version}:
identical requests against the same version produce identical bytes.
Timing is reported on stderr (with --timing) so stdout stays canonical.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import sys
import tempfile
import time
from collections import Counter

# The math layers are imported by the functions that call them, so a cache
# hit, --help and --version load none of them.
from . import InvariantError, __version__

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

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_RANGE = re.compile(r"^([+-]?\d+)\.\.([+-]?\d+)$")


def __getattr__(name: str):
    # Code outside the package that reads a public name through this module,
    # such as `cli.poincare_polynomial`, gets the package's current binding.
    # The handlers never use this: they import what they call.
    return getattr(sys.modules[__package__], name)


def _rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer or a fraction a/b, got {text!r}"
        )
    # imported here, so that requests which parse no --n never load fractions
    from fractions import Fraction

    return Fraction(text)


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
    """The JSON request of a subcommand, with n (sweep: every n) as exact text."""
    n = fields.get("n")
    if n is not None:
        fields["n"] = [str(x) for x in n] if isinstance(n, list) else str(n)
    return {"subcommand": subcommand, **fields}


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _digest(result) -> str:
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
        blob = json.dumps({"version": __version__, "request": request}, sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        return os.path.join(self.root, f"{digest}.json")

    def get(self, request: dict):
        """The stored result, or None when the entry is absent, unreadable or
        does not match its digest."""
        try:
            with open(self._path(request), encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        result = entry.get("result")
        return result if entry.get("digest") == _digest(result) else None

    def put(self, request: dict, payload) -> None:
        path = self._path(request)
        blob = json.dumps(
            {
                "version": __version__,
                "request": request,
                "result": payload,
                "digest": _digest(payload),
            },
            sort_keys=True,
        )
        # unique temp name so concurrent writers never share a partial file
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.root, suffix=".tmp", delete=False, encoding="utf-8"
        )
        with handle:
            handle.write(blob)
        os.replace(handle.name, path)


def _cached(cache: Cache | None, request: dict, compute):
    if cache is not None:
        hit = cache.get(request)
        if hit is not None:
            return hit
    payload = compute()
    if cache is not None:
        cache.put(request, payload)
    return payload


def _ordering(name: str, rank: int):
    from .laurent import ale_ordering, main_ordering

    return main_ordering(rank) if name == "main" else ale_ordering(rank)


def _check_rank(r: int) -> None:
    if r > MAX_RANK:
        raise ValueError(f"--r must be at most {MAX_RANK}, got {r}")


def _params(args) -> ModuliParams:
    from .localization import ModuliParams

    return ModuliParams(args.p, args.r, args.k, args.n)


def _cmd_fixed_points(args, cache):
    from .counting import enumerate_fixed_points, indexed_points

    _check_rank(args.r)
    params = _params(args)
    request = _request(
        "fixed-points", p=args.p, r=args.r, k=args.k, n=args.n, reduced=args.reduced
    )
    points = indexed_points(params) if args.reduced else enumerate_fixed_points(params)
    return request, [point.to_json() for point in points]


def _records_text(args, records) -> str:
    return "\n".join(_compact(record) for record in records)


def _load_fixed_point_records(source: str) -> list:
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


def _character_record(point, x, ordering=None) -> dict:
    """A fixed point with its tangent character x, x's dimension and, given an
    ordering, its index."""
    record = {
        "fixed_point": point.to_json(),
        "character": x.to_json(),
        "dimension": x.dimension(),
    }
    if ordering is not None:
        record["index"] = x.negative_count(ordering)
    return record


def _cmd_tangent(args, cache):
    from .counting import enumerate_fixed_points, enumerate_reduced_fixed_points
    from .localization import (
        FixedPointDatum,
        ReducedFixedPointDatum,
        reduced_tangent_character,
        tangent_character,
    )

    _check_rank(args.r)
    params = _params(args)
    request = _request(
        "tangent", p=args.p, r=args.r, k=args.k, n=args.n,
        reduced=args.reduced, ordering=args.ordering,
    )
    if args.reduced:
        datum, character = ReducedFixedPointDatum, reduced_tangent_character
        enumerate_points = enumerate_reduced_fixed_points
        ordering = _ordering(args.ordering, params.r)
    else:
        datum, character = FixedPointDatum, tangent_character
        enumerate_points, ordering = enumerate_fixed_points, None
    if args.fixed_points:
        records = _load_fixed_point_records(args.fixed_points)
        points = [datum.from_json(record) for record in records]
    else:
        points = list(enumerate_points(params))
    return request, [
        _character_record(point, character(params, point), ordering) for point in points
    ]


def _cmd_poincare(args, cache):
    _check_rank(args.r)
    request = _request("poincare", p=args.p, r=args.r, k=args.k, n=args.n)

    def compute():
        from .counting import poincare_polynomial

        return poincare_polynomial(_params(args)).to_pairs()

    return request, _cached(cache, request, compute)


def _poly_text(args, pairs) -> str:
    from .laurent import TPolynomial

    return TPolynomial.from_pairs(pairs).text()


def _series_text(args, payload) -> str:
    return "\n".join(
        f"q^{item['q']}: {_poly_text(args, item['poly'])}" for item in payload
    )


def _cmd_series(args, cache):
    """`series` and `hilbert`; only a `series` request names its method."""
    if args.max_order > MAX_ORDER:
        raise ValueError(f"--max-order must be at most {MAX_ORDER}, got {args.max_order}")
    request = _request(args.subcommand, p=args.p, max_order=args.max_order)
    if args.subcommand == "series":
        request["method"] = args.method

    def compute():
        from .counting import hilbert_series_r1, rank2_series_closed, rank2_series_direct

        if args.subcommand == "hilbert":
            fn = hilbert_series_r1
        else:
            fn = rank2_series_closed if args.method == "closed" else rank2_series_direct
        return fn(args.p, args.max_order).to_json()

    return request, _cached(cache, request, compute)


def _cmd_ale(args, cache):
    _check_rank(args.r)
    request = _request("ale", r=args.r, n=args.n, ordering=args.ordering)

    def compute():
        from .ale import ale_poincare

        return ale_poincare(args.r, args.n, _ordering(args.ordering, args.r)).to_pairs()

    if not args.points:
        return request, _cached(cache, request, compute)
    from .ale import ale_tangent_character, enumerate_colored_fixed_points
    from .laurent import TPolynomial

    request["points"] = True
    ordering = _ordering(args.ordering, args.r)
    points = [
        _character_record(fp, ale_tangent_character(fp), ordering)
        for fp in enumerate_colored_fixed_points(args.r, args.n)
    ]
    poly = TPolynomial(Counter(2 * record["index"] for record in points))
    return request, {"poly": poly.to_pairs(), "points": points}


def _ale_text(args, payload) -> str:
    if not args.points:
        return _poly_text(args, payload)
    records = [_compact(record) for record in payload["points"]]
    return "\n".join([_poly_text(args, payload["poly"])] + records)


def _cmd_check(args, cache):
    _check_rank(args.r)
    request = _request("check", p=args.p, r=args.r, k=args.k, n=args.n)

    def compute():
        from .counting import check_nonempty

        return {"nonempty": check_nonempty(_params(args))}

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
        cell = argparse.Namespace(p=p, r=r, k=k, n=n, ordering="ale", points=False)
        row = {"p": p, "r": r, "k": k, "n": str(n)}
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


def build_parser() -> argparse.ArgumentParser:
    # Flags shared by several subcommands live on parent parsers: argparse
    # builds them once, instead of once per subcommand that takes them.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: ${CACHE_ENV_VAR} if set)",
    )
    common.add_argument(
        "--timing", action="store_true", help="report elapsed milliseconds on stderr"
    )
    moduli = argparse.ArgumentParser(add_help=False)
    moduli.add_argument("--p", type=int, required=True, help="Hirzebruch surface degree")
    moduli.add_argument("--r", type=int, required=True, help="sheaf rank")
    moduli.add_argument("--k", type=int, required=True, help="first Chern datum")
    moduli.add_argument(
        "--n", type=_rational, required=True, help="second Chern datum, a or a/b"
    )

    parser = argparse.ArgumentParser(
        prog="hirzebruch",
        description="Exact fixed-point data and Poincare polynomials of framed-sheaf "
        "moduli on Hirzebruch surfaces, with an A1 orbifold cross-check.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, summary: str, handler, render, *extra, **kwargs):
        child = sub.add_parser(name, parents=[common, *extra], help=summary, **kwargs)
        child.set_defaults(handler=handler, render=render)
        return child

    order_help = f"q-truncation order, at most {MAX_ORDER}"

    fp = command(
        "fixed-points", "list torus fixed points", _cmd_fixed_points, _records_text,
        moduli,
    )
    fp.add_argument(
        "--reduced",
        action="store_true",
        help="list reduced fixed loci with Morse index and component factor",
    )

    tg = command(
        "tangent", "tangent characters at fixed points", _cmd_tangent, _records_text,
        moduli,
    )
    tg.add_argument("--reduced", action="store_true", help="reduced characters")
    tg.add_argument(
        "--fixed-points",
        metavar="FILE",
        default=None,
        help="read fixed-point records from FILE ('-' for stdin) instead of enumerating",
    )
    tg.add_argument(
        "--ordering", choices=("main", "ale"), default="main",
        help="index ordering (with --reduced)",
    )

    pc = command(
        "poincare", "Poincare polynomial of a moduli space", _cmd_poincare, _poly_text,
        moduli,
    )

    se = command("series", "rank-2, k=0 generating series", _cmd_series, _series_text)
    se.add_argument("--p", type=int, required=True, help="Hirzebruch surface degree")
    se.add_argument("--max-order", type=int, default=5, help=order_help)
    se.add_argument(
        "--method",
        choices=("closed", "direct"),
        default="closed",
        help="closed product/bracket form or term-by-term summation",
    )

    hb = command(
        "hilbert", "rank-1 (Hilbert scheme) generating series", _cmd_series,
        _series_text,
    )
    hb.add_argument("--p", type=int, default=1, help="Hirzebruch surface degree")
    hb.add_argument("--max-order", type=int, default=5, help=order_help)

    al = command("ale", "A1 orbifold Poincare polynomial", _cmd_ale, _ale_text)
    al.add_argument("--r", type=int, required=True, help="instanton rank")
    al.add_argument(
        "--n", type=_rational, required=True, help="instanton number, a or a/b"
    )
    al.add_argument(
        "--ordering", choices=("main", "ale"), default="ale", help="index ordering"
    )
    al.add_argument(
        "--points",
        action="store_true",
        help="also list fixed points with characters and indexes",
    )

    ck = command(
        "check", "decide whether the moduli space is nonempty", _cmd_check, _check_text,
        moduli,
    )

    sw = command(
        "sweep", "run a parameter grid", _cmd_sweep, _sweep_text,
        description="A list that starts with '-' needs '=', as in --k=-1,0.",
    )
    sw.add_argument(
        "--mode",
        choices=("poincare", "check", "crosscheck"),
        required=True,
        help="what to compute per cell",
    )
    sw.add_argument("--p", type=_list_of(int), required=True, help="e.g. 1,2 or 1..3")
    sw.add_argument("--r", type=_list_of(int), required=True)
    sw.add_argument("--k", type=_list_of(int), required=True, help="e.g. 0,1 or --k=-1,0")
    sw.add_argument(
        "--n", type=_list_of(_rational), required=True, help="e.g. 0..4 or --n=-1/2,0,1"
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    started = time.monotonic()
    try:
        cache = Cache(cache_dir) if cache_dir else None
        request, payload = args.handler(args, cache)
        if args.format == "json":
            envelope = {"request": request, "result": payload, "version": __version__}
            output = json.dumps(envelope, sort_keys=True, indent=2)
        else:
            output = args.render(args, payload)
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
