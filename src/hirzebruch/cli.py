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
import json
import os
import re
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .ale import ale_index, ale_tangent_character, ale_poincare, enumerate_colored_fixed_points
from .counting import (
    check_nonempty,
    enumerate_fixed_points,
    enumerate_reduced_fixed_points,
    hilbert_series_r1,
    indexed_points,
    poincare_polynomial,
    rank2_series_closed,
    rank2_series_direct,
)
from .laurent import TPolynomial, ale_ordering, main_ordering
from .localization import (
    FixedPointDatum,
    InvariantError,
    ModuliParams,
    ReducedFixedPointDatum,
    reduced_tangent_character,
    tangent_character,
)

CACHE_ENV_VAR = "HIRZEBRUCH_CACHE_DIR"
# The work of a series grows about as the cube of its order; at p = 1 and
# order 50, `series --method direct` takes 1.3 s and `hilbert` 0.2 s.
MAX_ORDER = 50

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_RANGE = re.compile(r"^([+-]?\d+)\.\.([+-]?\d+)$")


def _rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer or a fraction a/b, got {text!r}"
        )
    return Fraction(text)


def _list_of(convert):
    """An argparse type: comma-separated `convert` values and integer ranges a..b."""

    def parse(text: str) -> list:
        out = []
        for token in text.split(","):
            token = token.strip()
            matched = _RANGE.match(token)
            if matched:
                lo, hi = int(matched.group(1)), int(matched.group(2))
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
    return main_ordering(rank) if name == "main" else ale_ordering(rank)


def _params(args) -> ModuliParams:
    return ModuliParams(args.p, args.r, args.k, args.n)


def _poincare_payload(cache, p: int, r: int, k: int, n: Fraction):
    request = _request("poincare", p=p, r=r, k=k, n=n)
    return request, _cached(
        cache,
        request,
        lambda: poincare_polynomial(ModuliParams(p, r, k, n)).to_pairs(),
    )


def _ale_payload(cache, r: int, n: Fraction, ordering_name: str):
    request = _request("ale", r=r, n=n, ordering=ordering_name)
    return request, _cached(
        cache,
        request,
        lambda: ale_poincare(r, n, _ordering(ordering_name, r)).to_pairs(),
    )


def _cmd_fixed_points(args, cache):
    params = _params(args)
    request = _request(
        "fixed-points", p=args.p, r=args.r, k=args.k, n=args.n, reduced=args.reduced
    )
    if args.reduced:
        payload = [point.to_json() for point in indexed_points(params)]
    else:
        payload = [fp.to_json() for fp in enumerate_fixed_points(params)]
    return request, payload


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
    params = _params(args)
    request = _request(
        "tangent", p=args.p, r=args.r, k=args.k, n=args.n,
        reduced=args.reduced, ordering=args.ordering,
    )
    if args.fixed_points:
        records = _load_fixed_point_records(args.fixed_points)
        if args.reduced:
            points = [ReducedFixedPointDatum.from_json(r) for r in records]
        else:
            points = [FixedPointDatum.from_json(r) for r in records]
    elif args.reduced:
        points = list(enumerate_reduced_fixed_points(params))
    else:
        points = list(enumerate_fixed_points(params))
    if args.reduced:
        ordering = _ordering(args.ordering, params.r)
        records = [
            _character_record(point, reduced_tangent_character(params, point), ordering)
            for point in points
        ]
    else:
        records = [_character_record(fp, tangent_character(params, fp)) for fp in points]
    return request, records


def _cmd_poincare(args, cache):
    return _poincare_payload(cache, args.p, args.r, args.k, args.n)


def _poly_text(args, pairs) -> str:
    return TPolynomial.from_pairs(pairs).text()


def _series_text(args, payload) -> str:
    return "\n".join(
        f"q^{item['q']}: {TPolynomial.from_pairs(item['poly']).text()}"
        for item in payload
    )


def _max_order(args) -> int:
    if args.max_order > MAX_ORDER:
        raise ValueError(f"--max-order must be at most {MAX_ORDER}, got {args.max_order}")
    return args.max_order


def _cmd_series(args, cache):
    order = _max_order(args)
    request = _request("series", p=args.p, max_order=order, method=args.method)
    fn = rank2_series_closed if args.method == "closed" else rank2_series_direct
    return request, _cached(cache, request, lambda: fn(args.p, order).to_json())


def _cmd_hilbert(args, cache):
    order = _max_order(args)
    request = _request("hilbert", p=args.p, max_order=order)
    return request, _cached(
        cache, request, lambda: hilbert_series_r1(args.p, order).to_json()
    )


def _cmd_ale(args, cache):
    if args.points:
        request = _request("ale", r=args.r, n=args.n, ordering=args.ordering, points=True)
        ordering = _ordering(args.ordering, args.r)
        points = [
            _character_record(fp, ale_tangent_character(fp), ordering)
            for fp in enumerate_colored_fixed_points(args.r, args.n)
        ]
        poly = TPolynomial(Counter(2 * record["index"] for record in points))
        return request, {"poly": poly.to_pairs(), "points": points}
    return _ale_payload(cache, args.r, args.n, args.ordering)


def _ale_text(args, payload) -> str:
    if not args.points:
        return _poly_text(args, payload)
    records = [_compact(record) for record in payload["points"]]
    return "\n".join([_poly_text(args, payload["poly"])] + records)


def _cmd_check(args, cache):
    request = _request("check", p=args.p, r=args.r, k=args.k, n=args.n)
    return request, _cached(
        cache, request, lambda: {"nonempty": check_nonempty(_params(args))}
    )


def _check_text(args, payload) -> str:
    return _compact(payload)


def _sweep_cell(mode: str, cache, p: int, r: int, k: int, n: Fraction) -> dict:
    row = {"p": p, "r": r, "k": k, "n": str(n)}
    try:
        if mode == "poincare":
            _, pairs = _poincare_payload(cache, p, r, k, n)
            row["poincare"] = pairs
        elif mode == "check":
            row["nonempty"] = check_nonempty(ModuliParams(p, r, k, n))
        else:  # crosscheck applies where the orbifold oracle exists: p=2, k=0 mod r
            _, pairs = _poincare_payload(cache, p, r, k, n)
            row["poincare"] = pairs
            if p == 2 and k % r == 0:
                _, ale_pairs = _ale_payload(cache, r, n, "ale")
                row["ale"] = ale_pairs
                row["match"] = ale_pairs == pairs
            else:
                row["ale"] = None
                row["match"] = "n/a"
    except ValueError as exc:  # bad input for this cell, such as p = 0
        row["error"] = str(exc)
    return row


def _sweep_text(args, rows: list[dict]) -> str:
    columns = {
        "poincare": ["p", "r", "k", "n", "poincare"],
        "check": ["p", "r", "k", "n", "nonempty"],
        "crosscheck": ["p", "r", "k", "n", "poincare", "ale", "match"],
    }[args.mode]
    lines = ["\t".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            if "error" in row and col not in ("p", "r", "k", "n"):
                cells.append(f"error:{row['error']}")
                break
            value = row.get(col)
            if col in ("poincare", "ale"):
                value = (
                    TPolynomial.from_pairs(value).text() if value is not None else "-"
                )
            elif isinstance(value, bool):
                value = "true" if value else "false"
            cells.append(str(value))
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _cmd_sweep(args, cache):
    request = _request("sweep", mode=args.mode, p=args.p, r=args.r, k=args.k, n=args.n)
    rows = [
        _sweep_cell(args.mode, cache, p, r, k, n)
        for p in args.p
        for r in args.r
        for k in args.k
        for n in args.n
    ]
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

    parser = argparse.ArgumentParser(
        prog="hirzebruch",
        description="Exact fixed-point data and Poincare polynomials of framed-sheaf "
        "moduli on Hirzebruch surfaces, with an A1 orbifold cross-check.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def moduli_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=int, required=True, help="Hirzebruch surface degree")
        p.add_argument("--r", type=int, required=True, help="sheaf rank")
        p.add_argument("--k", type=int, required=True, help="first Chern datum")
        p.add_argument(
            "--n", type=_rational, required=True, help="second Chern datum, a or a/b"
        )

    order_help = f"q-truncation order, at most {MAX_ORDER}"

    fp = sub.add_parser(
        "fixed-points", parents=[common], help="list torus fixed points"
    )
    moduli_flags(fp)
    fp.add_argument(
        "--reduced",
        action="store_true",
        help="list reduced fixed loci with Morse index and component factor",
    )
    fp.set_defaults(handler=_cmd_fixed_points, render=_records_text)

    tg = sub.add_parser(
        "tangent", parents=[common], help="tangent characters at fixed points"
    )
    moduli_flags(tg)
    tg.add_argument("--reduced", action="store_true", help="reduced characters")
    tg.add_argument(
        "--fixed-points",
        metavar="FILE",
        default=None,
        help="read fixed-point records from FILE ('-' for stdin) instead of enumerating",
    )
    tg.add_argument(
        "--ordering", choices=("main", "ale"), default="main", help="index ordering"
    )
    tg.set_defaults(handler=_cmd_tangent, render=_records_text)

    pc = sub.add_parser(
        "poincare", parents=[common], help="Poincare polynomial of a moduli space"
    )
    moduli_flags(pc)
    pc.set_defaults(handler=_cmd_poincare, render=_poly_text)

    se = sub.add_parser(
        "series", parents=[common], help="rank-2, k=0 generating series"
    )
    se.add_argument("--p", type=int, required=True, help="Hirzebruch surface degree")
    se.add_argument("--max-order", type=int, default=5, help=order_help)
    se.add_argument(
        "--method",
        choices=("closed", "direct"),
        default="closed",
        help="closed product/bracket form or term-by-term summation",
    )
    se.set_defaults(handler=_cmd_series, render=_series_text)

    hb = sub.add_parser(
        "hilbert", parents=[common], help="rank-1 (Hilbert scheme) generating series"
    )
    hb.add_argument("--p", type=int, default=1, help="Hirzebruch surface degree")
    hb.add_argument("--max-order", type=int, default=5, help=order_help)
    hb.set_defaults(handler=_cmd_hilbert, render=_series_text)

    al = sub.add_parser(
        "ale", parents=[common], help="A1 orbifold Poincare polynomial"
    )
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
    al.set_defaults(handler=_cmd_ale, render=_ale_text)

    ck = sub.add_parser(
        "check", parents=[common], help="decide whether the moduli space is nonempty"
    )
    moduli_flags(ck)
    ck.set_defaults(handler=_cmd_check, render=_check_text)

    sw = sub.add_parser(
        "sweep", parents=[common], help="run a parameter grid",
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
    sw.set_defaults(handler=_cmd_sweep, render=_sweep_text)

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
