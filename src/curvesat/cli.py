"""Command line interface.

`analyze` runs the full pipeline on one curve, `suite` sweeps the
catalog plus random arrangements, `catalog list` shows the fixtures.
Exit codes: 0 success, 1 suite property failure, 2 rejected input
text, 3 non-reduced curve, 4 any other computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .analysis import analyze, analyze_catalog, emit_json
from .errors import CurvesatError, NonReducedInputError, ParseError
from .parsing import parse_arrangement, parse_poly
from .suite import property_names, run_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_PARSE = 2
EXIT_NONREDUCED = 3
EXIT_INTERNAL = 4


def _count(text: str) -> int:
    """A non-negative integer argument."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvesat",
        description="Exact Jacobian syzygies, saturation, and freeness "
                    "classification for plane curves over the rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a single curve")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="EXPR",
                     help="homogeneous polynomial in x, y, z")
    src.add_argument("--arrangement", metavar="FILE",
                     help="file with one linear form per line")
    src.add_argument("--catalog", metavar="NAME",
                     help="built-in fixture name")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--timing", action="store_true",
                    help="include wall-clock phase times in the report")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("suite", help="run the property suite")
    ps.add_argument("--random", type=_count, default=25, metavar="N",
                    help="number of random arrangements (default 25)")
    ps.add_argument("--seed", type=int, default=0,
                    help="seed for the random arrangements")
    ps.add_argument("--only", action="append", choices=property_names(),
                    metavar="PROPERTY",
                    help="restrict to one property (repeatable)")
    ps.add_argument("--format", choices=("text", "json"), default="text")
    ps.set_defaults(func=_cmd_suite)

    pc = sub.add_parser("catalog", help="inspect built-in fixtures")
    pc.add_argument("action", choices=("list",))
    pc.set_defaults(func=_cmd_catalog)

    return parser


def _cmd_analyze(args) -> int:
    if args.catalog is not None:
        report = analyze_catalog(args.catalog, timing=args.timing)
    elif args.arrangement is not None:
        with open(args.arrangement, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args.arrangement} is not UTF-8 text "
                                 f"(byte {exc.start})") from None
        report = analyze(parse_arrangement(text), timing=args.timing)
    else:
        report = analyze(parse_poly(args.poly), timing=args.timing)
    if args.format == "json":
        sys.stdout.write(emit_json(report))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def _cmd_suite(args) -> int:
    result = run_suite(random_count=args.random, seed=args.seed,
                       only=tuple(args.only) if args.only else None)
    if args.format == "json":
        text = json.dumps(result.to_jsonable(), indent=2, sort_keys=True)
        sys.stdout.write(text + "\n")
    else:
        for line in result.summary_lines():
            print(line)
    return EXIT_OK if result.ok else EXIT_SUITE_FAIL


def _cmd_catalog(args) -> int:
    width = max(len(n) for n in catalog.names())
    for name in catalog.names():
        e = catalog.entry(name)
        print(f"{name:<{width}}  {e.kind:<11}  {e.note}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonReducedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONREDUCED
    except (CurvesatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
