"""Command-line front end.

Three subcommands: verify (classifier sweep + extension + dilatation
certification), chain (evolution-family checks), render (PPM images).
Reports go to --out or stdout; all numeric work happens in the library, so
this file is flag plumbing and exit-code policy only.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from .corpus import THEOREMS, builtin_ids
from .errors import PreconditionError
from .loewner import ChainSingularityError
from .mapexpr import MapExprError, ParseError, eval_array, parse_map
from .render import STYLE_NAMES, render_map, write_ppm
from .report import EXIT_SINGULAR, EXIT_USAGE, _resolve_source, run_chain, run_verify
from .version import VERSION


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or ():
        name, eq, val = item.partition("=")
        if not eq or not name.strip():
            raise ValueError(f"--param expects name=value, got {item!r}")
        try:
            out[name.strip()] = complex(val.strip())
        except ValueError:
            raise ValueError(f"unreadable parameter value in {item!r}") from None
    return out


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", dest="map_text", help="map expression in grammar text")
    p.add_argument("--builtin", choices=sorted(builtin_ids()), help="corpus map id")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a builtin parameter (repeatable)",
    )


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", help="sampling resolution NRxNT")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so identical runs are byte-identical",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcext",
        description="verify quasiconformal extensions of univalent maps",
    )
    ap.add_argument("--version", action="version", version=f"qcext {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="classify a map, extend it, certify the bound")
    _add_source_flags(v)
    v.add_argument("--theorem", choices=THEOREMS, help="which extension to build")
    _add_report_flags(v)
    v.add_argument("--image", help="also render the extension to this PPM file")
    v.add_argument("--style", choices=STYLE_NAMES, default="domaincolor")

    c = sub.add_parser("chain", help="check the evolution family for a map")
    _add_source_flags(c)
    c.add_argument("--chain", dest="chain_kind", help="chain kind (thm2, eq7a1, ...)")
    c.add_argument("--tmax", type=float)
    _add_report_flags(c)

    r = sub.add_parser("render", help="rasterize a map to a PPM image")
    _add_source_flags(r)
    r.add_argument("--image", required=True, help="output PPM path")
    r.add_argument("--style", choices=STYLE_NAMES, default="grid")
    r.add_argument("--resolution", type=int, default=512)
    r.add_argument("--window", type=float, default=2.5)
    return ap


def _emit(report, args) -> None:
    body = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body if body.endswith("\n") else body + "\n")
    else:
        sys.stdout.write(body if body.endswith("\n") else body + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # warnings follow the output, one line each, with no source path
    with warnings.catch_warnings(record=True) as caught:
        try:
            params = _parse_params(args.param)
            if args.command == "verify":
                report, code = run_verify(
                    map_text=args.map_text,
                    builtin=args.builtin,
                    theorem=args.theorem,
                    params=params,
                    grid=args.grid,
                    no_timestamp=args.no_timestamp,
                )
                _emit(report, args)
                if args.image:
                    write_ppm(
                        args.image,
                        render_map(report.extended_map.evaluate_array, args.style),
                    )
                return code
            if args.command == "chain":
                report, code = run_chain(
                    map_text=args.map_text,
                    builtin=args.builtin,
                    chain=args.chain_kind,
                    params=params,
                    tmax=args.tmax,
                    grid=args.grid,
                    no_timestamp=args.no_timestamp,
                )
                _emit(report, args)
                return code
            # render
            _, _, text = _resolve_source(args.map_text, args.builtin, params)
            f = parse_map(text)
            rgb = render_map(
                lambda Z: eval_array(f, Z), args.style, args.resolution, args.window
            )
            write_ppm(args.image, rgb)
            return 0
        except (ParseError, PreconditionError, ValueError, OSError) as exc:
            print(f"qcext: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ChainSingularityError as exc:
            print(f"qcext: singularity: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        except (ArithmeticError, MapExprError) as exc:
            print(f"qcext: numerical failure: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        finally:
            for w in caught:
                print(f"qcext: warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
