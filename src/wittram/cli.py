"""Command-line interface.

Subcommands:
  verify          run verification suites against one extension
  witt-poly       print a universal polynomial in the canonical format
  extension-info  print the invariants of an extension

Exit codes: 0 all pass/fail-bearing suites passed, 1 at least one suite
failed, 2 configuration error (unknown extension, precision guard, bad
flags) or memory exhausted.

Each command imports the layers it runs when it runs, so ``witt-poly``
loads the symbolic layer and not the verify stack (``cohomology``,
``harness``, ``report``), and ``extension-info`` loads only the build
(``errors``, ``rings``, ``extensions``).
"""

from __future__ import annotations

import argparse
import sys

from .errors import SUITE_ORDER, ConfigError, WittramError
from .rings import is_prime
from .extensions import resolve_extension


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittram",
        description="Verification harness for Witt vector cohomology over "
                    "wildly ramified cyclic degree-p extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    _extension_flags(verify)
    verify.add_argument("--m", type=int, default=1,
                        help="Witt length minus one (vectors have m+1 components)")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--suites", default=",".join(SUITE_ORDER),
                        help="comma-separated subset of: " + ", ".join(SUITE_ORDER))
    verify.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "csv"))
    verify.add_argument("--out", default=None, help="write the report to a file")
    verify.add_argument("--max-terms", type=int, default=None,
                        help="term budget for symbolic computations")

    poly = sub.add_parser("witt-poly", help="print a universal polynomial")
    poly.add_argument("--p", type=int, required=True)
    poly.add_argument("--level", type=int, required=True)
    poly.add_argument("--arity", type=int, default=None,
                      help="number of summands (z only; defaults to p)")
    poly.add_argument("--which", required=True, choices=("z", "f", "g"))

    info = sub.add_parser("extension-info", help="print extension invariants")
    _extension_flags(info)
    return parser


def _extension_flags(cmd):
    cmd.add_argument("--extension", default=None,
                     help="built-in extension name")
    cmd.add_argument("--spec-file", default=None,
                     help="path to a JSON extension spec")
    cmd.add_argument("--precision", type=int, default=None,
                     help="precision N (default: the spec file's, else 32)")


def _pick_extension(args) -> str:
    if args.extension and args.spec_file:
        raise ConfigError("give either --extension or --spec-file, not both")
    if not args.extension and not args.spec_file:
        raise ConfigError("one of --extension or --spec-file is required")
    return args.extension or args.spec_file


def _cmd_verify(args) -> int:
    from .harness import RunConfig, run
    from .report import emit_report

    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    config = RunConfig(extension=_pick_extension(args), precision=args.precision,
                       m=args.m, trials=args.trials, seed=args.seed,
                       suites=suites, fmt=args.fmt)
    if args.max_terms is not None:
        config.max_terms = args.max_terms
    report, code = run(config)
    text = emit_report(report, args.fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _cmd_witt_poly(args) -> int:
    from .universal import (
        carry_polynomial,
        carry_residue_polynomial,
        format_polynomial,
        sum_polynomials,
    )

    p, n = args.p, args.level
    if not is_prime(p):
        raise ConfigError(f"--p must be a prime, got {p}")
    min_level = 1 if args.which == "g" else 0
    if n < min_level:
        raise ConfigError(f"--level must be >= {min_level} for --which "
                          f"{args.which}, got {n}")
    if args.which == "z":
        arity = args.arity if args.arity is not None else p
        if arity < 2:
            raise ConfigError(f"--arity must be >= 2, got {arity}")
        poly = sum_polynomials(p, n, arity)[n]
    else:
        if args.arity is not None and args.arity != p:
            raise ConfigError(f"--which {args.which} is defined for arity p only")
        if args.which == "f":
            poly = carry_polynomial(p, n)
        else:
            poly = carry_residue_polynomial(p, n)
    text = format_polynomial(poly)
    if text:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_extension_info(args) -> int:
    ext = resolve_extension(_pick_extension(args), args.precision)
    # tr(O_L) = p_K^d by Hilbert's formula, which the build checked
    d = (ext.t + 1) * (ext.p - 1) // ext.p
    sys.stdout.write(
        f"extension: {ext.name}\np: {ext.p}\ne_K: {ext.e_K}\ne_L: {ext.e_L}\n"
        f"t: {ext.t}\nd: {d}\nprecision: {ext.N}\n"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "witt-poly":
            return _cmd_witt_poly(args)
        if args.command == "extension-info":
            return _cmd_extension_info(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (WittramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
