"""Command-line interface.

    vslcontrol run     --preset paper-sec5-free --out results/
    vslcontrol run     --config my.ini [--strict | --override]
    vslcontrol certify --preset paper-sec5-fixed
    vslcontrol compare results/free_inlet results/free_inlet/oracle

`run` exits 0 on success, 1 if a runtime invariant check failed, 2 on
configuration, usage, solver, memory or file-system errors (an error line,
no traceback); a failed write leaves a law directory without metadata.json.
`certify` exits 0 when the config parses and its road, set point and
diagram lie in the domain, 2 otherwise; it reports failed conditions
whatever [controller] mode says, so only `run` takes --strict/--override.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import runner
from .config import load_config, preset, with_overrides
from .errors import VslControlError


def _add_config_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", metavar="PATH", help="INI configuration file")
    src.add_argument("--preset", metavar="NAME",
                     help="bundled preset (paper-sec5-free, paper-sec5-fixed, paper-fig7)")


def _load(args: argparse.Namespace):
    return load_config(args.config) if args.config else preset(args.preset)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and kept for the
    process: parse_args leaves a parser as it found it."""
    parser = argparse.ArgumentParser(
        prog="vslcontrol",
        description="Variable-speed-limit feedback for the LWR traffic model: "
                    "certify gains, simulate the closed loop, emit CSV traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate the configured law(s) and write traces")
    _add_config_options(run_p)
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="require every gain condition to hold")
    mode.add_argument("--override", action="store_true",
                      help="proceed with uncertified gains (checks still run)")
    run_p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides [output] directory)")

    cert_p = sub.add_parser("certify", help="evaluate the gain conditions, no simulation")
    _add_config_options(cert_p)

    cmp_p = sub.add_parser("compare", help="sup-norm gaps between two run directories")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args)
            if args.strict or args.override:
                cfg = with_overrides(cfg, mode="strict" if args.strict else "override")
            result = runner.run(cfg, args.out)
            for lr in result.laws:
                state = "ok" if lr.passed else "INVARIANT VIOLATION"
                print(f"{lr.law}: {state} ({lr.directory})")
                for check in lr.checks:
                    if not check.passed:
                        print(f"  {check}")
            return result.exit_code
        if args.command == "certify":
            print(runner.certify(_load(args)), end="")
            return 0
        comp = runner.compare_runs(args.dir_a, args.dir_b)
        print(f"max density gap: {comp.max_density_gap!r}")
        print(f"max control gap: {comp.max_control_gap!r}")
        return 0
    except (VslControlError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
