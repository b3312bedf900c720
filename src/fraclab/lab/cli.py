"""Command line front end: one subcommand per experiment.

Usage:  fraclab [--config FILE] [--out DIR] [--seed N]
                <subcommand> [--set KEY=VALUE ...]

Config values come from the file first, then --set overrides, then the
global flags.  Every run writes report.json and series.csv into the
output directory and exits 0 only if all criteria passed, 1 if one
failed, and 2 on a configuration error or an unwritable output.  Each
criterion prints one line marked PASS, FAIL or VACUOUS (passed without
testing anything).
"""

from __future__ import annotations

import argparse
import sys

from .config import config_from_sources, read_config_file
from .experiments import (
    run_barrier,
    run_density,
    run_energy_growth,
    run_gmt_suite,
    run_iterate,
    run_levelset_convergence,
    run_sobolev_suite,
)

_COMMANDS = {
    "energy-growth": (run_energy_growth,
                      "minimize over a radius sweep and fit the growth law"),
    "density": (run_density,
                "superlevel-set volume trace and doubling constants"),
    "levelset": (run_levelset_convergence,
                 "level-band collapse across an eps sweep"),
    "gmt": (run_gmt_suite,
            "disjoint-pair interaction bounds and the projection "
            "inequality over a random corpus"),
    "sobolev": (run_sobolev_suite,
                "complement-integral bound: ball identity and corpus minimum"),
    "barrier": (run_barrier,
                "build the outer barrier and verify its estimates"),
    "iterate": (run_iterate,
                "growth-iteration check on a measured or synthetic trace"),
}


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Lattice experiments for the nonlocal phase energy.")
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides out_dir)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="seed for corpus generators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides",
                       help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_overrides(args.overrides)
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        file_values = read_config_file(args.config) if args.config else {}
        cfg = config_from_sources(args.command, file_values, overrides)
        report = _COMMANDS[args.command][0](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = report.write(cfg.out_dir)
    except OSError as exc:
        print(f"error: cannot write {cfg.out_dir!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    for crit in report.criteria:
        mark = "FAIL" if not crit.passed else "VACUOUS" if crit.vacuous else "PASS"
        print(f"[{mark}] {args.command}:{crit.name}  {crit.detail}")
    verdict = "pass" if report.passed else "fail"
    print(f"{args.command}: {verdict}  "
          f"({paths['report']}, {paths['series']})")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
