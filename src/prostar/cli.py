"""Command-line front door: run scenarios, generate examples, validate files.

Exit status contract for `run`: 0 all tasks pass, 1 verification failure,
2 parse/validation error or an output that cannot be written, 3 numerical
failure. `validate` exits 0/2.
Only the optional NO_COLOR environment variable is consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .examples_gen import RECIPES, generate_example
from .report import Report
from .scenario import ScenarioError, load_scenario, run_scenario


def _integer(least: int, kind: str):
    """An argparse type: an integer of at least `least`, else exit 2 with a message."""

    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return int(text)

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prostar",
        description=(
            "Construct and certify covariant dilations, crossed products, and "
            "inverse-limit towers at finite-dimensional scale."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and emit a certified report")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--output", default=None, help="base path for report files")
    run_p.add_argument("--tolerance", type=float, default=None, help="override tolerance (default 1e-10)")
    run_p.add_argument("--seed", type=int, default=None, help="override seed (default 0)")
    run_p.add_argument("--jobs", type=_integer(1, "positive"), default=None,
                       help="threads to run tasks on (default 1: serial)")
    run_p.add_argument("--format", choices=("text", "json", "both"), default="text")

    ex_p = sub.add_parser("example", help="emit a ready-made scenario")
    ex_p.add_argument("recipe", choices=RECIPES, help="example recipe name")
    ex_p.add_argument("--seed", type=_integer(0, "non-negative"), default=0)
    ex_p.add_argument("--output", default=None, help="write the scenario here instead of stdout")

    val_p = sub.add_parser("validate", help="parse and type-check a scenario without running it")
    val_p.add_argument("--scenario", required=True)
    val_p.add_argument("--tolerance", type=float, default=None)
    val_p.add_argument("--seed", type=int, default=None)
    return parser


def _want_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _emit_report(report: Report, output: str | None, fmt: str) -> None:
    """Write the report in `fmt`, rendering only what is written: to stdout, or
    to OUTPUT.json / OUTPUT.txt with the text on stdout as well."""
    if output is None:
        if fmt in ("text", "both"):
            sys.stdout.write(report.to_text(color=_want_color()))
        if fmt in ("json", "both"):
            sys.stdout.write(report.to_json() + "\n")
        return
    if fmt in ("json", "both"):
        path = output if output.endswith(".json") else output + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    text = report.to_text(color=False)
    if fmt in ("text", "both"):
        path = output if output.endswith(".txt") else output + ".txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _cannot_write(err: OSError) -> int:
    sys.stderr.write(f"cannot write {err.filename}: {err.strerror}\n")
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "example":
        doc = generate_example(args.recipe, args.seed)
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as err:
                return _cannot_write(err)
        else:
            sys.stdout.write(payload)
        return 0

    if args.command == "validate":
        try:
            load_scenario(args.scenario, tolerance=args.tolerance, seed=args.seed)
        except ScenarioError as err:
            sys.stderr.write(f"invalid scenario: {err}\n")
            return 2
        sys.stdout.write("scenario is valid\n")
        return 0

    # run
    try:
        scn = load_scenario(args.scenario, tolerance=args.tolerance, seed=args.seed)
    except ScenarioError as err:
        sys.stderr.write(f"invalid scenario: {err}\n")
        return 2
    report = run_scenario(scn, jobs=args.jobs, scenario_path=args.scenario)
    try:
        _emit_report(report, args.output, args.format)
    except OSError as err:
        return _cannot_write(err)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
