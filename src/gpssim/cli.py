"""Command-line front end.

Subcommands:

* ``run``: execute a scenario file (or the built-in default scenario) and
  emit the sample CSV.
* ``budget``: print the maximum power-off time for an RTC tolerance.
* ``snapshot-dump``: print a persisted receiver snapshot in readable form.

Exit codes: 0 on success, 1 for an invalid scenario, argument, or file
content, 2 for a file that cannot be read or written.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import frame_sync as fs
from .simharness import (
    ScenarioConfig,
    ScenarioError,
    export_report,
    read_scenario,
    render_report_csv,
    run_scenario,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpssim",
        description="Sleep/wake positioning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit sample CSV")
    p_run.add_argument("scenario", nargs="?", help="scenario file (default: built-in)")
    p_run.add_argument("--out", help="write CSV here instead of stdout")
    p_run.add_argument(
        "--arm", choices=("estimator", "hotstart", "both"), help="override arms"
    )
    p_run.add_argument("--seed", type=int, help="override the noise seed")
    p_run.add_argument("--snapshot", help="override the snapshot file path")

    p_budget = sub.add_parser("budget", help="print the allowed power-off time")
    p_budget.add_argument(
        "--ppm", required=True, help="RTC tolerance, single value or comma list"
    )
    p_budget.add_argument(
        "--margin-ms",
        default="10",
        help="alignment margin, single value or comma list (default 10)",
    )

    p_dump = sub.add_parser("snapshot-dump", help="print a snapshot file")
    p_dump.add_argument("path", help="snapshot file to read")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        config = read_scenario(args.scenario)
    else:
        config = ScenarioConfig()
    overrides = {}
    if args.arm is not None:
        overrides["arms"] = args.arm
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.snapshot is not None:
        overrides["snapshot_path"] = args.snapshot
    if overrides:
        config = replace(config, **overrides)
        config.validate()
    report = run_scenario(config)
    if args.out:
        export_report(report, args.out)
    else:
        sys.stdout.write(render_report_csv(report))
    return EXIT_OK


def _cmd_budget(args: argparse.Namespace) -> int:
    ppms = [float(v) for v in args.ppm.split(",") if v.strip()]
    margins = [float(v) for v in args.margin_ms.split(",") if v.strip()]
    if not ppms or not margins:
        raise ValueError("empty --ppm or --margin-ms list")
    print("rtc_ppm,margin_ms,budget_ms,budget_s")
    for ppm in ppms:
        for margin in margins:
            budget_ms = fs.drift_budget(ppm, margin)
            print(f"{ppm:g},{margin:g},{budget_ms:.3f},{budget_ms / 1000.0:.3f}")
    return EXIT_OK


def _cmd_dump(args: argparse.Namespace) -> int:
    snapshot = fs.load_snapshot(args.path)
    print(fs.dump_snapshot_text(snapshot), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or the usage and the error.
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "budget":
            return _cmd_budget(args)
        return _cmd_dump(args)
    except (ScenarioError, fs.SnapshotFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
