"""The ``repro lint`` subcommand: run the analyzer, honour the baseline.

Exit codes (the CI contract):

* ``0`` — no non-baselined findings,
* ``1`` — findings the baseline does not excuse,
* ``2`` — a file failed to parse (the analyzer could not do its job).

``--update-baseline`` rewrites the baseline to match the current tree —
keeping existing reasons, stamping new entries ``TODO``, dropping stale
ones — and exits 0 so the workflow is: run, review, justify, commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Iterable, Sequence

from repro.analysis.baseline import Baseline, apply_baseline
from repro.analysis.core import Report, analyze_paths

__all__ = ["add_lint_parser", "run_lint", "split_codes"]

DEFAULT_BASELINE = "tools/lint_baseline.json"


def split_codes(values: Iterable[str] | None) -> list[str] | None:
    """Flatten repeated/comma-separated ``--select REP001,REP002`` values."""
    if not values:
        return None
    codes = [
        code.strip()
        for value in values
        for code in value.replace(",", " ").split()
        if code.strip()
    ]
    return codes or None


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "lint",
        help=(
            "run the repro static analyzer (REP001-REP003, REP005, REP006) "
            "over source paths"
        ),
        description=(
            "Statically check project invariants: lock discipline (REP001), "
            "async hygiene (REP002), bit-exactness (REP003), exception "
            "hygiene (REP005) and doc drift (REP006).  Exits 0 when clean, "
            "1 on non-baselined findings, 2 when a file cannot be parsed."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="files or directories to analyze (directories recurse over *.py)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only run these checkers (comma/space separated, repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="skip these checkers (comma/space separated, repeatable)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"reviewed-findings baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to the current findings (reasons kept, "
            "stale entries dropped, new entries stamped TODO) and exit 0"
        ),
    )
    return parser


def _emit_text(report: Report, out: IO[str], err: IO[str]) -> None:
    for failure in report.parse_failures:
        print(failure.describe(), file=err)
    for finding in report.findings:
        print(finding.describe(), file=out)
    summary = report.to_dict()["summary"]
    print(
        "repro lint: {files} file(s), {findings} finding(s), "
        "{suppressed} suppressed, {baselined} baselined".format(**summary),
        file=out,
    )
    if report.stale_baseline:
        print(
            f"repro lint: {report.stale_baseline} stale baseline entr"
            f"{'y' if report.stale_baseline == 1 else 'ies'} "
            "(fixed findings still listed; run --update-baseline)",
            file=err,
        )


def run_lint(
    args: argparse.Namespace,
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    report = analyze_paths(
        args.paths,
        select=split_codes(args.select),
        ignore=split_codes(args.ignore),
    )

    if args.update_baseline:
        baseline = Baseline.load(args.baseline)
        refreshed = baseline.updated_for(report)
        refreshed.save()
        print(
            f"repro lint: baseline {refreshed.path} updated "
            f"({len(refreshed.entries)} entr"
            f"{'y' if len(refreshed.entries) == 1 else 'ies'})",
            file=out,
        )
        return 0 if not report.parse_failures else 2

    if not args.no_baseline:
        report = apply_baseline(report, Baseline.load(args.baseline))

    if args.format == "json":
        json.dump(report.to_dict(), out, indent=2, sort_keys=True)
        print(file=out)
        for failure in report.parse_failures:
            print(failure.describe(), file=err)
    else:
        _emit_text(report, out, err)
    return report.exit_code
