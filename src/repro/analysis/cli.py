"""``repro lint``: the CLI face of the invariant linter.

Exit codes are CLI-conventional: 0 clean (after baseline/suppressions),
1 live findings, 2 usage error (bad path, unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import Baseline, BaselineError
from .engine import UsageError, lint_paths
from .report import render_json, render_rules, render_text

#: Where the committed baseline lives, relative to the repo root.
DEFAULT_BASELINE = "analysis/baseline.json"


def add_lint_parser(sub) -> None:
    """Attach the ``lint`` subcommand to the repro CLI's subparsers."""
    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant linter (reprolint)",
        description=(
            "Statically enforce the repo's house contracts (rng "
            "seeding, np.empty scatter fills, process-pool pickling, "
            "telemetry no-op, cache keys, set ordering). Exit 0 when "
            "clean against the baseline, 1 on new findings, 2 on usage "
            "errors."
        ),
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON (the CI artifact format)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline of grandfathered findings "
             f"(default: {DEFAULT_BASELINE} when it exists)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring any baseline file",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings "
             "(reasons of surviving entries are kept) and exit 0",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also list baselined and suppressed findings",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rule ids and exit",
    )


def _resolve_paths(args: argparse.Namespace) -> list[str]:
    if args.paths:
        return list(args.paths)
    defaults = [p for p in ("src", "tests") if Path(p).is_dir()]
    if not defaults:
        raise UsageError(
            "no paths given and neither ./src nor ./tests exists; "
            "pass the files or directories to lint"
        )
    return defaults


def _resolve_baseline(args: argparse.Namespace) -> str | None:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        if not Path(args.baseline).is_file():
            raise UsageError(f"baseline file not found: {args.baseline}")
        return args.baseline
    if Path(DEFAULT_BASELINE).is_file():
        return DEFAULT_BASELINE
    return None


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rules())
        return 0
    try:
        paths = _resolve_paths(args)
        if args.update_baseline:
            # The target need not exist yet: this is how it's created.
            result = lint_paths(paths, baseline=None)
            previous = None
            target = args.baseline or DEFAULT_BASELINE
            if Path(target).is_file():
                previous = Baseline.load(target)
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            Baseline.from_findings(result.findings, previous).save(target)
            print(
                f"wrote {len(result.findings)} finding(s) -> {target}"
            )
            return 0
        result = lint_paths(paths, baseline=_resolve_baseline(args))
    except (UsageError, BaselineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.clean else 1
