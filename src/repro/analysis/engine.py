"""The lint engine: file walking, two-phase rule dispatch, suppression
matching and baseline filtering.

Mirrors the anonymization engine's shape — a registry of uniform
components driven by one dispatcher — but for source files instead of
tables: parse every module into the dataflow layer's
:class:`~repro.analysis.dataflow.ModuleInfo`, give every rule its
``collect`` pass (cross-module facts), then its ``check`` pass, and
post-process findings through inline suppressions and the committed
baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import Baseline, BaselineEntry
from .dataflow import ModuleInfo, Project
from .rules import Finding, Rule, all_rules

#: Directory names never walked into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


class UsageError(ValueError):
    """Bad invocation (missing path, unreadable baseline): exit code 2."""


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``findings`` are the live (non-suppressed, non-baselined) findings
    that should fail CI; ``baselined`` and ``suppressed`` are kept for
    reporting, ``stale_baseline`` lists baseline entries whose finding
    no longer exists (time to prune).
    """

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def all_live_findings(self) -> list[Finding]:
        """Findings that belong in an updated baseline (live + baselined)."""
        return sorted(
            self.findings + self.baselined, key=Finding.sort_key
        )


def collect_files(paths: list[str | Path], root: Path) -> list[Path]:
    """Expand files/directories into a sorted list of .py files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS & set(sub.parts):
                    files.append(sub)
        else:
            raise UsageError(f"no such file or directory: {raw}")
    # De-duplicate while preserving deterministic order.
    seen: set[Path] = set()
    unique: list[Path] = []
    for f in sorted(files):
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


class LintEngine:
    """Run the registered rules over a set of paths.

    Args:
        rules: Rule instances to run (default: fresh instances of every
            registered rule).
        root: Directory findings' paths are reported relative to
            (default: the current working directory), so baseline keys
            are stable however the engine is invoked.
    """

    def __init__(
        self, rules: list[Rule] | None = None, root: str | Path | None = None
    ):
        self.rules = rules if rules is not None else all_rules()
        self.root = Path(root) if root is not None else Path.cwd()

    def _relpath(self, path: Path) -> str:
        try:
            return os.path.relpath(path, self.root).replace(os.sep, "/")
        except ValueError:  # different drive (Windows)
            return str(path)

    def _parse(self, files: list[Path]) -> tuple[list[ModuleInfo], list[Finding]]:
        modules: list[ModuleInfo] = []
        parse_findings: list[Finding] = []
        for path in files:
            relpath = self._relpath(path)
            try:
                source = path.read_text()
                modules.append(ModuleInfo(path, relpath, source))
            except (SyntaxError, UnicodeDecodeError) as exc:
                line = getattr(exc, "lineno", 1) or 1
                parse_findings.append(
                    Finding(
                        rule="PARSE001",
                        path=relpath,
                        line=line,
                        message=f"file does not parse: {exc}",
                    )
                )
        return modules, parse_findings

    def run(self, paths: list[str | Path]) -> LintResult:
        files = collect_files(paths, self.root)
        modules, findings = self._parse(files)
        project = Project(modules)

        for rule in self.rules:
            for module in modules:
                if rule.applies_to(module):
                    findings.extend(rule.check(module, project))

        result = LintResult(files_checked=len(files))
        by_path = {module.relpath: module for module in modules}
        for finding in sorted(findings, key=Finding.sort_key):
            module = by_path.get(finding.path)
            suppression = None
            if module is not None:
                suppression = module.suppressions.get(
                    finding.line
                ) or module.suppressions.get(finding.line - 1)
            if (
                suppression is not None
                and finding.rule in suppression.rules
                and suppression.valid
            ):
                suppression.used = True
                result.suppressed.append(
                    Finding(**{**finding.__dict__, "suppressed": True})
                )
            else:
                result.findings.append(finding)

        # SUP001: reason-less suppression comments are inert and flagged.
        for module in modules:
            for suppression in module.suppressions.values():
                if not suppression.valid:
                    result.findings.append(
                        Finding(
                            rule="SUP001",
                            path=module.relpath,
                            line=suppression.line,
                            message=(
                                "suppression without a reason is inert; "
                                "write '# reprolint: ignore[RULE] -- why "
                                "this site is intentional'"
                            ),
                            code=module.line_text(suppression.line),
                            function=module.enclosing_function(
                                suppression.line
                            ),
                        )
                    )
        result.findings.sort(key=Finding.sort_key)
        return result


def lint_paths(
    paths: list[str | Path],
    *,
    baseline: str | Path | None = None,
    root: str | Path | None = None,
) -> LintResult:
    """One-call API: lint ``paths``, optionally against a baseline."""
    engine = LintEngine(root=root)
    result = engine.run(paths)
    if baseline is not None:
        base = Baseline.load(baseline)
        new, old, stale = base.apply(result.findings)
        result.findings = new
        result.baselined = old
        result.stale_baseline = stale
    return result
