"""The linter's dataflow layer: per-module facts rules query.

Rules never walk raw ``ast`` trees from scratch; they consume a
:class:`ModuleInfo` that has already resolved imports (including
relative ones, anchored at the ``repro`` package), indexed every
function's assignments and loop targets, and built the call graph of
module-level names.  This keeps each rule a small pattern over derived
facts rather than a bespoke traversal, and it gives all rules one
consistent notion of "what does this name refer to".

The resolution is deliberately *syntactic* dataflow — no type
inference, no cross-module value tracking beyond the explicit
collect/propagate phases rules opt into (see
:class:`~repro.analysis.rules.Rule`).  That is the right fidelity for
house-contract linting: the contracts are about source patterns
(``rng or default_rng(...)``, scatter-filled ``np.empty``), not about
runtime values.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

#: ``# reprolint: ignore[RULE1,RULE2] -- reason`` (reason mandatory for
#: the suppression to take effect; see SUP001).
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*ignore\[([A-Za-z0-9_,\s]+)\]"
    r"(?:\s*--\s*(\S.*?))?\s*$"
)


@dataclass
class Suppression:
    """One inline ``# reprolint: ignore[...]`` comment."""

    line: int
    rules: frozenset[str]
    reason: str | None
    used: bool = False

    @property
    def valid(self) -> bool:
        """Reason-less suppressions are inert (and flagged by SUP001)."""
        return bool(self.reason)


def parse_suppressions(lines: list[str]) -> dict[int, Suppression]:
    """Scan source lines for suppression comments (1-based line keys)."""
    out: dict[int, Suppression] = {}
    for i, text in enumerate(lines, start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        out[i] = Suppression(line=i, rules=rules, reason=match.group(2))
    return out


@dataclass
class FunctionInfo:
    """Assignment-level facts about one function (any nesting depth)."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    #: name -> value expressions assigned to it inside this function.
    assignments: dict[str, list[ast.expr]] = field(default_factory=dict)
    #: Names bound as ``for``/comprehension targets (scalar-ish iterates).
    loop_targets: set[str] = field(default_factory=set)
    #: Names of functions ``def``-ed inside this function (unpicklable
    #: as process-pool tasks).
    nested_defs: set[str] = field(default_factory=set)
    #: Names bound by ``with ... as name`` items, mapped to the context
    #: expression.
    with_bindings: dict[str, ast.expr] = field(default_factory=dict)

    def assigned_from(self, name: str) -> list[ast.expr]:
        """Every expression ever assigned to ``name`` here (may be [])."""
        values = list(self.assignments.get(name, ()))
        binding = self.with_bindings.get(name)
        if binding is not None:
            values.append(binding)
        return values


def _bound_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment/loop target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            names.extend(_bound_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []


class _FunctionIndexer(ast.NodeVisitor):
    """Fill a :class:`FunctionInfo` without descending into nested defs."""

    def __init__(self, info: FunctionInfo):
        self.info = info

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.info.node:
            self.generic_visit(node)
        else:
            self.info.nested_defs.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # lambdas bind nothing by themselves

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for name in _bound_names(target):
                self.info.assignments.setdefault(name, []).append(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            for name in _bound_names(node.target):
                self.info.assignments.setdefault(name, []).append(node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self.info.loop_targets.update(_bound_names(node.target))
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                for name in _bound_names(item.optional_vars):
                    self.info.with_bindings[name] = item.context_expr
        self.generic_visit(node)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def _comprehension(self, node) -> None:
        for gen in node.generators:
            self.info.loop_targets.update(_bound_names(gen.target))
        self.generic_visit(node)

    visit_ListComp = _comprehension
    visit_SetComp = _comprehension
    visit_DictComp = _comprehension
    visit_GeneratorExp = _comprehension


def _dotted_package(path: Path) -> str:
    """Best-effort dotted module name, anchored at the ``repro`` dir.

    Files outside a ``repro`` package tree (test fixtures, scripts) get
    their bare stem — enough for relative-import resolution to degrade
    gracefully rather than mis-resolve.
    """
    parts = list(path.parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:]
    else:
        dotted = parts[-1:]
    dotted = [p[:-3] if p.endswith(".py") else p for p in dotted]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or path.stem


class ModuleInfo:
    """One parsed module plus every derived fact the rules consume."""

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = str(PurePosixPath(relpath))
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.package = _dotted_package(path)
        self.suppressions = parse_suppressions(self.lines)
        #: alias -> dotted origin ("np" -> "numpy",
        #: "burel" -> "repro.core.burel.burel").
        self.imports: dict[str, str] = {}
        self.functions: list[FunctionInfo] = []
        #: module-level def name -> resolved names it calls (the
        #: call graph of module-level names).
        self.call_graph: dict[str, set[str]] = {}
        self._index()

    # -- construction ----------------------------------------------------

    def _index(self) -> None:
        self._index_imports()
        self._index_functions()
        self._index_call_graph()

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_module(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _resolve_from_module(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: walk up from this module's dotted package.
        parts = self.package.split(".")
        # A module (not a package __init__) contributes its own name as
        # one level (``from . import x`` in pkg/mod.py means pkg.x); a
        # package __init__'s dotted name already *is* the level-1 base.
        up = node.level - 1 if self.path.name == "__init__.py" else node.level
        base_parts = parts[: len(parts) - up] if up <= len(parts) else []
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _index_functions(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(node=node, qualname=node.name)
                _FunctionIndexer(info).visit(node)
                self.functions.append(info)

    def _index_call_graph(self) -> None:
        for node in self.tree.body:
            targets: list[ast.AST] = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                targets = [node]
            elif isinstance(node, ast.ClassDef):
                targets = [
                    item
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for fn in targets:
                called: set[str] = set()
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.Call):
                        dotted = self.resolve(sub.func)
                        if dotted:
                            called.add(dotted)
                self.call_graph.setdefault(fn.name, set()).update(called)

    # -- queries ---------------------------------------------------------

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted name of a Name/Attribute chain, import aliases expanded.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``"numpy.random.default_rng"``; unresolvable shapes (calls,
        subscripts) return None.
        """
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        head = self.imports.get(cur.id, cur.id)
        return ".".join([head, *reversed(parts)])

    def function_at(self, line: int) -> FunctionInfo | None:
        """The innermost function containing ``line``."""
        best: FunctionInfo | None = None
        for fn in self.functions:
            node = fn.node
            end = getattr(node, "end_lineno", node.lineno)
            if node.lineno <= line <= end:
                if best is None or node.lineno > best.node.lineno:
                    best = fn
        return best

    def enclosing_function(self, line: int) -> str | None:
        """Qualname of the innermost function containing ``line``."""
        best = self.function_at(line)
        return best.qualname if best else None

    def is_library_code(self) -> bool:
        """Library scope: everything except tests/benchmarks/examples."""
        parts = set(PurePosixPath(self.relpath).parts)
        return not parts & {"tests", "benchmarks", "examples"}

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Project:
    """All modules of one lint run."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = modules
