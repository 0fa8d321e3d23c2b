"""The house-contract rules, one class per documented bug class.

The registry mirrors :mod:`repro.engine.registry`'s ``@register``
idiom: each rule registers an instance keyed by its id, and the engine
dispatches uniformly.  Every rule encodes a bug class this repo has
actually shipped and fixed (see README "Static analysis" for the PR
history):

========= ============================================================
RNG001    silent ``default_rng`` fallbacks (the explicit-seed contract)
ALLOC001  ``np.empty`` scatter-filled without sentinel/coverage check
PICKLE001 lambdas/closures submitted to or initializing a process pool
OBS001    direct Tracer()/MetricsRegistry() in library code
CACHE001  ArtifactCache keys built from object identity (``id(...)``)
CACHE002  identity-keyed memos (weak registries, ``__dict__`` writes)
DET001    iteration over sets feeding ordered output
RANGE001  raw ``.sa_range`` reads in the query layer outside its clipper
SUP001    suppression comments without a reason (meta-rule)
========= ============================================================

Each rule's ``check`` runs once per module and yields findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from .dataflow import FunctionInfo, ModuleInfo, Project

#: Scope markers: LIBRARY rules skip tests/benchmarks/examples.
LIBRARY = "library"
ALL = "all"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    code: str = ""
    suppressed: bool = False
    baselined: bool = False
    function: str | None = None

    def sort_key(self):
        return (self.path, self.line, self.rule)

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "code": self.code,
        }
        if self.function:
            out["function"] = self.function
        if self.baselined:
            out["baselined"] = True
        return out


class Rule:
    """Base rule: subclasses set ``rule_id``/``title``/``scope``."""

    rule_id: str = ""
    title: str = ""
    scope: str = LIBRARY
    #: Posix path fragments that exempt a module from this rule (the
    #: module that legitimately owns the flagged construct).
    exclude: tuple[str, ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.scope == LIBRARY and not module.is_library_code():
            return False
        return not any(frag in module.relpath for frag in self.exclude)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        return ()

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=line,
            message=message,
            code=module.line_text(line),
            function=module.enclosing_function(line),
        )


RULES: dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a :class:`Rule` to the registry."""
    instance = cls()
    if instance.rule_id in RULES:
        raise ValueError(f"rule {instance.rule_id!r} is already registered")
    RULES[instance.rule_id] = instance
    return cls


def all_rules() -> list[Rule]:
    """Fresh rule instances in id order (collect state is per-run)."""
    return [type(rule)() for _, rule in sorted(RULES.items())]


# ---------------------------------------------------------------------------
# RNG001
# ---------------------------------------------------------------------------


def _is_default_rng(module: ModuleInfo, node: ast.expr) -> bool:
    dotted = module.resolve(node)
    return dotted == "numpy.random.default_rng"


@register_rule
class Rng001(Rule):
    """Silent ``default_rng`` fallbacks violate the explicit-seed contract.

    Flags, outside ``repro/rng.py``:

    * argless ``np.random.default_rng()`` — nondeterministic;
    * ``np.random.default_rng(<literal>)`` — a hard-coded seed; use a
      documented module-level seed constant, or ``coerce_rng``;
    * ``x or np.random.default_rng(...)`` — the truthiness fallback
      that silently shared seed 0 (fixed in PR 3's corruption attack
      and again in this PR's Anatomy grouping).
    """

    rule_id = "RNG001"
    title = "silent default_rng fallback"
    scope = LIBRARY
    exclude = ("repro/rng.py",)

    def check(self, module, project) -> Iterator[Finding]:
        fallback_calls: set[ast.Call] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                for value in node.values[1:]:
                    if isinstance(value, ast.Call) and _is_default_rng(
                        module, value.func
                    ):
                        fallback_calls.add(value)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and _is_default_rng(module, node.func)
            ):
                continue
            if node in fallback_calls:
                yield self.finding(
                    module,
                    node,
                    "'x or default_rng(...)' silently falls back to a "
                    "shared seed; require an explicit seed via "
                    "repro.rng.coerce_rng (rng=None must raise, or the "
                    "documented default must be a named constant)",
                )
            elif not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    "argless default_rng() is nondeterministic; the repo "
                    "contract is an explicit int seed or Generator "
                    "(repro.rng.coerce_rng)",
                )
            elif node.args and isinstance(node.args[0], ast.Constant):
                yield self.finding(
                    module,
                    node,
                    "default_rng with a hard-coded literal seed; name the "
                    "seed as a documented module-level constant and route "
                    "it through repro.rng.coerce_rng",
                )


# ---------------------------------------------------------------------------
# ALLOC001
# ---------------------------------------------------------------------------


def _is_np_empty(module: ModuleInfo, node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = module.resolve(node.func)
    return dotted in ("numpy.empty", "numpy.empty_like")


def _is_scatter_index(expr: ast.expr, fn: FunctionInfo) -> bool:
    """True when a subscript index is array-valued (advanced indexing).

    Scalar loop variables, constants and slices are contiguous or
    element-wise fills and never leave garbage behind; Name/Call/
    Subscript/BinOp-of-array indices scatter.
    """
    if isinstance(expr, ast.Slice):
        return False
    if isinstance(expr, ast.Constant):
        return False
    if isinstance(expr, ast.UnaryOp):
        return _is_scatter_index(expr.operand, fn)
    if isinstance(expr, ast.Tuple):
        return any(_is_scatter_index(elt, fn) for elt in expr.elts)
    if isinstance(expr, ast.BinOp):
        return _is_scatter_index(expr.left, fn) or _is_scatter_index(
            expr.right, fn
        )
    if isinstance(expr, ast.Name):
        return expr.id not in fn.loop_targets
    # Calls, subscripts, attributes: treat as array-valued.
    return True


def _has_coverage_check(fn: FunctionInfo, name: str) -> bool:
    """A Compare or assert mentioning the array counts as a coverage
    validation (e.g. ``if np.any(out < 0): raise`` / ``assert ...``)."""
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Compare, ast.Assert)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
    return False


@register_rule
class Alloc001(Rule):
    """``np.empty`` scatter-filled by group/index arrays needs a sentinel.

    The bug class PRs 2-3 fixed three times over: ``np.empty`` output
    filled through advanced indexing leaves garbage wherever the index
    set misses, and garbage group ids corrupt every downstream
    estimate.  Either initialize with ``np.full(..., -1)`` plus a
    coverage check, or assert coverage in the same function; fills
    through slices or scalar loop variables are exempt.
    """

    rule_id = "ALLOC001"
    title = "np.empty scatter-fill without sentinel or coverage check"
    scope = LIBRARY

    def check(self, module, project) -> Iterator[Finding]:
        for fn in module.functions:
            empties: dict[str, ast.expr] = {}
            for name, values in fn.assignments.items():
                for value in values:
                    if _is_np_empty(module, value):
                        empties[name] = value
            if not empties:
                continue
            flagged: set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                    ):
                        continue
                    name = target.value.id
                    if name not in empties or name in flagged:
                        continue
                    if not _is_scatter_index(target.slice, fn):
                        continue
                    if _has_coverage_check(fn, name):
                        continue
                    flagged.add(name)
                    yield self.finding(
                        module,
                        empties[name],
                        f"np.empty array '{name}' is scatter-filled "
                        f"(line {target.lineno}) without -1/sentinel init "
                        "or a coverage assertion in the same function; "
                        "uncovered slots keep garbage (the PR 2/3 "
                        "Anatomy-answerer bug class)",
                    )


# ---------------------------------------------------------------------------
# PICKLE001
# ---------------------------------------------------------------------------


@register_rule
class Pickle001(Rule):
    """Process-pool tasks and initializers must be module top-level
    (picklable).

    ``ProcessPoolExecutor.submit(lambda: ...)`` and closures defined
    inside the submitting function fail to pickle at runtime — and only
    at runtime, on the first ``workers > 1`` path someone exercises.
    The same holds for ``ProcessPoolExecutor(initializer=...)`` under
    ``spawn`` or ``forkserver``, and the initializer is how pool workers
    take their inputs.  The contract lives in
    ``repro/parallel/_worker.py``: every task a pool runs, and its
    initializer, is a module top-level function.
    """

    rule_id = "PICKLE001"
    title = "unpicklable callable submitted to a process pool"
    scope = ALL

    def _pool_names(self, module: ModuleInfo, fn: FunctionInfo) -> set[str]:
        names: set[str] = set()
        pool_like = any(
            origin.endswith("ProcessPoolExecutor")
            for origin in module.imports.values()
        )
        for name, values in list(fn.assignments.items()) + [
            (n, [v]) for n, v in fn.with_bindings.items()
        ]:
            for value in values:
                if isinstance(value, ast.Call):
                    dotted = module.resolve(value.func)
                    if dotted and dotted.endswith("ProcessPoolExecutor"):
                        names.add(name)
                    # Pools returned by helpers: the repo idiom names
                    # them "pool"; only trust it in modules that import
                    # ProcessPoolExecutor at all.
                    elif pool_like and "pool" in name.lower():
                        names.add(name)
        return names

    @staticmethod
    def _unpicklable(value: ast.expr, fn: "FunctionInfo | None"):
        """Why ``value`` cannot be pickled by reference, or None."""
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if fn is None or not isinstance(value, ast.Name):
            return None
        if value.id in fn.nested_defs:
            return f"locally defined function '{value.id}'"
        if any(isinstance(v, ast.Lambda) for v in fn.assigned_from(value.id)):
            return f"lambda-valued name '{value.id}'"
        return None

    def check(self, module, project) -> Iterator[Finding]:
        for fn in module.functions:
            pools = self._pool_names(module, fn)
            if not pools:
                continue
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                    and node.args
                ):
                    continue
                reason = self._unpicklable(node.args[0], fn)
                if reason:
                    yield self.finding(
                        module,
                        node,
                        f"{reason} submitted to a process pool cannot be "
                        "pickled; process-pool tasks must be module "
                        "top-level functions (see repro/parallel/_worker.py)",
                    )
        yield from self._initializers(module)

    def _initializers(self, module) -> Iterator[Finding]:
        """``ProcessPoolExecutor(initializer=...)`` anywhere in the module,
        judged in its innermost enclosing function."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve(node.func)
            if not (dotted and dotted.endswith("ProcessPoolExecutor")):
                continue
            for keyword in node.keywords:
                if keyword.arg != "initializer":
                    continue
                reason = self._unpicklable(
                    keyword.value, module.function_at(node.lineno)
                )
                if reason:
                    yield self.finding(
                        module,
                        node,
                        f"{reason} as a process pool's initializer cannot "
                        "be pickled; pool initializers must be module "
                        "top-level functions (see repro/parallel/_worker.py)",
                    )


# ---------------------------------------------------------------------------
# OBS001
# ---------------------------------------------------------------------------


@register_rule
class Obs001(Rule):
    """Library code must not construct telemetry primitives directly.

    The strict no-op invariant: with telemetry disabled, the serve hot
    path allocates nothing — which holds only when every layer routes
    through ``coerce_telemetry`` / the shared ``NULL_TELEMETRY``
    singleton instead of building private ``Tracer()`` /
    ``MetricsRegistry()`` instances.
    """

    rule_id = "OBS001"
    title = "direct Tracer/MetricsRegistry construction in library code"
    scope = LIBRARY
    exclude = ("repro/obs/",)

    def check(self, module, project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve(node.func)
            if not dotted:
                continue
            last = dotted.rpartition(".")[2]
            if last not in ("Tracer", "MetricsRegistry"):
                continue
            origin = module.imports.get(dotted.split(".")[0], "")
            if not (
                ".obs" in dotted
                or dotted.startswith("obs.")
                or ".obs" in origin
                or dotted in ("Tracer", "MetricsRegistry")
            ):
                continue
            yield self.finding(
                module,
                node,
                f"direct {last}() construction in library code; accept a "
                "Telemetry via repro.obs.coerce_telemetry (NULL_TELEMETRY "
                "keeps the disabled path a strict no-op)",
            )


# ---------------------------------------------------------------------------
# CACHE001
# ---------------------------------------------------------------------------

_CACHE_METHODS = ("get", "put", "get_or_build", "discard")


def _contains_id_call(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            return True
    return False


def _cache_receiver(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr not in _CACHE_METHODS:
        return False
    recv = node.func.value
    if isinstance(recv, ast.Name):
        return "cache" in recv.id.lower()
    if isinstance(recv, ast.Attribute):
        return "cache" in recv.attr.lower()
    return False


@register_rule
class Cache001(Rule):
    """ArtifactCache keys must be content digests, not object identity.

    ``id(...)`` keys alias after garbage collection and miss on
    equal-content reloads — the exact defect PR 5 removed when it moved
    every layer onto content-digest keys.  Flags ``id(...)`` inside the
    arguments of cache get/put calls, including one assignment hop.
    """

    rule_id = "CACHE001"
    title = "cache key built from id(...) object identity"
    scope = LIBRARY

    def check(self, module, project) -> Iterator[Finding]:
        for fn in module.functions:
            # Names whose value embeds an id(...) call.
            tainted = {
                name
                for name, values in fn.assignments.items()
                if any(_contains_id_call(v) for v in values)
            }
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Call) and _cache_receiver(node)):
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords]
                hit = any(_contains_id_call(a) for a in args) or any(
                    isinstance(sub, ast.Name) and sub.id in tainted
                    for a in args
                    for sub in ast.walk(a)
                )
                if hit:
                    yield self.finding(
                        module,
                        node,
                        "cache key derived from id(...): object identity "
                        "aliases after gc and misses equal-content "
                        "reloads; key by content digest "
                        "(ArtifactCache.publication_key/table_key)",
                    )


# ---------------------------------------------------------------------------
# CACHE002
# ---------------------------------------------------------------------------

#: Weak registries: memos keyed by object identity.
_WEAK_MEMOS = (
    "weakref.WeakKeyDictionary", "weakref.WeakValueDictionary", "weakref.finalize"
)


def _is_instance_dict(expr: ast.expr) -> bool:
    """``<obj>.__dict__`` or ``getattr(<obj>, "__dict__", ...)``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr == "__dict__"
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "getattr"
        and len(expr.args) >= 2
        and isinstance(expr.args[1], ast.Constant)
        and expr.args[1].value == "__dict__"
    )


def _written_mapping(node: ast.AST) -> ast.expr | None:
    """The mapping ``node`` writes into (``m[k] = v``, ``m[k] += v``,
    ``m.setdefault(...)``), else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.value if node.func.attr == "setdefault" else None
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return None
    for target in targets:
        if isinstance(target, ast.Subscript):
            return target.value
    return None


@register_rule
class Cache002(Rule):
    """No identity-keyed memos in library code.

    A session's ArtifactCache is the one place an artifact outlives a
    call: content-keyed, size-accounted, explicitly invalidated.  Weak
    registries keyed by object identity, and artifacts stashed in the
    ``__dict__`` of the table or publication they were built from, are
    the second regime this repo deleted: no size accounting sees them
    and an equal-content reload misses them.  Flags
    ``WeakKeyDictionary``/``WeakValueDictionary``/``finalize`` calls and
    writes through ``<obj>.__dict__`` (``[k] = v``, ``.setdefault``),
    including one assignment hop; reads stay allowed.
    """

    rule_id = "CACHE002"
    title = "identity-keyed memo outside the artifact cache"
    scope = LIBRARY

    def check(self, module, project) -> Iterator[Finding]:
        writes: set[ast.AST] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and (
                module.resolve(node.func) in _WEAK_MEMOS
            ):
                yield self.finding(
                    module,
                    node,
                    "weak registries are identity-keyed memos; memoize "
                    "only through the ArtifactCache a caller passes",
                )
            mapping = _written_mapping(node)
            if mapping is not None and _is_instance_dict(mapping):
                writes.add(node)
        for fn in module.functions:
            aliases = {
                name
                for name, values in fn.assignments.items()
                if any(_is_instance_dict(v) for v in values)
            }
            for node in ast.walk(fn.node):
                mapping = _written_mapping(node)
                if isinstance(mapping, ast.Name) and mapping.id in aliases:
                    writes.add(node)
        for node in sorted(writes, key=lambda n: (n.lineno, n.col_offset)):
            yield self.finding(
                module,
                node,
                "write through an object's __dict__ stashes an artifact "
                "outside the ArtifactCache; memoize only through the "
                "cache a caller passes",
            )


# ---------------------------------------------------------------------------
# DET001
# ---------------------------------------------------------------------------


def _is_set_expr(module: ModuleInfo, fn: FunctionInfo | None, expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return True
    if isinstance(expr, ast.Name) and fn is not None:
        return any(
            _is_set_expr(module, None, v) for v in fn.assigned_from(expr.id)
        )
    return False


@register_rule
class Det001(Rule):
    """Set iteration order feeding ordered output breaks byte-identity.

    Python sets iterate in hash order, which varies across processes
    for str keys (PYTHONHASHSEED) — any merge, concatenation or export
    built by iterating a set is a determinism hazard under the repo's
    byte-identity contract.  Iterate ``sorted(the_set)`` instead;
    order-free reductions (len/sum/min/max, membership) are exempt.
    """

    rule_id = "DET001"
    title = "iteration over a set feeding ordered output"
    scope = ALL

    def _check_in(self, module, fn, root) -> Iterator[Finding]:
        for node in ast.walk(root):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate")
                and len(node.args) == 1
            ):
                iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(module, fn, it):
                    yield self.finding(
                        module,
                        it,
                        "iterating a set in ordered context: set order is "
                        "process-dependent and breaks the byte-identity "
                        "contract; iterate sorted(...) instead",
                    )

    def check(self, module, project) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for fn in module.functions:
            for f in self._check_in(module, fn, fn.node):
                key = (f.line, hash(f.message))
                if key not in seen:
                    seen.add(key)
                    yield f
        # Module-level statements (outside any function).
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for f in self._check_in(module, None, node):
                key = (f.line, hash(f.message))
                if key not in seen:
                    seen.add(key)
                    yield f


# ---------------------------------------------------------------------------
# RANGE001
# ---------------------------------------------------------------------------


@register_rule
class Range001(Rule):
    """The query layer reads SA ranges only through ``sa_bounds``.

    A raw ``CountQuery.sa_range`` may overhang the SA domain or be
    inverted.  Estimators that indexed prefix sums or sliced with it
    each did something else on such ranges: a negative index wrapped, a
    slice came back empty, an index ran past the end.
    ``repro.query.workload.sa_bounds`` clips every range by one rule,
    and ``workload.py``, which owns it, is the only query module that
    may read the raw attribute.
    """

    rule_id = "RANGE001"
    title = "raw .sa_range read in the query layer"
    scope = LIBRARY
    exclude = ("repro/query/workload.py",)

    def applies_to(self, module) -> bool:
        return "repro/query/" in module.relpath and super().applies_to(module)

    def check(self, module, project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "sa_range"
                and isinstance(node.ctx, ast.Load)
            ):
                yield self.finding(
                    module,
                    node,
                    "raw SA range read in the query layer; clip it with "
                    "repro.query.workload.sa_bounds so every estimator "
                    "agrees on overhanging and empty ranges",
                )


# ---------------------------------------------------------------------------
# SUP001 (meta-rule: enforced by the engine, registered for listing)
# ---------------------------------------------------------------------------


@register_rule
class Sup001(Rule):
    """Suppressions must carry a reason.

    ``# reprolint: ignore[RULE] -- reason`` documents *why* a contract
    is intentionally waived at one site; a bare ``ignore[RULE]`` is
    inert (the finding still fires) and additionally reported here.
    The engine implements this rule during suppression matching.
    """

    rule_id = "SUP001"
    title = "suppression comment without a reason"
    scope = ALL
