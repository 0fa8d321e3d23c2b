"""Full-domain generalization with Incognito-style lattice search.

The paper groups prior anonymization algorithms into two families
(§2): multidimensional partitioners (Mondrian [18], reimplemented in
``repro.anonymity.mondrian``) and *full-domain* schemes in the Incognito
line [17], where every tuple's attribute is recoded to the **same**
hierarchy level, and the search space is the lattice of per-attribute
level vectors.  This module supplies that second family as a substrate,
so "adapting a k-anonymization algorithm to model X" can be reproduced
for both families.

Components:

* :class:`GeneralizationLadder` — the level structure of one attribute:
  level 0 is the original domain; higher levels merge values into
  coarser bins (hierarchy cuts for categorical attributes, doubling
  interval widths for numerical ones);
* :func:`lattice_search` — bottom-up breadth-first search over level
  vectors with *generalization monotonicity* pruning: when a vector
  satisfies the constraint, all of its ancestors do too (for
  β-likeness this is exactly Lemma 1 — merging ECs never increases the
  distance to the overall distribution — and the analogous property
  holds for the other EC constraints shipped here), so they are marked
  without being evaluated.  Incognito's per-subset join is an
  additional traversal optimization; on microdata-sized lattices the
  direct BFS visits the same nodes.
* :func:`incognito` — search + publish: among the minimal satisfying
  vectors, the one with the least information loss is materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..dataset.published import GeneralizedTable, group_offsets
from ..dataset.schema import AttributeKind, Schema
from ..dataset.table import Table
from .constraints import ECConstraint, k_anonymity


@dataclass(frozen=True)
class GeneralizationLadder:
    """Per-attribute generalization levels.

    Attributes:
        group_of: ``group_of[level][value - lo]`` is the bin index of a
            domain value at that level; level 0 is the identity.
        intervals: ``intervals[level][bin]`` is the inclusive domain
            interval ``(lo, hi)`` the bin publishes.
    """

    group_of: tuple[np.ndarray, ...]
    intervals: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_levels(self) -> int:
        return len(self.group_of)


def numerical_ladder(lo: int, hi: int) -> GeneralizationLadder:
    """Doubling-width interval ladder for a numerical attribute.

    Level 0 keeps exact values; level ``k`` bins the domain into
    intervals of width ``2**k`` anchored at ``lo``; the top level is a
    single full-domain interval.
    """
    size = hi - lo + 1
    groups: list[np.ndarray] = []
    intervals: list[tuple[tuple[int, int], ...]] = []
    width = 1
    while True:
        n_bins = (size + width - 1) // width
        mapping = np.arange(size) // width
        groups.append(mapping.astype(np.int64))
        intervals.append(
            tuple(
                (lo + b * width, min(lo + (b + 1) * width - 1, hi))
                for b in range(n_bins)
            )
        )
        if n_bins == 1:
            break
        width *= 2
    return GeneralizationLadder(tuple(groups), tuple(intervals))


def categorical_ladder(hierarchy) -> GeneralizationLadder:
    """Hierarchy-cut ladder: level ``k`` generalizes each leaf to its
    ancestor ``k`` steps up (clamped at the root)."""
    n = hierarchy.n_leaves
    height = hierarchy.height
    groups: list[np.ndarray] = []
    intervals: list[tuple[tuple[int, int], ...]] = []
    for level in range(height + 1):
        target_depth = max(height - level, 0)
        mapping = np.empty(n, dtype=np.int64)
        bins: list[tuple[int, int]] = []
        seen: dict[tuple[int, int], int] = {}
        for rank in range(n):
            node = hierarchy.leaves[rank]
            while node is not hierarchy.root and node.depth > target_depth:
                node = _parent_of(hierarchy, node)
            span = (node.rank_lo, node.rank_hi)
            if span not in seen:
                seen[span] = len(bins)
                bins.append(span)
            mapping[rank] = seen[span]
        groups.append(mapping)
        intervals.append(tuple(bins))
    return GeneralizationLadder(tuple(groups), tuple(intervals))


def _parent_of(hierarchy, node):
    """Parent lookup by walking from the root (hierarchies are small)."""
    stack = [hierarchy.root]
    while stack:
        candidate = stack.pop()
        for child in candidate.children:
            if child is node:
                return candidate
            if child.rank_lo <= node.rank_lo and node.rank_hi <= child.rank_hi:
                stack.append(child)
    raise ValueError("node not in hierarchy")


def default_ladders(schema: Schema) -> list[GeneralizationLadder]:
    """Standard ladder per QI attribute (hierarchy cuts / doubling bins)."""
    ladders = []
    for attr in schema.qi:
        if attr.kind is AttributeKind.CATEGORICAL:
            ladders.append(categorical_ladder(attr.hierarchy))
        else:
            ladders.append(numerical_ladder(attr.lo, attr.hi))
    return ladders


@dataclass
class FullDomainResult:
    """Search outcome: the chosen vector and its publication."""

    published: GeneralizedTable
    vector: tuple[int, ...]
    minimal_vectors: list[tuple[int, ...]]
    nodes_evaluated: int
    lattice_size: int
    elapsed_seconds: float


def _publish_vector(
    table: Table,
    ladders: list[GeneralizationLadder],
    vector: tuple[int, ...],
) -> GeneralizedTable:
    """Materialize the publication for one level vector.

    Classes are the distinct generalized code tuples in ``np.unique``
    order, members in ascending row order; each class publishes its
    ladder intervals.
    """
    codes = _generalized_codes(table, ladders, vector)
    _, inverse = np.unique(codes, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    rows = np.argsort(inverse, kind="stable")
    offsets = group_offsets(np.bincount(inverse))
    anchors = codes[rows[offsets[:-1]]]
    boxes = np.stack(
        [
            np.array(ladders[j].intervals[vector[j]])[anchors[:, j]]
            for j in range(table.schema.n_qi)
        ],
        axis=1,
    )
    return GeneralizedTable(table, rows, offsets, boxes)


def _generalized_codes(
    table: Table,
    ladders: list[GeneralizationLadder],
    vector: tuple[int, ...],
) -> np.ndarray:
    codes = np.empty_like(table.qi)
    for j, attr in enumerate(table.schema.qi):
        mapping = ladders[j].group_of[vector[j]]
        codes[:, j] = mapping[table.qi[:, j] - attr.lo]
    return codes


def _satisfies(
    table: Table,
    ladders: list[GeneralizationLadder],
    vector: tuple[int, ...],
    constraint: ECConstraint,
) -> bool:
    """Every EC induced by the vector must pass the constraint."""
    codes = _generalized_codes(table, ladders, vector)
    _, inverse = np.unique(codes, axis=0, return_inverse=True)
    m = table.sa_cardinality
    n_groups = int(inverse.max()) + 1
    counts = np.zeros((n_groups, m), dtype=np.int64)
    np.add.at(counts, (inverse, table.sa), 1)
    sizes = counts.sum(axis=1)
    return all(
        constraint(counts[g], int(sizes[g])) for g in range(n_groups)
    )


def minimal_satisfying_vectors(
    table: Table,
    constraint: ECConstraint,
    ladders: list[GeneralizationLadder],
) -> tuple[list[tuple[int, ...]], int, int]:
    """Bottom-up lattice BFS: ``(minimal vectors, evaluated, lattice size)``.

    This is the engine's ``partition`` stage; :func:`lattice_search`
    wraps it with ladder defaults and publication of the best vector.
    """
    level_counts = [ladder.n_levels for ladder in ladders]
    all_vectors = list(itertools.product(*(range(c) for c in level_counts)))
    lattice_size = len(all_vectors)

    status: dict[tuple[int, ...], bool] = {}
    evaluated = 0

    def mark_ancestors(vector: tuple[int, ...]) -> None:
        stack = [vector]
        while stack:
            node = stack.pop()
            for j in range(len(node)):
                if node[j] + 1 < level_counts[j]:
                    parent = node[:j] + (node[j] + 1,) + node[j + 1 :]
                    if not status.get(parent, False):
                        status[parent] = True
                        stack.append(parent)

    for vector in sorted(all_vectors, key=sum):
        if vector in status:
            continue
        evaluated += 1
        ok = _satisfies(table, ladders, vector, constraint)
        status[vector] = ok
        if ok:
            mark_ancestors(vector)

    satisfying = [v for v, ok in status.items() if ok]
    if not satisfying:
        raise ValueError(
            f"no full-domain generalization satisfies {constraint.name} "
            "(even the fully generalized table fails)"
        )

    def is_minimal(vector: tuple[int, ...]) -> bool:
        for j in range(len(vector)):
            if vector[j] > 0:
                child = vector[:j] + (vector[j] - 1,) + vector[j + 1 :]
                if status.get(child, False):
                    return False
        return True

    minimal = sorted(v for v in satisfying if is_minimal(v))
    return minimal, evaluated, lattice_size


def publish_least_loss(
    table: Table,
    ladders: list[GeneralizationLadder],
    minimal: list[tuple[int, ...]],
) -> tuple[tuple[int, ...], GeneralizedTable]:
    """Among minimal vectors, publish the one with the least AIL."""
    from ..metrics.loss import average_information_loss

    best_vector, best_published, best_ail = None, None, float("inf")
    for vector in minimal:
        published = _publish_vector(table, ladders, vector)
        ail = average_information_loss(published)
        if ail < best_ail:
            best_vector, best_published, best_ail = vector, published, ail
    return best_vector, best_published


def lattice_search(
    table: Table,
    constraint: ECConstraint,
    ladders: list[GeneralizationLadder] | None = None,
) -> FullDomainResult:
    """Find all minimal satisfying level vectors (Incognito semantics).

    Bottom-up BFS by total level; passing vectors propagate to all
    ancestors without re-evaluation (generalization monotonicity), and
    the search stops once every frontier node is known.  Routed through
    the staged engine (``repro.engine``); this wrapper keeps the
    historical call shape and result type.
    """
    from ..engine import run as engine_run

    result = engine_run(
        "fulldomain", table, constraint=constraint, ladders=ladders
    )
    return FullDomainResult(
        published=result.published,
        vector=result.provenance["vector"],
        minimal_vectors=result.provenance["minimal_vectors"],
        nodes_evaluated=result.provenance["nodes_evaluated"],
        lattice_size=result.provenance["lattice_size"],
        elapsed_seconds=result.elapsed_seconds,
    )


def incognito(table: Table, k: int, **kwargs) -> FullDomainResult:
    """Full-domain k-anonymity (LeFevre et al.'s Incognito semantics)."""
    return lattice_search(table, k_anonymity(k), **kwargs)
