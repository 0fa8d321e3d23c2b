"""Publication formats for group-based microdata releases.

Generalization-based schemes (BUREL, the Mondrian family, SABRE,
full-domain) publish a set of equivalence classes: each tuple's QI
values are recoded to the class's generalized box, while SA values are
kept intact.  Anatomy (:mod:`repro.anonymity.anatomy`) publishes
ℓ-diverse groups with their SA multisets.  Both are partitions of the
source rows, and both are held as arrays — one columnar core,
:class:`GroupedPublication`, with no per-group objects:

* ``rows`` — the member rows, group after group;
* ``offsets`` — group ``g`` is ``rows[offsets[g]:offsets[g + 1]]``;
* ``class_of`` — the group id of every source row;
* ``sa_counts`` — the ``(G, m)`` SA histogram of every group;
* ``boxes`` — the ``(G, d, 2)`` generalized intervals
  (:class:`GeneralizedTable` only).

These are exactly what the store payload persists and the content
digest hashes, what the audit view and the answerers read, and what
shard merges concatenate.  Per-group records (:class:`EquivalenceClass`)
are built only on access, for the scalar oracles and display.

A *box* is one ``(lo, hi)`` inclusive interval per QI attribute, in
domain coordinates — plain values for numerical attributes and pre-order
leaf ranks for categorical ones.  For categorical attributes the interval
is widened to the leaf span of the lowest common ancestor, so the box is
exactly the generalized value that would be printed (Eq. 3's ``a``).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .schema import AttributeKind, Schema
from .table import Table


@dataclass(frozen=True)
class EquivalenceClass:
    """One published equivalence class (EC), as a read-only record.

    Attributes:
        rows: Original row indices of the member tuples.
        box: Per-QI-attribute inclusive ``(lo, hi)`` generalized interval.
        sa_counts: Histogram of SA codes among member tuples (full domain).
    """

    rows: np.ndarray
    box: tuple[tuple[int, int], ...]
    sa_counts: np.ndarray

    @property
    def size(self) -> int:
        return int(self.rows.shape[0])

    def sa_distribution(self) -> np.ndarray:
        """``Q = (q_1 .. q_m)``: the SA distribution within the EC."""
        return self.sa_counts / self.size

    def n_distinct_sa(self) -> int:
        """Number of distinct SA values (distinct ℓ-diversity)."""
        return int(np.count_nonzero(self.sa_counts))


class GroupRecords(Sequence):
    """A publication's groups as read-only per-group records.

    Each record is built when it is accessed; ``len()`` reads the
    offsets and builds none.
    """

    def __init__(self, publication: "GroupedPublication"):
        self._publication = publication

    def __len__(self) -> int:
        return self._publication.n_groups

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[g] for g in range(*index.indices(len(self))))
        g = operator.index(index)
        if g < 0:
            g += len(self)
        if not 0 <= g < len(self):
            raise IndexError("group index out of range")
        return self._publication.record(g)


class GroupedPublication:
    """The columnar core of a group-based publication.

    The constructor validates the partition once — shapes, row bounds
    and exact coverage — and derives ``sizes``, ``class_of`` and
    ``sa_counts`` from it.

    Attributes:
        source: The source :class:`~repro.dataset.table.Table`.
        rows: ``(n,)`` int64 member rows, group after group.
        offsets: ``(G + 1,)`` int64 group boundaries in ``rows``.
        sizes: ``(G,)`` int64 group sizes.
        class_of: ``(n,)`` int64 group id of every source row.
        sa_counts: ``(G, m)`` int64 SA histogram of every group.
    """

    def __init__(self, source: Table, rows, offsets):
        rows = np.asarray(rows, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n = source.n_rows
        if rows.ndim != 1 or offsets.ndim != 1:
            raise ValueError("rows and offsets must be one-dimensional")
        if offsets.shape[0] < 2:
            raise ValueError("a publication needs at least one group")
        sizes = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != rows.shape[0]:
            raise ValueError("offsets must run from 0 to the row count")
        if sizes.min() <= 0:
            raise ValueError("groups must be non-empty")
        if rows.shape[0] != n:
            raise ValueError(
                f"groups cover {rows.shape[0]} rows but the table has {n}"
            )
        if rows.min() < 0 or rows.max() >= n:
            raise ValueError(
                f"group rows must lie in [0, {n}), the table's rows"
            )
        n_groups = sizes.shape[0]
        class_of = np.full(n, -1, dtype=np.int64)
        class_of[rows] = np.repeat(np.arange(n_groups), sizes)
        if class_of.min() < 0:
            raise ValueError("groups must partition the table's rows exactly")
        m = source.sa_cardinality
        self.source = source
        self.rows = rows
        self.offsets = offsets
        self.sizes = sizes
        self.class_of = class_of
        self.sa_counts = np.bincount(
            class_of * m + source.sa, minlength=n_groups * m
        ).reshape(n_groups, m)

    @property
    def n_groups(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_rows(self) -> int:
        return self.source.n_rows

    def __len__(self) -> int:
        return self.n_groups

    def group_rows(self, g: int) -> np.ndarray:
        """Member rows of group ``g`` (a view into ``rows``)."""
        return self.rows[self.offsets[g] : self.offsets[g + 1]]


class GeneralizedTable(GroupedPublication):
    """A published generalization: a set of ECs over a source table.

    The source table is retained so utility/attack measurements can use
    per-tuple SA values, as the publication itself would (SA values are
    published verbatim inside each EC).

    Attributes:
        boxes: ``(G, d, 2)`` int64 generalized interval of every EC.
        classes: The ECs as read-only :class:`EquivalenceClass` records.
    """

    def __init__(self, source: Table, rows, offsets, boxes):
        super().__init__(source, rows, offsets)
        boxes = np.asarray(boxes, dtype=np.int64)
        if boxes.shape != (self.n_groups, source.schema.n_qi, 2):
            raise ValueError(
                f"boxes must be ({self.n_groups}, {source.schema.n_qi}, 2), "
                f"got {boxes.shape}"
            )
        self.schema: Schema = source.schema
        self.boxes = boxes

    @property
    def classes(self) -> GroupRecords:
        return GroupRecords(self)

    def __iter__(self):
        return iter(self.classes)

    def record(self, g: int) -> EquivalenceClass:
        return EquivalenceClass(
            rows=self.group_rows(g),
            box=tuple(map(tuple, self.boxes[g].tolist())),
            sa_counts=self.sa_counts[g],
        )

    def global_distribution(self) -> np.ndarray:
        """Overall SA distribution ``P`` of the source table."""
        return self.source.sa_distribution()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneralizedTable({self.n_groups} ECs over {self.n_rows} rows)"


def box_of_rows(table: Table, rows: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The generalized box of a row set.

    Numerical attributes take the min/max of observed values; categorical
    attributes take the leaf span of the LCA of observed leaves, so the
    published interval corresponds to an actual hierarchy node.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("cannot build a box for an empty EC")
    box: list[tuple[int, int]] = []
    for j, attr in enumerate(table.schema.qi):
        col = table.qi[rows, j]
        lo, hi = int(col.min()), int(col.max())
        if attr.kind is AttributeKind.CATEGORICAL:
            node = attr.hierarchy.lca_of_range(lo, hi)
            lo, hi = node.rank_lo, node.rank_hi
        box.append((lo, hi))
    return tuple(box)


def make_equivalence_class(table: Table, rows: np.ndarray) -> EquivalenceClass:
    """Build an :class:`EquivalenceClass` from row indices of ``table``."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.bincount(
        table.sa[rows], minlength=table.sa_cardinality
    ).astype(np.int64)
    return EquivalenceClass(rows=rows, box=box_of_rows(table, rows), sa_counts=counts)


def group_offsets(sizes) -> np.ndarray:
    """``(G + 1,)`` int64 group boundaries from the group sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def concat_groups(groups: "list[np.ndarray]") -> tuple[np.ndarray, np.ndarray]:
    """Row-index groups as ``(rows, offsets)`` arrays."""
    offsets = group_offsets([rows.shape[0] for rows in groups])
    return np.concatenate(groups).astype(np.int64, copy=False), offsets


def publish(table: Table, row_groups: Iterable[np.ndarray]) -> GeneralizedTable:
    """Assemble a :class:`GeneralizedTable` from row-index groups.

    Equal to :func:`make_equivalence_class` per group, computed for all
    groups at once: one segmented ``np.minimum/maximum.reduceat`` over
    the group-ordered QI rows gives every box, and the categorical LCA
    widening runs once per distinct ``(lo, hi)`` pair.
    """
    groups = [np.asarray(rows, dtype=np.int64) for rows in row_groups]
    if not groups:
        raise ValueError("a publication needs at least one group")
    if not all(rows.shape[0] for rows in groups):
        raise ValueError("cannot build a box for an empty EC")
    rows, offsets = concat_groups(groups)
    qi = table.qi[rows]
    lo = np.minimum.reduceat(qi, offsets[:-1], axis=0)
    hi = np.maximum.reduceat(qi, offsets[:-1], axis=0)
    for j, attr in enumerate(table.schema.qi):
        if attr.kind is AttributeKind.CATEGORICAL:
            pairs, inverse = np.unique(
                np.stack([lo[:, j], hi[:, j]], axis=1),
                axis=0,
                return_inverse=True,
            )
            nodes = [attr.hierarchy.lca_of_range(a, b) for a, b in pairs.tolist()]
            spans = np.array([(node.rank_lo, node.rank_hi) for node in nodes])
            lo[:, j], hi[:, j] = spans[inverse.reshape(-1)].T
    return GeneralizedTable(table, rows, offsets, np.stack([lo, hi], axis=2))
