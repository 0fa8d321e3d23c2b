"""Publication formats for generalized microdata.

Generalization-based schemes (BUREL, the Mondrian family, SABRE) publish a
set of equivalence classes: each tuple's QI values are recoded to the
class's generalized box, while SA values are kept intact.  This module
defines that output format plus the helpers to construct it from row
index sets.

A *box* is one ``(lo, hi)`` inclusive interval per QI attribute, in
domain coordinates — plain values for numerical attributes and pre-order
leaf ranks for categorical ones.  For categorical attributes the interval
is widened to the leaf span of the lowest common ancestor, so the box is
exactly the generalized value that would be printed (Eq. 3's ``a``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .schema import AttributeKind, Schema
from .table import Table


@dataclass(frozen=True)
class EquivalenceClass:
    """One published equivalence class (EC).

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


class GeneralizedTable:
    """A published generalization: a set of ECs over a source table.

    The source table is retained so utility/attack measurements can use
    per-tuple SA values, as the publication itself would (SA values are
    published verbatim inside each EC).
    """

    def __init__(self, source: Table, classes: Sequence[EquivalenceClass]):
        if not classes:
            raise ValueError("a publication needs at least one EC")
        total = sum(ec.size for ec in classes)
        if total != source.n_rows:
            raise ValueError(
                f"ECs cover {total} rows but the table has {source.n_rows}"
            )
        all_rows = np.concatenate([ec.rows for ec in classes])
        if all_rows.size and (
            all_rows.min() < 0 or all_rows.max() >= source.n_rows
        ):
            raise ValueError(
                f"EC rows must lie in [0, {source.n_rows}), the table's rows"
            )
        if not np.bincount(all_rows, minlength=source.n_rows).all():
            raise ValueError("ECs must partition the table's rows exactly")
        self.source = source
        self.schema: Schema = source.schema
        self.classes: tuple[EquivalenceClass, ...] = tuple(classes)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    @property
    def n_rows(self) -> int:
        return self.source.n_rows

    def global_distribution(self) -> np.ndarray:
        """Overall SA distribution ``P`` of the source table."""
        return self.source.sa_distribution()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneralizedTable({len(self.classes)} ECs over {self.n_rows} rows)"


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


def publish(table: Table, row_groups: Iterable[np.ndarray]) -> GeneralizedTable:
    """Assemble a :class:`GeneralizedTable` from row-index groups.

    Equal to :func:`make_equivalence_class` per group, computed for all
    groups at once: one segmented ``np.minimum/maximum.reduceat`` over
    the group-ordered QI rows gives every box, and one ``bincount`` over
    ``(group, SA code)`` pairs every SA histogram.  Only the categorical
    LCA widening runs per class.
    """
    groups = [np.asarray(rows, dtype=np.int64) for rows in row_groups]
    if not groups:
        return GeneralizedTable(table, [])
    sizes = np.array([rows.shape[0] for rows in groups], dtype=np.int64)
    if not sizes.all():
        raise ValueError("cannot build a box for an empty EC")
    rows = np.concatenate(groups)
    starts = np.cumsum(sizes) - sizes
    qi = table.qi[rows]
    lo = np.minimum.reduceat(qi, starts, axis=0)
    hi = np.maximum.reduceat(qi, starts, axis=0)
    for j, attr in enumerate(table.schema.qi):
        if attr.kind is AttributeKind.CATEGORICAL:
            for g in range(len(groups)):
                node = attr.hierarchy.lca_of_range(int(lo[g, j]), int(hi[g, j]))
                lo[g, j], hi[g, j] = node.rank_lo, node.rank_hi
    m = table.sa_cardinality
    class_of = np.repeat(np.arange(len(groups)), sizes)
    sa_counts = np.bincount(
        class_of * m + table.sa[rows], minlength=len(groups) * m
    ).reshape(len(groups), m)
    classes = [
        EquivalenceClass(rows=group, box=tuple(zip(lo_g, hi_g)), sa_counts=counts)
        for group, lo_g, hi_g, counts in zip(
            groups, lo.tolist(), hi.tolist(), sa_counts
        )
    ]
    return GeneralizedTable(table, classes)
