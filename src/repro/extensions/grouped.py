"""Semantic-group β-likeness (Section 7's hierarchy extension).

The paper notes that when proximity between *categorical* SA values is
defined by a semantic hierarchy, "our model can be easily extended so as
to treat all values beneath the same selected nodes in this hierarchy as
the same, and ensure β-likeness for such groups of values instead of
leaf nodes" — closing the similarity-attack gap for coarse inferences
(e.g. *some nervous disease* rather than *epilepsy*).

This module implements that extension end to end:

* :class:`SAGrouping` — a partition of the SA domain into semantic
  groups, constructible from an SA hierarchy depth or from explicit
  code lists (e.g. salary bands);
* :func:`grouped_burel` — BUREL run against the *group-level*
  distribution: bucketization, eligibility and reallocation operate on
  groups, so every published EC satisfies β-likeness for every group
  (Theorem 1 applied to the grouped domain), while tuples keep their
  leaf-level SA values;
* :func:`measured_group_beta` — the group-level measured β of any
  publication, the metric a similarity-attack auditor would use.

Note the deliberate asymmetry with plain BUREL: leaf-level β-likeness
does bound each group's gain *additively* (a group's frequency is a sum
of capped frequencies), but the bound degrades with group size because
``f`` is concave; enforcing the cap on the grouped domain directly is
both tighter and cheaper (fewer values to bucketize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.burel import BurelResult, burel
from ..dataset.published import GeneralizedTable, publish
from ..dataset.schema import Schema, SensitiveAttribute
from ..dataset.table import Table
from ..metrics.distributions import max_relative_gain


@dataclass(frozen=True)
class SAGrouping:
    """A partition of SA value codes into semantic groups.

    Attributes:
        group_of: ``group_of[code]`` is the group index of SA value
            ``code``.
        labels: One label per group.
    """

    group_of: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        groups = np.asarray(self.group_of)
        if groups.min(initial=0) < 0 or groups.max(initial=0) >= len(self.labels):
            raise ValueError("group indices out of range")

    @property
    def n_groups(self) -> int:
        return len(self.labels)

    @classmethod
    def from_hierarchy(cls, sensitive: SensitiveAttribute, depth: int = 1) -> "SAGrouping":
        """Groups = the SA hierarchy's nodes at ``depth`` (Fig. 1 style)."""
        if sensitive.hierarchy is None:
            raise ValueError("the sensitive attribute has no hierarchy")
        hierarchy = sensitive.hierarchy
        group_of = np.zeros(sensitive.cardinality, dtype=np.int64)
        labels: list[str] = []
        stack = [(hierarchy.root, 0)]
        while stack:
            node, d = stack.pop()
            if d == depth or node.is_leaf:
                index = len(labels)
                labels.append(node.label)
                for rank in range(node.rank_lo, node.rank_hi + 1):
                    code = sensitive.code_of(hierarchy.leaf_label(rank))
                    group_of[code] = index
            else:
                stack.extend((child, d + 1) for child in node.children)
        return cls(group_of=group_of, labels=tuple(labels))

    @classmethod
    def from_lists(
        cls, cardinality: int, groups: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "SAGrouping":
        """Groups from explicit code lists covering the domain once."""
        group_of = np.full(cardinality, -1, dtype=np.int64)
        for g, codes in enumerate(groups):
            for code in codes:
                if group_of[code] != -1:
                    raise ValueError(f"SA code {code} assigned to two groups")
                group_of[code] = g
        if (group_of == -1).any():
            raise ValueError("groups must cover the whole SA domain")
        if labels is None:
            labels = tuple(f"group-{g}" for g in range(len(groups)))
        return cls(group_of=group_of, labels=tuple(labels))

    def counts(self, sa_counts: np.ndarray) -> np.ndarray:
        """Aggregate per-value counts to per-group counts."""
        out = np.zeros(self.n_groups, dtype=np.int64)
        np.add.at(out, self.group_of, np.asarray(sa_counts, dtype=np.int64))
        return out


def grouped_burel(
    table: Table,
    beta: float,
    grouping: SAGrouping,
    **burel_kwargs,
) -> BurelResult:
    """BUREL enforcing β-likeness at semantic-group granularity.

    Runs the unmodified pipeline on a shadow table whose SA column holds
    group codes, then republishes the resulting classes over the
    original table so the released SA values stay leaf-level.  Accepts
    the same keyword knobs as :func:`repro.core.burel.burel`.
    """
    shadow_sensitive = SensitiveAttribute("_group", grouping.labels)
    shadow_schema = Schema(list(table.schema.qi), shadow_sensitive)
    shadow = Table(shadow_schema, table.qi, grouping.group_of[table.sa])
    result = burel(shadow, beta, **burel_kwargs)
    republished = publish(table, [ec.rows for ec in result.published])
    return BurelResult(
        published=republished,
        partition=result.partition,
        specs=result.specs,
        model=result.model,
        elapsed_seconds=result.elapsed_seconds,
    )


def measured_group_beta(
    published: GeneralizedTable, grouping: SAGrouping
) -> float:
    """Worst-case relative gain at group granularity over all ECs."""
    global_counts = grouping.counts(
        np.sum([ec.sa_counts for ec in published], axis=0)
    )
    p = global_counts / global_counts.sum()
    worst = 0.0
    for ec in published:
        q = grouping.counts(ec.sa_counts) / ec.size
        worst = max(worst, max_relative_gain(p, q))
    return float(worst)
