"""The shared per-publication state every batched audit runs on.

A :class:`PublicationView` plays the role the range-bitmap index plays
for the query layer: everything the §2/§6.3/§7 measurements need from a
publication, extracted once into dense arrays so each audit is a matrix
operation instead of a per-EC Python loop:

* ``class_of`` — the group id of every source row, initialized to ``-1``
  and validated for exact coverage (the uncovered-row ``np.empty``
  garbage PR 2 eliminated from ``AnatomyAnswerer.group_of`` cannot
  recur here);
* ``sizes`` — the group-size vector;
* ``counts`` — the group×SA count matrix, built in one ``np.bincount``
  over ``class_of * m + sa``.

Views work for both publication families — :class:`GeneralizedTable`
equivalence classes and :class:`AnatomyTable` groups.  A session's
artifact cache keeps them per publication content
(:func:`publication_view`), so a β-sweep that measures the same
publication under several models builds its matrices once; callers
without a cache pass the view itself to every measurement.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..anonymity.anatomy import AnatomyTable
from ..dataset.table import Table


def group_rows_of(publication) -> list[np.ndarray]:
    """Member-row arrays of any group-based publication.

    Accepts a :class:`~repro.dataset.published.GeneralizedTable` (or any
    object exposing ``classes`` of row sets) and an
    :class:`~repro.anonymity.anatomy.AnatomyTable`.
    """
    if isinstance(publication, AnatomyTable):
        return [g.rows for g in publication.groups]
    classes = getattr(publication, "classes", None)
    if classes is not None:
        return [ec.rows for ec in classes]
    raise TypeError(f"unsupported publication type {type(publication)!r}")


class PublicationView:
    """Dense per-publication arrays shared by all batched audits.

    Attributes:
        source: The source :class:`~repro.dataset.table.Table`.
        n_groups: Number of equivalence classes / Anatomy groups.
        class_of: ``(n_rows,)`` int64 group id per source row.
        sizes: ``(G,)`` int64 group sizes.
        counts: ``(G, m)`` int64 SA-value histogram per group.
        boxes: ``(G, n_qi, 2)`` generalized intervals when the
            publication carries boxes (``GeneralizedTable``), else None.
    """

    def __init__(self, publication):
        groups = group_rows_of(publication)
        source: Table = publication.source
        n, m = source.n_rows, source.sa_cardinality

        class_of = np.full(n, -1, dtype=np.int64)
        covered = 0
        for g, rows in enumerate(groups):
            class_of[rows] = g
            covered += rows.shape[0]
        if covered != n or np.any(class_of < 0):
            uncovered = int(np.count_nonzero(class_of < 0))
            raise ValueError(
                f"publication does not partition the table: {uncovered} "
                f"of {n} rows uncovered, {covered} group memberships"
            )

        self.source = source
        self.n_groups = len(groups)
        self.class_of = class_of
        self.counts = np.bincount(
            class_of * m + source.sa, minlength=self.n_groups * m
        ).reshape(self.n_groups, m)
        self.sizes = self.counts.sum(axis=1)
        self.boxes = self._extract_boxes(publication)
        # Per-metric memo (per-EC gain/EMD vectors etc.); one view is
        # audited under several models, and the sweeps reuse the entries.
        self.memo: dict = {}

    @staticmethod
    def _extract_boxes(publication) -> np.ndarray | None:
        classes = getattr(publication, "classes", None)
        if classes is None or not all(hasattr(ec, "box") for ec in classes):
            return None
        return np.array([ec.box for ec in classes], dtype=np.int64)

    @cached_property
    def distributions(self) -> np.ndarray:
        """``(G, m)`` float64 per-group SA distributions (``Q`` rows)."""
        return self.counts / self.sizes[:, None]

    @cached_property
    def global_distribution(self) -> np.ndarray:
        """The source table's overall SA distribution ``P``."""
        return self.source.sa_distribution()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PublicationView({self.n_groups} groups over "
            f"{self.source.n_rows} rows)"
        )


def synthesize_view(
    source,
    class_of: np.ndarray,
    counts: np.ndarray,
    *,
    boxes=None,
    global_distribution=None,
    memo: "dict | None" = None,
) -> PublicationView:
    """Build a :class:`PublicationView` from already-known arrays.

    ``PublicationView.__init__`` re-derives membership and histograms
    from a publication object; here both already exist (worker-side from
    the shard groups, parent-side from a shard merge or a versioned
    refresh), so the view is assembled directly.
    ``global_distribution`` overrides the lazily computed overall ``P``
    — a shard worker passes the full-table distribution so shard metrics
    measure against the global adversary.
    """
    view = object.__new__(PublicationView)
    view.source = source
    view.n_groups = int(counts.shape[0])
    view.class_of = class_of
    view.counts = counts
    view.sizes = counts.sum(axis=1)
    view.boxes = boxes
    view.memo = dict(memo) if memo else {}
    if global_distribution is not None:
        # reprolint: ignore[CACHE002] -- seeds the view's own cached_property with the full-table P a shard must measure against; no artifact outlives the view
        view.__dict__["global_distribution"] = global_distribution
    return view


def merge_shard_views(
    source,
    shard_rows,
    shard_class_of,
    shard_counts,
    *,
    boxes=None,
    global_distribution=None,
    memo: "dict | None" = None,
) -> PublicationView:
    """One whole-table view from per-shard membership and histograms.

    Shards partition the rows and groups concatenate in shard order, so
    the merged ``class_of`` is a scatter of each shard's local ids (with
    a running group offset) into global row positions and the merged
    histogram matrix is a plain vstack — bit-identical to building the
    view from the merged publication directly.  Both the parallel
    layer's shard-parallel audit and the incremental refresh path (which
    mixes cached clean-shard arrays with recomputed dirty-shard ones)
    merge through here.
    """
    n = source.n_rows
    class_of = np.full(n, -1, dtype=np.int64)
    offset = 0
    for rows, local, counts in zip(shard_rows, shard_class_of, shard_counts):
        class_of[rows] = local + offset
        offset += counts.shape[0]
    if np.any(class_of < 0):
        raise ValueError("shard views do not cover the table's rows")
    return synthesize_view(
        source,
        class_of,
        np.vstack(shard_counts),
        boxes=boxes,
        global_distribution=global_distribution,
        memo=memo,
    )


def publication_view(publication, cache=None) -> PublicationView:
    """The :class:`PublicationView` for ``publication``.

    Args:
        publication: A group-based publication (or a view, passed
            through).
        cache: Optional :class:`repro.api.ArtifactCache`.  When given,
            the view is keyed by the publication's *content digest* —
            the same SHA-256 the publication store uses as object id —
            so an equal-content publication reloaded from a store reuses
            the already-built matrices (and their per-metric memo).
            Without it, a new view is built.
    """
    if isinstance(publication, PublicationView):
        return publication
    if cache is None:
        return PublicationView(publication)
    key = ("view", cache.publication_key(publication))
    return cache.get_or_build(key, lambda: PublicationView(publication))
