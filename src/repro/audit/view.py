"""The shared per-publication state every batched audit runs on.

A :class:`PublicationView` plays the role the range-bitmap index plays
for the query layer: everything the §2/§6.3/§7 measurements need from a
publication, as dense arrays, so each audit is a matrix operation
instead of a per-EC Python loop.  A group-based publication already
*is* those arrays (:class:`~repro.dataset.published.GroupedPublication`
validated its partition at construction), so the view wraps them
without copying or scattering anything:

* ``class_of`` — the group id of every source row;
* ``sizes`` — the group-size vector;
* ``counts`` — the group×SA count matrix;
* ``boxes`` — the generalized intervals, for generalizations.

On top it adds the per-group SA distributions, the overall ``P`` and a
per-metric memo.  A session's artifact cache keeps views per
publication content (:func:`publication_view`), so a β-sweep that
measures the same publication under several models fills the memo
once; callers without a cache pass the view itself to every
measurement.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..dataset.published import GroupedPublication


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
        if not isinstance(publication, GroupedPublication):
            raise TypeError(
                f"unsupported publication type {type(publication)!r}"
            )
        self.source = publication.source
        self.n_groups = publication.n_groups
        self.class_of = publication.class_of
        self.counts = publication.sa_counts
        self.sizes = publication.sizes
        self.boxes = getattr(publication, "boxes", None)
        # Per-metric memo (per-EC gain/EMD vectors etc.); one view is
        # audited under several models, and the sweeps reuse the entries.
        self.memo: dict = {}

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


def publication_view(publication, cache=None) -> PublicationView:
    """The :class:`PublicationView` for ``publication``.

    Args:
        publication: A group-based publication (or a view, passed
            through).
        cache: Optional :class:`repro.api.ArtifactCache`.  When given,
            the view is keyed by the publication's *content digest* —
            the same SHA-256 the publication store uses as object id —
            so an equal-content publication reloaded from a store reuses
            the already-filled per-metric memo.  Without it, a new view
            is built.
    """
    if isinstance(publication, PublicationView):
        return publication
    if cache is None:
        return PublicationView(publication)
    key = ("view", cache.publication_key(publication))
    return cache.get_or_build(key, lambda: PublicationView(publication))
