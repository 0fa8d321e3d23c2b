"""Shard-scoped engine entry points: prepare, run, merge.

The engine's public :func:`repro.engine.run` anonymizes a whole table;
the parallel layer anonymizes *one contiguous Hilbert-key shard at a
time* and assembles whole-table publications from the per-shard
results.  This module is the home of that shard-scoped contract.  In
the library its one caller is the parallel layer's task function
(:func:`repro.parallel._worker.shard_anonymize`), which every sharded
run reaches through :meth:`repro.parallel.ShardedSession.shard_pieces`
— pooled or inline, cold or as a versioned refresh's dirty shards — so
every piece comes out of one code path.

A :class:`ShardPiece` is a shard's publication in its columnar form —
member rows, group offsets and (for generalizations) boxes, never the
shard table itself — so it is cheap to ship across a process boundary
and cheap to keep in the :class:`repro.api.ArtifactCache` between
appends.  Lifting a piece to global row ids is one gather, and merging
pieces is concatenation; the publication constructor then re-validates
the whole partition and derives the histograms.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..anonymity.anatomy import AnatomyTable
from ..dataset.published import GeneralizedTable, group_offsets
from ..dataset.table import Table
from .batch import PreparedTable
from .pipeline import STAGES
from .registry import run as engine_run


@dataclass
class ShardPiece:
    """One shard's publication in columnar, transportable form.

    Attributes:
        kind: ``"generalized"`` or ``"anatomy"`` — the only formats with
            a per-shard group structure to merge.
        rows: Member rows, group after group — local to the shard as
            :func:`run_shard` returns them, global once :meth:`lift`-ed.
        offsets: ``(G + 1,)`` group boundaries in ``rows``.
        boxes: ``(G, d, 2)`` QI boxes (generalized only, else ``None``).
        l: Anatomy's ℓ (``None`` for generalized).
        params: The engine's resolved parameters.
        stage_seconds / elapsed_seconds: The shard run's timings.
    """

    kind: str
    rows: np.ndarray
    offsets: np.ndarray
    boxes: "np.ndarray | None"
    l: "int | None"
    params: dict
    stage_seconds: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def lift(self, rows: np.ndarray) -> "ShardPiece":
        """This piece with member rows mapped through ``rows``, the
        shard's global row array; group order is preserved."""
        return dataclasses.replace(self, rows=rows[self.rows])

    def publication(self, table: Table):
        """The piece as a publication over ``table`` — the shard table
        for a local piece, the whole table for a merged one."""
        if self.kind == "generalized":
            return GeneralizedTable(table, self.rows, self.offsets, self.boxes)
        if self.kind == "anatomy":
            return AnatomyTable(table, self.rows, self.offsets, self.l)
        raise ValueError(f"unknown shard publication kind {self.kind!r}")


def prepare_shard(
    table: Table, keys: np.ndarray, sa_distribution: np.ndarray
) -> PreparedTable:
    """Shard preprocessing with the *anonymization-time* ``P`` pre-seeded.

    β-likeness (and every other model here) is declared against the
    overall distribution ``P`` of the full table; a shard that
    bucketized against its own local frequencies would certify against
    the wrong adversary.  The caller therefore computes ``P`` once and
    every shard prepares with it, so per-shard bucket partitions are
    identical and the merged publication is measured — and bounded —
    against the same ``P`` the single-table run uses.  (The versioned
    refresh path passes the **baseline** table's ``P`` here, keeping
    clean shards reusable across appends, while audits always measure
    against the current table's true distribution.)
    """
    prepared = PreparedTable(table)
    prepared._keys = keys
    prepared._sa_distribution = sa_distribution
    return prepared


def run_shard(
    algorithm: str,
    table: Table,
    *,
    keys: np.ndarray,
    sa_distribution: np.ndarray,
    rng=None,
    telemetry=None,
    **params,
) -> ShardPiece:
    """Anonymize one shard table; return its publication in compact form.

    ``table`` holds the shard's rows only, ``keys`` their Hilbert keys
    (global curve), ``sa_distribution`` the anonymization-time ``P`` —
    see :func:`prepare_shard`.  Only group-based output formats can be
    sharded; whole-table formats (``perturb``) are refused.
    """
    start = time.perf_counter()
    result = engine_run(
        algorithm,
        table,
        rng=rng,
        shared=prepare_shard(table, keys, sa_distribution),
        telemetry=telemetry,
        **params,
    )
    published = result.published
    if isinstance(published, GeneralizedTable):
        kind, l, boxes = "generalized", None, published.boxes
    elif isinstance(published, AnatomyTable):
        kind, l, boxes = "anatomy", published.l, None
    else:
        raise TypeError(
            f"algorithm {algorithm!r} publishes "
            f"{type(published).__name__}, which has no per-shard group "
            "structure to merge; run it unsharded (workers apply only "
            "to group-based formats)"
        )
    return ShardPiece(
        kind=kind,
        rows=published.rows,
        offsets=published.offsets,
        boxes=boxes,
        l=l,
        params=result.params,
        stage_seconds=result.stage_seconds,
        elapsed_seconds=time.perf_counter() - start,
    )


def merge_stage_seconds(pieces: "list[ShardPiece]") -> dict:
    """Per-stage totals across shard pieces, in canonical stage order."""
    merged: dict[str, float] = {}
    for name in STAGES:
        total = [p.stage_seconds[name] for p in pieces
                 if name in p.stage_seconds]
        if total:
            merged[name] = float(sum(total))
    return merged


def merge_pieces(table: Table, pieces: "list[ShardPiece]"):
    """Concatenate lifted shard pieces into a whole-table publication.

    Group order is shard order (each shard's internal group order
    preserved), which is also ascending Hilbert-range order — the same
    locality the single-table materialization sweep produces.  The
    publication constructor re-validates the exact row partition — the
    merge's cheapest full correctness check — so a stale or mis-lifted
    piece fails loudly here rather than corrupting an audit downstream.
    """
    kinds = {piece.kind for piece in pieces}
    if len(kinds) != 1:
        raise ValueError(f"cannot merge mixed shard kinds {sorted(kinds)}")
    first = pieces[0]
    merged = dataclasses.replace(
        first,
        rows=np.concatenate([p.rows for p in pieces]),
        offsets=group_offsets(
            np.concatenate([np.diff(p.offsets) for p in pieces])
        ),
        boxes=(
            np.concatenate([p.boxes for p in pieces])
            if first.boxes is not None
            else None
        ),
    )
    return merged.publication(table)
