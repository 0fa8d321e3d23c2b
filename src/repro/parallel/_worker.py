"""Process-side task functions of the parallel layer.

Everything here is a **top-level picklable function** taking plain
picklable arguments — the contract a ``ProcessPoolExecutor`` imposes.
The same functions also run inline for the ``workers=1`` serial
fallback (the executor passes the in-process shard table instead of a
shared-memory handle), which is what makes serial and pooled execution
byte-identical: one code path, two transports.

Shards are anonymized and evaluated here; the audit is not: a merged
publication already carries its membership and SA histograms, so the
parent builds its audit view directly.  Shard publications travel as
columnar :class:`~repro.engine.shard.ShardPiece` arrays in both
directions.

Per-process caches mirror the parent's content-digest discipline: shard
tables are memoized by ``(table digest, shard index)``, serving
artifacts live in a process-local :class:`repro.api.ArtifactCache`
keyed by the very same digests the parent uses, and rebuilt
publications are memoized by their content digest.  A worker therefore
pays each reconstruction once per process, no matter how tasks are
scheduled.
"""

from __future__ import annotations

import numpy as np

from ..dataset.table import Table
from ..engine.batch import PreparedTable
from ..engine.registry import run as engine_run
from ..engine.shard import ShardPiece, run_shard, shard_error
from ..io import publication_from_payload
from ..query.cube import CountCube
from ..query.evaluate import (
    answer_batch,
    answer_precise_batch,
    batch_estimates,
)
from ..query.workload import EncodedWorkload
from .shm import ArrayHandle, TableHandle, load_array, load_table

# ----------------------------------------------------------------------
# Per-process state
# ----------------------------------------------------------------------

#: (table digest, shard index | None) -> (Table, keys | None)
_SHARDS: dict = {}

#: content digest -> (publication, answerer) for the serving path
_PUBS: dict = {}

#: lazily created process-local ArtifactCache (mask engines, cubes, ...)
_CACHE = None


def _artifact_cache():
    global _CACHE
    if _CACHE is None:
        from ..api.cache import ArtifactCache

        _CACHE = ArtifactCache()
    return _CACHE


def traced_task(fn, enabled: bool, *args):
    """Run one task function, buffering its telemetry when enabled.

    The transport half of cross-process tracing: with telemetry enabled
    the task runs under a fresh worker-local
    :class:`~repro.obs.Telemetry`, and the result ships back as
    ``(result, {"spans": ..., "metrics": ...})`` — span records plus a
    mergeable registry export — for the parent session to
    :meth:`~repro.obs.Tracer.adopt` and :meth:`~repro.obs.MetricsRegistry.
    merge`.  Disabled, it is a plain pass-through call (``(result,
    None)``), identical for the pooled and serial transports.
    """
    if not enabled:
        return fn(*args), None
    from ..obs import Telemetry

    telemetry = Telemetry()
    result = fn(*args, telemetry=telemetry)
    return result, {
        "spans": telemetry.tracer.export(),
        "metrics": telemetry.metrics.export(),
    }


def reset_worker_state() -> None:
    """Drop all per-process memos (tests use this to measure cold paths)."""
    global _CACHE
    _SHARDS.clear()
    _PUBS.clear()
    _CACHE = None


def _resolve_shard(source, rows, shard_index):
    """``(table, keys)`` of one shard, from either transport.

    ``source`` is a :class:`TableHandle` in pooled mode (attach shared
    memory, copy the shard's rows out, memoize per process) or an
    in-process ``(table, keys)`` pair in serial mode (already subset by
    the executor).
    """
    if isinstance(source, TableHandle):
        token = (source.digest, shard_index)
        hit = _SHARDS.get(token)
        if hit is None:
            if isinstance(rows, ArrayHandle):
                rows = load_array(rows)
            hit = load_table(source, rows)
            _SHARDS[token] = hit
        return hit
    table, keys = source
    return table, keys


# ----------------------------------------------------------------------
# Anonymization
# ----------------------------------------------------------------------


def shard_anonymize(
    source,
    rows,
    shard_index: int,
    n_shards: int,
    algorithm: str,
    params: dict,
    seed_seq,
    probs,
    telemetry=None,
) -> ShardPiece:
    """Run one shard's pipeline; return the publication in columnar form.

    A thin transport adapter over :func:`repro.engine.shard.run_shard`:
    resolve the shard table from the active transport, spawn the shard's
    generator, run.  The piece ships row *indices local to the shard*,
    the group offsets and the boxes — never the shard table itself — so
    the transfer back to the parent is a few percent of the table size.
    A shard the algorithm cannot anonymize raises a ``ValueError`` that
    names the shard, chained to the algorithm's own.
    """
    table, keys = _resolve_shard(source, rows, shard_index)
    rng = np.random.default_rng(seed_seq) if seed_seq is not None else None
    try:
        return run_shard(
            algorithm,
            table,
            keys=keys,
            sa_distribution=probs,
            rng=rng,
            telemetry=telemetry,
            **params,
        )
    except ValueError as exc:
        raise shard_error(exc, shard_index, n_shards, table.n_rows) from exc


# ----------------------------------------------------------------------
# Workload evaluation
# ----------------------------------------------------------------------


def shard_evaluate(
    source,
    rows,
    shard_index: int,
    piece: "ShardPiece | None",
    enc: EncodedWorkload,
    telemetry=None,
) -> dict:
    """Precise COUNTs (and estimates, if a shard-local piece is given)
    of one shard.

    Ranges partition by rows, so per-query precise counts and estimator
    sums are additive across shards; the parent folds them in shard
    order.  Mask engines and encoded workloads come from the
    process-local artifact cache, keyed by the shard table's content
    digest.
    """
    from ..obs import coerce_telemetry

    table, _ = _resolve_shard(source, rows, shard_index)
    cache = _artifact_cache()
    with coerce_telemetry(telemetry).span(
        "shard.evaluate", rows=table.n_rows, queries=enc.n_queries
    ):
        out = {
            "shard": shard_index,
            "precise": answer_precise_batch(table, enc, artifacts=cache),
        }
        if piece is not None:
            publication = piece.publication(table)
            out["estimates"] = batch_estimates(
                table, {"shard": publication}, enc, artifacts=cache
            )["shard"]
        return out


# ----------------------------------------------------------------------
# Job-level parallelism (sweeps)
# ----------------------------------------------------------------------


class _DetachedSource:
    """Placeholder for a stripped publication source (digest only)."""

    def __init__(self, digest: str):
        self.digest = digest


def _strip_source(published):
    """Replace the embedded source table with a digest marker, in place.

    Worker-side tables are shared-memory reconstructions; pickling them
    back inside every publication would copy the whole table per job.
    The parent re-attaches its own (content-identical) table object.
    """
    from ..io import table_digest

    published.source = _DetachedSource(table_digest(published.source))
    return published


def reattach_source(published, table: Table):
    """Undo :func:`_strip_source` with the parent's table object."""
    from ..io import table_digest

    marker = published.source
    if isinstance(marker, _DetachedSource) and marker.digest != table_digest(
        table
    ):
        raise ValueError(
            "publication was produced over a different table content"
        )
    published.source = table
    return published


def job_run(source, algorithm: str, params: dict, seed, telemetry=None):
    """Run one whole-table engine job in this process (sweep mode).

    Returns the full :class:`~repro.engine.pipeline.RunResult` with the
    publication's source stripped to a digest marker.
    """
    token = (source.digest, None) if isinstance(source, TableHandle) else None
    if token is not None:
        hit = _SHARDS.get(token)
        if hit is None:
            hit = load_table(source, None)
            _SHARDS[token] = hit
        table, keys = hit
    else:
        table, keys = source
    prepared = PreparedTable(table)
    prepared._keys = keys
    result = engine_run(
        algorithm, table, rng=seed, shared=prepared, telemetry=telemetry,
        **params,
    )
    _strip_source(result.published)
    return result


# ----------------------------------------------------------------------
# Serving (process-pool estimates for QueryService)
# ----------------------------------------------------------------------


def load_publication_payload(digest: str, meta: dict, array_handles: dict):
    """Materialize a served publication in this process (idempotent)."""
    if digest in _PUBS:
        return True
    arrays = {
        name: load_array(handle) for name, handle in array_handles.items()
    }
    publication = publication_from_payload(meta, arrays)
    publication._content_digest = digest
    cube_meta = meta.get("aux_cube")
    if cube_meta is not None:
        publication._count_cube = CountCube.from_payload(cube_meta, arrays)
    from ..query.evaluate import make_answerer

    _PUBS[digest] = (publication, make_answerer(publication))
    return True


def serve_estimates(
    digest: str,
    enc: EncodedWorkload,
    aggregate: "tuple[int, str] | None" = None,
    meta: dict | None = None,
    array_handles: dict | None = None,
    backend: str = "auto",
) -> "tuple[np.ndarray, str]":
    """COUNT/SUM/AVG estimates for a served publication, by content
    digest, under the service's ``backend``, with the backend label the
    answering seam reports.

    The first task naming a digest carries the payload handles; any
    worker that has not yet materialized the publication does so on
    demand, so results are independent of task→worker scheduling.
    """
    if digest not in _PUBS:
        if meta is None or array_handles is None:
            raise KeyError(
                f"publication {digest[:12]} not materialized in this "
                "worker and no payload was provided"
            )
        load_publication_payload(digest, meta, array_handles)
    publication, answerer = _PUBS[digest]
    served: dict = {}
    estimates = answer_batch(
        publication.source,
        {"served": answerer},
        enc,
        aggregate,
        artifacts=_artifact_cache(),
        backend=backend,
        served=served,
    )["served"]
    return estimates, served["served"]
