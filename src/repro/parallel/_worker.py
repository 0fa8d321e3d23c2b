"""Process-side task functions of the parallel layer.

Everything here is a **top-level picklable function** taking plain
picklable arguments — the contract a ``ProcessPoolExecutor`` imposes.

A pool's workers take their inputs at start-up:
:class:`~repro.parallel.ShardedSession` builds its pool with
``initializer=init_worker`` and hands it the table, its Hilbert keys and
the per-shard row arrays once.  Under ``fork`` the workers inherit those
objects without a copy; under ``spawn`` or ``forkserver`` they are
pickled once per worker.  A task then names only its shard, and the
worker slices that shard from its start-up state once
(:class:`ShardSource`).  The ``workers=1`` serial fallback runs the same
task functions inline over the session's own :class:`ShardSource`,
which is what makes serial and pooled execution byte-identical.

Shards are anonymized and evaluated here; the audit is not: a merged
publication already carries its membership and SA histograms, so the
parent builds its audit view directly.  Shard publications travel back
as columnar :class:`~repro.engine.shard.ShardPiece` arrays.

Serving artifacts (mask engines, encoded workloads) live in a
process-local :class:`repro.api.ArtifactCache` keyed by the very same
content digests the parent uses, so a worker builds each once per
process, no matter how tasks are scheduled.
"""

from __future__ import annotations

import numpy as np

from ..dataset.table import Table
from ..engine.batch import PreparedTable
from ..engine.registry import run as engine_run
from ..engine.shard import ShardPiece, run_shard, shard_error
from ..query.evaluate import answer_precise_batch, batch_estimates
from ..query.workload import EncodedWorkload

# ----------------------------------------------------------------------
# Per-process state
# ----------------------------------------------------------------------


class ShardSource:
    """A table, its Hilbert keys and its per-shard row arrays.

    :meth:`shard` slices a shard's ``(table, keys)`` on first use and
    memoizes it per shard index, so a process pays each slice once.
    """

    def __init__(self, table: Table, keys: np.ndarray, shard_rows):
        self.table = table
        self.keys = keys
        self.shard_rows = shard_rows
        self._shards: dict[int, tuple] = {}

    def shard(self, index: "int | None") -> "tuple[Table, np.ndarray]":
        """``(table, keys)`` of shard ``index``; ``None``: the whole table."""
        if index is None:
            return self.table, self.keys
        hit = self._shards.get(index)
        if hit is None:
            rows = self.shard_rows[index]
            hit = (self.table.subset(rows), self.keys[rows])
            self._shards[index] = hit
        return hit


#: This pool worker's start-up state (see :func:`init_worker`).
_SOURCE: "ShardSource | None" = None

#: lazily created process-local ArtifactCache (mask engines, cubes, ...)
_CACHE = None


def init_worker(table: Table, keys: np.ndarray, shard_rows) -> None:
    """Pool initializer: keep the session's inputs for every task."""
    global _SOURCE
    _SOURCE = ShardSource(table, keys, shard_rows)


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
    None)``), identical for pooled and serial execution.
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


def run_task(fn, enabled: bool, shard, *args, source=None):
    """``fn(table, keys, *args)`` over one shard (``None``: the whole
    table) of ``source``, through :func:`traced_task`.

    Pool workers leave ``source`` unset and read their start-up state;
    the serial fallback passes the session's own :class:`ShardSource`.
    """
    table, keys = (_SOURCE if source is None else source).shard(shard)
    return traced_task(fn, enabled, table, keys, *args)


# ----------------------------------------------------------------------
# Anonymization
# ----------------------------------------------------------------------


def shard_anonymize(
    table: Table,
    keys: np.ndarray,
    shard_index: int,
    n_shards: int,
    algorithm: str,
    params: dict,
    seed_seq,
    probs,
    telemetry=None,
) -> ShardPiece:
    """Run one shard's pipeline; return the publication in columnar form.

    A thin adapter over :func:`repro.engine.shard.run_shard`: spawn the
    shard's generator, run.  The piece ships row *indices local to the
    shard*, the group offsets and the boxes — never the shard table
    itself — so the transfer back to the parent is a few percent of the
    table size.
    A shard the algorithm cannot anonymize raises a ``ValueError`` that
    names the shard, chained to the algorithm's own.
    """
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
    table: Table,
    keys: np.ndarray,
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

    Pickling the worker's table back inside every publication would copy
    the whole table per job; the parent re-attaches its own
    (content-identical) table object.
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


def job_run(
    table: Table, keys: np.ndarray, algorithm: str, params: dict, seed,
    telemetry=None,
):
    """Run one whole-table engine job in this process (sweep mode).

    Returns the full :class:`~repro.engine.pipeline.RunResult` with the
    publication's source stripped to a digest marker.
    """
    prepared = PreparedTable(table)
    prepared._keys = keys
    result = engine_run(
        algorithm, table, rng=seed, shared=prepared, telemetry=telemetry,
        **params,
    )
    _strip_source(result.published)
    return result

