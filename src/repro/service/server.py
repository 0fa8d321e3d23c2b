"""In-process concurrent query service over stored publications.

The recipient-facing half of the service layer: clients submit COUNT,
SUM or AVG queries against admitted publications and get estimates
back.  Three mechanisms make the path cheap under heavy traffic:

* **micro-batching** — concurrent requests against the same publication
  are drained together and encoded into one
  :class:`~repro.query.workload.EncodedWorkload`, so the batched query
  engine amortizes mask construction across the batch exactly as the
  experiment sweeps do;
* **artifact reuse** — loaded publications live in an LRU cache keyed
  by publication id with their answerers, and their serving artifacts
  (bitmap index / mask engine, count cubes) live in a shared
  :class:`~repro.api.ArtifactCache` keyed by *content digest*, so
  repeated requests never rebuild indexes — even across a publication
  being evicted and reloaded, or two store objects holding the same
  content.  Evicting a publication explicitly invalidates its artifact
  entries, so the LRU bound still bounds memory;
* **thread-pool execution** — worker threads serve different
  publications (or successive batches of one) concurrently; numpy
  kernels release the GIL for the heavy parts.

Every batch, whatever its operation, is one call of the query layer's
answering seam (:func:`repro.query.evaluate.answer_batch`) on a serving
thread, which also reports the backend label that answered it.
Answers are **bit-identical** to calling
:func:`~repro.query.evaluate.batch_estimates` /
:func:`~repro.query.aggregates.batch_aggregate_estimates` directly:
per-query results do not depend on how requests are grouped into
batches, because every batch kernel computes each query's estimate
independently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import NULL_SPAN, MetricsRegistry, coerce_telemetry
from ..query.evaluate import (
    answer_batch,
    check_aggregate_op,
    check_backend,
    make_answerer,
)
from ..query.workload import CountQuery, EncodedWorkload
from .store import PublicationRecord, PublicationStore


@dataclass
class _Serving:
    """One loaded publication plus its warm serving artifacts."""

    record: PublicationRecord
    publication: object
    answerer: object
    #: Label of the backend that answered the most recent batch
    #: ("cube" / "bitmap" / "ec"), None before the first batch.
    backend: "str | None" = None

    @property
    def table(self):
        return self.publication.source

    @property
    def schema(self):
        return self.table.schema


class ServiceStats:
    """Counters exposed by :meth:`QueryService.stats_snapshot`.

    A *view* over a :class:`repro.obs.MetricsRegistry`: every counter
    lives in the registry under a ``service.*`` name, so a service given
    an enabled :class:`repro.obs.Telemetry` records straight into the
    session registry — one source of truth for stats snapshots, metric
    exports and trace files — while a service without telemetry records
    into a private registry and keeps counting exactly as before.

    Metric names are precomputed (no string formatting on the request
    path); read counters through :meth:`snapshot` or the registry.
    """

    #: Snapshot keys → registry metric names (backend labels aside).
    _FULL = {
        name: f"service.{name}"
        for name in (
            "requests",
            "batches",
            "batched_queries",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cube_fallbacks",
        )
    }
    _BACKEND_PREFIX = "service.served_by_backend."

    def __init__(self, registry: "MetricsRegistry | None" = None):
        # reprolint: ignore[OBS001] -- stats must keep counting when telemetry is disabled; the private registry is this class's documented fallback
        self.registry = registry if registry is not None else MetricsRegistry()
        #: label -> full metric name, memoized so the per-batch counting
        #: path never builds strings.
        self._backend_metrics: dict[str, str] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.registry.inc(self._FULL[name], amount)

    def count_backend(self, label: str) -> None:
        metric = self._backend_metrics.get(label)
        if metric is None:
            metric = self._BACKEND_PREFIX + label
            self._backend_metrics[label] = metric
        self.registry.inc(metric)

    def snapshot(self) -> dict:
        """Deep-copied snapshot of every counter; ``served_by_backend``
        maps a backend label ("cube" / "bitmap" / "ec") to its batches."""
        counters = self.registry.export()["counters"]
        batches = int(counters.get("service.batches", 0))
        batched = int(counters.get("service.batched_queries", 0))
        prefix = self._BACKEND_PREFIX
        return {
            "requests": int(counters.get("service.requests", 0)),
            "batches": batches,
            "batched_queries": batched,
            "mean_batch_size": batched / batches if batches else 0.0,
            "cache_hits": int(counters.get("service.cache_hits", 0)),
            "cache_misses": int(counters.get("service.cache_misses", 0)),
            "cache_evictions": int(
                counters.get("service.cache_evictions", 0)
            ),
            "served_by_backend": {
                name[len(prefix):]: int(value)
                for name, value in counters.items()
                if name.startswith(prefix)
            },
            "cube_fallbacks": int(counters.get("service.cube_fallbacks", 0)),
        }


class QueryService:
    """Thread-pooled, micro-batching COUNT/SUM/AVG serving over a store.

    Args:
        store: The :class:`PublicationStore` to serve from.
        workers: Size of the serving thread pool.
        cache_size: Maximum number of publications held loaded (LRU);
            evicting a publication also releases its weakly keyed
            bitmap index.
        max_batch: Upper bound on queries drained into one encoded
            micro-batch.
        linger_seconds: How long a worker waits after finding a
            non-empty queue before draining it, letting concurrent
            submitters coalesce into one batch (0 drains immediately;
            under sustained load batches fill while workers are busy,
            so the linger mainly helps bursty low-load traffic).
        artifact_cache: Optional :class:`repro.api.ArtifactCache` the
            batched query engine keys mask engines / cubes in; pass
            a facade's cache to share artifacts with it, or leave None
            for a private one.
        backend: Answer-backend preference —
            ``"auto"`` (default) serves from the count cube a store
            admission attached to the publication and falls back to the
            bitmap engine, ``"cube"`` additionally builds missing cubes
            on first use, ``"bitmap"`` never consults cubes.  Estimates
            are bit-identical either way; :attr:`ServiceStats` records
            which backend answered each batch.
        telemetry: Optional :class:`repro.obs.Telemetry`.  When enabled,
            :attr:`stats` counts into its registry (so the service's
            counters appear in the session's metric snapshot), every
            batch runs under a ``serve.batch`` span, and per-request
            queue-wait / end-to-end latency plus per-batch size and
            per-backend serve-time histograms are recorded.  Disabled
            (the default), the serve path allocates nothing for
            telemetry and :attr:`stats` counts into a private registry.

    Use as a context manager, or call :meth:`close` to join the pool.
    """

    def __init__(
        self,
        store: PublicationStore,
        *,
        workers: int = 2,
        cache_size: int = 8,
        max_batch: int = 1024,
        linger_seconds: float = 0.0,
        artifact_cache=None,
        backend: str = "auto",
        telemetry=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self._backend = check_backend(backend)
        self.telemetry = coerce_telemetry(telemetry)
        if artifact_cache is None:
            from ..api.cache import ArtifactCache

            # A private cache joins the service's telemetry; a shared
            # cache keeps whatever telemetry its owner attached.
            artifact_cache = ArtifactCache(telemetry=self.telemetry)
        self._artifacts = artifact_cache
        self._store = store
        self._max_batch = max_batch
        self._linger = linger_seconds
        self._cache_size = cache_size
        self._cache: "OrderedDict[str, _Serving]" = OrderedDict()
        self._aliases: dict[str, str] = {}  # prefix id -> canonical id
        self._cache_lock = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}
        self.stats = ServiceStats(
            registry=self.telemetry.metrics if self.telemetry.enabled
            else None
        )

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # (pub_id, agg) -> FIFO of (query, future, t0); drained in
        # round-robin order.  ``agg`` is None for COUNT requests or
        # ``(measure_dim, op)`` for aggregates, so a drained batch is
        # always homogeneous and encodes into one kernel call.
        self._pending: "OrderedDict[tuple, deque]" = OrderedDict()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(
        self,
        pub_id: str,
        query: CountQuery,
        *,
        aggregate: "tuple[int, str] | None" = None,
    ) -> Future:
        """Enqueue one query; resolves to a float estimate.

        ``aggregate=None`` (the default) asks for the query's COUNT
        estimate.  ``aggregate=(measure_dim, op)`` with ``op`` in
        ``("sum", "avg")`` asks for the SUM/AVG estimate of QI dimension
        ``measure_dim`` over the query's selection instead, served
        through the same seam as COUNT
        (:func:`repro.query.evaluate.answer_batch`).
        Requests micro-batch per ``(publication, aggregate)`` key, so
        COUNTs and each aggregate shape drain into separate batches.
        """
        if aggregate is not None:
            aggregate = (int(aggregate[0]), check_aggregate_op(aggregate[1]))
        future: Future = Future()
        t0 = time.perf_counter() if self.telemetry.enabled else 0.0
        key = (pub_id, aggregate)
        with self._cond:
            if self._closed:
                raise RuntimeError("the service is closed")
            queue = self._pending.get(key)
            if queue is None:
                queue = deque()
                self._pending[key] = queue
            queue.append((query, future, t0))
            self._cond.notify()
        self.stats.count("requests")
        return future

    def answer(
        self, pub_id: str, queries: Sequence[CountQuery]
    ) -> np.ndarray:
        """Submit a whole workload and wait for its estimates, in order."""
        futures = [self.submit(pub_id, query) for query in queries]
        return np.array([future.result() for future in futures])

    def answer_aggregate(
        self,
        pub_id: str,
        queries: Sequence[CountQuery],
        measure_dim: int,
        op: str = "sum",
    ) -> np.ndarray:
        """Submit a SUM/AVG workload and wait for its estimates, in order.

        The aggregate sibling of :meth:`answer`: estimates are
        bit-identical to calling
        :func:`repro.query.aggregates.batch_aggregate_estimates`
        directly, however requests are batched.
        """
        futures = [
            self.submit(pub_id, query, aggregate=(measure_dim, op))
            for query in queries
        ]
        return np.array([future.result() for future in futures])

    def load(self, pub_id: str) -> PublicationRecord:
        """Warm the cache for a publication; returns its record."""
        return self._serving(pub_id).record

    def publication(self, pub_id: str):
        """The loaded publication object (cached, answerable)."""
        return self._serving(pub_id).publication

    def stats_snapshot(self) -> dict:
        return self.stats.snapshot()

    def close(self) -> None:
        """Stop accepting requests, drain the queue, join the pool."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Publication cache
    # ------------------------------------------------------------------

    def _lookup(self, pub_id: str) -> "_Serving | None":
        """Cache hit path; canonicalizes prefix ids via the alias map."""
        canonical = self._aliases.get(pub_id, pub_id)
        serving = self._cache.get(canonical)
        if serving is not None:
            self._cache.move_to_end(canonical)
            self.stats.count("cache_hits")
        return serving

    def _serving(self, pub_id: str) -> _Serving:
        with self._cache_lock:
            serving = self._lookup(pub_id)
            if serving is not None:
                return serving
            load_lock = self._load_locks.setdefault(pub_id, threading.Lock())
        try:
            with load_lock:
                # Double-check: another thread may have loaded it
                # meanwhile.
                with self._cache_lock:
                    serving = self._lookup(pub_id)
                    if serving is not None:
                        return serving
                record = self._store.record(pub_id)
                publication = self._store.get(record.pub_id)
                serving = _Serving(
                    record=record,
                    publication=publication,
                    answerer=make_answerer(publication),
                )
                cube = publication.__dict__.get("_count_cube")
                if cube is not None:
                    # Register the persisted cube under its content key
                    # so the shared artifact cache accounts its bytes
                    # and other holders of equal content can serve from
                    # it; eviction below drops it by the same digest.
                    self._artifacts.put(("cube", record.pub_id), cube)
                with self._cache_lock:
                    # Only the canonical id occupies an LRU slot; prefix
                    # lookups resolve through the alias map, so aliases
                    # neither consume capacity nor age independently.
                    if pub_id != record.pub_id:
                        self._aliases[pub_id] = record.pub_id
                    self._cache[record.pub_id] = serving
                    while len(self._cache) > self._cache_size:
                        _, evicted = self._cache.popitem(last=False)
                        # Dropping the publication must also drop its
                        # content-keyed serving artifacts, or the LRU
                        # bound would stop bounding memory.  Publication-
                        # keyed entries (cubes) go unconditionally;
                        # the table-keyed mask engine is shared by every
                        # publication over the same source, so it only
                        # goes when the *last* such publication leaves.
                        self._artifacts.invalidate(
                            digest=evicted.record.pub_id
                        )
                        table_digest = self._artifacts.table_key(
                            evicted.table
                        )
                        if not any(
                            self._artifacts.table_key(s.table) == table_digest
                            for s in self._cache.values()
                        ):
                            for kind in ("mask_engine", "cube_table"):
                                self._artifacts.invalidate(
                                    kind, digest=table_digest
                                )
                        self.stats.count("cache_evictions")
                    self.stats.count("cache_misses")
        finally:
            with self._cache_lock:
                self._load_locks.pop(pub_id, None)
        return serving

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _take_batch(self):
        """Pop up to ``max_batch`` requests of the oldest pending key."""
        for key, queue in self._pending.items():
            batch = []
            while queue and len(batch) < self._max_batch:
                batch.append(queue.popleft())
            if not queue:
                del self._pending[key]
            else:
                # Round-robin fairness between hot publications.
                self._pending.move_to_end(key)
            if batch:
                return key, batch
        return None

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._linger > 0 and self._pending and not self._closed:
                    self._cond.wait(self._linger)
                taken = self._take_batch()
                if taken is None:
                    if self._closed:
                        return
                    continue
            (pub_id, aggregate), batch = taken
            self._answer_batch(pub_id, aggregate, batch)

    def serving_backend(self, pub_id: str) -> "str | None":
        """Backend label that answered ``pub_id``'s most recent batch
        ("cube" / "bitmap" / "ec"), or None if not loaded / not yet
        asked."""
        with self._cache_lock:
            serving = self._cache.get(self._aliases.get(pub_id, pub_id))
            return serving.backend if serving is not None else None

    def _answer_batch(
        self, pub_id: str, aggregate: "tuple[int, str] | None", batch: list
    ) -> None:
        tel = self.telemetry
        queries = tuple(item[0] for item in batch)
        futures = [item[1] for item in batch]
        if tel.enabled:
            now = time.perf_counter()
            for item in batch:
                tel.observe("service.queue_wait", now - item[2])
            tel.observe("service.batch_size", float(len(batch)))
            span = tel.span(
                "serve.batch",
                pub=pub_id[:12],
                queries=len(batch),
                kind="count" if aggregate is None
                else f"{aggregate[1]}[{aggregate[0]}]",
            )
        else:
            span = NULL_SPAN
        try:
            with span:
                serving = self._serving(pub_id)
                enc = EncodedWorkload.encode(serving.schema, queries)
                served: dict = {}
                estimates = answer_batch(
                    serving.table,
                    {"served": serving.answerer},
                    enc,
                    aggregate,
                    artifacts=self._artifacts,
                    backend=self._backend,
                    served=served,
                )["served"]
                label = served["served"]
                span.set("backend", label)
        except BaseException as exc:  # noqa: BLE001 - forwarded to clients
            for future in futures:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        serving.backend = label
        stats = self.stats
        stats.count("batches")
        stats.count("batched_queries", len(batch))
        stats.count_backend(label)
        if label == "bitmap" and self._backend != "bitmap":
            stats.count("cube_fallbacks")
        if tel.enabled:
            tel.observe(f"service.serve_seconds.{label}", span.duration)
            end = time.perf_counter()
            for item in batch:
                tel.observe("service.request_seconds", end - item[2])
        for future, estimate in zip(futures, estimates):
            if not future.cancelled():
                future.set_result(float(estimate))
