"""The cross-layer artifact cache behind the :class:`repro.api.Dataset` facade.

The layers memoize only through a cache they are given.  A
:class:`~repro.api.Dataset`, a :class:`~repro.service.QueryService` and a
:class:`~repro.parallel.ShardedSession` each own one per session, and the
free functions of ``repro.query`` and ``repro.audit`` take it as an
optional ``cache``/``artifacts`` argument; without one they build what
the call needs and keep nothing once it returns.  A session's
:class:`ArtifactCache` is therefore the only place an artifact outlives a
call, and it is shared along the anonymize → audit → certify → publish →
serve chain, so each layer boundary reuses what the previous layer built.

Entries are keyed by **content digest** (:func:`repro.io.table_digest` /
:func:`repro.io.publication_digest` — the same SHA-256 the publication
store uses as object id), so an equal-content table or publication
reloaded from disk hits.  Sizes are accounted per entry with an optional
LRU byte budget, and invalidation is explicit (by artifact kind, by
content digest, or wholesale).

The cache is duck-typed from the layers' perspective: they accept any
object with ``get_or_build`` / ``table_key`` / ``publication_key`` and
never import this module, keeping the dependency graph acyclic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from ..anonymity.anatomy import BaselinePublication
from ..core.perturb import PerturbedTable
from ..dataset.published import GroupedPublication
from ..dataset.table import Table
from ..io import publication_digest, table_digest
from ..obs import NULL_TELEMETRY, Telemetry

#: Artifact kinds the layers store (key[0] values); informational — the
#: cache accepts any tuple key whose first element names the kind.
ARTIFACT_KINDS = (
    "prepared",
    "hilbert_keys",
    "sa_distribution",
    "row_buckets",
    "mask_engine",
    "encoded",
    "precise",
    "view",
    "shard_run",
    "cube",
    "cube_table",
)


#: What artifacts reference but do not own: the session's table and the
#: publications built over it.  Charging them per artifact would
#: multiply-charge the same buffers.
_REFERENCED = (Table, GroupedPublication, PerturbedTable, BaselinePublication)


def estimate_nbytes(value: Any, _depth: int = 0) -> int:
    """Approximate heap footprint of what an artifact owns.

    An object that reports its own integer ``nbytes`` (arrays, the
    bitmap index, encoded workloads, count cubes) is charged that;
    otherwise the sum runs through dicts, sequences and object
    ``__dict__``s (bounded depth).  Tables and publications are skipped
    (:data:`_REFERENCED`).
    """
    if isinstance(value, _REFERENCED):
        return 0
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if _depth >= 5:
        return 0
    if isinstance(value, Mapping):
        return sum(estimate_nbytes(v, _depth + 1) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(estimate_nbytes(v, _depth + 1) for v in value)
    inner = getattr(value, "__dict__", None)
    if inner:
        return estimate_nbytes(inner, _depth + 1)
    return 0


class ArtifactCache:
    """Content-keyed, size-accounted cache of per-table/per-publication
    artifacts shared by every layer of the facade.

    Keys are tuples ``(kind, content_digest, *params)``.  The cache
    derives digests itself (:meth:`table_key` / :meth:`publication_key`),
    memoizing them on the keyed objects, so callers never hash twice.

    Args:
        max_bytes: Optional LRU byte budget.  ``None`` (the default)
            never evicts — appropriate for a session over one table,
            where the artifacts are bounded by the handful of kinds.
            When set, least-recently-used entries are dropped until the
            estimated total fits (the most recent entry always stays,
            even when it alone exceeds the budget).
        telemetry: Optional :class:`repro.obs.Telemetry`; when enabled,
            builds/hits/evictions/carries/invalidations are counted per
            artifact kind (``cache.hit.<kind>``, ...,
            ``cache.invalidate.<kind>`` once per dropped entry) in its
            registry and the held-bytes gauge tracks insertions.
            Assignable after construction (``cache.telemetry = tel``) —
            a :class:`~repro.api.Dataset` attaches its session telemetry
            to the cache it is given.

    Thread-safe: the query service shares one cache across its worker
    pool.  Entry sizes are estimated at insertion time
    (:func:`estimate_nbytes`); artifacts that grow afterwards (a view's
    per-metric memo) are deliberately not re-measured on every touch.
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        *,
        telemetry: "Telemetry | None" = None,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_bytes = max_bytes
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._entries: "OrderedDict[tuple, tuple[Any, int]]" = OrderedDict()
        self._nbytes = 0
        self._lock = threading.RLock()
        self._building: dict[tuple, threading.RLock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Content keys
    # ------------------------------------------------------------------

    @staticmethod
    def table_key(table: Table) -> str:
        """Content digest of a table (memoized on the object)."""
        return table_digest(table)

    @staticmethod
    def publication_key(published) -> str:
        """Content digest of a publication — identical to the id the
        publication store assigns it, so store round-trips hit."""
        return publication_digest(published)

    # ------------------------------------------------------------------
    # Core protocol (what the layers call)
    # ------------------------------------------------------------------

    def get_or_build(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The cached artifact under ``key``, building it on first use.

        ``build`` runs under a **per-key** lock, not the cache-wide one,
        so one slow build (a 100K-row bitmap index) never stalls hits —
        or builds of other keys — on the service's worker pool, while
        concurrent requests for the *same* key still build it exactly
        once.  Builders may themselves consult the cache (the per-key
        locks form a DAG: prepared → hilbert keys → ..., never cyclic).
        """
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self.telemetry.count(f"cache.hit.{key[0]}")
                return hit[0]
            build_lock = self._building.setdefault(key, threading.RLock())
        with build_lock:
            with self._lock:
                # Double-check: a concurrent builder may have finished.
                hit = self._entries.get(key)
                if hit is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    self.telemetry.count(f"cache.hit.{key[0]}")
                    return hit[0]
            try:
                value = build()
                with self._lock:
                    self._misses += 1
                    self._put_locked(key, value)
                self.telemetry.count(f"cache.miss.{key[0]}")
                return value
            finally:
                with self._lock:
                    self._building.pop(key, None)

    def get(self, key: tuple, default: Any = None) -> Any:
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return default
            self._entries.move_to_end(key)
            return hit[0]

    def put(self, key: tuple, value: Any) -> None:
        with self._lock:
            self._put_locked(key, value)

    def carry(self, key: tuple, value: Any) -> None:
        """:meth:`put` an artifact extended to a grown table's content
        key instead of rebuilt, counted as ``cache.carry.<kind>``."""
        self.put(key, value)
        if self.telemetry.enabled:
            self.telemetry.count(f"cache.carry.{key[0]}")

    def _put_locked(self, key: tuple, value: Any) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= old[1]
        nbytes = estimate_nbytes(value)
        self._entries[key] = (value, nbytes)
        self._nbytes += nbytes
        if self.max_bytes is not None:
            while self._nbytes > self.max_bytes and len(self._entries) > 1:
                oldest = next(iter(self._entries))
                if oldest == key:
                    break
                _, dropped = self._entries.pop(oldest)
                self._nbytes -= dropped
                self._evictions += 1
                self.telemetry.count(f"cache.evict.{oldest[0]}")
        if self.telemetry.enabled:
            self.telemetry.gauge("cache.nbytes", self._nbytes)

    # ------------------------------------------------------------------
    # Invalidation and introspection
    # ------------------------------------------------------------------

    def invalidate(
        self,
        kind: str | None = None,
        *,
        digest: str | None = None,
        table: Table | None = None,
        publication: Any = None,
    ) -> int:
        """Drop matching entries; returns how many were removed.

        Args:
            kind: Restrict to one artifact kind (``key[0]``), e.g.
                ``"view"`` or ``"precise"``.  ``None`` matches all.
            digest: Restrict to entries mentioning a content digest
                anywhere in their key tail.
            table: Convenience — resolve ``digest`` from a table.
            publication: Convenience — resolve ``digest`` from a
                publication.

        With no arguments, everything is dropped (``clear``).
        """
        if table is not None:
            digest = self.table_key(table)
        elif publication is not None:
            digest = self.publication_key(publication)
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if (kind is None or key[0] == kind)
                and (digest is None or digest in key[1:])
            ]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self._nbytes -= nbytes
                if self.telemetry.enabled:
                    self.telemetry.count(f"cache.invalidate.{key[0]}")
            self._invalidations += len(doomed)
            return len(doomed)

    def discard(self, key: tuple) -> bool:
        """Drop one exact key; returns whether it was present.

        The surgical sibling of :meth:`invalidate`: an append marks a
        handful of shards dirty, and only *their* per-shard artifacts
        must go — matching by kind or digest would also evict the clean
        shards the whole refresh optimization exists to keep.
        """
        with self._lock:
            hit = self._entries.pop(key, None)
            if hit is None:
                return False
            self._nbytes -= hit[1]
            self._invalidations += 1
            if self.telemetry.enabled:
                self.telemetry.count(f"cache.invalidate.{key[0]}")
            return True

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        return self.invalidate()

    @property
    def nbytes(self) -> int:
        """Estimated bytes held (as accounted at insertion time)."""
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[tuple]:
        """Snapshot of the current keys, LRU-oldest first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Counters plus per-kind entry/byte breakdown."""
        with self._lock:
            kinds: dict[str, dict] = {}
            for key, (_, nbytes) in self._entries.items():
                bucket = kinds.setdefault(
                    str(key[0]), {"entries": 0, "nbytes": 0}
                )
                bucket["entries"] += 1
                bucket["nbytes"] += nbytes
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "entries": len(self._entries),
                "nbytes": self._nbytes,
                "max_bytes": self.max_bytes,
                "kinds": kinds,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArtifactCache({len(self)} entries, {self.nbytes} bytes, "
            f"hits={self._hits}, misses={self._misses})"
        )
