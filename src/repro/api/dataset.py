"""The session facade: one object, one cache, the paper's whole chain.

The paper's workflow is a single chain — anonymize a microdata table
under β-likeness, audit the release against the adversary models,
certify it against a declared contract, publish it, answer COUNT
workloads — but PRs 1–4 exposed that chain as four disjoint layer APIs.
:class:`Dataset` wraps a :class:`~repro.dataset.table.Table` together
with one :class:`~repro.api.cache.ArtifactCache` and exposes the chain
fluently::

    from repro.api import Dataset

    ds = Dataset.from_census(30_000, seed=7)
    run = ds.anonymize("burel", beta=2.0)      # AnonymizationRun
    report = run.audit()                        # AuditReport (cached view)
    record = run.publish(store, requirement={"beta": 2.0})
    profile = run.evaluate(ds.workload(2_000))  # ErrorProfile

    runs = ds.sweep([("burel", {"beta": b}) for b in (1, 2, 4)])

Every per-table artifact the layers need — Hilbert keys, SA
distribution, row→bucket maps, the range-bitmap mask engine, encoded
workloads, precise answers, publication views, cubes — is computed
once into the shared cache, keyed by content digest, and reused across
layer boundaries: the audit's view feeds the store's certification gate,
the sweep's Hilbert encoding feeds every run, the evaluation's precise
answers feed every publication.  Results are **byte-identical** to
calling the layers directly (``tests/test_api.py`` asserts it for all
four publication kinds).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..audit.evaluate import AuditReport, audit_publications
from ..audit.view import PublicationView, publication_view
from ..dataset.table import Table
from ..engine import run as engine_run
from ..engine.batch import EngineJob, PreparedTable, run_many
from ..metrics.errors import ErrorProfile
from ..obs import Telemetry, coerce_telemetry
from ..query.evaluate import (
    TableMaskEngine,
    answer_precise_batch,
    evaluate_workload,
    mask_engine,
)
from ..query.workload import CountQuery, EncodedWorkload, make_workload
from .cache import ArtifactCache


class Dataset:
    """A microdata table plus the shared artifact cache of its session.

    Args:
        table: The source microdata.
        cache: Optional :class:`ArtifactCache` to share with other
            facades / services; a private unbounded one is created by
            default.
        telemetry: Optional :class:`repro.obs.Telemetry` — the session's
            tracing and metrics sink.  When enabled, every chain step
            (anonymize, audit, evaluate, sweep, append, refresh) opens
            spans, sharded runs adopt their workers' span buffers, and
            the artifact cache counts hits/misses/evictions per kind.
            Disabled (the default), every instrumented path short-
            circuits on one attribute check — results are byte-identical
            either way.  Reach it through :meth:`telemetry`.
    """

    def __init__(
        self,
        table: Table,
        *,
        cache: ArtifactCache | None = None,
        telemetry: "Telemetry | None" = None,
    ):
        if not isinstance(table, Table):
            raise TypeError(
                f"Dataset wraps a repro Table, got {type(table).__name__!r}"
            )
        self.table = table
        self.cache = cache if cache is not None else ArtifactCache()
        self._telemetry = coerce_telemetry(telemetry)
        if self._telemetry.enabled:
            self.cache.telemetry = self._telemetry
        self._prepared: PreparedTable | None = None
        self._sharded: dict = {}
        self._version = None  # VersionState of the last sharded run

    def telemetry(self) -> Telemetry:
        """The session's :class:`repro.obs.Telemetry` (the no-op
        singleton when none was attached)."""
        return self._telemetry

    # ------------------------------------------------------------------
    # Context manager (releases worker pools)
    # ------------------------------------------------------------------

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close_parallel()
        return False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_census(
        cls,
        n: int = 30_000,
        *,
        seed: int = 7,
        correlation: float = 0.3,
        qi_names: Sequence[str] | None = None,
        cache: ArtifactCache | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> "Dataset":
        """A facade over the synthetic CENSUS generator (Table 3)."""
        from ..dataset.census import make_census

        return cls(
            make_census(
                n,
                seed=seed,
                correlation=correlation,
                qi_names=tuple(qi_names) if qi_names is not None else None,
            ),
            cache=cache,
            telemetry=telemetry,
        )

    @classmethod
    def from_csv(
        cls,
        path,
        *,
        qi: Sequence[str],
        sensitive: str,
        numerical: Sequence[str] = (),
        cache: ArtifactCache | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> "Dataset":
        """A facade over a raw CSV file (the CLI's loading path)."""
        from ..io import load_csv_table

        return cls(
            load_csv_table(
                path,
                qi_names=list(qi),
                sensitive_name=sensitive,
                numerical=list(numerical),
            ),
            cache=cache,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------

    @property
    def schema(self):
        return self.table.schema

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def content_key(self) -> str:
        """The table's content digest (the cache's table key)."""
        return self.cache.table_key(self.table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.n_rows} rows, {self.schema.n_qi} QI, "
            f"cache={len(self.cache)} artifacts)"
        )

    # ------------------------------------------------------------------
    # Cached per-table artifacts
    # ------------------------------------------------------------------

    def prepared(self) -> PreparedTable:
        """The engine's shared preprocessing, bound to the cache."""
        if self._prepared is None:
            self._prepared = PreparedTable(self.table, cache=self.cache)
        return self._prepared

    def hilbert_keys(self) -> np.ndarray:
        """QI-space Hilbert keys (the engine's materialization order)."""
        return self.prepared().hilbert_keys()

    def sa_distribution(self) -> np.ndarray:
        """The overall SA distribution ``P`` (Table 2 notation)."""
        return self.prepared().sa_distribution()

    def mask_engine(self) -> TableMaskEngine:
        """The query layer's range-bitmap mask/count provider."""
        return mask_engine(self.table, self.cache)

    def encode(
        self, queries: Sequence[CountQuery] | EncodedWorkload
    ) -> EncodedWorkload:
        """The workload as dense bound arrays (cached per workload)."""
        from ..query.evaluate import _encoded

        return _encoded(self.table, queries, self.cache)

    def precise(
        self,
        queries: Sequence[CountQuery] | EncodedWorkload,
        *,
        backend: str = "auto",
    ) -> np.ndarray:
        """Exact COUNT answers over the microdata (cached per workload)."""
        return answer_precise_batch(
            self.table, queries, artifacts=self.cache, backend=backend
        )

    def view(self, published) -> PublicationView:
        """The content-keyed audit view of a publication."""
        return publication_view(published, cache=self.cache)

    def workload(
        self,
        n_queries: int = 2_000,
        lam: int = 3,
        theta: float = 0.1,
        *,
        seed: int = 0,
    ) -> tuple:
        """A §6.2 random COUNT workload over this table's schema."""
        return make_workload(self.schema, n_queries, lam, theta, rng=seed)

    def invalidate(self, kind: str | None = None, **selectors) -> int:
        """Explicitly drop cached artifacts (see
        :meth:`ArtifactCache.invalidate`)."""
        return self.cache.invalidate(kind, **selectors)

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------

    def sharded(
        self, workers: int = 1, shards: "int | None" = None
    ):
        """A :class:`repro.parallel.ShardedSession` over this table.

        Sessions share this facade's artifact cache and are memoized per
        ``(workers, shards)`` so repeated ``workers=N`` calls reuse one
        process pool, whose workers took the table, its Hilbert keys and
        the shard row arrays at start-up.  Call :meth:`close_parallel`
        to release them.
        """
        from ..parallel import ShardedSession

        key = (workers, shards)
        session = self._sharded.get(key)
        if session is None:
            session = ShardedSession(
                self.table, workers=workers, shards=shards, cache=self.cache,
                telemetry=self._telemetry,
            )
            self._sharded[key] = session
        return session

    def close_parallel(self) -> int:
        """Shut down all memoized sharded sessions; returns the count."""
        count = len(self._sharded)
        for session in self._sharded.values():
            session.close()
        self._sharded.clear()
        return count

    # ------------------------------------------------------------------
    # Versioning: append + incremental refresh
    # ------------------------------------------------------------------

    def _track(self, session, run, algorithm, params, seed) -> None:
        """Snapshot a sharded run as the versioned baseline.

        A facade tracks one lineage at a time: a new sharded run drops
        the previous lineage's per-shard artifacts (by token, so clean
        entries of *this* lineage are never collateral damage later).
        """
        from .versioned import snapshot_baseline

        if self._version is not None:
            self.cache.invalidate("shard_run", digest=self._version.token)
        self._version = snapshot_baseline(
            self, session, run, algorithm, params, seed
        )

    def version_state(self):
        """The :class:`~repro.api.versioned.VersionState` of the last
        sharded run over this facade, or ``None``."""
        return self._version

    def _coerce_delta(self, rows) -> Table:
        """Appended rows as a :class:`Table` against this schema."""
        if isinstance(rows, Table):
            return rows
        if isinstance(rows, Dataset):
            return rows.table
        if isinstance(rows, tuple) and len(rows) == 2:
            qi, sa = rows
            return Table(
                self.schema,
                np.asarray(qi, dtype=np.int64),
                np.asarray(sa, dtype=np.int64),
            )
        raise TypeError(
            "append() takes a Table, a Dataset, or a (qi, sa) array "
            f"pair; got {type(rows).__name__!r}"
        )

    def append(self, rows) -> int:
        """Append rows; returns how many were added.

        The facade's table becomes the concatenation (old rows keep
        their indices; new rows follow).  Whole-table artifacts are
        carried over to the new content key where extension is exact,
        so the grown table never recomputes them from scratch: Hilbert
        keys concatenate (the curve depends only on the schema's QI
        domains), SA counts add, encoded workloads depend only on the
        schema, and a cached workload's precise COUNT answers add its
        answers over the new rows alone — precise(T ∪ Δ) = precise(T) +
        precise(Δ), exact in int64.  Every other entry keyed by the old
        content (mask engine, table cubes, views) is dropped.  If a
        sharded baseline is being tracked, the new rows are routed to
        shards by Hilbert-key interval
        (:meth:`~repro.parallel.ShardPlan.diff`) and exactly the touched
        shards' cached artifacts are evicted; :meth:`refresh` then
        recomputes only those.

        Everything carried is computed before the first mutation, so an
        append that is refused (rows outside the schema's domains, a
        table with another schema) or fails leaves the dataset, its
        lineage and its cache as they were.  Memoized sharded sessions
        are closed (their pools' workers hold the old table); the next
        sharded call rebuilds them.
        """
        from ..core.retrieve import qi_space_keys

        delta = self._coerce_delta(rows)
        if delta.n_rows == 0:
            return 0
        with self._telemetry.span("facade.append", rows=delta.n_rows) as span:
            carried = self._append(delta, qi_space_keys)
            span.set("carried", carried)
        return delta.n_rows

    def _append(self, delta: Table, qi_space_keys) -> int:
        """Grow the table by ``delta``; returns how many workloads'
        precise answers were carried."""
        old = self.table
        old_key = self.content_key
        new_table = Table.concat([old, delta])
        new_key = self.cache.table_key(new_table)
        cached_keys = self.cache.get(("hilbert_keys", old_key))
        delta_keys = qi_space_keys(delta)
        carried = self._carried_answers(old_key, new_key, delta)
        carried[("sa_distribution", new_key)] = (
            old.sa_counts() + delta.sa_counts()
        ) / new_table.n_rows
        if cached_keys is not None:
            carried[("hilbert_keys", new_key)] = np.concatenate(
                [cached_keys, delta_keys]
            )
        state = self._version
        if state is not None:
            old_keys = (
                cached_keys if cached_keys is not None else qi_space_keys(old)
            )
            diff = state.plan.diff(old_keys, delta_keys)
            state.plan = diff.plan
            for i in diff.dirty:
                self.cache.discard(state.shard_key(i))
            state.dirty |= set(diff.dirty)
        # The superseded content's artifacts serve no query over the
        # grown table; a holder still evaluating the old content rebuilds
        # them.
        self.cache.invalidate(digest=old_key)
        for key, value in carried.items():
            self.cache.carry(key, value)
        self.table = new_table
        self._prepared = None
        self.close_parallel()
        return sum(key[0] == "precise" for key in carried)

    def _carried_answers(
        self, old_key: str, new_key: str, delta: Table
    ) -> dict:
        """The old content's encoded workloads and precise COUNT answers,
        re-keyed to the grown table's content.

        An encoding depends only on the schema, so it moves as is; a
        workload's precise answers gain its answers over ``delta``
        alone.  An entry evicted since :meth:`ArtifactCache.keys` listed
        it is skipped and recomputed on next use.
        """
        carried = {}
        for key in self.cache.keys():
            kind = key[0]
            if kind not in ("encoded", "precise") or key[1] != old_key:
                continue
            value = self.cache.get(key)
            if value is None:
                continue
            if kind == "precise":
                workload = self.cache.get(("encoded", old_key, key[2]), key[2])
                value = value + answer_precise_batch(delta, workload)
                value.setflags(write=False)
            carried[(kind, new_key, *key[2:])] = value
        return carried

    def refresh(self):
        """Re-anonymize incrementally after :meth:`append`.

        Reuses every clean shard's cached artifact from the tracked
        baseline, re-runs the engine only over dirty shards (with the
        lineage's pinned SA distribution and original per-shard seeds),
        and returns a :class:`~repro.api.versioned.RefreshRun` whose
        publication is byte-identical to a cold sharded run over the
        concatenated table.  Its audit view measures the *current*
        table's true distribution, so certification stays honest.
        """
        from .versioned import refresh_state

        if self._version is None:
            raise RuntimeError(
                "refresh() needs a tracked baseline: run "
                "anonymize(algorithm, shards=N) first"
            )
        with self._telemetry.span(
            "facade.refresh", dirty=len(self._version.dirty)
        ):
            return refresh_state(self, self._version)

    # ------------------------------------------------------------------
    # The fluent chain
    # ------------------------------------------------------------------

    def anonymize(
        self,
        algorithm: str,
        *,
        rng: "np.random.Generator | int | None" = None,
        workers: "int | None" = None,
        shards: "int | None" = None,
        **params: Any,
    ) -> "AnonymizationRun":
        """Run a registered engine algorithm over this table.

        Shared preprocessing (Hilbert keys, SA distribution, row→bucket
        maps) comes from the cache, so successive runs — and
        :meth:`sweep` batches — pay for it once.  ``rng`` follows the
        engine's uniform contract: ``None`` deterministic, int seed, or
        a generator.

        With ``workers`` and/or ``shards``, the run executes through the
        sharded layer (:class:`repro.parallel.ShardedSession`):
        contiguous Hilbert-key range shards anonymized in a process pool
        and merged deterministically — at a fixed shard count, results
        are byte-identical across worker counts (``shards`` defaults to
        ``workers``; the shard count itself shapes the publication,
        since groups form within key ranges).  ``rng`` must then be an
        int seed (or None): per-shard generators are spawned from it.
        The run is then a :class:`repro.parallel.ShardedRun`.
        """
        if workers is not None or shards is not None:
            if rng is not None and not isinstance(rng, int):
                raise TypeError(
                    "sharded anonymization takes an int seed (per-shard "
                    "generators are spawned from it), not a Generator"
                )
            session = self.sharded(workers or 1, shards)
            run = session.anonymize(algorithm, seed=rng, **params)
            self._track(session, run, algorithm, params, rng)
            return run
        result = engine_run(
            algorithm, self.table, rng=rng, shared=self.prepared(),
            telemetry=self._telemetry, **params,
        )
        return AnonymizationRun(
            self, result, seed=rng if isinstance(rng, int) else None
        )

    def sweep(
        self,
        specs: Sequence["EngineJob | tuple | Mapping[str, Any]"],
    ) -> "list[AnonymizationRun]":
        """Run a declarative multi-algorithm / multi-parameter batch.

        The jobs run one after another through
        :func:`repro.engine.batch.run_many`, sharing this facade's
        cached preprocessing.

        Args:
            specs: One entry per run, in order —
                ``("algorithm", {params})`` tuples,
                ``{"algorithm": ..., "params": ..., "seed": ...}``
                mappings, or :class:`~repro.engine.batch.EngineJob`
                records (their ``table`` index must be 0: a facade wraps
                exactly one table).

        Returns:
            One :class:`AnonymizationRun` per spec, in spec order
            (deterministic: results never depend on cache state, and
            seeded runs consume their own generators).
        """
        jobs = [self._job(spec) for spec in specs]
        results = run_many(
            self.table, jobs, cache=self.cache, telemetry=self._telemetry
        )
        return [
            AnonymizationRun(self, result, seed=job.seed)
            for job, result in zip(jobs, results)
        ]

    @staticmethod
    def _job(spec) -> EngineJob:
        if isinstance(spec, EngineJob):
            if spec.table != 0:
                raise ValueError(
                    "a Dataset sweep runs over its own table; "
                    f"job references table {spec.table}"
                )
            return spec
        if isinstance(spec, Mapping):
            return EngineJob(
                algorithm=spec["algorithm"],
                params=dict(spec.get("params", {})),
                seed=spec.get("seed"),
            )
        if isinstance(spec, tuple) and len(spec) in (1, 2):
            algorithm = spec[0]
            params = dict(spec[1]) if len(spec) == 2 else {}
            return EngineJob(algorithm=algorithm, params=params)
        raise TypeError(
            "sweep specs are (algorithm, params) tuples, mappings with "
            f"an 'algorithm' key, or EngineJob records; got {spec!r}"
        )

    def evaluate(
        self,
        publications: Mapping[str, object],
        queries: Sequence[CountQuery] | EncodedWorkload,
        *,
        backend: str = "auto",
        served: "dict[str, str] | None" = None,
    ) -> "dict[str, ErrorProfile]":
        """Workload error of every publication, via the batched engine.

        Byte-identical to :func:`repro.query.evaluate.evaluate_workload`,
        with encoded workloads, masks and precise answers drawn from
        (and kept in) the shared artifact cache.  ``publications`` may mix
        publication objects and prebuilt answerers, and may include
        content-equal reloads from a store (identity with this table is
        not required — content equality is).

        ``backend``/``served`` select and report the answer backend
        (see :data:`repro.query.evaluate.BACKENDS`); cubes built under
        ``backend="cube"`` are content-keyed in the session cache and
        reused by later evaluations and services sharing it.
        """
        with self._telemetry.span(
            "facade.evaluate", publications=len(publications)
        ):
            return evaluate_workload(
                self.table, publications, queries,
                artifacts=self.cache, backend=backend, served=served,
            )

    def audit(
        self,
        publications: Mapping[str, object],
        *,
        attacks: Sequence[str] = (),
        **kwargs: Any,
    ) -> "dict[str, AuditReport]":
        """Audit candidate releases in one batch, via the audit engine.

        Byte-identical to :func:`repro.audit.audit_publications`, with
        each publication's view drawn from the shared cache (and reused
        by later certifications of the same content).  Keyword arguments
        are forwarded unchanged (``ordered_emd``, ``n_corrupted``,
        ``compose_with``, ...).
        """
        with self._telemetry.span(
            "facade.audit", publications=len(publications)
        ):
            return audit_publications(
                self.table, publications, attacks=attacks, cache=self.cache,
                **kwargs,
            )


class AnonymizationRun:
    """Fluent handle over one engine run: audit, certify, publish, serve.

    Wraps the engine's :class:`~repro.engine.pipeline.RunResult` and the
    owning :class:`Dataset`, so downstream steps share the session's
    artifact cache — the run's audit view, for example, is the same
    object its certification and its store admission use.  Sharded
    (:class:`repro.parallel.ShardedRun`) and refreshed
    (:class:`repro.api.versioned.RefreshRun`) runs are subclasses, so
    :meth:`publish` is the one way any run enters a store.
    """

    def __init__(
        self, dataset: Dataset, result, seed: "int | None" = None
    ):
        self.dataset = dataset
        self.result = result
        self.seed = seed

    # -- result passthroughs -------------------------------------------

    @property
    def published(self):
        return self.result.published

    @property
    def algorithm(self) -> str:
        return self.result.algorithm

    @property
    def params(self) -> dict:
        return self.result.params

    @property
    def provenance(self) -> dict:
        return self.result.provenance

    @property
    def stage_seconds(self) -> dict:
        return self.result.stage_seconds

    @property
    def elapsed_seconds(self) -> float:
        return self.result.elapsed_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnonymizationRun({self.algorithm!r}, "
            f"{type(self.published).__name__})"
        )

    # -- the chain ------------------------------------------------------

    def view(self) -> PublicationView:
        """The cached audit view of this run's publication (group
        formats only)."""
        return self.dataset.view(self.published)

    def audit(
        self, *, attacks: Sequence[str] = (), **kwargs: Any
    ) -> AuditReport:
        """Audit this run's publication (group formats only)."""
        return self.dataset.audit(
            {"run": self.published}, attacks=attacks, **kwargs
        )["run"]

    def certify(
        self, requirement: Mapping[str, Any], *, ordered_emd: bool = False
    ) -> dict:
        """Check the publication against a declared privacy contract.

        Returns the audit evidence (what a store manifest records);
        raises :class:`repro.service.CertificationError` on violation.
        Works for all four publication kinds.
        """
        from ..service.store import certify_publication

        return certify_publication(
            self.published,
            requirement,
            ordered_emd=ordered_emd,
            cache=self.dataset.cache,
        )

    def publish(
        self,
        store,
        *,
        requirement: Mapping[str, Any],
        ordered_emd: bool = False,
        name: "str | None" = None,
        parent=None,
    ):
        """Certify and admit the publication to a store, with the run's
        provenance (algorithm, resolved params, seed) in the manifest.

        ``name`` and ``parent`` thread version lineage into the store:
        successive refreshes published under one name form a chain that
        ``store.versions(name)`` / ``store.latest(name)`` walk.

        Returns the :class:`~repro.service.store.PublicationRecord`;
        raises :class:`~repro.service.store.CertificationError` (and
        stores nothing) when the contract is violated.
        """
        return store.put(
            self.published,
            requirement=requirement,
            algorithm=self.algorithm,
            params=self.params,
            seed=self.seed,
            ordered_emd=ordered_emd,
            cache=self.dataset.cache,
            name=name,
            parent=parent,
        )

    def evaluate(
        self,
        queries: Sequence[CountQuery] | EncodedWorkload,
        *,
        backend: str = "auto",
    ) -> ErrorProfile:
        """This publication's COUNT-workload error profile."""
        return self.dataset.evaluate(
            {"run": self.published}, queries, backend=backend
        )["run"]
