"""The sharded execution session: plan, fan out, merge deterministically.

:class:`ShardedSession` partitions a table into contiguous Hilbert-key
ranges (:class:`~repro.parallel.plan.ShardPlan`), runs anonymization
and workload evaluation per shard — in a ``ProcessPoolExecutor`` when
``workers > 1``, inline when ``workers == 1`` — and merges the shard
results into whole-table outputs.  The audit runs in the parent: the
merged publication already carries its membership and SA histograms,
so its view costs no shard work.

The merge is **scheduling-independent**: results are collected per
shard index and folded in ascending shard order, per-shard randomness
comes from :func:`repro.rng.spawn_seeds` (a pure function of the root
seed and the shard index), and the plan itself is a pure function of
the Hilbert keys.  At the same shard count, ``workers=1`` and
``workers=N`` therefore produce byte-identical publications, audit
reports and estimate arrays —
``tests/test_parallel.py`` asserts it and ``benchmarks/bench_parallel.py``
enforces it.

Semantics note: every shard prepares against the **global** SA
distribution ``P``, so the merged publication is measured (and its
β-likeness bounded) against the same adversary the single-table run
uses — see :func:`repro.engine.shard.prepare_shard`.  (A versioned
refresh pins the *baseline* ``P`` via the ``sa_distribution`` override;
audits still measure against the current table's true distribution.)
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker

import numpy as np

from ..audit.evaluate import AuditReport, audit_publications
from ..audit.view import PublicationView, publication_view
from ..dataset.table import Table
from ..engine.batch import EngineJob, PreparedTable
from ..engine.pipeline import STAGES, RunResult
from ..engine.shard import ShardPiece, merge_pieces
from ..metrics.errors import ErrorProfile, error_profile
from ..obs import coerce_telemetry
from ..query.workload import EncodedWorkload
from ..rng import spawn_seeds
from . import _worker
from .plan import ShardPlan
from .shm import ShmArrays


def _merge_stage_seconds(pieces) -> dict:
    """Per-stage totals across shards, in canonical stage order."""
    merged: dict[str, float] = {}
    for name in STAGES:
        total = [p.stage_seconds[name] for p in pieces
                 if name in p.stage_seconds]
        if total:
            merged[name] = float(sum(total))
    return merged


class ShardedRun:
    """One merged sharded anonymization: the whole-table publication plus
    the shard-local pieces later stages (evaluate, refresh) reuse.

    Mirrors the result surface of
    :class:`~repro.api.dataset.AnonymizationRun` (``published``,
    ``audit()``, ``evaluate()``, ``publish()``), so facade callers can
    treat sharded and single-process runs uniformly.
    """

    def __init__(self, session: "ShardedSession", result: RunResult,
                 pieces: "list[ShardPiece]", seed: "int | None" = None):
        self.session = session
        self.result = result
        self.seed = seed
        #: Per shard, the :class:`repro.engine.shard.ShardPiece` its
        #: pipeline produced (rows local to the shard); sharded
        #: evaluation ships them back to the workers, and the versioned
        #: dataset layer snapshots the merged publication's slices of
        #: them as per-shard cache artifacts.
        self._pieces = pieces

    # -- result passthroughs (AnonymizationRun-compatible) -------------

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
            f"ShardedRun({self.algorithm!r}, "
            f"{self.session.plan.n_shards} shards, "
            f"{type(self.published).__name__})"
        )

    # -- the chain ------------------------------------------------------

    def view(self) -> PublicationView:
        """The merged publication's audit view (session-cached)."""
        return publication_view(self.published, cache=self.session.cache)

    def audit(self, **kwargs) -> AuditReport:
        """Audit the merged publication."""
        return self.session.audit(self, **kwargs)

    def evaluate(self, queries) -> ErrorProfile:
        """COUNT-workload error of the merged publication."""
        return self.session.evaluate(self, queries)

    def certify(self, requirement, *, ordered_emd: bool = False) -> dict:
        """Check the merged publication against a privacy contract."""
        from ..service.store import certify_publication

        return certify_publication(
            self.published, requirement, ordered_emd=ordered_emd,
            cache=self.session.cache,
        )

    def publish(self, store, *, requirement, ordered_emd: bool = False,
                name: "str | None" = None, parent=None):
        """Certify and admit the merged publication to a store.

        ``name`` and ``parent`` thread version lineage into the store
        manifest (see :meth:`repro.service.PublicationStore.put`).
        """
        return store.put(
            self.published,
            requirement=requirement,
            algorithm=self.algorithm,
            params=self.params,
            seed=self.seed,
            ordered_emd=ordered_emd,
            cache=self.session.cache,
            name=name,
            parent=parent,
        )


class ShardedSession:
    """Sharded execution over one table: anonymize, audit, evaluate.

    Args:
        table: The source microdata.
        workers: Process count; ``1`` (the default) runs every shard
            inline, through the same task functions — the serial
            fallback is the pooled path minus the pool.
        shards: Partition size; defaults to ``workers`` (so ``workers=1``
            is the unsharded degenerate case).  May exceed ``workers``.
        cache: Optional :class:`repro.api.ArtifactCache` shared with a
            facade; a private one is created by default.
        plan: Optional pre-built :class:`ShardPlan` over this table —
            the incremental-refresh comparator passes the appended
            (diffed) plan here so a cold run groups rows in exactly the
            ranges the refresh reused.  Must cover the table's rows.
        sa_distribution: Optional anonymization-time SA distribution
            ``P`` override.  Shards *prepare* (bucketize) against this
            vector, while audits and merged views keep measuring against
            the table's true distribution; the versioned refresh path
            pins the baseline table's ``P`` here so clean shards stay
            byte-reusable across appends.
        telemetry: Optional :class:`repro.obs.Telemetry`.  When enabled,
            every fan-out opens a parent span and each task runs under a
            worker-local tracer whose span buffer ships back with the
            result (the ``traced_task`` transport) and is re-parented —
            in ascending shard order, hence deterministically — into the
            session trace with a ``shard=i`` attribute; worker metric
            registries merge into the session registry the same way.
            Disabled (the default), tasks take the exact pre-telemetry
            code path.

    Use as a context manager (or call :meth:`close`) when ``workers >
    1``: the pool and the shared-memory segments are released there.
    """

    def __init__(
        self,
        table: Table,
        *,
        workers: int = 1,
        shards: "int | None" = None,
        cache=None,
        plan: "ShardPlan | None" = None,
        sa_distribution=None,
        telemetry=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cache is None:
            from ..api.cache import ArtifactCache

            cache = ArtifactCache()
        self.table = table
        self.workers = workers
        self.cache = cache
        self.telemetry = coerce_telemetry(telemetry)
        prepared = PreparedTable(table, cache=cache)
        self._keys = prepared.hilbert_keys()
        self._probs = prepared.sa_distribution()
        self._anon_probs = (
            np.asarray(sa_distribution, dtype=np.float64)
            if sa_distribution is not None
            else self._probs
        )
        if plan is not None:
            if plan.n_rows != table.n_rows:
                raise ValueError(
                    f"plan covers {plan.n_rows} rows but the table has "
                    f"{table.n_rows}"
                )
            self.plan = plan
        else:
            self.plan = ShardPlan.build(
                self._keys, shards if shards is not None else workers
            )
        self._pool: ProcessPoolExecutor | None = None
        self._shm: ShmArrays | None = None
        self._handle = None
        self._row_handles = None
        self._local = None  # serial-mode (subtable, keys) per shard
        self._closed = False

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _serial_shard(self, i: int):
        if self._local is None:
            self._local = [None] * self.plan.n_shards
        if self._local[i] is None:
            shard = self.plan.shards[i]
            self._local[i] = (
                self.table.subset(shard.rows), self._keys[shard.rows]
            )
        return self._local[i]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("the sharded session is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        if self._shm is None:
            self._shm = ShmArrays()
            self._handle = self._shm.share_table(self.table, self._keys)
            self._row_handles = [
                self._shm.share(shard.rows) for shard in self.plan
            ]
        return self._pool

    def _shard_args(self, i: int):
        """``(source, rows)`` of shard ``i`` for the active transport."""
        if self.workers == 1:
            return self._serial_shard(i), None
        return self._handle, self._row_handles[i]

    def _map(
        self,
        fn,
        per_shard_extra: "list[tuple]",
        span_name: str = "parallel.map",
    ) -> "list[dict]":
        """Run ``fn(source, rows, i, *extra_i)`` per shard, in order.

        Every task goes through :func:`repro.parallel._worker.traced_task`
        — a pass-through when telemetry is disabled; with it enabled, the
        task runs under a worker-local tracer and its span/metric buffers
        ship back with the result.  Adoption folds in ascending shard
        order (the same order the results merge in), so the session
        trace is identical at any worker count.
        """
        tel = self.telemetry
        with tel.span(
            span_name, shards=self.plan.n_shards, workers=self.workers
        ) as parent:
            if self.workers == 1:
                wrapped = [
                    _worker.traced_task(
                        fn, tel.enabled, *self._shard_args(i), i, *extra
                    )
                    for i, extra in enumerate(per_shard_extra)
                ]
            else:
                pool = self._ensure_pool()
                futures = [
                    pool.submit(
                        _worker.traced_task,
                        fn,
                        tel.enabled,
                        *self._shard_args(i),
                        i,
                        *extra,
                    )
                    for i, extra in enumerate(per_shard_extra)
                ]
                wrapped = [future.result() for future in futures]
            results = []
            for i, (result, payload) in enumerate(wrapped):
                if payload is not None:
                    tel.adopt_spans(payload["spans"], parent=parent, shard=i)
                    tel.merge_metrics(payload["metrics"])
                results.append(result)
            return results

    def close(self) -> None:
        """Shut the pool down and unlink the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Anonymization
    # ------------------------------------------------------------------

    def anonymize(
        self, algorithm: str, *, seed: "int | None" = None, **params
    ) -> ShardedRun:
        """Anonymize every shard and merge into a whole-table publication.

        ``seed`` follows the per-shard rng contract: shard ``i`` draws
        from child ``i`` of ``SeedSequence(seed)``, so results are
        independent of worker scheduling.  Only group-based output
        formats (generalization schemes, Anatomy) can be sharded;
        ``perturb`` — a whole-table format — is refused by the workers.
        """
        plan = self.plan
        seeds = (
            spawn_seeds(seed, plan.n_shards)
            if seed is not None
            else [None] * plan.n_shards
        )
        start = time.perf_counter()
        pieces = self._map(
            _worker.shard_anonymize,
            [
                (plan.n_shards, algorithm, dict(params), seeds[i],
                 self._anon_probs)
                for i in range(plan.n_shards)
            ],
            span_name="parallel.anonymize",
        )
        # The publication constructor re-validates the exact row
        # partition of the lifted pieces — the merge's cheapest full
        # correctness check.
        published = merge_pieces(
            self.table,
            [piece.lift(shard.rows) for shard, piece in zip(plan, pieces)],
        )
        provenance = {
            "sharded": {
                "n_shards": plan.n_shards,
                "workers": self.workers,
                "shards": [
                    {
                        "index": shard.index,
                        "n_rows": shard.n_rows,
                        "key_lo": shard.key_lo,
                        "key_hi": shard.key_hi,
                        "stage_seconds": piece.stage_seconds,
                        "elapsed_seconds": piece.elapsed_seconds,
                    }
                    for shard, piece in zip(plan, pieces)
                ],
            }
        }
        result = RunResult(
            algorithm=algorithm,
            published=published,
            params=pieces[0].params,
            stage_seconds=_merge_stage_seconds(pieces),
            provenance=provenance,
            elapsed_seconds=time.perf_counter() - start,
        )
        return ShardedRun(self, result, pieces, seed=seed)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def audit(
        self,
        run: ShardedRun,
        *,
        attacks=(),
        ordered_emd: bool = False,
        **kwargs,
    ) -> AuditReport:
        """Audit a sharded run's merged publication.

        The merged publication carries its membership and SA
        histograms, so the audit runs in the parent through the
        standard entry point, on the session-cached view.
        """
        return audit_publications(
            self.table,
            {"run": run.published},
            attacks=attacks,
            ordered_emd=ordered_emd,
            cache=self.cache,
            **kwargs,
        )["run"]

    # ------------------------------------------------------------------
    # Workload evaluation
    # ------------------------------------------------------------------

    def _encode(self, queries) -> EncodedWorkload:
        from ..query.evaluate import _encoded

        return _encoded(self.table, queries, self.cache)

    def precise(self, queries) -> np.ndarray:
        """Exact COUNT answers, computed shard-parallel.

        Range shards partition the rows, so per-query counts are sums of
        integer per-shard counts — **exactly** equal to the unsharded
        answers, not merely close.
        """
        enc = self._encode(queries)
        results = self._map(
            _worker.shard_evaluate,
            [(None, enc)] * self.plan.n_shards,
            span_name="parallel.precise",
        )
        return np.sum([res["precise"] for res in results], axis=0)

    def answers(
        self, run: ShardedRun, queries
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(precise, estimates)`` of a workload, shard-parallel.

        Each shard answers the workload against its own slice of the
        publication; per-query estimates and precise counts fold in
        ascending shard order, so both arrays are worker-count-invariant
        (and the precise counts equal the unsharded answers exactly).
        """
        enc = self._encode(queries)
        results = self._map(
            _worker.shard_evaluate,
            [(piece, enc) for piece in run._pieces],
            span_name="parallel.evaluate",
        )
        precise = np.sum([res["precise"] for res in results], axis=0)
        estimates = np.zeros(enc.n_queries)
        for res in results:  # ascending shard order — deterministic fold
            estimates += res["estimates"]
        return precise, estimates

    def evaluate(self, run: ShardedRun, queries) -> ErrorProfile:
        """Workload error of a sharded run (see :meth:`answers`)."""
        return error_profile(*self.answers(run, queries))

    # ------------------------------------------------------------------
    # Job-level parallelism (sweeps)
    # ------------------------------------------------------------------

    def sweep(self, jobs: "list[EngineJob]") -> "list[RunResult]":
        """Run whole-table engine jobs across the pool, one per process.

        The orthogonal axis to sharding: a parameter sweep has natural
        job-level parallelism, so each job runs unsharded in a worker
        (publications cross back with their source stripped to a digest
        and re-attached to this session's table).  Results are in job
        order, byte-identical to a serial :func:`repro.engine.batch.
        run_many` of the same jobs.
        """
        tel = self.telemetry
        with tel.span(
            "parallel.sweep", jobs=len(jobs), workers=self.workers
        ) as parent:
            if self.workers == 1:
                source = (self.table, self._keys)
                wrapped = [
                    _worker.traced_task(
                        _worker.job_run, tel.enabled, source,
                        job.algorithm, dict(job.params), job.seed,
                    )
                    for job in jobs
                ]
            else:
                pool = self._ensure_pool()
                futures = [
                    pool.submit(
                        _worker.traced_task,
                        _worker.job_run,
                        tel.enabled,
                        self._handle,
                        job.algorithm,
                        dict(job.params),
                        job.seed,
                    )
                    for job in jobs
                ]
                wrapped = [future.result() for future in futures]
            results = []
            for i, (result, payload) in enumerate(wrapped):
                if payload is not None:
                    tel.adopt_spans(payload["spans"], parent=parent, job=i)
                    tel.merge_metrics(payload["metrics"])
                results.append(result)
        for result in results:
            _worker.reattach_source(result.published, self.table)
        return results


def sweep_jobs(
    table: Table,
    jobs: "list[EngineJob | tuple]",
    *,
    workers: int = 1,
    cache=None,
) -> "list[RunResult]":
    """One-shot job-parallel sweep (see :meth:`ShardedSession.sweep`)."""
    normalized = [
        job if isinstance(job, EngineJob) else EngineJob(*job)
        for job in jobs
    ]
    with ShardedSession(
        table, workers=workers, shards=1, cache=cache
    ) as session:
        return session.sweep(normalized)


class ProcessEvaluator:
    """A process pool answering serving batches for `QueryService`.

    Publications are shipped once per content digest — payload arrays go
    into shared memory, workers rebuild and memoize the publication and
    its answerer — and every batch task carries the (tiny) handles, so
    answers never depend on which worker a task lands on.  Per-query
    estimates are computed by the same batched kernels the thread path
    uses, hence bit-identical results.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._pool = ProcessPoolExecutor(max_workers=workers)
        # Under fork the pool forks its workers at the first submit.  Do
        # it now, before `QueryService` starts its serving threads: a
        # worker forked from one serving thread while another holds the
        # resource tracker's lock (taken by every shared-memory create
        # and attach) deadlocks at its first attach.  The tracker starts
        # first so the workers inherit it.
        resource_tracker.ensure_running()
        self._pool.submit(int).result()
        self._shm = ShmArrays()
        self._payloads: dict[str, tuple] = {}
        self._closed = False

    def register(self, publication) -> str:
        """Share a publication's payload, with the count cube attached
        to it (a store load attaches one); returns its content digest."""
        from ..io import publication_digest, publication_payload

        digest = publication_digest(publication)
        if digest not in self._payloads:
            meta, arrays = publication_payload(publication)
            cube = getattr(publication, "_count_cube", None)
            if cube is not None:
                cube_meta, cube_arrays = cube.to_payload()
                meta = {**meta, "aux_cube": cube_meta}
                arrays = {**arrays, **cube_arrays}
            handles = {
                name: self._shm.share(array)
                for name, array in arrays.items()
            }
            self._payloads[digest] = (meta, handles)
        return digest

    def answer(
        self, publication, enc: EncodedWorkload, aggregate=None,
        backend: str = "auto",
    ) -> "tuple[np.ndarray, str]":
        """COUNT (``aggregate=None``) or ``(measure_dim, op)`` SUM/AVG
        estimates of one publication over one encoded batch under
        ``backend``, with the backend label that answered it."""
        if self._closed:
            raise RuntimeError("the evaluator is closed")
        digest = self.register(publication)
        meta, handles = self._payloads[digest]
        return self._pool.submit(
            _worker.serve_estimates, digest, enc, aggregate, meta, handles,
            backend,
        ).result()

    def estimates(
        self, publication, enc: EncodedWorkload
    ) -> np.ndarray:
        """Batched COUNT estimates of one publication over one batch."""
        return self.answer(publication, enc)[0]

    def forget(self, digest: str) -> None:
        """Drop a publication's shared payload record (LRU eviction)."""
        self._payloads.pop(digest, None)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._shm.close()
