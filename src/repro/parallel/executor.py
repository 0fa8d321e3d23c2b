"""The sharded execution session: plan, fan out, merge deterministically.

:class:`ShardedSession` partitions a table into contiguous Hilbert-key
ranges (:class:`~repro.parallel.plan.ShardPlan`), runs anonymization
and workload evaluation per shard — in a ``ProcessPoolExecutor`` when
``workers > 1``, inline when ``workers == 1`` — and merges the shard
results into whole-table outputs.  The pool's workers take the table,
its Hilbert keys and the shard row arrays once, at start-up
(:func:`repro.parallel._worker.init_worker`); a task names only its
shard.  The audit runs in the parent: the
merged publication already carries its membership and SA histograms,
so its view costs no shard work.

Shards are anonymized in one place, :meth:`ShardedSession.shard_pieces`,
for a cold run and a versioned refresh alike.

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
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..api.dataset import AnonymizationRun, Dataset
from ..dataset.table import Table
from ..engine.pipeline import RunResult
from ..engine.shard import ShardPiece, merge_pieces, merge_stage_seconds
from ..metrics.errors import ErrorProfile, error_profile
from ..query.workload import EncodedWorkload
from ..rng import spawn_seeds
from . import _worker
from .plan import ShardPlan


class ShardedRun(AnonymizationRun):
    """One merged sharded anonymization: an :class:`AnonymizationRun`
    over the session's :attr:`~ShardedSession.dataset` (so ``view``,
    ``audit``, ``certify`` and ``publish`` are the unsharded run's),
    plus the shard-local pieces that sharded evaluation reuses."""

    def __init__(self, session: "ShardedSession", result: RunResult,
                 pieces: "list[ShardPiece]", seed: "int | None" = None):
        super().__init__(session.dataset, result, seed=seed)
        self.session = session
        #: Per shard, the :class:`repro.engine.shard.ShardPiece` its
        #: pipeline produced (rows local to the shard); sharded
        #: evaluation ships them back to the workers, and the versioned
        #: dataset layer snapshots the merged publication's slices of
        #: them as per-shard cache artifacts.
        self._pieces = pieces

    def evaluate(self, queries) -> ErrorProfile:
        """COUNT-workload error of the merged publication, folded shard
        by shard (see :meth:`ShardedSession.answers`)."""
        return self.session.evaluate(self, queries)


class ShardedSession:
    """Sharded execution over one table: anonymize and evaluate.

    Args:
        table: The source microdata.
        workers: Process count; ``1`` (the default) runs every shard
            inline, through the same task functions — the serial
            fallback is the pooled path minus the pool.
        shards: Partition size; defaults to ``workers`` (so ``workers=1``
            is the unsharded degenerate case).  May exceed ``workers``.
        cache: Optional :class:`repro.api.ArtifactCache` shared with a
            facade; a private one is created by default.  Runs are built
            over :attr:`dataset`, which wraps the table, cache and
            telemetry.
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
    1``: the pool is released there.  A pool that breaks (a worker
    died) is rebuilt and the fan-out rerun once; tasks are pure
    functions of their shard and seed, so the results do not change.
    A second break raises :class:`BrokenProcessPool`, and the session's
    next call starts a fresh pool.
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
        self.dataset = Dataset(table, cache=cache, telemetry=telemetry)
        self.table = table
        self.workers = workers
        self.cache = self.dataset.cache
        self.telemetry = self.dataset.telemetry()
        prepared = self.dataset.prepared()
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
        self._source = _worker.ShardSource(
            table, self._keys, [shard.rows for shard in self.plan]
        )
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("the sharded session is closed")
        if self._pool is None:
            source = self._source
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker.init_worker,
                initargs=(source.table, source.keys, source.shard_rows),
            )
        return self._pool

    def _drop_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _pooled(self, fn, enabled: bool, tasks, artifacts: bool) -> list:
        """Every task's ``run_task`` result from the pool, in order;
        a broken pool is rebuilt and the fan-out rerun once."""
        for retry in (True, False):
            pool = self._ensure_pool()
            try:
                futures = [
                    pool.submit(
                        _worker.run_task, fn, enabled, shard, *args,
                        artifacts=artifacts,
                    )
                    for shard, args in tasks
                ]
                return [future.result() for future in futures]
            except BrokenProcessPool:
                self._drop_pool()
                if not retry:
                    raise

    def _fan_out(
        self, fn, tasks, span_name: str, *, artifacts: bool = False, **attrs
    ):
        """Run ``fn(table, keys, *args)`` per ``(shard, args)`` task.

        Tasks run inline when ``workers == 1``, else in the pool;
        results come back in task order either way (``artifacts``: see
        :func:`repro.parallel._worker.run_task`).  Each goes through
        :func:`repro.parallel._worker.traced_task` — a pass-through when
        telemetry is disabled; with it enabled, the task runs under a
        worker-local tracer whose span/metric buffers ship back with the
        result and are adopted in task order under the fan-out span,
        tagged ``shard=`` the shard index, so the session trace is
        identical at any worker count.
        """
        tel = self.telemetry
        with tel.span(span_name, **attrs, workers=self.workers) as parent:
            if self.workers == 1:
                wrapped = [
                    _worker.run_task(
                        fn, tel.enabled, shard, *args, source=self._source,
                        artifacts=artifacts,
                    )
                    for shard, args in tasks
                ]
            else:
                wrapped = self._pooled(fn, tel.enabled, tasks, artifacts)
            results = []
            for (shard, _), (result, payload) in zip(tasks, wrapped):
                if payload is not None:
                    tel.adopt_spans(
                        payload["spans"], parent=parent, shard=shard
                    )
                    tel.merge_metrics(payload["metrics"])
                results.append(result)
            return results

    def close(self) -> None:
        """Shut the pool down."""
        if self._closed:
            return
        self._closed = True
        self._drop_pool()

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Anonymization
    # ------------------------------------------------------------------

    def shard_pieces(
        self, algorithm: str, shards, *, seed: "int | None" = None, **params
    ) -> "list[ShardPiece]":
        """Anonymize the listed shards; one shard-local piece each.

        The one shard runner: :meth:`anonymize` calls it for every
        shard, a versioned refresh for the shards whose cached pieces
        are gone.  Shard ``i`` draws from child ``i`` of
        ``SeedSequence(seed)`` whatever else is listed or however it is
        scheduled.  Only group-based formats can be sharded; the
        workers refuse ``perturb``.
        """
        n_shards = self.plan.n_shards
        seeds = (
            spawn_seeds(seed, n_shards)
            if seed is not None
            else [None] * n_shards
        )
        tasks = [
            (i, (i, n_shards, algorithm, dict(params), seeds[i],
                 self._anon_probs))
            for i in shards
        ]
        return self._fan_out(
            _worker.shard_anonymize, tasks, "parallel.anonymize",
            shards=len(tasks),
        )

    def anonymize(
        self, algorithm: str, *, seed: "int | None" = None, **params
    ) -> ShardedRun:
        """Anonymize every shard and merge into a whole-table publication
        (see :meth:`shard_pieces` for the seed contract)."""
        plan = self.plan
        start = time.perf_counter()
        pieces = self.shard_pieces(
            algorithm, range(plan.n_shards), seed=seed, **params
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
            stage_seconds=merge_stage_seconds(pieces),
            provenance=provenance,
            elapsed_seconds=time.perf_counter() - start,
        )
        return ShardedRun(self, result, pieces, seed=seed)

    # ------------------------------------------------------------------
    # Workload evaluation
    # ------------------------------------------------------------------

    def _encode(self, queries) -> EncodedWorkload:
        from ..query.evaluate import _encoded

        return _encoded(self.table, queries, self.cache)

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
        results = self._fan_out(
            _worker.shard_evaluate,
            [(i, (i, piece, enc)) for i, piece in enumerate(run._pieces)],
            "parallel.evaluate",
            artifacts=True,
            shards=self.plan.n_shards,
        )
        precise = np.sum([res["precise"] for res in results], axis=0)
        estimates = np.zeros(enc.n_queries)
        for res in results:  # ascending shard order — deterministic fold
            estimates += res["estimates"]
        return precise, estimates

    def evaluate(self, run: ShardedRun, queries) -> ErrorProfile:
        """Workload error of a sharded run (see :meth:`answers`)."""
        return error_profile(*self.answers(run, queries))
