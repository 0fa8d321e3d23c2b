"""The three workloads, one per user of the chain.

* ``release`` — the custodian: a cold release of a census table
  (Hilbert keys, BUREL, audit, perturbation, certified publication,
  workload evaluation, reload).
* ``serve`` — the analyst: a fixed closed-loop request sequence against
  three admitted releases, one per answering regime (count cube, EC
  answerer, bitmap engine).
* ``refresh`` — incremental republication: append, refresh, publish and
  evaluate each new version of a sharded baseline.

Every workload draws its inputs from :class:`Seeds`; the program only
sees the generated tables, queries and deltas.  Each op's output is
checked, and a raised error, a refused certification or a wrong output
counts the op as failed.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import ArtifactCache, Dataset, PublicationStore, QueryService, Table
from repro.dataset import make_census
from repro.dataset.synthetic import synthetic
from repro.io import publication_digest
from repro.obs import Telemetry
from repro.parallel import ShardedSession
from repro.query import batch_aggregate_estimates, batch_estimates, make_workload

from .harness import Bench, Round

LAMBDA, THETA = 3, 0.1
BUREL_BETA = 3.0
PERTURB_BETA, PERTURB_RNG = 4.0, 29
ANATOMY_L, ANATOMY_RNG = 4, 1
AUDIT_ATTACKS = ("skewness", "naive_bayes")  # deFinetti alone takes ~12 s
REFRESH_BETA, REFRESH_RNG = 2.0, 17
#: The lineage's declared contract.  A refresh anonymizes against the
#: baseline's pinned SA distribution while certification measures the
#: current one, so after appends a version can measure just above the
#: anonymization β (2.001 at β=2 on one seed); the custodian declares a
#: 5% margin so such a version is admitted rather than refused.
REFRESH_REQUIREMENT = {"beta": 2.1}
LINEAGE = "refresh"
MEASURE_DIM = 0  # SUM/AVG over Age
CLIENTS = 2  # closed-loop client threads, one per vCPU of the reference host
MB = float(2**20)
#: CPUs each workload keeps busy in its timed rounds; the calibration
#: kernel runs that many copies at once.
CALIBRATION_THREADS = {"release": 1, "serve": CLIENTS, "refresh": 1}

#: One serve round's request classes: (publication, operation, requests
#: per round, queries per request).  The cube class is most requests, so
#: p50 sits inside it; the bitmap tail is a few percent of requests with
#: the longest latencies, so p99 sits inside it; the three answering
#: regimes take comparable shares of round time.
SERVE_MIX = (
    ("perturb", "count", 400, 8),  # count cube
    ("burel", "count", 60, 8),  # EC answerer
    ("burel", "sum", 60, 8),  # EC answerer
    ("perturb", "avg", 10, 8),  # bitmap engine: no cube covers AVG
    ("anatomy", "count", 10, 8),  # bitmap engine
)


@dataclass(frozen=True)
class Scale:
    """Input sizes and repetition counts of one benchmark configuration."""

    census_rows: int = 200_000
    census_qi: "tuple | None" = None  # None: all five QI attributes
    release_queries: int = 2_000
    synthetic_rows: int = 400_000
    qi_domain: int = 512
    shards: int = 16
    workers: int = 2
    delta_rows: int = 2_000
    refresh_queries: int = 100
    serve_pool: int = 4_096
    serve_mix: tuple = SERVE_MIX
    setups: int = 3
    min_rounds: int = 3
    calib_rows: int = 1_000_000
    calib_handoffs: int = 3_000


FULL = Scale()

#: Seconds-long configuration for the smoke test.
TOY = Scale(
    census_rows=3_000,
    census_qi=("Age", "Gender", "Marital"),  # a small count cube
    release_queries=100,
    synthetic_rows=6_000,
    qi_domain=16,  # a small count cube
    shards=4,
    workers=1,  # shards run inline: the test process never forks
    delta_rows=200,
    refresh_queries=20,
    serve_pool=256,
    serve_mix=(
        ("perturb", "count", 12, 4),
        ("burel", "count", 4, 4),
        ("burel", "sum", 4, 4),
        ("perturb", "avg", 2, 2),
        ("anatomy", "count", 2, 2),
    ),
    setups=2,
    min_rounds=1,
    calib_rows=20_000,
    calib_handoffs=30,
)


@dataclass(frozen=True)
class Seeds:
    """Input seeds; ``--seed 0`` gives census 7, queries 13, synthetic 1
    and deltas 3."""

    census: int
    queries: int
    synthetic: int
    deltas: int

    @classmethod
    def from_base(cls, seed: int) -> "Seeds":
        return cls(7 + seed, 13 + seed, 1 + seed, 3 + seed)


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / MB


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# release
# ----------------------------------------------------------------------


def _release_round(spans, table: Table, queries, store_dir: Path) -> dict:
    """One cold custodian release; returns what the checks compare."""
    ds = Dataset(table)
    store = PublicationStore(store_dir, cache=ds.cache)
    with spans.span("hilbert.encode"):
        ds.hilbert_keys()
    with spans.span("engine.burel"):
        burel = ds.anonymize("burel", beta=BUREL_BETA)
    with spans.span("audit.audit"):
        report = burel.audit(attacks=AUDIT_ATTACKS)
    with spans.span("engine.perturb"):
        perturbed = ds.anonymize("perturb", beta=PERTURB_BETA, rng=PERTURB_RNG)
    ids = {}
    for name, run, beta in (
        ("burel", burel, BUREL_BETA), ("perturb", perturbed, PERTURB_BETA),
    ):
        with spans.span("service.store_put"):
            ids[name] = run.publish(store, requirement={"beta": beta}).pub_id
    with spans.span("query.evaluate"):
        profiles = ds.evaluate(
            {"burel": burel.published, "perturb": perturbed.published}, queries
        )
    for pub_id in ids.values():
        with spans.span("service.store_get"):
            store.get(pub_id)
    return {
        "ids": ids,
        "outputs": (repr(report), profiles),
        "layer": {
            "engine.allocate_s": burel.stage_seconds["allocate"],
            "engine.publish_s": burel.stage_seconds["publish"],
            "engine.classes": len(burel.published.classes),
            "api.cache_mb": ds.cache.nbytes / MB,
            "api.cache_hit_ratio": _hit_ratio(
                {"hits": 0, "misses": 0}, ds.cache.stats()
            ),
            "service.store_mb": _dir_mb(store_dir),
        },
    }


def release(
    bench: Bench, scale: Scale, seeds: Seeds, workdir: Path,
    expected_ids: "dict | None",
) -> None:
    """Cold releases of one census table.

    Every round wraps setup's arrays in a fresh :class:`Table` (whose
    content digest is memoized per object), a fresh :class:`Dataset`
    and an empty store directory: the store skips payloads it already
    holds, so a reused store or table would time cache hits.  Pub ids
    must equal ``expected_ids`` when given (the committed byte-identity
    contract), else the warm-up round's; the audit report and error
    profiles must equal the warm-up round's.
    """

    def build():
        table = make_census(
            scale.census_rows, seed=seeds.census, qi_names=scale.census_qi
        )
        queries = make_workload(
            table.schema, scale.release_queries, LAMBDA, THETA,
            rng=seeds.queries,
        )
        return table, queries

    table, queries = bench.setup(build, close=lambda state: None)
    reference = None
    for rnd in bench.iter_rounds():
        store_dir = workdir / f"release-{rnd.round_id}"
        try:
            with rnd.timed():
                out = _release_round(
                    bench.spans, Table(table.schema, table.qi, table.sa),
                    queries, store_dir,
                )
        except Exception as exc:  # noqa: BLE001 - a raising op fails
            _report_failure(rnd, exc)
            continue
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if reference is None:
            reference = out
        ok = out["ids"] == (expected_ids or reference["ids"])
        ok = ok and out["outputs"] == reference["outputs"]
        rnd.layer.update(out["layer"])
        rnd.op(rnd.raw_s, ok)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


@dataclass
class _ServeState:
    dataset: Dataset
    root: Path
    runs: dict
    ids: dict
    service: QueryService
    cache: ArtifactCache
    telemetry: "Telemetry | None"

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.root, ignore_errors=True)


def request_sequence(mix, pool_size: int) -> list:
    """The fixed request order of one serve round: (class, pool indices).

    Each class walks the query pool in contiguous slices; the classes are
    interleaved by a fixed permutation (never ``--seed``), so every seed
    and every round sees the same mix in the same order.
    """
    requests = []
    for cls, (_, _, count, k) in enumerate(mix):
        for j in range(count):
            start = (j * k) % pool_size
            requests.append((cls, np.arange(start, start + k) % pool_size))
    order = np.random.default_rng(0).permutation(len(requests))
    return [requests[i] for i in order]


def reference_answers(state: _ServeState, pool, mix, sequence) -> dict:
    """Class -> estimates over the query pool (NaN where unused), computed
    by the batch kernels directly over the in-memory publications."""
    table = state.dataset.table
    artifacts = ArtifactCache()
    out = {}
    for cls, (pub, op, _, _) in enumerate(mix):
        used = np.unique(
            np.concatenate([idx for c, idx in sequence if c == cls])
        )
        queries = [pool[i] for i in used]
        published = {"x": state.runs[pub].published}
        if op == "count":
            values = batch_estimates(
                table, published, queries, artifacts
            )["x"]
        else:
            values = batch_aggregate_estimates(
                table, published, queries, MEASURE_DIM, op,
                artifacts=artifacts,
            )["x"]
        ref = np.full(len(pool), np.nan)
        ref[used] = values
        out[cls] = ref
    return out


def _client(calls, requests, barrier, spans, out) -> None:
    barrier.wait(timeout=120)
    for cls, queries in requests:
        call, label = calls[cls]
        start = time.perf_counter()
        try:
            with spans.span(label):
                answers = call(queries)
        except Exception as exc:  # noqa: BLE001 - a raising request fails
            answers = exc
        out.append((time.perf_counter() - start, answers))


def serve(bench: Bench, scale: Scale, seeds: Seeds, workdir: Path) -> None:
    """Closed-loop serving of three admitted census releases.

    ``CLIENTS`` threads each replay their half of one fixed request
    sequence against ``QueryService(workers=2)``, waiting for every
    reply before sending the next request.  Every answer must be
    bit-equal to :func:`reference_answers`.
    """
    mix = scale.serve_mix

    def build() -> _ServeState:
        ds = Dataset(make_census(
            scale.census_rows, seed=seeds.census, qi_names=scale.census_qi
        ))
        root = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        store = PublicationStore(root, cache=ds.cache)
        runs = {
            "burel": ds.anonymize("burel", beta=BUREL_BETA),
            "perturb": ds.anonymize(
                "perturb", beta=PERTURB_BETA, rng=PERTURB_RNG
            ),
            "anatomy": ds.anonymize("anatomy", l=ANATOMY_L, rng=ANATOMY_RNG),
        }
        requirements = {
            "burel": {"beta": BUREL_BETA},
            "perturb": {"beta": PERTURB_BETA},
            "anatomy": {"l": ANATOMY_L},
        }
        ids = {
            name: run.publish(store, requirement=requirements[name]).pub_id
            for name, run in runs.items()
        }
        cache = ArtifactCache()
        telemetry = Telemetry() if bench.trace else None
        service = QueryService(
            store, workers=2, artifact_cache=cache, telemetry=telemetry
        )
        for pub_id in ids.values():
            service.load(pub_id)
        return _ServeState(ds, root, runs, ids, service, cache, telemetry)

    state = bench.setup(build, close=_ServeState.close)
    try:
        _serve_rounds(bench, scale, seeds, state, mix)
    finally:
        state.close()


def _serve_rounds(bench, scale, seeds, state, mix) -> None:
    service = state.service
    pool = make_workload(
        state.dataset.schema, scale.serve_pool, LAMBDA, THETA,
        rng=seeds.queries,
    )
    sequence = request_sequence(mix, len(pool))
    reference = reference_answers(state, pool, mix, sequence)

    # Label each class with the backend that answers it, read back from
    # the service after one probe request per class.
    calls = {}
    for cls, (pub, op, _, _) in enumerate(mix):
        pub_id = state.ids[pub]
        if op == "count":
            def call(queries, pub_id=pub_id):
                return service.answer(pub_id, queries)
        else:
            def call(queries, pub_id=pub_id, op=op):
                return service.answer_aggregate(
                    pub_id, queries, MEASURE_DIM, op
                )
        call(pool[:1])
        calls[cls] = (call, f"service.{service.serving_backend(pub_id)}")

    requests = [(cls, tuple(pool[i] for i in idx)) for cls, idx in sequence]
    waits_before = 0
    stats_before = cache_before = None
    for rnd in bench.iter_rounds():
        if rnd.index == 0:
            waits_before = len(_queue_waits(state.telemetry))
            cache_before = state.cache.stats()
        stats_before = service.stats_snapshot()
        results = [[] for _ in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS + 1)
        threads = [
            threading.Thread(
                target=_client,
                args=(calls, requests[c::CLIENTS], barrier, bench.spans,
                      results[c]),
            )
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        with rnd.timed():
            barrier.wait(timeout=120)
            for thread in threads:
                thread.join()
        for c in range(CLIENTS):
            for (cls, idx), (latency, answers) in zip(
                sequence[c::CLIENTS], results[c]
            ):
                ok = (
                    isinstance(answers, np.ndarray)
                    and answers.tobytes() == reference[cls][idx].tobytes()
                )
                if isinstance(answers, Exception):
                    _report_failure(rnd, answers, count=False)
                rnd.op(latency, ok, work=len(idx))
        stats = service.stats_snapshot()
        batches = stats["batches"] - stats_before["batches"]
        rnd.layer.update({
            "service.batches": batches,
            "service.batch_size": (
                (stats["batched_queries"] - stats_before["batched_queries"])
                / batches if batches else 0.0
            ),
            "service.cube_fallbacks": (
                stats["cube_fallbacks"] - stats_before["cube_fallbacks"]
            ),
        })
    waits = _queue_waits(state.telemetry)[waits_before:]
    bench.layer.update({
        "service.queue_wait_p99_ms": (
            float(np.percentile(waits, 99)) * 1e3
            * statistics.median(r.factor for r in bench.rounds)
            if waits else 0.0
        ),
        "service.store_mb": _dir_mb(state.root),
        "api.cache_mb": state.cache.nbytes / MB,
        "api.cache_hit_ratio": _hit_ratio(cache_before, state.cache.stats()),
    })


def _queue_waits(telemetry) -> list:
    if telemetry is None:
        return []
    histograms = telemetry.metrics.export()["histograms"]
    return histograms.get("service.queue_wait", {}).get("observations", [])


# ----------------------------------------------------------------------
# refresh
# ----------------------------------------------------------------------


@dataclass
class _RefreshState:
    dataset: Dataset
    root: Path
    store: PublicationStore
    record: object
    queries: tuple

    def close(self) -> None:
        self.dataset.close_parallel()
        shutil.rmtree(self.root, ignore_errors=True)


def _delta(table: Table, plan, shard: int, rows: int, rng) -> Table:
    """``rows`` appended rows inside one shard's Hilbert-key range: QI
    vectors copied from that shard's rows, SA values drawn from the
    table's distribution."""
    pick = rng.choice(plan.shards[shard].rows, size=rows, replace=True)
    sa = rng.choice(
        table.schema.sensitive.cardinality, size=rows,
        p=table.sa_distribution(),
    )
    return Table(table.schema, table.qi[pick], sa)


def refresh(bench: Bench, scale: Scale, seeds: Seeds, workdir: Path) -> None:
    """Incremental republication of a sharded synthetic baseline.

    The table's range-bitmap index stays over the 128 MiB budget for the
    whole run (the query layer's broadcast fallback), and the session's
    unbounded artifact cache keeps every superseded version, so rounds
    are not stationary: every run replays the same fixed sequence of
    rounds (deltas rotate over the shards by a fixed stride).  Each
    refresh must recompute exactly the shard its delta was routed to,
    and the last version must be byte-identical to a cold sharded run
    over the final table (checked after the timed rounds).
    """

    def build() -> _RefreshState:
        table = synthetic(
            scale.synthetic_rows, qi_dims=3, sa_cardinality=32, skew=0.8,
            seed=seeds.synthetic, qi_domain=scale.qi_domain,
        )
        ds = Dataset(table)
        try:
            with bench.spans.span("parallel.baseline"):
                base = ds.anonymize(
                    "burel", beta=REFRESH_BETA, rng=REFRESH_RNG,
                    workers=scale.workers, shards=scale.shards,
                )
            root = Path(tempfile.mkdtemp(prefix="refresh-", dir=workdir))
            store = PublicationStore(root, cache=ds.cache)
            record = base.publish(
                store, requirement=REFRESH_REQUIREMENT, name=LINEAGE
            )
        finally:
            ds.close_parallel()  # certification used the pool; appends never do
        queries = make_workload(
            table.schema, scale.refresh_queries, LAMBDA, THETA,
            rng=seeds.queries,
        )
        return _RefreshState(ds, root, store, record, queries)

    state = bench.setup(build, close=_RefreshState.close)
    try:
        _refresh_rounds(bench, scale, seeds, state)
    finally:
        state.close()


def _refresh_rounds(bench, scale, seeds, state) -> None:
    ds, store = state.dataset, state.store
    lineage = ds.version_state()
    rng = np.random.default_rng(seeds.deltas)
    spans = bench.spans
    parent, last = state.record, None
    cache_before = None
    for rnd in bench.iter_rounds():
        if rnd.index == 0:
            cache_before = ds.cache.stats()
        target = (3 + 5 * (rnd.index + 1)) % lineage.plan.n_shards
        delta = _delta(ds.table, lineage.plan, target, scale.delta_rows, rng)
        try:
            with rnd.timed():
                with spans.span("api.append"):
                    ds.append(delta)
                dirty = sorted(lineage.dirty)
                with spans.span("api.refresh"):
                    run = ds.refresh()
                with spans.span("service.store_put"):
                    parent = run.publish(
                        store, requirement=REFRESH_REQUIREMENT,
                        name=LINEAGE, parent=parent,
                    )
                with spans.span("query.evaluate"):
                    run.evaluate(state.queries)
        except Exception as exc:  # noqa: BLE001 - a raising op fails
            _report_failure(rnd, exc)
            last = None  # the lineage is in an unknown state
            break
        incremental = run.provenance["incremental"]
        rnd.layer.update({
            "engine.allocate_s": run.stage_seconds.get("allocate", 0.0),
            "engine.publish_s": run.stage_seconds.get("publish", 0.0),
            "engine.classes": len(run.published.classes),
            "api.reused_shards": len(incremental["reused"]),
            "api.recomputed_rows": incremental["recomputed_rows"],
        })
        ok = dirty == [target] and list(run.recomputed) == [target]
        rnd.op(rnd.raw_s, ok)
        last = (rnd, run) if ok else None
    if last is not None:
        rnd, run = last
        with ShardedSession(
            ds.table, workers=scale.workers, plan=lineage.plan,
            sa_distribution=lineage.sa_distribution, cache=ArtifactCache(),
        ) as session:
            cold = session.anonymize(
                "burel", beta=REFRESH_BETA, seed=REFRESH_RNG
            )
        if publication_digest(cold.published) != publication_digest(
            run.published
        ):
            rnd.retract()
    bench.layer.update({
        "api.cache_mb": ds.cache.nbytes / MB,
        "api.cache_hit_ratio": (
            _hit_ratio(cache_before, ds.cache.stats()) if cache_before else 0.0
        ),
        "service.store_mb": _dir_mb(state.root),
    })


def _report_failure(rnd: Round, exc: BaseException, count: bool = True) -> None:
    print(f"{rnd.round_id}: op failed: {exc!r}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr, limit=-3)
    if count:
        rnd.op(0.0, ok=False)


RUNNERS = {"release": release, "serve": serve, "refresh": refresh}
