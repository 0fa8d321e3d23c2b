"""Query-serving performance baseline: micro-batched vs per-query.

Measures sustained COUNT-serving throughput on the Fig. 8 configuration
(default: 2 000 queries × 30K rows × 5 QI attributes) over all four
publication kinds admitted to a temporary store:

* **naive** — the per-request floor: a stateless handler that answers
  each incoming request independently with the scalar per-query API,
  rebuilding the answerer's derived arrays per request — i.e. no
  artifact reuse across requests, the serving model this subsystem
  exists to replace;
* **naive-warm** — the same single-threaded loop with a warm answerer
  per publication (reported for transparency, not enforced: the
  remaining gap is bounded by the batch-estimator kernels the PR-2
  bench already gates at 10x on the sweep path);
* **served** — the :class:`repro.service.QueryService` path: concurrent
  client threads submit queries one request at a time; the service
  drains them into :class:`EncodedWorkload` micro-batches on the
  batched query engine, reusing the LRU-cached per-publication
  artifacts across every request.

Estimates must be byte-equal across all three paths for every kind.
Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_service.py [--rows 30000] \\
        [--queries 2000] [--out benchmarks/BENCH_service.json]

Exits non-zero if the sustained serving speedup over the naive floor
drops below the 5x acceptance floor.  Standalone script (not
pytest-collected), like bench_engine.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from _obs import telemetry_block
from repro.anonymity import BaselinePublication
from repro.api import Dataset
from repro.dataset import CENSUS_QI_ORDER, make_census
from repro.query import make_answerer, make_workload
from repro.service import PublicationStore, QueryService

LAMBDA = 3
THETA = 0.1
QUERY_SEED = 13


def build_store(table, root) -> "dict[str, str]":
    """Admit the four publication kinds; returns kind -> pub id."""
    store = PublicationStore(root)
    ds = Dataset(table)
    generalized = ds.anonymize("burel", beta=2.0).publish(
        store, requirement={"beta": 2.0}
    )
    perturbed = ds.anonymize("perturb", rng=29, beta=4.0).publish(
        store, requirement={"beta": 4.0}
    )
    anatomy = ds.anonymize("anatomy", rng=1, l=4).publish(
        store, requirement={"l": 4}
    )
    baseline = store.put(
        BaselinePublication(table), requirement={"beta": 2.0}
    )
    return {
        "generalized": generalized.pub_id,
        "perturbed": perturbed.pub_id,
        "anatomy": anatomy.pub_id,
        "baseline": baseline.pub_id,
    }


def naive_serve(publications, queries, warm: bool) -> tuple[dict, dict]:
    """Single-threaded per-request loop.

    ``warm=False`` is the stateless floor: every request constructs the
    answerer afresh (no reuse across requests).  ``warm=True`` keeps one
    answerer per publication.
    """
    estimates: dict[str, np.ndarray] = {}
    seconds: dict[str, float] = {}
    for kind, published in publications.items():
        out = np.empty(len(queries))
        answerer = make_answerer(published) if warm else None
        start = time.perf_counter()
        for i, query in enumerate(queries):
            handler = answerer if warm else make_answerer(published)
            out[i] = handler(query)
        seconds[kind] = time.perf_counter() - start
        estimates[kind] = out
    return estimates, seconds


def batched_serve(
    service, pub_ids, queries, clients: int
) -> tuple[dict, dict]:
    """Concurrent clients submitting queries one request at a time."""
    estimates: dict[str, np.ndarray] = {}
    seconds: dict[str, float] = {}
    for kind, pub_id in pub_ids.items():
        service.load(pub_id)  # cache warm-up is a one-time cost
        out = np.empty(len(queries))
        failures: list[BaseException] = []

        def client(start: int):
            futures = [
                (i, service.submit(pub_id, queries[i]))
                for i in range(start, len(queries), clients)
            ]
            for i, future in futures:
                try:
                    out[i] = future.result()
                except BaseException as exc:  # pragma: no cover - surfaced
                    failures.append(exc)
                    return

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(clients)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds[kind] = time.perf_counter() - begin
        if failures:
            raise failures[0]
        estimates[kind] = out
    return estimates, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--queries", type=int, default=2_000)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_service.json",
    )
    parser.add_argument("--floor", type=float, default=5.0)
    args = parser.parse_args()

    table = make_census(
        args.rows, seed=7, correlation=0.3, qi_names=CENSUS_QI_ORDER
    )
    queries = make_workload(
        table.schema, args.queries, LAMBDA, THETA, rng=QUERY_SEED
    )

    with tempfile.TemporaryDirectory() as root:
        store = PublicationStore(root)
        pub_ids = build_store(table, root)
        publications = {
            kind: store.get(pub_id) for kind, pub_id in pub_ids.items()
        }
        naive_estimates, naive_seconds = naive_serve(
            publications, queries, warm=False
        )
        warm_estimates, warm_seconds = naive_serve(
            publications, queries, warm=True
        )
        with QueryService(
            store, workers=args.workers, cache_size=8
        ) as service:
            served_estimates, served_seconds = batched_serve(
                service, pub_ids, queries, args.clients
            )
            stats = service.stats_snapshot()

        def probe(tel):
            with QueryService(
                store, workers=args.workers, cache_size=8, telemetry=tel
            ) as probe_service:
                probe_service.answer(pub_ids["generalized"], queries[:500])

        telemetry = telemetry_block(
            probe, note="serve probe, generalized publication, 500 queries"
        )

    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "queries": args.queries,
        "lambda": LAMBDA,
        "theta": THETA,
        "clients": args.clients,
        "workers": args.workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "service_stats": stats,
        "telemetry": telemetry,
        "kinds": {},
        "byte_equal": {},
    }
    for kind in pub_ids:
        equal = bool(
            np.array_equal(naive_estimates[kind], served_estimates[kind])
            and np.array_equal(warm_estimates[kind], served_estimates[kind])
        )
        report["byte_equal"][kind] = equal
        report["kinds"][kind] = {
            "naive_seconds": round(naive_seconds[kind], 6),
            "naive_warm_seconds": round(warm_seconds[kind], 6),
            "served_seconds": round(served_seconds[kind], 6),
            "naive_qps": round(args.queries / naive_seconds[kind], 1),
            "served_qps": round(args.queries / served_seconds[kind], 1),
            "speedup": round(
                naive_seconds[kind] / served_seconds[kind], 2
            ),
        }
        if not equal:
            raise SystemExit(
                f"regression: served estimates diverged from the scalar "
                f"answerer for the {kind} publication"
            )

    total_naive = sum(naive_seconds.values())
    total_warm = sum(warm_seconds.values())
    total_served = sum(served_seconds.values())
    speedup = total_naive / total_served
    report["sustained"] = {
        "naive_seconds": round(total_naive, 6),
        "naive_warm_seconds": round(total_warm, 6),
        "served_seconds": round(total_served, 6),
        "naive_qps": round(4 * args.queries / total_naive, 1),
        "naive_warm_qps": round(4 * args.queries / total_warm, 1),
        "served_qps": round(4 * args.queries / total_served, 1),
        "speedup": round(speedup, 2),
        "speedup_vs_warm": round(total_warm / total_served, 2),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if speedup < args.floor:
        raise SystemExit(
            f"regression: serving speedup {speedup:.2f}x is below the "
            f"{args.floor}x acceptance floor"
        )


if __name__ == "__main__":
    main()
