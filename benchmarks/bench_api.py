"""End-to-end chain baseline: facade artifact reuse vs cold layers.

Runs the paper's full custodian chain — anonymize under β-likeness,
audit the release, certify + publish it to a store, evaluate a COUNT
workload, then reload the stored publication and serve the workload
from it — for a sweep of β values, two ways:

* **cold** — the pre-facade sequence: each layer is invoked directly
  through its module API without a cache, so nothing survives from one
  call to the next — the way the chain actually executes when each step
  is a separate tool invocation (CLI run, audit script, publish script,
  serving process) over the four disjoint layer APIs.  Every step
  re-derives the per-table artifacts the previous step already had:
  Hilbert keys per run, the publication view twice per β (audit, then
  the store's certification gate), the mask engine / encoded workload /
  precise answers per evaluation.
* **facade** — one :class:`repro.api.Dataset` session: the sweep runs
  as one batch over shared preprocessing, the audit's content-keyed
  view feeds the certification gate, and one mask engine + one precise
  pass serve every evaluation — including the served reload, which hits
  the same content digests as the publication it round-tripped from.

Every facade output is checked **byte-identical** to the cold path:
publication content digests, privacy/risk profiles, store ids + audit
evidence, error profiles, and served estimates.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_api.py [--rows 30000] \\
        [--queries 2000] [--out benchmarks/BENCH_api.json]

Exits non-zero if the facade chain's speedup over the cold sequence
drops below the 1.5x acceptance floor, or any output diverges.
Standalone script (not pytest-collected), like the other benches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from _obs import telemetry_block
from repro.api import Dataset
from repro.audit.evaluate import audit_publications
from repro.dataset import CENSUS_QI_ORDER, make_census
from repro.engine import run as engine_run
from repro.io import publication_digest
from repro.query import make_workload
from repro.query.evaluate import evaluate_workload
from repro.service import PublicationStore

BETAS = (1.0, 2.0, 3.0, 4.0)
LAMBDA = 3
THETA = 0.1
QUERY_SEED = 13


def run_cold(table, queries, root) -> tuple[dict, dict]:
    """The layer-by-layer chain; cache-less calls build cold at every step."""
    store = PublicationStore(root)
    outputs: dict[str, dict] = {}
    seconds = {
        "anonymize": 0.0, "audit": 0.0, "publish": 0.0,
        "evaluate": 0.0, "serve": 0.0,
    }
    for beta in BETAS:
        out: dict = {}

        start = time.perf_counter()
        published = engine_run("burel", table, beta=beta).published
        seconds["anonymize"] += time.perf_counter() - start
        out["digest"] = publication_digest(published)

        start = time.perf_counter()
        report = audit_publications(
            table, {"candidate": published}, ordered_emd=True
        )["candidate"]
        seconds["audit"] += time.perf_counter() - start
        out["privacy"] = dataclasses.asdict(report.privacy)
        out["risk"] = dataclasses.asdict(report.risk)

        start = time.perf_counter()
        record = store.put(published, requirement={"beta": beta})
        seconds["publish"] += time.perf_counter() - start
        out["pub_id"] = record.pub_id
        out["evidence"] = record.audit

        start = time.perf_counter()
        profile = evaluate_workload(
            table, {"candidate": published}, queries
        )["candidate"]
        seconds["evaluate"] += time.perf_counter() - start
        out["profile"] = dataclasses.asdict(profile)

        start = time.perf_counter()
        reloaded = store.get(record.pub_id)
        served = evaluate_workload(
            reloaded.source, {"served": reloaded}, queries
        )["served"]
        seconds["serve"] += time.perf_counter() - start
        out["served"] = dataclasses.asdict(served)

        outputs[f"beta={beta}"] = out
    return outputs, seconds


def run_facade(table, queries, root) -> tuple[dict, dict, dict]:
    """The same chain through one Dataset session + shared cache."""
    ds = Dataset(table)
    store = PublicationStore(root, cache=ds.cache)
    outputs: dict[str, dict] = {}
    seconds = {
        "anonymize": 0.0, "audit": 0.0, "publish": 0.0,
        "evaluate": 0.0, "serve": 0.0,
    }

    start = time.perf_counter()
    runs = ds.sweep([("burel", {"beta": beta}) for beta in BETAS])
    seconds["anonymize"] += time.perf_counter() - start

    for beta, run in zip(BETAS, runs):
        out: dict = {"digest": publication_digest(run.published)}

        start = time.perf_counter()
        report = run.audit(ordered_emd=True)
        seconds["audit"] += time.perf_counter() - start
        out["privacy"] = dataclasses.asdict(report.privacy)
        out["risk"] = dataclasses.asdict(report.risk)

        start = time.perf_counter()
        record = run.publish(store, requirement={"beta": beta})
        seconds["publish"] += time.perf_counter() - start
        out["pub_id"] = record.pub_id
        out["evidence"] = record.audit

        start = time.perf_counter()
        out["profile"] = dataclasses.asdict(run.evaluate(queries))
        seconds["evaluate"] += time.perf_counter() - start

        start = time.perf_counter()
        reloaded = store.get(record.pub_id)
        served = ds.evaluate({"served": reloaded}, queries)["served"]
        seconds["serve"] += time.perf_counter() - start
        out["served"] = dataclasses.asdict(served)

        outputs[f"beta={beta}"] = out
    return outputs, seconds, ds.cache.stats()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--queries", type=int, default=2_000)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_api.json",
    )
    parser.add_argument("--floor", type=float, default=1.5)
    args = parser.parse_args()

    table = make_census(
        args.rows, seed=7, correlation=0.3, qi_names=CENSUS_QI_ORDER
    )
    queries = make_workload(
        table.schema, args.queries, LAMBDA, THETA, rng=QUERY_SEED
    )

    with tempfile.TemporaryDirectory() as cold_root, \
            tempfile.TemporaryDirectory() as facade_root:
        cold_outputs, cold_seconds = run_cold(table, queries, cold_root)
        facade_outputs, facade_seconds, cache_stats = run_facade(
            table, queries, facade_root
        )

    if facade_outputs != cold_outputs:
        diverging = [
            key
            for key in cold_outputs
            if facade_outputs.get(key) != cold_outputs[key]
        ]
        raise SystemExit(
            f"regression: facade outputs diverge from the cold "
            f"layer-by-layer chain at {diverging}"
        )

    total_cold = sum(cold_seconds.values())
    total_facade = sum(facade_seconds.values())
    speedup = total_cold / total_facade
    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "queries": args.queries,
        "betas": list(BETAS),
        "lambda": LAMBDA,
        "theta": THETA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "byte_identical": True,
        "stages": {
            stage: {
                "cold_seconds": round(cold_seconds[stage], 6),
                "facade_seconds": round(facade_seconds[stage], 6),
                "speedup": round(
                    cold_seconds[stage] / max(facade_seconds[stage], 1e-9), 2
                ),
            }
            for stage in cold_seconds
        },
        "chain": {
            "cold_seconds": round(total_cold, 6),
            "facade_seconds": round(total_facade, 6),
            "speedup": round(speedup, 2),
        },
        "artifact_cache": cache_stats,
    }

    def probe(tel):
        ds = Dataset(table, telemetry=tel)
        run = ds.anonymize("burel", beta=2.0)
        run.audit(ordered_emd=True)
        run.evaluate(queries[:200])

    report["telemetry"] = telemetry_block(
        probe, note="anonymize + audit + evaluate probe, 200 queries"
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if speedup < args.floor:
        raise SystemExit(
            f"regression: facade chain speedup {speedup:.2f}x is below "
            f"the {args.floor}x acceptance floor"
        )


if __name__ == "__main__":
    main()
