"""Sharded multi-process chain vs the single-process facade chain.

Runs the custodian chain — anonymize under β-likeness (BUREL), audit
the release, evaluate a COUNT workload — over a large synthetic table
three ways:

* **unsharded** — one :class:`repro.api.Dataset` session over the whole
  table: the single-process path every earlier bench measures.
* **sharded, serial** — :class:`repro.parallel.ShardedSession` with
  ``workers=1``: the table is partitioned into contiguous Hilbert-key
  ranges and every shard runs inline through the same task functions
  the pool executes.
* **sharded, pooled** — the same plan fanned out over a
  ``ProcessPoolExecutor`` whose workers take the table, its Hilbert
  keys and the shard row arrays once, at start-up.

The headline number is the pooled chain's speedup over the unsharded
single-process chain.  Two effects compound: the pool overlaps shard
work across cores, and each shard's bitmap index fits the 128 MB
budget that the whole-table index blows through (so shards answer
queries via precise popcounts while the unsharded path scans
zone-mapped row blocks, which touch only the blocks a query's box
boundary cuts).  ``cpu_count`` is recorded so the two effects can be
told apart across machines — on a single-core host the architectural
effect is the whole speedup.

Identity is asserted, not assumed:

* serial and pooled sharded runs produce byte-identical publications
  (content digests), audit reports, precise counts and per-query
  estimate arrays — worker count and scheduling never leak into
  outputs;
* sharded precise COUNT answers equal the unsharded answers **exactly**
  (integer sums over a row partition);
* the shard-merged audit report equals a from-scratch audit of the
  merged publication through the standard audit entry point.

(The merged *publication* differs from the unsharded run's by design —
groups form within key ranges — so only the precise answers are
comparable across that boundary.)

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--rows 1000000] \\
        [--queries 8000] [--workers 4] [--out benchmarks/BENCH_parallel.json]

Exits non-zero if the pooled speedup drops below the 2.5x acceptance
floor or any identity assertion fails.  Standalone script (not
pytest-collected), like the other benches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from _obs import telemetry_block
from repro.api import Dataset
from repro.audit.evaluate import audit_publications
from repro.dataset import synthetic
from repro.io import publication_digest
from repro.metrics.errors import error_profile
from repro.parallel import ShardedSession
from repro.query import make_workload

ALGORITHM = "burel"
BETA = 2.0
SEED = 17
TABLE_SEED = 1
QI_DIMS = 3
SA_CARDINALITY = 32
SKEW = 0.8
QI_DOMAIN = 512
LAMBDA = 2
THETA = 0.1
QUERY_SEED = 13

STAGES = ("anonymize", "audit", "evaluate")


def run_unsharded(table, queries) -> dict:
    """The single-process chain through one Dataset session."""
    ds = Dataset(table)
    seconds = {}

    start = time.perf_counter()
    run = ds.anonymize(ALGORITHM, beta=BETA, rng=SEED)
    seconds["anonymize"] = time.perf_counter() - start

    start = time.perf_counter()
    report = run.audit()
    seconds["audit"] = time.perf_counter() - start

    start = time.perf_counter()
    profile = run.evaluate(queries)
    seconds["evaluate"] = time.perf_counter() - start

    return {
        "digest": publication_digest(run.published),
        "report": report,
        "profile": profile,
        # Cached by the evaluate above — no extra timed work.
        "precise": ds.precise(queries),
        "seconds": seconds,
    }


def run_sharded(table, queries, *, workers: int, shards: int) -> dict:
    """The sharded chain; ``workers=1`` is the serial fallback."""
    seconds = {}
    with ShardedSession(table, workers=workers, shards=shards) as session:
        start = time.perf_counter()
        run = session.anonymize(ALGORITHM, beta=BETA, seed=SEED)
        seconds["anonymize"] = time.perf_counter() - start

        start = time.perf_counter()
        report = run.audit()
        seconds["audit"] = time.perf_counter() - start

        start = time.perf_counter()
        precise, estimates = session.answers(run, queries)
        profile = error_profile(precise, estimates)
        seconds["evaluate"] = time.perf_counter() - start

        shard_rows = [shard.n_rows for shard in session.plan]
    return {
        "digest": publication_digest(run.published),
        "published": run.published,
        "report": report,
        "profile": profile,
        "precise": precise,
        "estimates": estimates,
        "seconds": seconds,
        "shard_rows": shard_rows,
    }


def check_identity(unsharded: dict, serial: dict, pooled: dict) -> dict:
    """Assert every byte-identity contract; returns the evidence dict."""
    failures = []

    if serial["digest"] != pooled["digest"]:
        failures.append("publication digests diverge across worker counts")
    if dataclasses.asdict(serial["report"].privacy) != dataclasses.asdict(
        pooled["report"].privacy
    ) or dataclasses.asdict(serial["report"].risk) != dataclasses.asdict(
        pooled["report"].risk
    ):
        failures.append("audit reports diverge across worker counts")
    if not np.array_equal(serial["estimates"], pooled["estimates"]):
        failures.append("estimate arrays diverge across worker counts")
    if not np.array_equal(serial["precise"], pooled["precise"]):
        failures.append("precise counts diverge across worker counts")
    if dataclasses.asdict(serial["profile"]) != dataclasses.asdict(
        pooled["profile"]
    ):
        failures.append("error profiles diverge across worker counts")

    if not np.array_equal(pooled["precise"], unsharded["precise"]):
        failures.append("sharded precise counts != unsharded precise counts")

    # From-scratch audit of the merged publication, no seeded caches.
    direct = audit_publications(
        pooled["published"].source, {"merged": pooled["published"]}
    )["merged"]
    if dataclasses.asdict(direct.privacy) != dataclasses.asdict(
        pooled["report"].privacy
    ) or dataclasses.asdict(direct.risk) != dataclasses.asdict(
        pooled["report"].risk
    ):
        failures.append("shard-merged audit != direct audit of merged pub")

    if failures:
        raise SystemExit("regression: " + "; ".join(failures))
    return {
        "publication_digest": pooled["digest"],
        "serial_equals_pooled": True,
        "precise_counts_exact": True,
        "audit_matches_direct": True,
        "estimates_bitwise_equal": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--queries", type=int, default=8_000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: same as --workers)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_parallel.json",
    )
    parser.add_argument("--floor", type=float, default=2.5)
    args = parser.parse_args()
    shards = args.shards if args.shards is not None else args.workers

    # correlation=0.0 keeps contiguous key ranges representative of the
    # global SA distribution; the merge contract needs no more, but the
    # eligibility conditions of distribution-sensitive schemes do.
    table = synthetic(
        args.rows,
        qi_dims=QI_DIMS,
        sa_cardinality=SA_CARDINALITY,
        skew=SKEW,
        seed=TABLE_SEED,
        qi_domain=QI_DOMAIN,
        correlation=0.0,
    )
    queries = make_workload(
        table.schema, args.queries, LAMBDA, THETA, rng=QUERY_SEED
    )

    unsharded = run_unsharded(table, queries)
    serial = run_sharded(table, queries, workers=1, shards=shards)
    pooled = run_sharded(table, queries, workers=args.workers, shards=shards)
    identity = check_identity(unsharded, serial, pooled)

    total_unsharded = sum(unsharded["seconds"].values())
    total_serial = sum(serial["seconds"].values())
    total_pooled = sum(pooled["seconds"].values())
    speedup = total_unsharded / total_pooled
    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "queries": args.queries,
        "workers": args.workers,
        "shards": shards,
        "shard_rows": pooled["shard_rows"],
        "algorithm": ALGORITHM,
        "beta": BETA,
        "seed": SEED,
        "synthetic": {
            "qi_dims": QI_DIMS,
            "sa_cardinality": SA_CARDINALITY,
            "skew": SKEW,
            "qi_domain": QI_DOMAIN,
            "correlation": 0.0,
            "seed": TABLE_SEED,
        },
        "workload": {
            "lambda": LAMBDA, "theta": THETA, "rng": QUERY_SEED,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "byte_identical": True,
        "identity": identity,
        "stages": {
            stage: {
                "unsharded_seconds": round(
                    unsharded["seconds"][stage], 6
                ),
                "sharded_serial_seconds": round(
                    serial["seconds"][stage], 6
                ),
                "sharded_pooled_seconds": round(
                    pooled["seconds"][stage], 6
                ),
                "speedup": round(
                    unsharded["seconds"][stage]
                    / max(pooled["seconds"][stage], 1e-9),
                    2,
                ),
            }
            for stage in STAGES
        },
        "chain": {
            "unsharded_seconds": round(total_unsharded, 6),
            "sharded_serial_seconds": round(total_serial, 6),
            "sharded_pooled_seconds": round(total_pooled, 6),
            "speedup": round(speedup, 2),
        },
    }

    # All three chains audit through the same parent-side view of the
    # merged publication, so the audit stage's timings differ only by
    # noise: they stay in the chain totals, but get no speedup.
    del report["stages"]["audit"]["speedup"]

    probe_rows = min(args.rows, 50_000)
    probe_table = (
        table if probe_rows == args.rows
        else table.subset(np.arange(probe_rows))
    )

    def probe(tel):
        with ShardedSession(
            probe_table, workers=args.workers, shards=shards, telemetry=tel
        ) as session:
            run = session.anonymize(ALGORITHM, beta=BETA, seed=SEED)
            run.audit()
            session.answers(run, queries[:200])

    report["telemetry"] = telemetry_block(
        probe,
        note=f"sharded chain probe at {probe_rows} rows, 200 queries",
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if speedup < args.floor:
        raise SystemExit(
            f"regression: sharded chain speedup {speedup:.2f}x is below "
            f"the {args.floor}x acceptance floor"
        )


if __name__ == "__main__":
    main()
