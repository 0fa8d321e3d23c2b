"""Incremental refresh after append vs cold re-anonymization.

The versioned-dataset chain (PR 7): a sharded baseline run snapshots
one artifact per Hilbert-key shard, ``Dataset.append`` routes new rows
to shards and evicts exactly the touched shards' artifacts, and
``Dataset.refresh`` re-anonymizes only the dirty shards — reusing every
clean shard's cached groups, membership vector and SA histograms.

The headline number is the **refresh speedup**: a k-row append whose
rows land in a handful of shards, republished incrementally, against
the cold path — a fresh facade anonymizing the whole concatenated table
sharded over the *same* plan with the same pinned SA distribution (the
exact computation the refresh shortcuts; same shard count, same seeds,
same group boundaries).

Identity is asserted, not assumed:

* the refreshed publication is **byte-identical** (content digest) to
  the cold sharded run over the concatenated table;
* refreshed and cold audit reports are equal — both measure the
  *current* table's true SA distribution, so reuse never weakens the
  privacy evidence;
* a workload whose precise answers were cached on the baseline is
  evaluated on the refreshed run from answers the append carried
  (the baseline's plus the delta's alone), and its precise answers and
  error profile equal a cold evaluation over the concatenated table;
  both evaluate times are reported;
* both releases pass the same certification gate, and the store's
  ``versions(name)`` lineage round-trips losslessly through a fresh
  store handle (baseline → refresh, parent-before-child).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        [--rows 1000000] [--append 2000] [--shards 32] \\
        [--out benchmarks/BENCH_incremental.json]

Exits non-zero if the refresh speedup drops below the 10x acceptance
floor or any identity assertion fails.  Standalone script (not
pytest-collected), like the other benches.
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
from repro.api import ArtifactCache, Dataset
from repro.dataset.synthetic import synthetic
from repro.dataset.table import Table
from repro.io import publication_digest
from repro.query.evaluate import answer_precise_batch, evaluate_workload
from repro.service import PublicationStore

ALGORITHM = "burel"
BETA = 2.0
SEED = 17

#: The 1M-row synthetic profile every parallel-layer bench uses.
SYNTHETIC = dict(
    qi_dims=3, sa_cardinality=32, skew=0.8, qi_domain=512,
    correlation=0.0, seed=1,
)


def make_delta(table: Table, plan, k: int, rng: np.random.Generator) -> Table:
    """``k`` append rows clustered in one shard's Hilbert-key range.

    QI vectors are drawn from one shard's existing rows (new data that
    arrives where data already lives — the locality appends have in
    practice); SA values are redrawn from the table's empirical
    distribution so the delta shifts ``P`` like real churn does.
    """
    shard = plan.shards[len(plan.shards) // 2]
    pick = rng.choice(shard.rows, size=k, replace=True)
    sa = rng.choice(
        table.schema.sensitive.cardinality, size=k, p=table.sa_distribution()
    )
    return Table(table.schema, table.qi[pick], sa)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument(
        "--append", type=int, default=2_000,
        help="rows appended before the refresh",
    )
    parser.add_argument("--shards", type=int, default=32)
    parser.add_argument("--floor", type=float, default=10.0)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_incremental.json",
    )
    args = parser.parse_args()

    table = synthetic(args.rows, **SYNTHETIC)
    requirement = {"beta": BETA}

    # ---- baseline: sharded run, tracked as the versioned lineage -----
    ds = Dataset(table)
    start = time.perf_counter()
    base = ds.anonymize(ALGORITHM, beta=BETA, rng=SEED, shards=args.shards)
    baseline_seconds = time.perf_counter() - start
    state = ds.version_state()
    pinned = state.sa_distribution.copy()
    workload = ds.workload(200, seed=5)
    ds.precise(workload)  # carried across the append below

    delta = make_delta(table, state.plan, args.append, np.random.default_rng(3))

    # ---- warm path: append + incremental refresh ---------------------
    start = time.perf_counter()
    added = ds.append(delta)
    append_seconds = time.perf_counter() - start
    dirty = sorted(state.dirty)

    start = time.perf_counter()
    refreshed = ds.refresh()
    refresh_seconds = time.perf_counter() - start
    incremental = refreshed.provenance["incremental"]

    start = time.perf_counter()
    warm_profile = refreshed.evaluate(workload)
    warm_evaluate_seconds = time.perf_counter() - start

    # ---- cold path: fresh facade over the concatenated table ---------
    # Same plan, same pinned P, same seed: the exact computation the
    # refresh claims to shortcut, paid in full.
    from repro.parallel import ShardedSession

    concat = Table.concat([table, delta])
    start = time.perf_counter()
    cold_session = ShardedSession(
        concat, workers=1, plan=state.plan, sa_distribution=pinned,
        cache=ArtifactCache(),
    )
    cold = cold_session.anonymize(ALGORITHM, beta=BETA, seed=SEED)
    cold_seconds = time.perf_counter() - start

    cold_cache = ArtifactCache()
    start = time.perf_counter()
    cold_profile = evaluate_workload(
        concat, {"run": refreshed.published}, workload, artifacts=cold_cache
    )["run"]
    cold_evaluate_seconds = time.perf_counter() - start
    evaluate_equal = warm_profile == cold_profile and np.array_equal(
        ds.precise(workload),
        answer_precise_batch(concat, workload, artifacts=cold_cache),
    )

    # ---- identity: byte-identical publication, equal audits ----------
    warm_digest = publication_digest(refreshed.published)
    cold_digest = publication_digest(cold.published)
    byte_identical = warm_digest == cold_digest
    warm_report, cold_report = refreshed.audit(), cold.audit()
    audit_equal = dataclasses.asdict(
        warm_report.privacy
    ) == dataclasses.asdict(cold_report.privacy) and dataclasses.asdict(
        warm_report.risk
    ) == dataclasses.asdict(cold_report.risk)

    # ---- lineage: publish both, round-trip versions() ----------------
    with tempfile.TemporaryDirectory() as root:
        store = PublicationStore(root, cache=ds.cache)
        rec0 = base.publish(store, requirement=requirement, name="bench")
        rec1 = refreshed.publish(
            store, requirement=requirement, name="bench", parent=rec0
        )
        reopened = PublicationStore(root)
        chain = reopened.versions("bench")
        lineage_ok = (
            [r.pub_id for r in chain] == [rec0.pub_id, rec1.pub_id]
            and chain[0].parent_id is None
            and chain[1].parent_id == rec0.pub_id
            and chain[0].name == chain[1].name == "bench"
            and reopened.latest("bench").pub_id == rec1.pub_id
            and publication_digest(reopened.get(rec1.pub_id)) == rec1.pub_id
        )

    ds.close_parallel()
    cold_session.close()

    speedup = cold_seconds / refresh_seconds
    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "appended": added,
        "shards": args.shards,
        "algorithm": ALGORITHM,
        "beta": BETA,
        "seed": SEED,
        "synthetic": SYNTHETIC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "baseline_seconds": round(baseline_seconds, 6),
        "append_seconds": round(append_seconds, 6),
        "refresh_seconds": round(refresh_seconds, 6),
        "cold_seconds": round(cold_seconds, 6),
        "warm_evaluate_seconds": round(warm_evaluate_seconds, 6),
        "cold_evaluate_seconds": round(cold_evaluate_seconds, 6),
        "speedup": round(speedup, 2),
        "dirty_shards": dirty,
        "reused_shards": incremental["reused"],
        "recomputed_rows": incremental["recomputed_rows"],
        "identity": {
            "publication_digest": warm_digest,
            "byte_identical": byte_identical,
            "audit_matches_cold": audit_equal,
            "evaluate_matches_cold": evaluate_equal,
            "lineage_round_trip": lineage_ok,
        },
    }

    probe_table = synthetic(50_000, **SYNTHETIC)

    def probe(tel):
        pds = Dataset(probe_table, telemetry=tel)
        pds.anonymize(ALGORITHM, beta=BETA, rng=SEED, shards=8)
        pstate = pds.version_state()
        pds.append(
            make_delta(probe_table, pstate.plan, 500, np.random.default_rng(3))
        )
        pds.refresh()
        pds.close_parallel()

    report["telemetry"] = telemetry_block(
        probe, note="append + refresh probe at 50000 rows x 8 shards"
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if not byte_identical:
        raise SystemExit(
            "identity violation: refreshed publication digest "
            f"{warm_digest[:12]} != cold digest {cold_digest[:12]}"
        )
    if not audit_equal:
        raise SystemExit(
            "identity violation: refreshed audit differs from the cold run"
        )
    if not evaluate_equal:
        raise SystemExit(
            "identity violation: the refreshed run's carried precise "
            "answers or error profile differ from a cold evaluation"
        )
    if not lineage_ok:
        raise SystemExit(
            "lineage violation: store versions() did not round-trip "
            "baseline -> refresh"
        )
    if speedup < args.floor:
        raise SystemExit(
            f"regression: incremental refresh speedup {speedup:.2f}x is "
            f"below the {args.floor}x acceptance floor"
        )


if __name__ == "__main__":
    main()
