"""Telemetry overhead baseline: the facade chain with tracing on vs off.

Runs the full custodian chain — anonymize a β sweep, audit, certify +
publish to a store, evaluate a COUNT workload, reload and serve it —
through one :class:`repro.api.Dataset` session, twice per repeat:

* **disabled** — a plain ``Dataset``: telemetry is the shared
  ``NULL_TELEMETRY`` no-op and must cost nothing;
* **enabled** — ``Dataset(telemetry=Telemetry())``: every engine stage,
  facade entry point, and cache touch records spans/metrics.

Three contracts are enforced, not just reported:

* **byte-identity** — publication digests, privacy/risk profiles,
  store ids + audit evidence, error profiles, and served estimates are
  equal across the two modes (telemetry may never steer computation);
* **overhead ceiling** — enabled tracing adds at most ``--floor``
  (default 5%) wall clock over the disabled chain, best-of-``--repeats``
  on both sides;
* **trace round-trip** — the enabled run's Chrome trace file is valid
  JSON whose span tree reconstructs the programmatic snapshot exactly.

A serving leg then pushes the workload through a telemetry-enabled
:class:`repro.service.QueryService` and reports the measured qps and
exact p50/p99 request latency from the registry histograms — the
ROADMAP's serving-trajectory numbers.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_obs.py [--rows 30000] \\
        [--queries 2000] [--trace obs_trace.json] \\
        [--out benchmarks/BENCH_obs.json]

Exits non-zero if any identity diverges, the overhead ceiling is
breached, or the trace round-trip fails.  Standalone script (not
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

from repro.api import Dataset
from repro.dataset import CENSUS_QI_ORDER, make_census
from repro.io import publication_digest
from repro.obs import Telemetry, load_trace, span_tree, write_trace
from repro.query import make_workload
from repro.service import PublicationStore, QueryService

BETAS = (1.0, 2.0, 3.0, 4.0)
LAMBDA = 3
THETA = 0.1
QUERY_SEED = 13


def run_chain(table, queries, root, telemetry) -> tuple[dict, float]:
    """One facade chain pass; returns (outputs, wall seconds)."""
    start = time.perf_counter()
    ds = Dataset(table, telemetry=telemetry)
    store = PublicationStore(root, cache=ds.cache)
    outputs: dict[str, dict] = {}
    runs = ds.sweep([("burel", {"beta": beta}) for beta in BETAS])
    for beta, run in zip(BETAS, runs):
        out: dict = {"digest": publication_digest(run.published)}
        report = run.audit(ordered_emd=True)
        out["privacy"] = dataclasses.asdict(report.privacy)
        out["risk"] = dataclasses.asdict(report.risk)
        record = run.publish(store, requirement={"beta": beta})
        out["pub_id"] = record.pub_id
        out["evidence"] = record.audit
        out["profile"] = dataclasses.asdict(run.evaluate(queries))
        reloaded = store.get(record.pub_id)
        served = ds.evaluate({"served": reloaded}, queries)["served"]
        out["served"] = dataclasses.asdict(served)
        outputs[f"beta={beta}"] = out
    return outputs, time.perf_counter() - start


def serve_leg(table, queries, root, telemetry) -> dict:
    """Serve the workload through a telemetry-enabled QueryService and
    read qps + exact latency percentiles back out of the registry."""
    result_ds = Dataset(table)
    store = PublicationStore(root, cache=result_ds.cache)
    run = result_ds.anonymize("burel", beta=2.0)
    record = run.publish(store, requirement={"beta": 2.0})
    with QueryService(store, workers=2, telemetry=telemetry) as service:
        service.load(record.pub_id)  # admission outside the timed window
        start = time.perf_counter()
        service.answer(record.pub_id, queries)
        seconds = time.perf_counter() - start
    hists = telemetry.metrics.snapshot()["histograms"]
    latency = hists["service.request_seconds"]
    return {
        "queries": len(queries),
        "seconds": round(seconds, 6),
        "qps": round(len(queries) / seconds, 1),
        "request_seconds": {
            key: latency[key] for key in ("count", "mean", "p50", "p90", "p99", "max")
        },
        "queue_wait_p99": hists["service.queue_wait"]["p99"],
        "mean_batch_size": hists["service.batch_size"]["mean"],
    }


def check_trace_round_trip(telemetry, path) -> dict:
    """``--trace`` file contract: valid JSON, span tree reconstructs."""
    payload = write_trace(path, telemetry)
    loaded = load_trace(path)
    if loaded != json.loads(json.dumps(payload)):
        raise SystemExit("regression: trace file is not JSON-stable")
    if span_tree(loaded["spans"]) != telemetry.span_tree():
        raise SystemExit(
            "regression: trace-file span tree diverges from the "
            "programmatic snapshot"
        )
    if len(loaded["traceEvents"]) != len(loaded["spans"]):
        raise SystemExit(
            "regression: Chrome traceEvents do not cover every span"
        )
    return {
        "spans": len(loaded["spans"]),
        "trace_events": len(loaded["traceEvents"]),
        "round_trip": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--queries", type=int, default=2_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="also write the enabled run's Chrome trace here "
             "(a temp file is used for the round-trip check otherwise)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_obs.json",
    )
    parser.add_argument(
        "--floor", type=float, default=0.05,
        help="maximum tolerated enabled-tracing overhead fraction",
    )
    args = parser.parse_args()

    table = make_census(
        args.rows, seed=7, correlation=0.3, qi_names=CENSUS_QI_ORDER
    )
    queries = make_workload(
        table.schema, args.queries, LAMBDA, THETA, rng=QUERY_SEED
    )

    disabled_best = enabled_best = float("inf")
    disabled_outputs = enabled_outputs = None
    telemetry = None
    for _ in range(args.repeats):
        with tempfile.TemporaryDirectory() as root:
            outputs, seconds = run_chain(table, queries, root, None)
        if disabled_outputs is None:
            disabled_outputs = outputs
        elif outputs != disabled_outputs:
            raise SystemExit(
                "regression: disabled chain outputs are not reproducible"
            )
        disabled_best = min(disabled_best, seconds)

        tel = Telemetry(enabled=True)
        with tempfile.TemporaryDirectory() as root:
            outputs, seconds = run_chain(table, queries, root, tel)
        if enabled_outputs is None:
            enabled_outputs = outputs
        enabled_best = min(enabled_best, seconds)
        telemetry = tel

    if enabled_outputs != disabled_outputs:
        diverging = [
            key
            for key in disabled_outputs
            if enabled_outputs.get(key) != disabled_outputs[key]
        ]
        raise SystemExit(
            f"regression: enabled-telemetry chain outputs diverge from "
            f"the disabled chain at {diverging}"
        )

    overhead = enabled_best / disabled_best - 1.0

    span_counts: dict[str, int] = {}
    for record in telemetry.tracer.export():
        span_counts[record["name"]] = span_counts.get(record["name"], 0) + 1

    trace_path = args.trace
    if trace_path is None:
        handle = tempfile.NamedTemporaryFile(
            suffix=".json", delete=False
        )
        handle.close()
        trace_path = Path(handle.name)
    try:
        trace = check_trace_round_trip(telemetry, trace_path)
    finally:
        if args.trace is None:
            trace_path.unlink(missing_ok=True)

    service_tel = Telemetry(enabled=True)
    with tempfile.TemporaryDirectory() as root:
        service = serve_leg(table, queries, root, service_tel)

    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "queries": args.queries,
        "betas": list(BETAS),
        "lambda": LAMBDA,
        "theta": THETA,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "byte_identical": True,
        "chain": {
            "disabled_seconds": round(disabled_best, 6),
            "enabled_seconds": round(enabled_best, 6),
            "overhead_fraction": round(overhead, 4),
            "overhead_floor": args.floor,
        },
        "trace": trace,
        "service": service,
        "telemetry": {
            "span_counts": dict(sorted(span_counts.items())),
            "timed_section_seconds": {
                "count": args.repeats,
                "disabled_best": round(disabled_best, 6),
                "enabled_best": round(enabled_best, 6),
            },
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if overhead > args.floor:
        raise SystemExit(
            f"regression: enabled tracing adds {overhead:.1%} wall clock "
            f"to the facade chain, above the {args.floor:.0%} ceiling"
        )


if __name__ == "__main__":
    main()
