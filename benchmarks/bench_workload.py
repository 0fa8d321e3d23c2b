"""Workload-evaluation performance baseline: batched vs per-query path.

Measures the Fig. 8 workload evaluation (default: 2 000 COUNT queries ×
30K rows × 5 QI attributes, β sweep 1..5 over BUREL/LMondrian/DMondrian)
two ways:

* **scalar** — the pre-batching code path: every sweep point answers
  ``answer_precise`` and each ``GeneralizedAnswerer`` once per query,
  recomputing precise answers at every β although the workload is
  shared;
* **batch** — one :class:`~repro.api.Dataset` session created inside
  the timed region, the path ``experiments/fig8.py`` runs: one
  bitmap-indexed precise pass cached across the sweep, chunked batch
  estimators, shared QI masks.

Medians must be byte-equal between the paths, and a second section
checks batch-vs-scalar estimate equality for all four publication
formats (generalized, perturbed, Anatomy, Baseline).  Run from the repo
root::

    PYTHONPATH=src python benchmarks/bench_workload.py [--rows 30000] \\
        [--queries 2000] [--out benchmarks/BENCH_workload.json]

Exits non-zero if the sweep speedup drops below the 10x acceptance
floor.  Standalone script (not pytest-collected), like bench_engine.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from _obs import telemetry_block
from repro.anonymity import BaselinePublication, anatomize
from repro.api import Dataset
from repro.core import perturb_table
from repro.dataset import CENSUS_QI_ORDER, make_census
from repro.engine import run_many
from repro.metrics.errors import median_relative_error
from repro.query import (
    GeneralizedAnswerer,
    answer_precise,
    answer_precise_batch,
    batch_estimates,
    make_answerer,
    make_workload,
)

BETAS = (1.0, 2.0, 3.0, 4.0, 5.0)
LAMBDA = 3
THETA = 0.1
QUERY_SEED = 13

GENERALIZATION_JOBS = (
    ("BUREL", "burel", lambda beta: {"beta": beta}),
    ("LMondrian", "mondrian", lambda beta: {"kind": "beta", "beta": beta}),
    ("DMondrian", "mondrian", lambda beta: {"kind": "delta", "beta": beta}),
)


def build_publications(table) -> "dict[float, dict[str, object]]":
    """The Fig. 8 publications for every β, via the staged engine."""
    jobs = [
        (algorithm, params(beta))
        for beta in BETAS
        for _, algorithm, params in GENERALIZATION_JOBS
    ]
    results = run_many(table, jobs)
    stride = len(GENERALIZATION_JOBS)
    publications: dict[float, dict[str, object]] = {}
    for i, beta in enumerate(BETAS):
        publications[beta] = {
            name: result.published
            for (name, _, _), result in zip(
                GENERALIZATION_JOBS, results[stride * i : stride * (i + 1)]
            )
        }
    return publications


def scalar_sweep(table, publications, queries) -> tuple[dict, float]:
    """The per-query path exactly as fig8 ran it before batching."""
    medians: dict[str, list[float]] = {}
    start = time.perf_counter()
    for beta in BETAS:
        precise = np.array([answer_precise(table, q) for q in queries])
        for name, published in publications[beta].items():
            answerer = GeneralizedAnswerer(published)
            estimates = np.array([answerer(q) for q in queries])
            medians.setdefault(name, []).append(
                median_relative_error(precise, estimates)
            )
    return medians, time.perf_counter() - start


def batch_sweep(table, publications, queries) -> tuple[dict, float, float]:
    """The batched path; returns medians, total and first-point seconds.

    The session starts empty inside the timed region, so the total
    includes building the bitmap index and the one precise pass the
    remaining sweep points reuse.
    """
    medians: dict[str, list[float]] = {}
    first_point = None
    start = time.perf_counter()
    ds = Dataset(table)
    for beta in BETAS:
        profiles = ds.evaluate(publications[beta], queries)
        for name, profile in profiles.items():
            medians.setdefault(name, []).append(profile.median)
        if first_point is None:
            first_point = time.perf_counter() - start
    return medians, time.perf_counter() - start, first_point


def bench_four_formats(table, queries, generalized) -> dict:
    """Batch-vs-scalar equality and timings for every publication format."""
    publications = {
        "generalized": generalized,
        "perturbed": perturb_table(table, 4.0, rng=np.random.default_rng(29)),
        "anatomy": anatomize(table, 4, rng=np.random.default_rng(1)),
        "baseline": BaselinePublication(table),
    }
    # Answerers are constructed outside both timed regions (fresh
    # instances per path, so per-instance caches start cold in both).
    scalar: dict[str, np.ndarray] = {}
    scalar_seconds: dict[str, float] = {}
    for name, published in publications.items():
        answerer = make_answerer(published)
        start = time.perf_counter()
        scalar[name] = np.array([answerer(q) for q in queries])
        scalar_seconds[name] = time.perf_counter() - start
    batch_answerers = {
        name: make_answerer(published)
        for name, published in publications.items()
    }
    start = time.perf_counter()
    batched = batch_estimates(table, batch_answerers, queries)
    batch_seconds = time.perf_counter() - start
    report = {
        "scalar_seconds": {k: round(v, 6) for k, v in scalar_seconds.items()},
        "scalar_seconds_total": round(sum(scalar_seconds.values()), 6),
        "batch_seconds_total": round(batch_seconds, 6),
        "speedup": round(sum(scalar_seconds.values()) / batch_seconds, 2),
        "byte_equal": {},
    }
    for name in publications:
        equal = bool(np.array_equal(scalar[name], batched[name]))
        report["byte_equal"][name] = equal
        if not equal:
            raise SystemExit(
                f"regression: batch estimates diverged from scalar for "
                f"the {name} publication format"
            )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--queries", type=int, default=2_000)
    parser.add_argument(
        "--fixture", choices=("census", "synthetic"), default="census",
        help="table generator behind --rows (default: census); synthetic "
             "scales past the CENSUS generator's natural profile",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_workload.json",
    )
    parser.add_argument("--floor", type=float, default=10.0)
    args = parser.parse_args()

    if args.fixture == "synthetic":
        from repro.dataset.synthetic import synthetic

        table = synthetic(
            args.rows, qi_dims=3, sa_cardinality=32, skew=0.8, seed=7,
            correlation=0.0,
        )
    else:
        table = make_census(
            args.rows, seed=7, correlation=0.3, qi_names=CENSUS_QI_ORDER
        )
    queries = make_workload(
        table.schema, args.queries, LAMBDA, THETA, rng=QUERY_SEED
    )
    publications = build_publications(table)

    scalar_medians, scalar_seconds = scalar_sweep(table, publications, queries)
    batch_medians, batch_seconds, first_point = batch_sweep(
        table, publications, queries
    )
    if scalar_medians != batch_medians:
        raise SystemExit(
            "regression: batched sweep medians are not byte-equal to the "
            "scalar path"
        )

    # Precise-only comparison (the dominant scalar cost).
    start = time.perf_counter()
    precise_scalar = np.array([answer_precise(table, q) for q in queries])
    precise_scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    precise_batch = answer_precise_batch(table, queries)
    precise_batch_seconds = time.perf_counter() - start
    assert np.array_equal(precise_scalar, precise_batch)

    speedup = scalar_seconds / batch_seconds
    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "fixture": args.fixture,
        "queries": args.queries,
        "lambda": LAMBDA,
        "theta": THETA,
        "betas": list(BETAS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "fig8_sweep": {
            "scalar_seconds": round(scalar_seconds, 6),
            "batch_seconds": round(batch_seconds, 6),
            "batch_first_point_seconds": round(first_point, 6),
            "speedup": round(speedup, 2),
            "medians_byte_equal": True,
        },
        "precise_only": {
            "scalar_seconds": round(precise_scalar_seconds, 6),
            "batch_seconds": round(precise_batch_seconds, 6),
            "speedup": round(
                precise_scalar_seconds / precise_batch_seconds, 2
            ),
        },
        "four_formats": bench_four_formats(
            table, queries, publications[4.0]["BUREL"]
        ),
    }

    def probe(tel):
        ds = Dataset(table, telemetry=tel)
        run = ds.anonymize("burel", beta=4.0)
        ds.evaluate({"burel": run.published}, queries[:200])

    report["telemetry"] = telemetry_block(
        probe, note="anonymize + evaluate probe, 200 queries"
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if speedup < args.floor:
        raise SystemExit(
            f"regression: workload-evaluation speedup {speedup:.2f}x is "
            f"below the {args.floor}x acceptance floor"
        )


if __name__ == "__main__":
    main()
