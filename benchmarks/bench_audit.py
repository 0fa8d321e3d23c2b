"""Privacy-audit performance baseline: batched vs per-EC path.

Two timed sections over the same BUREL β ∈ {1..5} publications:

* **§7-table audit** (the floor-enforced section) — every publication
  re-measured under every privacy model (β/t/ℓ/δ worst case and
  averages, the Fig. 4 / §7-table quantities) plus the disclosure-risk
  profile.  The scalar path walks the ECs once per model
  (``repro.metrics``'s ``_per_class`` passes); the batched path is
  :func:`repro.audit.audit_publications` computing everything from one
  cold-built ``PublicationView`` per publication.
* **attack suite** — skewness, corruption (10% of tuples known),
  composition against the β=1 release and Naive Bayes, scalar
  (per-EC argmax loops, per-row set membership, row-by-row pair dict)
  vs batched.  Speedup here is informational: both paths share the
  attack-independent O(n·m) prediction work, which dilutes the ratio.

Every measured quantity must be bit/float-identical between the paths.
Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_audit.py [--rows 100000] \\
        [--out benchmarks/BENCH_audit.json]

Exits non-zero if the §7-table audit speedup drops below the 5x
acceptance floor or any quantity diverges.  Standalone script (not
pytest-collected), like bench_engine.py and bench_workload.py.
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
from repro import attacks as scalar_attacks
from repro import audit
from repro import metrics as scalar_metrics
from repro.audit import audit_publications
from repro.dataset import CENSUS_QI_ORDER, make_census
from repro.engine import run_many

BETAS = (1.0, 2.0, 3.0, 4.0, 5.0)
CORRUPTED_FRACTION = 0.1
ATTACKS = ("skewness", "corruption", "composition", "naive_bayes")


def build_publications(table) -> "dict[str, object]":
    """The §7-table BUREL sweep, via the staged engine."""
    results = run_many(
        table, [("burel", {"beta": beta}) for beta in BETAS]
    )
    return {
        f"beta={beta}": result.published
        for beta, result in zip(BETAS, results)
    }


# ----------------------------------------------------------------------
# §7-table audit (floor-enforced)
# ----------------------------------------------------------------------


def scalar_table_audit(publications) -> tuple[dict, float]:
    """The per-EC reference: five separate EC walks per publication."""
    start = time.perf_counter()
    reports = {
        name: {
            "privacy": scalar_metrics.privacy_profile(
                published, ordered_emd=True
            ),
            "risk": scalar_metrics.risk_profile(published),
        }
        for name, published in publications.items()
    }
    return reports, time.perf_counter() - start


def batch_table_audit(table, publications) -> tuple[dict, float]:
    """One ``audit_publications`` batch; views built cold."""
    start = time.perf_counter()
    reports = audit_publications(table, publications, ordered_emd=True)
    return reports, time.perf_counter() - start


# ----------------------------------------------------------------------
# Attack suite (equality-checked, informational speedup)
# ----------------------------------------------------------------------


def scalar_attack_audit(publications, n_corrupted) -> tuple[dict, float]:
    rng = np.random.default_rng(0)
    compose_target = next(iter(publications.values()))
    reports: dict[str, dict] = {}
    start = time.perf_counter()
    for name, published in publications.items():
        reports[name] = {
            "skewness": scalar_attacks.skewness_gain(published),
            "corruption": scalar_attacks.corruption_attack(
                published, n_corrupted, rng=rng
            ),
            "composition": scalar_attacks.composition_attack(
                published, compose_target
            ),
            "naive_bayes": scalar_attacks.naive_bayes_attack(published),
        }
    return reports, time.perf_counter() - start


def batch_attack_audit(table, publications, n_corrupted) -> tuple[dict, float]:
    first = next(iter(publications))
    start = time.perf_counter()
    reports = audit_publications(
        table,
        publications,
        attacks=ATTACKS,
        ordered_emd=True,
        n_corrupted=n_corrupted,
        rng=0,
        compose_with=first,
    )
    return reports, time.perf_counter() - start


def assert_identical(scalar_reports, batch_reports, keys) -> None:
    """Every audited quantity must match the scalar reference exactly."""
    for name, scalar in scalar_reports.items():
        batch = batch_reports[name]
        checks = {}
        for key in keys:
            batch_value = getattr(batch, key)
            if key == "naive_bayes":
                checks[key] = scalar[key].accuracy == batch_value.accuracy and (
                    np.array_equal(
                        scalar[key].predictions, batch_value.predictions
                    )
                )
            else:
                checks[key] = scalar[key] == batch_value
        failed = [key for key, ok in checks.items() if not ok]
        if failed:
            raise SystemExit(
                f"regression: batched audit diverged from the scalar "
                f"reference for {name}: {failed}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "BENCH_audit.json",
    )
    parser.add_argument("--floor", type=float, default=5.0)
    args = parser.parse_args()

    table = make_census(
        args.rows, seed=7, correlation=0.3, qi_names=CENSUS_QI_ORDER[:3]
    )
    n_corrupted = int(args.rows * CORRUPTED_FRACTION)
    publications = build_publications(table)

    scalar_table, scalar_table_seconds = scalar_table_audit(publications)
    batch_table, batch_table_seconds = batch_table_audit(table, publications)
    assert_identical(scalar_table, batch_table, ("privacy", "risk"))

    scalar_att, scalar_attack_seconds = scalar_attack_audit(
        publications, n_corrupted
    )
    batch_att, batch_attack_seconds = batch_attack_audit(
        table, publications, n_corrupted
    )
    assert_identical(scalar_att, batch_att, ATTACKS)

    # View reuse across sweeps: a second audit of the same publications
    # (e.g. Fig. 4's re-measurement under another model) hits the cache.
    start = time.perf_counter()
    audit_publications(table, publications, ordered_emd=True)
    warm_seconds = time.perf_counter() - start

    speedup = scalar_table_seconds / batch_table_seconds
    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "rows": args.rows,
        "betas": list(BETAS),
        "n_corrupted": n_corrupted,
        "n_classes": {
            name: int(audit.publication_view(pub).n_groups)
            for name, pub in publications.items()
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host": platform.platform(),
        "section7_table_audit": {
            "scalar_seconds": round(scalar_table_seconds, 6),
            "batch_seconds": round(batch_table_seconds, 6),
            "speedup": round(speedup, 2),
            "reports_identical": True,
        },
        "attack_suite": {
            "attacks": list(ATTACKS),
            "scalar_seconds": round(scalar_attack_seconds, 6),
            "batch_seconds": round(batch_attack_seconds, 6),
            "speedup": round(
                scalar_attack_seconds / batch_attack_seconds, 2
            ),
            "reports_identical": True,
        },
        "warm_view_reaudit": {
            "batch_seconds": round(warm_seconds, 6),
        },
    }

    probe_table = (
        table if table.n_rows <= 30_000 else table.subset(np.arange(30_000))
    )

    def probe(tel):
        from repro.api import Dataset

        Dataset(probe_table, telemetry=tel).anonymize(
            "burel", beta=2.0
        ).audit()

    report["telemetry"] = telemetry_block(
        probe,
        note=f"anonymize + audit probe at {probe_table.n_rows} rows",
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if speedup < args.floor:
        raise SystemExit(
            f"regression: Section 7 table audit speedup {speedup:.2f}x is "
            f"below the {args.floor}x acceptance floor"
        )


if __name__ == "__main__":
    main()
