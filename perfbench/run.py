"""Chain benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload release --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A single workload prints its metrics by name, with unit and sample
count, then, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics (and a
trace file under ``.perfbench/``) with ``--trace 1``.  ``--workload
all`` runs every workload untraced and traced, each in its own process,
and prints one table with the error rate and tracing overhead.

The package under measurement is imported from ``src/``; the run fails
(exit code 2, no result) when it is not there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    Bench,
    host_facts,
    stop_child_processes,
)

WORKLOADS = ("release", "serve", "refresh")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Scratch stores (removed after each run) and trace files.
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measured time per run on the reference host; sets the fixed "
        "round count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale):
    """Run one workload; returns the bench, its end-to-end metrics with
    sample counts, and the result JSON object."""
    from perfbench import workloads

    reference = json.loads(REFERENCE.read_text())
    bench = Bench(
        trace=trace,
        rounds=max(scale.min_rounds, round(seconds / reference["round_s"][name])),
        setups=scale.setups,
        calib_rows=scale.calib_rows,
        calib_handoffs=scale.calib_handoffs,
        calib_threads=workloads.CALIBRATION_THREADS[name],
        reference_calib_s=reference["calib_s"][name],
    )
    seeds = workloads.Seeds.from_base(seed)
    extra = {}
    if name == "release":
        full_default = scale == workloads.FULL and seed == 0
        extra["expected_ids"] = reference["release_ids"] if full_default else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workloads.RUNNERS[name](bench, scale, seeds, workdir, **extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = bench.end_to_end()
    if trace:
        values = bench.per_layer()
        values.update(
            {f"traced.{key}": value for key, (value, _, _) in end_to_end.items()}
        )
        units = {key: spec[0] for key, spec in PER_LAYER.items()}
    else:
        values = {key: value for key, (value, _, _) in end_to_end.items()}
        units = {key: spec[0] for key, spec in END_TO_END.items()}
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": units[key]}
            for key in units
        },
    }
    return bench, end_to_end, result


def print_report(name, seed, bench, end_to_end, result, trace_path) -> None:
    facts = host_facts()
    print(
        f"host: nproc={facts['nproc']} cpu={facts['cpu']} "
        f"python={facts['python']} numpy={facts['numpy']}"
    )
    print(
        f"workload {name}: seed {seed}, {len(bench.setup_runs)} set-ups, "
        f"1 warm-up + {len(bench.rounds)} timed rounds, reference "
        f"calibration {bench.reference:.4f} s"
    )
    print(
        "  raw round s: "
        + " ".join(f"{r.raw_s:.4f}" for r in bench.rounds)
        + " | calibration s: "
        + " ".join(f"{c:.4f}" for c in bench.calibrations)
    )
    for key, (value, n, what) in end_to_end.items():
        unit = END_TO_END[key][0]
        print(f"  {key:<18} {value:>14.6g} {unit:<4} n={n} {what}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"  {'error_rate':<18} {rate:>14.6g} {'':<4} "
        f"{result['failed']} of {result['attempted']} ops failed"
    )
    if trace_path is not None:
        for key, metric in result["metrics"].items():
            print(f"  {key:<26} {metric['value']:>14.6g} {metric['unit']}")
        print(f"trace: {trace_path}")


def report_all(args) -> int:
    """Every workload untraced then traced, in child processes."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=900
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            rows[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            if not rows[name, trace]["correct"]:
                status = 1
    print("\nend-to-end (untraced) | tracing overhead = traced - untraced")
    for name in WORKLOADS:
        plain, traced = rows[name, 0], rows[name, 1]
        rate = plain["failed"] / plain["attempted"]
        print(f"{name}: error_rate {rate:g} ({plain['failed']} of "
              f"{plain['attempted']} ops)")
        for key, metric in plain["metrics"].items():
            over = traced["metrics"][f"traced.{key}"]["value"] - metric["value"]
            print(f"  {key:<18} {metric['value']:>14.6g} {metric['unit']:<4} "
                  f"overhead {over:+.4g}")
    print("\nper-layer (traced) -> end-to-end metric it should move")
    for key, (unit, _, moves, where) in PER_LAYER.items():
        if key.startswith("traced."):
            continue
        values = " ".join(
            f"{name}={rows[name, 1]['metrics'][key]['value']:.4g}"
            for name in WORKLOADS
        )
        print(f"  {key:<26} [{unit}] {values}  moves {moves} on {where}")
    return status


def main(argv=None, scale=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no package to measure at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return report_all(args)
    from perfbench.workloads import FULL

    trace = bool(args.trace)
    bench, end_to_end, result = run_workload(
        args.workload, args.seed, args.seconds, trace, scale or FULL
    )
    trace_path = None
    if trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        bench.spans.write(
            trace_path,
            {"host": host_facts(), "workload": args.workload, "seed": args.seed},
        )
    print_report(args.workload, args.seed, bench, end_to_end, result, trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_child_processes()
    sys.exit(status)
