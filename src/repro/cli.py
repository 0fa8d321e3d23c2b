"""Command-line anonymization, publication and query serving.

Usage::

    repro generalize data.csv --qi Age,Gender,Zip --numerical Age,Zip \\
        --sensitive Disease --beta 2 -o out.csv
    repro generalize data.csv --qi Age --numerical Age \\
        --sensitive Disease --algorithm anatomy --l 3 -o out.csv
    repro perturb data.csv --qi Age --numerical Age \\
        --sensitive Disease --beta 2 -o out.csv
    repro publish data.csv --store pubs/ --qi Age --numerical Age \\
        --sensitive Disease --algorithm burel --beta 2
    repro append data.csv delta.csv --store pubs/ --name census \\
        --qi Age --numerical Age --sensitive Disease --beta 2 --shards 8
    repro query --store pubs/ --id 3fa9 --queries 1000 --theta 0.1
    repro publish data.csv --store pubs/ --qi Age --numerical Age \\
        --sensitive Disease --beta 2 --trace trace.json
    repro stats trace.json
    repro lint src tests --json

(``python -m repro.cli`` works identically when the console script is
not installed.)

All subcommands dispatch through the :mod:`repro.api` session facade
(one :class:`~repro.api.Dataset` per invocation), so a ``publish``'s
certification audit reuses the artifacts its run already produced.

``generalize`` runs a generalization scheme from the engine registry
(BUREL by default; ``--algorithm`` selects sabre/mondrian/fulldomain/
anatomy) and writes one row per tuple with generalized QI cells (for
``anatomy``, exact QI cells with a group id plus the SA-multiset JSON
sidecar); ``perturb`` runs the Section 5 randomized-response scheme and
writes exact QI cells with randomized sensitive values plus a JSON
sidecar carrying the transition matrix.

``publish`` anonymizes and admits the publication to a
:class:`~repro.service.PublicationStore` — admission runs the audit
layer and **refuses** publications whose measured privacy violates the
declared β/t/ℓ requirement.  ``query`` answers a COUNT workload against
a stored publication through the micro-batching
:class:`~repro.service.QueryService`.

``append`` exercises the versioned-dataset chain: anonymize the base
CSV sharded, publish it under ``--name``, append the delta CSV (loaded
against the base table's schema), re-anonymize **incrementally**
(recomputing only the Hilbert-key shards the new rows touch), and
publish the refreshed release as a child version — the store's
``versions(name)`` lineage then walks base → refresh.  Both releases
pass the same certification gate; a refresh that violates the contract
is refused like any other publication.

``--seed`` feeds the engine's uniform rng parameter: omitted means the
algorithm's deterministic behaviour (e.g. BUREL's Hilbert sweep); given,
it seeds the randomized variant.  ``--verbose`` attaches a session
:class:`repro.obs.Telemetry` and prints one uniform report across every
subcommand — the span tree (engine stages, per-shard runs, serve
batches) plus metric summaries; ``--trace out.json`` writes the same
session as a Chrome trace-event file, which ``repro stats out.json``
renders back in the terminal.

``lint`` runs the repo's AST invariant linter (reprolint, see
:mod:`repro.analysis`) over the given paths (default ``src tests``)
against the committed ``analysis/baseline.json``: exit 0 clean, 1 on
new findings, 2 on usage errors.

Categorical QI columns get flat hierarchies from their observed values;
for domain hierarchies, use the library API instead.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .api import Dataset
from .io import (
    write_anatomy_csv,
    write_generalized_csv,
    write_perturbed_csv,
)
from .metrics import average_information_loss, privacy_profile

#: Registry algorithms whose output format ``generalize`` can write.
GENERALIZERS = ("burel", "sabre", "mondrian", "fulldomain", "anatomy")

#: Registry algorithms ``publish`` can admit to a store.
PUBLISHABLE = GENERALIZERS + ("perturb",)


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="CSV file with a header row")
    _add_table_args(parser)
    _add_model_args(parser)
    parser.add_argument("-o", "--output", required=True)
    _add_run_args(parser)


def _add_table_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--qi", required=True,
        help="comma-separated quasi-identifier columns",
    )
    parser.add_argument(
        "--numerical", default="",
        help="comma-separated QI columns to treat as integers",
    )
    parser.add_argument(
        "--sensitive", required=True, help="the sensitive column"
    )


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument(
        "--basic", action="store_true",
        help="use basic beta-likeness (Definition 2) instead of enhanced",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None,
        help="rng seed; omit for the deterministic variant",
    )
    _add_obs_args(parser)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verbose", action="store_true",
        help="print the session's span tree and metrics "
             "(per-stage timings, cache and service counters)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="write the session's telemetry as a Chrome trace-event "
             "file (open in chrome://tracing or Perfetto; readable "
             "back via 'repro stats OUT.json')",
    )


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process count; >1 anonymizes sharded over N Hilbert-key "
             "ranges (deterministic, but groups form within ranges, so the "
             "output depends on N — not on scheduling)",
    )


def _add_algorithm_args(parser: argparse.ArgumentParser, choices) -> None:
    parser.add_argument(
        "--algorithm", choices=choices, default="burel",
        help="publication scheme from the engine registry",
    )
    parser.add_argument(
        "--t", type=float, default=0.2,
        help="closeness threshold (sabre only)",
    )
    parser.add_argument(
        "--l", type=int, default=2,
        help="diversity parameter (anatomy only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    generalize = sub.add_parser("generalize")
    _add_io_args(generalize)
    _add_algorithm_args(generalize, GENERALIZERS)
    _add_workers_arg(generalize)

    _add_io_args(sub.add_parser("perturb"))

    publish = sub.add_parser("publish")
    publish.add_argument("input", help="CSV file with a header row")
    publish.add_argument(
        "--store", required=True, help="publication store directory"
    )
    _add_table_args(publish)
    _add_model_args(publish)
    _add_algorithm_args(publish, PUBLISHABLE)
    _add_run_args(publish)
    _add_workers_arg(publish)
    publish.add_argument(
        "--require-beta", type=float, default=None,
        help="declare a beta contract (default: the algorithm's target)",
    )
    publish.add_argument(
        "--require-t", type=float, default=None,
        help="declare a t-closeness contract",
    )
    publish.add_argument(
        "--require-l", type=int, default=None,
        help="declare an l-diversity contract",
    )

    append = sub.add_parser("append")
    append.add_argument("input", help="base CSV file with a header row")
    append.add_argument("delta", help="CSV of rows to append (same header)")
    append.add_argument(
        "--store", required=True, help="publication store directory"
    )
    append.add_argument(
        "--name", default="dataset",
        help="lineage name both versions are published under",
    )
    _add_table_args(append)
    _add_model_args(append)
    _add_algorithm_args(append, GENERALIZERS)
    _add_run_args(append)
    _add_workers_arg(append)
    append.add_argument(
        "--shards", type=int, default=4,
        help="Hilbert-key shard count (the unit of incremental reuse)",
    )
    append.add_argument(
        "--require-beta", type=float, default=None,
        help="declare a beta contract (default: the algorithm's target)",
    )
    append.add_argument(
        "--require-t", type=float, default=None,
        help="declare a t-closeness contract",
    )
    append.add_argument(
        "--require-l", type=int, default=None,
        help="declare an l-diversity contract",
    )

    query = sub.add_parser("query")
    query.add_argument(
        "--store", required=True, help="publication store directory"
    )
    query.add_argument(
        "--id", required=True, dest="pub_id",
        help="publication id (or unique prefix) to query",
    )
    query.add_argument(
        "--queries", type=int, default=100,
        help="number of random COUNT queries to generate",
    )
    query.add_argument(
        "--lam", type=int, default=None,
        help="QI predicates per query (default: all QI attributes)",
    )
    query.add_argument(
        "--theta", type=float, default=0.1,
        help="expected query selectivity",
    )
    query.add_argument(
        "--workload-seed", type=int, default=0,
        help="workload generation seed",
    )
    query.add_argument(
        "--backend", choices=("auto", "cube", "bitmap"), default="auto",
        help="answer backend: precomputed count cube, bitmap masks, or "
             "auto (cube when one is materialized, bitmap otherwise)",
    )
    query.add_argument(
        "-o", "--output", default=None,
        help="write queries + estimates as JSON",
    )
    query.add_argument(
        "--workers", type=int, default=2,
        help="serving thread count (answers identical at every count)",
    )
    _add_obs_args(query)

    stats = sub.add_parser(
        "stats",
        help="render a --trace file: span tree plus metric summaries",
    )
    stats.add_argument("trace", help="JSON file written by --trace")
    stats.add_argument(
        "--json", action="store_true",
        help="print the span tree + metrics as JSON instead of text",
    )

    from .analysis.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def _split(arg: str) -> list[str]:
    return [part for part in arg.split(",") if part]


def _algorithm_params(args: argparse.Namespace) -> dict:
    """Engine parameters for the selected algorithm.

    Flags that do not apply to the selected algorithm are called out
    rather than silently ignored.
    """
    enhanced = not args.basic
    if args.algorithm in ("mondrian", "fulldomain") and args.seed is not None:
        print(f"note: --seed has no effect; {args.algorithm} is deterministic")
    if args.algorithm in ("burel", "perturb"):
        return {"beta": args.beta, "enhanced": enhanced}
    if args.algorithm == "sabre":
        if args.beta != 2.0 or args.basic:
            print("note: --beta/--basic have no effect for sabre; use --t")
        return {"t": args.t}
    if args.algorithm == "anatomy":
        if args.beta != 2.0 or args.basic:
            print("note: --beta/--basic have no effect for anatomy; use --l")
        return {"l": args.l}
    # mondrian / fulldomain run with the beta-likeness constraint so the
    # beta flag means the same thing across algorithms.
    return {"kind": "beta", "beta": args.beta, "enhanced": enhanced}


def _requirement(args: argparse.Namespace) -> dict:
    """The privacy contract ``publish`` declares for the store gate.

    Explicit ``--require-*`` flags win; otherwise the contract defaults
    to the algorithm's own target parameter.
    """
    explicit = {}
    if args.require_beta is not None:
        explicit["beta"] = args.require_beta
        explicit["enhanced"] = not args.basic
    if args.require_t is not None:
        explicit["t"] = args.require_t
    if args.require_l is not None:
        explicit["l"] = args.require_l
    if explicit:
        return explicit
    if args.algorithm == "sabre":
        return {"t": args.t}
    if args.algorithm == "anatomy":
        return {"l": args.l}
    return {"beta": args.beta, "enhanced": not args.basic}


def _telemetry(args):
    """One session :class:`repro.obs.Telemetry` when --verbose/--trace
    ask for it, else None (the disabled no-op path everywhere)."""
    from .obs import Telemetry

    if getattr(args, "verbose", False) or getattr(args, "trace", None):
        return Telemetry(enabled=True)
    return None


def _print_stages(result, verbose: bool) -> None:
    """The one-line per-run stage summary (span-derived timings)."""
    if not verbose:
        return
    from .obs import format_stage_seconds

    print(f"stages: {format_stage_seconds(result.stage_seconds)}")


def _emit_telemetry(args, telemetry) -> None:
    """The shared --verbose / --trace tail of every subcommand:
    one span-tree + metrics report, one Chrome trace file."""
    if telemetry is None:
        return
    if getattr(args, "verbose", False):
        from .obs import format_report

        print(format_report(telemetry.snapshot()))
    trace = getattr(args, "trace", None)
    if trace:
        telemetry.write_trace(trace)
        print(f"wrote trace -> {trace}")


def _workers(args: argparse.Namespace) -> "int | None":
    """The facade's ``workers`` argument (None = the unsharded path)."""
    return args.workers if args.workers and args.workers > 1 else None


def _load_dataset(
    args: argparse.Namespace, telemetry=None
) -> Dataset:
    ds = Dataset.from_csv(
        args.input,
        qi=_split(args.qi),
        sensitive=args.sensitive,
        numerical=_split(args.numerical),
        telemetry=telemetry,
    )
    print(f"loaded {ds.n_rows} tuples, "
          f"{ds.schema.n_qi} QI attributes, "
          f"{ds.table.sa_cardinality} sensitive values")
    return ds


def _run_generalize(args: argparse.Namespace) -> int:
    telemetry = _telemetry(args)
    with _load_dataset(args, telemetry) as ds:
        result = ds.anonymize(
            args.algorithm, rng=args.seed, workers=_workers(args),
            **_algorithm_params(args)
        )
        if args.algorithm == "anatomy":
            write_anatomy_csv(result.published, args.output)
            print(f"published {len(result.published)} anatomy groups "
                  f"-> {args.output} (+ .json sidecar)")
            _print_stages(result, args.verbose)
            from .audit.metrics import privacy_profile as audit_privacy_profile

            print(f"measured privacy: "
                  f"{audit_privacy_profile(result.view())}")
            _emit_telemetry(args, telemetry)
            return 0
        write_generalized_csv(result.published, args.output)
        print(f"published {len(result.published)} equivalence classes "
              f"-> {args.output}")
        _print_stages(result, args.verbose)
        print(f"measured privacy: {privacy_profile(result.published)}")
        print(f"average information loss: "
              f"{average_information_loss(result.published):.4f}")
    _emit_telemetry(args, telemetry)
    return 0


def _run_perturb(args: argparse.Namespace) -> int:
    telemetry = _telemetry(args)
    with _load_dataset(args, telemetry) as ds:
        seed = args.seed if args.seed is not None else 0
        result = ds.anonymize(
            "perturb",
            rng=np.random.default_rng(seed),
            beta=args.beta, enhanced=not args.basic,
        )
        write_perturbed_csv(result.published, args.output)
        print(f"perturbed table -> {args.output} (+ .json sidecar)")
        _print_stages(result, args.verbose)
        print(f"sensitive values kept intact: "
              f"{result.published.retention_rate():.2%}")
    _emit_telemetry(args, telemetry)
    return 0


def _run_publish(args: argparse.Namespace) -> int:
    from .service import CertificationError, PublicationStore

    telemetry = _telemetry(args)
    ds = _load_dataset(args, telemetry)
    store = PublicationStore(args.store, cache=ds.cache)
    requirement = _requirement(args)
    rng = args.seed
    workers = _workers(args)
    if args.algorithm == "perturb":
        rng = args.seed if args.seed is not None else 0
        if workers:
            print("note: perturb is a whole-table scheme; "
                  "--workers has no effect")
            workers = None
    try:
        with ds:
            result = ds.anonymize(
                args.algorithm, rng=rng, workers=workers,
                **_algorithm_params(args)
            )
            record = result.publish(store, requirement=requirement)
    except CertificationError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    _print_stages(result, args.verbose)
    contract = ", ".join(f"{k}={v}" for k, v in requirement.items())
    print(f"certified against {contract}")
    print(f"admitted {record.kind} publication "
          f"({record.n_rows} rows"
          + (f", {record.n_groups} groups" if record.n_groups else "")
          + ")")
    print(f"id: {record.pub_id}")
    _emit_telemetry(args, telemetry)
    return 0


def _run_append(args: argparse.Namespace) -> int:
    from .io import load_csv_table
    from .service import CertificationError, PublicationStore

    telemetry = _telemetry(args)
    ds = _load_dataset(args, telemetry)
    store = PublicationStore(args.store, cache=ds.cache)
    requirement = _requirement(args)
    with ds:
        try:
            base = ds.anonymize(
                args.algorithm, rng=args.seed, workers=_workers(args),
                shards=args.shards, **_algorithm_params(args)
            )
            base_record = base.publish(
                store, requirement=requirement, name=args.name
            )
        except CertificationError as exc:
            print(f"refused (baseline): {exc}", file=sys.stderr)
            return 1
        print(f"published baseline {base_record.pub_id[:12]} "
              f"as {args.name!r} ({args.shards} shards)")
        _print_stages(base, args.verbose)

        delta = load_csv_table(
            args.delta,
            qi_names=_split(args.qi),
            sensitive_name=args.sensitive,
            numerical=_split(args.numerical),
            schema=ds.schema,
        )
        added = ds.append(delta)
        state = ds.version_state()
        print(f"appended {added} tuples "
              f"({len(state.dirty)}/{args.shards} shards dirty)")

        refreshed = ds.refresh()
        incremental = refreshed.provenance["incremental"]
        try:
            record = refreshed.publish(
                store, requirement=requirement,
                name=args.name, parent=base_record,
            )
        except CertificationError as exc:
            print(f"refused (refresh): {exc}", file=sys.stderr)
            return 1
        _print_stages(refreshed, args.verbose)
        print(f"refreshed v{incremental['version']}: reused "
              f"{len(incremental['reused'])} shard(s), recomputed "
              f"{len(incremental['recomputed'])} "
              f"({incremental['recomputed_rows']} rows)")
        print(f"admitted {record.kind} publication "
              f"({record.n_rows} rows) id: {record.pub_id}")
        chain = " -> ".join(
            rec.pub_id[:12] for rec in store.versions(args.name)
        )
        print(f"lineage {args.name!r}: {chain}")
    _emit_telemetry(args, telemetry)
    return 0


def _run_query(args: argparse.Namespace) -> int:
    from .query import make_workload
    from .service import PublicationStore, QueryService

    telemetry = _telemetry(args)
    store = PublicationStore(args.store)
    with QueryService(
        store, workers=args.workers, backend=args.backend,
        telemetry=telemetry,
    ) as service:
        try:
            record = service.load(args.pub_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        schema = service.publication(args.pub_id).source.schema
        lam = args.lam if args.lam is not None else schema.n_qi
        workload = make_workload(
            schema, args.queries, lam, args.theta, rng=args.workload_seed
        )
        estimates = service.answer(args.pub_id, workload)
        served = service.serving_backend(args.pub_id)
        if args.verbose:
            stats = service.stats_snapshot()
            print(
                f"served {stats['requests']} requests in "
                f"{stats['batches']} micro-batches "
                f"(mean size {stats['mean_batch_size']:.1f})"
            )
    print(f"answered {len(workload)} queries against "
          f"{record.kind} publication {record.pub_id[:12]} "
          f"(backend {args.backend!r}, served by {served or 'n/a'!r})")
    preview = ", ".join(f"{e:.2f}" for e in estimates[:5])
    print(f"first estimates: {preview}")
    if args.output:
        payload = {
            "publication": record.pub_id,
            "backend": args.backend,
            "served_by": served,
            "queries": [
                {
                    "qi": [
                        [dim, lo, hi] for dim, (lo, hi) in query.qi_ranges
                    ],
                    "sa": list(query.sa_range),
                }
                for query in workload
            ],
            "estimates": estimates.tolist(),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote estimates -> {args.output}")
    _emit_telemetry(args, telemetry)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    from .obs import format_report, load_trace, span_tree

    try:
        payload = load_trace(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(
            {
                "spans": span_tree(payload.get("spans", [])),
                "metrics": payload.get("metrics", {}),
            },
            indent=2,
        ))
        return 0
    print(format_report(payload))
    return 0


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generalize":
        return _run_generalize(args)
    if args.command == "perturb":
        return _run_perturb(args)
    if args.command == "publish":
        return _run_publish(args)
    if args.command == "append":
        return _run_append(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "lint":
        from .analysis.cli import run_lint

        return run_lint(args)
    return _run_query(args)


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
