"""Tests of the observability subsystem (``repro.obs``) and its wiring.

Covers the tentpole contracts of the telemetry PR:

* the core instruments (spans, counters, gauges, exact-percentile
  histograms) and their exports;
* **deterministic cross-process adoption** — a ``workers=2`` sharded run
  re-parents its workers' span buffers into the session trace in shard
  order, producing the same tree a ``workers=1`` run does, and worker
  metric registries merge exactly;
* **strict no-op when disabled** — byte-identical results, the shared
  ``NULL_SPAN`` singleton on every span call, and no net allocation
  growth on the serving hot path;
* the exporters (Chrome trace events, span trees, trace-file
  round-trips) and the ``repro stats`` CLI renderer;
* the service-layer integration: ``ServiceStats`` as a registry view
  (with deep-copied snapshots), latency histograms, and SUM/AVG
  aggregate serving through ``QueryService``.
"""

import gc
import json
import threading
import tracemalloc

import numpy as np
import pytest

from repro.api import Dataset
from repro.dataset import synthetic
from repro.engine import run as engine_run
from repro.obs import (
    NULL_SPAN,
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    Tracer,
    chrome_trace,
    coerce_telemetry,
    format_report,
    format_stage_seconds,
    load_trace,
    span_tree,
    timed,
    write_trace,
)
from repro.query.aggregates import batch_aggregate_estimates
from repro.query.workload import make_workload
from repro.service import PublicationStore, QueryService


@pytest.fixture(scope="module")
def table():
    return synthetic(2_000, qi_dims=2, sa_cardinality=6, seed=9)


@pytest.fixture(scope="module")
def workload(table):
    return make_workload(table.schema, 40, 2, 0.15, rng=3)


# ----------------------------------------------------------------------
# Core: spans and tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                inner.set("depth", 2)
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        assert spans[1].parent_id == spans[0].span_id
        assert spans[0].attributes == {"kind": "test"}
        assert spans[1].attributes == {"depth": 2}
        assert spans[0].end is not None and spans[1].end is not None
        assert spans[0].duration >= spans[1].duration

    def test_exception_recorded_and_stack_popped(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.spans()
        assert span.end is not None
        assert "ValueError" in span.attributes["error"]
        assert tracer.current() is None

    def test_thread_local_stacks(self):
        tracer = Tracer()
        seen = {}

        def other():
            with tracer.span("thread-root") as s:
                seen["parent"] = s.parent_id

        with tracer.span("main-root"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        # The other thread's root must not nest under main's open span.
        assert seen["parent"] is None

    def test_export_round_trips_via_adopt(self):
        tracer = Tracer()
        with tracer.span("a", x=1):
            with tracer.span("b"):
                pass
        records = tracer.export()
        parent_tracer = Tracer()
        with parent_tracer.span("session") as root:
            adopted = parent_tracer.adopt(records, parent=root, shard=0)
        assert [s.name for s in adopted] == ["a", "b"]
        a, b = adopted
        assert a.parent_id == root.span_id
        assert b.parent_id == a.span_id
        # Foreign roots get the adoption attributes; children keep theirs.
        assert a.attributes == {"x": 1, "shard": 0}
        assert b.attributes == {}


class TestMetrics:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 1.5)
        assert reg.value("a") == 5
        assert reg.value("g") == 1.5
        assert reg.value("missing") is None

    def test_histogram_exact_percentiles(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("lat", v / 100.0)
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["count"] == 100
        assert snap["p50"] == pytest.approx(np.percentile(
            [v / 100.0 for v in range(1, 101)], 50))
        assert snap["p99"] == pytest.approx(np.percentile(
            [v / 100.0 for v in range(1, 101)], 99))
        assert snap["min"] == 0.01 and snap["max"] == 1.0

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 2.0)
        a.observe("h", 0.1)
        b.observe("h", 0.3)
        a.merge(b.export())
        assert a.value("c") == 5
        assert a.value("g") == 2.0  # last write (the merged-in side) wins
        h = a.snapshot()["histograms"]["h"]
        assert h["count"] == 2 and h["max"] == 0.3

    def test_snapshot_is_deep(self):
        reg = MetricsRegistry()
        reg.inc("c")
        snap = reg.snapshot()
        snap["counters"]["c"] = 999
        assert reg.value("c") == 1

    def test_timed_observes_seconds(self):
        tel = Telemetry()
        with timed(tel, "block") as t:
            pass
        assert t.seconds >= 0.0
        assert tel.metrics.snapshot()["histograms"]["block"]["count"] == 1
        # Disabled: nothing records, but the timer still measures.
        with timed(None, "block") as t2:
            pass
        assert t2.seconds >= 0.0


# ----------------------------------------------------------------------
# Disabled mode: strict no-op
# ----------------------------------------------------------------------


class TestDisabled:
    def test_null_singletons(self):
        assert coerce_telemetry(None) is NULL_TELEMETRY
        assert NULL_TELEMETRY.span("anything") is NULL_SPAN
        with NULL_TELEMETRY.span("x") as span:
            span.set("k", "v")
        assert span is NULL_SPAN
        assert span.duration == 0.0
        assert NULL_TELEMETRY.snapshot()["spans"] == []

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            coerce_telemetry(object())

    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False)
        tel.count("c")
        tel.gauge("g", 1.0)
        tel.observe("h", 0.5)
        tel.adopt_spans([{"name": "x", "span_id": 1, "parent_id": None,
                          "start": 0.0, "end": 1.0}])
        snap = tel.snapshot()
        assert snap["spans"] == []
        assert snap["metrics"]["counters"] == {}
        assert snap["metrics"]["histograms"] == {}

    def test_serve_hot_path_no_net_allocations(self, table, workload,
                                               tmp_path):
        """The serving hot path must not grow memory when telemetry is
        off: submit/answer churn allocates and frees, but nothing
        telemetry-shaped accumulates."""
        result = engine_run("burel", table, beta=2.0)
        store = PublicationStore(tmp_path / "store")
        record = store.put(
            result.published, requirement={"beta": 2.0},
            algorithm="burel", params=result.params,
        )
        with QueryService(store, workers=1) as service:
            assert service.telemetry is NULL_TELEMETRY
            service.answer(record.pub_id, workload)  # warm every cache
            tracemalloc.start()
            # One traced round so the allocator's steady state exists in
            # the before snapshot.  The worker drops each batch once it
            # is answered, so no round's futures outlive it (see
            # test_answered_batch_is_not_retained).
            service.answer(record.pub_id, workload)
            gc.collect()
            before = tracemalloc.take_snapshot()
            for _ in range(5):
                service.answer(record.pub_id, workload)
            gc.collect()
            after = tracemalloc.take_snapshot()
            tracemalloc.stop()
        growth = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if "tracemalloc" not in (stat.traceback[0].filename or "")
        )
        # Warm steady-state churn; allow slack for allocator noise but
        # catch anything that buffers per request (40 queries x 5 rounds
        # of spans/observations would dwarf this bound).
        assert growth < 16_384, f"serve hot path grew by {growth} bytes"

    def test_answered_batch_is_not_retained(self, table, workload,
                                            tmp_path):
        """An idle serving thread holds no answered batch: 40 queries
        after a 1-query round leave no growth.  (A worker that kept its
        last batch alive held all 40 resolved futures here, so the
        test above depended on how its submits split into batches.)"""
        result = engine_run("burel", table, beta=2.0)
        store = PublicationStore(tmp_path / "store")
        record = store.put(
            result.published, requirement={"beta": 2.0},
            algorithm="burel", params=result.params,
        )
        assert len(workload) == 40
        with QueryService(store, workers=1) as service:
            service.answer(record.pub_id, workload)  # warm every cache
            tracemalloc.start()
            service.answer(record.pub_id, workload[:1])
            gc.collect()
            before = tracemalloc.take_snapshot()
            service.answer(record.pub_id, workload)
            gc.collect()
            after = tracemalloc.take_snapshot()
            tracemalloc.stop()
        growth = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if "tracemalloc" not in (stat.traceback[0].filename or "")
        )
        assert growth < 16_384, f"answered batch kept {growth} bytes"

    def test_disabled_byte_identity_sharded(self, table):
        tel = Telemetry(enabled=True)
        with Dataset(table) as plain, Dataset(table, telemetry=tel) as traced:
            a = plain.anonymize("burel", beta=2.0, workers=1, shards=4)
            b = traced.anonymize("burel", beta=2.0, workers=1, shards=4)
            assert len(a.published) == len(b.published)
            for ca, cb in zip(a.published.classes, b.published.classes):
                assert np.array_equal(ca.rows, cb.rows)
                assert np.array_equal(ca.sa_counts, cb.sa_counts)
        assert len(tel.tracer) > 0


# ----------------------------------------------------------------------
# Cross-process adoption (the tentpole)
# ----------------------------------------------------------------------


def _tree_shape(nodes):
    """(name, sorted non-volatile attrs, children) — timing-free.

    ``workers`` is stripped: it is the one attribute that legitimately
    differs between a serial and a pooled run of the same job.
    """
    return [
        (
            node["name"],
            tuple(sorted(
                (k, v) for k, v in node["attributes"].items()
                if k not in ("error", "workers")
            )),
            _tree_shape(node["children"]),
        )
        for node in nodes
    ]


class TestAdoption:
    def test_sharded_span_tree_deterministic_across_workers(self, table):
        trees = {}
        for workers in (1, 2):
            tel = Telemetry(enabled=True)
            with Dataset(table, telemetry=tel) as ds:
                run = ds.anonymize(
                    "burel", beta=2.0, workers=workers, shards=4
                )
                run.audit()
            trees[workers] = _tree_shape(tel.span_tree())
        assert trees[1] == trees[2]
        # Every shard appears exactly once, in ascending order.
        anonymize_children = trees[1][0][2]
        shard_attrs = [dict(attrs) for _, attrs, _ in anonymize_children]
        assert [a["shard"] for a in shard_attrs] == [0, 1, 2, 3]

    def test_worker_roots_reparent_under_fanout_span(self, table):
        tel = Telemetry(enabled=True)
        with Dataset(table, telemetry=tel) as ds:
            ds.anonymize("burel", beta=2.0, workers=2, shards=2)
        spans = {s.span_id: s for s in tel.tracer.spans()}
        roots = [s for s in spans.values() if s.parent_id is None]
        assert [r.name for r in roots] == ["parallel.anonymize"]
        engine_runs = [s for s in spans.values() if s.name == "engine.run"]
        assert len(engine_runs) == 2
        for s in engine_runs:
            assert spans[s.parent_id].name == "parallel.anonymize"
            # Stage spans keep their worker-local parentage after remap.
        stages = [s for s in spans.values() if s.name == "engine.allocate"]
        assert len(stages) == 2
        assert {spans[s.parent_id].name for s in stages} == {"engine.run"}

    def test_worker_metrics_merge(self):
        """Worker registries ship back through ``traced_task`` and fold
        into the session registry — the exact transport ``_map`` uses."""
        from repro.parallel import _worker

        def work(x, telemetry=None):
            telemetry.count("worker.items", x)
            telemetry.observe("worker.weight", float(x))
            with telemetry.span("worker.step"):
                pass
            return x * 2

        tel = Telemetry(enabled=True)
        with tel.span("fan-out") as parent:
            for x in (1, 2, 3):
                result, payload = _worker.traced_task(work, True, x)
                assert result == x * 2
                tel.adopt_spans(payload["spans"], parent=parent, shard=x)
                tel.merge_metrics(payload["metrics"])
        metrics = tel.metrics.snapshot()
        assert metrics["counters"]["worker.items"] == 6
        hist = metrics["histograms"]["worker.weight"]
        assert hist["count"] == 3 and hist["max"] == 3.0
        steps = [s for s in tel.tracer.spans() if s.name == "worker.step"]
        assert [s.attributes["shard"] for s in steps] == [1, 2, 3]

    def test_disabled_traced_task_ships_no_payload(self):
        from repro.parallel import _worker

        def work(x, telemetry=None):
            assert telemetry is None
            return x + 1

        result, payload = _worker.traced_task(work, False, 41)
        assert result == 42 and payload is None

    def test_metrics_identical_across_worker_counts(self, table, workload):
        snapshots = {}
        for workers in (1, 2):
            tel = Telemetry(enabled=True)
            with Dataset(table, telemetry=tel) as ds:
                run = ds.anonymize(
                    "burel", beta=2.0, workers=workers, shards=4
                )
                ds.sharded(workers, 4).answers(run, workload)
            snapshots[workers] = tel.metrics.snapshot()["counters"]
        assert snapshots[1] == snapshots[2]


# ----------------------------------------------------------------------
# Engine spans
# ----------------------------------------------------------------------


class TestEngineSpans:
    def test_stage_seconds_derive_from_spans(self, table):
        tel = Telemetry(enabled=True)
        result = engine_run("burel", table, beta=2.0, telemetry=tel)
        stage_spans = {
            s.name.removeprefix("engine."): s.duration
            for s in tel.tracer.spans()
            if s.name.startswith("engine.") and s.name != "engine.run"
        }
        assert result.stage_seconds == pytest.approx(stage_spans)
        (root,) = [s for s in tel.tracer.spans() if s.name == "engine.run"]
        assert result.elapsed_seconds == pytest.approx(root.duration)

    def test_no_telemetry_timings_still_populated(self, table):
        result = engine_run("burel", table, beta=2.0)
        assert set(result.stage_seconds) == {
            "prepare", "partition", "allocate", "materialize", "publish"
        }
        assert all(v >= 0 for v in result.stage_seconds.values())


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExport:
    def test_chrome_trace_shape(self):
        tel = Telemetry(enabled=True)
        with tel.span("root", key="val"):
            with tel.span("child"):
                pass
        events = tel.chrome_trace()
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        by_name = {e["name"]: e for e in events}
        assert by_name["root"]["args"] == {"key": "val"}
        # ts rebases to the earliest span.
        assert min(e["ts"] for e in events) == 0

    def test_open_spans_excluded_from_chrome_trace(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        assert chrome_trace(tracer.export()) == []
        span.__exit__(None, None, None)
        assert len(chrome_trace(tracer.export())) == 1

    def test_trace_file_round_trip(self, tmp_path, table):
        tel = Telemetry(enabled=True)
        with Dataset(table, telemetry=tel) as ds:
            ds.anonymize("burel", beta=2.0, workers=2, shards=2)
        tel.count("custom.counter", 7)
        path = tmp_path / "trace.json"
        written = write_trace(path, tel)
        loaded = load_trace(path)
        assert loaded == json.loads(json.dumps(written))  # valid JSON
        assert loaded["metrics"]["counters"]["custom.counter"] == 7
        # The exported span tree matches the programmatic snapshot.
        assert span_tree(loaded["spans"]) == tel.span_tree()
        assert len(loaded["traceEvents"]) == len(loaded["spans"])

    def test_format_report_and_stage_seconds(self):
        tel = Telemetry(enabled=True)
        with tel.span("work"):
            pass
        tel.count("hits", 3)
        tel.observe("lat", 0.25)
        report = tel.report()
        assert "work" in report and "hits = 3" in report and "lat" in report
        assert format_stage_seconds({"a": 0.5}) == "a=0.500s"
        assert format_report({"spans": [], "metrics": {}}) == (
            "(empty telemetry snapshot)"
        )


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


@pytest.fixture()
def served(tmp_path, table):
    result = engine_run("burel", table, beta=2.0)
    store = PublicationStore(tmp_path / "store")
    record = store.put(
        result.published, requirement={"beta": 2.0},
        algorithm="burel", params=result.params,
    )
    return store, record, result


class TestServiceTelemetry:
    def test_stats_snapshot_is_deep_copy(self, served, workload):
        store, record, _ = served
        with QueryService(store, workers=1) as service:
            service.answer(record.pub_id, workload)
            snap = service.stats_snapshot()
            snap["served_by_backend"]["ec"] = 999
            snap["requests"] = 999
            fresh = service.stats_snapshot()
        assert fresh["served_by_backend"].get("ec", 0) != 999
        assert fresh["requests"] == len(workload)

    def test_stats_attribute_view(self, served, workload):
        store, record, _ = served
        with QueryService(store, workers=1) as service:
            service.answer(record.pub_id, workload)
            snap = service.stats_snapshot()
            assert snap["requests"] == len(workload)
            assert snap["batches"] >= 1
            assert snap["served_by_backend"].get("ec", 0) >= 1

    def test_enabled_service_counts_into_session_registry(
        self, served, workload
    ):
        store, record, _ = served
        tel = Telemetry(enabled=True)
        with QueryService(store, workers=1, telemetry=tel) as service:
            service.answer(record.pub_id, workload)
        metrics = tel.metrics.snapshot()
        assert metrics["counters"]["service.requests"] == len(workload)
        hists = metrics["histograms"]
        assert hists["service.queue_wait"]["count"] == len(workload)
        assert hists["service.request_seconds"]["count"] == len(workload)
        assert hists["service.batch_size"]["count"] >= 1
        serve_keys = [k for k in hists if k.startswith("service.serve_seconds.")]
        assert serve_keys
        assert any(s.name == "serve.batch" for s in tel.tracer.spans())

    def test_aggregate_serving_matches_direct_kernels(
        self, served, workload, table
    ):
        store, record, result = served
        with QueryService(store, workers=2) as service:
            sums = service.answer_aggregate(record.pub_id, workload, 0, "sum")
            avgs = service.answer_aggregate(record.pub_id, workload, 1, "avg")
            counts = service.answer(record.pub_id, workload)
        direct_sum = batch_aggregate_estimates(
            table, {"p": result.published}, workload, 0, "sum"
        )["p"]
        direct_avg = batch_aggregate_estimates(
            table, {"p": result.published}, workload, 1, "avg"
        )["p"]
        assert np.array_equal(sums, direct_sum)
        assert np.array_equal(avgs, direct_avg)
        assert len(counts) == len(workload)

    def test_aggregate_batches_keyed_separately(self, served, workload):
        store, record, _ = served
        with QueryService(store, workers=1, max_batch=1024) as service:
            futures = [
                service.submit(record.pub_id, q) for q in workload
            ] + [
                service.submit(record.pub_id, q, aggregate=(0, "sum"))
                for q in workload
            ]
            for f in futures:
                f.result()
            snap = service.stats_snapshot()
        # COUNT and SUM requests never share a batch.
        assert snap["batches"] >= 2
        assert snap["requests"] == 2 * len(workload)

    def test_aggregate_op_validated_at_submit(self, served, workload):
        store, record, _ = served
        with QueryService(store, workers=1) as service:
            with pytest.raises(ValueError, match="aggregate op"):
                service.submit(
                    record.pub_id, workload[0], aggregate=(0, "median")
                )


class TestCacheTelemetry:
    def test_hit_miss_evict_counts(self, table):
        from repro.api.cache import ArtifactCache

        tel = Telemetry(enabled=True)
        cache = ArtifactCache(max_bytes=1, telemetry=tel)
        cache.get_or_build(("prepared", "k1"), lambda: np.zeros(8))
        cache.get_or_build(("prepared", "k1"), lambda: np.zeros(8))
        cache.get_or_build(("view", "k2"), lambda: np.zeros(8))
        counters = tel.metrics.snapshot()["counters"]
        assert counters["cache.miss.prepared"] == 1
        assert counters["cache.hit.prepared"] == 1
        assert counters["cache.miss.view"] == 1
        assert counters["cache.evict.prepared"] == 1
        gauges = tel.metrics.snapshot()["gauges"]
        assert gauges["cache.nbytes"] == 64

    def test_dataset_attaches_session_telemetry(self, table):
        tel = Telemetry(enabled=True)
        ds = Dataset(table, telemetry=tel)
        assert ds.telemetry() is tel
        assert ds.cache.telemetry is tel
        ds.hilbert_keys()
        counters = tel.metrics.snapshot()["counters"]
        assert counters["cache.miss.hilbert_keys"] == 1

    def test_append_records_carried_workloads(self, table, workload):
        """``facade.append`` records how many workloads' precise answers
        it carried, and the cache counts each carried entry per kind."""
        tel = Telemetry(enabled=True)
        ds = Dataset(table, telemetry=tel)
        ds.precise(workload)
        ds.precise(workload[:5])
        ds.append(table.subset(np.arange(30)))
        (span,) = [
            s for s in tel.tracer.spans() if s.name == "facade.append"
        ]
        assert span.attributes == {"rows": 30, "carried": 2}
        counters = tel.metrics.snapshot()["counters"]
        assert counters["cache.carry.precise"] == 2
        assert counters["cache.carry.encoded"] == 2
        assert counters["cache.carry.sa_distribution"] == 1

    def test_append_counts_invalidations_per_kind(self, table):
        """An append counts every entry it drops as
        ``cache.invalidate.<kind>``: the dirty shard's piece once, and
        the per-kind counts sum to the cache's own invalidation count."""
        tel = Telemetry(enabled=True)

        def invalidated():
            counters = tel.metrics.snapshot()["counters"]
            return {
                name: n for name, n in counters.items()
                if name.startswith("cache.invalidate.")
            }

        with Dataset(table, telemetry=tel) as ds:
            ds.anonymize("burel", beta=2.0, shards=3)
            first = next(iter(ds.version_state().plan))
            counts, total = invalidated(), ds.cache.stats()["invalidations"]
            ds.append(table.subset(first.rows[:20]))
            assert ds.version_state().dirty == {0}
            dropped = ds.cache.stats()["invalidations"] - total
        delta = {
            name: n - counts.get(name, 0) for name, n in invalidated().items()
        }
        assert delta["cache.invalidate.shard_run"] == 1
        assert sum(delta.values()) == dropped > 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestStatsCli:
    def test_stats_renders_trace_file(self, tmp_path, capsys):
        from repro.cli import run as cli_run

        tel = Telemetry(enabled=True)
        with tel.span("engine.run"):
            pass
        tel.count("cache.hit.view", 2)
        path = tmp_path / "trace.json"
        write_trace(path, tel)
        assert cli_run(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out and "cache.hit.view = 2" in out
        assert cli_run(["stats", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"][0]["name"] == "engine.run"
        assert payload["metrics"]["counters"]["cache.hit.view"] == 2

    def test_stats_missing_file(self, tmp_path, capsys):
        from repro.cli import run as cli_run

        assert cli_run(["stats", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err
