"""Shared machinery of the chain benchmark.

* :class:`Calibrator` — a fixed kernel timed before and after every
  set-up and round; timings are *host-adjusted* by it (raw seconds ×
  reference calibration ÷ the mean of the calibrations on either side),
  so a slower or busier host does not read as a regression.
* :class:`Spans` — benchmark-side spans around each public call into a
  layer, kept in memory and written as one trace file at exit; per-layer
  metrics are their self times.
* :class:`Bench` — repeated set-ups, one discarded warm-up round, the
  timed rounds, and the reduction of all of them to metrics.

Only numpy and the standard library are imported here, so the harness
(and the calibration) never depend on the code being measured.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import queue
import resource
import statistics
import threading
import time
import zlib
from collections import defaultdict
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: all of them (perfbench/README.md defines each per workload); an "op"
#: is one release, one serve request (one ``answer``/``answer_aggregate``
#: call) or one refresh round.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}

#: Per-layer metrics: name -> (unit, better, what should move, workloads).
#: Timings are per-round medians of host-adjusted span self time; a layer
#: a workload does not exercise reports 0.
PER_LAYER = {
    "hilbert.encode_s": ("s", "lower", "op_p50_ms", "release"),
    "engine.burel_s": ("s", "lower", "op_p50_ms", "release"),
    "engine.allocate_s": ("s", "lower", "op_p50_ms", "release, refresh"),
    "engine.publish_s": ("s", "lower", "op_p50_ms", "release, refresh"),
    "engine.perturb_s": ("s", "lower", "op_p50_ms", "release"),
    "engine.classes": ("count", "higher", "none (output shape)", "release, refresh"),
    "audit.audit_s": ("s", "lower", "op_p50_ms", "release"),
    "service.store_put_s": ("s", "lower", "op_p50_ms", "release, refresh"),
    "service.store_get_s": ("s", "lower", "op_p50_ms", "release"),
    "service.store_mb": ("MB", "lower", "none (disk footprint)", "all"),
    "query.evaluate_s": ("s", "lower", "op_p50_ms", "release, refresh"),
    "service.cube_s": ("s", "lower", "op_p50_ms, throughput_per_s", "serve"),
    "service.ec_s": ("s", "lower", "throughput_per_s", "serve"),
    "service.bitmap_s": ("s", "lower", "op_tail_ms, throughput_per_s", "serve"),
    "service.batches": ("count", "lower", "throughput_per_s", "serve"),
    "service.batch_size": ("queries", "higher", "throughput_per_s", "serve"),
    "service.cube_fallbacks": ("count", "lower", "op_tail_ms", "serve"),
    "service.queue_wait_p99_ms": ("ms", "lower", "op_tail_ms", "serve"),
    "api.append_s": ("s", "lower", "op_p50_ms", "refresh"),
    "api.refresh_s": ("s", "lower", "op_p50_ms", "refresh"),
    "api.reused_shards": ("count", "higher", "op_p50_ms", "refresh"),
    "api.recomputed_rows": ("count", "lower", "op_p50_ms", "refresh"),
    "api.cache_mb": ("MB", "lower", "peak_rss_mb", "release, refresh, serve"),
    "api.cache_hit_ratio": ("fraction", "higher", "op_p50_ms", "release, refresh, serve"),
    "parallel.baseline_s": ("s", "lower", "setup_s", "refresh"),
    "host.calib_s": ("s", "lower", "none (records host drift)", "all"),
    "host.round_raw_s": ("s", "lower", "none (unadjusted round time)", "all"),
    "round.unattributed_s": ("s", "lower", "op_p50_ms", "all"),
    # The end-to-end metrics measured with tracing on; minus the untraced
    # run's values they give the tracing overhead.
    **{
        f"traced.{name}": (unit, better, name, "all")
        for name, (unit, better) in END_TO_END.items()
    },
}

#: Benchmark span names whose per-round self time is the per-layer
#: metric ``<name>_s``.
SPAN_LAYERS = (
    "hilbert.encode", "engine.burel", "engine.perturb", "audit.audit",
    "service.store_put", "service.store_get", "query.evaluate",
    "service.cube", "service.ec", "service.bitmap",
    "api.append", "api.refresh",
)


def host_facts() -> dict:
    """What the numbers were measured on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_child_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    The shared-memory transport of sharded runs starts multiprocessing's
    resource tracker, which would otherwise outlive the run until it
    notices that its parent has gone; it is stopped and reaped here.  It
    ends only once every process holding its pipe has, so pool workers
    that a failed op left running are terminated first.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------


class Calibrator:
    """A fixed kernel with the chain's instruction mix, timed on demand.

    int64 shifts, xors and masks (Hilbert encoding), a stable argsort of
    a million keys (bucketizing, retrieval, shard planning), a gather
    plus bincount/cumsum (SA histograms, prefix-sum cubes), zlib over
    2 MB of random bytes (branchy byte-level native code) and a short
    interpreted loop; about 0.3 s.  The argsort and zlib dominate on
    purpose: of seven candidate kernels timed beside 40 release rounds,
    that pair tracked the rounds' host-speed drift best.  The inputs are
    fixed, never derived from ``--seed``.

    ``threads`` copies of the kernel run at once, one per CPU the
    workload keeps busy, and with more than one thread a ping-pong of
    ``handoffs`` future round trips between two threads follows —
    the submit/wake/reply pattern of a threaded service, whose latency
    grew 2× during host contention that compute alone barely showed.
    """

    LOOP = 20_000

    def __init__(
        self, rows: int = 1_000_000, threads: int = 1, handoffs: int = 3_000
    ):
        self.handoffs = handoffs
        rng = np.random.default_rng(20_120_705)
        self._keys = rng.integers(0, 1 << 40, size=rows, dtype=np.int64)
        self._codes = rng.integers(0, 64, size=rows, dtype=np.int64)
        self._blob = rng.bytes(2 * rows)
        self._buffers = [
            (
                np.empty(rows, dtype=np.int64),
                np.empty(rows, dtype=np.int64),
                np.empty(64, dtype=np.int64),
            )
            for _ in range(threads)
        ]

    def _kernel(self, mixed, picked, cum) -> int:
        np.right_shift(self._keys, 3, out=mixed)
        np.bitwise_xor(mixed, self._keys, out=mixed)
        np.bitwise_and(mixed, (1 << 36) - 1, out=mixed)
        order = np.argsort(mixed, kind="stable")
        np.take(self._codes, order, out=picked)
        np.cumsum(np.bincount(picked, minlength=64), out=cum)
        packed = zlib.compress(self._blob, 6)
        total = 0
        for i in range(self.LOOP):
            total += (i * 7) & 15
        return total + int(cum[-1]) + len(packed)

    def _handoffs(self) -> None:
        inbox: "queue.SimpleQueue[Future | None]" = queue.SimpleQueue()

        def echo() -> None:
            while (future := inbox.get()) is not None:
                future.set_result(None)

        peer = threading.Thread(target=echo)
        peer.start()
        try:
            for _ in range(self.handoffs):
                future = Future()
                inbox.put(future)
                future.result(timeout=60)
        finally:
            inbox.put(None)
            peer.join()

    def measure(self) -> float:
        gc.collect()
        others = [
            threading.Thread(target=self._kernel, args=buffers)
            for buffers in self._buffers[1:]
        ]
        start = time.perf_counter()
        for thread in others:
            thread.start()
        self._kernel(*self._buffers[0])
        for thread in others:
            thread.join()
        if others:
            self._handoffs()
        return time.perf_counter() - start


# ----------------------------------------------------------------------
# Benchmark-side spans
# ----------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("spans", "name", "record", "stack")

    def __init__(self, spans: "Spans", name: str):
        self.spans = spans
        self.name = name

    def __enter__(self):
        spans = self.spans
        stack = spans._stack()
        parent = stack[-1] if stack else spans._round_span
        with spans._lock:
            spans._next_id += 1
            span_id = spans._next_id
        self.stack = stack
        self.record = {
            "id": span_id,
            "name": self.name,
            "parent": parent,
            "round": spans._round_id,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(span_id)
        return self

    def __exit__(self, *exc_info) -> bool:
        self.record["end"] = time.perf_counter()
        self.stack.pop()
        with self.spans._lock:
            self.spans.records.append(self.record)
        return False


class Spans:
    """In-memory spans: name, start, end, parent, and one id per round.

    Disabled, :meth:`span` hands out one shared no-op context manager.
    Enabled, parents come from a per-thread stack whose bottom is the
    open round span, so requests issued on client threads nest under the
    round that issued them.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._round_id: "str | None" = None
        self._round_span: "int | None" = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name) if self.enabled else NULL_SPAN

    def open_round(self, round_id: str):
        """Open the span every span of one round nests under."""
        if not self.enabled:
            return NULL_SPAN
        self._round_id = round_id
        span = _Span(self, "round")
        span.__enter__()
        self._round_span = span.record["id"]
        return span

    def close_round(self, span) -> None:
        if self.enabled:
            span.__exit__(None, None, None)
            self._round_id = None
            self._round_span = None

    def self_times(self) -> "dict[int, float]":
        """Span id -> duration minus the union of its children."""
        children = defaultdict(list)
        for record in self.records:
            if record["parent"] is not None:
                children[record["parent"]].append(
                    (record["start"], record["end"])
                )
        out = {}
        for record in self.records:
            start, end = record["start"], record["end"]
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(record["id"], ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[record["id"]] = (end - start) - covered
        return out

    def by_round(self) -> "dict[str, dict[str, float]]":
        """Round id -> span name -> summed self seconds (raw)."""
        selfs = self.self_times()
        out: dict = defaultdict(lambda: defaultdict(float))
        for record in self.records:
            out[record["round"]][record["name"]] += selfs[record["id"]]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """One Chrome trace-event file (Perfetto / chrome://tracing)."""
        if not self.records:
            return
        origin = min(r["start"] for r in self.records)
        events = [
            {
                "name": r["name"],
                "ph": "X",
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": os.getpid(),
                "tid": r["thread"],
                "args": {
                    "id": r["id"], "parent": r["parent"], "round": r["round"],
                },
            }
            for r in sorted(self.records, key=lambda r: r["start"])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": meta}))


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


@dataclass
class Round:
    """One timed round (index -1 is the discarded warm-up).

    ``latencies`` holds the raw seconds of every op that succeeded;
    ``work`` counts the units ``throughput_per_s`` is made of; ``layer``
    holds per-round per-layer values the program reports itself (stage
    seconds, counts).
    """

    index: int
    spans: Spans
    raw_s: float = 0.0
    factor: float = 1.0  # reference ÷ the calibrations beside this round
    latencies: list = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    layer: dict = field(default_factory=dict)

    @property
    def round_id(self) -> str:
        return "warmup" if self.index < 0 else f"round{self.index}"

    def timed(self):
        """Context manager timing the round's measured window."""
        return _Timed(self)

    def op(self, latency: float, ok: bool, work: int = 1) -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            self.work += work
        else:
            self.failed += 1

    def retract(self, work: int = 1) -> None:
        """Count the last successful op as failed: a check that could only
        run after the timed rounds found its output wrong."""
        self.latencies.pop()
        self.work -= work
        self.failed += 1


class _Timed:
    def __init__(self, rnd: Round):
        self.rnd = rnd

    def __enter__(self):
        self.span = self.rnd.spans.open_round(self.rnd.round_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.rnd.raw_s = time.perf_counter() - self.start
        self.rnd.spans.close_round(self.span)
        return False


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Bench:
    """Set-ups, warm-up, timed rounds and their reduction to metrics.

    The calibration kernel runs once in every gap between set-ups and
    rounds, so each set-up or round is bracketed by two calibrations;
    its timings are adjusted by their mean.  The host's speed drifts
    within a run as well as between runs (serve rounds a few seconds
    apart differed by 25% raw), so each round gets its own factor.

    Args:
        trace: Record benchmark spans (the per-layer run).
        rounds: How many timed rounds to run after the warm-up; a fixed
            count, so every run of a workload does the same work.
        setups: How many times to run the set-up; ``setup_s`` is the
            median.
        calib_rows: Size of the calibration kernel.
        calib_handoffs: Thread round trips after a multi-threaded
            calibration (see :class:`Calibrator`).
        calib_threads: Copies of the kernel run at once (see
            :class:`Calibrator`).
        reference_calib_s: The reference host's calibration; adjusted
            time = raw × reference ÷ the mean calibration beside it.
    """

    def __init__(
        self,
        *,
        trace: bool,
        rounds: int,
        setups: int,
        calib_rows: int,
        calib_handoffs: int,
        calib_threads: int,
        reference_calib_s: float,
    ):
        self.trace = trace
        self.n_rounds = rounds
        self.n_setups = setups
        self.calibrator = Calibrator(calib_rows, calib_threads, calib_handoffs)
        self.reference = reference_calib_s
        self.spans = Spans(trace)
        self.setup_runs: list[Round] = []
        self.rounds: list[Round] = []
        self.warmup: "Round | None" = None
        self.calibrations: list[float] = []
        self.layer: dict = {}  # run-level per-layer values

    def calibrate(self, rnd: "Round | None" = None) -> None:
        """Time the kernel; with ``rnd``, set its factor from this and the
        previous calibration."""
        before = self.calibrations[-1] if self.calibrations else None
        self.calibrations.append(self.calibrator.measure())
        if rnd is not None:
            rnd.factor = self.reference / ((before + self.calibrations[-1]) / 2)

    def setup(self, build, close):
        """Run ``build()`` ``setups`` times, timing each; returns the last
        state and passes the others to ``close``."""
        state = None
        self.calibrate()
        for k in range(self.n_setups):
            if state is not None:
                close(state)
                state = None
                gc.collect()
            rnd = Round(index=k, spans=self.spans)
            self.spans._round_id = f"setup{k}"
            start = time.perf_counter()
            state = build()
            rnd.raw_s = time.perf_counter() - start
            self.spans._round_id = None
            self.calibrate(rnd)
            self.setup_runs.append(rnd)
        return state

    def iter_rounds(self):
        """Yield the warm-up round, then the timed rounds, calibrating
        after each.  A round is recorded before it is yielded, so the ops
        of a round the caller leaves with ``break`` still count."""
        for index in range(-1, self.n_rounds):
            rnd = Round(index=index, spans=self.spans)
            if index < 0:
                self.warmup = rnd
            else:
                self.rounds.append(rnd)
            yield rnd
            self.calibrate(rnd)

    # -- reduction -----------------------------------------------------

    @property
    def attempted(self) -> int:
        runs = self.rounds + ([self.warmup] if self.warmup else [])
        return sum(r.attempted for r in runs)

    @property
    def failed(self) -> int:
        runs = self.rounds + ([self.warmup] if self.warmup else [])
        return sum(r.failed for r in runs)

    def latencies(self) -> np.ndarray:
        """Host-adjusted seconds of every successful timed op."""
        return np.array(
            [lat * r.factor for r in self.rounds for lat in r.latencies],
            dtype=np.float64,
        )

    def end_to_end(self) -> "dict[str, tuple[float, int, str]]":
        """Metric -> (value, sample count, what the samples are)."""
        lat = self.latencies()
        n = int(lat.size)
        tail_q = 100.0 * max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 50.0
        adjusted_round_s = sum(r.raw_s * r.factor for r in self.rounds)
        work = sum(r.work for r in self.rounds)
        setups = [r.raw_s * r.factor for r in self.setup_runs]
        return {
            "setup_s": (_median(setups), len(setups), "set-ups"),
            "peak_rss_mb": (peak_rss_mb(), 1, "process"),
            "op_p50_ms": (
                float(np.median(lat)) * 1e3 if n else 0.0, n, "ops",
            ),
            "op_tail_ms": (
                float(np.percentile(lat, tail_q)) * 1e3 if n else 0.0, n,
                f"ops, p{tail_q:g}",
            ),
            "throughput_per_s": (
                work / adjusted_round_s if adjusted_round_s else 0.0,
                len(self.rounds), "rounds",
            ),
        }

    def per_layer(self) -> "dict[str, float]":
        """Every per-layer metric except ``traced.*``."""
        out = {name: 0.0 for name in PER_LAYER if not name.startswith("traced.")}
        by_round = self.spans.by_round()
        for layer in SPAN_LAYERS:
            values = [
                by_round.get(r.round_id, {}).get(layer, 0.0) * r.factor
                for r in self.rounds
            ]
            out[f"{layer}_s"] = _median(values)
        out["round.unattributed_s"] = _median(
            by_round.get(r.round_id, {}).get("round", 0.0) * r.factor
            for r in self.rounds
        )
        out["parallel.baseline_s"] = _median(
            by_round.get(f"setup{r.index}", {}).get("parallel.baseline", 0.0)
            * r.factor
            for r in self.setup_runs
        )
        keys = {key for r in self.rounds for key in r.layer}
        for key in keys:
            scale = key.endswith("_s")
            out[key] = _median(
                r.layer.get(key, 0.0) * (r.factor if scale else 1.0)
                for r in self.rounds
            )
        out.update(self.layer)
        out["host.calib_s"] = _median(self.calibrations)
        out["host.round_raw_s"] = _median(r.raw_s for r in self.rounds)
        unknown = set(out) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
        return out
