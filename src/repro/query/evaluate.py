"""Batched evaluation of COUNT, SUM and AVG workloads (§6.2–6.3, Figs. 8–9).

The paper's utility experiments answer thousands of COUNT queries per
sweep point, and the per-query path rebuilds an O(n) row mask for every
(query, estimator) pair and recomputes identical precise answers at
every sweep point that shares a workload.  This module evaluates the
whole workload as array operations:

* the workload is encoded once as dense bound arrays
  (:class:`~repro.query.workload.EncodedWorkload`);
* a per-table **range-bitmap index** (:class:`RangeBitmapIndex`) stores,
  for every column value ``v``, packed row bitmaps of ``col <= v`` and
  ``col >= v`` — the membership bitmap of any range predicate is then a
  single AND of two stored rows, and a precise COUNT answer is ``λ + 1``
  ANDs plus a popcount, independent of how many rows match (the
  data-skipping idea of Niu et al. applied to workload evaluation);
* a table whose index would exceed its byte budget gets a
  **zone-mapped block scan** (:class:`ZoneMapScan`) instead: rows in
  Morton order, cut into blocks with QI min/max zone maps and
  cumulative SA counts, so a query counts the blocks inside its box,
  skips the disjoint ones and compares rows only where its box
  boundary cuts a block;
* every estimator answering the same workload shares that one QI-mask
  source, and the bitmap regime turns a whole block of queries' masks
  into every estimator's histograms in one pass
  (:meth:`TableMaskEngine.histograms`) instead of reducing each query's
  mask on its own;
* given a session's :class:`~repro.api.ArtifactCache` (``artifacts=``),
  the encoded workload, the mask engine and the precise answers are
  content-keyed there, so sweep points that reuse a workload (Fig. 8(b)'s
  β sweep, Fig. 9(b)) pay for them once; without one, nothing outlives
  the call.

**One answering seam.**  :func:`answer_batch` answers COUNT, SUM and
AVG for all four publication kinds; :func:`batch_estimates` and
:func:`~repro.query.aggregates.batch_aggregate_estimates` are its thin
entry points, and the query service calls it directly.  COUNT is SUM
with unit weights, and AVG is SUM ÷ COUNT.  Per kind the estimate is
one functional of a per-query histogram — perturbed: weight rows ×
perturbed-SA histogram; Anatomy: fraction rows × group histogram;
Baseline: SA mass × QI-match size — while generalized publications go
to their EC kernel (:meth:`~repro.query.answer.GeneralizedAnswerer.batch`).
Each kind names its histogram's row codes (perturbed SA values, group
ids, none for the Baseline) and width, and the histogram comes from a
cube or from the bitmap engine's one pass: a ``flatnonzero`` over a
query block's QI masks gives its (query, row) pairs, and one
``bincount`` over ``query × width + code`` per kind, counted or
measure-weighted, gives the block's ``(Q, width)`` histograms.  Precise
answers take the same route (:func:`answer_precise_batch`): SUM through
the pass over the SA codes, COUNT — like a Baseline COUNT's QI-match
sizes — through the popcount kernel.

All batch estimates are **bit-identical** to the scalar per-query
answerers — the batch kernels perform the same numpy operation
sequences, only amortizing the Python-level dispatch — so migrating an
experiment onto :func:`evaluate_workload` cannot change its numbers.

**Backends.**  The bitmap engine above is one backend, and
:mod:`repro.query.cube` provides a second — precomputed d-dimensional
prefix-sum cubes that turn any range COUNT or SUM into ``2^d`` array
lookups.  Every entry point accepts ``backend="auto" | "cube" |
"bitmap"``, resolved by :func:`resolve_cube`: ``auto`` serves from a
cube already attached to the publication (a store admission built it)
or cached, ``cube`` builds one on demand within
:data:`~repro.query.cube.DEFAULT_CUBE_BUDGET`, and both fall back to
this module's bitmap engine — with bit-identical answers — when the
domain exceeds the budget.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..anonymity.anatomy import AnatomyTable, BaselinePublication
from ..core.perturb import PerturbedTable
from ..dataset.published import GeneralizedTable
from ..dataset.table import Table
from ..io import table_digest
from ..metrics.errors import ErrorProfile, error_profile
from .answer import (
    AnatomyAnswerer,
    BaselineAnswerer,
    GeneralizedAnswerer,
    PerturbedAnswerer,
)
from .cube import build_count_cube, build_table_cube
from .workload import CountQuery, EncodedWorkload, QueryTuple

#: Default byte budget for a table's range-bitmap index; tables whose
#: summed column domains would exceed it get a :class:`ZoneMapScan`
#: (same results, a few bytes per row).
DEFAULT_INDEX_BUDGET = 128 * 2**20

#: Cells (queries × rows, or × histogram width where wider) of one
#: materialized QI-mask block in the histogram pass.
_PASS_CELLS = 2**21

#: (query, row) pairs one histogram pass gathers at once (≈32 bytes
#: each at peak), or one query's pairs where that is more; with
#: :data:`_PASS_CELLS` it bounds the pass's working set.
_PASS_PAIRS = 2**18

#: Queries per packed-bitmap chunk; small chunks keep the AND/popcount
#: working set inside the CPU cache.
_BIT_CHUNK = 128


if hasattr(np, "bitwise_count"):

    def _popcount_rows(packed: np.ndarray) -> np.ndarray:
        """Per-row popcount of a packed (C, width) uint8 bitmap."""
        return np.bitwise_count(packed.view(np.uint64)).sum(
            axis=1, dtype=np.int64
        )

else:  # pragma: no cover - numpy < 2.0 fallback
    _POPCOUNT8 = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1)

    def _popcount_rows(packed: np.ndarray) -> np.ndarray:
        return _POPCOUNT8[packed].sum(axis=1, dtype=np.int64)


class RangeBitmapIndex:
    """Packed cumulative range bitmaps over a table's QI and SA columns.

    For column ``c`` with domain ``[lo, hi]`` the index stores
    ``le[k] = bitmap(c <= lo + k - 1)`` and ``ge[k] = bitmap(c >= lo + k)``
    as packed uint8 rows, so ``bitmap(a <= c <= b)`` is
    ``le[b - lo + 1] & ge[a - lo]`` — two gathers and one AND, whatever
    the range.  Rows are padded to a multiple of 8 bytes (pad bits are
    zero) so popcounts can run over a uint64 view.

    Memory is ``2 * (Σ domain sizes) * ceil(n / 64) * 8`` bytes — a few
    MB for the CENSUS tables; :meth:`estimate_bytes` lets callers guard
    against large-domain schemas.
    """

    def __init__(self, table: Table):
        self.n_rows = table.n_rows
        self.width = ((table.n_rows + 63) // 64) * 8
        self._qi = [
            (self._build(table.qi[:, j], attr.lo, attr.hi), attr.lo)
            for j, attr in enumerate(table.schema.qi)
        ]
        self._sa = self._build(table.sa, 0, table.sa_cardinality - 1)
        ones = np.zeros((1, self.width), dtype=np.uint8)
        ones[0, : (self.n_rows + 7) // 8] = np.packbits(
            np.ones(self.n_rows, dtype=bool)
        )
        self._all_rows = ones

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed bitmaps (equals :meth:`estimate_bytes`)."""
        bitmaps = [le_ge for le_ge, _ in self._qi] + [self._sa]
        return self._all_rows.nbytes + sum(
            le.nbytes + ge.nbytes for le, ge in bitmaps
        )

    @staticmethod
    def estimate_bytes(table: Table) -> int:
        """Index size for ``table`` without building it."""
        width = ((table.n_rows + 63) // 64) * 8
        domains = sum(attr.hi - attr.lo + 1 for attr in table.schema.qi)
        domains += table.sa_cardinality
        columns = table.schema.n_qi + 1
        return (2 * (domains + columns) + 1) * width

    def _build(
        self, col: np.ndarray, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(le, ge)`` packed bitmaps for one column, built in blocks."""
        domain = hi - lo + 1
        packed_cols = (self.n_rows + 7) // 8
        le = np.zeros((domain + 1, self.width), dtype=np.uint8)
        ge = np.zeros((domain + 1, self.width), dtype=np.uint8)
        for start in range(0, domain + 1, 128):
            stop = min(start + 128, domain + 1)
            le_thresholds = lo - 1 + np.arange(start, stop)
            le[start:stop, :packed_cols] = np.packbits(
                col[None, :] <= le_thresholds[:, None], axis=1
            )
            ge_thresholds = lo + np.arange(start, stop)
            ge[start:stop, :packed_cols] = np.packbits(
                col[None, :] >= ge_thresholds[:, None], axis=1
            )
        return le, ge

    # ------------------------------------------------------------------
    # Packed-bitmap kernels over an encoded workload
    # ------------------------------------------------------------------

    def _and_qi_bands(
        self, acc: np.ndarray, enc: EncodedWorkload, start: int, stop: int
    ) -> None:
        """AND every constrained QI predicate's bitmap into ``acc``."""
        for dim, ((le, ge), lo) in enumerate(self._qi):
            rows = np.flatnonzero(enc.constrained[start:stop, dim])
            if rows.size == 0:
                continue
            hi_idx = enc.qi_hi[start:stop][rows, dim] - lo + 1
            lo_idx = enc.qi_lo[start:stop][rows, dim] - lo
            acc[rows] &= le[hi_idx] & ge[lo_idx]

    def qi_bits(
        self, enc: EncodedWorkload, start: int, stop: int
    ) -> np.ndarray:
        """Packed QI-only masks for queries ``start:stop``."""
        acc = np.repeat(self._all_rows, stop - start, axis=0)
        self._and_qi_bands(acc, enc, start, stop)
        return acc

    def query_bits(
        self, enc: EncodedWorkload, start: int, stop: int
    ) -> np.ndarray:
        """Packed full-predicate (QI ∧ SA) masks for ``start:stop``."""
        le, ge = self._sa
        acc = le[enc.sa_hi[start:stop] + 1] & ge[enc.sa_lo[start:stop]]
        self._and_qi_bands(acc, enc, start, stop)
        return acc

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Boolean (C, n_rows) masks from packed rows."""
        return np.unpackbits(
            packed[:, : (self.n_rows + 7) // 8], axis=1, count=self.n_rows
        ).view(bool)


def _morton_keys(offsets: np.ndarray, domains: Sequence[int]) -> np.ndarray:
    """Z-order keys of ``(n, d)`` non-negative offsets into ``domains``.

    Each column's bits are interleaved from its most significant bit
    down, so every dimension splits at the top level whatever its
    domain size; at most ``64 // d`` (and 16) leading bits of a column
    take part.  One small lookup table per column spreads its bits to
    their key positions, so a key costs ``d`` gathers.
    """
    n, d = offsets.shape
    if d == 0:
        return np.zeros(n, dtype=np.uint64)
    widths = [max(1, int(size - 1).bit_length()) for size in domains]
    used = [min(width, 64 // d, 16) for width in widths]
    top = max(used)
    positions: list[list[int]] = [[] for _ in range(d)]
    position = sum(used)
    for level in range(top - 1, -1, -1):
        for dim in range(d):
            if level >= top - used[dim]:
                position -= 1
                positions[dim].append(position)
    dtype = np.uint32 if sum(used) <= 32 else np.uint64
    keys = np.zeros(n, dtype=dtype)
    for dim in range(d):
        values = np.arange(2 ** used[dim], dtype=np.int64)
        spread = np.zeros(values.size, dtype=dtype)
        for bit, position in enumerate(reversed(positions[dim])):
            spread |= ((values >> bit) & 1).astype(dtype) << dtype(position)
        keys |= spread[offsets[:, dim] >> (widths[dim] - used[dim])]
    return keys


#: Rows per block of a :class:`ZoneMapScan`.  On a 402K-row, three-QI
#: table, 128 to 512 answered within noise of each other; 64 and 1024
#: were slower.
_SCAN_BLOCK = 256

#: Rows one pass over straddling blocks compares at once; bounds the
#: scan's working set.
_SCAN_ROWS = 2**15

#: Cells of one (queries × blocks) zone classification.
_ZONE_CELLS = 2**20


class ZoneMapScan:
    """Zone-mapped row blocks answering ranges over a whole table.

    Rows are sorted by the Morton keys of their QI offsets — computed
    from the table alone in ≈10 ms at 402K rows, where uncached Hilbert
    keys take ≈0.45 s — and cut into blocks of :data:`_SCAN_BLOCK`
    rows.  Each block keeps per-QI min/max zone maps and cumulative SA
    counts, so a range query counts the blocks wholly inside its QI box
    from those counts, skips the disjoint ones, and compares rows only
    in blocks straddling its boundary (zone maps in the sense of Niu et
    al.'s data skipping).
    The row arrays are stored in block order as narrow offset copies;
    the last block is padded with each dtype's maximum, which no bound
    of a query overlapping that block reaches.

    Memory (``nbytes``) is an 8-byte rank plus one narrow copy of each
    column per row — 15 bytes for three 512-value QIs and a 32-value
    SA — against the range-bitmap index's ``Σ domains / 4``.
    """

    def __init__(self, table: Table):
        schema = table.schema
        n, d = table.n_rows, schema.n_qi
        m = table.sa_cardinality
        self.lows = np.array([attr.lo for attr in schema.qi], dtype=np.int64)
        domains = [attr.hi - attr.lo + 1 for attr in schema.qi]
        offsets = table.qi - self.lows
        order = np.argsort(_morton_keys(offsets, domains))
        n_blocks = -(-n // _SCAN_BLOCK)
        padded = n_blocks * _SCAN_BLOCK
        #: Block-order position of every table row (masks gather by it).
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = np.arange(n)

        def blocked(column: np.ndarray, limit: int) -> np.ndarray:
            dtype = np.min_scalar_type(limit)  # unsigned, max >= limit
            out = np.full(padded, np.iinfo(dtype).max, dtype=dtype)
            out[:n] = column[order]
            return out.reshape(n_blocks, _SCAN_BLOCK)

        #: Per QI, (blocks, rows) offsets from the domain low.
        self.qi = [blocked(offsets[:, j], domains[j]) for j in range(d)]
        #: (blocks, rows) SA codes.
        self.sa = blocked(table.sa, m)
        #: (d, blocks) zone maps: each block's min/max QI offset.
        self.zone_lo = np.empty((d, n_blocks), dtype=np.int64)
        self.zone_hi = np.empty((d, n_blocks), dtype=np.int64)
        starts = np.arange(0, n, _SCAN_BLOCK)
        for j, column in enumerate(self.qi):
            rows = column.reshape(-1)[:n]
            self.zone_lo[j] = np.minimum.reduceat(rows, starts)
            self.zone_hi[j] = np.maximum.reduceat(rows, starts)
        #: (m + 1, blocks) cumulative SA counts: row ``k`` counts each
        #: block's rows with an SA code below ``k``.
        self.sa_cum = np.zeros((m + 1, n_blocks), dtype=np.int16)
        codes = np.arange(n) // _SCAN_BLOCK * m
        codes += self.sa.reshape(-1)[:n]
        counts = np.bincount(codes, minlength=n_blocks * m)
        counts = counts.reshape(n_blocks, m)
        np.cumsum(counts.T, axis=0, out=self.sa_cum[1:])

    @property
    def nbytes(self) -> int:
        arrays = [*self.qi, self.sa, self.zone_lo, self.zone_hi,
                  self.sa_cum, self.rank, self.lows]
        return sum(a.nbytes for a in arrays)

    @property
    def n_blocks(self) -> int:
        return self.sa.shape[0]

    def _zones(self, enc: EncodedWorkload, start: int, stop: int):
        """Zone classification of queries ``start:stop``.

        Returns their QI offset bounds, the dimensions any of them
        constrains, and (C, blocks) bools of the blocks wholly inside /
        straddling each query's QI box; blocks in neither are disjoint.
        """
        lo = enc.qi_lo[start:stop] - self.lows
        hi = enc.qi_hi[start:stop] - self.lows
        dims = np.flatnonzero(enc.constrained[start:stop].any(axis=0))
        inside = np.ones((stop - start, self.n_blocks), dtype=bool)
        touch = inside.copy()
        for dim in dims:
            q_lo = lo[:, dim, None]
            q_hi = hi[:, dim, None]
            z_lo = self.zone_lo[dim]
            z_hi = self.zone_hi[dim]
            inside &= z_lo >= q_lo
            inside &= z_hi <= q_hi
            touch &= z_hi >= q_lo
            touch &= z_lo <= q_hi
        return lo, hi, dims, inside, touch & ~inside

    def _straddled(self, straddle, lo, hi, dims):
        """``(queries, blocks, hit)`` per pass over the straddling pairs,
        ``hit`` the (P, rows) bools of which rows of each block lie in
        its query's QI box.  A pair's block overlaps its box, so the
        bounds lie inside the domain and fit each column's dtype; the
        padding rows exceed every such bound."""
        pairs, blocks = np.nonzero(straddle)
        per_pass = max(1, _SCAN_ROWS // _SCAN_BLOCK)
        for first in range(0, pairs.size, per_pass):
            q = pairs[first : first + per_pass]
            b = blocks[first : first + per_pass]
            hit = None
            for dim in dims:
                values = self.qi[dim][b]
                dtype = values.dtype
                term = values >= lo[q, dim, None].astype(dtype)
                term &= values <= hi[q, dim, None].astype(dtype)
                if hit is None:
                    hit = term
                else:
                    hit &= term
            yield q, b, hit

    def counts(self, enc: EncodedWorkload, sa: bool = True) -> np.ndarray:
        """Per-query row counts in the QI box, and with ``sa`` also in
        the SA range, as int64."""
        out = np.zeros(enc.n_queries, dtype=np.int64)
        step = max(1, _ZONE_CELLS // max(1, self.n_blocks))
        m = self.sa_cum.shape[0] - 1
        for start in range(0, enc.n_queries, step):
            stop = min(start + step, enc.n_queries)
            lo, hi, dims, inside, straddle = self._zones(enc, start, stop)
            if sa:
                sa_lo = enc.sa_lo[start:stop]
                sa_hi = enc.sa_hi[start:stop]
                in_range = self.sa_cum[sa_hi + 1] - self.sa_cum[sa_lo]
                straddle &= in_range > 0
            else:
                in_range = self.sa_cum[m] - self.sa_cum[0]
            chunk = out[start:stop]
            chunk += (inside * in_range).sum(axis=1, dtype=np.int64)
            for q, b, hit in self._straddled(straddle, lo, hi, dims):
                if sa:
                    values = self.sa[b]
                    dtype = values.dtype
                    hit &= values >= sa_lo[q, None].astype(dtype)
                    hit &= values <= sa_hi[q, None].astype(dtype)
                np.add.at(chunk, q, np.count_nonzero(hit, axis=1))
        return out

    def qi_masks(
        self, enc: EncodedWorkload, start: int, stop: int
    ) -> np.ndarray:
        """Boolean (stop-start, n_rows) QI masks, in table row order."""
        lo, hi, dims, inside, straddle = self._zones(enc, start, stop)
        in_blocks = np.zeros(inside.shape + (_SCAN_BLOCK,), dtype=bool)
        in_blocks[inside] = True
        for q, b, hit in self._straddled(straddle, lo, hi, dims):
            in_blocks[q, b] = hit
        return np.take(in_blocks.reshape(stop - start, -1), self.rank, axis=1)


class TableMaskEngine:
    """Per-table mask/count provider shared by all batch estimators.

    Uses a :class:`RangeBitmapIndex` when it fits ``index_budget`` and a
    :class:`ZoneMapScan` otherwise; both produce identical masks and
    counts.  The index answers a query in ``λ + 1`` ANDs over the whole
    table, so it wins while it fits; the scan costs a few bytes per row
    and touches only the rows of blocks a query's box straddles.
    """

    def __init__(
        self, table: Table, index_budget: int = DEFAULT_INDEX_BUDGET
    ):
        self.table = table
        self.index: RangeBitmapIndex | None = None
        self.scan: ZoneMapScan | None = None
        if RangeBitmapIndex.estimate_bytes(table) <= index_budget:
            self.index = RangeBitmapIndex(table)
        else:
            self.scan = ZoneMapScan(table)

    def precise(self, enc: EncodedWorkload) -> np.ndarray:
        """Exact COUNT answers for every query, as int64."""
        if self.index is None:
            return self.scan.counts(enc)
        out = np.empty(enc.n_queries, dtype=np.int64)
        for start in range(0, enc.n_queries, _BIT_CHUNK):
            stop = min(start + _BIT_CHUNK, enc.n_queries)
            out[start:stop] = _popcount_rows(
                self.index.query_bits(enc, start, stop)
            )
        return out

    def qi_counts(self, enc: EncodedWorkload) -> np.ndarray:
        """Per-query QI-match sizes (the Baseline's only mask need)."""
        if self.index is None:
            return self.scan.counts(enc, sa=False)
        out = np.empty(enc.n_queries, dtype=np.int64)
        for start in range(0, enc.n_queries, _BIT_CHUNK):
            stop = min(start + _BIT_CHUNK, enc.n_queries)
            out[start:stop] = _popcount_rows(
                self.index.qi_bits(enc, start, stop)
            )
        return out

    def qi_mask_block(
        self, enc: EncodedWorkload, start: int, stop: int
    ) -> np.ndarray:
        """Boolean (stop-start, n_rows) QI masks for a query block."""
        if self.index is None:
            return self.scan.qi_masks(enc, start, stop)
        return self.index.unpack(self.index.qi_bits(enc, start, stop))

    def histograms(
        self, enc: EncodedWorkload, kinds, measure: np.ndarray | None = None,
        weighted=None,
    ):
        """Histograms of row codes over the rows in each query's QI box.

        ``kinds`` is a sequence of ``(row_codes, width)``; a kind's
        histogram of a query counts its box's rows per code in
        ``[0, width)`` (``row_codes`` ``None`` and ``width`` 1: all rows
        in one bin), each row weighing its ``measure`` value where
        ``weighted`` (one flag per kind; default: every kind when a
        measure is given).  Yields ``(start, stop, histograms)``, one
        ``(stop - start, width)`` array per kind, over query blocks in
        order.

        One pass serves every kind: a ``flatnonzero`` over the block's
        masks gives its (query, row) pairs, one gather takes their
        measure, and per kind one gather of the codes and one
        ``bincount`` over ``query × width + code`` give the histograms;
        a kind with the same codes and width as the one before it reuses
        those bins, so an AVG's weighted and counted histograms cost one
        gather.  Counts and integer measure sums are exact, so the order
        of the pairs cannot change them.  A pass holds at most
        :data:`_PASS_CELLS` mask cells and :data:`_PASS_PAIRS` pairs
        (or one query's).
        """
        if weighted is None:
            weighted = [measure is not None] * len(kinds)
        same_bins = [
            i > 0 and kinds[i - 1][0] is codes and kinds[i - 1][1] == width
            for i, (codes, width) in enumerate(kinds)
        ]
        n = self.table.n_rows
        widest = max([n, *(width for _, width in kinds)])
        step = max(1, _PASS_CELLS // max(1, widest))
        for first in range(0, enc.n_queries, step):
            last = min(first + step, enc.n_queries)
            if self.index is None:
                masks = self.scan.qi_masks(enc, first, last)
                sizes = np.count_nonzero(masks, axis=1)
            else:
                packed = self.index.qi_bits(enc, first, last)
                sizes = _popcount_rows(packed)
                masks = self.index.unpack(packed)
            ends = np.cumsum(sizes)
            lo = 0
            while lo < last - first:
                budget = _PASS_PAIRS + (ends[lo - 1] if lo else 0)
                hi = max(lo + 1, int(np.searchsorted(ends, budget, "right")))
                counts = sizes[lo:hi]
                rows = np.flatnonzero(masks[lo:hi])
                rows -= np.repeat(np.arange(hi - lo) * n, counts)
                weights = None if measure is None else measure[rows]
                out = []
                for (codes, width), weigh, same in zip(
                    kinds, weighted, same_bins
                ):
                    if not same:
                        # A pair's bin: its query's offset plus its row's
                        # code.
                        key = np.repeat(np.arange(hi - lo) * width, counts)
                        if codes is not None:
                            key += codes[rows]
                    out.append(
                        np.bincount(
                            key, weights if weigh else None,
                            minlength=(hi - lo) * width,
                        ).reshape(hi - lo, width)
                    )
                yield first + lo, first + hi, out
                lo = hi


# ----------------------------------------------------------------------
# Per-table artifacts (kept only in a cache the caller passes)
# ----------------------------------------------------------------------


def mask_engine(table: Table, cache=None) -> TableMaskEngine:
    """The :class:`TableMaskEngine` for ``table``.

    Args:
        table: The source microdata.
        cache: Optional :class:`repro.api.ArtifactCache`.  When given,
            the engine is keyed by the table's *content digest*, so an
            equal-content table reloaded from disk reuses the
            already-built bitmap index; without it, a new engine is
            built.
    """
    if cache is None:
        return TableMaskEngine(table)
    key = ("mask_engine", cache.table_key(table))
    return cache.get_or_build(key, lambda: TableMaskEngine(table))


def _encoded(
    table: Table,
    queries: Sequence[CountQuery] | EncodedWorkload,
    artifacts=None,
) -> EncodedWorkload:
    """Encode against ``table``'s schema, cached per (table, workload)
    when ``artifacts`` is given.

    Sweep points regenerate equal workloads from the same seed; hashing
    the queries is ~10x cheaper than re-encoding them.  The key is a
    :class:`~repro.query.workload.QueryTuple`, hashed once per call; the
    encoding keeps it as its ``queries``, so keys derived from the
    encoded workload (the precise answers) cost no further hash.
    """
    if isinstance(queries, EncodedWorkload):
        return queries
    key = QueryTuple(queries)
    if artifacts is None:
        return EncodedWorkload.encode(table.schema, key)
    return artifacts.get_or_build(
        ("encoded", artifacts.table_key(table), key),
        lambda: EncodedWorkload.encode(table.schema, key),
    )


# ----------------------------------------------------------------------
# Answer backends (bitmap engine vs precomputed count cubes)
# ----------------------------------------------------------------------

#: Valid ``backend=`` values, shared by the query, service, api and cli
#: layers.  ``auto`` serves from a cube that already exists (attached by
#: a store load, or sitting in the artifact cache) and never builds one;
#: ``cube`` builds on demand within the cube byte budget and falls back
#: to the bitmap engine when the domain exceeds it; ``bitmap`` never
#: consults cubes.
BACKENDS = ("auto", "cube", "bitmap")

#: Aggregate operations over a measure column; COUNT is the default.
AGGREGATE_OPS = ("sum", "avg")


def check_backend(backend: str) -> str:
    """Validate a backend name, returning it for chaining."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown answer backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def check_aggregate_op(op: str) -> str:
    """Validate an aggregate op name, returning it for chaining."""
    if op not in AGGREGATE_OPS:
        raise ValueError(
            f"unknown aggregate op {op!r}; expected one of {AGGREGATE_OPS}"
        )
    return op


def _check_measure_dim(table: Table, measure_dim: int) -> None:
    if not 0 <= measure_dim < table.schema.n_qi:
        raise ValueError(
            f"measure_dim {measure_dim} out of range for a "
            f"{table.schema.n_qi}-attribute QI"
        )


def _measure_column(table: Table, measure_dim: int) -> np.ndarray:
    """The measure column as a contiguous float64 array.

    ``table.qi[:, d]`` is a strided view, and every gather from it
    copies the whole column first; its integer values are exact in
    float64, so sums over either are equal.
    """
    _check_measure_dim(table, measure_dim)
    return np.ascontiguousarray(table.qi[:, measure_dim], dtype=np.float64)


def _divide(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SUM ÷ COUNT with silent nan/inf where the denominator is zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums / counts


def resolve_cube(
    subject, artifacts=None, backend: str = "cube",
    measure_dim: int | None = None,
):
    """The cube answering ``subject`` under ``backend``, or ``None``.

    ``subject`` is a table — its (QI..., SA)
    :class:`~repro.query.cube.PrefixSumCube`, for precise answers — or a
    publication — its :class:`~repro.query.cube.CountCube`.  Cells count
    rows, or with ``measure_dim`` sum that QI column.  A count cube the
    publication store attached (``_count_cube``) is read first.  With an
    artifact cache the cube is content-keyed as ``("cube_table",
    table_digest)`` or ``("cube", publication_digest)``, plus the
    measure dim last.  ``auto`` returns only a cube that already exists,
    ``cube`` builds one (``None`` when over budget), and ``bitmap``
    always returns ``None``: the bitmap engine must serve.
    """
    check_backend(backend)
    if backend == "bitmap":
        return None
    attached = getattr(subject, "__dict__", {})
    if measure_dim is None and "_count_cube" in attached:
        return attached["_count_cube"]
    is_table = isinstance(subject, Table)
    build = build_table_cube if is_table else build_count_cube
    if artifacts is None:
        if backend == "auto":
            return None
        return build(subject, measure_dim=measure_dim)
    if is_table:
        key = ("cube_table", artifacts.table_key(subject))
    else:
        key = ("cube", artifacts.publication_key(subject))
    if measure_dim is not None:
        key += (measure_dim,)
    if backend == "auto":
        return artifacts.get(key)
    return artifacts.get_or_build(
        key, lambda: build(subject, measure_dim=measure_dim)
    )


def _precise(
    table: Table, enc: EncodedWorkload, artifacts, backend: str,
    measure_dim: int | None = None,
) -> np.ndarray:
    """Exact COUNTs (int64), or SUMs of a measure column (float64)."""
    cube = resolve_cube(table, artifacts, backend, measure_dim)
    if cube is not None:
        lo = np.concatenate([enc.qi_lo, enc.sa_lo[:, None]], axis=1)
        hi = np.concatenate([enc.qi_hi, enc.sa_hi[:, None]], axis=1)
        return cube.range_sums(lo, hi)
    if measure_dim is None:
        return mask_engine(table, artifacts).precise(enc)
    users = {"precise": (_SaRangeSums(table), True)}
    return _bitmap_answers(table, users, enc, artifacts, measure_dim)["precise"]


class _SaRangeSums:
    """Precise SUM as a histogram functional: each query's measure sums
    per SA code over its QI box, summed over its SA range.  The sums
    are exact integers in float64, so they equal the masked sums."""

    def __init__(self, table: Table):
        self.row_codes = table.sa
        self.width = table.sa_cardinality

    def batch(self, enc: EncodedWorkload, histograms: np.ndarray):
        codes = np.arange(self.width)
        in_range = codes >= enc.sa_lo[:, None]
        in_range &= codes <= enc.sa_hi[:, None]
        return (histograms * in_range).sum(axis=1)


def _bitmap_answers(
    table: Table,
    users: dict,
    enc: EncodedWorkload,
    artifacts,
    measure_dim: int | None,
) -> "dict[str, np.ndarray]":
    """Each histogram user's answers from the bitmap engine.

    ``users`` maps a key to ``(user, weighted)``: the user names its
    ``row_codes`` and ``width`` and answers from ``batch(enc,
    histograms)``, its rows weighted by the ``measure_dim`` column when
    ``weighted``, else counted.  All of them share one histogram pass
    (:meth:`TableMaskEngine.histograms`), which gathers the measure
    once.  When none needs row codes or a weight — a Baseline COUNT —
    the histograms are the QI-match sizes, which the popcount kernel
    gives without unpacking masks.
    """
    engine = mask_engine(table, artifacts)
    weighted = [weigh for _, weigh in users.values()]
    if not any(weighted) and all(
        user.row_codes is None for user, _ in users.values()
    ):
        sizes = engine.qi_counts(enc)[:, None]
        return {
            key: user.batch(enc, sizes) for key, (user, _) in users.items()
        }
    measure = None
    if any(weighted):
        measure = _measure_column(table, measure_dim)
    out = {key: np.zeros(enc.n_queries) for key in users}
    kinds = [(user.row_codes, user.width) for user, _ in users.values()]
    passes = engine.histograms(enc, kinds, measure, weighted)
    for start, stop, histograms in passes:
        block = enc.slice(start, stop)
        for (key, (user, _)), hist in zip(users.items(), histograms):
            out[key][start:stop] = user.batch(block, hist)
    return out


def answer_precise_batch(
    table: Table,
    queries: Sequence[CountQuery] | EncodedWorkload,
    artifacts=None,
    backend: str = "auto",
) -> np.ndarray:
    """Exact answers for a whole workload in one batched pass.

    Equals ``[answer_precise(table, q) for q in queries]`` element for
    element.  Sweep points that reuse a workload — Fig. 8(b) evaluates
    the same 2 000 queries at five β values — compute them once when
    they share an artifact cache.

    Args:
        table: The original microdata.
        queries: The workload (sequence of queries or already encoded).
        artifacts: Optional :class:`repro.api.ArtifactCache`; the answers
            are then content-keyed per (table, workload) and returned
            read-only, since every later caller gets the same array.
            Without it, a fresh writable array is computed.
        backend: ``auto`` | ``cube`` | ``bitmap`` — cube answers are
            bit-identical int64 counts, so the cache key is shared.
    """
    check_backend(backend)
    enc = _encoded(table, queries, artifacts)
    if artifacts is None:
        return _precise(table, enc, None, backend)

    def build() -> np.ndarray:
        out = _precise(table, enc, artifacts, backend)
        out.setflags(write=False)
        return out

    return artifacts.get_or_build(
        ("precise", artifacts.table_key(table), enc.queries), build
    )


# ----------------------------------------------------------------------
# Workload evaluation over publications
# ----------------------------------------------------------------------

_ANSWERERS = (
    (GeneralizedTable, GeneralizedAnswerer),
    (PerturbedTable, PerturbedAnswerer),
    (AnatomyTable, AnatomyAnswerer),
    (BaselinePublication, BaselineAnswerer),
)
_ANSWERER_TYPES = tuple(answerer for _, answerer in _ANSWERERS)


def make_answerer(published):
    """The batch-capable answerer for any publication format."""
    for publication_type, answerer_type in _ANSWERERS:
        if isinstance(published, publication_type):
            return answerer_type(published)
    raise TypeError(
        f"no answerer for publication type {type(published).__name__!r}"
    )


def _as_answerer(published_or_answerer):
    """A prebuilt answerer as is (its caches survive), else the
    publication's :func:`make_answerer`."""
    if isinstance(published_or_answerer, _ANSWERER_TYPES):
        return published_or_answerer
    return make_answerer(published_or_answerer)


def _answerers(table: Table, publications: Mapping[str, object]) -> dict:
    """Name → answerer, each checked to be over ``table`` — by identity
    or by content: a publication reloaded from a store embeds a
    reconstructed source object that is equal to, but not identical to,
    the caller's table."""
    answerers = {}
    for name, value in publications.items():
        answerer = _as_answerer(value)
        source = answerer.published.source
        if source is not table and table_digest(source) != table_digest(table):
            raise ValueError(
                f"publication {name!r} was built over a different table"
            )
        answerers[name] = answerer
    return answerers


def _estimate(
    table: Table,
    answerers: dict,
    enc: EncodedWorkload,
    artifacts,
    backend: str,
    served: dict,
    measures: tuple,
) -> "dict[str, list[np.ndarray]]":
    """One pass of the answering seam: per entry of ``measures``, COUNT
    estimates (``None``) or SUM estimates of that measure dim — COUNT
    is SUM with unit weights.  ``(d, None)`` are an AVG's two halves.

    Generalized publications go to their EC kernel.  Every other kind's
    estimate is one functional of a per-query histogram, read from the
    kind's cube when one resolves, else from the bitmap engine's
    histogram pass, which all those kinds and both halves of an AVG
    share (:func:`_bitmap_answers`).  ``served`` gets each name's
    backend label for the first entry.
    """
    out = {name: [None] * len(measures) for name in answerers}
    users: dict[tuple, tuple] = {}
    for name, answerer in answerers.items():
        for i, measure_dim in enumerate(measures):
            if isinstance(answerer, GeneralizedAnswerer):
                out[name][i] = answerer.batch(enc, measure_dim=measure_dim)
                label = "ec"
            else:
                cube = resolve_cube(
                    answerer.published, artifacts, backend, measure_dim
                )
                histograms = None if cube is None else cube.histograms(enc)
                if histograms is not None:
                    out[name][i] = answerer.batch(enc, histograms)
                    label = "cube"
                else:
                    users[name, i] = (answerer, measure_dim is not None)
                    label = "bitmap"
            if i == 0:
                served[name] = label
    if users:
        answers = _bitmap_answers(table, users, enc, artifacts, measures[0])
        for (name, i), estimates in answers.items():
            out[name][i] = estimates
    return out


def answer_batch(
    table: Table,
    publications: Mapping[str, object],
    queries: Sequence[CountQuery] | EncodedWorkload,
    aggregate: "tuple[int, str] | None" = None,
    *,
    artifacts=None,
    backend: str = "auto",
    served: "dict[str, str] | None" = None,
) -> "dict[str, np.ndarray]":
    """COUNT, SUM or AVG estimates of every publication over one workload.

    The seam behind :func:`batch_estimates`,
    :func:`~repro.query.aggregates.batch_aggregate_estimates` and the
    query service.  ``aggregate`` is ``None`` for COUNT or
    ``(measure_dim, op)`` with ``op`` in :data:`AGGREGATE_OPS`; AVG is
    the SUM estimate ÷ the COUNT estimate (``nan`` where that is zero).
    ``served`` is filled with name → the backend label of the COUNT or
    SUM half.
    """
    check_backend(backend)
    measures: tuple = (None,)
    if aggregate is not None:
        measure_dim, op = aggregate
        check_aggregate_op(op)
        _check_measure_dim(table, measure_dim)
        measures = (measure_dim, None) if op == "avg" else (measure_dim,)
    enc = _encoded(table, queries, artifacts)
    answerers = _answerers(table, publications)
    if served is None:
        served = {}
    out = _estimate(
        table, answerers, enc, artifacts, backend, served, measures
    )
    if len(measures) == 2:
        return {name: _divide(*out[name]) for name in answerers}
    return {name: out[name][0] for name in answerers}


def batch_estimates(
    table: Table,
    publications: Mapping[str, object],
    queries: Sequence[CountQuery] | EncodedWorkload,
    artifacts=None,
    *,
    backend: str = "auto",
    served: "dict[str, str] | None" = None,
) -> "dict[str, np.ndarray]":
    """Batch COUNT estimates of every publication over one workload.

    Mask-consuming estimators (perturbed, Anatomy, Baseline) share one
    QI-mask source per (table, workload) — the point of the batched
    engine — instead of each recomputing O(n) masks per query.  With a
    :class:`~repro.query.cube.CountCube` available (see ``backend``),
    those estimators skip mask work entirely: the cube's per-query
    histograms feed the same final weight/fraction functionals, so the
    estimates stay bit-identical either way.

    Args:
        table: The source microdata (all publications must be over it).
        publications: Name → publication *or* prebuilt answerer (passing
            answerers keeps per-instance caches, e.g. the perturbation
            weights, warm across sweep points).
        queries: The workload.
        artifacts: Optional :class:`repro.api.ArtifactCache` providing
            the content-keyed mask engine, encoded workload and cubes
            (the facade's shared-artifact path).
        backend: ``auto`` | ``cube`` | ``bitmap`` (see :data:`BACKENDS`).
        served: Optional dict the caller owns; filled with
            name → backend label that actually answered it: ``"cube"``,
            ``"bitmap"``, or ``"ec"`` (generalized publications are
            served by their table-free EC kernel under every backend).

    Returns:
        Name → ``(Q,)`` float64 estimates, bit-identical to the scalar
        per-query answerers.
    """
    return answer_batch(
        table, publications, queries,
        artifacts=artifacts, backend=backend, served=served,
    )


def evaluate_workload(
    table: Table,
    publications: Mapping[str, object],
    queries: Sequence[CountQuery] | EncodedWorkload,
    artifacts=None,
    backend: str = "auto",
    served: "dict[str, str] | None" = None,
) -> "dict[str, ErrorProfile]":
    """Evaluate a COUNT-query workload over a set of publications.

    Precise answers come from one batched pass, every estimator shares
    the same QI-mask source, and each publication gets a full
    :class:`ErrorProfile` (Fig. 8/9 read ``.median``).
    :meth:`repro.api.Dataset.evaluate` calls this with its session's
    ``artifacts``.

    Args:
        table: The source microdata.
        publications: Name → publication or prebuilt answerer.
        queries: The workload.
        artifacts: Optional :class:`repro.api.ArtifactCache`.
        backend: Answer backend selection (see :data:`BACKENDS`).
        served: Optional dict filled with name → serving backend label.

    Returns:
        Name → :class:`ErrorProfile`, in ``publications`` order.
    """
    enc = _encoded(table, queries, artifacts)
    estimates = batch_estimates(
        table, publications, enc, artifacts, backend=backend, served=served
    )
    precise = answer_precise_batch(
        table, enc, artifacts=artifacts, backend=backend
    )
    return {
        name: error_profile(precise, estimate)
        for name, estimate in estimates.items()
    }
