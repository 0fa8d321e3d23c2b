"""Materialization of ECs: drawing concrete tuples from buckets (§4.5).

The reallocation phase fixes *how many* tuples each EC takes from each
bucket; this module decides *which* tuples.  BUREL greedily groups
tuples that are close in QI-space so the resulting bounding boxes — and
therefore the information loss of Eq. 4 — stay small.  Exact
nearest-neighbour search is too expensive, so the paper sorts each
bucket's tuples by their Hilbert-curve value and picks, for every EC, the
tuples whose Hilbert values are nearest to a seed tuple's.

:class:`HilbertRetriever` implements that heuristic without a
per-tuple search.  The key observation is that every draw of ``count``
alive tuples nearest a seed key is a *contiguous window* of the
bucket's alive sequence (sorted by key):

* **deterministic sweep** (``rng=None``) — the seed is always the
  minimum alive key over participating buckets, so every draw is a
  *prefix* of each bucket's alive sequence and the whole materialization
  reduces to batched slicing of the sorted-key arrays (zero per-tuple
  Python work);
* **seeded retrieval** (``rng`` given) — each bucket's alive keys and
  rows sit in two compact buffers; a draw is a prefix when the seed is
  at or below the first alive key, else a window found by a binary
  search and a ``count``-step two-pointer merge, and the window is
  closed by moving the shorter side of the buffer over it.

A scalar reference path (``vectorized=False``) retains the original
union-find "alive neighbour" structure; both other paths are tested
byte-identical against it.  Every path checks the specs first, as one
matrix: one count per bucket, none negative, at least one tuple per EC,
and each bucket consumed exactly.

:class:`RandomRetriever` is the ablation (random draws, no locality),
used to quantify how much the Hilbert heuristic buys.

**The ``rng=None`` contract** (uniform across retrievers): ``None``
means *deterministic* — the Hilbert retriever sweeps the curve from its
lowest alive key, and the random retriever consumes tuples in row
order without shuffling.  Pass a generator for the paper's randomized
behaviour.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Protocol, Sequence

import numpy as np

from ..dataset.table import Table
from ..hilbert import scaled_hilbert_key
from .bucketize import BucketPartition


def row_buckets(table: Table, partition: BucketPartition) -> np.ndarray:
    """Bucket index of every row, via a vectorized value->bucket map."""
    value_to_bucket = np.full(table.sa_cardinality, -1, dtype=np.int64)
    for j, bucket in enumerate(partition.buckets):
        value_to_bucket[bucket] = j
    row_bucket = value_to_bucket[table.sa]
    if np.any(row_bucket < 0):
        raise ValueError("the bucket partition does not cover every SA value")
    return row_bucket


def qi_space_keys(table: Table) -> np.ndarray:
    """Hilbert keys of all tuples in normalized QI-space.

    Each attribute's domain is stretched to the full curve grid so that
    one attribute's full span weighs the same in every direction —
    mirroring the information-loss metric's normalization (Eq. 2) and
    preserving curve locality for mixed-cardinality schemas.
    """
    lows = np.array([attr.lo for attr in table.schema.qi], dtype=float)
    highs = np.array([attr.hi for attr in table.schema.qi], dtype=float)
    return scaled_hilbert_key(table.qi, lows, highs).astype(np.int64)


class Retriever(Protocol):
    """Anything that can turn EC size specs into row-index groups."""

    def materialize(self, specs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return one array of source-row indices per EC spec."""
        ...


class _AliveOrder:
    """Alive/used bookkeeping over a sorted array with O(α) neighbour hops.

    ``right[i]`` points at the smallest alive position >= i and ``left[i]``
    at the largest alive position <= i, both maintained with path
    compression.  Positions are killed once taken.
    """

    def __init__(self, size: int):
        # Alive entries are self-loops; killed ones point past
        # themselves.  The right structure is indexed by position with a
        # sentinel self-loop at `size`; the left structure is indexed by
        # position + 1 with a sentinel self-loop at 0 (= "position -1").
        self.right = np.arange(size + 1, dtype=np.int64)
        self.left = np.arange(size + 1, dtype=np.int64)
        self.alive = size

    def find_right(self, i: int) -> int:
        """Smallest alive position >= i, or ``size`` if none."""
        root = i
        while self.right[root] != root:
            root = self.right[root]
        # Path compression.
        while self.right[i] != root:
            self.right[i], i = root, self.right[i]
        return int(root)

    def find_left(self, i: int) -> int:
        """Largest alive position <= i, or -1 if none."""
        if i < 0:
            return -1
        root = i + 1  # shifted coordinates
        while self.left[root] != root:
            root = self.left[root]
        j = i + 1
        while self.left[j] != root:
            self.left[j], j = root, self.left[j]
        return int(root) - 1

    def kill(self, i: int) -> None:
        """Mark position ``i`` used."""
        self.right[i] = i + 1
        self.left[i + 1] = i  # shifted: next lookup lands on position i-1
        self.alive -= 1


class _BucketStore:
    """One bucket's tuples sorted by Hilbert key, with alive tracking.

    This is the scalar reference implementation; the vectorized paths in
    :class:`HilbertRetriever` must match it draw-for-draw.
    """

    def __init__(self, rows: np.ndarray, keys: np.ndarray):
        order = np.argsort(keys, kind="stable")
        self.rows = rows[order]
        self.keys = keys[order]
        self.order = _AliveOrder(rows.shape[0])

    @property
    def n_alive(self) -> int:
        return self.order.alive

    def first_alive_key(self) -> int | None:
        pos = self.order.find_right(0)
        if pos >= self.rows.shape[0]:
            return None
        return int(self.keys[pos])

    def take_nearest(self, seed_key: int, count: int) -> np.ndarray:
        """Take the ``count`` alive tuples with keys nearest ``seed_key``."""
        if count > self.order.alive:
            raise ValueError("bucket exhausted: spec exceeds remaining tuples")
        taken = np.empty(count, dtype=np.int64)
        size = self.rows.shape[0]
        pos = int(np.searchsorted(self.keys, seed_key))
        r = self.order.find_right(pos)
        l = self.order.find_left(pos - 1)
        for k in range(count):
            take_right: bool
            if r >= size and l < 0:
                raise AssertionError(
                    "bucket ran out of alive tuples mid-draw; spec "
                    "validation should have prevented this"
                )
            if r >= size:
                take_right = False
            elif l < 0:
                take_right = True
            else:
                dist_r = int(self.keys[r]) - seed_key
                dist_l = seed_key - int(self.keys[l])
                take_right = dist_r <= dist_l
            if take_right:
                taken[k] = self.rows[r]
                self.order.kill(r)
                r = self.order.find_right(r + 1)
            else:
                taken[k] = self.rows[l]
                self.order.kill(l)
                l = self.order.find_left(l - 1)
        return taken


class HilbertRetriever:
    """Greedy nearest-neighbour retrieval along the Hilbert curve.

    For every EC the seed is the alive tuple with the smallest Hilbert
    value among buckets the EC draws from (a deterministic sweep along
    the curve; the paper seeds randomly, pass ``rng`` to mimic that).
    ``rng=None`` therefore means *deterministic* — the same contract as
    :class:`RandomRetriever`.

    Args:
        table: The microdata to draw from.
        partition: Bucketization of the SA domain.
        rng: Optional generator randomizing seed choice per EC.
        vectorized: Use the sweep or seeded buffer paths (default);
            ``False`` selects the scalar union-find path, kept as the
            oracle they are tested against.
        keys: Precomputed :func:`qi_space_keys` of ``table`` (shared
            preprocessing for batched engine runs).
        row_bucket: Precomputed :func:`row_buckets` map for ``table``
            under ``partition``.
    """

    def __init__(
        self,
        table: Table,
        partition: BucketPartition,
        rng: np.random.Generator | None = None,
        *,
        vectorized: bool = True,
        keys: np.ndarray | None = None,
        row_bucket: np.ndarray | None = None,
    ):
        self.table = table
        self.partition = partition
        self.rng = rng
        self.vectorized = vectorized
        if keys is None:
            keys = qi_space_keys(table)
        if row_bucket is None:
            row_bucket = row_buckets(table, partition)
        self._sorted_rows: list[np.ndarray] = []
        self._sorted_keys: list[np.ndarray] = []
        for j in range(len(partition)):
            rows = np.nonzero(row_bucket == j)[0].astype(np.int64)
            bucket_keys = keys[rows]
            order = np.argsort(bucket_keys, kind="stable")
            self._sorted_rows.append(rows[order])
            self._sorted_keys.append(bucket_keys[order])

    def bucket_sizes(self) -> np.ndarray:
        """Tuple counts per bucket (input to the reallocation phase)."""
        return np.array(
            [r.shape[0] for r in self._sorted_rows], dtype=np.int64
        )

    def materialize(self, specs: Sequence[np.ndarray]) -> list[np.ndarray]:
        spec_matrix = self._validate(specs)
        if not self.vectorized:
            return self._materialize_scalar(spec_matrix)
        if self.rng is None:
            return self._materialize_sweep(spec_matrix)
        return self._materialize_seeded(spec_matrix)

    # ------------------------------------------------------------------
    # Sweep and seeded paths
    # ------------------------------------------------------------------

    def _materialize_sweep(self, spec_matrix: np.ndarray) -> list[np.ndarray]:
        """Deterministic sweep as pure batched slicing.

        Without an rng the seed of every EC is the minimum alive key
        over its participating buckets, so all keys below the seed are
        already taken in every bucket the EC draws from: each draw is
        the next ``spec[j]`` alive tuples of bucket ``j`` in key order.
        The whole materialization is a cumulative-sum split per bucket.
        """
        ec_sizes = spec_matrix.sum(axis=1)
        ec_base = np.concatenate([[0], np.cumsum(ec_sizes)])
        # Exclusive prefix sums: where bucket j's piece starts inside
        # each EC's output segment.
        intra = np.cumsum(spec_matrix, axis=1) - spec_matrix
        out = np.empty(int(ec_base[-1]), dtype=np.int64)
        for j, rows in enumerate(self._sorted_rows):
            if rows.shape[0] == 0:
                continue
            lens = spec_matrix[:, j]
            piece_starts = ec_base[:-1] + intra[:, j]
            # Scatter the bucket's sorted rows into their per-EC slots:
            # each element's target is its piece's start plus its offset
            # within the piece.
            targets = np.repeat(piece_starts, lens)
            offsets = np.arange(rows.shape[0]) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            out[targets + offsets] = rows
        return [
            out[ec_base[k] : ec_base[k + 1]]
            for k in range(spec_matrix.shape[0])
        ]

    def _materialize_seeded(self, spec_matrix: np.ndarray) -> list[np.ndarray]:
        """Seeded retrieval over per-bucket alive buffers, closed in place.

        Each bucket keeps its alive keys and rows in two ``array('q')``
        buffers, alive between ``head`` and ``end``.  A draw of ``c``
        tuples nearest the seed is the window ``[a, z)`` of the alive
        span: a prefix when the seed sits at or below the first alive
        key, otherwise found by a binary search and a ``c``-step
        two-pointer merge (ties go right, as in the scalar path), which
        also yields the scalar draw order.  The window is then closed by
        moving the shorter side over it — the front ``[head, a)`` right
        by ``c`` or the tail ``[z, end)`` left by ``c`` — so no draw
        copies a whole bucket.  Draws are short and mostly sit near the
        front, where these per-tuple steps cost less than numpy calls.
        """
        keys = [array("q", k.tobytes()) for k in self._sorted_keys]
        rows = [array("q", r.tobytes()) for r in self._sorted_rows]
        head = [0] * len(keys)
        end = [len(k) for k in keys]
        out = array("q")
        bounds = [0]
        for row in spec_matrix:
            spec = row.tolist()
            part = [j for j, count in enumerate(spec) if count]
            # The same draw as _choose_seed's choice over the first alive
            # keys of ``part``: validation leaves every one non-empty.
            first = part[self.rng.choice(len(part))]
            seed = keys[first][head[first]]
            for j in part:
                count, bucket_keys, bucket_rows = spec[j], keys[j], rows[j]
                h, e = head[j], end[j]
                if seed <= bucket_keys[h]:
                    out += bucket_rows[h : h + count]
                    head[j] = h + count
                    continue
                a = z = bisect_left(bucket_keys, seed, h, e)
                for _ in range(count):
                    if z < e and (
                        a == h or bucket_keys[z] - seed <= seed - bucket_keys[a - 1]
                    ):
                        out.append(bucket_rows[z])
                        z += 1
                    else:
                        a -= 1
                        out.append(bucket_rows[a])
                if a - h <= e - z:
                    bucket_keys[h + count : z] = bucket_keys[h:a]
                    bucket_rows[h + count : z] = bucket_rows[h:a]
                    head[j] = h + count
                else:
                    bucket_keys[a : e - count] = bucket_keys[z:e]
                    bucket_rows[a : e - count] = bucket_rows[z:e]
                    end[j] = e - count
            bounds.append(len(out))
        flat = np.frombuffer(out, dtype=np.int64)
        return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    # ------------------------------------------------------------------
    # Scalar reference path
    # ------------------------------------------------------------------

    def _materialize_scalar(self, spec_matrix: np.ndarray) -> list[np.ndarray]:
        stores = [
            _BucketStore(rows, keys)
            for rows, keys in zip(self._sorted_rows, self._sorted_keys)
        ]
        groups: list[np.ndarray] = []
        for spec in spec_matrix:
            first_keys = [store.first_alive_key() for store in stores]
            seed = _choose_seed(first_keys, spec, self.rng)
            parts = [
                stores[j].take_nearest(seed, int(spec[j]))
                for j in range(len(stores))
                if spec[j] > 0
            ]
            groups.append(np.concatenate(parts))
        return groups

    def _validate(self, specs: Sequence[np.ndarray]) -> np.ndarray:
        """Check the specs as one ``(n_ecs, n_buckets)`` matrix, before
        any draw, and return it."""
        n_buckets = len(self._sorted_rows)
        try:
            spec_matrix = np.stack(specs).astype(np.int64, copy=False)
        except ValueError:
            raise ValueError(
                "specs must be one or more vectors of one count per bucket"
            ) from None
        if spec_matrix.ndim != 2 or spec_matrix.shape[1] != n_buckets:
            raise ValueError("spec length must equal the bucket count")
        if np.any(spec_matrix < 0):
            raise ValueError("specs must be non-negative")
        if np.any(spec_matrix.sum(axis=1) == 0):
            raise ValueError("every spec must draw at least one tuple")
        totals = spec_matrix.sum(axis=0)
        if not np.array_equal(totals, self.bucket_sizes()):
            raise ValueError(
                "specs must consume each bucket exactly "
                f"(need {self.bucket_sizes().tolist()}, got {totals.tolist()})"
            )
        return spec_matrix


def _choose_seed(
    first_keys: list[int | None],
    spec: np.ndarray,
    rng: np.random.Generator | None,
) -> int:
    """Seed key for one EC: minimum (or rng-chosen) first alive key among
    participating buckets."""
    candidates = [
        key
        for j, key in enumerate(first_keys)
        if spec[j] > 0 and key is not None
    ]
    if not candidates:
        raise ValueError("no tuples remain for a non-empty spec")
    if rng is not None:
        return int(rng.choice(candidates))
    return min(candidates)


class RandomRetriever:
    """Ablation: draw tuples from each bucket without QI locality.

    ``rng=None`` means *deterministic* — tuples are consumed in row
    order, mirroring :class:`HilbertRetriever`'s deterministic sweep.
    Pass a generator to shuffle each bucket's draw order (the actual
    no-locality ablation).
    """

    def __init__(
        self,
        table: Table,
        partition: BucketPartition,
        rng: np.random.Generator | None = None,
    ):
        self.table = table
        self.partition = partition
        row_bucket = row_buckets(table, partition)
        self._pools: list[np.ndarray] = []
        self._cursors: list[int] = []
        for j in range(len(partition)):
            rows = np.nonzero(row_bucket == j)[0].astype(np.int64)
            if rng is not None:
                rng.shuffle(rows)
            self._pools.append(rows)
            self._cursors.append(0)

    def bucket_sizes(self) -> np.ndarray:
        return np.array([p.shape[0] for p in self._pools], dtype=np.int64)

    def materialize(self, specs: Sequence[np.ndarray]) -> list[np.ndarray]:
        groups: list[np.ndarray] = []
        for spec in specs:
            parts = []
            for j, count in enumerate(np.asarray(spec, dtype=np.int64)):
                if count == 0:
                    continue
                start = self._cursors[j]
                end = start + int(count)
                if end > self._pools[j].shape[0]:
                    raise ValueError("bucket exhausted: spec exceeds remaining tuples")
                parts.append(self._pools[j][start:end])
                self._cursors[j] = end
            if not parts:
                raise ValueError("empty EC spec")
            groups.append(np.concatenate(parts))
        return groups
