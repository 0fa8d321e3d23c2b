"""Materialization of ECs: drawing concrete tuples from buckets (§4.5).

The reallocation phase fixes *how many* tuples each EC takes from each
bucket; this module decides *which* tuples.  BUREL greedily groups
tuples that are close in QI-space so the resulting bounding boxes — and
therefore the information loss of Eq. 4 — stay small.  Exact
nearest-neighbour search is too expensive, so the paper sorts each
bucket's tuples by their Hilbert-curve value and picks, for every EC, the
tuples whose Hilbert values are nearest to a seed tuple's.

:class:`HilbertRetriever` implements that heuristic with a vectorized
hot path.  The key observation is that every draw of ``count`` alive
tuples nearest a seed key is a *contiguous window* of the bucket's
alive sequence (sorted by key), so the per-tuple loop collapses to
numpy slicing:

* **deterministic sweep** (``rng=None``) — the seed is always the
  minimum alive key over participating buckets, so every draw is a
  *prefix* of each bucket's alive sequence and the whole materialization
  reduces to batched slicing of the sorted-key arrays (zero per-tuple
  Python work);
* **seeded retrieval** (``rng`` given) — the window boundary is found by
  a two-pointer merge resolved with a binary search over the compacted
  alive arrays, then the window is cut out in one slice.

A scalar reference path (``vectorized=False``) retains the original
union-find "alive neighbour" structure; the vectorized paths are tested
byte-identical against it.

:class:`RandomRetriever` is the ablation (random draws, no locality),
used to quantify how much the Hilbert heuristic buys.

**The ``rng=None`` contract** (uniform across retrievers): ``None``
means *deterministic* — the Hilbert retriever sweeps the curve from its
lowest alive key, and the random retriever consumes tuples in row
order without shuffling.  Pass a generator for the paper's randomized
behaviour.
"""

from __future__ import annotations

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


def _take_window(
    rows: np.ndarray, keys: np.ndarray, seed: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``take_nearest`` over compacted alive arrays.

    The taken set of a nearest-to-seed expansion over a sorted key array
    is always a contiguous window ``[pos - nl, pos + nr)`` around the
    seed's insertion point; the left/right split is resolved by a binary
    search implementing the two-pointer merge (ties go right, matching
    the scalar path).  Returns ``(taken_rows, remaining_rows,
    remaining_keys)``; ``taken_rows`` reproduces the scalar take order
    exactly.
    """
    size = keys.shape[0]
    if count > size:
        raise ValueError("bucket exhausted: spec exceeds remaining tuples")
    if seed <= keys[0]:
        # Pure prefix take (the common case: this bucket's alive keys all
        # sit at or above the seed) — no merge, no copy on the remainder.
        return rows[:count], rows[count:], keys[count:]
    pos = int(np.searchsorted(keys, seed))
    n_left = pos
    n_right = size - pos
    lo = max(0, count - n_left)
    hi = min(count, n_right)
    # Smallest nr such that no further right element precedes the next
    # left candidate in the merge (dist_r <= dist_l takes right).
    while lo < hi:
        mid = (lo + hi) // 2
        nl = count - mid
        if (
            nl > 0
            and mid < n_right
            and seed - int(keys[pos - nl]) >= int(keys[pos + mid]) - seed
        ):
            lo = mid + 1
        else:
            hi = mid
    nr = lo
    nl = count - nr
    a, b = pos - nl, pos + nr
    window_rows = rows[a:b]
    if nl == 0:
        # Right-only window: scalar order is ascending position already.
        taken = window_rows
    elif nr == 0:
        # Left-only window: scalar order is descending position.
        taken = window_rows[::-1]
    else:
        # Mixed window — reproduce the scalar draw order: ascending
        # distance, ties to the right side, nearest position first
        # within a side (left candidates are visited in descending
        # position order).
        window_keys = keys[a:b]
        positions = np.arange(a, b)
        dist = np.abs(window_keys - seed)
        side = positions < pos  # True = left of the seed's insertion point
        tiebreak = np.where(side, -positions, positions)
        order = np.lexsort((tiebreak, side, dist))
        taken = window_rows[order]
    if a == 0:
        return taken, rows[b:], keys[b:]
    remaining_rows = np.concatenate([rows[:a], rows[b:]])
    remaining_keys = np.concatenate([keys[:a], keys[b:]])
    return taken, remaining_rows, remaining_keys


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
        vectorized: Use the batched numpy materialization (default); the
            scalar union-find path is kept as a reference/fallback.
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
        specs = [np.asarray(s, dtype=np.int64) for s in specs]
        self._validate(specs)
        if not self.vectorized:
            return self._materialize_scalar(specs)
        if self.rng is None:
            return self._materialize_sweep(specs)
        return self._materialize_seeded(specs)

    # ------------------------------------------------------------------
    # Vectorized paths
    # ------------------------------------------------------------------

    def _materialize_sweep(self, specs: list[np.ndarray]) -> list[np.ndarray]:
        """Deterministic sweep as pure batched slicing.

        Without an rng the seed of every EC is the minimum alive key
        over its participating buckets, so all keys below the seed are
        already taken in every bucket the EC draws from: each draw is
        the next ``spec[j]`` alive tuples of bucket ``j`` in key order.
        The whole materialization is a cumulative-sum split per bucket.
        """
        spec_matrix = np.stack(specs, axis=0)  # (n_ecs, n_buckets)
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

    def _materialize_seeded(self, specs: list[np.ndarray]) -> list[np.ndarray]:
        """Seeded retrieval via per-draw window cuts on compacted arrays."""
        alive_rows = list(self._sorted_rows)
        alive_keys = list(self._sorted_keys)
        n_buckets = len(alive_rows)
        groups: list[np.ndarray] = []
        for spec in specs:
            first_keys = [
                int(alive_keys[j][0]) if alive_keys[j].shape[0] else None
                for j in range(n_buckets)
            ]
            seed = _choose_seed(first_keys, spec, self.rng)
            parts: list[np.ndarray] = []
            for j in range(n_buckets):
                if spec[j] <= 0:
                    continue
                taken, alive_rows[j], alive_keys[j] = _take_window(
                    alive_rows[j], alive_keys[j], seed, int(spec[j])
                )
                parts.append(taken)
            groups.append(np.concatenate(parts))
        return groups

    # ------------------------------------------------------------------
    # Scalar reference path
    # ------------------------------------------------------------------

    def _materialize_scalar(self, specs: list[np.ndarray]) -> list[np.ndarray]:
        stores = [
            _BucketStore(rows, keys)
            for rows, keys in zip(self._sorted_rows, self._sorted_keys)
        ]
        groups: list[np.ndarray] = []
        for spec in specs:
            first_keys = [store.first_alive_key() for store in stores]
            seed = _choose_seed(first_keys, spec, self.rng)
            parts = [
                stores[j].take_nearest(seed, int(spec[j]))
                for j in range(len(stores))
                if spec[j] > 0
            ]
            groups.append(np.concatenate(parts))
        return groups

    def _validate(self, specs: Sequence[np.ndarray]) -> None:
        totals = np.zeros(len(self._sorted_rows), dtype=np.int64)
        for spec in specs:
            if spec.shape != (len(self._sorted_rows),):
                raise ValueError("spec length must equal the bucket count")
            if np.any(spec < 0):
                raise ValueError("specs must be non-negative")
            totals += spec
        if not np.array_equal(totals, self.bucket_sizes()):
            raise ValueError(
                "specs must consume each bucket exactly "
                f"(need {self.bucket_sizes().tolist()}, got {totals.tolist()})"
            )


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
