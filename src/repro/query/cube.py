"""Precomputed prefix-sum cubes: the cube answer backend.

The bitmap engine (:mod:`repro.query.evaluate`) pays ``λ + 1`` packed
ANDs plus a popcount per precise COUNT, and per-query mask work for the
mask-consuming estimators, at *serve* time.  For a publication admitted
to the store the domain is fixed, so that work can be moved to
*admission* time instead: this module materializes d-dimensional
**inclusive prefix-sum cubes** over the (bucketized) QI×SA domain, after
which any range COUNT is a signed sum over the box's ``2^d`` corners —
independent of both the row count and the range widths (the same
pre/post-order window trick that turns tree-axis predicates into
index-range scans).  A batch of queries costs one index step (every
query's every corner as one ``(2^d, Q)`` flat-index matrix) plus a few
blocked gathers, so a small batch pays a fixed handful of numpy calls.

Three cube shapes cover the four publication kinds:

* a **table cube** over ``(QI_1 .. QI_d, SA)`` answers precise COUNTs
  and per-query QI-match sizes (all the Baseline estimator consumes);
* a **value cube** over ``(QI_1 .. QI_d) × perturbed-SA-value`` yields
  each query's observed perturbed histogram in one gather, feeding the
  perturbed estimator's weight functional;
* a **group cube** over ``(QI_1 .. QI_d) × Anatomy-group`` yields each
  query's per-group membership counts, feeding the Anatomy estimator's
  mass fractions.

:meth:`CountCube.histograms` hands each kind the histogram its
estimator consumes.  Generalized publications need no cube: their
estimator is already table-free (the per-EC SA prefix sums *are* a 1-D
instance of the same trick), so the cube backend serves them through
the EC answerer unchanged.

:func:`build_table_cube` and :func:`build_count_cube` count rows, or
with ``measure_dim`` sum that QI column instead — the cubes behind
SUM/AVG aggregates, keyed with the measure dim last.  Count cubes hold
exact integer counts (int32 storage — counts are bounded by the row
count — upcast to int64/float64 downstream) and measure cubes exact
integer sums in float64, so cube answers are **bit-identical** to the
bitmap and scalar paths: the integer inputs are equal, and the
estimators' final float operations are shared.

The cutover heuristic mirrors ``DEFAULT_INDEX_BUDGET``: a cube is built
only when ``prod(domain_j + 1) * (extra_axis) * 8`` bytes fits
:data:`DEFAULT_CUBE_BUDGET`; larger domains fall back to the bitmap
engine (same answers, no cube memory).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..anonymity.anatomy import AnatomyTable, BaselinePublication
from ..core.perturb import PerturbedTable
from ..dataset.published import GeneralizedTable
from ..dataset.schema import Schema
from ..dataset.table import Table
from .workload import EncodedWorkload

#: Default byte budget for one prefix-sum cube; domains whose padded
#: cell count would exceed it are served by the bitmap engine instead
#: (mirrors ``repro.query.evaluate.DEFAULT_INDEX_BUDGET``).
DEFAULT_CUBE_BUDGET = 128 * 2**20

#: Cells (corners × queries × payload cells) gathered per block by
#: :meth:`PrefixSumCube.range_sums`.  It bounds the block's
#: intermediate; on a 2-vCPU host, 2,000- and 10,000-query batches read
#: as fast at 2^16 as at any size from 2^14 to 2^20, and one unblocked
#: gather of the whole batch was about 1.5× slower.
_GATHER_CELLS = 2**16

#: Array-name prefix of cube entries riding along in a publication
#: payload.  ``repro.io.content_digest`` skips ``aux_``-prefixed names,
#: so attaching cubes never changes a publication's content id.
CUBE_PAYLOAD_PREFIX = "aux_cube_"

#: Version tag of the serialized cube layout; bump on changes.
CUBE_PAYLOAD_VERSION = 1


def estimate_cube_bytes(
    dims: Sequence[int], payload_card: int | None = None, itemsize: int = 8
) -> int:
    """Bytes a :class:`PrefixSumCube` over ``dims`` would occupy.

    Every range axis is padded by one zero plane (``dim + 1`` entries);
    an optional payload axis multiplies by its cardinality unpadded.
    """
    cells = 1
    for dim in dims:
        cells *= int(dim) + 1
    if payload_card is not None:
        cells *= max(1, int(payload_card))
    return cells * itemsize


class PrefixSumCube:
    """Inclusive d-dimensional prefix sums with zero front planes.

    ``prefix[i_1, .., i_k]`` is the weighted count of points whose
    ``j``-th coordinate (shifted by ``lows[j]``) is ``< i_j`` — the
    classic summed-area table, padded so no corner lookup needs bounds
    special-casing.  An optional trailing **payload axis** is histogram
    raw (not prefix-summed): lookups then return one ``(card,)`` vector
    per query, e.g. the per-group counts inside a query's QI box.

    Range sums over ``Q`` queries gather every query's ``2^k`` corners
    at once: corner ``c`` takes the high bound on each axis whose bit is
    set in ``c`` and counts positive when its number of low bounds is
    even.
    """

    def __init__(
        self,
        prefix: np.ndarray,
        lows: Sequence[int],
        payload_card: int | None = None,
    ):
        self.prefix = prefix
        self.lows = tuple(int(lo) for lo in lows)
        self.payload_card = payload_card
        k = len(self.lows)
        expected_ndim = k + (1 if payload_card is not None else 0)
        if prefix.ndim != expected_ndim:
            raise ValueError(
                f"prefix has {prefix.ndim} axes; expected {expected_ndim}"
            )
        if payload_card is not None and prefix.shape[-1] != payload_card:
            raise ValueError("payload axis does not match payload_card")
        self._lows = np.array(self.lows, dtype=np.int64)
        #: Per-range-axis padded extents (domain size + 1).
        self._extents = np.array(prefix.shape[:k], dtype=np.int64)
        strides = np.ones(k, dtype=np.int64)
        for j in range(k - 2, -1, -1):
            strides[j] = strides[j + 1] * self._extents[j + 1]
        self._strides = strides
        if payload_card is not None:
            self._flat = prefix.reshape(-1, payload_card)
        else:
            self._flat = prefix.reshape(-1)
        # The (2^k, k) corner bits, positive corners first.
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        negative = (k - bits.sum(axis=1)) % 2
        self._corners = bits[np.argsort(negative, kind="stable")]
        self._n_positive = int((1 << k) - negative.sum())

    @property
    def n_axes(self) -> int:
        return len(self.lows)

    @property
    def nbytes(self) -> int:
        return int(self.prefix.nbytes)

    @classmethod
    def build(
        cls,
        columns: Sequence[np.ndarray],
        lows: Sequence[int],
        dims: Sequence[int],
        *,
        payload: np.ndarray | None = None,
        payload_card: int | None = None,
        weights: np.ndarray | None = None,
    ) -> "PrefixSumCube":
        """Build from per-axis point coordinates.

        Args:
            columns: One ``(n,)`` integer array per range axis.
            lows: Per-axis domain lower bound (coordinates are shifted).
            dims: Per-axis domain size (``hi - lo + 1``).
            payload: Optional ``(n,)`` categorical axis (group id,
                perturbed SA value); must lie in ``[0, payload_card)``.
            payload_card: Cardinality of the payload axis.
            weights: Optional ``(n,)`` per-point weights (measure-sum
                cubes); without them the cube holds integer counts,
                int32 whenever n fits it.  Weights that are integers
                (every measure cube's: they are QI values) make every
                cell an exact integer in float64, so
                :meth:`range_sums` adds its corners in any order with
                the same bits as long as ``2^k`` times the weights'
                absolute total stays below ``2^53``.
        """
        if (payload is None) != (payload_card is None):
            raise ValueError("payload and payload_card go together")
        shape = tuple(int(d) + 1 for d in dims)
        if payload_card is not None:
            shape = shape + (int(payload_card),)
        cells = int(np.prod(np.array(shape, dtype=np.int64)))
        index_cols = [
            np.asarray(col, dtype=np.int64) - int(lo) + 1
            for col, lo in zip(columns, lows)
        ]
        if payload is not None:
            index_cols.append(np.asarray(payload, dtype=np.int64))
        n = index_cols[0].shape[0] if index_cols else 0
        if n == 0:
            flat = np.zeros(
                cells, dtype=np.int64 if weights is None else np.float64
            )
        else:
            flat_idx = np.ravel_multi_index(tuple(index_cols), shape)
            flat = np.bincount(flat_idx, weights=weights, minlength=cells)
        # Every prefix sum of counts is at most n, so when n fits int32
        # casting before the sums is exact; it halves the memory traffic
        # of the sums and of the corner gathers each query pays
        # (downstream math converts to float64, which represents either
        # width exactly, so estimates stay bit-identical).
        if weights is None and n <= np.iinfo(np.int32).max:
            flat = flat.astype(np.int32)
        prefix = flat.reshape(shape)
        # Scattering at +1 offsets makes the running sums inclusive with
        # the zero planes landing automatically at index 0.  Along an
        # outer axis ``np.cumsum`` is slow, so each slab adds its
        # predecessor in place — the same sequential order, so weighted
        # (float) cubes stay bit-equal too.
        for axis in range(len(dims)):
            if axis == prefix.ndim - 1:
                np.cumsum(prefix, axis=axis, out=prefix)
                continue
            slabs = np.moveaxis(prefix, axis, 0)
            for i in range(1, slabs.shape[0]):
                slabs[i] += slabs[i - 1]
        return cls(prefix, lows, payload_card)

    def _corner_bounds(
        self, lo_bounds: np.ndarray, hi_bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clip inclusive domain bounds to padded cube indices.

        Returns ``(lo_idx, hi_idx)`` with ``hi_idx`` exclusive;
        degenerate or inverted ranges collapse to empty (both corners
        coincide, so their signed contributions cancel exactly).
        """
        top = self._extents - 1  # per-axis domain size
        lo = np.asarray(lo_bounds, dtype=np.int64) - self._lows
        hi = np.asarray(hi_bounds, dtype=np.int64) - self._lows + 1
        lo = np.clip(lo, 0, top)
        return lo, np.maximum(np.clip(hi, 0, top), lo)

    def range_sums(
        self, lo_bounds: np.ndarray, hi_bounds: np.ndarray
    ) -> np.ndarray:
        """Signed-corner range sums for a batch of boxes.

        One matrix product gives every query's ``2^k`` flat corner
        indices; the corners are then gathered in blocks of at most
        ``_GATHER_CELLS`` cells, and each block's answers are its
        positive corners' sum minus its negative corners' sum.

        Args:
            lo_bounds / hi_bounds: ``(Q, k)`` inclusive per-axis bounds
                in domain coordinates (an encoded workload's clipped
                bound arrays slot in directly).

        Returns:
            ``(Q,)`` sums, or ``(Q, payload_card)`` per-payload-value
            sums for payload cubes — exact integers (int64 for plain
            sums, the cube's storage width for payload histograms) or
            exact-integer float64 for weighted cubes.
        """
        lo, hi = self._corner_bounds(lo_bounds, hi_bounds)
        n_queries = lo.shape[0]
        corners = self._corners
        # (2^k, Q): query q's corner c sits at lo_q + bits_c * (hi_q - lo_q).
        index = lo @ self._strides + corners @ ((hi - lo) * self._strides).T
        if self.payload_card is None:
            tail: tuple = ()
            dtype = (
                np.int64 if self.prefix.dtype.kind == "i"
                else self.prefix.dtype
            )
        else:
            tail = (self.payload_card,)
            dtype = self.prefix.dtype
        out = np.empty((n_queries,) + tail, dtype=dtype)
        n_corners, n_pos = corners.shape[0], self._n_positive
        block = max(
            1, _GATHER_CELLS // (n_corners * (self.payload_card or 1))
        )
        for start in range(0, n_queries, block):
            stop = min(start + block, n_queries)
            cells = np.take(
                self._flat, index[:, start:stop].ravel(), axis=0
            ).reshape((n_corners, stop - start) + tail)
            # Integer sums are exact in any order (int32 ones modulo
            # 2^32, and every true count lies in [0, n]).
            np.subtract(
                cells[:n_pos].sum(axis=0, dtype=dtype),
                cells[n_pos:].sum(axis=0, dtype=dtype),
                out=out[start:stop],
            )
        return out


# ----------------------------------------------------------------------
# Per-kind cube construction
# ----------------------------------------------------------------------


def _qi_axes(schema: Schema) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lows = tuple(attr.lo for attr in schema.qi)
    dims = tuple(attr.hi - attr.lo + 1 for attr in schema.qi)
    return lows, dims


def _measure_weights(table: Table, measure_dim: int | None):
    """Per-row cube weights: ``None`` counts rows, a dim sums its column."""
    if measure_dim is None:
        return None
    return table.qi[:, measure_dim].astype(np.float64)


def estimate_table_cube_bytes(schema: Schema) -> int:
    """Bytes of the (QI..., SA) table cube for ``schema``."""
    _, dims = _qi_axes(schema)
    return estimate_cube_bytes(dims + (schema.sensitive.cardinality,))


def build_table_cube(
    table: Table,
    budget: int | None = DEFAULT_CUBE_BUDGET,
    *,
    measure_dim: int | None = None,
) -> PrefixSumCube | None:
    """The (QI..., SA) cube of a table, or ``None`` over budget.

    Full-SA-range lookups give per-query QI-match sizes, so one cube
    serves both precise answers and the Baseline estimator's only input.
    Cells count rows, or with ``measure_dim`` sum that QI column (exact
    integers in float64, so range sums equal the masked integer sums
    bit for bit).
    """
    if budget is not None and estimate_table_cube_bytes(table.schema) > budget:
        return None
    lows, dims = _qi_axes(table.schema)
    columns = [table.qi[:, j] for j in range(table.schema.n_qi)]
    return PrefixSumCube.build(
        columns + [table.sa],
        lows + (0,),
        dims + (table.sa_cardinality,),
        weights=_measure_weights(table, measure_dim),
    )


def build_payload_cube(
    table: Table,
    payload: np.ndarray,
    payload_card: int,
    budget: int | None = DEFAULT_CUBE_BUDGET,
    *,
    weights: np.ndarray | None = None,
) -> PrefixSumCube | None:
    """A (QI...) × payload cube over a table's rows, or ``None``.

    The generic builder behind the perturbed value cube and the
    Anatomy group cube, counted or measure-weighted.
    """
    lows, dims = _qi_axes(table.schema)
    if budget is not None and (
        estimate_cube_bytes(dims, payload_card) > budget
    ):
        return None
    columns = [table.qi[:, j] for j in range(table.schema.n_qi)]
    return PrefixSumCube.build(
        columns,
        lows,
        dims,
        payload=payload,
        payload_card=payload_card,
        weights=weights,
    )


@dataclass
class CountCube:
    """The cube backend's serving state for one publication.

    Its cells count rows, or sum a measure column when built with
    ``measure_dim`` (see :func:`build_count_cube`).

    Attributes:
        kind: The publication kind the cube was built for.
        table: (QI..., SA) count cube over the source rows — a
            Baseline's only input — or ``None`` for other kinds.
        payload: Kind-specific (QI...) × payload count cube (perturbed
            SA values, or Anatomy groups), or ``None`` for a Baseline.
    """

    kind: str
    table: PrefixSumCube | None = None
    payload: PrefixSumCube | None = None

    @property
    def nbytes(self) -> int:
        total = 0
        if self.table is not None:
            total += self.table.nbytes
        if self.payload is not None:
            total += self.payload.nbytes
        return total

    def __bool__(self) -> bool:
        return self.table is not None or self.payload is not None

    # -- encoded-workload lookups --------------------------------------

    def histograms(self, enc: EncodedWorkload) -> np.ndarray | None:
        """The per-query histograms this kind's estimator consumes.

        A Baseline reads its QI-match sizes, ``(Q, 1)``, from
        full-SA-range table-cube lookups; perturbed and Anatomy
        publications read ``(Q, card)`` payload histograms inside each
        QI box.  ``None`` when the sub-cube the kind needs was not built
        (over budget, or a generalized publication, whose EC kernel
        reads no histogram).
        """
        if self.kind == "baseline":
            if self.table is None:
                return None
            n = enc.n_queries
            m = self.table._extents[-1] - 1
            sa_lo = np.zeros((n, 1), dtype=np.int64)
            sa_hi = np.full((n, 1), m - 1, dtype=np.int64)
            lo = np.concatenate([enc.qi_lo, sa_lo], axis=1)
            hi = np.concatenate([enc.qi_hi, sa_hi], axis=1)
            return self.table.range_sums(lo, hi)[:, None]
        if self.payload is None:
            return None
        return self.payload.range_sums(enc.qi_lo, enc.qi_hi)

    # -- payload-archive round-trip ------------------------------------

    def to_payload(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` to ride along in a publication payload.

        Array names carry :data:`CUBE_PAYLOAD_PREFIX` and the metadata
        lands under an ``aux_cube`` key — both skipped by
        :func:`repro.io.content_digest`, so persisting a cube never
        changes the publication's content id.
        """
        meta: dict = {"version": CUBE_PAYLOAD_VERSION, "kind": self.kind}
        arrays: dict = {}
        for name, cube in (("table", self.table), ("payload", self.payload)):
            if cube is None:
                meta[name] = None
                continue
            meta[name] = {
                "lows": list(cube.lows),
                "payload_card": cube.payload_card,
            }
            arrays[CUBE_PAYLOAD_PREFIX + name] = cube.prefix
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict) -> "CountCube":
        """Rebuild from :meth:`to_payload` output (lossless)."""
        if meta.get("version") != CUBE_PAYLOAD_VERSION:
            raise ValueError(
                f"unsupported cube payload version {meta.get('version')!r}"
            )
        cubes: dict[str, PrefixSumCube | None] = {}
        for name in ("table", "payload"):
            spec = meta.get(name)
            if spec is None:
                cubes[name] = None
                continue
            cubes[name] = PrefixSumCube(
                arrays[CUBE_PAYLOAD_PREFIX + name],
                spec["lows"],
                spec["payload_card"],
            )
        return cls(kind=meta["kind"], table=cubes["table"],
                   payload=cubes["payload"])


def build_count_cube(
    published,
    budget: int | None = DEFAULT_CUBE_BUDGET,
    *,
    measure_dim: int | None = None,
) -> CountCube | None:
    """The :class:`CountCube` for a publication, or ``None``.

    A publication gets only the sub-cube its estimator reads (see
    :meth:`CountCube.histograms`): a Baseline the table cube, perturbed
    and Anatomy publications their payload cube.  ``None`` means that
    sub-cube exceeds ``budget`` and the bitmap engine must serve, or the
    publication is generalized, whose EC kernel reads no cube (see the
    module docstring).  With ``measure_dim`` every cell holds the sum
    of that QI column over its points instead of their count — the
    cubes behind SUM/AVG.
    """
    table = published.source
    weights = _measure_weights(table, measure_dim)
    table_cube = payload_cube = None
    if isinstance(published, PerturbedTable):
        kind = "perturbed"
        payload_cube = build_payload_cube(
            table, published.sa_perturbed, table.sa_cardinality, budget,
            weights=weights,
        )
    elif isinstance(published, AnatomyTable):
        kind = "anatomy"
        payload_cube = build_payload_cube(
            table, published.class_of, published.n_groups, budget,
            weights=weights,
        )
    elif isinstance(published, GeneralizedTable):
        return None
    elif isinstance(published, BaselinePublication):
        kind = "baseline"
        table_cube = build_table_cube(table, budget, measure_dim=measure_dim)
    else:
        raise TypeError(
            f"no cube builder for publication type {type(published).__name__!r}"
        )
    cube = CountCube(kind=kind, table=table_cube, payload=payload_cube)
    return cube if cube else None
