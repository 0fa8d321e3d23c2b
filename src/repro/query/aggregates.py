"""SUM/AVG aggregate queries over a measure column.

The COUNT estimators (:mod:`repro.query.answer`) generalize directly to
SUM aggregates over a **measure column** — one of the table's QI
attributes, e.g. CENSUS ``Age``:

* **Precise**: the exact masked sum ``measure[rows matching QI ∧ SA]``.
* **Perturbed / Anatomy**: the estimate is a linear functional of a
  per-query histogram (per perturbed SA value, per Anatomy group); the
  SUM variant feeds the same functional the histogram of per-cell
  *measure sums* instead of counts.
* **Baseline**: the QI-match *measure sum* replaces the QI-match size,
  scaled by the SA range's global distribution mass.
* **Generalized**: under the in-box uniformity assumption a matching
  tuple's expected measure value is the midpoint of the EC box's
  measure interval (clipped to the query's measure range when
  constrained), so each EC contributes
  ``fraction × sa_matches × midpoint``.

AVG is SUM ÷ COUNT with both sides estimated by the same backend
(``nan`` where the COUNT estimate is zero).

Every batch path is **bit-identical** to the scalar references here
(:func:`answer_aggregate_precise`, :func:`answer_aggregate`): integer
measure sums are order-free and exact in float64, and the final float
operations are shared.  The cube variant
(:func:`~repro.query.cube.build_measure_cube`) swaps the per-query
masked ``bincount`` for one prefix-sum gather, same numbers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..dataset.table import Table
from .answer import (
    AnatomyAnswerer,
    BaselineAnswerer,
    GeneralizedAnswerer,
    PerturbedAnswerer,
)
from .cube import build_measure_cube, build_table_measure_cube
from .evaluate import (
    _check_source,
    _coerce_answerer,
    _encoded,
    _source_of,
    answer_precise_batch,
    batch_estimates,
    check_backend,
    mask_engine,
)
from .workload import CountQuery, EncodedWorkload, qi_mask

#: Supported aggregate operations.
AGGREGATE_OPS = ("sum", "avg")


def check_aggregate_op(op: str) -> str:
    """Validate an aggregate op name, returning it for chaining."""
    if op not in AGGREGATE_OPS:
        raise ValueError(
            f"unknown aggregate op {op!r}; expected one of {AGGREGATE_OPS}"
        )
    return op


def _measure(table: Table, measure_dim: int) -> np.ndarray:
    if not 0 <= measure_dim < table.schema.n_qi:
        raise ValueError(
            f"measure_dim {measure_dim} out of range for a "
            f"{table.schema.n_qi}-attribute QI"
        )
    return table.qi[:, measure_dim]


def _divide(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """SUM ÷ COUNT with silent nan/inf where the denominator is zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums / counts


# ----------------------------------------------------------------------
# Precise aggregates over the source table
# ----------------------------------------------------------------------


def answer_aggregate_precise(
    table: Table, query: CountQuery, measure_dim: int, op: str = "sum"
) -> float:
    """Scalar reference: the exact SUM/AVG over one query's matches."""
    check_aggregate_op(op)
    measure = _measure(table, measure_dim)
    lo, hi = query.sa_range
    mask = qi_mask(table, query)
    mask &= (table.sa >= lo) & (table.sa <= hi)
    total = float(measure[mask].sum())
    if op == "sum":
        return total
    return float(_divide(np.float64(total), np.float64(mask.sum())))


def batch_aggregate_precise(
    table: Table,
    queries: Sequence[CountQuery] | EncodedWorkload,
    measure_dim: int,
    op: str = "sum",
    *,
    artifacts=None,
    backend: str = "auto",
) -> np.ndarray:
    """Exact SUM/AVG answers for a whole workload, float64.

    Element-for-element equal to :func:`answer_aggregate_precise`.  The
    cube backend uses a measure-sum table cube (content-keyed as
    ``("cube_measure_table", table_digest, measure_dim)``); the bitmap
    path sums the measure over each query's full-predicate mask.
    """
    check_backend(backend)
    check_aggregate_op(op)
    enc = _encoded(table, queries, artifacts)
    measure = _measure(table, measure_dim)
    cube = _table_measure_cube(table, measure_dim, artifacts, backend)
    if cube is not None:
        lo = np.concatenate([enc.qi_lo, enc.sa_lo[:, None]], axis=1)
        hi = np.concatenate([enc.qi_hi, enc.sa_hi[:, None]], axis=1)
        sums = cube.range_sums(lo, hi)
    else:
        engine = mask_engine(table, artifacts)
        sums = np.empty(enc.n_queries)
        sa = table.sa
        for start, stop in engine._blocks(enc.n_queries):
            masks = engine.qi_mask_block(enc, start, stop)
            masks &= sa[None, :] >= enc.sa_lo[start:stop, None]
            masks &= sa[None, :] <= enc.sa_hi[start:stop, None]
            for i in range(stop - start):
                sums[start + i] = measure[masks[i]].sum()
    if op == "sum":
        return sums
    counts = answer_precise_batch(
        table, enc, artifacts=artifacts, backend=backend
    )
    return _divide(sums, counts)


def _table_measure_cube(table, measure_dim, artifacts, backend):
    """Measure-sum table cube under the same semantics as
    :func:`repro.query.evaluate.table_count_cube`."""
    if backend == "bitmap" or (backend == "auto" and artifacts is None):
        return None
    if artifacts is None:
        return build_table_measure_cube(table, measure_dim)
    key = ("cube_measure_table", artifacts.table_key(table), measure_dim)
    if backend == "auto":
        return artifacts.get(key)
    return artifacts.get_or_build(
        key, lambda: build_table_measure_cube(table, measure_dim)
    )


def _measure_cube(published, measure_dim, artifacts, backend):
    """Per-publication measure cube (``("cube_measure", digest, dim)``)."""
    if backend == "bitmap" or (backend == "auto" and artifacts is None):
        return None
    if artifacts is None:
        return build_measure_cube(published, measure_dim)
    key = ("cube_measure", artifacts.publication_key(published), measure_dim)
    if backend == "auto":
        return artifacts.get(key)
    return artifacts.get_or_build(
        key, lambda: build_measure_cube(published, measure_dim)
    )


# ----------------------------------------------------------------------
# Aggregate estimates over publications
# ----------------------------------------------------------------------


def _generalized_query_sum(
    answerer: GeneralizedAnswerer, enc: EncodedWorkload, i: int,
    measure_dim: int,
) -> float:
    """One query's SUM estimate over the EC boxes (uniform-in-box)."""
    sa_matches = (
        answerer.sa_prefix[:, enc.sa_hi[i] + 1]
        - answerer.sa_prefix[:, enc.sa_lo[i]]
    ).astype(float)
    fraction = np.ones(answerer.box_lo.shape[0])
    for dim in np.flatnonzero(enc.constrained[i]):
        b_lo = answerer.box_lo[:, dim]
        b_hi = answerer.box_hi[:, dim]
        overlap = (
            np.minimum(b_hi, enc.qi_hi[i, dim])
            - np.maximum(b_lo, enc.qi_lo[i, dim])
            + 1
        )
        fraction *= np.maximum(overlap, 0) / (b_hi - b_lo + 1)
    b_lo = answerer.box_lo[:, measure_dim]
    b_hi = answerer.box_hi[:, measure_dim]
    if enc.constrained[i, measure_dim]:
        # A matching tuple is uniform over the box ∩ query interval;
        # inverted (empty) overlaps are annihilated by fraction == 0.
        b_lo = np.maximum(b_lo, enc.qi_lo[i, measure_dim])
        b_hi = np.minimum(b_hi, enc.qi_hi[i, measure_dim])
    midpoints = (b_lo + b_hi) / 2.0
    return float((fraction * sa_matches * midpoints).sum())


def _generalized_measure_sums(
    answerer: GeneralizedAnswerer, enc: EncodedWorkload, measure_dim: int
) -> np.ndarray:
    return np.array(
        [
            _generalized_query_sum(answerer, enc, i, measure_dim)
            for i in range(enc.n_queries)
        ]
    )


def _cube_measure_sums(answerer, enc: EncodedWorkload, cube) -> np.ndarray:
    """SUM estimates from a measure cube's per-query histograms."""
    if isinstance(answerer, PerturbedAnswerer):
        observed = cube.payload_counts(enc)
        return (answerer.weight_rows(enc) * observed).sum(axis=1)
    if isinstance(answerer, AnatomyAnswerer):
        group_sums = cube.payload_counts(enc)
        return (group_sums * answerer.fraction_rows(enc)).sum(axis=1)
    qi_sums = cube.qi_counts(enc)  # full-SA lookup → QI-box measure sums
    return qi_sums * (
        answerer.sa_prefix[enc.sa_hi + 1] - answerer.sa_prefix[enc.sa_lo]
    )


def _masked_measure_sums(
    answerer, chunk: EncodedWorkload, masks: np.ndarray, measure: np.ndarray
) -> np.ndarray:
    """SUM estimates from shared QI masks (the bitmap path)."""
    out = np.empty(chunk.n_queries)
    if isinstance(answerer, PerturbedAnswerer):
        sa_perturbed = answerer.published.sa_perturbed
        m = answerer.published.source.sa_cardinality
        for i, query in enumerate(chunk.queries):
            mask = masks[i]
            observed = np.bincount(
                sa_perturbed[mask], weights=measure[mask], minlength=m
            )
            out[i] = (answerer._weights(query.sa_range) * observed).sum()
        return out
    if isinstance(answerer, AnatomyAnswerer):
        n_groups = answerer.sa_prefix.shape[0]
        for i, query in enumerate(chunk.queries):
            mask = masks[i]
            lo, hi = query.sa_range
            group_sums = np.bincount(
                answerer.group_of[mask],
                weights=measure[mask],
                minlength=n_groups,
            )
            fractions = answerer.sa_prefix[:, hi + 1] - answerer.sa_prefix[:, lo]
            out[i] = (group_sums * fractions).sum()
        return out
    qi_sums = np.array(
        [measure[masks[i]].sum() for i in range(chunk.n_queries)],
        dtype=np.int64,
    )
    return qi_sums * (
        answerer.sa_prefix[chunk.sa_hi + 1] - answerer.sa_prefix[chunk.sa_lo]
    )


def answer_aggregate(
    published, query: CountQuery, measure_dim: int, op: str = "sum"
) -> float:
    """Scalar-reference SUM/AVG estimate for one query.

    Accepts any of the four publication kinds (or a prebuilt answerer);
    the batch path (:func:`batch_aggregate_estimates`) is bit-identical
    to this under every backend.
    """
    check_aggregate_op(op)
    answerer = _coerce_answerer(published)
    source = answerer.published.source
    measure = _measure(source, measure_dim)
    enc = EncodedWorkload.encode(source.schema, (query,))
    if isinstance(answerer, GeneralizedAnswerer):
        total = _generalized_query_sum(answerer, enc, 0, measure_dim)
    else:
        masks = qi_mask(source, query)[None, :]
        total = float(_masked_measure_sums(answerer, enc, masks, measure)[0])
    if op == "sum":
        return total
    return float(_divide(np.float64(total), np.float64(answerer(query))))


def batch_aggregate_estimates(
    table: Table,
    publications: Mapping[str, object],
    queries: Sequence[CountQuery] | EncodedWorkload,
    measure_dim: int,
    op: str = "sum",
    *,
    artifacts=None,
    backend: str = "auto",
    served: "dict[str, str] | None" = None,
) -> "dict[str, np.ndarray]":
    """Batch SUM/AVG estimates of every publication over one workload.

    The aggregate sibling of
    :func:`~repro.query.evaluate.batch_estimates`: same backend
    semantics and ``served`` labels, same shared-mask bitmap path, and
    the same bit-identity guarantee against :func:`answer_aggregate`.
    """
    check_backend(backend)
    check_aggregate_op(op)
    enc = _encoded(table, queries, artifacts)
    answerers = {
        name: _coerce_answerer(value) for name, value in publications.items()
    }
    for name, answerer in answerers.items():
        source = _source_of(answerer)
        if source is not None:
            _check_source(name, source, table)
    if served is None:
        served = {}
    sums: dict[str, np.ndarray] = {}
    mask_users: dict[str, object] = {}
    for name, answerer in answerers.items():
        if isinstance(answerer, GeneralizedAnswerer):
            sums[name] = _generalized_measure_sums(answerer, enc, measure_dim)
            served[name] = "ec"
        elif isinstance(
            answerer, (PerturbedAnswerer, AnatomyAnswerer, BaselineAnswerer)
        ):
            cube = _measure_cube(
                answerer.published, measure_dim, artifacts, backend
            )
            if isinstance(answerer, BaselineAnswerer):
                usable = cube is not None and cube.table is not None
            else:
                usable = cube is not None and cube.payload is not None
            if usable:
                sums[name] = _cube_measure_sums(answerer, enc, cube)
                served[name] = "cube"
            else:
                mask_users[name] = answerer
                served[name] = "bitmap"
        else:
            raise TypeError(
                f"no aggregate estimator for {type(answerer).__name__!r}"
            )
    if mask_users:
        engine = mask_engine(table, artifacts)
        measure = _measure(table, measure_dim)
        for start, stop in engine._blocks(enc.n_queries):
            masks = engine.qi_mask_block(enc, start, stop)
            chunk = enc.slice(start, stop)
            for name, answerer in mask_users.items():
                block = _masked_measure_sums(answerer, chunk, masks, measure)
                sums.setdefault(name, np.empty(enc.n_queries))[
                    start:stop
                ] = block
    if op == "sum":
        return {name: sums[name] for name in answerers}
    counts = batch_estimates(
        table, publications, enc, artifacts, backend=backend
    )
    return {name: _divide(sums[name], counts[name]) for name in answerers}


__all__ = [
    "AGGREGATE_OPS",
    "answer_aggregate",
    "answer_aggregate_precise",
    "batch_aggregate_estimates",
    "batch_aggregate_precise",
    "check_aggregate_op",
]
