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

So COUNT is SUM with unit weights, and both run through one seam
(:func:`repro.query.evaluate.answer_batch`): the batch entry points
here pass it a measure dim, and AVG is SUM ÷ COUNT with both sides
estimated by the same backend (``nan`` where the COUNT estimate is
zero).

Every batch path is **bit-identical** to the scalar references here
(:func:`answer_aggregate_precise`, :func:`answer_aggregate`), which
reduce one query at a time without the batch kernels: integer measure
sums are order-free and exact in float64, and the final float
operations are the same.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..dataset.table import Table
from .answer import AnatomyAnswerer, GeneralizedAnswerer, PerturbedAnswerer
from .evaluate import (
    AGGREGATE_OPS,
    _as_answerer,
    _check_measure_dim,
    _divide,
    _encoded,
    _measure_column,
    _precise,
    answer_batch,
    answer_precise_batch,
    check_aggregate_op,
    check_backend,
)
from .workload import CountQuery, EncodedWorkload, qi_mask, sa_bounds

# ----------------------------------------------------------------------
# Precise aggregates over the source table
# ----------------------------------------------------------------------


def answer_aggregate_precise(
    table: Table, query: CountQuery, measure_dim: int, op: str = "sum"
) -> float:
    """Scalar reference: the exact SUM/AVG over one query's matches."""
    check_aggregate_op(op)
    measure = _measure_column(table, measure_dim)
    lo, hi = sa_bounds(query, table.sa_cardinality)
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
    ``("cube_table", table_digest, measure_dim)``); the bitmap path
    takes per-SA-code measure sums over each query's QI box from the
    engine's histogram pass and sums them over the SA range.
    """
    check_backend(backend)
    check_aggregate_op(op)
    _check_measure_dim(table, measure_dim)
    enc = _encoded(table, queries, artifacts)
    sums = _precise(table, enc, artifacts, backend, measure_dim)
    if op == "sum":
        return sums
    counts = answer_precise_batch(
        table, enc, artifacts=artifacts, backend=backend
    )
    return _divide(sums, counts)


# ----------------------------------------------------------------------
# Aggregate estimates over publications
# ----------------------------------------------------------------------


def _generalized_sum(
    answerer: GeneralizedAnswerer, enc: EncodedWorkload, measure_dim: int
) -> float:
    """A one-query workload's SUM estimate over the EC boxes
    (uniform-in-box)."""
    sa_matches = (
        answerer.sa_prefix_t[enc.sa_hi[0] + 1]
        - answerer.sa_prefix_t[enc.sa_lo[0]]
    ).astype(float)
    fraction = np.ones(answerer.box_lo.shape[0])
    for dim in np.flatnonzero(enc.constrained[0]):
        b_lo = answerer.box_lo[:, dim]
        b_hi = answerer.box_hi[:, dim]
        overlap = (
            np.minimum(b_hi, enc.qi_hi[0, dim])
            - np.maximum(b_lo, enc.qi_lo[0, dim])
            + 1
        )
        fraction *= np.maximum(overlap, 0) / (b_hi - b_lo + 1)
    b_lo = answerer.box_lo[:, measure_dim]
    b_hi = answerer.box_hi[:, measure_dim]
    if enc.constrained[0, measure_dim]:
        # A matching tuple is uniform over the box ∩ query interval;
        # inverted (empty) overlaps are annihilated by fraction == 0.
        b_lo = np.maximum(b_lo, enc.qi_lo[0, measure_dim])
        b_hi = np.minimum(b_hi, enc.qi_hi[0, measure_dim])
    midpoints = (b_lo + b_hi) / 2.0
    return float((fraction * sa_matches * midpoints).sum())


def answer_aggregate(
    published, query: CountQuery, measure_dim: int, op: str = "sum"
) -> float:
    """Scalar-reference SUM/AVG estimate for one query.

    Accepts any of the four publication kinds (or a prebuilt answerer)
    and reduces the query's own row mask, so it shares no kernel with
    the batch path (:func:`batch_aggregate_estimates`), which is
    bit-identical to it under every backend.
    """
    check_aggregate_op(op)
    answerer = _as_answerer(published)
    source = answerer.published.source
    measure = _measure_column(source, measure_dim)
    enc = EncodedWorkload.encode(source.schema, (query,))
    lo, hi = sa_bounds(query, source.sa_cardinality)
    if isinstance(answerer, GeneralizedAnswerer):
        total = _generalized_sum(answerer, enc, measure_dim)
    else:
        mask = qi_mask(source, query)
        if isinstance(answerer, PerturbedAnswerer):
            observed = np.bincount(
                answerer.published.sa_perturbed[mask],
                weights=measure[mask],
                minlength=source.sa_cardinality,
            )
            total = (answerer._weights((lo, hi)) * observed).sum()
        elif isinstance(answerer, AnatomyAnswerer):
            group_sums = np.bincount(
                answerer.group_of[mask],
                weights=measure[mask],
                minlength=answerer.published.n_groups,
            )
            fractions = answerer.sa_prefix[hi + 1] - answerer.sa_prefix[lo]
            total = (group_sums * fractions).sum()
        else:
            mass = (
                answerer.sa_prefix[enc.sa_hi[0] + 1]
                - answerer.sa_prefix[enc.sa_lo[0]]
            )
            total = measure[mask].sum() * mass
        total = float(total)
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
    :func:`~repro.query.evaluate.batch_estimates`: same seam, backend
    semantics and ``served`` labels (of the SUM pass), and the same
    bit-identity guarantee against :func:`answer_aggregate`.
    """
    return answer_batch(
        table, publications, queries, (measure_dim, op),
        artifacts=artifacts, backend=backend, served=served,
    )


__all__ = [
    "AGGREGATE_OPS",
    "answer_aggregate",
    "answer_aggregate_precise",
    "batch_aggregate_estimates",
    "batch_aggregate_precise",
    "check_aggregate_op",
]
