"""Information-loss metrics for generalized publications (Section 4.1).

Implements Eqs. 2–5 of the paper:

* numerical attribute loss ``IL_NA(G) = (u - l) / (U - L)`` (Eq. 2);
* categorical attribute loss ``IL_CA(G) = |leaves(lca)| / |leaves(H)|``,
  zero when the class is not generalized on that attribute (Eq. 3);
* per-class loss ``IL(G) = sum_i w_i * IL_{A_i}(G)`` with weights
  defaulting to ``1/d`` (Eq. 4);
* table-level Average Information Loss
  ``AIL = sum_G |G| * IL(G) / |DB|`` (Eq. 5).

Two auxiliary metrics common in the anonymization literature are included
for ablations: the discernibility metric and the average EC size.
"""

from __future__ import annotations

from typing import Sequence

from ..dataset.published import EquivalenceClass, GeneralizedTable
from ..dataset.schema import AttributeKind, Schema


def il_attribute(
    schema: Schema, attr_index: int, lo: int, hi: int
) -> float:
    """Information loss of one attribute interval of a class box."""
    attr = schema.qi[attr_index]
    if attr.kind is AttributeKind.NUMERICAL:
        if attr.width == 0:
            return 0.0
        return (hi - lo) / attr.width
    # Categorical: Eq. 3 via the LCA of the rank interval.
    return attr.hierarchy.generalization_cost(lo, hi)


def il_class(
    schema: Schema,
    ec: EquivalenceClass,
    weights: Sequence[float] | None = None,
) -> float:
    """Total information loss ``IL(G)`` of one EC (Eq. 4)."""
    return _il_box(schema, ec.box, weights)


def _il_box(
    schema: Schema,
    box: Sequence[Sequence[int]],
    weights: Sequence[float] | None = None,
) -> float:
    d = schema.n_qi
    if weights is None:
        weights = [1.0 / d] * d
    elif len(weights) != d or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must match QI count and sum to 1")
    return float(
        sum(
            w * il_attribute(schema, j, lo, hi)
            for j, (w, (lo, hi)) in enumerate(zip(weights, box))
        )
    )


def average_information_loss(
    published: GeneralizedTable, weights: Sequence[float] | None = None
) -> float:
    """``AIL`` over a published table (Eq. 5)."""
    total = sum(
        size * _il_box(published.schema, box, weights)
        for size, box in zip(
            published.sizes.tolist(), published.boxes.tolist()
        )
    )
    return float(total / published.n_rows)


def discernibility(published: GeneralizedTable) -> float:
    """Discernibility metric: ``sum_G |G|^2`` (extra utility diagnostic)."""
    return float((published.sizes**2).sum())


def average_class_size(published: GeneralizedTable) -> float:
    """Mean EC size (extra utility diagnostic)."""
    return float(published.sizes.mean())
