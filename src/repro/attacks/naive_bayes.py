"""The Naive Bayes attack of Section 7 (Eqs. 15–17).

Cormode showed that a Naive Bayes classifier can infer SA values from
anonymized (even differentially private) data with non-trivial accuracy.
The paper argues β-likeness bounds exactly the conditional probabilities
such a classifier exploits:

.. math:: \\hat v(t) = \\arg\\max_{v_i} \\Pr[v_i] \\prod_j \\Pr[t_j | v_i]

with, for a generalized publication (Eq. 17),

.. math::
   \\Pr[t_j | v_i] = \\frac{\\sum_{G \\ni t_j} q_i^G |G|}{p_i |DB|}

where the sum ranges over ECs whose generalized box covers the QI value
``t_j``.  β-likeness guarantees ``Pr[t_j|v_i] <= (1 + min{β, -ln p_i})
Pr[t_j]``, so the attack degenerates to predicting (mostly) the most
frequent SA value; its accuracy should stay near ``max_i p_i``
(≈ 4.84% on CENSUS).

``naive_bayes_attack`` mounts the attack against a
:class:`~repro.dataset.published.GeneralizedTable` and reports accuracy
against the true SA values; ``naive_bayes_attack_raw`` trains on the
original microdata as the no-anonymization upper bound.

The per-EC box-scatter in ``_conditional_matrix_generalized`` is the
*scalar reference*; the batched audit engine
(:mod:`repro.audit.attacks`) builds the same conditionals by a
difference-array cumulative sum with bit-identical predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._distinct import distinct_rows
from ..dataset.published import GeneralizedTable
from ..dataset.table import Table


@dataclass(frozen=True)
class AttackResult:
    """Outcome of an inference attack.

    Attributes:
        accuracy: Fraction of tuples whose SA value was predicted
            correctly.
        majority_baseline: Frequency of the most frequent SA value — the
            accuracy of always guessing the mode.
        predictions: Predicted SA code per tuple.
    """

    accuracy: float
    majority_baseline: float
    predictions: np.ndarray


def _conditional_matrix_generalized(
    published: GeneralizedTable, dim: int
) -> np.ndarray:
    """``Pr[t_j | v_i]`` for every value ``t_j`` of QI attribute ``dim``.

    Implements Eq. 17: the numerator counts tuples with SA value ``v_i``
    inside ECs whose box covers ``t_j``; the denominator is the total
    count of ``v_i``.  Returned as an array ``M[a, i]`` over attribute
    values ``a`` (offset by the attribute's ``lo``) and SA codes ``i``.
    """
    table = published.source
    attr = table.schema.qi[dim]
    n_values = attr.cardinality
    m = table.sa_cardinality
    numerator = np.zeros((n_values, m), dtype=float)
    for ec in published:
        lo, hi = ec.box[dim]
        numerator[lo - attr.lo : hi - attr.lo + 1, :] += ec.sa_counts
    totals = table.sa_counts().astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(totals > 0, numerator / totals, 0.0)
    return conditional


def _conditional_matrix_raw(table: Table, dim: int) -> np.ndarray:
    """Exact ``Pr[t_j | v_i]`` from the original microdata."""
    attr = table.schema.qi[dim]
    n_values = attr.cardinality
    m = table.sa_cardinality
    joint = np.zeros((n_values, m), dtype=float)
    np.add.at(joint, (table.qi[:, dim] - attr.lo, table.sa), 1.0)
    totals = table.sa_counts().astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(totals > 0, joint / totals, 0.0)
    return conditional


def _log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.where(values > 0, values, 1e-300))


def _predict(
    table: Table, conditionals: list[np.ndarray]
) -> np.ndarray:
    """Eq. 15's argmax over log-space scores, once per distinct QI tuple.

    A tuple's score depends only on its QI values, so each distinct tuple
    (one exact mixed-radix code, :func:`~repro._distinct.distinct_rows`)
    is scored once and its prediction expanded to every row that shares
    it.  The log of each small ``(values, m)`` conditional matrix is
    taken before the per-tuple gather.  Each score is the same float64
    sum, in the same order, as scoring every row, so the predictions are
    bit-identical; the working set is ``distinct × m`` instead of
    ``n × m``.
    """
    qi = table.schema.qi
    first, inverse = distinct_rows(
        [table.qi[:, dim] - attr.lo for dim, attr in enumerate(qi)],
        [attr.cardinality for attr in qi],
    )
    tuples = table.qi[first]
    scores = np.tile(_log(table.sa_distribution()), (first.shape[0], 1))
    for dim, conditional in enumerate(conditionals):
        scores += _log(conditional)[tuples[:, dim] - qi[dim].lo, :]
    return np.argmax(scores, axis=1).astype(np.int64)[inverse]


def naive_bayes_attack(published: GeneralizedTable) -> AttackResult:
    """Mount the §7 Naive Bayes attack on a generalized publication."""
    table = published.source
    conditionals = [
        _conditional_matrix_generalized(published, dim)
        for dim in range(table.schema.n_qi)
    ]
    predictions = _predict(table, conditionals)
    return AttackResult(
        accuracy=float(np.mean(predictions == table.sa)),
        majority_baseline=float(table.sa_distribution().max()),
        predictions=predictions,
    )


def naive_bayes_attack_raw(table: Table) -> AttackResult:
    """Upper bound: the same classifier trained on unprotected data."""
    conditionals = [
        _conditional_matrix_raw(table, dim) for dim in range(table.schema.n_qi)
    ]
    predictions = _predict(table, conditionals)
    return AttackResult(
        accuracy=float(np.mean(predictions == table.sa)),
        majority_baseline=float(table.sa_distribution().max()),
        predictions=predictions,
    )
