"""SABRE: bucketization + redistribution for t-closeness (§6.1 comparator).

The paper compares BUREL against SABRE (Cao, Karras, Kalnis, Tan, VLDB
Journal 2011), a t-closeness-specific two-phase algorithm with the same
architecture BUREL later adopted for β-likeness: SA values are grouped
into buckets such that ECs composed proportionally obey the privacy
condition, then EC sizes are fixed by recursive splitting and tuples are
materialized with QI-space locality.

SABRE's original bucketization walks the SA hierarchy to bound a
hierarchical EMD.  This reimplementation supports the two ground
distances the evaluation needs (DESIGN.md §3):

* **equal distance** (``ordered=False``) — the worst-case EMD of an EC
  drawing ``x_j`` tuples from bucket ``B_j`` is
  ``sum_j max(x_j/|G| - p_{ℓ_j}, 0)`` (all of a bucket's mass lands on
  its least frequent value; concentration dominates any other
  within-bucket composition);
* **ordered distance** (``ordered=True``, for ordinal SAs such as the
  CENSUS salary classes) — within-bucket reshuffling costs at most the
  bucket's ordinal *span*, giving the bound
  ``sum_j (x_j/|G|) * span_j/(m-1) + sum_j max(x_j/|G| - w_j, 0)``
  (the second term prices deviation from proportionality at the maximal
  unit cost of 1).

Bucketization packs frequency-sorted values into the fewest buckets
whose total worst-case EMD stays within ``t``; the redistribution tree
reuses BUREL's machinery with the matching eligibility predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bucketize import BucketPartition
from ..core.ectree import share_eligibility
from ..core.model import TOLERANCE
from ..dataset.published import GeneralizedTable
from ..dataset.table import Table


@dataclass
class SabreResult:
    """Published table plus provenance for experiments."""

    published: GeneralizedTable
    partition: BucketPartition
    t: float
    ordered: bool
    elapsed_seconds: float


def _bucket_spans(buckets, m: int) -> np.ndarray:
    """Normalized ordinal span of each bucket's value set."""
    if m <= 1:
        return np.zeros(len(buckets))
    return np.array(
        [(int(b.max()) - int(b.min())) / (m - 1) for b in buckets]
    )


def emd_eligibility(partition: BucketPartition, t: float, ordered: bool, m: int):
    """Batched :data:`~repro.core.ectree.Eligibility`: a node's worst-case
    EMD must not exceed ``t``.

    Each row's terms are summed along the row, in the order a 1-D
    ``.sum()`` over that node's shares takes, so a threshold decision is
    the same for a node tested alone or inside a level matrix.
    """
    min_freq = np.asarray(partition.min_freq, dtype=float)
    weights = np.asarray(partition.weights, dtype=float)
    spans = _bucket_spans(partition.buckets, m)
    limit = t + TOLERANCE

    def equal_within_t(shares: np.ndarray) -> np.ndarray:
        return np.maximum(shares - min_freq, 0.0).sum(axis=1) <= limit

    def ordered_within_t(shares: np.ndarray) -> np.ndarray:
        worst = (shares * spans).sum(axis=1)
        worst += np.maximum(shares - weights, 0.0).sum(axis=1)
        return worst <= limit

    return share_eligibility(ordered_within_t if ordered else equal_within_t)


def sabre_partition(
    probs: np.ndarray, t: float, ordered: bool = False
) -> BucketPartition:
    """Minimum-bucket partition with total worst-case EMD within ``t``.

    Dynamic program over ascending-frequency prefixes: ``dp[e][c]`` =
    least total cost partitioning the first ``e`` values into ``c``
    buckets, where a window's cost is its worst-case EMD contribution
    under the chosen ground distance.  The answer is the smallest ``c``
    whose best cost fits the budget (ties resolved toward smaller cost,
    leaving more headroom for the redistribution phase).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    probs = np.asarray(probs, dtype=float)
    present = np.nonzero(probs > 0)[0]
    if present.size == 0:
        raise ValueError("the table has no sensitive values")
    order = present[np.lexsort((present, probs[present]))]
    p = probs[order]
    m_present = p.shape[0]
    m_domain = probs.shape[0]
    prefix = np.concatenate([[0.0], np.cumsum(p)])

    # Ordinal positions (over the full domain) of the frequency-sorted
    # values, with running min/max to evaluate window spans in O(1).
    positions = order.astype(np.int64)

    def window_cost(b: int, e: int) -> float:
        """Worst-case EMD contribution of window ``b..e`` (0-based)."""
        weight = prefix[e + 1] - prefix[b]
        if not ordered:
            return float(weight - p[b])
        if m_domain <= 1 or b == e:
            return 0.0
        span = (int(positions[b : e + 1].max()) - int(positions[b : e + 1].min()))
        return float(weight * span / (m_domain - 1))

    INF = float("inf")
    dp = np.full((m_present + 1, m_present + 1), INF)
    dp[0][0] = 0.0
    back = np.zeros((m_present + 1, m_present + 1), dtype=np.int64)
    for e in range(1, m_present + 1):
        for b in range(e, 0, -1):  # window covers values b..e (1-based)
            w_cost = window_cost(b - 1, e - 1)
            if w_cost > t:
                # Equal-distance cost grows monotonically as the window
                # widens; the ordered cost may not, so only prune the
                # scan in the monotone case.
                if not ordered:
                    break
                continue
            for c in range(1, e + 1):
                if dp[b - 1][c - 1] + w_cost < dp[e][c]:
                    dp[e][c] = dp[b - 1][c - 1] + w_cost
                    back[e][c] = b

    chosen_c = None
    for c in range(1, m_present + 1):
        if dp[m_present][c] <= t + TOLERANCE:
            chosen_c = c
            break
    if chosen_c is None:
        raise ValueError(f"no bucketization satisfies t={t}")

    boundaries: list[tuple[int, int]] = []
    e, c = m_present, chosen_c
    while e > 0:
        b = int(back[e][c])
        boundaries.append((b - 1, e - 1))
        e, c = b - 1, c - 1
    boundaries.reverse()

    buckets, weights, min_freq = [], [], []
    for b, e in boundaries:
        values = order[b : e + 1]
        buckets.append(np.array(sorted(int(v) for v in values), dtype=np.int64))
        weights.append(float(probs[values].sum()))
        min_freq.append(float(probs[values].min()))
    min_arr = np.array(min_freq)
    # f_min records a per-bucket share cap analog used only to order
    # splitting heuristics; the real constraint lives in the eligibility
    # predicate.
    return BucketPartition(
        buckets=tuple(buckets),
        weights=np.array(weights),
        min_freq=min_arr,
        f_min=min_arr + t,
    )


def sabre(
    table: Table,
    t: float,
    ordered: bool = False,
    rng: np.random.Generator | None = None,
) -> SabreResult:
    """Anonymize ``table`` to satisfy t-closeness.

    Args:
        table: The microdata to publish.
        t: The closeness threshold in (0, 1].
        ordered: Use the ordered ground distance (for ordinal SA
            domains) instead of the equal distance.
        rng: Optional generator randomizing retrieval seeds.

    Returns:
        A :class:`SabreResult`; the published classes satisfy
        ``EMD(P, Q) <= t`` for every EC by the worst-case bound.

    Routed through the staged engine (``repro.engine``); this wrapper
    keeps the historical call shape and result type.
    """
    from ..engine import run as engine_run

    result = engine_run("sabre", table, rng=rng, t=t, ordered=ordered)
    return SabreResult(
        published=result.published,
        partition=result.provenance["partition"],
        t=t,
        ordered=ordered,
        elapsed_seconds=result.elapsed_seconds,
    )
