"""Reallocation phase of BUREL: the ECTree (Section 4.4).

Strict proportionality can force enormous equivalence classes (a bucket
of prime size would force a single EC spanning the whole table), so
BUREL relaxes it: EC sizes are fixed by a binary tree built top-down.
The root holds the whole bucket partition, ``[|B_1|, .., |B_φ|]``; a node
splits into two children by halving each bucket count (``n // 2`` and
``n - n // 2``, matching the paper's Example 2 arithmetic); a split is
allowed only when **both** children satisfy the eligibility condition of
Theorem 1:

.. math:: \\frac{x_j}{|G|} \\le f(p_{ℓ_j}) \\quad \\forall j

Leaves of the fully-split tree prescribe how many tuples each EC draws
from each bucket.

The tree is built one level at a time: a level's K nodes form one
``(K, φ)`` count matrix, which is halved, and whose children are tested,
in a few array operations.  A node's split depends only on its own
counts, so the level pass makes exactly the splits a node-by-node
recursion makes; the leaves are put back in that recursion's
depth-first, left-first order by sorting their root-to-leaf paths.

The eligibility test is injected as a batched callable (:data:`Eligibility`)
so SABRE's worst-case-EMD condition (``repro.anonymity.sabre``) can reuse
the same tree machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bucketize import BucketPartition
from .model import TOLERANCE

#: An eligibility predicate over a level of nodes: (per-bucket draw
#: counts ``(K, φ)``, node sizes ``(K,)``) -> bool ``(K,)``.  Called with
#: one node's ``(φ,)`` counts and its size it returns a plain ``bool``.
Eligibility = Callable[[np.ndarray, np.ndarray], "np.ndarray | bool"]


def share_eligibility(rule: Callable[[np.ndarray], np.ndarray]) -> Eligibility:
    """Lift a test on per-node bucket shares to the :data:`Eligibility`
    contract.

    ``rule`` maps a ``(K, φ)`` matrix of shares ``counts / size`` to a
    bool ``(K,)`` verdict.  Empty nodes are never eligible.
    """

    def eligible(counts: np.ndarray, sizes: np.ndarray) -> "np.ndarray | bool":
        counts = np.asarray(counts)
        sizes = np.atleast_1d(sizes)
        shares = np.atleast_2d(counts) / np.maximum(sizes, 1)[:, None]
        ok = (sizes > 0) & rule(shares)
        return ok if counts.ndim == 2 else bool(ok[0])

    return eligible


def beta_eligibility(f_min: np.ndarray) -> Eligibility:
    """Theorem 1's condition: every bucket's share is capped by
    ``f(p_{ℓ_j})``."""
    limit = np.asarray(f_min, dtype=float) + TOLERANCE
    return share_eligibility(lambda shares: (shares <= limit).all(axis=1))


@dataclass
class ECTree:
    """The leaf size specifications of a built ECTree, one per EC, in
    depth-first, left-first order."""

    specs: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return len(self.specs)


def naive_halve(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split counts as the paper's Example 2 does: left gets ``n // 2``.

    Every odd bucket's extra tuple lands in the right child.  Down a deep
    tree this systematic drift accumulates in one lineage, so buckets
    whose proportional share sits close to its eligibility cap stop the
    splitting early.  Kept as the paper-verbatim ablation; see
    :func:`balanced_halve`.  A ``(K, φ)`` input halves each row.
    """
    left = counts // 2
    return left, counts - left


def balanced_halve(
    counts: np.ndarray, f_min: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Halve each bucket, distributing odd remainders across children.

    Like the paper's split, each bucket contributes ``n // 2`` or
    ``n - n // 2`` tuples to each child and the child totals are
    ``|G| // 2`` and ``|G| - |G| // 2``.  Unlike the paper's split, the
    extra tuples of odd buckets are spread over *both* children — most
    cap-constrained buckets first — so no child accumulates systematic
    rounding drift.  This markedly deepens the ECTree when a bucket's
    weight sits close to its cap (DESIGN.md §6) while remaining a
    per-bucket floor/ceil split exactly as in the paper.

    Of ``k`` odd buckets, the right child takes ``⌈k/2⌉`` extras (its
    size is ``|G| - |G| // 2``) and the left ``⌊k/2⌋``.  The right child
    is never the smaller one, so an extra tuple is never a larger share
    of it than of the left: the right child always takes the lower
    share, and the most constrained buckets' extras go there first.

    Args:
        counts: Per-bucket tuple counts of one node ``(φ,)``, or of a
            level of nodes ``(K, φ)``, halved row by row.
        f_min: Optional per-bucket eligibility caps used to order the
            remainder assignment (most constrained first); without it,
            buckets are processed in index order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    # Odd buckets in cap order: of a row's k odd buckets, the first ⌈k/2⌉
    # by running count send their extra tuple right.
    order = (
        np.arange(counts.shape[-1])
        if f_min is None
        else np.argsort(np.asarray(f_min, dtype=float), kind="stable")
    )
    odd = np.atleast_2d(counts % 2 == 1)[:, order]
    k = odd.sum(axis=1, keepdims=True)
    odd &= np.cumsum(odd, axis=1) <= k - k // 2
    right = counts // 2 + odd[:, np.argsort(order)].reshape(counts.shape)
    return counts - right, right


def separating_split(
    counts: np.ndarray, f_min: np.ndarray, margin: float = 0.5
) -> tuple[np.ndarray, np.ndarray] | None:
    """Quarantine the most cap-constrained bucket into one child.

    When halving stalls, the binding constraint is a bucket whose
    eligibility cap ``f(p_{ℓ_j})`` is too small to survive integer
    rounding at half the node size.  This split sends that bucket's
    *entire* count to the right child — padded with a proportional share
    of every other bucket so the quarantined share sits at
    ``margin * f`` — and leaves the left child without the bucket
    altogether (β-likeness permits absent values, a flexibility the
    paper highlights over δ-disclosure-privacy).  The left child can
    then keep splitting, which is what produces the small frequent-only
    ECs visible in the paper's §7 diversity table.

    Returns ``None`` when the node cannot be separated (the quarantined
    bucket needs more companion mass than the node holds).
    """
    counts = np.asarray(counts, dtype=np.int64)
    rows, left, right = _separating_splits(
        counts[None], np.asarray(f_min, dtype=float), margin
    )
    return (left[0], right[0]) if rows.size else None


def _separating_splits(
    counts: np.ndarray, f_min: np.ndarray, margin: float = 0.5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`separating_split` of each row of ``counts (K, φ)``: the
    indices of the rows that separate, and their left and right children.

    The sizing test, which rejects most stalled nodes, runs as one array
    pass; only rows it passes are padded, one at a time.
    """
    # The quarantined bucket: the first occupied one in cap order.
    order = np.argsort(f_min, kind="stable")
    target = order[(counts > 0)[:, order].argmax(axis=1)]
    c_star = np.take_along_axis(counts, target[:, None], axis=1)[:, 0]
    # Right child size making the quarantined share = margin * cap.  Both
    # children need tuples, and the right one companions; a node holding
    # a single occupied bucket (size == c_star) fails this test too.
    size_right = np.ceil(c_star / (margin * f_min[target])).astype(np.int64)
    possible = (size_right < counts.sum(axis=1)) & (size_right > c_star)
    rows, lefts, rights = [], [], []
    for i in np.flatnonzero(possible):
        parts = _pad_quarantine(counts[i], int(target[i]), int(size_right[i]))
        if parts is not None:
            rows.append(i)
            lefts.append(parts[0])
            rights.append(parts[1])
    shape = (len(rows), counts.shape[1])
    return (
        np.array(rows, dtype=np.intp),
        np.array(lefts, dtype=np.int64).reshape(shape),
        np.array(rights, dtype=np.int64).reshape(shape),
    )


def _pad_quarantine(
    counts: np.ndarray, target: int, size_right: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Fill the right child around the quarantined bucket proportionally
    from the other buckets (largest-remainder rounding to hit the size
    exactly)."""
    c_star = int(counts[target])
    others = counts.astype(float)
    others[target] = 0.0
    pad_total = size_right - c_star
    raw = others * (pad_total / others.sum())
    pad = np.floor(raw).astype(np.int64)
    deficit = pad_total - int(pad.sum())
    if deficit > 0:
        order = np.argsort(-(raw - np.floor(raw)), kind="stable")
        for j in order:
            if deficit == 0:
                break
            if counts[j] - pad[j] > 0 and j != target:
                pad[j] += 1
                deficit -= 1
    if deficit != 0:
        return None
    right = pad
    right[target] = c_star
    left = counts - right
    if int(left.sum()) == 0:
        return None
    return left, right


def _splittable(
    eligible: Eligibility, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Rows whose two children are both non-empty and eligible."""
    left_size = left.sum(axis=1)
    right_size = right.sum(axis=1)
    return (
        (left_size > 0)
        & (right_size > 0)
        & eligible(left, left_size)
        & eligible(right, right_size)
    )


def build_ectree(
    bucket_sizes: Sequence[int],
    eligible: Eligibility,
    f_min: np.ndarray | None = None,
    balanced: bool = True,
    separate: bool = True,
) -> ECTree:
    """Build the ECTree one level at a time (function ``biSplit``).

    Every node is first halved bucket-by-bucket (the paper's split); when
    both halves cannot satisfy the eligibility predicate, an optional
    *separating* split quarantines the most constrained bucket so the
    remainder can keep splitting (see :func:`separating_split`).  A level
    is halved and tested as one ``(K, φ)`` matrix; its stalled rows try
    a separating split, sized in one array pass and padded one row at a
    time where the size allows it.  The leaves come out in
    the depth-first, left-first order of a node-by-node recursion.

    Args:
        bucket_sizes: ``[|B_1|, .., |B_φ|]`` from the bucketization phase.
        eligible: The batched eligibility predicate both children must
            pass.
        f_min: Per-bucket caps, used by the balanced split to order
            remainder assignment and by the separating split for sizing.
            Required when ``separate`` is True.
        balanced: Use :func:`balanced_halve` (default) or the paper's
            verbatim :func:`naive_halve`.
        separate: Attempt :func:`separating_split` when halving stalls
            (default).  Disable for the paper-verbatim tree.

    Returns:
        The tree; ``tree.specs`` lists one per-bucket draw vector per EC.

    Raises:
        ValueError: If the root itself is ineligible (cannot happen for a
            partition produced by ``DPpartition``, by Lemma 2).
    """
    root = np.asarray(bucket_sizes, dtype=np.int64)
    if root.ndim != 1 or root.size == 0:
        raise ValueError("bucket_sizes must be a non-empty vector")
    if np.any(root < 0) or root.sum() == 0:
        raise ValueError("bucket sizes must be non-negative with positive total")
    if f_min is not None:
        f_min = np.asarray(f_min, dtype=float)
    elif separate:
        raise ValueError("separating splits require f_min")
    if not eligible(root, int(root.sum())):
        raise ValueError(
            "the whole table violates the eligibility condition; the bucket "
            "partition does not satisfy Lemma 2"
        )

    nodes = root[None, :]
    # Root-to-node paths, one column per level (0 = left, 1 = right); the
    # root's own constant column keeps the sort keys non-empty.
    paths = np.zeros((1, 1), dtype=np.uint8)
    leaf_counts: list[np.ndarray] = []
    leaf_paths: list[np.ndarray] = []
    while nodes.shape[0]:
        if balanced:
            left, right = balanced_halve(nodes, f_min)
        else:
            left, right = naive_halve(nodes)
        split = _splittable(eligible, left, right)
        if separate:
            stalled = np.flatnonzero(~split)
            rows, sep_left, sep_right = _separating_splits(nodes[stalled], f_min)
            ok = _splittable(eligible, sep_left, sep_right)
            rows = stalled[rows[ok]]
            left[rows] = sep_left[ok]
            right[rows] = sep_right[ok]
            split[rows] = True
        leaf_counts.append(nodes[~split])
        leaf_paths.append(paths[~split])
        # The next level: all left children, then all right children.
        nodes = np.concatenate((left[split], right[split]))
        paths = np.column_stack(
            (
                np.tile(paths[split], (2, 1)),
                np.repeat(np.array([0, 1], dtype=np.uint8), len(nodes) // 2),
            )
        )
    # Leaf paths are prefix-free, so padding them with zeros to one length
    # and sorting them lexicographically gives depth-first, left-first order.
    depth = max(p.shape[1] for p in leaf_paths)
    padded = np.concatenate(
        [np.pad(p, ((0, 0), (0, depth - p.shape[1]))) for p in leaf_paths]
    )
    specs = np.concatenate(leaf_counts)[np.lexsort(padded.T[::-1])]
    return ECTree(specs=list(specs))


def bi_split(
    partition: BucketPartition,
    eligible: Eligibility | None = None,
    bucket_sizes: Sequence[int] | None = None,
    balanced: bool = True,
    separate: bool = True,
) -> list[np.ndarray]:
    """Determine EC sizes for a bucket partition (paper's ``biSplit``).

    Args:
        partition: Output of the bucketization phase; provides the default
            eligibility caps ``f(p_{ℓ_j})`` and the separating split's
            sizing caps.
        eligible: Optional override of the batched eligibility predicate
            (SABRE passes its worst-case-EMD test).
        bucket_sizes: Actual tuple counts per bucket.
        balanced: Forwarded to :func:`build_ectree`.
        separate: Forwarded to :func:`build_ectree`.

    Returns:
        One per-bucket draw-count vector per EC, in the ECTree's
        depth-first, left-first leaf order.
    """
    if bucket_sizes is None:
        raise ValueError("bucket_sizes is required (per-bucket tuple counts)")
    if eligible is None:
        eligible = beta_eligibility(partition.f_min)
    return build_ectree(
        bucket_sizes,
        eligible,
        f_min=partition.f_min,
        balanced=balanced,
        separate=separate,
    ).specs
