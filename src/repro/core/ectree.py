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

The eligibility test is injected as a callable so SABRE's worst-case-EMD
condition (``repro.anonymity.sabre``) can reuse the same tree machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bucketize import BucketPartition
from .model import TOLERANCE

#: An eligibility predicate: (bucket draw counts, EC size) -> bool.
Eligibility = Callable[[np.ndarray, int], bool]


def beta_eligibility(f_min: np.ndarray) -> Eligibility:
    """Theorem 1's condition: every bucket's share is capped by
    ``f(p_{ℓ_j})``."""
    limit = np.asarray(f_min, dtype=float) + TOLERANCE

    def eligible(counts: np.ndarray, size: int) -> bool:
        if size <= 0:
            return False
        return bool((counts / size <= limit).all())

    return eligible


@dataclass
class ECNode:
    """A node of the ECTree: a vector of per-bucket draw counts."""

    counts: np.ndarray
    left: "ECNode | None" = None
    right: "ECNode | None" = None

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def leaves(self) -> list["ECNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()


@dataclass
class ECTree:
    """The full tree plus its leaf size specifications."""

    root: ECNode
    specs: list[np.ndarray] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.specs)


def naive_halve(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split counts as the paper's Example 2 does: left gets ``n // 2``.

    Every odd bucket's extra tuple lands in the right child.  Down a deep
    tree this systematic drift accumulates in one lineage, so buckets
    whose proportional share sits close to its eligibility cap stop the
    splitting early.  Kept as the paper-verbatim ablation; see
    :func:`balanced_halve`.
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
        counts: Per-bucket tuple counts of the node.
        f_min: Optional per-bucket eligibility caps used to order the
            remainder assignment (most constrained first); without it,
            buckets are processed in index order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    floors = counts // 2
    odd = np.nonzero(counts - 2 * floors)[0]
    if f_min is not None:
        caps = np.asarray(f_min, dtype=float)
        odd = odd[np.argsort(caps[odd], kind="stable")]
    n_right = odd.size - odd.size // 2
    left = floors.copy()
    right = floors.copy()
    right[odd[:n_right]] += 1
    left[odd[n_right:]] += 1
    return left, right


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
    f_min = np.asarray(f_min, dtype=float)
    size = int(counts.sum())
    occupied = np.nonzero(counts)[0]
    if occupied.size < 2:
        return None
    target = occupied[np.argmin(f_min[occupied])]
    c_star = int(counts[target])
    # Right child size making the quarantined share = margin * cap.
    size_right = int(np.ceil(c_star / (margin * f_min[target])))
    if size_right >= size or size_right <= c_star:
        return None
    # Fill the remainder of the right child proportionally from the
    # other buckets (largest-remainder rounding to hit the size exactly).
    others = counts.astype(float).copy()
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


def build_ectree(
    bucket_sizes: Sequence[int],
    eligible: Eligibility,
    f_min: np.ndarray | None = None,
    balanced: bool = True,
    separate: bool = True,
) -> ECTree:
    """Build the ECTree by recursive splitting (function ``biSplit``).

    Every node is first halved bucket-by-bucket (the paper's split); when
    both halves cannot satisfy the eligibility predicate, an optional
    *separating* split quarantines the most constrained bucket so the
    remainder can keep splitting (see :func:`separating_split`).

    Args:
        bucket_sizes: ``[|B_1|, .., |B_φ|]`` from the bucketization phase.
        eligible: The eligibility predicate both children must pass.
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
    root_counts = np.asarray(bucket_sizes, dtype=np.int64)
    if root_counts.ndim != 1 or root_counts.size == 0:
        raise ValueError("bucket_sizes must be a non-empty vector")
    if np.any(root_counts < 0) or root_counts.sum() == 0:
        raise ValueError("bucket sizes must be non-negative with positive total")
    if separate and f_min is None:
        raise ValueError("separating splits require f_min")
    root = ECNode(root_counts.copy())
    if not eligible(root.counts, root.size):
        raise ValueError(
            "the whole table violates the eligibility condition; the bucket "
            "partition does not satisfy Lemma 2"
        )

    def candidates(counts: np.ndarray):
        if balanced:
            yield balanced_halve(counts, f_min)
        else:
            yield naive_halve(counts)
        if separate:
            parts = separating_split(counts, f_min)
            if parts is not None:
                yield parts

    stack = [root]
    while stack:
        node = stack.pop()
        for left_counts, right_counts in candidates(node.counts):
            left_size = int(left_counts.sum())
            right_size = int(right_counts.sum())
            if (
                left_size > 0
                and right_size > 0
                and eligible(left_counts, left_size)
                and eligible(right_counts, right_size)
            ):
                node.left = ECNode(left_counts)
                node.right = ECNode(right_counts)
                stack.append(node.right)
                stack.append(node.left)
                break
    tree = ECTree(root=root)
    tree.specs = [leaf.counts for leaf in root.leaves()]
    return tree


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
            eligibility caps ``f(p_{ℓ_j})``.
        eligible: Optional override of the eligibility predicate.
        bucket_sizes: Actual tuple counts per bucket.
        balanced: Forwarded to :func:`build_ectree`.
        separate: Forwarded to :func:`build_ectree`.

    Returns:
        One per-bucket draw-count vector per EC.
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
