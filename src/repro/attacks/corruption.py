"""Corruption and composition attacks (§6.3 and §7 discussion).

Two attack families the paper discusses qualitatively, implemented as
measurable demonstrations:

* **Corruption attack** (Tao et al. [30]): the adversary already knows
  the SA values of some individuals ("corrupted" tuples).  Against a
  *generalization-based* publication, corrupted tuples can be subtracted
  from their equivalence class, sharpening the posterior over the
  remaining members; the paper notes the perturbation scheme is immune
  because every tuple is randomized independently.
  :func:`corruption_attack` quantifies the sharpening: the worst-case
  and average posterior confidence in any remaining member's SA value,
  before and after subtraction.

* **Composition attack** (Ganta et al. [11]): two independent
  publications covering the same individual can be intersected; the
  adversary's posterior is supported only on SA values present in
  *both* of the individual's classes.  The paper's schemes assume data
  are published once; :func:`composition_attack` measures how much two
  β-like releases of the same table leak when that assumption is
  violated — motivating it.

Both functions here are the *scalar references*: per-EC / per-row
Python loops kept for auditability.  The batched audit engine
(:mod:`repro.audit.attacks`) reimplements them on the shared
publication view with bit/float-identical results; production audits
should go through :func:`repro.audit.audit_publications`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.published import GeneralizedTable
from ..rng import coerce_rng


@dataclass(frozen=True)
class CorruptionReport:
    """Outcome of a corruption attack on a generalized publication.

    Attributes:
        baseline_confidence: Worst-case posterior (max in-EC frequency)
            over uncorrupted tuples *before* subtraction.
        corrupted_confidence: The same after subtracting the corrupted
            tuples' known values from their classes.
        exposed_tuples: Number of uncorrupted tuples whose SA value
            becomes certain (posterior 1) after subtraction.
    """

    baseline_confidence: float
    corrupted_confidence: float
    exposed_tuples: int


def corruption_attack(
    published: GeneralizedTable,
    n_corrupted: int,
    rng: np.random.Generator | int = 0,
) -> CorruptionReport:
    """Subtract ``n_corrupted`` known tuples and re-measure posteriors.

    Args:
        published: A generalization-based publication.
        n_corrupted: Number of tuples whose SA value the adversary knows
            (sampled uniformly).
        rng: Randomness for the corrupted sample, following the repo's
            uniform contract: an int seed or a ``numpy`` Generator.  The
            default is the explicit seed ``0``; ``None`` raises instead
            of silently self-seeding.
    """
    rng = coerce_rng(rng, "corruption_attack")
    table = published.source
    if not 0 <= n_corrupted <= table.n_rows:
        raise ValueError("n_corrupted out of range")
    corrupted = set(
        rng.choice(table.n_rows, size=n_corrupted, replace=False).tolist()
    )

    baseline = 0.0
    sharpened = 0.0
    exposed = 0
    for ec in published:
        known_mask = np.array([int(r) in corrupted for r in ec.rows])
        n_known = int(known_mask.sum())
        if n_known == ec.size:
            continue  # nothing left to attack in this class
        baseline = max(baseline, float(ec.sa_counts.max()) / ec.size)
        residual = ec.sa_counts.copy()
        known_rows = ec.rows[known_mask]
        for row in known_rows:
            residual[table.sa[row]] -= 1
        remaining = ec.size - n_known
        top = float(residual.max()) / remaining
        sharpened = max(sharpened, top)
        if residual.max() == remaining:
            # Every remaining member shares one value: full disclosure.
            exposed += remaining
    return CorruptionReport(
        baseline_confidence=baseline,
        corrupted_confidence=sharpened,
        exposed_tuples=exposed,
    )


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of intersecting two publications of the same table.

    Attributes:
        single_confidence: Worst-case posterior from either publication
            alone.
        composed_confidence: Worst-case posterior after intersecting
            each tuple's two candidate SA multisets.
        pinned_tuples: Tuples whose SA value the intersection determines
            uniquely.
    """

    single_confidence: float
    composed_confidence: float
    pinned_tuples: int


def composition_attack(
    first: GeneralizedTable, second: GeneralizedTable
) -> CompositionReport:
    """Intersect two publications covering the same source rows.

    For each tuple, the adversary's candidate set under one publication
    is its EC's SA multiset; under both, the (normalized) elementwise
    minimum of the two multisets' frequencies — values absent from
    either class are ruled out entirely.
    """
    if first.source is not second.source:
        raise ValueError("publications must cover the same source table")
    table = first.source
    n = table.n_rows

    # Both publications validated their partitions at construction, so
    # every row gets a class id here.
    class_of_first = np.full(n, -1, dtype=np.int64)
    for g, ec in enumerate(first):
        class_of_first[ec.rows] = g
    class_of_second = np.full(n, -1, dtype=np.int64)
    for g, ec in enumerate(second):
        class_of_second[ec.rows] = g

    single = 0.0
    composed = 0.0
    pinned = 0
    # Group rows by their (first EC, second EC) pair; all rows in a pair
    # share the same posterior.
    pairs: dict[tuple[int, int], int] = {}
    for row in range(n):
        pair = (int(class_of_first[row]), int(class_of_second[row]))
        pairs[pair] = pairs.get(pair, 0) + 1
    for (g1, g2), count in pairs.items():
        q1 = first.classes[g1].sa_distribution()
        q2 = second.classes[g2].sa_distribution()
        single = max(single, float(q1.max()), float(q2.max()))
        joint = np.minimum(q1, q2)
        total = joint.sum()
        if total <= 0:
            continue  # inconsistent intersection; no inference drawn
        joint = joint / total
        composed = max(composed, float(joint.max()))
        if np.count_nonzero(joint) == 1:
            pinned += count
    return CompositionReport(
        single_confidence=single,
        composed_confidence=composed,
        pinned_tuples=pinned,
    )
