"""A deFinetti-style attack on group-based publications (Section 7).

Kifer's deFinetti attack learns the correlation between QI and SA values
from a group-based publication (such as Anatomy), where each group
reveals its QI tuples and its SA multiset but not the assignment between
them.  The attack starts from an arbitrary within-group assignment,
trains a Naive Bayes classifier on it, re-evaluates each group's
assignment under the classifier, and iterates to convergence.

The paper cites the attack without pseudo-code; this module implements
the natural soft-assignment (EM-flavoured) instantiation, documented in
DESIGN.md §7:

1. initialize each tuple's SA posterior to its group's SA distribution;
2. **M-step**: estimate per-attribute conditionals ``Pr[a | v]`` from
   the soft counts;
3. **E-step**: within each group, set each tuple's posterior
   proportional to the NB likelihood, then rescale columns so the
   group's expected SA counts match its published multiset (one Sinkhorn
   pass keeps the multiset constraint active without an expensive exact
   assignment);
4. repeat; finally predict per tuple the highest-posterior value
   consistent with the group.

The attack's accuracy against the true assignment is the §7 measure of
interest; run against BUREL output (groups = ECs) it quantifies how the
β threshold curbs the attack, and against Anatomy it reproduces
Cormode's observation that small ℓ is vulnerable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.published import GroupedPublication
from ..dataset.table import Table
from .naive_bayes import AttackResult


@dataclass(frozen=True)
class DeFinettiResult(AttackResult):
    """Attack outcome plus convergence diagnostics."""

    iterations: int = 0
    converged: bool = True


def _groups_of(publication) -> list[np.ndarray]:
    """Member-row arrays of a group-based publication.

    Its constructor validated that every source row belongs to exactly
    one group: an uncovered row would keep an all-zero posterior through
    every EM iteration and its arbitrary argmax-0 prediction would be
    scored as a real guess.
    """
    if not isinstance(publication, GroupedPublication):
        raise TypeError(f"unsupported publication type {type(publication)!r}")
    return np.split(publication.rows, publication.offsets[1:-1])


def definetti_attack(
    publication,
    max_iterations: int = 30,
    tolerance: float = 1e-4,
    sinkhorn_passes: int = 5,
) -> DeFinettiResult:
    """Mount the deFinetti attack on a group-based publication.

    Args:
        publication: An :class:`AnatomyTable` or
            :class:`GeneralizedTable` (its source supplies ground truth).
        max_iterations: EM iteration budget.
        tolerance: Stop when the mean absolute posterior change falls
            below this.
        sinkhorn_passes: Column/row rescaling passes per E-step keeping
            group multisets satisfied.

    Returns:
        A :class:`DeFinettiResult` with per-tuple predictions.
    """
    groups = _groups_of(publication)  # validates the publication type
    table: Table = publication.source
    n, m = table.n_rows, table.sa_cardinality

    # Posterior[r, v] = attacker's belief that row r holds SA value v.
    posterior = np.zeros((n, m), dtype=float)
    group_counts = publication.sa_counts.astype(float)
    for rows, counts in zip(groups, group_counts):
        posterior[rows, :] = counts / rows.size

    qi_offsets = [attr.lo for attr in table.schema.qi]
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # M-step: soft conditionals Pr[a | v] per attribute.
        conditionals = []
        value_mass = posterior.sum(axis=0)  # expected count per SA value
        safe_mass = np.where(value_mass > 0, value_mass, 1.0)
        for dim, attr in enumerate(table.schema.qi):
            joint = np.zeros((attr.cardinality, m), dtype=float)
            np.add.at(joint, table.qi[:, dim] - qi_offsets[dim], posterior)
            conditionals.append(joint / safe_mass)

        # E-step: NB likelihood per row and value.
        likelihood = np.ones((n, m), dtype=float)
        for dim, conditional in enumerate(conditionals):
            likelihood *= conditional[table.qi[:, dim] - qi_offsets[dim], :]

        new_posterior = np.zeros_like(posterior)
        for rows, counts in zip(groups, group_counts):
            block = likelihood[rows, :] + 1e-30
            support = counts > 0
            block[:, ~support] = 0.0
            # Sinkhorn: columns must sum to the group's multiset counts,
            # rows to 1.
            for _ in range(sinkhorn_passes):
                col = block.sum(axis=0)
                scale = np.where(col > 0, counts / np.where(col > 0, col, 1.0), 0.0)
                block *= scale
                row = block.sum(axis=1, keepdims=True)
                block /= np.where(row > 0, row, 1.0)
            new_posterior[rows, :] = block

        delta = float(np.abs(new_posterior - posterior).mean())
        posterior = new_posterior
        if delta < tolerance:
            converged = True
            break

    predictions = np.argmax(posterior, axis=1).astype(np.int64)
    return DeFinettiResult(
        accuracy=float(np.mean(predictions == table.sa)),
        majority_baseline=float(table.sa_distribution().max()),
        predictions=predictions,
        iterations=iterations,
        converged=converged,
    )


def random_assignment_baseline(publication, seed: int = 0) -> AttackResult:
    """Expected accuracy of guessing a random within-group assignment.

    The natural floor for the deFinetti attack: an attacker with no QI
    model can only draw an assignment consistent with each group's
    multiset.
    """
    table: Table = publication.source
    rng = np.random.default_rng(seed)
    predictions = np.full(table.n_rows, -1, dtype=np.int64)
    for rows in _groups_of(publication):
        values = table.sa[rows].copy()
        rng.shuffle(values)
        predictions[rows] = values
    return AttackResult(
        accuracy=float(np.mean(predictions == table.sa)),
        majority_baseline=float(table.sa_distribution().max()),
        predictions=predictions,
    )
