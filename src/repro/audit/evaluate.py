"""Batched auditing of candidate releases — the single entry point.

``audit_publications`` is to the audit layer what
:func:`repro.query.evaluate.evaluate_workload` is to the query layer: a
custodian hands over the source table and a set of candidate
publications, and gets back one :class:`AuditReport` per candidate —
measured privacy under every model (Fig. 4, the §7 table), standard
disclosure-risk summaries, and whichever of the §2/§6.3/§7 attacks were
requested — all computed on one shared
:class:`~repro.audit.view.PublicationView` per publication, which a
session's artifact cache keeps across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..attacks.corruption import CompositionReport, CorruptionReport
from ..attacks.definetti import (
    DeFinettiResult,
    definetti_attack,
    random_assignment_baseline,
)
from ..attacks.naive_bayes import AttackResult
from ..attacks.skewness import GainReport
from ..dataset.table import Table
from ..io import table_digest
from ..metrics.privacy import PrivacyProfile
from ..metrics.risk import RiskProfile
from ..rng import coerce_rng
from .attacks import (
    composition_attack,
    corruption_attack,
    naive_bayes_attack,
    similarity_gain,
    skewness_gain,
)
from .metrics import privacy_profile, risk_profile
from .view import publication_view

#: Attack names ``audit_publications`` accepts.
AUDIT_ATTACKS = (
    "skewness",
    "similarity",
    "corruption",
    "composition",
    "naive_bayes",
    "definetti",
)


@dataclass(frozen=True)
class AuditReport:
    """Everything measured about one candidate publication.

    ``privacy`` and ``risk`` are always present; attack fields are None
    unless the attack was requested.
    """

    privacy: PrivacyProfile
    risk: RiskProfile
    skewness: GainReport | None = None
    similarity: GainReport | None = None
    corruption: CorruptionReport | None = None
    composition: CompositionReport | None = None
    naive_bayes: AttackResult | None = None
    definetti: DeFinettiResult | None = None
    definetti_baseline: AttackResult | None = None


def audit_publications(
    table: Table,
    publications: Mapping[str, object],
    *,
    attacks: Sequence[str] = (),
    ordered_emd: bool = False,
    tolerance: float = 0.05,
    n_corrupted: int | None = None,
    rng: np.random.Generator | int = 0,
    compose_with: object | str | None = None,
    similarity_groups: Sequence[Sequence[int]] | None = None,
    definetti_iterations: int = 30,
    definetti_baseline_seed: int = 0,
    cache=None,
) -> "dict[str, AuditReport]":
    """Audit every candidate publication of ``table`` in one batch.

    :meth:`repro.api.Dataset.audit` calls this with its session's
    ``cache``.

    Args:
        table: The source microdata every publication must cover.
        publications: Name → publication (:class:`GeneralizedTable` or
            :class:`AnatomyTable`) or its view; each gets one view
            reused by every metric and attack.
        attacks: Subset of :data:`AUDIT_ATTACKS` to mount on top of the
            always-computed privacy and risk profiles.
        cache: Optional :class:`repro.api.ArtifactCache`; keys views by
            publication content so audits, certifications and reloads of
            the same release share one view build.
        ordered_emd: Measure closeness with the ordered ground distance
            (the §7 table's convention for ordinal SA domains).
        tolerance: ``at_risk`` threshold of the risk profile.
        n_corrupted: Corrupted-tuple count for the corruption attack
            (required when requested).
        rng: Corruption-sample randomness under the repo contract: an
            int seed or a Generator, consumed across publications in
            mapping order; ``None`` raises.
        compose_with: The second release for the composition attack — a
            name in ``publications`` or a publication object (required
            when requested).
        similarity_groups: SA value codes per semantic group (required
            when the similarity attack is requested).
        definetti_iterations: EM budget of the deFinetti attack.
        definetti_baseline_seed: Seed of its random-assignment floor.

    Returns:
        Name → :class:`AuditReport`, in ``publications`` order.
    """
    unknown = set(attacks) - set(AUDIT_ATTACKS)
    if unknown:
        raise ValueError(
            f"unknown attacks {sorted(unknown)}; choose from {AUDIT_ATTACKS}"
        )
    attacks = tuple(attacks)
    if "corruption" in attacks:
        if n_corrupted is None:
            raise ValueError("the corruption attack needs n_corrupted")
        rng = coerce_rng(rng, "audit_publications")
    if "similarity" in attacks and similarity_groups is None:
        raise ValueError("the similarity attack needs similarity_groups")
    if "composition" in attacks and compose_with is None:
        raise ValueError("the composition attack needs compose_with")

    views = {}
    for name, published in publications.items():
        view = publication_view(published, cache=cache)
        if view.source is not table and table_digest(
            view.source
        ) != table_digest(table):
            raise ValueError(
                f"publication {name!r} was built over a different table"
            )
        views[name] = view
    other = compose_with
    if "composition" in attacks and isinstance(compose_with, str):
        other = views[compose_with]

    reports: dict[str, AuditReport] = {}
    for name, published in publications.items():
        view = views[name]
        extras: dict = {}
        if "skewness" in attacks:
            extras["skewness"] = skewness_gain(view)
        if "similarity" in attacks:
            extras["similarity"] = similarity_gain(view, similarity_groups)
        if "corruption" in attacks:
            extras["corruption"] = corruption_attack(
                view, n_corrupted, rng=rng
            )
        if "composition" in attacks:
            extras["composition"] = composition_attack(view, other)
        if "naive_bayes" in attacks:
            extras["naive_bayes"] = naive_bayes_attack(view)
        if "definetti" in attacks:
            extras["definetti"] = definetti_attack(
                published, max_iterations=definetti_iterations
            )
            extras["definetti_baseline"] = random_assignment_baseline(
                published, seed=definetti_baseline_seed
            )
        reports[name] = AuditReport(
            privacy=privacy_profile(view, ordered_emd=ordered_emd),
            risk=risk_profile(view, tolerance=tolerance),
            **extras,
        )
    return reports

