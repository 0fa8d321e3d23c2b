"""Batched privacy and disclosure-risk measurement on publication views.

Each function here is the matrix-form of the scalar reference of the
same name in :mod:`repro.metrics.privacy` / :mod:`repro.metrics.risk`:
the 5+ per-EC ``_per_class`` passes of Fig. 4 and the §7 table become
row-wise reductions over the view's ``(G, m)`` distribution matrix, and
the per-tuple risk vectors become single gathers through ``class_of``.

The kernels replay the scalar functions' exact elementwise operation
sequences (same divisions, same cumsums, same reduction orders over
contiguous rows), so the results are bit/float-identical to the
references — ``tests/test_audit.py`` and ``benchmarks/bench_audit.py``
assert it for every publication family.
"""

from __future__ import annotations

import numpy as np

from ..metrics.privacy import PrivacyProfile
from ..metrics.risk import RiskProfile
from .view import PublicationView, publication_view

_EPS = 1e-12  # matches repro.metrics.distributions._EPS


# ----------------------------------------------------------------------
# Per-EC vectors (memoized on the view: one β-sweep measures the same
# publication under several models)
# ----------------------------------------------------------------------


def per_class_gains(view: PublicationView) -> np.ndarray:
    """``(G,)`` measured β per group (``max_relative_gain`` rows)."""
    hit = view.memo.get("gains")
    if hit is not None:
        return hit
    p = view.global_distribution
    gains = view.distributions - p[None, :]
    positive = gains > _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(positive, gains / np.where(p > _EPS, p, 1.0), 0.0)
    ratio[positive & (p[None, :] <= _EPS)] = np.inf
    out = ratio.max(axis=1)
    view.memo["gains"] = out
    return out


def per_class_emd(view: PublicationView, ordered: bool = False) -> np.ndarray:
    """``(G,)`` EMD from the overall distribution per group."""
    key = ("emd", ordered)
    hit = view.memo.get(key)
    if hit is not None:
        return hit
    p = view.global_distribution
    q = view.distributions
    m = p.shape[0]
    if ordered:
        if m == 1:
            out = np.zeros(view.n_groups)
        else:
            prefix = np.cumsum(p[None, :] - q, axis=1)[:, :-1]
            out = np.abs(prefix).sum(axis=1) / (m - 1)
    else:
        out = np.maximum(q - p[None, :], 0.0).sum(axis=1)
    view.memo[key] = out
    return out


def per_class_log_ratios(view: PublicationView) -> np.ndarray:
    """``(G,)`` measured δ per group (``max_abs_log_ratio`` rows)."""
    hit = view.memo.get("log_ratios")
    if hit is not None:
        return hit
    p = view.global_distribution
    mask = p > _EPS
    q = view.distributions[:, mask]
    with np.errstate(divide="ignore"):
        ratios = np.abs(np.log(q / p[mask][None, :]))
    ratios[q <= _EPS] = np.inf
    out = ratios.max(axis=1)
    view.memo["log_ratios"] = out
    return out


def per_class_distinct(view: PublicationView) -> np.ndarray:
    """``(G,)`` distinct SA values per group (distinct ℓ)."""
    hit = view.memo.get("distinct")
    if hit is None:
        hit = np.count_nonzero(view.counts, axis=1)
        view.memo["distinct"] = hit
    return hit


# ----------------------------------------------------------------------
# Measured privacy (batched repro.metrics.privacy)
# ----------------------------------------------------------------------


def measured_beta(published) -> float:
    """Worst-case relative confidence gain over all ECs ("real β")."""
    return float(per_class_gains(publication_view(published)).max())


def average_beta(published) -> float:
    """Mean per-EC maximum relative gain."""
    return float(per_class_gains(publication_view(published)).mean())


def measured_t(published, ordered: bool = False) -> float:
    """Worst-case EMD from the overall distribution ("real t")."""
    return float(per_class_emd(publication_view(published), ordered).max())


def average_t(published, ordered: bool = False) -> float:
    """Mean per-EC EMD (the §7 table's ``Avg t``)."""
    return float(per_class_emd(publication_view(published), ordered).mean())


def measured_l(published) -> int:
    """Minimum number of distinct SA values in any EC ("real ℓ")."""
    return int(per_class_distinct(publication_view(published)).min())


def average_l(published) -> float:
    """Mean per-EC distinct SA count (the §7 table's ``Avg ℓ``)."""
    return float(per_class_distinct(publication_view(published)).mean())


def measured_delta(published) -> float:
    """Worst-case |ln(q/p)| over ECs (``inf`` without full support)."""
    return float(per_class_log_ratios(publication_view(published)).max())


def privacy_profile(published, ordered_emd: bool = False) -> PrivacyProfile:
    """Measure a publication under every model at once (§7 table rows).

    One view build serves all seven parameters — the scalar reference
    (:func:`repro.metrics.privacy.privacy_profile`) walks the ECs five
    separate times.
    """
    view = publication_view(published)
    gains = per_class_gains(view)
    emd = per_class_emd(view, ordered_emd)
    distinct = per_class_distinct(view)
    return PrivacyProfile(
        beta=float(gains.max()),
        avg_beta=float(gains.mean()),
        t=float(emd.max()),
        avg_t=float(emd.mean()),
        l=int(distinct.min()),
        avg_l=float(distinct.mean()),
        delta=float(per_class_log_ratios(view).max()),
        n_classes=view.n_groups,
    )


# ----------------------------------------------------------------------
# Disclosure risk (batched repro.metrics.risk)
# ----------------------------------------------------------------------


def reidentification_risks(published) -> np.ndarray:
    """Per-tuple prosecutor risk ``1 / |G|`` over the source row order."""
    view = publication_view(published)
    return (1.0 / view.sizes)[view.class_of]


def attribute_disclosure_risks(published) -> np.ndarray:
    """Per-tuple posterior in the tuple's own SA value, ``q_v^G``."""
    view = publication_view(published)
    return view.distributions[view.class_of, view.source.sa]


def risk_profile(published, tolerance: float = 0.05) -> RiskProfile:
    """Summarize identity and attribute disclosure risk (batched)."""
    if not 0 < tolerance <= 1:
        raise ValueError("tolerance must be in (0, 1]")
    view = publication_view(published)
    reid = reidentification_risks(view)
    attr = attribute_disclosure_risks(view)
    return RiskProfile(
        max_reid=float(reid.max()),
        mean_reid=float(reid.mean()),
        max_attr=float(attr.max()),
        mean_attr=float(attr.mean()),
        at_risk=int((reid > tolerance).sum()),
        tolerance=tolerance,
    )
