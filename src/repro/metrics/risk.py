"""Disclosure-risk profiles of publications (statistical-disclosure-
control practice).

The paper's model bounds *attribute* disclosure; data custodians also
audit *identity* disclosure and per-tuple exposure before release.
These standard SDC measures complement the model-level metrics:

* **Prosecutor re-identification risk** — an adversary who knows their
  target is in the table and holds the full QI: the probability of
  picking the right record inside the target's equivalence class,
  ``1 / |G|`` per tuple.
* **Attribute-disclosure risk** — the posterior probability of the
  target's *SA value* given the class, ``q_v^G`` for the tuple's own
  value ``v`` (this is what β-likeness caps relative to the prior).
* :func:`risk_profile` summarizes both across the table; the
  ``at_risk`` count uses the conventional threshold of tuples whose
  re-identification probability exceeds a tolerance (default 0.05).

These per-EC loops are the *scalar references*; the batched audit
engine (:mod:`repro.audit.metrics`) computes the same vectors as single
gathers through the publication view's ``class_of`` array with
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.published import GeneralizedTable


@dataclass(frozen=True)
class RiskProfile:
    """Per-table disclosure-risk summary.

    Attributes:
        max_reid: Worst-case prosecutor re-identification probability.
        mean_reid: Expected re-identification probability over tuples.
        max_attr: Worst-case posterior in a tuple's own SA value.
        mean_attr: Mean posterior in tuples' own SA values.
        at_risk: Number of tuples with re-identification probability
            above the tolerance.
        tolerance: The threshold used for ``at_risk``.
    """

    max_reid: float
    mean_reid: float
    max_attr: float
    mean_attr: float
    at_risk: int
    tolerance: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"reid: max={self.max_reid:.4f} mean={self.mean_reid:.4f}  "
            f"attr: max={self.max_attr:.4f} mean={self.mean_attr:.4f}  "
            f"at-risk(>{self.tolerance:g}): {self.at_risk}"
        )


def reidentification_risks(published: GeneralizedTable) -> np.ndarray:
    """Per-tuple prosecutor risk ``1 / |G|`` over the source row order."""
    out = np.full(published.n_rows, -1.0)
    for ec in published:
        out[ec.rows] = 1.0 / ec.size
    return out


def attribute_disclosure_risks(published: GeneralizedTable) -> np.ndarray:
    """Per-tuple posterior in the tuple's own SA value, ``q_v^G``."""
    table = published.source
    out = np.full(table.n_rows, -1.0)
    for ec in published:
        dist = ec.sa_distribution()
        out[ec.rows] = dist[table.sa[ec.rows]]
    return out


def risk_profile(
    published: GeneralizedTable, tolerance: float = 0.05
) -> RiskProfile:
    """Summarize identity and attribute disclosure risk."""
    if not 0 < tolerance <= 1:
        raise ValueError("tolerance must be in (0, 1]")
    reid = reidentification_risks(published)
    attr = attribute_disclosure_risks(published)
    return RiskProfile(
        max_reid=float(reid.max()),
        mean_reid=float(reid.mean()),
        max_attr=float(attr.max()),
        mean_attr=float(attr.mean()),
        at_risk=int((reid > tolerance).sum()),
        tolerance=tolerance,
    )
