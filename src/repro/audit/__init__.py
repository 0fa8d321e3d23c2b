"""Batched privacy-audit engine (Fig. 4, §2, §6.3, §7 measurements).

The third batched subsystem of the reproduction, mirroring
:mod:`repro.engine` (anonymization) and :mod:`repro.query` (workload
evaluation): every audit of a candidate release — re-measuring it under
each privacy model, profiling disclosure risk, mounting the skewness /
corruption / composition / Naive Bayes / deFinetti attacks — runs as
matrix operations over one shared :class:`PublicationView` per
publication instead of per-EC Python loops.

* :func:`publication_view` builds the view (content-keyed in a
  session's artifact cache when given one): a validated ``class_of``
  row→group map, the group-size vector and the group×SA count matrix,
  from one ``np.bincount``.
* :mod:`repro.audit.metrics` / :mod:`repro.audit.attacks` are the
  batched kernels, bit/float-identical to the scalar references kept in
  :mod:`repro.metrics` and :mod:`repro.attacks`.
* :func:`audit_publications` is the single entry point the experiments
  (fig4, table7, section2, definetti_sweep, nb_attack) measure through.

``benchmarks/bench_audit.py`` enforces a ≥5x speedup floor over the
per-EC path on the full §7-table audit and re-asserts reference
equality.
"""

from .attacks import (
    composition_attack,
    corruption_attack,
    naive_bayes_attack,
    similarity_gain,
    skewness_gain,
)
from .evaluate import AUDIT_ATTACKS, AuditReport, audit_publications
from .metrics import (
    attribute_disclosure_risks,
    average_beta,
    average_l,
    average_t,
    measured_beta,
    measured_delta,
    measured_l,
    measured_t,
    privacy_profile,
    reidentification_risks,
    risk_profile,
)
from .view import PublicationView, publication_view

__all__ = [
    "AUDIT_ATTACKS",
    "AuditReport",
    "PublicationView",
    "audit_publications",
    "attribute_disclosure_risks",
    "average_beta",
    "average_l",
    "average_t",
    "composition_attack",
    "corruption_attack",
    "measured_beta",
    "measured_delta",
    "measured_l",
    "measured_t",
    "naive_bayes_attack",
    "privacy_profile",
    "publication_view",
    "reidentification_risks",
    "risk_profile",
    "similarity_gain",
    "skewness_gain",
]
