"""repro — reproduction of Cao & Karras, "Publishing Microdata with a
Robust Privacy Guarantee" (PVLDB 5(11), 2012).

The package implements the β-likeness privacy model, the BUREL
generalization algorithm and the perturbation-based scheme, together
with every substrate the paper's evaluation depends on: a synthetic
CENSUS dataset, generalization hierarchies, a Hilbert curve, the
Mondrian family of comparators, SABRE, an Anatomy-style baseline, a
COUNT-query utility harness, and the attacks of Section 7.

Quickstart — the :mod:`repro.api` session facade runs the paper's whole
chain over one shared artifact cache::

    from repro import Dataset, PublicationStore, QueryService

    ds = Dataset.from_census(20_000, seed=7)
    run = ds.anonymize("burel", beta=4.0)         # AnonymizationRun
    print(run.audit().privacy)                     # batched audit layer

    store = PublicationStore("pubs/")
    record = run.publish(store, requirement={"beta": 4.0})
    print(run.evaluate(ds.workload(2_000)).median)  # batched query layer

    with QueryService(store) as service:
        estimates = service.answer(record.pub_id, ds.workload(100))

The layer APIs remain available underneath — ``repro.engine`` (staged
anonymization), ``repro.query`` (batched workload evaluation),
``repro.audit`` (batched privacy auditing), ``repro.service``
(certification-gated store + concurrent serving) — and the facade's
results are byte-identical to calling them directly.
"""

from . import api, audit, engine, service
from .api import AnonymizationRun, ArtifactCache, Dataset
from .audit import audit_publications
from .core import (
    BetaLikeness,
    BurelResult,
    PerturbationScheme,
    PerturbedTable,
    burel,
    perturb_table,
)
from .dataset import (
    GeneralizedTable,
    Table,
    make_census,
    make_patients,
)
from .metrics import (
    average_information_loss,
    measured_beta,
    measured_t,
    privacy_profile,
)
from .service import PublicationStore, QueryService

__version__ = "1.0.0"

__all__ = [
    "AnonymizationRun",
    "ArtifactCache",
    "Dataset",
    "api",
    "audit",
    "audit_publications",
    "engine",
    "service",
    "PublicationStore",
    "QueryService",
    "BetaLikeness",
    "BurelResult",
    "PerturbationScheme",
    "PerturbedTable",
    "burel",
    "perturb_table",
    "GeneralizedTable",
    "Table",
    "make_census",
    "make_patients",
    "average_information_loss",
    "measured_beta",
    "measured_t",
    "privacy_profile",
    "__version__",
]
