"""Publication store and concurrent query-serving layer.

The paper's end product is a *published* table that recipients query;
this subsystem is the missing serving path on top of the three existing
engines:

* :mod:`repro.service.store` — a content-addressed
  :class:`PublicationStore` persisting full publications losslessly
  (via :mod:`repro.io`) with a JSON provenance sidecar, **gated on
  certification**: a publication is only admitted if the audit layer
  confirms it honors its declared β/t/ℓ requirement;
* :mod:`repro.service.server` — a :class:`QueryService` that
  micro-batches concurrent COUNT requests into
  :class:`~repro.query.workload.EncodedWorkload` batches on the
  batched query engine, with an LRU cache of loaded publications (and
  thereby of their per-table range-bitmap indexes) and thread-pool
  execution.  Answers are bit-identical to calling
  :func:`repro.query.evaluate.evaluate_workload` directly.

Quickstart::

    from repro.api import Dataset
    from repro.service import PublicationStore, QueryService

    store = PublicationStore("pubs/")
    record = Dataset(table).anonymize("burel", beta=2.0).publish(
        store, requirement={"beta": 2.0}
    )
    with QueryService(store) as service:
        estimates = service.answer(record.pub_id, workload)
"""

from .server import QueryService
from .store import (
    CertificationError,
    PublicationRecord,
    PublicationStore,
    certify_publication,
)

__all__ = [
    "CertificationError",
    "PublicationRecord",
    "PublicationStore",
    "QueryService",
    "certify_publication",
]
