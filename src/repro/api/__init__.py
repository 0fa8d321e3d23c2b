"""repro.api — the unified session facade over the layered engines.

One import gives the paper's whole chain with one shared artifact
cache::

    from repro.api import Dataset

    ds = Dataset.from_census(30_000, seed=7)
    run = ds.anonymize("burel", beta=2.0)
    run.audit()                                   # batched audit layer
    run.certify({"beta": 2.0})                    # store's contract gate
    record = run.publish(store, requirement={"beta": 2.0})
    run.evaluate(ds.workload(2_000))              # batched query layer

    runs = ds.sweep([("burel", {"beta": b}) for b in (1.0, 2.0, 4.0)])

Datasets are also **versioned and mutable**: a sharded run becomes a
tracked baseline, ``ds.append(rows)`` routes new rows to shards and
evicts only the touched shards' cached artifacts, and ``ds.refresh()``
re-anonymizes incrementally — byte-identical to a cold run over the
concatenated table, at the cost of the dirty shards alone::

    with Dataset(table) as ds:                    # closes pools on exit
        base = ds.anonymize("burel", beta=2.0, rng=17, shards=16)
        rec0 = base.publish(store, requirement={"beta": 2.0}, name="census")
        ds.append(new_rows)
        run = ds.refresh()                        # reuses clean shards
        rec1 = run.publish(store, requirement={"beta": 2.0},
                           name="census", parent=rec0)
        store.versions("census")                  # lineage, parent-first

The :class:`ArtifactCache` is the one place an artifact outlives a call:
a content-digest-keyed store with size accounting and explicit
invalidation that every layer memoizes through when it is handed one;
see :mod:`repro.api.cache`.
"""

from .cache import ARTIFACT_KINDS, ArtifactCache, estimate_nbytes
from .dataset import AnonymizationRun, Dataset
from .versioned import RefreshRun, VersionState, lineage_token

__all__ = [
    "ARTIFACT_KINDS",
    "AnonymizationRun",
    "ArtifactCache",
    "Dataset",
    "RefreshRun",
    "VersionState",
    "estimate_nbytes",
    "lineage_token",
]
