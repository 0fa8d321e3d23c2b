"""Columnar publications: pinned content digests and a record-free chain.

Group-based publications are their arrays (``rows``, ``offsets``,
``class_of``, ``sa_counts``, ``boxes``).  Two contracts follow:

* the content digest — the store id, hashed from those arrays — of every
  publication family stays exactly what it was, pinned here as literal
  hex on a small generated table;
* nothing from publish to serve builds per-group records:
  :class:`EquivalenceClass` / :class:`AnatomyGroup` exist only for the
  scalar oracles and display.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymity.anatomy import AnatomyGroup
from repro.api import Dataset
from repro.dataset import make_census
from repro.dataset.published import EquivalenceClass
from repro.engine import run as engine_run
from repro.io import publication_digest
from repro.service import PublicationStore, QueryService

GOLDEN = {
    "burel": "b73238f4655f4ac5c2f5d8fa21d54439ecf9addad9d2636da606002f599a7d73",
    "sabre": "b00a91af9c7eb4985e1abad68bab5b306c4597e4032e24b05e8afccc495f5af5",
    "mondrian": "56247f0687b7db2c2bc3454cc12f0ce79bd7f4ae7a5e5b42d5f21cdc1d25263a",
    "fulldomain": "b34fa538d1f4a8f5468d039e7a0c87cb52d16b786ba1be1b1e0268c99c00d0fe",
    "anatomy": "ab4df12f6b192f00c964f31b448f5beb1c45f4c3998fc2f8f3ed3b4ddbe396ac",
    "burel_3_shards": "e6c0df6bee8d7a08e0f0244fc2847293b0efc4e3cd49db82ed595b4a95acfd75",
    "refreshed": "36a01ebecfb7b0bab1d681e7ee259a1a1de486d261ef3c10563ae598dae1658c",
}


@pytest.fixture(scope="module")
def table():
    return make_census(2_000, seed=3)


def test_golden_digests(table):
    digests = {}
    for name, params in (
        ("burel", dict(beta=2.0)),
        ("sabre", dict(t=0.2)),
        ("mondrian", dict(kind="beta", beta=2.0)),
        ("fulldomain", dict(kind="k", k=10)),
        ("anatomy", dict(l=4)),
    ):
        published = engine_run(name, table, rng=0, **params).published
        digests[name] = publication_digest(published)
    with Dataset(table) as ds:
        sharded = ds.anonymize("burel", beta=2.0, rng=0, shards=3)
        digests["burel_3_shards"] = publication_digest(sharded.published)
        # Duplicates of shard 1's rows land in shard 1 only.
        ds.append(table.subset(ds.version_state().plan.shards[1].rows[:100]))
        refreshed = ds.refresh()
        assert (refreshed.reused, refreshed.recomputed) == ((0, 2), (1,))
        digests["refreshed"] = publication_digest(refreshed.published)
    assert digests == GOLDEN


def _refuse(*args, **kwargs):
    raise AssertionError("a per-group record was built on the chain")


def test_chain_builds_no_per_group_records(table, tmp_path, monkeypatch):
    monkeypatch.setattr(EquivalenceClass, "__init__", _refuse)
    monkeypatch.setattr(AnatomyGroup, "__init__", _refuse)
    ds = Dataset(table)
    queries = ds.workload(40, 2, 0.1)
    store = PublicationStore(tmp_path / "store")

    # publish → batched audit → certify/put, per group-based family.
    runs = {
        "burel": ds.anonymize("burel", beta=2.0),
        "fulldomain": ds.anonymize("fulldomain", kind="k", k=10),
        "anatomy": ds.anonymize("anatomy", l=4, rng=1),
    }
    attacks = {
        "burel": ("skewness", "corruption", "naive_bayes", "definetti"),
        "fulldomain": ("skewness", "corruption", "naive_bayes"),
        "anatomy": ("skewness", "corruption", "definetti"),
    }
    records = {}
    for name, run in runs.items():
        report = run.audit(
            attacks=attacks[name], n_corrupted=50, rng=0,
            definetti_iterations=2,
        )
        assert report.privacy.l >= 1
        requirement = {"l": 4} if name == "anatomy" else {"l": 1}
        records[name] = run.publish(store, requirement=requirement)
        assert records[name].n_groups == len(run.published)
    # len() of the record sequences reads the offsets and builds none.
    assert len(runs["burel"].published.classes) == records["burel"].n_groups
    assert len(runs["anatomy"].published.groups) == records["anatomy"].n_groups

    # get → QueryService answers (COUNT and AVG).
    with QueryService(store, workers=2) as service:
        for name, record in records.items():
            reloaded = store.get(record.pub_id)
            assert publication_digest(reloaded) == record.pub_id
            counts = service.answer(record.pub_id, queries)
            assert np.isfinite(counts).all()
            service.answer_aggregate(record.pub_id, queries, 0, "avg")

    # sharded anonymize → audit → evaluate, both kinds, pooled and inline.
    for algorithm, params, workers in (
        ("burel", dict(beta=2.0), 2),
        ("anatomy", dict(l=4), 1),
    ):
        sharded = ds.anonymize(
            algorithm, rng=2, shards=3, workers=workers, **params
        )
        sharded.audit(attacks=("skewness",))
        assert np.isfinite(sharded.evaluate(queries).median)

    # append → refresh → audit → certified republication with lineage.
    base = ds.anonymize("burel", beta=2.0, rng=3, shards=3)
    parent = base.publish(store, requirement={"l": 1}, name="census")
    ds.append(make_census(150, seed=8))
    refreshed = ds.refresh()
    refreshed.audit()
    child = refreshed.publish(
        store, requirement={"l": 1}, name="census", parent=parent
    )
    assert store.latest("census").pub_id == child.pub_id
    ds.close_parallel()
