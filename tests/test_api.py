"""The repro.api session facade: byte-identity against the direct layer
calls, artifact-cache semantics, sweep determinism, legacy entry points."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from repro.anonymity import BaselinePublication
from repro.api import ArtifactCache, Dataset
from repro.audit.evaluate import audit_publications
from repro.dataset.table import Table
from repro.engine import run as engine_run
from repro.io import publication_digest, table_digest
from repro.query import make_workload
from repro.query.evaluate import answer_precise_batch, evaluate_workload
from repro.service import CertificationError, PublicationStore
from repro.service.store import certify_publication


@pytest.fixture(scope="module")
def dataset():
    return Dataset.from_census(
        3_000, seed=7, qi_names=("Age", "Gender", "Education")
    )


#: (name, how to build through the facade, declared contract) for all
#: four answerable publication kinds.
KINDS = ("generalized", "perturbed", "anatomy", "baseline")


@pytest.fixture(scope="module")
def runs(dataset):
    return {
        "generalized": dataset.anonymize("burel", beta=2.0),
        "perturbed": dataset.anonymize("perturb", rng=29, beta=4.0),
        "anatomy": dataset.anonymize("anatomy", rng=1, l=4),
    }


@pytest.fixture(scope="module")
def publications(dataset, runs):
    pubs = {name: run.published for name, run in runs.items()}
    pubs["baseline"] = BaselinePublication(dataset.table)
    return pubs


@pytest.fixture(scope="module")
def workload(dataset):
    return dataset.workload(150, 2, 0.1, seed=13)


REQUIREMENTS = {
    "generalized": {"beta": 2.0},
    "perturbed": {"beta": 4.0},
    "anatomy": {"l": 4},
    "baseline": {"l": 2},
}


# ----------------------------------------------------------------------
# Byte-identity: the facade must be a pure re-plumbing of the layers
# ----------------------------------------------------------------------


class TestByteIdentity:
    def test_anonymize_matches_engine_run(self, dataset):
        facade = dataset.anonymize("burel", beta=3.0).published
        direct = engine_run("burel", dataset.table, beta=3.0).published
        assert publication_digest(facade) == publication_digest(direct)

    def test_seeded_runs_match_engine(self, dataset):
        facade = dataset.anonymize("anatomy", rng=5, l=3).published
        direct = engine_run("anatomy", dataset.table, rng=5, l=3).published
        assert publication_digest(facade) == publication_digest(direct)

    def test_evaluate_all_kinds(self, dataset, publications, workload):
        facade = dataset.evaluate(publications, workload)
        direct = evaluate_workload(dataset.table, publications, workload)
        assert list(facade) == list(KINDS)
        for kind in KINDS:
            assert facade[kind] == direct[kind], kind

    def test_audit_group_kinds(self, dataset, publications):
        grouped = {
            k: publications[k] for k in ("generalized", "anatomy")
        }
        facade = dataset.audit(
            grouped, attacks=("skewness",), ordered_emd=True
        )
        direct = audit_publications(
            dataset.table, grouped, attacks=("skewness",), ordered_emd=True
        )
        for kind, report in facade.items():
            assert report.privacy == direct[kind].privacy
            assert report.risk == direct[kind].risk
            assert report.skewness == direct[kind].skewness

    def test_run_audit_with_attack(self, dataset, runs):
        facade = runs["generalized"].audit(attacks=("naive_bayes",))
        direct = audit_publications(
            dataset.table,
            {"run": runs["generalized"].published},
            attacks=("naive_bayes",),
        )["run"]
        assert facade.privacy == direct.privacy
        assert facade.naive_bayes.accuracy == direct.naive_bayes.accuracy

    def test_certify_all_kinds(self, dataset, runs, publications):
        for kind in KINDS:
            requirement = REQUIREMENTS[kind]
            if kind == "baseline":
                facade = certify_publication(
                    publications[kind], requirement, cache=dataset.cache
                )
            else:
                facade = runs[kind].certify(requirement)
            direct = certify_publication(publications[kind], requirement)
            assert facade == direct, kind

    def test_publish_all_kinds_roundtrip(
        self, dataset, runs, publications, workload, tmp_path
    ):
        facade_store = PublicationStore(tmp_path / "facade")
        direct_store = PublicationStore(tmp_path / "direct")
        for kind in KINDS:
            requirement = REQUIREMENTS[kind]
            if kind == "baseline":
                record = facade_store.put(
                    publications[kind],
                    requirement=requirement,
                    cache=dataset.cache,
                )
            else:
                record = runs[kind].publish(
                    facade_store, requirement=requirement
                )
            direct = direct_store.put(
                publications[kind], requirement=requirement
            )
            assert record.pub_id == direct.pub_id, kind
            assert record.audit == direct.audit, kind
            # The reloaded publication answers identically through the
            # facade (content-keyed: no identity with dataset.table).
            reloaded = facade_store.get(record.pub_id)
            facade_profile = dataset.evaluate(
                {"reloaded": reloaded}, workload
            )["reloaded"]
            direct_profile = evaluate_workload(
                dataset.table, {"p": publications[kind]}, workload
            )["p"]
            assert facade_profile == direct_profile, kind

    def test_publish_records_run_provenance(self, dataset, runs, tmp_path):
        store = PublicationStore(tmp_path / "prov")
        record = runs["anatomy"].publish(store, requirement={"l": 4})
        assert record.kind == "anatomy"
        assert record.algorithm == "anatomy"
        assert record.seed == 1
        assert record.params["l"] == 4
        assert record.n_groups == len(runs["anatomy"].published.groups)
        assert store.record(record.pub_id).pub_id == record.pub_id

    def test_certification_gate_still_refuses(self, dataset, runs):
        with pytest.raises(CertificationError):
            runs["generalized"].certify({"beta": 0.01})

    def test_precise_matches_direct(self, dataset, workload):
        facade = dataset.precise(workload)
        direct = answer_precise_batch(dataset.table, workload)
        assert np.array_equal(facade, direct)


# ----------------------------------------------------------------------
# Cache semantics
# ----------------------------------------------------------------------


class TestCacheSemantics:
    def test_artifacts_hit_on_reuse(self):
        ds = Dataset.from_census(800, seed=3, qi_names=("Age", "Gender"))
        w = ds.workload(40, 1, 0.2)
        before = ds.cache.stats()["hits"]
        ds.precise(w)
        ds.precise(w)
        assert ds.cache.stats()["hits"] > before
        assert ("precise", ds.content_key, tuple(w)) in ds.cache

    def test_equal_content_tables_share_artifacts(self):
        cache = ArtifactCache()
        a = Dataset.from_census(600, seed=5, qi_names=("Age",), cache=cache)
        b = Dataset.from_census(600, seed=5, qi_names=("Age",), cache=cache)
        assert a.table is not b.table
        assert a.content_key == b.content_key
        assert a.mask_engine() is b.mask_engine()
        assert a.hilbert_keys() is b.hilbert_keys()

    def test_store_reload_shares_view(self, dataset, runs, tmp_path):
        store = PublicationStore(tmp_path / "view-share")
        record = runs["generalized"].publish(
            store, requirement={"beta": 2.0}
        )
        reloaded = store.get(record.pub_id)
        assert reloaded is not runs["generalized"].published
        assert dataset.view(reloaded) is runs["generalized"].view()

    def test_invalidate_by_kind(self):
        ds = Dataset.from_census(600, seed=4, qi_names=("Age",))
        w = ds.workload(20, 1, 0.2)
        ds.precise(w)
        assert ds.invalidate("precise") == 1
        assert ("precise", ds.content_key, tuple(w)) not in ds.cache
        # Rebuilt on next use, other kinds untouched.
        assert ds.cache.stats()["kinds"].get("mask_engine") is not None
        ds.precise(w)
        assert ("precise", ds.content_key, tuple(w)) in ds.cache

    def test_invalidate_by_publication(self, dataset, publications):
        view_key = (
            "view",
            dataset.cache.publication_key(publications["generalized"]),
        )
        dataset.view(publications["generalized"])
        assert view_key in dataset.cache
        removed = dataset.cache.invalidate(
            publication=publications["generalized"]
        )
        assert removed >= 1
        assert view_key not in dataset.cache

    def test_size_accounting_and_eviction(self):
        cache = ArtifactCache(max_bytes=4_000)
        for i in range(10):
            cache.put(("view", f"digest{i}"), np.zeros(128))  # 1 KB each
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert stats["nbytes"] <= 4_000
        # The most recent entry always survives.
        assert ("view", "digest9") in cache

    def test_artifacts_charged_what_they_own(self, publications):
        from repro.api import estimate_nbytes
        from repro.query.evaluate import RangeBitmapIndex

        ds = Dataset.from_census(
            3_000, seed=2, qi_names=("Age", "Gender", "Education")
        )
        ds.mask_engine()
        enc = ds.encode(ds.workload(50, 1, 0.2))
        kinds = ds.cache.stats()["kinds"]
        assert kinds["mask_engine"]["nbytes"] == (
            RangeBitmapIndex.estimate_bytes(ds.table)
        )
        assert kinds["encoded"]["nbytes"] == sum(
            a.nbytes
            for a in (enc.qi_lo, enc.qi_hi, enc.constrained, enc.sa_lo, enc.sa_hi)
        )
        # Publications are referenced, never owned, like the table.
        for published in publications.values():
            assert estimate_nbytes({"published": published}) == 0

    def test_oversized_entry_survives_alone(self):
        cache = ArtifactCache(max_bytes=100)
        cache.put(("precise", "d", "w"), np.zeros(1_000))
        assert ("precise", "d", "w") in cache
        assert len(cache) == 1

    def test_service_eviction_keeps_shared_mask_engine(self, tmp_path):
        from repro.service import QueryService

        ds = Dataset.from_census(800, seed=6, qi_names=("Age", "Gender"))
        store = PublicationStore(tmp_path / "evict", cache=ds.cache)
        # Anatomy answering needs the shared per-table mask engine;
        # serving it first materializes the engine in the cache.
        first = ds.anonymize("anatomy", rng=0, l=2).publish(
            store, requirement={"l": 2}
        )
        second = ds.anonymize("burel", beta=2.0).publish(
            store, requirement={"beta": 2.0}
        )
        w = ds.workload(10, 1, 0.2)
        # backend="bitmap" forces the mask-engine path; under the
        # default "auto" the anatomy publication is served from its
        # precomputed count cube and the engine is never built.
        with QueryService(
            store, cache_size=1, artifact_cache=ds.cache, backend="bitmap"
        ) as service:
            service.answer(first.pub_id, w)
            engine_key = ("mask_engine", ds.content_key)
            assert engine_key in ds.cache
            # Loading the second publication evicts the first; the mask
            # engine is shared by every publication over this table, so
            # it must survive while one of them is still cached.
            service.answer(second.pub_id, w)
            assert engine_key in ds.cache

    def test_rejects_non_table(self):
        with pytest.raises(TypeError, match="wraps a repro Table"):
            Dataset("not a table")

    def test_table_digest_is_content_based(self):
        from repro.dataset import make_census

        a = make_census(500, seed=9, qi_names=("Age", "Gender"))
        b = make_census(500, seed=9, qi_names=("Age", "Gender"))
        c = make_census(500, seed=10, qi_names=("Age", "Gender"))
        assert table_digest(a) == table_digest(b)
        assert table_digest(a) != table_digest(c)


# ----------------------------------------------------------------------
# Sweep semantics
# ----------------------------------------------------------------------


class TestSweep:
    def test_sweep_preserves_spec_order_and_determinism(self, dataset):
        specs = [
            ("burel", {"beta": 4.0}),
            ("burel", {"beta": 1.0}),
            ("mondrian", {"kind": "beta", "beta": 2.0}),
        ]
        first = dataset.sweep(specs)
        second = dataset.sweep(specs)
        assert [r.algorithm for r in first] == ["burel", "burel", "mondrian"]
        assert first[0].params["beta"] == 4.0
        assert first[1].params["beta"] == 1.0
        for a, b in zip(first, second):
            assert publication_digest(a.published) == publication_digest(
                b.published
            )

    def test_sweep_matches_individual_runs(self, dataset):
        swept = dataset.sweep(
            [("burel", {"beta": b}) for b in (1.0, 3.0)]
        )
        for run, beta in zip(swept, (1.0, 3.0)):
            single = dataset.anonymize("burel", beta=beta)
            assert publication_digest(run.published) == publication_digest(
                single.published
            )

    def test_sweep_mapping_specs_with_seeds(self, dataset):
        runs = dataset.sweep(
            [
                {"algorithm": "anatomy", "params": {"l": 3}, "seed": 11},
                {"algorithm": "anatomy", "params": {"l": 3}, "seed": 11},
                {"algorithm": "anatomy", "params": {"l": 3}, "seed": 12},
            ]
        )
        digests = [publication_digest(r.published) for r in runs]
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]
        assert runs[0].seed == 11

    def test_sweep_rejects_foreign_table_jobs(self, dataset):
        from repro.engine import EngineJob

        with pytest.raises(ValueError, match="its own table"):
            dataset.sweep([EngineJob("burel", {"beta": 2.0}, table=1)])

    def test_sweep_rejects_malformed_spec(self, dataset):
        with pytest.raises(TypeError, match="sweep specs"):
            dataset.sweep([42])


# ----------------------------------------------------------------------
# Legacy layer entry points vs the facade
# ----------------------------------------------------------------------


class TestDeprecationShims:
    def test_legacy_entry_points_warn_once_and_agree(self, dataset, workload):
        """The pre-facade layer entry points equal the facade byte for
        byte.  (The names predate the removal of their warn-once
        deprecation shims; the ids are kept stable.)"""
        from repro import audit_publications, burel
        from repro.query import evaluate_workload

        table = dataset.table
        legacy = burel(table, 2.0)
        legacy_eval = evaluate_workload(
            table, {"p": legacy.published}, workload
        )["p"]
        legacy_audit = audit_publications(table, {"p": legacy.published})["p"]

        run = dataset.anonymize("burel", beta=2.0)
        assert publication_digest(run.published) == publication_digest(
            legacy.published
        )
        assert run.evaluate(workload) == legacy_eval
        report = run.audit()
        assert report.privacy == legacy_audit.privacy
        assert report.risk == legacy_audit.risk


# ----------------------------------------------------------------------
# Versioned datasets: append, dirty-shard invalidation, incremental
# refresh (PR 7 tentpole)
# ----------------------------------------------------------------------


def _clustered_delta(table, plan, shard_index, k, seed):
    """k rows whose QI vectors come from one shard's key range."""
    rng = np.random.default_rng(seed)
    pick = rng.choice(plan.shards[shard_index].rows, size=k, replace=True)
    sa = rng.choice(
        table.schema.sensitive.cardinality,
        size=k,
        p=table.sa_distribution(),
    )
    return Table(table.schema, table.qi[pick], sa)


#: Lineage configurations: (algorithm, params, seed).
LINEAGES = {
    "burel-seeded": ("burel", {"beta": 2.0}, 17),
    "burel-deterministic": ("burel", {"beta": 2.0}, None),
    "anatomy": ("anatomy", {"l": 3}, 5),
}


def _lineage(rows, table_seed, variant, shards, max_bytes):
    """A sharded baseline over a small synthetic table.

    Anatomy refuses a shard in which one SA value exceeds frequency
    1/ℓ (rows=650, table_seed=2, shards=6 has one).  Such a table has
    no lineage: the example is rejected once the refusal is checked to
    be that one."""
    from repro.dataset.synthetic import synthetic

    algorithm, params, seed = LINEAGES[variant]
    table = synthetic(
        rows, qi_dims=3, sa_cardinality=8, skew=0.5, seed=table_seed,
        correlation=0.0,
    )
    ds = Dataset(table, cache=ArtifactCache(max_bytes=max_bytes))
    try:
        ds.anonymize(algorithm, rng=seed, shards=shards, **params)
    except ValueError as exc:
        if algorithm != "anatomy" or "-eligible" not in str(exc):
            raise
        assert any(
            np.bincount(table.sa[shard.rows]).max() * params["l"]
            > shard.n_rows
            for shard in ds.sharded(1, shards).plan.shards
        )
        reject()
    return ds


def _cold_run(ds, variant, state, pinned):
    """The from-scratch sharded run a refresh claims to equal."""
    from repro.parallel import ShardedSession

    algorithm, params, seed = LINEAGES[variant]
    session = ShardedSession(
        ds.table, plan=state.plan, sa_distribution=pinned,
        cache=ArtifactCache(),
    )
    return session.anonymize(algorithm, seed=seed, **params)


class TestGeneratedLineages:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=st.integers(600, 1_500),
        table_seed=st.integers(0, 40),
        variant=st.sampled_from(sorted(LINEAGES)),
        shards=st.integers(2, 6),
        max_bytes=st.sampled_from([None, 30_000]),
        appends=st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(1, 200), st.integers(0, 999)
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(
        rows=1_500, table_seed=3, variant="burel-seeded", shards=6,
        max_bytes=30_000, appends=[(0, 50, 1)],
    )
    def test_refresh_equals_cold_run(
        self, rows, table_seed, variant, shards, max_bytes, appends
    ):
        """Every refresh of a generated lineage equals the cold run over
        the lineage's plan and pinned P: digest and audit.  Its reused
        and recomputed shards partition the plan, and every dirty shard
        is recomputed — with an unbounded cache and with one small
        enough to evict clean pieces."""
        ds = _lineage(rows, table_seed, variant, shards, max_bytes)
        state = ds.version_state()
        pinned = state.sa_distribution.copy()
        for shard, k, delta_seed in appends:
            ds.append(
                _clustered_delta(
                    ds.table, state.plan, shard % shards, k, delta_seed
                )
            )
            dirty = set(state.dirty)
            run = ds.refresh()
            assert sorted(run.reused + run.recomputed) == list(range(shards))
            assert dirty <= set(run.recomputed)
            cold = _cold_run(ds, variant, state, pinned)
            assert publication_digest(run.published) == (
                publication_digest(cold.published)
            )
            assert run.audit() == cold.audit()

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=st.integers(600, 1_500),
        table_seed=st.integers(0, 40),
        variant=st.sampled_from(sorted(LINEAGES)),
        shards=st.integers(2, 6),
        max_bytes=st.sampled_from([None, 30_000]),
        appends=st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(1, 200), st.integers(0, 999),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(  # one-row deltas
        rows=900, table_seed=1, variant="burel-seeded", shards=3,
        max_bytes=None, appends=[(1, 1, 4, False), (2, 1, 5, False)],
    )
    @example(  # one row twice, then 40 rows twice each
        rows=900, table_seed=2, variant="burel-deterministic", shards=4,
        max_bytes=None, appends=[(0, 1, 6, True), (2, 40, 7, True)],
    )
    @example(
        rows=1_500, table_seed=3, variant="burel-seeded", shards=6,
        max_bytes=30_000, appends=[(0, 50, 1, False), (3, 20, 2, True)],
    )
    def test_carried_answers_equal_cold(
        self, rows, table_seed, variant, shards, max_bytes, appends
    ):
        """Precise answers cached before the first append are carried
        across every append: after each append and each refresh they are
        the read-only int64 bytes a cold computation over a copy of the
        grown table gives, and each refreshed run's error profile is a
        cold evaluation's.  Two workloads and an empty one are cached at
        once.  With an unbounded cache each workload keeps one encoding
        and one answer array, and evaluating a BUREL run builds no mask
        engine over the grown table; under the small budget an evicted
        entry is recomputed on use."""
        ds = _lineage(rows, table_seed, variant, shards, max_bytes)
        state = ds.version_state()
        workloads = [
            make_workload(ds.schema, 30, 2, 0.2, rng=table_seed),
            make_workload(ds.schema, 7, 1, 0.3, rng=table_seed + 1),
            (),
        ]
        for queries in workloads:
            ds.precise(queries)

        def check_precise() -> Table:
            grown = Table(ds.schema, ds.table.qi.copy(), ds.table.sa.copy())
            for queries in workloads:
                got = ds.precise(queries)
                assert got.dtype == np.int64 and not got.flags.writeable
                assert got.tobytes() == (
                    answer_precise_batch(grown, queries).tobytes()
                )
            return grown

        for shard, k, delta_seed, duplicate in appends:
            delta = _clustered_delta(
                ds.table, state.plan, shard % shards, k, delta_seed
            )
            if duplicate:
                delta = Table.concat([delta, delta])
            ds.append(delta)
            check_precise()
            run = ds.refresh()
            grown = check_precise()
            for queries in workloads[:2]:
                assert run.evaluate(queries) == evaluate_workload(
                    grown, {"run": run.published}, queries
                )["run"]
            answers = [
                key for key in ds.cache.keys()
                if key[0] in ("encoded", "precise")
            ]
            assert all(key[1] == ds.content_key for key in answers)
            if max_bytes is None:
                assert Counter(answers) == Counter(
                    (kind, ds.content_key, tuple(queries))
                    for kind in ("encoded", "precise")
                    for queries in workloads
                )
                if variant != "anatomy":
                    assert ("mask_engine", ds.content_key) not in ds.cache

    def test_evicted_clean_pieces_are_recomputed(self):
        """A byte budget below the lineage's pieces evicts clean ones;
        the refresh rebuilds them through the same shard runner."""
        ds = _lineage(1_500, 3, "burel-seeded", 6, 30_000)
        state = ds.version_state()
        pinned = state.sa_distribution.copy()
        ds.append(_clustered_delta(ds.table, state.plan, 0, 50, 1))
        run = ds.refresh()
        assert set(run.recomputed) > {0}
        cold = _cold_run(ds, "burel-seeded", state, pinned)
        assert publication_digest(run.published) == (
            publication_digest(cold.published)
        )


class TestVersionedDataset:
    SHARDS = 6

    @pytest.fixture()
    def vds(self):
        from repro.dataset.synthetic import synthetic

        table = synthetic(
            4_000, qi_dims=3, sa_cardinality=12, skew=0.8, seed=3,
            correlation=0.0,
        )
        ds = Dataset(table)
        ds.anonymize("burel", beta=2.0, rng=17, shards=self.SHARDS)
        yield ds
        ds.close_parallel()

    def test_baseline_tracks_state(self, vds):
        state = vds.version_state()
        assert state is not None
        assert state.version == 0 and not state.dirty
        assert state.plan.n_shards == self.SHARDS
        keys = [k for k in vds.cache.keys() if k[0] == "shard_run"]
        assert len(keys) == self.SHARDS
        assert all(k == ("shard_run", state.token, i)
                   for i, k in enumerate(sorted(keys, key=lambda k: k[2])))

    def test_append_evicts_dirty_retains_clean(self, vds):
        state = vds.version_state()
        delta = _clustered_delta(vds.table, state.plan, 2, 150, seed=5)
        added = vds.append(delta)
        assert added == 150
        assert state.dirty == {2}
        # Exactly the dirty shard's artifact is gone...
        assert state.shard_key(2) not in vds.cache
        # ...and every clean shard's artifact is retained.
        for i in range(self.SHARDS):
            if i != 2:
                assert state.shard_key(i) in vds.cache

    def test_append_seeds_grown_table_artifacts(self, vds):
        old_keys = vds.hilbert_keys()
        delta = _clustered_delta(vds.table, vds.version_state().plan, 1,
                                 80, seed=6)
        vds.append(delta)
        new_key = vds.content_key
        # Seeded, not recomputed: present in the cache before any use...
        assert ("hilbert_keys", new_key) in vds.cache
        assert ("sa_distribution", new_key) in vds.cache
        # ...and exactly equal to a from-scratch computation.
        from repro.core.retrieve import qi_space_keys

        np.testing.assert_array_equal(
            vds.hilbert_keys(), qi_space_keys(vds.table)
        )
        np.testing.assert_array_equal(vds.hilbert_keys()[: len(old_keys)],
                                      old_keys)
        np.testing.assert_array_equal(
            vds.sa_distribution(), vds.table.sa_distribution()
        )

    def test_append_drops_superseded_engines(self, vds):
        from repro.query.evaluate import resolve_cube

        queries = make_workload(vds.schema, 40, 2, 0.2, rng=4)
        vds.mask_engine()
        resolve_cube(vds.table, vds.cache, "cube")
        old_key = vds.content_key
        for kind in ("mask_engine", "cube_table"):
            assert (kind, old_key) in vds.cache
        delta = _clustered_delta(vds.table, vds.version_state().plan, 1,
                                 60, seed=12)
        vds.append(delta)
        assert not [key for key in vds.cache.keys()
                    if key[0] in ("mask_engine", "cube_table")
                    and old_key in key[1:]]
        np.testing.assert_array_equal(
            vds.precise(queries), Dataset(vds.table).precise(queries)
        )

    @pytest.mark.parametrize(
        "case", ["out_of_domain", "other_schema", "answering_fails"]
    )
    def test_failed_append_leaves_dataset_unchanged(
        self, vds, monkeypatch, case
    ):
        """An append that is refused, or fails while carrying a cached
        workload's precise answers, raises and leaves the table, its
        content key, the lineage and the cache's entries as they were.
        (Reading an entry refreshes its recency, so the keys compare as
        a set.)"""
        import repro.api.dataset as dataset_module
        from repro.dataset.synthetic import synthetic

        vds.precise(make_workload(vds.schema, 40, 2, 0.2, rng=4))
        state = vds.version_state()
        rows = state.plan.shards[1].rows[:40]
        delta = (vds.table.qi[rows].copy(), vds.table.sa[rows])
        if case == "out_of_domain":
            delta[0][0, 0] = vds.schema.qi[0].hi + 1
            error, match = ValueError, "outside domain"
        elif case == "other_schema":
            delta = synthetic(
                40, qi_dims=3, sa_cardinality=12, seed=3, qi_domain=64
            )
            error, match = ValueError, "different schemas"
        else:
            def fail(*args, **kwargs):
                raise RuntimeError("answering failed")

            monkeypatch.setattr(dataset_module, "answer_precise_batch", fail)
            error, match = RuntimeError, "answering failed"
        table, key, plan = vds.table, vds.content_key, state.plan
        n_rows, dirty = plan.n_rows, set(state.dirty)
        keys = set(vds.cache.keys())
        with pytest.raises(error, match=match):
            vds.append(delta)
        assert vds.table is table and vds.content_key == key
        assert state.plan is plan and plan.n_rows == n_rows
        assert state.dirty == dirty
        assert set(vds.cache.keys()) == keys

    def test_rounds_keep_one_version_of_artifacts(self, vds, tmp_path):
        """Append/refresh/publish/evaluate rounds keep one version's
        artifacts: an append drops what the old content keyed, a refresh
        drops the superseded publication's view.  The refreshed
        publications and estimates are those of a cold run."""

        from repro.parallel import ShardedSession

        state = vds.version_state()
        pinned = state.sa_distribution.copy()
        store = PublicationStore(tmp_path / "store", cache=vds.cache)
        queries = make_workload(vds.schema, 40, 2, 0.2, rng=4)
        for rnd in range(4):
            delta = _clustered_delta(
                vds.table, state.plan, (1 + 2 * rnd) % self.SHARDS, 50,
                seed=30 + rnd,
            )
            vds.append(delta)
            run = vds.refresh()
            run.publish(store, requirement={"beta": 3.0})
            profile = run.evaluate(queries)
            assert profile == evaluate_workload(
                vds.table, {"run": run.published}, queries
            )["run"]
        kinds = Counter(key[0] for key in vds.cache.keys())
        for kind in ("hilbert_keys", "sa_distribution", "encoded",
                     "precise", "view"):
            assert kinds[kind] == 1, (kind, kinds)
        assert ("view", publication_digest(run.published)) in vds.cache
        cold = ShardedSession(
            vds.table, workers=1, plan=state.plan, sa_distribution=pinned
        ).anonymize("burel", beta=2.0, seed=17)
        assert publication_digest(run.published) == publication_digest(
            cold.published
        )

    def test_refresh_hits_clean_entries(self, vds):
        state = vds.version_state()
        delta = _clustered_delta(vds.table, state.plan, 4, 120, seed=7)
        vds.append(delta)
        dirty = set(state.dirty)
        clean = set(range(self.SHARDS)) - dirty
        before = vds.cache.stats()
        run = vds.refresh()
        after = vds.cache.stats()
        # Every clean shard's artifact was *hit* (get_or_build), not
        # merely present.
        assert after["hits"] - before["hits"] >= len(clean)
        assert set(run.reused) == clean
        assert set(run.recomputed) == dirty
        assert run.version == 1 and not state.dirty
        inc = run.provenance["incremental"]
        assert inc["token"] == state.token
        assert set(inc["reused"]) == clean

    def test_refresh_byte_identical_to_cold(self, vds):
        from repro.parallel import ShardedSession

        state = vds.version_state()
        pinned = state.sa_distribution.copy()
        delta = _clustered_delta(vds.table, state.plan, 3, 100, seed=8)
        vds.append(delta)
        run = vds.refresh()
        cold = ShardedSession(
            vds.table, workers=1, plan=state.plan, sa_distribution=pinned
        ).anonymize("burel", beta=2.0, seed=17)
        assert publication_digest(run.published) == publication_digest(
            cold.published
        )
        warm_report, cold_report = run.audit(), cold.audit()
        assert warm_report.privacy == cold_report.privacy
        assert warm_report.risk == cold_report.risk

    def test_second_round_stays_identical(self, vds):
        from repro.parallel import ShardedSession

        state = vds.version_state()
        pinned = state.sa_distribution.copy()
        for round_seed, shard in ((9, 0), (10, 5)):
            delta = _clustered_delta(
                vds.table, state.plan, shard, 90, seed=round_seed
            )
            vds.append(delta)
            run = vds.refresh()
        assert run.version == 2
        cold = ShardedSession(
            vds.table, workers=1, plan=state.plan, sa_distribution=pinned
        ).anonymize("burel", beta=2.0, seed=17)
        assert publication_digest(run.published) == publication_digest(
            cold.published
        )

    def test_refresh_audits_current_distribution(self, vds):
        state = vds.version_state()
        delta = _clustered_delta(vds.table, state.plan, 2, 200, seed=11)
        vds.append(delta)
        run = vds.refresh()
        view = run.view()
        # The audit view measures the *grown* table's true P, not the
        # pinned anonymization-time baseline.
        np.testing.assert_array_equal(
            view.global_distribution, vds.table.sa_distribution()
        )
        assert not np.array_equal(
            view.global_distribution, state.sa_distribution
        )

    def test_append_accepts_array_pair(self, vds):
        state = vds.version_state()
        rows = state.plan.shards[1].rows[:40]
        added = vds.append((vds.table.qi[rows], vds.table.sa[rows]))
        assert added == 40
        assert vds.n_rows == 4_040

    def test_empty_append_is_noop(self, vds):
        state = vds.version_state()
        added = vds.append(
            (np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        assert added == 0
        assert not state.dirty and vds.n_rows == 4_000

    def test_refresh_without_baseline_raises(self):
        ds = Dataset.from_census(500, seed=1)
        with pytest.raises(RuntimeError, match="tracked baseline"):
            ds.refresh()

    def test_context_manager_closes_pools(self):
        from repro.dataset.synthetic import synthetic

        table = synthetic(
            2_000, qi_dims=3, sa_cardinality=12, skew=0.8, seed=3,
            correlation=0.0,
        )
        with Dataset(table) as ds:
            ds.anonymize("burel", beta=2.0, rng=1, shards=3)
            assert ds._sharded
        assert not ds._sharded

    def test_new_baseline_drops_previous_lineage(self, vds):
        state = vds.version_state()
        vds.anonymize("burel", beta=3.0, rng=17, shards=self.SHARDS)
        fresh = vds.version_state()
        assert fresh.token != state.token
        assert all(
            state.shard_key(i) not in vds.cache for i in range(self.SHARDS)
        )
        assert all(
            fresh.shard_key(i) in vds.cache for i in range(self.SHARDS)
        )


def test_append_memory_ceiling():
    """tracemalloc peak of an append that carries a cached 200-query
    workload's precise answers, per row of the grown table: 20K
    synthetic rows over 512-value QI domains, 4 shards, a 500-row delta.
    56.0 B per row measured, as much as an append that drops the answers;
    ceiling 64.  Answering over a rebuilt full-table engine instead of
    the delta alone would peak near the bitmap index's 530 B per row."""
    from repro.dataset.synthetic import synthetic
    from repro.query.workload import QueryTuple

    table = synthetic(
        20_000, qi_dims=3, sa_cardinality=32, skew=0.8, seed=7,
        qi_domain=512,
    )
    ds = Dataset(table)
    ds.anonymize("burel", beta=2.0, rng=17, shards=4)
    workload = ds.workload(200, seed=3)
    ds.precise(workload)
    delta = _clustered_delta(table, ds.version_state().plan, 1, 500, seed=9)
    tracemalloc.start()
    try:
        ds.append(delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ("precise", ds.content_key, QueryTuple(workload)) in ds.cache
    assert peak <= 64 * ds.n_rows
