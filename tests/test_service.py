"""Tests for the publication store and the concurrent query service."""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.anonymity import BaselinePublication, anatomize
from repro.api import Dataset
from repro.core import burel, perturb_table
from repro.query import batch_estimates, evaluate_workload, make_workload
from repro.service import (
    CertificationError,
    PublicationStore,
    QueryService,
    certify_publication,
)
from repro.service import server as server_module


@pytest.fixture(scope="module")
def table():
    from repro.dataset import CENSUS_QI_ORDER, make_census

    return make_census(4_000, seed=7, correlation=0.3, qi_names=CENSUS_QI_ORDER)


@pytest.fixture(scope="module")
def publications(table):
    return {
        "generalized": burel(table, 2.0).published,
        "perturbed": perturb_table(table, 4.0, rng=np.random.default_rng(29)),
        "anatomy": anatomize(table, 4, rng=np.random.default_rng(1)),
        "baseline": BaselinePublication(table),
    }


@pytest.fixture(scope="module")
def requirements():
    return {
        "generalized": {"beta": 2.0},
        "perturbed": {"beta": 4.0},
        "anatomy": {"l": 4},
        "baseline": {"beta": 2.0},
    }


@pytest.fixture(scope="module")
def workload(table):
    return make_workload(table.schema, 150, lam=3, theta=0.1, rng=13)


@pytest.fixture()
def store(tmp_path):
    return PublicationStore(tmp_path / "store")


class TestStoreRoundTrip:
    @pytest.mark.parametrize(
        "kind", ["generalized", "perturbed", "anatomy", "baseline"]
    )
    def test_lossless(self, store, publications, requirements, kind):
        original = publications[kind]
        record = store.put(original, requirement=requirements[kind])
        restored = store.get(record.pub_id)
        assert np.array_equal(restored.source.qi, original.source.qi)
        assert np.array_equal(restored.source.sa, original.source.sa)
        if hasattr(original, "classes"):
            for a, b in zip(original.classes, restored.classes):
                assert np.array_equal(a.rows, b.rows)
                assert a.box == b.box
                assert np.array_equal(a.sa_counts, b.sa_counts)
        if hasattr(original, "groups"):
            assert restored.l == original.l
            for a, b in zip(original.groups, restored.groups):
                assert np.array_equal(a.rows, b.rows)
                assert np.array_equal(a.sa_counts, b.sa_counts)
        if hasattr(original, "scheme"):
            assert np.array_equal(
                restored.sa_perturbed, original.sa_perturbed
            )
            assert np.array_equal(
                restored.scheme.matrix, original.scheme.matrix
            )
            assert restored.scheme.c_lm == original.scheme.c_lm

    def test_schema_hierarchies_survive(self, store, publications, requirements):
        record = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
        )
        schema = store.get(record.pub_id).source.schema
        original = publications["generalized"].schema
        for restored_attr, attr in zip(schema.qi, original.qi):
            assert restored_attr.name == attr.name
            assert restored_attr.kind == attr.kind
            if attr.hierarchy is not None:
                assert (
                    [n.label for n in restored_attr.hierarchy.leaves]
                    == [n.label for n in attr.hierarchy.leaves]
                )
                assert restored_attr.hierarchy.height == attr.hierarchy.height
        assert schema.sensitive.values == original.sensitive.values

    def test_restored_answers_bit_identical(
        self, store, table, publications, requirements, workload
    ):
        record = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
        )
        restored = store.get(record.pub_id)
        direct = batch_estimates(
            table, {"x": publications["generalized"]}, workload
        )["x"]
        roundtripped = batch_estimates(
            restored.source, {"x": restored}, workload
        )["x"]
        assert np.array_equal(direct, roundtripped)

    def test_put_is_idempotent(self, store, publications, requirements):
        first = store.put(
            publications["anatomy"], requirement=requirements["anatomy"]
        )
        second = store.put(
            publications["anatomy"], requirement=requirements["anatomy"]
        )
        assert first.pub_id == second.pub_id
        assert store.ids() == [first.pub_id]

    def test_resolve_prefix(self, store, publications, requirements):
        record = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
        )
        assert store.resolve(record.pub_id[:8]) == record.pub_id
        with pytest.raises(KeyError, match="no publication"):
            store.resolve("ffff" * 16)

    def test_corrupt_payload_detected(
        self, store, publications, requirements
    ):
        record = store.put(
            publications["baseline"], requirement=requirements["baseline"]
        )
        payload = store.root / "objects" / record.pub_id / "payload.npz"
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))
        with pytest.raises(Exception):  # hash mismatch or zip error
            store.get(record.pub_id)


class TestConcurrentAdmission:
    def test_two_writers_of_one_publication(self, tmp_path, publications):
        """Two threads admitting one publication to one store used to
        rename each other's shared temp file away (``FileNotFoundError``
        from ``Path.replace``); each writer now lands its own temp name."""
        published = publications["generalized"]
        requirement = {"beta": 2.0}
        for trial in range(20):
            store = PublicationStore(tmp_path / f"store{trial}")
            barrier = threading.Barrier(2)
            records, errors = [], []

            def admit():
                barrier.wait(timeout=30)
                try:
                    records.append(
                        store.put(published, requirement=requirement)
                    )
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=admit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert records[0] == records[1]
            # get() re-hashes the payload against its id.
            assert len(store.get(records[0].pub_id)) == len(published)
            assert store.ids() == [records[0].pub_id]
            assert not list((tmp_path / f"store{trial}").rglob("*.tmp"))


@pytest.fixture(scope="module")
def census_30k():
    from repro.dataset import CENSUS_QI_ORDER, make_census

    return Dataset(make_census(30_000, seed=7, qi_names=CENSUS_QI_ORDER[:3]))


def _put_peak(run, root, requirement) -> int:
    """tracemalloc peak of admitting a run's publication, its audit view
    warmed by a certification first."""
    run.certify(requirement)
    store = PublicationStore(root, cache=run.dataset.cache)
    tracemalloc.start()
    try:
        store.put(run.published, requirement=requirement)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStorePutMemory:
    """Peaks of ``PublicationStore.put`` on 30K census rows over Age,
    Gender and Education, whose (QI..., SA) table cube fits the cube
    budget.  Measured on Python 3.11 with numpy 2.4."""

    @pytest.mark.parametrize(
        "algorithm, params, requirement",
        [
            ("burel", {"beta": 3.0}, {"beta": 3.0}),
            ("anatomy", {"rng": 1, "l": 4}, {"l": 4}),
        ],
    )
    def test_cubeless_put_below_40_bytes_per_row(
        self, census_30k, tmp_path, algorithm, params, requirement
    ):
        """A BUREL publication's EC kernel reads no cube, and this
        Anatomy group cube is over budget, so neither admission builds
        one: 0.70 MiB (24.5 B per row) measured for each; ceiling 40 B
        per row.  Building the table cube that neither reads peaked at
        3.67 MiB (128 B per row)."""
        run = census_30k.anonymize(algorithm, **params)
        peak = _put_peak(run, tmp_path, requirement)
        assert run.published.__dict__["_count_cube"] is None
        assert peak <= 40 * census_30k.n_rows

    def test_perturbed_put_below_three_payload_cubes(
        self, census_30k, tmp_path
    ):
        """A perturbed admission builds only its (QI...) x SA-value
        payload cube, whose int64 ``bincount`` is twice the int32 cube
        and lives beside its cast: three cubes plus the per-row index
        arrays.  3.39 MiB measured against a 0.82 MiB cube; ceiling
        three cubes plus 48 B per row.  Building the unread table cube
        as well peaked at 4.23 MiB."""
        run = census_30k.anonymize("perturb", rng=29, beta=4.0)
        peak = _put_peak(run, tmp_path, {"beta": 4.0})
        cube = run.published.__dict__["_count_cube"]
        assert cube.table is None
        assert peak <= 3 * cube.payload.nbytes + 48 * census_30k.n_rows


class TestCertificationGate:
    def test_refuses_beta_violation(self, store, publications):
        with pytest.raises(CertificationError, match="measured beta"):
            store.put(publications["generalized"], requirement={"beta": 0.01})
        assert store.ids() == []  # nothing written on refusal

    def test_refuses_t_violation(self, store, publications):
        with pytest.raises(CertificationError, match="measured t"):
            store.put(publications["generalized"], requirement={"t": 1e-6})

    def test_refuses_l_violation(self, store, publications):
        with pytest.raises(CertificationError, match="measured l"):
            store.put(publications["anatomy"], requirement={"l": 10})

    def test_refuses_perturbed_beta_violation(self, store, publications):
        with pytest.raises(CertificationError, match="scheme caps"):
            store.put(publications["perturbed"], requirement={"beta": 0.5})

    def test_perturbed_rejects_fabricated_priors(self, table, publications):
        """Regression: the gate must not trust the scheme's self-declared
        priors — a scheme fit to a fake distribution passes its own cap
        check but violates the real contract."""
        import dataclasses

        from repro.core import PerturbationScheme, PerturbedTable

        fake = np.full(table.sa_cardinality, 1.0 / table.sa_cardinality)
        scheme = PerturbationScheme.fit(fake, beta=4.0)
        forged = PerturbedTable(
            source=table,
            sa_perturbed=publications["perturbed"].sa_perturbed,
            scheme=scheme,
        )
        with pytest.raises(CertificationError, match="priors|domain"):
            certify_publication(forged, {"beta": 4.0})
        # A wrong domain is also refused.
        genuine = publications["perturbed"].scheme
        truncated = dataclasses.replace(
            genuine,
            domain=genuine.domain[:-1],
            probs=genuine.probs[:-1],
            caps=genuine.caps[:-1],
            gammas=genuine.gammas[:-1],
            alphas=genuine.alphas[:-1],
            matrix=genuine.matrix[:-1, :-1],
        )
        forged = PerturbedTable(
            source=table,
            sa_perturbed=publications["perturbed"].sa_perturbed,
            scheme=truncated,
        )
        with pytest.raises(CertificationError, match="domain"):
            certify_publication(forged, {"beta": 4.0})

    def test_perturbed_rejects_group_contracts(self, store, publications):
        with pytest.raises(CertificationError, match="beta-likeness"):
            store.put(
                publications["perturbed"], requirement={"beta": 4.0, "l": 2}
            )

    def test_baseline_l_contract(self, table, publications):
        distinct = int(np.count_nonzero(table.sa_counts()))
        audit = certify_publication(
            publications["baseline"], {"l": distinct}
        )
        assert audit["privacy"]["l"] == distinct
        with pytest.raises(CertificationError, match="distinct SA"):
            certify_publication(
                publications["baseline"], {"l": distinct + 1}
            )

    def test_enhanced_beta_contract_enforced(self):
        """Regression: a group violating the enhanced f(p) cap must be
        refused even when its relative gain stays below beta."""
        from repro.dataset import (
            Attribute,
            Schema,
            SensitiveAttribute,
            Table,
            publish,
        )

        schema = Schema(
            [Attribute.numerical("Age", 0, 19)],
            SensitiveAttribute("D", ("a", "b")),
        )
        sa = np.array([0] * 10 + [1] * 10)
        table = Table(schema, np.arange(20)[:, None], sa)
        # One EC of 9 a's + 1 b, one EC with the rest: q = (0.9, 0.1)
        # against p = (0.5, 0.5).  Gain 0.8 <= 10, but the enhanced cap
        # is (1 + ln 2) * 0.5 ~= 0.847 < 0.9.
        rows = np.arange(20)
        published = publish(
            table, [np.concatenate([rows[:9], rows[10:11]]),
                    np.concatenate([rows[9:10], rows[11:]])]
        )
        with pytest.raises(CertificationError, match="enhanced"):
            certify_publication(published, {"beta": 10.0, "enhanced": True})
        audit = certify_publication(
            published, {"beta": 10.0, "enhanced": False}
        )
        assert audit["privacy"]["beta"] <= 10.0

    def test_reput_refreshes_contract(self, store, publications):
        """Regression: re-admitting identical content under a different
        certified requirement must not return stale provenance."""
        first = store.put(publications["anatomy"], requirement={"l": 2})
        assert first.requirement == {"l": 2}
        second = store.put(publications["anatomy"], requirement={"l": 4})
        assert second.pub_id == first.pub_id
        assert second.requirement == {"l": 4}
        assert store.record(first.pub_id).requirement == {"l": 4}

    def test_requirement_validation(self, store, publications):
        with pytest.raises(ValueError, match="unknown requirement"):
            store.put(publications["generalized"], requirement={"gamma": 1})
        with pytest.raises(ValueError, match="at least one"):
            store.put(publications["generalized"], requirement={})

    def test_audit_evidence_recorded(
        self, store, publications, requirements
    ):
        record = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
        )
        assert record.audit["privacy"]["beta"] <= 2.0 + 1e-9
        assert "risk" in record.audit
        manifest = json.loads(
            (
                store.root / "objects" / record.pub_id / "manifest.json"
            ).read_text()
        )
        assert manifest["requirement"] == {"beta": 2.0}


class TestEngineHook:
    def test_publish_run_records_provenance(self, store, table):
        """An engine run reaches the store through ``run.publish``, and
        the manifest carries the run's algorithm, params and seed."""
        with Dataset(table) as ds:
            run = ds.anonymize("anatomy", rng=1, l=4)
            record = run.publish(store, requirement={"l": 4})
        assert record.kind == "anatomy"
        assert record.algorithm == "anatomy"
        assert record.params["l"] == 4
        assert record.seed == 1
        assert record.n_groups == len(run.published.groups)
        assert store.record(record.pub_id).pub_id == record.pub_id
        reopened = PublicationStore(store.root).record(record.pub_id)
        assert (reopened.algorithm, reopened.seed) == ("anatomy", 1)
        assert reopened.params["l"] == 4


class TestRunAdmission:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_refused_publish_stores_nothing(self, store, table, shards):
        """``run.publish`` is the one admission path; a run whose
        publication fails its contract leaves the store untouched."""
        with Dataset(table) as ds:
            run = ds.anonymize("burel", beta=2.0, shards=shards)
            with pytest.raises(CertificationError):
                run.publish(store, requirement={"beta": 0.01}, name="v")
        assert store.ids() == []
        assert store.versions("v") == []
        assert list((store.root / "objects").iterdir()) == []


def _wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


class TestQueryService:
    @pytest.fixture()
    def served_batches(self, monkeypatch):
        """Each answered batch's queries, in serving order."""
        seen = []
        real = server_module.answer_batch

        def recording(table, publications, enc, *args, **kwargs):
            seen.append(tuple(enc.queries))
            return real(table, publications, enc, *args, **kwargs)

        monkeypatch.setattr(server_module, "answer_batch", recording)
        return seen

    @pytest.fixture()
    def loaded_store(self, store, publications, requirements):
        ids = {
            kind: store.put(
                publications[kind], requirement=requirements[kind]
            ).pub_id
            for kind in publications
        }
        return store, ids

    @pytest.mark.parametrize(
        "kind", ["generalized", "perturbed", "anatomy", "baseline"]
    )
    def test_bit_identical_to_direct_evaluation(
        self, loaded_store, table, publications, workload, kind
    ):
        store, ids = loaded_store
        with QueryService(store, workers=2, max_batch=32) as service:
            served = service.answer(ids[kind], workload)
        direct = batch_estimates(table, {kind: publications[kind]}, workload)[
            kind
        ]
        assert np.array_equal(served, direct)

    def test_profiles_match_evaluate_workload(
        self, loaded_store, table, publications, workload
    ):
        from repro.metrics.errors import error_profile
        from repro.query import answer_precise_batch

        store, ids = loaded_store
        direct = evaluate_workload(table, publications, workload)
        precise = answer_precise_batch(table, workload)
        with QueryService(store) as service:
            for kind in publications:
                served = service.answer(ids[kind], workload)
                assert error_profile(precise, served) == direct[kind]

    def test_concurrent_clients_one_publication(
        self, loaded_store, table, publications, workload
    ):
        store, ids = loaded_store
        direct = batch_estimates(
            table, {"x": publications["generalized"]}, workload
        )["x"]
        out = np.empty(len(workload))
        with QueryService(store, workers=3, max_batch=16) as service:
            pub_id = ids["generalized"]

            def client(offset: int):
                futures = [
                    (i, service.submit(pub_id, workload[i]))
                    for i in range(offset, len(workload), 4)
                ]
                for i, future in futures:
                    out[i] = future.result()

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats_snapshot()
        assert np.array_equal(out, direct)
        assert stats["requests"] == len(workload)
        assert stats["batches"] >= 1

    @pytest.mark.parametrize(
        "kind", ["generalized", "perturbed", "anatomy", "baseline"]
    )
    def test_answer_matches_per_query_submit(
        self, loaded_store, workload, kind
    ):
        """A workload's float64 answers carry the same bytes as its
        queries submitted one by one, for COUNT, SUM and AVG."""
        store, ids = loaded_store
        pub_id = ids[kind]
        with QueryService(store, workers=2, max_batch=32) as service:
            for aggregate in (None, (0, "sum"), (1, "avg")):
                if aggregate is None:
                    served = service.answer(pub_id, workload)
                else:
                    served = service.answer_aggregate(
                        pub_id, workload, *aggregate
                    )
                futures = [
                    service.submit(pub_id, query, aggregate=aggregate)
                    for query in workload
                ]
                one_by_one = np.array([future.result() for future in futures])
                assert served.dtype == np.float64
                assert served.tobytes() == one_by_one.tobytes()

    def test_large_workload_served_in_max_batch_chunks(
        self, loaded_store, table, publications, workload, served_batches
    ):
        store, ids = loaded_store
        with QueryService(store, workers=1, max_batch=32) as service:
            served = service.answer(ids["perturbed"], workload)
            stats = service.stats_snapshot()
        assert len(workload) == 150
        assert [len(batch) for batch in served_batches] == [32] * 4 + [22]
        assert sum(served_batches, ()) == tuple(workload)
        direct = batch_estimates(
            table, {"x": publications["perturbed"]}, workload
        )["x"]
        assert served.tobytes() == direct.tobytes()
        assert stats["requests"] == stats["batched_queries"] == len(workload)
        assert stats["batches"] == 5

    def test_empty_workload_enqueues_nothing(
        self, loaded_store, served_batches
    ):
        store, ids = loaded_store
        with QueryService(store, workers=1) as service:
            counts = service.answer(ids["baseline"], [])
            sums = service.answer_aggregate(ids["baseline"], [], 0, "sum")
            assert not service._pending
            stats = service.stats_snapshot()
        for out in (counts, sums):
            assert out.dtype == np.float64
            assert out.shape == (0,)
        assert stats["requests"] == stats["batches"] == 0
        assert served_batches == []

    def test_batch_error_reaches_answer_caller(
        self, loaded_store, workload, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(server_module, "answer_batch", failing)
        store, ids = loaded_store
        with QueryService(store, workers=1, max_batch=32) as service:
            with pytest.raises(RuntimeError, match="kernel failed"):
                service.answer(ids["baseline"], workload)
            with pytest.raises(RuntimeError, match="kernel failed"):
                service.answer_aggregate(ids["baseline"], workload[:5], 0, "avg")

    def test_answer_and_submit_share_a_batch(
        self, loaded_store, table, publications, workload, monkeypatch
    ):
        """While the only serving thread is busy, a submitted query and
        an answered workload on the same publication queue up and are
        then drained as one batch."""
        release = threading.Event()
        sizes = []
        real = server_module.answer_batch

        def gated(table_, publications_, enc, *args, **kwargs):
            sizes.append(enc.n_queries)
            release.wait(timeout=30)
            return real(table_, publications_, enc, *args, **kwargs)

        monkeypatch.setattr(server_module, "answer_batch", gated)
        store, ids = loaded_store
        pub_id = ids["generalized"]
        answered = {}
        with QueryService(store, workers=1, max_batch=32) as service:
            try:
                first = service.submit(pub_id, workload[0])
                _wait_until(lambda: sizes == [1])
                second = service.submit(pub_id, workload[1])
                client = threading.Thread(
                    target=lambda: answered.setdefault(
                        "estimates", service.answer(pub_id, workload[2:10])
                    )
                )
                client.start()
                _wait_until(
                    lambda: service.stats_snapshot()["requests"] == 10
                )
            finally:
                release.set()
            client.join(timeout=30)
            assert not client.is_alive()
            singles = np.array([first.result(), second.result()])
        assert sizes == [1, 9]
        direct = batch_estimates(
            table, {"x": publications["generalized"]}, workload[:10]
        )["x"]
        assert singles.tobytes() == direct[:2].tobytes()
        assert answered["estimates"].tobytes() == direct[2:].tobytes()

    def test_mixed_clients_stress(
        self, loaded_store, table, publications, workload
    ):
        """Six clients mix workloads and single submits on two
        publications against three serving threads (more than the
        cores), with a short switch interval: every answer is the
        direct kernel's, and the counters add up to the queries sent."""
        store, ids = loaded_store
        kinds = ("perturbed", "generalized")
        direct = {
            kind: batch_estimates(
                table, {"x": publications[kind]}, workload
            )["x"]
            for kind in kinds
        }
        results, errors = [], []

        def client(c: int) -> None:
            try:
                kind = kinds[c % 2]
                for r in range(6):
                    start = (c * 7 + r * 13) % 120
                    queries = workload[start:start + 1 + (c + r) % 30]
                    if (c + r) % 3 == 0:
                        futures = [
                            service.submit(ids[kind], query)
                            for query in queries
                        ]
                        got = np.array(
                            [future.result(timeout=30) for future in futures]
                        )
                    else:
                        got = service.answer(ids[kind], queries)
                    results.append((kind, start, got))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(store, workers=3, max_batch=16) as service:
                threads = [
                    threading.Thread(target=client, args=(c,))
                    for c in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats_snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 36
        for kind, start, got in results:
            assert got.tobytes() == direct[kind][start:start + len(got)].tobytes()
        sent = sum(len(got) for _, _, got in results)
        assert stats["requests"] == stats["batched_queries"] == sent

    def test_lru_eviction(self, loaded_store, workload):
        store, ids = loaded_store
        with QueryService(store, cache_size=1) as service:
            for pub_id in ids.values():
                service.answer(pub_id, workload[:5])
            stats = service.stats_snapshot()
        assert stats["cache_misses"] == len(ids)
        assert stats["cache_evictions"] >= len(ids) - 1

    def test_unknown_publication_surfaces_error(self, loaded_store, workload):
        store, _ = loaded_store
        with QueryService(store) as service:
            future = service.submit("deadbeef" * 8, workload[0])
            with pytest.raises(KeyError):
                future.result(timeout=10)
            # Regression: failed loads must not leak per-id load locks.
            assert service._load_locks == {}

    def test_prefix_alias_shares_lru_slot(
        self, loaded_store, table, publications, workload
    ):
        """Regression: a prefix lookup must alias the canonical cache
        entry, not occupy (and immediately thrash) a second slot."""
        store, ids = loaded_store
        pub_id = ids["baseline"]
        with QueryService(store, cache_size=1) as service:
            service.answer(pub_id[:10], workload[:3])
            service.answer(pub_id, workload[:3])
            stats = service.stats_snapshot()
        assert stats["cache_misses"] == 1
        assert stats["cache_evictions"] == 0

    def test_closed_service_rejects_submissions(self, loaded_store, workload):
        store, ids = loaded_store
        service = QueryService(store)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(ids["baseline"], workload[0])
        service.close()  # idempotent

    def test_prefix_ids_work(self, loaded_store, table, publications, workload):
        store, ids = loaded_store
        with QueryService(store) as service:
            served = service.answer(ids["baseline"][:10], workload[:20])
        direct = batch_estimates(
            table, {"x": publications["baseline"]}, workload[:20]
        )["x"]
        assert np.array_equal(served, direct)


class TestServiceCli:
    @pytest.fixture()
    def data_csv(self, tmp_path, table):
        import csv

        schema = table.schema
        path = tmp_path / "data.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Age", "Education", "Salary"])
            age = table.schema.qi_index("Age")
            edu = table.schema.qi_index("Education")
            for i in range(table.n_rows):
                writer.writerow(
                    [
                        int(table.qi[i, age]),
                        int(table.qi[i, edu]),
                        schema.sensitive.values[int(table.sa[i])],
                    ]
                )
        return path

    def test_publish_then_query(self, data_csv, tmp_path, capsys):
        from repro.cli import run

        store_dir = tmp_path / "pubs"
        code = run(
            [
                "publish", str(data_csv),
                "--store", str(store_dir),
                "--qi", "Age,Education",
                "--numerical", "Age,Education",
                "--sensitive", "Salary",
                "--algorithm", "burel",
                "--beta", "2",
                "--verbose",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "certified against beta=2.0" in captured
        assert "stages:" in captured
        pub_id = [
            line.split("id: ", 1)[1]
            for line in captured.splitlines()
            if line.startswith("id: ")
        ][0]

        out = tmp_path / "answers.json"
        code = run(
            [
                "query",
                "--store", str(store_dir),
                "--id", pub_id[:12],
                "--queries", "50",
                "--theta", "0.1",
                "-o", str(out),
                "--verbose",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "micro-batches" in captured
        payload = json.loads(out.read_text())
        assert payload["publication"] == pub_id
        assert len(payload["estimates"]) == 50

    @pytest.mark.parametrize(
        "algorithm, beta, served_by, sha256",
        [
            ("burel", "2", "ec",
             "3acdfa15915cc986187a21ad776b83c4845f17c082aaff2fb992297d55cf52c5"),
            ("perturb", "4", "cube",
             "03e95c3efd7f09f029cb3a299115788b84ec54f9ca70506331d2d6dce1649e97"),
        ],
    )
    def test_query_output_above_max_batch_unchanged(
        self, data_csv, tmp_path, capsys, algorithm, beta, served_by, sha256
    ):
        """1,100 queries (above the default ``max_batch`` of 1,024) write
        the JSON bytes pinned from the service's per-query hand-off, and
        its estimates are the direct batch kernel's."""
        from repro.cli import run

        store_dir = tmp_path / "pubs"
        assert run([
            "publish", str(data_csv),
            "--store", str(store_dir),
            "--qi", "Age,Education",
            "--numerical", "Age,Education",
            "--sensitive", "Salary",
            "--algorithm", algorithm,
            "--beta", beta,
        ]) == 0
        pub_id = capsys.readouterr().out.split("id: ", 1)[1].split()[0]
        out = tmp_path / "answers.json"
        assert run([
            "query", "--store", str(store_dir), "--id", pub_id[:12],
            "--queries", "1100", "-o", str(out),
        ]) == 0
        data = out.read_bytes()
        payload = json.loads(data)
        assert payload["served_by"] == served_by
        published = PublicationStore(store_dir).get(pub_id)
        queries = make_workload(
            published.source.schema, 1100, 2, 0.1, rng=0
        )
        direct = batch_estimates(
            published.source, {"x": published}, queries
        )["x"]
        assert payload["estimates"] == direct.tolist()
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_publish_refusal_exit_code(self, data_csv, tmp_path, capsys):
        from repro.cli import run

        code = run(
            [
                "publish", str(data_csv),
                "--store", str(tmp_path / "pubs"),
                "--qi", "Age",
                "--numerical", "Age",
                "--sensitive", "Salary",
                "--algorithm", "burel",
                "--beta", "2",
                "--require-beta", "0.01",
            ]
        )
        assert code == 1
        assert "refused" in capsys.readouterr().err

    def test_query_unknown_id_clean_error(self, tmp_path, capsys):
        from repro.cli import run
        from repro.service import PublicationStore

        PublicationStore(tmp_path / "pubs")  # empty store
        code = run(
            [
                "query",
                "--store", str(tmp_path / "pubs"),
                "--id", "deadbeef",
            ]
        )
        assert code == 1
        assert "no publication" in capsys.readouterr().err

    def test_generalize_anatomy(self, data_csv, tmp_path, capsys):
        from repro.cli import run

        out = tmp_path / "anat.csv"
        code = run(
            [
                "generalize", str(data_csv),
                "--qi", "Age,Education",
                "--numerical", "Age,Education",
                "--sensitive", "Salary",
                "--algorithm", "anatomy",
                "--l", "3",
                "-o", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "anatomy groups" in captured
        assert "measured privacy" in captured
        assert (tmp_path / "anat.json").exists()
        sidecar = json.loads((tmp_path / "anat.json").read_text())
        assert sidecar["l"] == 3
        from repro.io import read_csv_rows

        rows = read_csv_rows(out)
        assert len(rows) == 4_000
        assert "group" in rows[0]

    def test_stage_timings_behind_verbose(self, data_csv, tmp_path, capsys):
        from repro.cli import run

        args = [
            "generalize", str(data_csv),
            "--qi", "Age",
            "--numerical", "Age",
            "--sensitive", "Salary",
            "--beta", "2",
            "-o", str(tmp_path / "out.csv"),
        ]
        assert run(args) == 0
        assert "stages:" not in capsys.readouterr().out
        assert run(args + ["--verbose"]) == 0
        assert "stages:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Version lineage (PR 7): name/parent manifests, versions(), latest()
# ----------------------------------------------------------------------


class TestVersionLineage:
    def test_records_carry_name_and_parent(self, store, publications,
                                           requirements):
        root = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
            name="census",
        )
        child = store.put(
            publications["anatomy"],
            requirement=requirements["anatomy"],
            name="census",
            parent=root,
        )
        assert root.name == child.name == "census"
        assert root.parent_id is None
        assert child.parent_id == root.pub_id

    def test_lineage_survives_reopen(self, tmp_path, publications,
                                     requirements):
        root_dir = tmp_path / "lineage"
        store = PublicationStore(root_dir)
        root = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
            name="census",
        )
        child = store.put(
            publications["anatomy"],
            requirement=requirements["anatomy"],
            name="census",
            parent=root.pub_id,
        )
        grand = store.put(
            publications["perturbed"],
            requirement=requirements["perturbed"],
            name="census",
            parent=child.pub_id[:12],  # prefixes resolve
        )
        reopened = PublicationStore(root_dir)
        chain = reopened.versions("census")
        assert [r.pub_id for r in chain] == [
            root.pub_id, child.pub_id, grand.pub_id
        ]
        assert [r.parent_id for r in chain] == [
            None, root.pub_id, child.pub_id
        ]
        assert reopened.latest("census").pub_id == grand.pub_id

    def test_parent_before_child_with_siblings(self, store, publications,
                                               requirements):
        root = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
            name="d",
        )
        kids = sorted(
            (
                store.put(
                    publications["anatomy"],
                    requirement=requirements["anatomy"],
                    name="d",
                    parent=root,
                ),
                store.put(
                    publications["perturbed"],
                    requirement=requirements["perturbed"],
                    name="d",
                    parent=root,
                ),
            ),
            key=lambda r: r.pub_id,
        )
        chain = store.versions("d")
        assert chain[0].pub_id == root.pub_id
        assert [r.pub_id for r in chain[1:]] == [r.pub_id for r in kids]

    def test_dangling_parent_refused(self, store, publications,
                                     requirements):
        with pytest.raises(KeyError):
            store.put(
                publications["generalized"],
                requirement=requirements["generalized"],
                name="x",
                parent="0" * 64,
            )
        assert store.versions("x") == []

    def test_unknown_name(self, store):
        assert store.versions("nope") == []
        with pytest.raises(KeyError):
            store.latest("nope")

    def test_unnamed_records_join_no_lineage(self, store, publications,
                                             requirements):
        record = store.put(
            publications["generalized"],
            requirement=requirements["generalized"],
        )
        assert record.name is None and record.parent_id is None
        assert all(
            record.pub_id != r.pub_id for r in store.versions("census")
        )
