"""The sharded execution layer: plan invariants, picklability of every
cross-process payload, and byte-identity of merged results across worker
counts (the parallel layer's core contract)."""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import AnonymizationRun, ArtifactCache, Dataset
from repro.core.retrieve import qi_space_keys
from repro.dataset import (
    make_census,
    synthetic,
    synthetic_schema,
    zipf_distribution,
)
from repro.engine.batch import PreparedTable
from repro.engine.shard import merge_pieces
from repro.io import publication_digest, table_digest
from repro.parallel import (
    ShardPlan,
    ShardedRun,
    ShardedSession,
    _worker,
)
from repro.query.evaluate import TableMaskEngine, _encoded
from repro.query.workload import make_workload
from repro.rng import spawn_generators, spawn_seeds
from repro.service import PublicationStore


@pytest.fixture(scope="module")
def table():
    # Uncorrelated QI↔SA so contiguous key-range shards stay
    # representative enough for every algorithm's eligibility condition.
    return synthetic(
        4_000, qi_dims=3, sa_cardinality=12, skew=0.8, seed=3,
        correlation=0.0,
    )


@pytest.fixture(scope="module")
def dataset(table):
    return Dataset(table)


@pytest.fixture(scope="module")
def workload(table):
    return make_workload(table.schema, 200, 2, 0.1, rng=5)


# ----------------------------------------------------------------------
# Synthetic generator (satellite 1)
# ----------------------------------------------------------------------


class TestSynthetic:
    def test_shape_and_domains(self, table):
        assert table.n_rows == 4_000
        assert table.schema.n_qi == 3
        assert table.sa_cardinality == 12
        for j, attr in enumerate(table.schema.qi):
            assert table.qi[:, j].min() >= attr.lo
            assert table.qi[:, j].max() <= attr.hi

    def test_every_sa_value_realized(self, table):
        # exact_sa_counts guarantees every positive-probability value at
        # least one tuple, so audits never divide by empty classes.
        assert np.all(np.bincount(table.sa, minlength=12) > 0)

    def test_deterministic_per_seed(self):
        a = synthetic(500, qi_dims=2, sa_cardinality=6, seed=9)
        b = synthetic(500, qi_dims=2, sa_cardinality=6, seed=9)
        c = synthetic(500, qi_dims=2, sa_cardinality=6, seed=10)
        assert table_digest(a) == table_digest(b)
        assert table_digest(a) != table_digest(c)

    def test_skew_shapes_distribution(self):
        flat = zipf_distribution(8, 0.0)
        steep = zipf_distribution(8, 2.0)
        assert np.allclose(flat, 1 / 8)
        assert steep[0] > 0.5 > steep[-1]
        with pytest.raises(ValueError):
            zipf_distribution(8, -1.0)

    def test_schema_only_helper(self):
        schema = synthetic_schema(qi_dims=4, sa_cardinality=5)
        assert schema.n_qi == 4
        assert schema.sensitive.cardinality == 5


# ----------------------------------------------------------------------
# Per-shard rng contract (satellite 2)
# ----------------------------------------------------------------------


class TestSpawnSeeds:
    def test_children_depend_only_on_seed_and_index(self):
        a = spawn_seeds(7, 4)
        b = spawn_seeds(7, 4)
        for x, y in zip(a, b):
            assert np.random.default_rng(x).integers(1 << 30) == (
                np.random.default_rng(y).integers(1 << 30)
            )

    def test_children_are_independent_streams(self):
        gens = spawn_generators(7, 3)
        draws = [g.integers(1 << 30) for g in gens]
        assert len(set(draws)) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            spawn_seeds(7, 0)


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


class TestShardPlan:
    def test_partition_and_balance(self, table):
        keys = qi_space_keys(table)
        plan = ShardPlan.build(keys, 4)
        plan.validate()
        sizes = [s.n_rows for s in plan]
        assert sum(sizes) == table.n_rows
        # balanced by row count up to tie-run snapping
        assert max(sizes) <= 2 * (table.n_rows // 4)

    def test_contiguous_disjoint_key_intervals(self, table):
        keys = qi_space_keys(table)
        plan = ShardPlan.build(keys, 3)
        for shard in plan:
            shard_keys = keys[shard.rows]
            assert shard_keys.min() == shard.key_lo
            assert shard_keys.max() == shard.key_hi
        for a, b in zip(plan.shards, plan.shards[1:]):
            assert a.key_hi < b.key_lo

    def test_equal_keys_never_split(self):
        keys = np.array([5, 5, 5, 5, 9, 9, 9, 9])
        plan = ShardPlan.build(keys, 2)
        assert [s.n_rows for s in plan] == [4, 4]
        # a single giant tie run cannot be split at all
        plan_one = ShardPlan.build(np.zeros(10, dtype=np.int64), 4)
        assert plan_one.n_shards == 1

    def test_edges(self, table):
        keys = qi_space_keys(table)
        assert ShardPlan.build(keys, 1).n_shards == 1
        small = ShardPlan.build(np.array([3, 1, 2]), 10)
        small.validate()
        assert small.n_shards <= 3
        with pytest.raises(ValueError):
            ShardPlan.build(np.array([], dtype=np.int64), 2)
        with pytest.raises(ValueError):
            ShardPlan.build(keys, 0)


class TestShardDiff:
    """ShardPlan.diff: appended keys route to shards, clean shards keep
    their row arrays by identity (the incremental-refresh contract)."""

    def _plan(self, table):
        return ShardPlan.build(qi_space_keys(table), 5), qi_space_keys(table)

    def test_routes_to_owning_shard_only(self, table):
        plan, keys = self._plan(table)
        target = plan.shards[2]
        new_keys = keys[target.rows[:7]]  # keys already inside shard 2
        diff = plan.diff(keys, new_keys)
        assert diff.dirty == (2,)
        assert set(diff.clean) == {0, 1, 3, 4}
        assert diff.plan.n_rows == plan.n_rows + 7
        assert diff.plan.n_shards == plan.n_shards

    def test_clean_shards_kept_by_identity(self, table):
        plan, keys = self._plan(table)
        new_keys = keys[plan.shards[0].rows[:3]]
        diff = plan.diff(keys, new_keys)
        for i in diff.clean:
            assert diff.plan.shards[i] is plan.shards[i]

    def test_dirty_shard_gains_sorted_global_rows(self, table):
        plan, keys = self._plan(table)
        new_keys = keys[plan.shards[3].rows[:4]]
        diff = plan.diff(keys, new_keys)
        grown = diff.plan.shards[3]
        assert grown.n_rows == plan.shards[3].n_rows + 4
        assert np.all(np.diff(grown.rows) > 0)
        # the appended rows carry post-concat indices
        expected = set(plan.shards[3].rows) | set(
            plan.n_rows + np.arange(4)
        )
        assert set(grown.rows) == expected
        diff.plan.validate()

    def test_gap_and_beyond_last_keys(self, table):
        plan, keys = self._plan(table)
        beyond = np.array([plan.shards[-1].key_hi + 10], dtype=np.int64)
        diff = plan.diff(keys, beyond)
        assert diff.dirty == (plan.n_shards - 1,)
        assert diff.plan.shards[-1].key_hi == beyond[0]
        before = np.array([plan.shards[0].key_lo - 1], dtype=np.int64)
        if before[0] >= 0:
            diff0 = plan.diff(keys, before)
            assert diff0.dirty == (0,)
            assert diff0.plan.shards[0].key_lo == before[0]

    def test_empty_delta_is_identity(self, table):
        plan, keys = self._plan(table)
        diff = plan.diff(keys, np.array([], dtype=np.int64))
        assert diff.dirty == ()
        assert diff.plan is plan

    def test_row_count_mismatch_rejected(self, table):
        plan, keys = self._plan(table)
        with pytest.raises(ValueError):
            plan.diff(keys[:-1], keys[:2])

    def test_chained_diffs_partition_all_rows(self, table):
        plan, keys = self._plan(table)
        rng = np.random.default_rng(0)
        for _ in range(3):
            new_keys = rng.choice(keys, size=11)
            diff = plan.diff(keys, new_keys)
            plan = diff.plan
            keys = np.concatenate([keys, new_keys])
            plan.validate()
        assert plan.n_rows == len(keys)


# ----------------------------------------------------------------------
# Picklability of every cross-process payload (satellite 3)
# ----------------------------------------------------------------------


class TestPickleRoundTrips:
    def test_prepared_table_drops_cache_keeps_memos(self, table):
        prepared = PreparedTable(table, cache=ArtifactCache())
        keys = prepared.hilbert_keys()
        bare = PreparedTable(table)
        bare.hilbert_keys(), bare.sa_distribution()
        clone = pickle.loads(pickle.dumps(bare))
        assert clone._cache is None
        np.testing.assert_array_equal(clone.hilbert_keys(), keys)
        np.testing.assert_array_equal(
            clone.sa_distribution(), table.sa_distribution()
        )
        # cache-bound instances survive too (the cache is dropped)
        clone2 = pickle.loads(pickle.dumps(prepared))
        assert clone2._cache is None

    def test_encoded_workload(self, table, workload):
        enc = _encoded(table, workload, None)
        clone = pickle.loads(pickle.dumps(enc))
        np.testing.assert_array_equal(clone.qi_lo, enc.qi_lo)
        np.testing.assert_array_equal(clone.sa_hi, enc.sa_hi)
        assert clone.queries == enc.queries

    def test_mask_engine(self, table, workload):
        engine = TableMaskEngine(table)
        enc = _encoded(table, workload, None)
        expected = engine.precise(enc)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.table is not None
        np.testing.assert_array_equal(clone.precise(enc), expected)

    def test_all_four_publication_kinds(self, dataset):
        runs = {
            "generalized": dataset.anonymize("burel", beta=2.0),
            "perturbed": dataset.anonymize("perturb", rng=29, beta=4.0),
            "anatomy": dataset.anonymize("anatomy", rng=1, l=3),
        }
        from repro.anonymity import BaselinePublication

        publications = {k: r.published for k, r in runs.items()}
        publications["baseline"] = BaselinePublication(dataset.table)
        for kind, published in publications.items():
            clone = pickle.loads(pickle.dumps(published))
            assert publication_digest(clone) == publication_digest(
                published
            ), kind


# ----------------------------------------------------------------------
# Shard-merge byte-identity (the tentpole contract)
# ----------------------------------------------------------------------


def _sharded(table, workers, shards, cache=None):
    return ShardedSession(table, workers=workers, shards=shards, cache=cache)


class TestMergeIdentity:
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_workers_1_vs_2_burel(self, table, shards):
        serial = _sharded(table, 1, shards).anonymize("burel", beta=2.0)
        with _sharded(table, 2, shards) as session:
            pooled = session.anonymize("burel", beta=2.0)
            assert publication_digest(serial.published) == (
                publication_digest(pooled.published)
            )
            assert serial.audit() == pooled.audit()

    def test_seeded_runs_are_scheduling_independent(self, table):
        serial = _sharded(table, 1, 3).anonymize("burel", beta=2.0, seed=11)
        with _sharded(table, 2, 3) as session:
            pooled = session.anonymize("burel", beta=2.0, seed=11)
            assert publication_digest(serial.published) == (
                publication_digest(pooled.published)
            )

    def test_anatomy_merge(self, table):
        serial = _sharded(table, 1, 3).anonymize("anatomy", seed=1, l=3)
        with _sharded(table, 2, 3) as session:
            pooled = session.anonymize("anatomy", seed=1, l=3)
            assert publication_digest(serial.published) == (
                publication_digest(pooled.published)
            )
            assert serial.audit() == pooled.audit()

    def test_audit_equals_direct_audit_of_merged(self, table, dataset):
        session = _sharded(table, 1, 4)
        run = session.anonymize("burel", beta=2.0)
        direct = Dataset(table).audit({"run": run.published})["run"]
        assert run.audit() == direct

    def test_precise_counts_sum_exactly(self, table, dataset, workload):
        unsharded = dataset.precise(workload)
        serial_session = _sharded(table, 1, 3)
        serial_run = serial_session.anonymize("burel", beta=2.0)
        serial = serial_session.answers(serial_run, workload)[0]
        np.testing.assert_array_equal(serial, unsharded)
        with _sharded(table, 2, 4) as session:
            run = session.anonymize("burel", beta=2.0)
            np.testing.assert_array_equal(
                session.answers(run, workload)[0], unsharded
            )

    def test_evaluate_worker_count_invariant(self, table, workload):
        serial_session = _sharded(table, 1, 3)
        serial = serial_session.anonymize("burel", beta=2.0)
        profile_serial = serial_session.evaluate(serial, workload)
        with _sharded(table, 2, 3) as session:
            pooled = session.anonymize("burel", beta=2.0)
            assert profile_serial == session.evaluate(pooled, workload)

    def test_perturb_refused(self, table):
        with pytest.raises(TypeError, match="no per-shard group"):
            _sharded(table, 1, 2).anonymize("perturb", seed=0, beta=2.0)

    def test_failing_shard_is_named(self):
        """A shard that fails eligibility is reported as that shard, not
        as the whole table (which anonymizes fine unsharded)."""
        ds = Dataset(make_census(4000, seed=11))
        assert len(ds.anonymize("sabre", t=0.35, rng=5).published) == 12
        with pytest.raises(
            ValueError, match=r"^shard 0 of 3 \(1333 rows\): "
        ) as raised:
            ds.anonymize("sabre", t=0.35, rng=5, shards=3)
        assert "eligibility" in str(raised.value.__cause__)

    def test_merged_provenance_records_shards(self, table):
        run = _sharded(table, 1, 3).anonymize("burel", beta=2.0)
        records = run.provenance["sharded"]["shards"]
        assert len(records) == 3
        assert sum(r["n_rows"] for r in records) == table.n_rows
        assert all("stage_seconds" in r for r in records)


# ----------------------------------------------------------------------
# Facade wiring
# ----------------------------------------------------------------------


class TestFacadeSharding:
    def test_anonymize_workers_matches_serial_sharded(self, dataset):
        serial = dataset.anonymize("burel", beta=2.0, shards=4)
        pooled = dataset.anonymize("burel", beta=2.0, workers=2, shards=4)
        assert publication_digest(serial.published) == (
            publication_digest(pooled.published)
        )
        assert serial.audit() == pooled.audit()
        dataset.close_parallel()

    def test_generator_rng_rejected(self, dataset):
        with pytest.raises(TypeError, match="int seed"):
            dataset.anonymize(
                "burel", beta=2.0, workers=2,
                rng=np.random.default_rng(0),
            )
        dataset.close_parallel()

    def test_sharded_run_publishes_through_store(self, dataset, tmp_path):
        run = dataset.anonymize("burel", beta=2.0, shards=2)
        store = PublicationStore(tmp_path, cache=dataset.cache)
        record = run.publish(store, requirement={"beta": 2.0})
        assert record.pub_id == publication_digest(run.published)
        dataset.close_parallel()


# ----------------------------------------------------------------------
# One run type: a sharded run is an AnonymizationRun
# ----------------------------------------------------------------------


class TestOneRunType:
    def test_sharded_run_is_an_anonymization_run(self, table, tmp_path):
        """Only ``evaluate`` is the sharded run's own; its audit, view
        and store admission are an unsharded run's over the merged
        publication."""
        with Dataset(table) as ds:
            run = ds.anonymize("burel", beta=2.0, rng=7, shards=3)
        assert isinstance(run, AnonymizationRun)
        assert {
            name for name in vars(ShardedRun) if not name.startswith("__")
        } == {"evaluate"}
        assert not hasattr(ShardedSession, "audit")
        plain = AnonymizationRun(Dataset(table), run.result, seed=run.seed)
        sharded_report, plain_report = (
            r.audit(attacks=("skewness", "naive_bayes")) for r in (run, plain)
        )
        assert sharded_report.privacy == plain_report.privacy
        assert sharded_report.risk == plain_report.risk
        assert sharded_report.skewness == plain_report.skewness
        np.testing.assert_array_equal(
            sharded_report.naive_bayes.predictions,
            plain_report.naive_bayes.predictions,
        )
        sharded_view, plain_view = run.view(), plain.view()
        for name in ("class_of", "counts", "sizes", "boxes",
                     "global_distribution"):
            np.testing.assert_array_equal(
                getattr(sharded_view, name), getattr(plain_view, name)
            )
        sharded_record, plain_record = (
            r.publish(
                PublicationStore(tmp_path / label), requirement={"beta": 2.0},
                name="census",
            )
            for label, r in (("sharded", run), ("plain", plain))
        )
        assert sharded_record == plain_record
        assert (sharded_record.algorithm, sharded_record.seed) == ("burel", 7)


# ----------------------------------------------------------------------
# Shard artifacts live as long as their shard source
# ----------------------------------------------------------------------


class TestShardSourceCache:
    def test_closed_sessions_leave_no_shard_artifacts(self):
        """Inline sharded evaluation keeps per-shard engines in the
        session's shard source, so a closed, dropped session leaves no
        shard table (which every cached mask engine holds) behind."""
        refs = []
        for seed in (1, 2, 3):
            table = synthetic(
                3_000, qi_dims=3, sa_cardinality=8, skew=0.8, seed=seed,
                correlation=0.0,
            )
            queries = make_workload(table.schema, 50, 2, 0.1, rng=seed)
            with Dataset(table) as ds:
                run = ds.anonymize("burel", beta=2.0, shards=3)
                run.evaluate(queries)
                source = run.session._source
                refs += [weakref.ref(source.shard(i)[0]) for i in range(3)]
            del ds, run, source
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_second_answers_reuses_shard_engines(self, table, workload):
        session = _sharded(table, 1, 3)
        run = session.anonymize("burel", beta=2.0)
        session.answers(run, workload)
        cache = session._source.cache
        engines = {
            key: cache.get(key)
            for key in cache.keys() if key[0] == "mask_engine"
        }
        assert len(engines) == 3
        hits = cache.stats()["hits"]
        other = make_workload(table.schema, 30, 2, 0.1, rng=99)
        precise, _ = session.answers(run, other)
        assert {
            key for key in cache.keys() if key[0] == "mask_engine"
        } == set(engines)
        assert all(cache.get(key) is engine for key, engine in engines.items())
        assert cache.stats()["hits"] - hits >= 3
        np.testing.assert_array_equal(
            precise, Dataset(table).precise(other)
        )


# ----------------------------------------------------------------------
# Pool transport: workers take their inputs at start-up
# ----------------------------------------------------------------------


class TestPoolTransport:
    def test_spawn_pool_matches_serial(self):
        """A spawn-context pool pickles the start-up state once per
        worker instead of inheriting it; the merged publication is the
        serial session's."""
        census = make_census(6_000, seed=3)
        serial = _sharded(census, 1, 3)
        expected = serial.anonymize("burel", beta=2.0, seed=7)
        plan = serial.plan
        seeds = spawn_seeds(7, plan.n_shards)
        with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker.init_worker,
            initargs=(census, serial._keys, [s.rows for s in plan]),
        ) as pool:
            futures = [
                pool.submit(
                    _worker.run_task, _worker.shard_anonymize, False, i,
                    i, plan.n_shards, "burel", {"beta": 2.0}, seeds[i],
                    serial._probs,
                )
                for i in range(plan.n_shards)
            ]
            pieces = [future.result(timeout=120)[0] for future in futures]
        merged = merge_pieces(
            census,
            [piece.lift(shard.rows) for shard, piece in zip(plan, pieces)],
        )
        assert publication_digest(merged) == (
            publication_digest(expected.published)
        )

    def test_pooled_session_starts_no_resource_tracker(self):
        """The transport needs no shared memory, so nothing starts
        multiprocessing's resource tracker.  A fresh interpreter, so the
        test process's own tracker state is untouched."""
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.dataset import synthetic\n"
            "from repro.parallel import ShardedSession\n"
            "from repro.query import make_workload\n"
            "table = synthetic(2_000, qi_dims=3, sa_cardinality=8,\n"
            "                  skew=0.8, seed=3, correlation=0.0)\n"
            "queries = make_workload(table.schema, 20, 2, 0.1, rng=5)\n"
            "with ShardedSession(table, workers=2, shards=2) as session:\n"
            "    run = session.anonymize('burel', beta=2.0)\n"
            "    session.evaluate(run, queries)\n"
            "print(resource_tracker._resource_tracker._pid)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True, env=env,
        )
        assert proc.stdout.split() == ["None"]


# ----------------------------------------------------------------------
# A killed worker: rebuild the pool once, then raise
# ----------------------------------------------------------------------


def _die(table, keys, index):
    os._exit(1)


def _fan_out(session, fn, *args):
    """``fn(table, keys, i, *args)`` over every shard ``i`` of a session."""
    tasks = [(i, (i, *args)) for i in range(session.plan.n_shards)]
    return session._fan_out(fn, tasks, "parallel.test")


def _die_once(table, keys, index, marker):
    """Kill this worker unless another task already made ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return index, table_digest(table), int(keys.sum())
    os._exit(1)


class TestBrokenPool:
    @pytest.fixture()
    def census(self):
        return make_census(3_000, seed=3)

    def test_die_once_returns_serial_results(self, census, tmp_path):
        marker = str(tmp_path / "died")
        with _sharded(census, 2, 3) as session:
            pooled = _fan_out(session, _die_once, marker)
        assert os.path.exists(marker)
        serial = _fan_out(_sharded(census, 1, 3), _die_once, marker)
        assert pooled == serial

    def test_session_recovers_after_a_second_break(self, census):
        expected = _sharded(census, 1, 3).anonymize("burel", beta=2.0)
        with _sharded(census, 2, 3) as session:
            with pytest.raises(BrokenProcessPool):
                _fan_out(session, _die)
            run = session.anonymize("burel", beta=2.0)
        assert publication_digest(run.published) == (
            publication_digest(expected.published)
        )
