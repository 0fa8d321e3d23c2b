"""Count-cube backend: prefix-sum correctness vs brute force, the
blocked corner kernel vs a per-corner reference loop (bytes, dtype and
a memory ceiling), byte identity of cube answers against the bitmap
and scalar paths on all four publication kinds, payload round-trips
through the store, degenerate domains, service backend accounting, the
CLI flag, and the SUM/AVG aggregate identities."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymity import BaselinePublication, anatomize
from repro.api import ArtifactCache
from repro.core import burel, perturb_table
from repro.dataset import make_census
from repro.dataset.schema import Attribute, Schema, SensitiveAttribute
from repro.dataset.table import Table
from repro.io import publication_digest
from repro.query import (
    AGGREGATE_OPS,
    CountQuery,
    EncodedWorkload,
    PrefixSumCube,
    answer_aggregate,
    answer_aggregate_precise,
    answer_precise,
    answer_precise_batch,
    batch_aggregate_estimates,
    batch_aggregate_precise,
    batch_estimates,
    build_count_cube,
    check_backend,
    make_workload,
)
from repro.query import cube as cube_module
from repro.query.cube import build_table_cube
from repro.service import PublicationStore, QueryService


@pytest.fixture(scope="module")
def workload(census_small):
    """Mixed λ/θ workload, same recipe as the evaluate-layer tests."""
    queries = []
    for seed, lam, theta in ((3, 1, 0.05), (4, 2, 0.1), (5, 3, 0.25)):
        queries.extend(
            make_workload(census_small.schema, 60, lam, theta, rng=seed)
        )
    return queries


@pytest.fixture(scope="module")
def publications(census_small):
    return {
        "perturbed": perturb_table(
            census_small, 4.0, rng=np.random.default_rng(2)
        ),
        "anatomy": anatomize(census_small, 4, rng=np.random.default_rng(1)),
        "baseline": BaselinePublication(census_small),
        "generalized": burel(census_small, 3.0).published,
    }


def _fresh(published):
    """A publication without an attached count cube (a test below
    attaches one to a shared fixture; identity tests must control which
    backend actually runs)."""
    published.__dict__.pop("_count_cube", None)
    return published


# ----------------------------------------------------------------------
# Prefix-sum cube vs brute force
# ----------------------------------------------------------------------


class TestPrefixSumCube:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        dims, lows = (7, 5, 9), (0, -3, 2)
        points = np.column_stack(
            [rng.integers(lo, lo + d, size=400) for d, lo in zip(dims, lows)]
        )
        cube = PrefixSumCube.build(
            [points[:, j] for j in range(3)], lows, dims
        )
        boxes_lo = np.column_stack(
            [rng.integers(lo - 2, lo + d + 2, size=50) for d, lo in zip(dims, lows)]
        )
        boxes_hi = boxes_lo + rng.integers(-1, 6, size=boxes_lo.shape)
        got = cube.range_sums(boxes_lo, boxes_hi)
        expected = np.array(
            [
                int(
                    np.all(
                        (points >= boxes_lo[q]) & (points <= boxes_hi[q]),
                        axis=1,
                    ).sum()
                )
                for q in range(50)
            ]
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_payload_axis_histograms(self):
        rng = np.random.default_rng(7)
        coords = rng.integers(0, 10, size=300)
        labels = rng.integers(0, 4, size=300)
        cube = PrefixSumCube.build(
            [coords], [0], [10], payload=labels, payload_card=4
        )
        lo = np.array([[2], [0], [9]])
        hi = np.array([[6], [9], [3]])  # third box inverted -> empty
        got = cube.range_sums(lo, hi)
        assert got.shape == (3, 4)
        for q in range(3):
            inside = (coords >= lo[q, 0]) & (coords <= hi[q, 0])
            assert np.array_equal(got[q], np.bincount(labels[inside], minlength=4))
        assert got[2].sum() == 0

    def test_weighted_cube_sums_measure(self):
        rng = np.random.default_rng(9)
        coords = rng.integers(0, 8, size=200)
        weights = rng.integers(0, 100, size=200).astype(np.float64)
        cube = PrefixSumCube.build([coords], [0], [8], weights=weights)
        got = cube.range_sums(np.array([[1]]), np.array([[5]]))
        inside = (coords >= 1) & (coords <= 5)
        assert got[0] == weights[inside].sum()

    def test_empty_points(self):
        cube = PrefixSumCube.build(
            [np.empty(0, dtype=np.int64)], [0], [5]
        )
        assert cube.range_sums(np.array([[0]]), np.array([[4]]))[0] == 0

    def test_out_of_domain_boxes_are_exact(self):
        coords = np.arange(6)
        cube = PrefixSumCube.build([coords], [0], [6])
        lo = np.array([[-100], [3], [10]])
        hi = np.array([[100], [1], [20]])
        assert np.array_equal(
            cube.range_sums(lo, hi), np.array([6, 0, 0])
        )


def _cumsum_prefix(columns, lows, dims, payload=None, payload_card=None,
                   weights=None):
    """Reference prefix: int64 (or float64) ``np.cumsum`` along each range
    axis, then the int32 cast for counts."""
    shape = tuple(int(d) + 1 for d in dims)
    if payload_card is not None:
        shape = shape + (int(payload_card),)
    cells = int(np.prod(shape))
    index_cols = [np.asarray(c, dtype=np.int64) - lo + 1
                  for c, lo in zip(columns, lows)]
    if payload is not None:
        index_cols.append(np.asarray(payload, dtype=np.int64))
    flat = np.bincount(np.ravel_multi_index(tuple(index_cols), shape),
                       weights=weights, minlength=cells)
    prefix = flat.reshape(shape)
    for axis in range(len(dims)):
        np.cumsum(prefix, axis=axis, out=prefix)
    return prefix.astype(np.int32) if weights is None else prefix


class TestPrefixOracle:
    """Slab-add prefix sums equal ``np.cumsum``'s, dtype and bits."""

    DIMS, LOWS = (6, 4, 9, 3), (0, -2, 5, 1)

    def _points(self, rng, n, dims, lows):
        return [rng.integers(lo, lo + d, size=n) for d, lo in zip(dims, lows)]

    def _check(self, columns, lows, dims, **kwargs):
        cube = PrefixSumCube.build(columns, lows, dims, **kwargs)
        expected = _cumsum_prefix(columns, lows, dims, **kwargs)
        assert cube.prefix.dtype == expected.dtype
        assert cube.prefix.shape == expected.shape
        assert np.array_equal(cube.prefix, expected)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_count_cube(self, k, rng):
        dims, lows = self.DIMS[:k], self.LOWS[:k]
        self._check(self._points(rng, 2_000, dims, lows), lows, dims)

    @pytest.mark.parametrize("k", [1, 3])
    def test_payload_cube(self, k, rng):
        dims, lows = self.DIMS[:k], self.LOWS[:k]
        self._check(
            self._points(rng, 2_000, dims, lows), lows, dims,
            payload=rng.integers(0, 5, size=2_000), payload_card=5,
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("payload_card", [None, 3])
    def test_weighted_cube(self, k, payload_card, rng):
        """Non-integer weights: float sums are order-sensitive, so only
        the same sequential order gives equal bits."""
        dims, lows = self.DIMS[:k], self.LOWS[:k]
        payload = (
            None if payload_card is None
            else rng.integers(0, payload_card, size=2_000)
        )
        self._check(
            self._points(rng, 2_000, dims, lows), lows, dims,
            payload=payload, payload_card=payload_card,
            weights=rng.random(2_000) * 1e3,
        )

    def test_census_table_cube(self, census_small):
        lows = tuple(a.lo for a in census_small.schema.qi) + (0,)
        dims = tuple(a.cardinality for a in census_small.schema.qi) + (
            census_small.sa_cardinality,
        )
        columns = list(census_small.qi.T) + [census_small.sa]
        self._check(columns, lows, dims)
        self._check(
            columns, lows, dims,
            weights=census_small.qi[:, 0].astype(np.float64),
        )


# ----------------------------------------------------------------------
# Corner kernel vs the per-corner loop
# ----------------------------------------------------------------------


def _corner_loop_sums(cube, lo_bounds, hi_bounds):
    """Reference range sums: for each of the ``2^k`` corners in turn,
    one flat gather added to (or taken from) the output in its own
    dtype."""
    k = cube.n_axes
    lows = np.asarray(cube.lows, dtype=np.int64)
    extents = np.array(cube.prefix.shape[:k], dtype=np.int64)
    strides = np.ones(k, dtype=np.int64)
    for j in range(k - 2, -1, -1):
        strides[j] = strides[j + 1] * extents[j + 1]
    top = extents - 1
    lo = np.clip(np.asarray(lo_bounds, dtype=np.int64) - lows, 0, top)
    hi = np.clip(np.asarray(hi_bounds, dtype=np.int64) - lows + 1, 0, top)
    hi = np.maximum(hi, lo)
    if cube.payload_card is None:
        flat = cube.prefix.reshape(-1)
        dtype = np.int64 if cube.prefix.dtype.kind == "i" else cube.prefix.dtype
        out = np.zeros(lo.shape[0], dtype=dtype)
    else:
        flat = cube.prefix.reshape(-1, cube.payload_card)
        out = np.zeros((lo.shape[0], cube.payload_card), dtype=cube.prefix.dtype)
    for corner in range(1 << k):
        idx = np.zeros(lo.shape[0], dtype=np.int64)
        for j in range(k):
            idx += (hi[:, j] if (corner >> j) & 1 else lo[:, j]) * strides[j]
        if (k - bin(corner).count("1")) & 1:
            out -= flat[idx]
        else:
            out += flat[idx]
    return out


def _block_queries(k, payload_card):
    """Queries per gather block of a ``k``-axis cube."""
    return max(1, cube_module._GATHER_CELLS // ((1 << k) * (payload_card or 1)))


@st.composite
def kernel_cases(draw):
    """A generated cube and a batch of boxes.

    ``k`` runs from 1 to 5 range axes with domains that need not start
    at 0; the cube counts points (int32), counts them per payload value
    (int32), or sums integer weights (float64), with or without a
    payload axis.  The batch holds 0, 1 or 8 queries or one more or one
    fewer than a gather block; its boxes mix in-domain, empty, inverted
    and out-of-domain ranges.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(
        ["count", "payload", "weighted", "weighted_payload"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dims = rng.integers(1, 7, size=k)
    lows = rng.integers(-3, 4, size=k)
    n = int(rng.integers(0, 300))
    columns = [lo + rng.integers(0, d, size=n) for lo, d in zip(lows, dims)]
    kwargs = {}
    payload_card = None
    if kind.endswith("payload"):
        payload_card = int(rng.integers(1, 7))
        kwargs = dict(
            payload=rng.integers(0, payload_card, size=n),
            payload_card=payload_card,
        )
    if kind.startswith("weighted"):
        kwargs["weights"] = rng.integers(-500, 500, size=n).astype(np.float64)
    cube = PrefixSumCube.build(columns, lows, dims, **kwargs)
    block = _block_queries(k, payload_card)
    n_queries = draw(st.sampled_from([0, 1, 8, block - 1, block + 1]))
    lo = lows + rng.integers(-3, dims + 3, size=(n_queries, k))
    hi = lo + rng.integers(-3, dims + 3, size=(n_queries, k))
    return cube, lo, hi


class TestCornerKernel:
    @given(case=kernel_cases())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_corner_loop(self, case):
        """Bytes, shape and dtype equal the per-corner loop's."""
        cube, lo, hi = case
        got = cube.range_sums(lo, hi)
        expected = _corner_loop_sums(cube, lo, hi)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_memory_ceiling(self):
        """10,000 queries on a k=5, 50-value payload cube stay under a
        fixed peak: the blocked gather holds the (Q, 50) int32 output
        (1.9 MiB) and the (32, Q) int64 corner index (2.4 MiB), where
        one unblocked (32, Q, 50) gather alone would take 61 MiB."""
        rng = np.random.default_rng(5)
        dims, card, n_queries = (8, 6, 5, 4, 3), 50, 10_000
        cube = PrefixSumCube.build(
            [rng.integers(0, d, size=5_000) for d in dims], (0,) * 5, dims,
            payload=rng.integers(0, card, size=5_000), payload_card=card,
        )
        lo = rng.integers(-1, dims, size=(n_queries, 5))
        hi = lo + rng.integers(-1, 4, size=lo.shape)
        cube.range_sums(lo[:8], hi[:8])
        tracemalloc.start()
        try:
            out = cube.range_sums(lo, hi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n_queries, card)
        assert peak < 8 * 2**20, f"range_sums peaked at {peak} bytes"


# ----------------------------------------------------------------------
# Backend identity: precise and all four estimator kinds
# ----------------------------------------------------------------------


class TestBackendIdentity:
    def test_check_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown answer backend"):
            check_backend("gpu")

    def test_precise_cube_matches_bitmap_and_scalar(
        self, census_small, workload
    ):
        scalar = np.array(
            [answer_precise(census_small, q) for q in workload]
        )
        bitmap = answer_precise_batch(census_small, workload, backend="bitmap")
        cube = answer_precise_batch(
            census_small, workload, ArtifactCache(), backend="cube"
        )
        assert cube.dtype == np.int64
        assert np.array_equal(scalar, bitmap)
        assert np.array_equal(scalar, cube)

    def test_estimates_identical_on_all_kinds(
        self, census_small, publications, workload
    ):
        served_cube, served_bitmap = {}, {}
        via_bitmap = batch_estimates(
            census_small, publications, workload,
            backend="bitmap", served=served_bitmap,
        )
        for published in publications.values():
            _fresh(published)
        via_cube = batch_estimates(
            census_small, publications, workload,
            backend="cube", served=served_cube,
        )
        assert served_bitmap == {
            "perturbed": "bitmap", "anatomy": "bitmap",
            "baseline": "bitmap", "generalized": "ec",
        }
        assert served_cube == {
            "perturbed": "cube", "anatomy": "cube",
            "baseline": "cube", "generalized": "ec",
        }
        for name in publications:
            assert np.array_equal(via_cube[name], via_bitmap[name]), name

    def test_auto_serves_attached_cube(
        self, census_small, publications, workload
    ):
        published = publications["anatomy"]
        published._count_cube = build_count_cube(published)
        served = {}
        batch_estimates(
            census_small, {"anatomy": published}, workload,
            backend="auto", served=served,
        )
        assert served == {"anatomy": "cube"}

    def test_auto_without_cube_stays_bitmap(self, census_small, workload):
        published = _fresh(BaselinePublication(census_small))
        served = {}
        batch_estimates(
            census_small, {"baseline": published}, workload,
            backend="auto", served=served,
        )
        assert served == {"baseline": "bitmap"}


# ----------------------------------------------------------------------
# Degenerate domains
# ----------------------------------------------------------------------


def _tiny_schema(lo=0, hi=9):
    return Schema(
        [
            Attribute.numerical("x", lo, hi),
            Attribute.numerical("y", 5, 5),  # single-bucket dimension
        ],
        SensitiveAttribute("sa", ("a", "b", "c")),
    )


class TestDegenerate:
    def test_single_bucket_dimension(self):
        schema = _tiny_schema()
        rng = np.random.default_rng(0)
        qi = np.column_stack(
            [rng.integers(0, 10, 40), np.full(40, 5)]
        )
        table = Table(schema, qi, rng.integers(0, 3, 40))
        queries = [
            CountQuery(((0, (2, 7)), (1, (5, 5))), (0, 2)),
            CountQuery(((1, (5, 5)),), (1, 1)),
            CountQuery(((1, (6, 6)),), (0, 2)),  # off the singleton
        ]
        bitmap = answer_precise_batch(table, queries, backend="bitmap")
        cube = answer_precise_batch(table, queries, backend="cube")
        assert np.array_equal(bitmap, cube)
        assert cube[2] == 0

    def test_empty_table(self):
        schema = _tiny_schema()
        table = Table(
            schema,
            np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        cube = build_table_cube(table)
        enc = EncodedWorkload.encode(
            schema, [CountQuery(((0, (0, 9)),), (0, 2))]
        )
        lo = np.concatenate([enc.qi_lo, enc.sa_lo[:, None]], axis=1)
        hi = np.concatenate([enc.qi_hi, enc.sa_hi[:, None]], axis=1)
        assert np.array_equal(
            cube.range_sums(lo, hi), np.zeros(1, dtype=np.int64)
        )
        assert np.array_equal(
            answer_precise_batch(table, enc, backend="cube"),
            answer_precise_batch(table, enc, backend="bitmap"),
        )

    def test_over_budget_domain_forces_fallback(self):
        from repro.dataset.synthetic import synthetic

        table = synthetic(
            1_000, qi_dims=3, sa_cardinality=16, skew=0.5, seed=5,
            qi_domain=512, correlation=0.0,
        )
        published = BaselinePublication(table)
        assert build_count_cube(published) is None
        served = {}
        workload = make_workload(table.schema, 20, 2, 0.1, rng=3)
        batch_estimates(
            table, {"baseline": published}, workload,
            backend="cube", served=served,
        )
        assert served == {"baseline": "bitmap"}


# ----------------------------------------------------------------------
# Store round-trip
# ----------------------------------------------------------------------


REQUIREMENTS = {
    "perturbed": {"beta": 4.0},
    "anatomy": {"l": 4},
    "baseline": {"beta": 2.0},
    "generalized": {"beta": 3.0},
}


class TestStoreRoundTrip:
    @pytest.mark.parametrize("kind", sorted(REQUIREMENTS))
    def test_cube_survives_reload(
        self, tmp_path, publications, kind
    ):
        store = PublicationStore(tmp_path / "store")
        published = _fresh(publications[kind])
        record = store.put(published, requirement=REQUIREMENTS[kind])
        reloaded = PublicationStore(tmp_path / "store").get(record.pub_id)
        original = published.__dict__["_count_cube"]
        restored = reloaded.__dict__.get("_count_cube")
        if original is None:
            assert restored is None
            return
        assert restored is not None
        for name in ("table", "payload"):
            a, b = getattr(original, name), getattr(restored, name)
            if a is None:
                assert b is None
                continue
            assert np.array_equal(a.prefix, b.prefix)
            assert a.lows == b.lows
            assert a.payload_card == b.payload_card
        assert restored.kind == original.kind

    @pytest.mark.parametrize("kind", sorted(REQUIREMENTS))
    def test_payload_holds_only_the_sub_cube_read(
        self, tmp_path, census_small, publications, workload, kind
    ):
        """A Baseline persists only its table cube, perturbed and
        Anatomy publications only their payload cube, a generalized one
        none; the reload answers as the bitmap engine does under every
        backend, from its cube where it has one."""
        reads = {"baseline": "table", "perturbed": "payload",
                 "anatomy": "payload", "generalized": None}
        store = PublicationStore(tmp_path)
        record = store.put(
            _fresh(publications[kind]), requirement=REQUIREMENTS[kind]
        )
        payload = tmp_path / "objects" / record.pub_id / "payload.npz"
        with np.load(payload) as archive:
            cubes = [
                name.removeprefix(cube_module.CUBE_PAYLOAD_PREFIX)
                for name in archive.files
                if name.startswith(cube_module.CUBE_PAYLOAD_PREFIX)
            ]
        assert cubes == ([] if reads[kind] is None else [reads[kind]])
        expected = batch_estimates(
            census_small, {kind: _fresh(publications[kind])}, workload,
            backend="bitmap",
        )[kind]
        for backend in ("auto", "cube", "bitmap"):
            served = {}
            got = batch_estimates(
                census_small, {kind: store.get(record.pub_id)}, workload,
                backend=backend, served=served,
            )[kind]
            assert np.array_equal(got, expected), backend
            if kind == "generalized":
                assert served[kind] == "ec"
            else:
                assert served[kind] == (
                    "bitmap" if backend == "bitmap" else "cube"
                )

    def test_cube_does_not_change_pub_id(self, tmp_path, publications):
        published = publications["anatomy"]
        with_cube = PublicationStore(tmp_path / "with").put(
            _fresh(published), requirement={"l": 4}
        )
        without = PublicationStore(tmp_path / "without").put(
            _fresh(published), requirement={"l": 4}, cube=False
        )
        assert with_cube.pub_id == without.pub_id
        assert with_cube.pub_id == publication_digest(published)


# ----------------------------------------------------------------------
# Service accounting and eviction
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_table():
    from repro.dataset import DEFAULT_QI

    return make_census(3_000, seed=11, qi_names=DEFAULT_QI)


class TestServiceBackends:
    def test_counters_and_serving_backend(self, tmp_path, small_table):
        store = PublicationStore(tmp_path / "store")
        record = store.put(
            _fresh(anatomize(small_table, 4, rng=np.random.default_rng(3))),
            requirement={"l": 4},
        )
        w = make_workload(small_table.schema, 25, 2, 0.1, rng=8)
        with QueryService(store, backend="auto") as service:
            from_cube = service.answer(record.pub_id, w)
            assert service.serving_backend(record.pub_id) == "cube"
            stats = service.stats_snapshot()
            assert stats["served_by_backend"].get("cube", 0) >= 1
            assert stats["cube_fallbacks"] == 0
        with QueryService(store, backend="bitmap") as service:
            from_bitmap = service.answer(record.pub_id, w)
            assert service.serving_backend(record.pub_id) == "bitmap"
            stats = service.stats_snapshot()
            assert "cube" not in stats["served_by_backend"]
        assert np.array_equal(from_cube, from_bitmap)

    @pytest.mark.parametrize("backend", ["auto", "cube", "bitmap"])
    def test_labels_and_fallbacks_per_backend(self, backend, tmp_path):
        """A generalized publication is served by its EC kernel under
        every backend, which is no cube fallback; perturbed and Anatomy
        ones by the count cube a store admission attached, unless the
        bitmap engine is forced."""
        from repro.api import Dataset
        from repro.dataset import DEFAULT_QI

        table = make_census(4_000, seed=3, qi_names=DEFAULT_QI)
        ds = Dataset(table)
        store = PublicationStore(tmp_path)
        runs = [
            (ds.anonymize("burel", beta=2.0), {"beta": 2.0}),
            (ds.anonymize("perturb", rng=29, beta=4.0), {"beta": 4.0}),
            (ds.anonymize("anatomy", rng=1, l=4), {"l": 4}),
        ]
        ids = [
            run.publish(store, requirement=requirement).pub_id
            for run, requirement in runs
        ]
        queries = make_workload(table.schema, 24, 2, 0.1, rng=5)
        with QueryService(store, workers=2, backend=backend) as service:
            labels = []
            for pub in ids:
                service.answer(pub, queries)
                labels.append(service.serving_backend(pub))
            service.answer_aggregate(ids[0], queries, 0, "avg")
            labels.append(service.serving_backend(ids[0]))
            fallbacks = service.stats_snapshot()["cube_fallbacks"]
        served = "bitmap" if backend == "bitmap" else "cube"
        assert labels == ["ec", served, served, "ec"]
        assert fallbacks == 0

    def test_fallback_counted(self, tmp_path):
        from repro.dataset.synthetic import synthetic

        table = synthetic(
            1_000, qi_dims=3, sa_cardinality=16, skew=0.5, seed=5,
            qi_domain=512, correlation=0.0,
        )
        store = PublicationStore(tmp_path / "store")
        record = store.put(
            BaselinePublication(table), requirement={"beta": 2.0}
        )
        w = make_workload(table.schema, 10, 2, 0.1, rng=2)
        with QueryService(store, backend="auto") as service:
            service.answer(record.pub_id, w)
            assert service.serving_backend(record.pub_id) == "bitmap"
            assert service.stats_snapshot()["cube_fallbacks"] >= 1

    def test_eviction_discards_cube_artifacts(self, tmp_path, small_table):
        from repro.api import ArtifactCache

        store = PublicationStore(tmp_path / "store")
        first = store.put(
            _fresh(anatomize(small_table, 4, rng=np.random.default_rng(3))),
            requirement={"l": 4},
        )
        second = store.put(
            _fresh(BaselinePublication(small_table)),
            requirement={"beta": 2.0},
        )
        cache = ArtifactCache()
        w = make_workload(small_table.schema, 10, 2, 0.1, rng=4)
        with QueryService(
            store, cache_size=1, artifact_cache=cache, backend="auto"
        ) as service:
            service.answer(first.pub_id, w)
            assert ("cube", first.pub_id) in cache
            # Loading the second publication evicts the first, and its
            # content-keyed cube must leave the shared cache with it.
            service.answer(second.pub_id, w)
            assert ("cube", first.pub_id) not in cache
            assert ("cube", second.pub_id) in cache
        # A SUM under backend="cube" builds measure cubes, keyed with the
        # measure dim last; they too leave with the evicted publication.
        with QueryService(
            store, cache_size=1, artifact_cache=cache, backend="cube"
        ) as service:
            service.answer_aggregate(first.pub_id, w, 0, "sum")
            assert ("cube", first.pub_id, 0) in cache
            service.answer_aggregate(second.pub_id, w, 0, "sum")
            assert ("cube", first.pub_id, 0) not in cache
            assert ("cube", second.pub_id, 0) in cache


# ----------------------------------------------------------------------
# CLI flag
# ----------------------------------------------------------------------


class TestCliBackend:
    @pytest.mark.parametrize("backend", ["cube", "bitmap"])
    def test_backend_echoed_in_json(
        self, tmp_path, small_table, backend, capsys
    ):
        from repro.cli import run

        store = PublicationStore(tmp_path / "store")
        record = store.put(
            _fresh(anatomize(small_table, 4, rng=np.random.default_rng(3))),
            requirement={"l": 4},
        )
        out = tmp_path / "estimates.json"
        code = run(
            [
                "query",
                "--store", str(tmp_path / "store"),
                "--id", record.pub_id,
                "--queries", "10",
                "--lam", "2",
                "--backend", backend,
                "-o", str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert f"backend {backend!r}" in captured
        payload = json.loads(out.read_text())
        assert payload["backend"] == backend
        assert payload["served_by"] == backend
        assert len(payload["estimates"]) == 10


# ----------------------------------------------------------------------
# SUM / AVG aggregates
# ----------------------------------------------------------------------


class TestAggregates:
    MEASURE = 0  # Age

    def test_precise_scalar_vs_batch_vs_cube(self, census_small, workload):
        for op in AGGREGATE_OPS:
            scalar = np.array(
                [
                    answer_aggregate_precise(
                        census_small, q, self.MEASURE, op
                    )
                    for q in workload
                ]
            )
            bitmap = batch_aggregate_precise(
                census_small, workload, self.MEASURE, op, backend="bitmap"
            )
            cube = batch_aggregate_precise(
                census_small, workload, self.MEASURE, op,
                artifacts=ArtifactCache(), backend="cube",
            )
            assert np.array_equal(scalar, bitmap, equal_nan=True), op
            assert np.array_equal(scalar, cube, equal_nan=True), op

    @pytest.mark.parametrize("op", AGGREGATE_OPS)
    def test_estimates_scalar_vs_batch_vs_cube(
        self, census_small, publications, workload, op
    ):
        d = census_small.schema.n_qi
        # One λ = d pattern of 130 queries: the EC kernel then runs three
        # 64-query chunks with the measure dimension constrained.
        one_pattern = make_workload(census_small.schema, 130, d, 0.2, rng=8)
        for queries in (workload[::6], one_pattern):
            for measure_dim in (0, d - 1):
                via_bitmap = batch_aggregate_estimates(
                    census_small, publications, queries, measure_dim, op,
                    backend="bitmap",
                )
                for published in publications.values():
                    _fresh(published)
                served = {}
                via_cube = batch_aggregate_estimates(
                    census_small, publications, queries, measure_dim, op,
                    backend="cube", served=served,
                )
                assert served["generalized"] == "ec"
                for name in ("perturbed", "anatomy", "baseline"):
                    assert served[name] == "cube"
                for name, published in publications.items():
                    scalar = np.array(
                        [
                            answer_aggregate(published, q, measure_dim, op)
                            for q in queries
                        ]
                    )
                    key = (name, measure_dim)
                    assert np.array_equal(
                        scalar, via_bitmap[name], equal_nan=True
                    ), key
                    assert np.array_equal(
                        via_cube[name], via_bitmap[name], equal_nan=True
                    ), key

    def test_measure_cube_built_per_kind(self, census_small, publications):
        for name, published in publications.items():
            cube = build_count_cube(published, measure_dim=self.MEASURE)
            if name == "generalized":
                continue  # EC estimator is table-free
            assert cube is not None, name
            assert bool(cube)
