"""Batched workload evaluation: batch-vs-scalar byte-equality, the
shared-mask/bitmap machinery, precise caching, and the query-layer
bugfix regressions (anatomy coverage, workload rng contract)."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymity import BaselinePublication, anatomize
from repro.anonymity.anatomy import AnatomyTable
from repro.api import ArtifactCache, Dataset
from repro.audit import privacy_profile, publication_view
from repro.audit.evaluate import audit_publications
from repro.core import burel, perturb_table
from repro.dataset import (
    DEFAULT_QI,
    Attribute,
    Schema,
    SensitiveAttribute,
    Table,
    make_census,
    synthetic,
)
from repro.query import (
    AnatomyAnswerer,
    BaselineAnswerer,
    CountQuery,
    EncodedWorkload,
    GeneralizedAnswerer,
    PerturbedAnswerer,
    RangeBitmapIndex,
    answer_precise,
    answer_precise_batch,
    batch_estimates,
    evaluate_workload,
    make_answerer,
    make_workload,
    median_relative_error,
    qi_mask,
)
from repro.query.aggregates import (
    answer_aggregate,
    answer_aggregate_precise,
    batch_aggregate_estimates,
    batch_aggregate_precise,
)
from repro.query.cube import build_count_cube
from repro.query.evaluate import (
    DEFAULT_INDEX_BUDGET,
    TableMaskEngine,
    answer_batch,
    mask_engine,
)
from repro.service import PublicationStore


@pytest.fixture(scope="module")
def workload(census_small):
    """A varied randomized workload: mixed λ and θ per block."""
    queries = []
    for seed, lam, theta in ((3, 1, 0.05), (4, 2, 0.1), (5, 3, 0.25)):
        queries.extend(
            make_workload(census_small.schema, 60, lam, theta, rng=seed)
        )
    return queries


class TestEncodedWorkload:
    def test_open_bounds_cover_domains(self, census_small, workload):
        enc = EncodedWorkload.encode(census_small.schema, workload)
        for j, attr in enumerate(census_small.schema.qi):
            unconstrained = ~enc.constrained[:, j]
            assert (enc.qi_lo[unconstrained, j] == attr.lo).all()
            assert (enc.qi_hi[unconstrained, j] == attr.hi).all()

    def test_encode_is_idempotent(self, census_small, workload):
        enc = EncodedWorkload.encode(census_small.schema, workload)
        assert EncodedWorkload.encode(census_small.schema, enc) is enc

    def test_slice_preserves_queries(self, census_small, workload):
        enc = EncodedWorkload.encode(census_small.schema, workload)
        part = enc.slice(10, 25)
        assert part.queries == enc.queries[10:25]
        assert np.array_equal(part.sa_lo, enc.sa_lo[10:25])


def _random_range(rng, lo: int, hi: int) -> tuple[int, int]:
    """An inclusive range against domain ``[lo, hi]``: in-domain,
    empty (hi < lo), out of domain, or overhanging an edge."""
    kind = rng.integers(4)
    a, b = sorted(int(v) for v in rng.integers(lo, hi + 1, size=2))
    if kind == 1:
        return b + 1, a
    if kind == 2:
        side = rng.integers(2)
        return (hi + 1, hi + 5) if side else (lo - 5, lo - 1)
    if kind == 3:
        return a - 3, hi + 3
    return a, b


@st.composite
def scan_cases(draw):
    """A table and a workload over it.

    Tables run from 1 row to a few thousand, rarely a multiple of the
    scan's block size, with domains that need not start at 0; a QI
    column may be constant and the SA may take a single value.  Queries
    mix unconstrained dimensions with in-domain, empty, out-of-domain
    and overhanging QI ranges, and SA ranges of the same kinds.
    """
    d = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=1, max_value=3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lows = rng.integers(-20, 20, size=d)
    sizes = rng.integers(1, 300, size=d)
    attrs = [
        Attribute.numerical(f"x{j}", int(lows[j]), int(lows[j] + sizes[j] - 1))
        for j in range(d)
    ]
    schema = Schema(
        attrs, SensitiveAttribute("s", tuple(f"v{i}" for i in range(m)))
    )
    qi = lows + rng.integers(0, sizes, size=(n, d))
    if draw(st.booleans()):
        j = int(rng.integers(d))
        qi[:, j] = qi[0, j]
    if draw(st.booleans()):
        sa = np.full(n, rng.integers(m))
    else:
        sa = rng.integers(0, m, size=n)
    table = Table(schema, qi, sa)
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        ranges = tuple(
            (j, _random_range(rng, attr.lo, attr.hi))
            for j, attr in enumerate(attrs)
            if rng.random() < 0.7
        )
        queries.append(CountQuery(ranges, _random_range(rng, 0, m - 1)))
    return table, queries


class TestPreciseBatch:
    def test_matches_scalar(self, census_small, workload):
        scalar = np.array([answer_precise(census_small, q) for q in workload])
        batch = answer_precise_batch(census_small, workload)
        assert batch.dtype == np.int64
        assert np.array_equal(scalar, batch)

    def test_compare_fallback_matches_index(self, census_small, workload):
        enc = EncodedWorkload.encode(census_small.schema, workload)
        indexed = TableMaskEngine(census_small)
        assert indexed.index is not None
        fallback = TableMaskEngine(census_small, index_budget=0)
        assert fallback.index is None
        assert np.array_equal(indexed.precise(enc), fallback.precise(enc))
        assert np.array_equal(indexed.qi_counts(enc), fallback.qi_counts(enc))
        assert np.array_equal(
            indexed.qi_mask_block(enc, 7, 40),
            fallback.qi_mask_block(enc, 7, 40),
        )

    @given(case=scan_cases())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scan_matches_index_on_generated_tables(self, case):
        """The zone-mapped scan (forced with ``index_budget=0``) equals
        the bitmap index and the scalar oracles on every entry point."""
        table, queries = case
        enc = EncodedWorkload.encode(table.schema, queries)
        indexed = TableMaskEngine(table)
        scanned = TableMaskEngine(table, index_budget=0)
        assert indexed.index is not None and scanned.index is None
        precise = scanned.precise(enc)
        assert np.array_equal(precise, indexed.precise(enc))
        assert precise.tolist() == [answer_precise(table, q) for q in queries]
        n = enc.n_queries
        masks = scanned.qi_mask_block(enc, 0, n)
        assert np.array_equal(masks, indexed.qi_mask_block(enc, 0, n))
        for mask, query in zip(masks, queries):
            assert np.array_equal(mask, qi_mask(table, query))
        counts = scanned.qi_counts(enc)
        assert np.array_equal(counts, indexed.qi_counts(enc))
        assert np.array_equal(counts, masks.sum(axis=1))

    def test_qi_masks_match_scalar(self, census_small, workload):
        enc = EncodedWorkload.encode(census_small.schema, workload)
        masks = mask_engine(census_small).qi_mask_block(enc, 0, 30)
        for i in range(30):
            assert np.array_equal(masks[i], qi_mask(census_small, workload[i]))

    def test_cache_reused_across_calls(self, census_small, workload):
        cache = ArtifactCache()
        engine = mask_engine(census_small, cache)
        assert mask_engine(census_small, cache) is engine
        first = answer_precise_batch(census_small, workload, artifacts=cache)
        second = answer_precise_batch(census_small, workload, artifacts=cache)
        assert second is first  # cached object, not a recomputation
        # Without a cache every call builds afresh.
        assert mask_engine(census_small) is not mask_engine(census_small)
        uncached = answer_precise_batch(census_small, workload)
        assert uncached is not answer_precise_batch(census_small, workload)
        assert np.array_equal(uncached, first)

    def test_workload_hashed_once_per_evaluate(self, monkeypatch):
        """The first evaluate of a workload, and each repeat with an
        equal regenerated one, hash its queries at most once: the
        encoding and the precise answers share one cached key."""
        table = make_census(2_000, seed=3, qi_names=("Age", "Gender"))
        run = Dataset(table).anonymize("burel", beta=3.0)
        hashes = []
        original = CountQuery.__hash__

        def counting(query):
            hashes.append(query)
            return original(query)

        monkeypatch.setattr(CountQuery, "__hash__", counting)
        for _ in range(3):
            queries = make_workload(table.schema, 200, 2, 0.1, rng=4)
            hashes.clear()
            run.evaluate(queries)
            assert len(hashes) <= len(queries)

    def test_row_count_not_multiple_of_64(self):
        """Exercises the packed-row padding (77 rows → 3 pad bits + pad
        bytes) end to end."""
        table = make_census(77, seed=3, qi_names=("Age", "Gender"))
        queries = make_workload(table.schema, 40, 2, 0.2, rng=9)
        scalar = np.array([answer_precise(table, q) for q in queries])
        assert np.array_equal(scalar, answer_precise_batch(table, queries))

    def test_full_domain_query_counts_everything(self, census_small):
        query = CountQuery(qi_ranges=(), sa_range=(0, 49))
        batch = answer_precise_batch(census_small, [query])
        assert batch.tolist() == [census_small.n_rows]


class TestZoneMapScan:
    @pytest.fixture(scope="class")
    def table(self):
        return synthetic(
            50_000, qi_dims=3, sa_cardinality=32, skew=0.8, seed=1,
            qi_domain=512,
        )

    @pytest.fixture(scope="class")
    def enc(self, table):
        queries = make_workload(table.schema, 200, 3, 0.1, rng=13)
        return EncodedWorkload.encode(table.schema, queries)

    def test_small_passes_match_index(self, table, enc, monkeypatch):
        """Query chunks of one zone classification and straddling
        passes of one block give the same answers."""
        expected = TableMaskEngine(table)
        scanned = TableMaskEngine(table, index_budget=0)
        monkeypatch.setattr("repro.query.evaluate._ZONE_CELLS", 1)
        monkeypatch.setattr("repro.query.evaluate._SCAN_ROWS", 1)
        part = enc.slice(0, 40)
        assert np.array_equal(scanned.precise(part), expected.precise(part))
        assert np.array_equal(
            scanned.qi_counts(part), expected.qi_counts(part)
        )
        assert np.array_equal(
            scanned.qi_mask_block(enc, 5, 9), expected.qi_mask_block(enc, 5, 9)
        )

    def test_precise_memory_below_32_bytes_per_row(self, table, enc):
        """The scan's working set is a few blocks per pass: precise()
        peaks below 32 B per row (a query × row broadcast block peaked
        at 800)."""
        engine = TableMaskEngine(table, index_budget=0)
        tracemalloc.start()
        try:
            engine.precise(enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * table.n_rows

    def test_cache_charges_its_bytes(self, table):
        engine = TableMaskEngine(table, index_budget=0)
        cache = ArtifactCache()
        cache.put(("mask_engine", "t"), engine)
        assert cache.nbytes == engine.scan.nbytes
        assert 0 < engine.scan.nbytes < 20 * table.n_rows


class TestBatchAnswerers:
    """Every batch path must be bit-identical to its scalar answerer."""

    def test_generalized(self, census_small, workload):
        answerer = GeneralizedAnswerer(burel(census_small, 3.0).published)
        scalar = np.array([answerer(q) for q in workload])
        assert np.array_equal(scalar, answerer.batch(workload))
        # tiny chunks exercise the chunk boundary logic
        assert np.array_equal(scalar, answerer.batch(workload, chunk=7))

    def test_generalized_no_qi_predicates(self, census_small):
        answerer = GeneralizedAnswerer(burel(census_small, 3.0).published)
        query = CountQuery(qi_ranges=(), sa_range=(5, 20))
        assert answerer.batch([query])[0] == answerer(query)

    @staticmethod
    def _seam(table, answerer, workload):
        """The answerer's estimates through the seam's bitmap pass."""
        return answer_batch(
            table, {"x": answerer}, workload, backend="bitmap"
        )["x"]

    def test_perturbed(self, census_small, workload):
        published = perturb_table(
            census_small, 4.0, rng=np.random.default_rng(2)
        )
        answerer = PerturbedAnswerer(published)
        scalar = np.array([answerer(q) for q in workload])
        assert np.array_equal(
            scalar, self._seam(census_small, answerer, workload)
        )

    def test_anatomy(self, census_small, workload):
        published = anatomize(census_small, 4, rng=np.random.default_rng(1))
        answerer = AnatomyAnswerer(published)
        scalar = np.array([answerer(q) for q in workload])
        assert np.array_equal(
            scalar, self._seam(census_small, answerer, workload)
        )

    def test_baseline(self, census_small, workload):
        answerer = BaselineAnswerer(BaselinePublication(census_small))
        scalar = np.array([answerer(q) for q in workload])
        assert np.array_equal(
            scalar, self._seam(census_small, answerer, workload)
        )

    def test_batch_with_shared_masks(self, census_small, workload):
        """batch_estimates routes shared masks; results stay identical."""
        publications = {
            "perturbed": perturb_table(
                census_small, 4.0, rng=np.random.default_rng(2)
            ),
            "anatomy": anatomize(census_small, 4, rng=np.random.default_rng(1)),
            "baseline": BaselinePublication(census_small),
            "burel": burel(census_small, 3.0).published,
        }
        estimates = batch_estimates(census_small, publications, workload)
        for name, published in publications.items():
            answerer = make_answerer(published)
            scalar = np.array([answerer(q) for q in workload])
            assert np.array_equal(scalar, estimates[name]), name

    def test_rowwise_sum_matches_1d_sum(self, rng):
        """The (chunk, E).sum(axis=1) kernel must reduce each row exactly
        like the scalar 1-D sum — the byte-equality guarantee rests on
        it.  Adversarial magnitudes make any reassociation visible."""
        data = rng.standard_normal((64, 1037)) * np.exp(
            rng.uniform(-30, 30, size=(64, 1037))
        )
        rowwise = data.sum(axis=1)
        scalar = np.array([data[i].sum() for i in range(data.shape[0])])
        assert np.array_equal(rowwise, scalar)


def _histogram_publications(table: Table, seed: int) -> dict:
    """Perturbed, Anatomy and Baseline publications over any table.

    The Anatomy groups are a random partition into groups of one to
    three rows: the estimator reads any partition, so generated tables
    need not be ℓ-eligible.
    """
    rng = np.random.default_rng(seed)
    n = table.n_rows
    sizes = rng.integers(1, 4, size=n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    offsets = np.append(offsets[offsets < n], n)
    return {
        "perturbed": perturb_table(table, 3.0, rng=rng),
        "anatomy": AnatomyTable(table, rng.permutation(n), offsets, l=1),
        "baseline": BaselinePublication(table),
    }


def _aggregates(schema) -> list:
    """COUNT (``None``), then SUM and AVG over every measure dim."""
    return [None] + [
        (dim, op) for dim in range(schema.n_qi) for op in ("sum", "avg")
    ]


def _scalar(answerer, queries, aggregate) -> np.ndarray:
    if aggregate is None:
        return np.array([answerer(q) for q in queries])
    return np.array(
        [answer_aggregate(answerer, q, *aggregate) for q in queries]
    )


def _with_engine(table: Table, index_budget: int) -> ArtifactCache:
    """A cache holding ``table``'s mask engine built under a budget
    (``0`` forces the zone-map scan)."""
    cache = ArtifactCache()
    cache.put(
        ("mask_engine", cache.table_key(table)),
        TableMaskEngine(table, index_budget=index_budget),
    )
    return cache


class TestHistogramPass:
    """The bitmap regime's one histogram pass equals the scalar oracles
    and the cube path for every mask-consuming kind and aggregate."""

    @given(case=scan_cases(), seed=st.integers(0, 2**31 - 1))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pass_matches_oracles_and_cube(self, case, seed):
        self._check(*case, seed)

    def test_one_row_table(self):
        schema = Schema(
            [Attribute.numerical("x", 3, 9), Attribute.numerical("y", 0, 4)],
            SensitiveAttribute("s", ("a", "b", "c")),
        )
        table = Table(schema, np.array([[5, 2]]), np.array([1]))
        queries = [
            CountQuery(((0, (5, 5)),), (1, 1)),  # the row
            CountQuery(((0, (6, 9)),), (0, 2)),  # no row
            CountQuery(((1, (0, 4)),), (0, 0)),  # the row, SA outside
        ]
        self._check(table, queries, seed=0)

    @staticmethod
    def _check(table, queries, seed):
        # An unconstrained query beside the others, which also match no
        # row when a range is empty or out of domain.
        queries = [*queries, CountQuery((), (0, table.sa_cardinality - 1))]
        publications = _histogram_publications(table, seed)
        answerers = {
            name: make_answerer(pub) for name, pub in publications.items()
        }
        enc = EncodedWorkload.encode(table.schema, queries)
        caches = [
            _with_engine(table, budget) for budget in (DEFAULT_INDEX_BUDGET, 0)
        ]
        assert caches[0].get(("mask_engine", caches[0].table_key(table))).index
        for aggregate in _aggregates(table.schema):
            expected = {
                name: _scalar(answerer, queries, aggregate)
                for name, answerer in answerers.items()
            }
            for cache in caches:
                got = answer_batch(
                    table, answerers, enc, aggregate,
                    artifacts=cache, backend="bitmap",
                )
                for name in answerers:
                    assert np.array_equal(
                        got[name], expected[name], equal_nan=True
                    ), (name, aggregate)
            if aggregate is not None and aggregate[1] == "avg":
                continue
            measure_dim = None if aggregate is None else aggregate[0]
            for name, answerer in answerers.items():
                cube = build_count_cube(
                    publications[name], budget=2**22, measure_dim=measure_dim
                )
                histograms = None if cube is None else cube.histograms(enc)
                if histograms is not None:
                    assert np.array_equal(
                        answerer.batch(enc, histograms), expected[name]
                    ), (name, aggregate)
        for dim in range(table.schema.n_qi):
            expected = [
                answer_aggregate_precise(table, q, dim) for q in queries
            ]
            for cache in caches:
                got = batch_aggregate_precise(
                    table, enc, dim, artifacts=cache, backend="bitmap"
                )
                assert got.tolist() == expected

    def test_pass_boundaries_do_not_change_answers(
        self, census_small, workload, monkeypatch
    ):
        """Passes of one query (cells) and one pair each give the same
        answers as the default passes."""
        publications = _histogram_publications(census_small, 5)
        aggregates = _aggregates(census_small.schema)
        expected = [
            answer_batch(census_small, publications, workload, aggregate,
                         backend="bitmap")
            for aggregate in aggregates
        ]
        precise = batch_aggregate_precise(
            census_small, workload, 1, backend="bitmap"
        )
        monkeypatch.setattr("repro.query.evaluate._PASS_CELLS", 1)
        monkeypatch.setattr("repro.query.evaluate._PASS_PAIRS", 1)
        for aggregate, before in zip(aggregates, expected):
            after = answer_batch(
                census_small, publications, workload, aggregate,
                backend="bitmap",
            )
            for name in publications:
                assert np.array_equal(
                    after[name], before[name], equal_nan=True
                ), (name, aggregate)
        assert np.array_equal(
            batch_aggregate_precise(
                census_small, workload, 1, backend="bitmap"
            ),
            precise,
        )


    def test_fraction_blocks_do_not_change_answers(
        self, census_small, workload, monkeypatch
    ):
        """Anatomy's functional answers a cube-sized batch in blocks of
        queries; blocks of one query give the scalar answers too."""
        answerer = AnatomyAnswerer(
            anatomize(census_small, 4, rng=np.random.default_rng(1))
        )
        enc = EncodedWorkload.encode(census_small.schema, workload)
        passes = TableMaskEngine(census_small).histograms(
            enc, [(answerer.row_codes, answerer.width)]
        )
        histograms = np.concatenate([hist for _, _, (hist,) in passes])
        expected = [answerer(q) for q in workload]
        assert answerer.batch(enc, histograms).tolist() == expected
        monkeypatch.setattr("repro.query.answer._FRACTION_CELLS", 1)
        assert answerer.batch(enc, histograms).tolist() == expected


class TestHistogramPassMemory:
    """tracemalloc ceilings of the bitmap regime's COUNT and AVG, with
    the mask engine and answerers prebuilt in a session cache."""

    @pytest.fixture(scope="class")
    def setup(self):
        table = make_census(50_000, seed=3)
        cache = ArtifactCache()
        mask_engine(table, cache)
        answerers = {
            "anatomy": make_answerer(
                anatomize(table, 4, rng=np.random.default_rng(1))
            ),
            "perturbed": make_answerer(
                perturb_table(table, 4.0, rng=np.random.default_rng(2))
            ),
        }
        return table, cache, answerers

    @staticmethod
    def _peak(table, cache, answerers, queries) -> int:
        enc = EncodedWorkload.encode(table.schema, queries)
        for aggregate in (None, (0, "avg")):  # warm the weight caches
            answer_batch(table, answerers, enc.slice(0, 1), aggregate,
                         artifacts=cache, backend="bitmap")
        tracemalloc.start()
        try:
            for aggregate in (None, (0, "avg")):
                answer_batch(table, answerers, enc, aggregate,
                             artifacts=cache, backend="bitmap")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_random_workload_below_1000_bytes_per_row(self, setup):
        """Materialized (queries × rows) mask blocks peaked at 1,534 B
        per row here; passes bounded by cells and pairs stay below
        1,000."""
        table, cache, answerers = setup
        queries = make_workload(table.schema, 2_000, 3, 0.1, rng=7)
        peak = self._peak(table, cache, answerers, queries)
        assert peak < 1_000 * table.n_rows

    def test_all_rows_workload_below_420_bytes_per_row(self, setup):
        """Every query matching every row is the pair bound's worst
        case: a pass bounded by cells alone peaked above 2,000 B/row."""
        table, cache, answerers = setup
        queries = [CountQuery((), (0, 9 + i % 40)) for i in range(200)]
        peak = self._peak(table, cache, answerers, queries)
        assert peak < 420 * table.n_rows


class TestSaRangeClipping:
    """Every estimator reads an SA range through one clipping rule:
    overhanging ranges are clipped to the domain, and empty ones
    (out of domain, or inverted) estimate zero."""

    @pytest.fixture(scope="class")
    def setup(self):
        # Three QI attributes, so every kind's cube fits its budget.
        table = make_census(4_000, seed=3, qi_names=DEFAULT_QI)
        publications = {
            "burel": burel(table, 3.0).published,
            **_histogram_publications(table, 3),
            "anatomy": anatomize(table, 4, rng=np.random.default_rng(1)),
        }
        return table, publications

    @staticmethod
    def _queries(sa_ranges):
        return [CountQuery(((0, (20, 60)),), r) for r in sa_ranges]

    CASES = (((-3, 10), (0, 10)), ((45, 60), (45, 49)),
             ((60, 70), None), ((5, 3), None))

    def _check(self, estimate):
        for sa_range, clipped in self.CASES:
            got = estimate(sa_range)
            if clipped is None:
                assert np.all(got == 0.0), sa_range
            else:
                assert np.array_equal(got, estimate(clipped)), sa_range

    def test_scalar_oracles(self, setup):
        table, publications = setup
        for published in publications.values():
            answerer = make_answerer(published)
            for aggregate in (None, (0, "sum")):
                self._check(
                    lambda r: _scalar(answerer, self._queries([r]), aggregate)
                )
        self._check(
            lambda r: np.array([answer_precise(table, self._queries([r])[0])])
        )

    @pytest.mark.parametrize("backend", ["bitmap", "cube"])
    def test_batch_seam(self, setup, backend):
        table, publications = setup
        cache = ArtifactCache()
        for aggregate in (None, (0, "sum")):
            def estimate(r):
                got = answer_batch(table, publications, self._queries([r]),
                                   aggregate, artifacts=cache,
                                   backend=backend)
                return np.array(list(got.values()))

            self._check(estimate)
        self._check(lambda r: answer_precise_batch(
            table, self._queries([r]), artifacts=cache, backend=backend
        ))


class TestEvaluateWorkload:
    def test_profiles_match_scalar_medians(self, census_small, workload):
        publications = {
            "burel": burel(census_small, 3.0).published,
            "baseline": BaselinePublication(census_small),
        }
        profiles = evaluate_workload(census_small, publications, workload)
        precise = np.array(
            [answer_precise(census_small, q) for q in workload]
        )
        for name, published in publications.items():
            answerer = make_answerer(published)
            scalar = median_relative_error(
                precise, np.array([answerer(q) for q in workload])
            )
            assert profiles[name].median == scalar

    def test_accepts_prebuilt_answerers(self, census_small, workload):
        answerer = GeneralizedAnswerer(burel(census_small, 3.0).published)
        profiles = evaluate_workload(
            census_small, {"gen": answerer}, workload
        )
        assert profiles["gen"].n_queries <= len(workload)

    def test_rejects_foreign_table(self, census_small, workload):
        other = make_census(500, seed=11, qi_names=("Age", "Gender"))
        publication = BaselinePublication(other)
        with pytest.raises(ValueError, match="different table"):
            evaluate_workload(census_small, {"b": publication}, workload)

    def test_unknown_publication_type_raises(self, census_small, workload):
        with pytest.raises(TypeError, match="no answerer"):
            evaluate_workload(census_small, {"x": object()}, workload)


class TestRangeBitmapIndex:
    def test_estimate_matches_reality(self, census_small):
        index = RangeBitmapIndex(census_small)
        actual = sum(
            le.nbytes + ge.nbytes for (le, ge), _ in index._qi
        ) + sum(b.nbytes for b in index._sa)
        assert actual <= RangeBitmapIndex.estimate_bytes(census_small)

    def test_unpack_roundtrip(self, census_small, workload):
        enc = EncodedWorkload.encode(census_small.schema, workload)
        index = RangeBitmapIndex(census_small)
        packed = index.qi_bits(enc, 0, 16)
        masks = index.unpack(packed)
        assert masks.shape == (16, census_small.n_rows)
        repacked = np.packbits(masks, axis=1)
        assert np.array_equal(repacked, packed[:, : repacked.shape[1]])


class TestAnatomyCoverageRegression:
    def test_uncovered_rows_raise(self):
        """Rows outside every group used to carry garbage group ids and
        silently corrupt estimates; the publication constructor now
        refuses such a partition before any answerer sees it."""
        table = make_census(100, seed=2, qi_names=("Age", "Gender"))
        rows = np.arange(60, dtype=np.int64)
        with pytest.raises(ValueError, match="cover 60 rows but the table has 100"):
            AnatomyAnswerer(AnatomyTable(table, rows, [0, 60], l=2))

    def test_full_coverage_still_accepted(self, census_small):
        published = anatomize(census_small, 4, rng=np.random.default_rng(1))
        answerer = AnatomyAnswerer(published)
        assert (answerer.group_of >= 0).all()


class TestWorkloadRngContract:
    def test_int_seed_matches_generator(self, census_small):
        by_seed = make_workload(census_small.schema, 10, 2, 0.1, rng=3)
        by_generator = make_workload(
            census_small.schema, 10, 2, 0.1, rng=np.random.default_rng(3)
        )
        assert by_seed == by_generator

    def test_default_is_documented_seed_zero(self, census_small):
        assert make_workload(census_small.schema, 10, 2, 0.1) == make_workload(
            census_small.schema, 10, 2, 0.1, rng=0
        )

    def test_distinct_seeds_differ(self, census_small):
        assert make_workload(
            census_small.schema, 10, 2, 0.1, rng=1
        ) != make_workload(census_small.schema, 10, 2, 0.1, rng=2)

    def test_none_is_rejected(self, census_small):
        with pytest.raises(TypeError, match="int seed or a numpy Generator"):
            make_workload(census_small.schema, 10, 2, 0.1, rng=None)


class TestCacheHygiene:
    def test_free_functions_keep_nothing_alive(self, tmp_path):
        """Without a cache, nothing a call builds outlives it: the table
        and the publication die with their last caller reference."""
        table = make_census(300, seed=5, qi_names=("Age", "Gender"))
        published = burel(table, 3.0).published
        queries = make_workload(table.schema, 20, 1, 0.2, rng=3)
        answer_precise_batch(table, queries, backend="cube")
        batch_estimates(table, {"p": published}, queries)
        perturbed = perturb_table(table, 4.0, rng=np.random.default_rng(2))
        batch_estimates(table, {"p": perturbed}, queries, backend="cube")
        batch_aggregate_estimates(
            table, {"p": perturbed}, queries, 0, "avg", backend="cube"
        )
        publication_view(published)
        privacy_profile(published)
        PublicationStore(tmp_path).put(published, requirement={"beta": 3.0})
        probes = [weakref.ref(o) for o in (table, published, perturbed)]
        del table, published, perturbed
        gc.collect()
        assert [probe() for probe in probes] == [None, None, None]

    def test_content_equal_table_accepted_without_cache(
        self, census_small, workload
    ):
        published = burel(census_small, 3.0).published
        copy = Table(
            census_small.schema, census_small.qi.copy(), census_small.sa.copy()
        )
        assert copy is not census_small
        via_copy = batch_estimates(copy, {"p": published}, workload)["p"]
        direct = batch_estimates(census_small, {"p": published}, workload)
        assert np.array_equal(via_copy, direct["p"])
        audited = audit_publications(copy, {"p": published})["p"]
        assert audited == audit_publications(
            census_small, {"p": published}
        )["p"]

    def test_duplicate_dimension_predicates_rejected(self, census_small):
        """The scalar path intersects repeated predicates; the dense
        encoding cannot represent that, so it must refuse."""
        query = CountQuery(
            qi_ranges=((0, (10, 20)), (0, (15, 30))), sa_range=(0, 10)
        )
        with pytest.raises(ValueError, match="ascending dimension order"):
            answer_precise_batch(census_small, [query])

    def test_unsorted_dimension_predicates_rejected(self, census_small):
        """Scalar fraction products follow tuple order; out-of-order
        predicates would associate float products differently."""
        query = CountQuery(
            qi_ranges=((2, (0, 5)), (0, (10, 20))), sa_range=(0, 10)
        )
        with pytest.raises(ValueError, match="ascending dimension order"):
            answer_precise_batch(census_small, [query])

    def test_cached_precise_answers_are_immutable(self, census_small):
        queries = make_workload(census_small.schema, 8, 1, 0.1, rng=77)
        cached = answer_precise_batch(
            census_small, queries, artifacts=ArtifactCache()
        )
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0
