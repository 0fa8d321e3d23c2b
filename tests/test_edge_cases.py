"""Edge-case tests across modules: degenerate inputs, boundaries, and
paths the happy-path suites skip."""

import numpy as np
import pytest

from repro.anonymity.mondrian import _median_split_value
from repro.core import BetaLikeness, burel, dp_partition, perturb_table
from repro.dataset import Attribute, Schema, SensitiveAttribute, Table
from repro.query import CountQuery, answer_precise


def one_column_table(values, sa_codes, m=3):
    schema = Schema(
        [Attribute.numerical("x", 0, 100)],
        SensitiveAttribute("s", tuple(f"v{i}" for i in range(m))),
    )
    return Table(
        schema,
        np.asarray(values).reshape(-1, 1),
        np.asarray(sa_codes),
    )


class TestMedianSplit:
    def test_distinct_values(self):
        assert _median_split_value(np.array([1, 2, 3, 4])) == 2

    def test_all_equal_unsplittable(self):
        assert _median_split_value(np.array([5, 5, 5])) is None

    def test_median_at_maximum_pulls_left(self):
        # Median equals max; the cut must fall below it.
        assert _median_split_value(np.array([1, 9, 9, 9])) == 1

    def test_two_values(self):
        assert _median_split_value(np.array([3, 7])) == 3


class TestDegenerateTables:
    def test_single_tuple_table(self):
        table = one_column_table([5], [0])
        result = burel(table, 2.0)
        assert len(result.published) == 1
        assert result.published.classes[0].size == 1

    def test_single_sa_value_table(self):
        table = one_column_table([1, 2, 3, 4], [1, 1, 1, 1])
        result = burel(table, 2.0)
        # q = p = 1 for the only value: zero gain, always compliant.
        from repro.metrics import measured_beta

        assert measured_beta(result.published) == 0.0

    def test_single_sa_value_perturbation(self, rng):
        table = one_column_table([1, 2, 3], [2, 2, 2])
        published = perturb_table(table, 2.0, rng=rng)
        assert (published.sa_perturbed == 2).all()

    def test_identical_qi_tuples(self):
        table = one_column_table([7] * 12, [0, 1, 2] * 4)
        result = burel(table, 3.0)
        rows = np.concatenate([ec.rows for ec in result.published])
        assert len(np.unique(rows)) == 12
        for ec in result.published:
            assert ec.box[0] == (7, 7)

    def test_two_tuples_two_values(self):
        table = one_column_table([0, 100], [0, 1])
        result = burel(table, 1.0)
        from repro.metrics import measured_beta

        assert measured_beta(result.published) <= 1.0 + 1e-9


class TestBoundaryBetas:
    def test_tiny_beta(self, census_small):
        result = burel(census_small, 0.05)
        from repro.metrics import measured_beta

        assert measured_beta(result.published) <= 0.05 + 1e-9

    def test_huge_beta_merges_more(self, census_small):
        """Relaxing β merges more values per bucket; the enhanced model
        caps the effect at -ln p, the basic model does not."""
        probs = census_small.sa_distribution()
        tight = dp_partition(probs, BetaLikeness(1.0, enhanced=False))
        loose = dp_partition(probs, BetaLikeness(64.0, enhanced=False))
        assert len(loose) < len(tight)
        enhanced = dp_partition(probs, BetaLikeness(64.0, enhanced=True))
        assert len(enhanced) >= len(loose)  # -ln p limits merging

    def test_threshold_at_exact_breakpoint(self):
        beta = 2.0
        model = BetaLikeness(beta)
        p = float(np.exp(-beta))
        linear = (1 + beta) * p
        log_branch = (1 - np.log(p)) * p
        assert linear == pytest.approx(log_branch)
        assert model.threshold(p) == pytest.approx(linear)


class TestQueryEdges:
    def test_point_query(self, census_small):
        q = CountQuery(qi_ranges=((0, (40, 40)),), sa_range=(12, 12))
        answer = answer_precise(census_small, q)
        manual = int(
            (
                (census_small.qi[:, 0] == 40) & (census_small.sa == 12)
            ).sum()
        )
        assert answer == manual

    def test_empty_region_query(self, census_small):
        # Age domain is [17, 95]; the query hits a region with SA that
        # may be empty — answers must be zero, not errors.
        q = CountQuery(qi_ranges=((0, (17, 17)),), sa_range=(49, 49))
        assert answer_precise(census_small, q) >= 0

    def test_whole_table_query(self, census_small):
        q = CountQuery(qi_ranges=(), sa_range=(0, 49))
        assert answer_precise(census_small, q) == census_small.n_rows


class TestPublicationValidation:
    def test_duplicate_rows_rejected(self, patients):
        from repro.dataset import publish

        # Six rows total, but row 2 appears twice and row 3 never.
        with pytest.raises(ValueError, match="partition"):
            publish(
                patients,
                [np.array([0, 1, 2]), np.array([2, 4, 5])],
            )

    def test_empty_publication_rejected(self, patients):
        from repro.dataset.published import GeneralizedTable

        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="at least one"):
            GeneralizedTable(patients, empty, np.zeros(1, dtype=np.int64),
                             np.empty((0, patients.schema.n_qi, 2)))
