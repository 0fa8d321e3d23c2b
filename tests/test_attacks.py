"""Tests for the Section 7 attacks."""

import numpy as np
import pytest

from repro._distinct import distinct_rows
from repro.anonymity import anatomize
from repro.attacks import (
    definetti_attack,
    hierarchy_groups,
    naive_bayes_attack,
    naive_bayes_attack_raw,
    random_assignment_baseline,
    salary_bands,
    similarity_gain,
    skewness_gain,
)
from repro.attacks.naive_bayes import (
    _conditional_matrix_generalized,
    _conditional_matrix_raw,
    _predict,
)
from repro.core import BetaLikeness, burel
from repro.dataset import make_census, publish
from repro.dataset.synthetic import synthetic
from repro.dataset.table import Table


class TestNaiveBayes:
    def test_attack_on_burel_near_baseline(self, census_small):
        """§7's finding: accuracy stays close to the most frequent SA
        value's share (4.84%)."""
        pub = burel(census_small, 4.0).published
        result = naive_bayes_attack(pub)
        assert result.accuracy <= result.majority_baseline + 0.02

    def test_raw_attack_beats_anonymized(self):
        """With strong QI-SA dependence the raw classifier must do
        better than the one trained on BUREL's output."""
        table = make_census(10_000, seed=7, correlation=0.9,
                            qi_names=("Age", "Gender", "Education"))
        raw = naive_bayes_attack_raw(table)
        anon = naive_bayes_attack(burel(table, 3.0).published)
        assert raw.accuracy > anon.accuracy

    def test_predictions_shape(self, census_small):
        pub = burel(census_small, 3.0).published
        result = naive_bayes_attack(pub)
        assert result.predictions.shape == (census_small.n_rows,)
        assert result.predictions.min() >= 0
        assert result.predictions.max() < 50

    def test_majority_baseline_value(self, census_small):
        result = naive_bayes_attack_raw(census_small)
        assert result.majority_baseline == pytest.approx(
            census_small.sa_distribution().max()
        )


class TestDeFinetti:
    def test_beats_random_assignment_on_anatomy(self):
        table = make_census(5_000, seed=3, correlation=0.9,
                            qi_names=("Age", "Gender", "Education"))
        at = anatomize(table, 3, rng=np.random.default_rng(0))
        attack = definetti_attack(at, max_iterations=8)
        baseline = random_assignment_baseline(at)
        assert attack.accuracy >= baseline.accuracy

    def test_burel_output_resists(self, census_small):
        """On β-bounded ECs the attack collapses towards the baseline."""
        pub = burel(census_small, 2.0).published
        attack = definetti_attack(pub, max_iterations=6)
        assert attack.accuracy < 0.15

    def test_result_fields(self, census_small):
        pub = burel(census_small, 3.0).published
        attack = definetti_attack(pub, max_iterations=3)
        assert attack.iterations <= 3
        assert attack.predictions.shape == (census_small.n_rows,)

    def test_unsupported_publication_type(self):
        with pytest.raises(TypeError):
            definetti_attack(object())


class TestSkewness:
    def test_gain_bounded_by_model(self, census_small):
        """On BUREL output the worst q/p ratio is at most 1 + the cap's
        relative slack — i.e. gain - 1 <= β against each value's f."""
        beta = 2.0
        pub = burel(census_small, beta).published
        report = skewness_gain(pub)
        p = pub.global_distribution()
        model = BetaLikeness(beta)
        cap = model.threshold(p[report.value_index])
        assert report.max_gain * p[report.value_index] <= cap + 1e-9

    def test_skewed_publication_detected(self, patients):
        gt = publish(patients, [np.array([0, 1, 2]), np.array([3, 4, 5])])
        report = skewness_gain(gt)
        assert report.max_gain == pytest.approx(2.0)  # 1/3 over 1/6

    def test_similarity_attack_on_semantic_groups(self, patients):
        """The paper's §2 similarity example: all-nervous EC doubles the
        nervous-disease confidence."""
        gt = publish(patients, [np.array([0, 1, 2]), np.array([3, 4, 5])])
        groups = hierarchy_groups(gt, depth=1)
        report = similarity_gain(gt, groups)
        assert report.max_gain == pytest.approx(2.0)

    def test_hierarchy_groups_fallback(self, census_small):
        pub = burel(census_small, 3.0).published
        groups = hierarchy_groups(pub)
        assert len(groups) == 50  # no SA hierarchy -> singletons

    def test_salary_bands(self):
        bands = salary_bands(50, 10)
        assert len(bands) == 5
        assert bands[0] == list(range(10))
        assert bands[-1] == list(range(40, 50))

    def test_similarity_bounded_on_burel(self, census_small):
        pub = burel(census_small, 2.0).published
        report = similarity_gain(pub, salary_bands())
        # Group gain is bounded by the max per-value gain.
        per_value = skewness_gain(pub)
        assert report.max_gain <= per_value.max_gain + 1e-9


# ----------------------------------------------------------------------
# Oracle: Eq. 15's scores over every row
# ----------------------------------------------------------------------


def _predict_every_row(table, conditionals):
    """Reference ``_predict``: an ``n × m`` score matrix over all rows."""
    prior = table.sa_distribution()
    with np.errstate(divide="ignore"):
        scores = np.tile(np.log(np.where(prior > 0, prior, 1e-300)),
                         (table.n_rows, 1))
        for dim, conditional in enumerate(conditionals):
            attr = table.schema.qi[dim]
            rows = conditional[table.qi[:, dim] - attr.lo, :]
            scores += np.log(np.where(rows > 0, rows, 1e-300))
    return np.argmax(scores, axis=1).astype(np.int64)


def _assert_predict_matches(table, conditionals):
    predictions = _predict(table, conditionals)
    assert predictions.dtype == np.int64
    assert np.array_equal(predictions, _predict_every_row(table, conditionals))


class TestPredictOracle:
    def test_repeated_tuples_raw_and_generalized(self):
        table = make_census(
            20_000, seed=7, qi_names=("Age", "Gender", "Marital")
        )
        assert np.unique(table.qi, axis=0).shape[0] < table.n_rows // 10
        n_qi = table.schema.n_qi
        _assert_predict_matches(
            table, [_conditional_matrix_raw(table, j) for j in range(n_qi)]
        )
        published = burel(table, 3.0).published
        _assert_predict_matches(
            table,
            [_conditional_matrix_generalized(published, j)
             for j in range(n_qi)],
        )

    def test_cardinality_product_past_int64(self, rng):
        """512**8 = 2**72 QI combinations: one plain mixed-radix code
        would wrap, and a wrapped code cannot tell a tuple from its twin
        whose first QI value differs by 2."""
        base = synthetic(300, qi_dims=8, qi_domain=512, seed=3)
        cards = [attr.cardinality for attr in base.schema.qi]
        assert int(np.prod(np.array(cards, dtype=object))) > 2**63
        twins = base.qi.copy()
        twins[:, 0] = (twins[:, 0] + 2) % 512
        pool = Table(
            base.schema,
            np.concatenate([base.qi, twins]),
            np.concatenate([base.sa, base.sa]),
        )
        table = pool.subset(rng.integers(0, pool.n_rows, 3_000))
        m = table.sa_cardinality
        _assert_predict_matches(
            table,
            [_conditional_matrix_raw(table, j)
             for j in range(table.schema.n_qi)],
        )
        _assert_predict_matches(
            table, [rng.random((512, m)) for _ in range(table.schema.n_qi)]
        )

    def test_sparse_conditionals(self, rng):
        """Zero conditionals take the 1e-300 floor before the log; most
        tuples find a zero under every SA value."""
        table = make_census(3_000, seed=11, qi_names=("Age", "Gender"))
        conditionals = []
        for attr in table.schema.qi:
            cond = rng.random((attr.cardinality, table.sa_cardinality))
            cond[rng.random(cond.shape) < 0.9] = 0.0
            conditionals.append(cond)
        _assert_predict_matches(table, conditionals)


class TestDistinctRows:
    @staticmethod
    def _check(columns, radices):
        first, inverse = distinct_rows(columns, radices)
        matrix = np.column_stack(columns)
        expected = np.unique(matrix, axis=0)
        assert first.shape[0] == expected.shape[0]
        assert np.array_equal(matrix[first][inverse], matrix)
        # One representative per distinct row, at its first occurrence.
        for k, row in enumerate(first):
            assert np.all(inverse[:row] != k)

    def test_plain_code(self, rng):
        columns = [rng.integers(0, 4, 200), rng.integers(0, 3, 200)]
        self._check(columns, [4, 3])

    def test_prefix_ranked_past_two_to_the_64(self, rng):
        """Unranked, ``c0 * 2**40 + c1`` would wrap past 2**64 and merge
        ``c0`` with ``c0 + 2**24``."""
        head = rng.integers(0, 2**24, 15)
        pool = np.column_stack(
            [np.concatenate([head, head + 2**24]),
             np.tile(rng.integers(0, 2**40, 15), 2),
             np.tile(rng.integers(0, 7, 15), 2)]
        )
        matrix = pool[rng.integers(0, 30, 300)]
        self._check(list(matrix.T), [2**40, 2**40, 7])

    def test_vast_column_ranked_too(self, rng):
        """A radix of 2**63 overflows even a ranked prefix; the column is
        ranked as well.  Few last-column values make wraps collide."""
        pool = np.column_stack(
            [rng.integers(0, 2**40, 30), rng.integers(0, 2**40, 30),
             rng.choice(rng.integers(0, 2**63, 3), 30)]
        )
        matrix = pool[rng.integers(0, 30, 300)]
        self._check(list(matrix.T), [2**40, 2**40, 2**63])

    def test_one_full_width_column(self):
        column = np.array([2**64 - 1, 0, 2**64 - 1, 5], dtype=np.uint64)
        first, inverse = distinct_rows([column], [2**64])
        assert np.array_equal(column[first][inverse], column)
        assert first.tolist() == [1, 3, 0]
