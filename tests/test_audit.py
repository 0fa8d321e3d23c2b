"""Tests for the batched privacy-audit engine (``repro.audit``).

The contract under test: every batched metric and attack is
bit/float-identical to the scalar reference it reimplements, for every
publication family the paper evaluates — plus regression tests for the
uncovered-row and rng bug classes the audit PR fixed in the scalar
layer.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import attacks as scalar_attacks
from repro import audit
from repro import metrics as scalar_metrics
from repro.anonymity import anatomize, mondrian, sabre, t_closeness
from repro.api import ArtifactCache
from repro.attacks import (
    composition_attack,
    corruption_attack,
    definetti_attack,
    random_assignment_baseline,
    salary_bands,
)
from repro.core import burel
from repro.dataset import make_census, publish


@pytest.fixture(scope="module")
def publications(census_small):
    """One publication per family of the paper's evaluation."""
    return {
        "burel": burel(census_small, 3.0).published,
        "sabre": sabre(census_small, 0.15, ordered=True).published,
        "mondrian": mondrian(
            census_small, t_closeness(census_small.sa_distribution(), 0.15)
        ).published,
        "anatomy": anatomize(
            census_small, 4, rng=np.random.default_rng(1)
        ),
    }


def _scalar_form(table, published):
    """The scalar references take a GeneralizedTable; Anatomy groups are
    re-published as equivalent ECs so both paths see the same groups."""
    if isinstance(published, audit.PublicationView):  # pragma: no cover
        raise TypeError
    if hasattr(published, "groups"):
        return publish(table, [g.rows for g in published.groups])
    return published


def _partial_publication(source):
    """A publication whose ECs miss some source rows — the uncovered-row
    bug class.  The publication constructor validates the partition, so
    building it raises."""
    return publish(source, [np.array([0, 1]), np.array([2, 3])])


@pytest.fixture()
def build_partial(patients):
    """Builds ECs over rows 0..3 of the 6-row patients table; rows 4 and
    5 are uncovered, so the build raises."""
    return lambda: _partial_publication(patients)


# ----------------------------------------------------------------------
# The view
# ----------------------------------------------------------------------


class TestPublicationView:
    def test_counts_match_per_class_histograms(self, publications):
        pub = publications["burel"]
        view = audit.publication_view(pub)
        assert view.n_groups == len(pub)
        for g, ec in enumerate(pub):
            assert np.array_equal(view.counts[g], ec.sa_counts)
            assert view.sizes[g] == ec.size
            assert np.all(view.class_of[ec.rows] == g)

    def test_view_is_cached_per_publication(self, publications):
        pub = publications["sabre"]
        cache = ArtifactCache()
        view = audit.publication_view(pub, cache)
        assert audit.publication_view(pub, cache) is view
        # Without a cache each call builds a new, equal view.
        fresh = audit.publication_view(pub)
        assert audit.publication_view(pub) is not fresh
        assert np.array_equal(fresh.counts, view.counts)

    def test_anatomy_groups_supported(self, publications):
        view = audit.publication_view(publications["anatomy"])
        assert view.boxes is None
        assert view.sizes.sum() == view.source.n_rows

    def test_uncovered_rows_rejected(self, build_partial):
        with pytest.raises(ValueError, match="cover 4 rows but the table has 6"):
            audit.PublicationView(build_partial())

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            audit.PublicationView(object())


# ----------------------------------------------------------------------
# Batch-vs-scalar equality: privacy and risk metrics
# ----------------------------------------------------------------------


FAMILIES = ("burel", "sabre", "mondrian", "anatomy")


@pytest.mark.parametrize("family", FAMILIES)
class TestMetricEquality:
    def test_privacy_metrics_identical(
        self, census_small, publications, family
    ):
        pub = publications[family]
        ref = _scalar_form(census_small, pub)
        assert audit.measured_beta(pub) == scalar_metrics.measured_beta(ref)
        assert audit.average_beta(pub) == scalar_metrics.average_beta(ref)
        assert audit.measured_l(pub) == scalar_metrics.measured_l(ref)
        assert audit.average_l(pub) == scalar_metrics.average_l(ref)
        assert audit.measured_delta(pub) == scalar_metrics.measured_delta(ref)
        for ordered in (False, True):
            assert audit.measured_t(pub, ordered) == scalar_metrics.measured_t(
                ref, ordered
            )
            assert audit.average_t(pub, ordered) == scalar_metrics.average_t(
                ref, ordered
            )

    def test_privacy_profile_identical(
        self, census_small, publications, family
    ):
        pub = publications[family]
        ref = _scalar_form(census_small, pub)
        for ordered in (False, True):
            assert audit.privacy_profile(
                pub, ordered_emd=ordered
            ) == scalar_metrics.privacy_profile(ref, ordered_emd=ordered)

    def test_risk_vectors_identical(self, census_small, publications, family):
        pub = publications[family]
        ref = _scalar_form(census_small, pub)
        assert np.array_equal(
            audit.reidentification_risks(pub),
            scalar_metrics.reidentification_risks(ref),
        )
        assert np.array_equal(
            audit.attribute_disclosure_risks(pub),
            scalar_metrics.attribute_disclosure_risks(ref),
        )
        assert audit.risk_profile(pub) == scalar_metrics.risk_profile(ref)


# ----------------------------------------------------------------------
# Batch-vs-scalar equality: attacks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
class TestAttackEquality:
    def test_skewness_identical(self, census_small, publications, family):
        pub = publications[family]
        ref = _scalar_form(census_small, pub)
        assert audit.skewness_gain(pub) == scalar_attacks.skewness_gain(ref)

    def test_similarity_identical(self, census_small, publications, family):
        pub = publications[family]
        ref = _scalar_form(census_small, pub)
        bands = salary_bands()
        assert audit.similarity_gain(pub, bands) == (
            scalar_attacks.similarity_gain(ref, bands)
        )

    def test_corruption_identical(self, census_small, publications, family):
        pub = publications[family]
        ref = _scalar_form(census_small, pub)
        for n_corrupted in (0, 500, census_small.n_rows):
            assert audit.corruption_attack(
                pub, n_corrupted, rng=7
            ) == corruption_attack(ref, n_corrupted, rng=7)

    def test_composition_identical(self, census_small, publications, family):
        pub = publications[family]
        other = publications["burel"]
        batch = audit.composition_attack(pub, other)
        scalar = composition_attack(
            _scalar_form(census_small, pub),
            _scalar_form(census_small, other),
        )
        assert batch == scalar


def test_naive_bayes_identical(census_small, publications):
    for family in ("burel", "sabre", "mondrian"):
        pub = publications[family]
        batch = audit.naive_bayes_attack(pub)
        scalar = scalar_attacks.naive_bayes_attack(pub)
        assert batch.accuracy == scalar.accuracy
        assert batch.majority_baseline == scalar.majority_baseline
        assert np.array_equal(batch.predictions, scalar.predictions)


def test_naive_bayes_needs_boxes(publications):
    with pytest.raises(TypeError, match="generalized"):
        audit.naive_bayes_attack(publications["anatomy"])


@pytest.mark.parametrize(
    "attack",
    [audit.naive_bayes_attack, scalar_attacks.naive_bayes_attack],
    ids=["batched", "scalar"],
)
def test_naive_bayes_memory_below_one_score_matrix(attack):
    """Memory ceiling of the audit's Naive Bayes step: scoring each of
    the 649 distinct QI tuples once must peak below one ``n × m``
    float64 matrix (7.6 MiB), the size of a single all-rows score array."""
    table = make_census(20_000, seed=7, qi_names=("Age", "Gender", "Marital"))
    published = burel(table, 3.0).published
    ceiling = table.n_rows * table.sa_cardinality * 8
    attack(published)  # warm imports and lazy module state
    tracemalloc.start()
    try:
        attack(published)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ceiling, f"peak {peak} B >= one n×m matrix ({ceiling} B)"


def test_similarity_handles_uniform_toy(patients):
    gt = publish(patients, [np.array([0, 1, 2]), np.array([3, 4, 5])])
    groups = scalar_attacks.hierarchy_groups(gt, depth=1)
    assert audit.similarity_gain(gt, groups) == (
        scalar_attacks.similarity_gain(gt, groups)
    )
    assert audit.skewness_gain(gt) == scalar_attacks.skewness_gain(gt)


def test_no_gain_single_class(patients):
    # One EC covering the table: q == p, so the report is the no-gain
    # sentinel on both paths.
    gt = publish(patients, [np.arange(6)])
    report = audit.skewness_gain(gt)
    assert report == scalar_attacks.skewness_gain(gt)
    assert report.max_gain == 1.0
    assert report.class_index == -1


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------


class TestAuditPublications:
    def test_reports_match_direct_calls(self, census_small, publications):
        reports = audit.audit_publications(
            census_small,
            publications,
            attacks=("skewness", "composition"),
            ordered_emd=True,
            compose_with="burel",
        )
        assert list(reports) == list(publications)
        for name, pub in publications.items():
            report = reports[name]
            assert report.privacy == audit.privacy_profile(
                pub, ordered_emd=True
            )
            assert report.risk == audit.risk_profile(pub)
            assert report.skewness == audit.skewness_gain(pub)
            assert report.composition == audit.composition_attack(
                pub, publications["burel"]
            )
            assert report.corruption is None
            assert report.naive_bayes is None

    def test_corruption_and_nb_through_entry_point(
        self, census_small, publications
    ):
        reports = audit.audit_publications(
            census_small,
            {"burel": publications["burel"]},
            attacks=("corruption", "naive_bayes"),
            n_corrupted=300,
            rng=11,
        )
        report = reports["burel"]
        assert report.corruption == audit.corruption_attack(
            publications["burel"], 300, rng=11
        )
        assert report.naive_bayes.accuracy == audit.naive_bayes_attack(
            publications["burel"]
        ).accuracy

    def test_definetti_through_entry_point(self, census_small, publications):
        reports = audit.audit_publications(
            census_small,
            {"anatomy": publications["anatomy"]},
            attacks=("definetti",),
            definetti_iterations=3,
        )
        report = reports["anatomy"]
        direct = definetti_attack(publications["anatomy"], max_iterations=3)
        floor = random_assignment_baseline(publications["anatomy"])
        assert report.definetti.accuracy == direct.accuracy
        assert report.definetti_baseline.accuracy == floor.accuracy

    def test_wrong_table_rejected(self, census_small, census_full_qi):
        pub = burel(census_full_qi, 2.0).published
        with pytest.raises(ValueError, match="different table"):
            audit.audit_publications(census_small, {"pub": pub})

    def test_unknown_attack_rejected(self, census_small, publications):
        with pytest.raises(ValueError, match="unknown attacks"):
            audit.audit_publications(
                census_small, publications, attacks=("mitm",)
            )

    def test_missing_attack_inputs_rejected(self, census_small, publications):
        subset = {"burel": publications["burel"]}
        with pytest.raises(ValueError, match="n_corrupted"):
            audit.audit_publications(
                census_small, subset, attacks=("corruption",)
            )
        with pytest.raises(ValueError, match="compose_with"):
            audit.audit_publications(
                census_small, subset, attacks=("composition",)
            )
        with pytest.raises(ValueError, match="similarity_groups"):
            audit.audit_publications(
                census_small, subset, attacks=("similarity",)
            )


# ----------------------------------------------------------------------
# Regression tests: the uncovered-row and rng bug classes
# ----------------------------------------------------------------------


class TestUncoveredRowRegressions:
    def test_composition_rejects_partial_coverage(self, patients, build_partial):
        # Pre-fix, rows 4 and 5 carried np.empty garbage class ids and
        # silently corrupted the pair posteriors; now the partial
        # publication cannot be built, in either argument position.
        full = publish(patients, [np.arange(3), np.arange(3, 6)])
        with pytest.raises(ValueError, match="cover 4 rows"):
            composition_attack(build_partial(), full)
        with pytest.raises(ValueError, match="cover 4 rows"):
            composition_attack(full, build_partial())

    def test_risk_vectors_reject_partial_coverage(self, build_partial):
        with pytest.raises(ValueError, match="cover 4 rows"):
            scalar_metrics.reidentification_risks(build_partial())
        with pytest.raises(ValueError, match="cover 4 rows"):
            scalar_metrics.attribute_disclosure_risks(build_partial())

    def test_definetti_rejects_partial_coverage(self, patients):
        # Classes can no longer be truncated after construction, and a
        # publication of the first class alone fails the constructor's
        # partition check before the attack sees it.
        full = publish(patients, [np.arange(3), np.arange(3, 6)])
        with pytest.raises(AttributeError):
            full.classes = full.classes[:1]
        with pytest.raises(ValueError, match="cover 3 rows"):
            definetti_attack(publish(patients, [np.arange(3)]))
        with pytest.raises(ValueError, match="cover 3 rows"):
            random_assignment_baseline(publish(patients, [np.arange(3)]))


class TestCorruptionRngContract:
    def test_rng_none_rejected(self, publications):
        pub = publications["burel"]
        with pytest.raises(TypeError, match="rng=None is ambiguous"):
            corruption_attack(pub, 10, rng=None)
        with pytest.raises(TypeError, match="rng=None is ambiguous"):
            audit.corruption_attack(pub, 10, rng=None)

    def test_default_is_documented_seed_zero(self, publications):
        pub = publications["burel"]
        default = corruption_attack(pub, 100)
        assert default == corruption_attack(pub, 100, rng=0)
        assert default == corruption_attack(
            pub, 100, rng=np.random.default_rng(0)
        )
        assert default == audit.corruption_attack(pub, 100)

    def test_generator_state_is_consumed(self, publications):
        # One generator, two draws: different samples, as an explicit
        # Generator implies.
        pub = publications["burel"]
        rng = np.random.default_rng(3)
        first = audit.corruption_attack(pub, 2_000, rng=rng)
        second = audit.corruption_attack(pub, 2_000, rng=rng)
        scalar_rng = np.random.default_rng(3)
        assert first == corruption_attack(pub, 2_000, rng=scalar_rng)
        assert second == corruption_attack(pub, 2_000, rng=scalar_rng)
