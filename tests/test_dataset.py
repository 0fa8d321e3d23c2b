"""Unit tests for schemas, tables and publication containers."""

import numpy as np
import pytest

from repro.dataset import (
    Attribute,
    AttributeKind,
    Schema,
    SensitiveAttribute,
    Table,
    box_of_rows,
    make_census,
    make_equivalence_class,
    publish,
)
from repro.anonymity.anatomy import AnatomyTable
from repro.dataset.published import GeneralizedTable, concat_groups
from repro.hierarchy import Hierarchy


def tiny_schema():
    h = Hierarchy.from_spec(("root", [("g1", ["a", "b"]), ("g2", ["c", "d"])]))
    return Schema(
        [Attribute.numerical("x", 0, 9), Attribute.categorical("cat", h)],
        SensitiveAttribute("s", ("s0", "s1", "s2")),
    )


def tiny_table():
    schema = tiny_schema()
    qi = np.array([[0, 0], [1, 1], [5, 2], [9, 3], [4, 0], [6, 1]])
    sa = np.array([0, 1, 2, 0, 1, 2])
    return Table(schema, qi, sa)


class TestAttribute:
    def test_numerical_domain(self):
        a = Attribute.numerical("age", 17, 95)
        assert a.cardinality == 79
        assert a.width == 78

    def test_categorical_requires_hierarchy(self):
        with pytest.raises(ValueError, match="hierarchy"):
            Attribute("c", AttributeKind.CATEGORICAL, 0, 1)

    def test_categorical_domain_must_match_leaves(self):
        h = Hierarchy.flat(["a", "b", "c"])
        with pytest.raises(ValueError, match="leaf ranks"):
            Attribute("c", AttributeKind.CATEGORICAL, 0, 5, h)

    def test_numerical_with_hierarchy_rejected(self):
        h = Hierarchy.flat(["a", "b"])
        with pytest.raises(ValueError):
            Attribute("n", AttributeKind.NUMERICAL, 0, 1, h)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Attribute.numerical("n", 5, 4)


class TestSensitiveAttribute:
    def test_code_lookup(self):
        sa = SensitiveAttribute("d", ("flu", "hiv"))
        assert sa.code_of("hiv") == 1
        assert sa.cardinality == 2

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            SensitiveAttribute("d", ("a", "a"))

    def test_hierarchy_must_cover_values(self):
        h = Hierarchy.flat(["flu"])
        with pytest.raises(ValueError, match="missing"):
            SensitiveAttribute("d", ("flu", "hiv"), hierarchy=h)


class TestSchema:
    def test_qi_index(self):
        s = tiny_schema()
        assert s.qi_index("x") == 0
        assert s.qi_index("cat") == 1

    def test_project(self):
        s = tiny_schema().project(["cat"])
        assert s.n_qi == 1
        assert s.qi[0].name == "cat"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(
                [Attribute.numerical("x", 0, 1)],
                SensitiveAttribute("x", ("a",)),
            )

    def test_empty_qi_rejected(self):
        with pytest.raises(ValueError):
            Schema([], SensitiveAttribute("s", ("a",)))


class TestTable:
    def test_counts_and_distribution(self):
        t = tiny_table()
        assert t.n_rows == 6
        assert t.sa_counts().tolist() == [2, 2, 2]
        assert np.allclose(t.sa_distribution(), [1 / 3] * 3)

    def test_domain_validation(self):
        schema = tiny_schema()
        with pytest.raises(ValueError, match="outside"):
            Table(schema, np.array([[10, 0]]), np.array([0]))
        with pytest.raises(ValueError, match="sa codes"):
            Table(schema, np.array([[0, 0]]), np.array([7]))

    def test_subset(self):
        t = tiny_table()
        sub = t.subset(np.array([0, 2]))
        assert sub.n_rows == 2
        assert sub.sa.tolist() == [0, 2]

    def test_project_keeps_sa(self):
        t = tiny_table()
        p = t.project(["cat"])
        assert p.schema.n_qi == 1
        assert np.array_equal(p.sa, t.sa)

    def test_sample(self, rng):
        t = tiny_table()
        s = t.sample(3, rng)
        assert s.n_rows == 3
        with pytest.raises(ValueError):
            t.sample(7, rng)

    def test_empty_distribution_raises(self):
        schema = tiny_schema()
        t = Table(schema, np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            t.sa_distribution()


class TestPublication:
    def test_box_of_rows_numerical_minmax(self):
        t = tiny_table()
        box = box_of_rows(t, np.array([0, 2]))
        assert box[0] == (0, 5)

    def test_box_of_rows_categorical_snaps_to_lca(self):
        t = tiny_table()
        # cat values 0 and 1 live under g1 -> span (0, 1)
        box = box_of_rows(t, np.array([0, 1]))
        assert box[1] == (0, 1)
        # cat values 1 and 2 straddle groups -> root span (0, 3)
        box = box_of_rows(t, np.array([1, 2]))
        assert box[1] == (0, 3)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            box_of_rows(tiny_table(), np.array([], dtype=np.int64))

    def test_equivalence_class_counts(self):
        t = tiny_table()
        ec = make_equivalence_class(t, np.array([0, 1, 2]))
        assert ec.size == 3
        assert ec.sa_counts.tolist() == [1, 1, 1]
        assert ec.n_distinct_sa() == 3
        assert np.allclose(ec.sa_distribution(), [1 / 3] * 3)

    def test_publish_requires_full_coverage(self):
        t = tiny_table()
        with pytest.raises(ValueError, match="cover"):
            publish(t, [np.array([0, 1])])

    def test_publish_roundtrip(self):
        t = tiny_table()
        gt = publish(t, [np.array([0, 1, 2]), np.array([3, 4, 5])])
        assert len(gt) == 2
        assert gt.n_rows == 6
        assert np.allclose(gt.global_distribution(), [1 / 3] * 3)


# ----------------------------------------------------------------------
# publish() against make_equivalence_class per EC; the partition check
# ----------------------------------------------------------------------


def _random_groups(rng, n, n_groups):
    """A random partition of ``range(n)`` into non-empty groups."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), n_groups - 1, replace=False))
    return np.split(order, cuts)


class TestPublishOracle:
    @pytest.mark.parametrize("n_groups", [1, 7, 300])
    def test_matches_per_class_construction(self, n_groups, rng):
        """Census carries three categorical QIs, so LCA widening runs."""
        table = make_census(2_000, seed=3)
        kinds = {attr.kind for attr in table.schema.qi}
        assert AttributeKind.CATEGORICAL in kinds
        groups = _random_groups(rng, table.n_rows, n_groups)
        published = publish(table, groups)
        assert len(published) == n_groups
        for ec, rows in zip(published, groups):
            ref = make_equivalence_class(table, rows)
            assert ec.rows.dtype == ref.rows.dtype
            assert np.array_equal(ec.rows, ref.rows)
            assert ec.box == ref.box
            assert all(type(v) is int for pair in ec.box for v in pair)
            assert ec.sa_counts.dtype == ref.sa_counts.dtype
            assert np.array_equal(ec.sa_counts, ref.sa_counts)

    def test_singleton_classes(self):
        t = tiny_table()
        published = publish(t, [np.array([i]) for i in range(t.n_rows)])
        for i, ec in enumerate(published):
            assert ec.box == box_of_rows(t, np.array([i]))

    def test_empty_group_rejected(self):
        t = tiny_table()
        with pytest.raises(ValueError, match="empty"):
            publish(t, [np.arange(6), np.array([], dtype=np.int64)])


class TestPartitionCheck:
    """The columnar constructor accepts exactly the partitions of its
    source rows.  Both group-based kinds share it: this class checks
    ``GeneralizedTable``, :class:`TestAnatomyPartitionCheck` reruns every
    case on ``AnatomyTable``."""

    @pytest.fixture(scope="class")
    def table(self):
        return make_census(100, seed=7)

    @staticmethod
    def build(table, groups):
        rows, offsets = concat_groups([np.asarray(g) for g in groups])
        boxes = np.zeros((len(groups), table.schema.n_qi, 2), dtype=np.int64)
        return GeneralizedTable(table, rows, offsets, boxes)

    def test_valid_partition_accepted(self, table, rng):
        groups = _random_groups(rng, 100, 9)
        published = self.build(table, groups)
        assert len(published) == 9
        assert np.array_equal(
            published.sa_counts.sum(axis=1), [g.shape[0] for g in groups]
        )
        for g, rows in enumerate(groups):
            assert np.all(published.class_of[rows] == g)

    def test_out_of_range_row_rejected(self, table):
        # Row 150 stands in for row 99: 100 rows, none repeated.
        with pytest.raises(ValueError, match="lie in"):
            self.build(table, [np.arange(99), np.array([150])])

    def test_negative_row_rejected(self, table):
        # Row -1 would wrap around to row 99 under numpy indexing.
        groups = [np.arange(50), np.concatenate([[-1], np.arange(50, 99)])]
        with pytest.raises(ValueError, match="lie in"):
            self.build(table, groups)

    def test_duplicated_row_rejected(self, table):
        groups = [np.arange(50), np.arange(49, 99)]
        with pytest.raises(ValueError, match="partition"):
            self.build(table, groups)

    def test_uncovered_row_rejected(self, table):
        with pytest.raises(ValueError, match="cover 99 rows"):
            self.build(table, [np.arange(50), np.arange(50, 99)])

    def test_shared_rows_rejected(self, table):
        # 110 memberships over 100 rows: two groups share rows 50..59.
        with pytest.raises(ValueError, match="cover 110 rows"):
            self.build(table, [np.arange(60), np.arange(50, 100)])

    def test_empty_group_rejected(self, table):
        with pytest.raises(ValueError, match="non-empty"):
            self.build(table, [np.arange(100), np.array([], dtype=np.int64)])

    def test_records_are_read_only_views(self, table, rng):
        published = self.build(table, _random_groups(rng, 100, 4))
        records = published.groups if hasattr(published, "groups") else (
            published.classes
        )
        assert len(records) == 4
        with pytest.raises(AttributeError):
            records[0].rows = np.arange(3)
        assert np.array_equal(records[-1].rows, published.group_rows(3))
        assert [r.size for r in records[1:3]] == published.sizes[1:3].tolist()


class TestAnatomyPartitionCheck(TestPartitionCheck):
    """Every partition case above, on ``AnatomyTable``."""

    @staticmethod
    def build(table, groups):
        rows, offsets = concat_groups([np.asarray(g) for g in groups])
        return AnatomyTable(table, rows, offsets, l=2)
