"""Tests for the ECTree / biSplit (§4.4), pinned to the paper's Example 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BetaLikeness,
    balanced_halve,
    beta_eligibility,
    bi_split,
    build_ectree,
    dp_partition,
    naive_halve,
    separating_split,
)


@pytest.fixture()
def example2_partition(example2):
    model = BetaLikeness(2.0)
    return dp_partition(example2.sa_distribution(), model)


class TestExample2Tree:
    """Figure 3's tree: [5,6,8] -> [2,3,4],[3,3,4]; [2,3,4] -> [1,1,2],[1,2,2]."""

    def test_leaf_specs_match_paper(self, example2_partition):
        specs = bi_split(
            example2_partition,
            beta_eligibility(example2_partition.f_min),
            bucket_sizes=[5, 6, 8],
        )
        assert sorted(s.tolist() for s in specs) == [
            [1, 1, 2],
            [1, 2, 2],
            [3, 3, 4],
        ]

    def test_paper_rejected_split(self, example2_partition):
        """g2 = [2,2,2] fails eligibility: 2/6 > min(f(p1), f(p2))."""
        eligible = beta_eligibility(example2_partition.f_min)
        assert not eligible(np.array([2, 2, 2]), 6)
        assert eligible(np.array([1, 1, 2]), 4)

    def test_naive_split_also_matches_example2(self, example2_partition):
        specs = bi_split(
            example2_partition,
            beta_eligibility(example2_partition.f_min),
            bucket_sizes=[5, 6, 8],
            balanced=False,
            separate=False,
        )
        assert sorted(s.tolist() for s in specs) == [
            [1, 1, 2],
            [1, 2, 2],
            [3, 3, 4],
        ]


class TestHalving:
    def test_naive_halve_floor_left(self):
        left, right = naive_halve(np.array([5, 6, 8]))
        assert left.tolist() == [2, 3, 4]
        assert right.tolist() == [3, 3, 4]

    def test_balanced_halve_preserves_totals(self, rng):
        for _ in range(20):
            counts = rng.integers(0, 30, size=6)
            if counts.sum() == 0:
                continue
            left, right = balanced_halve(counts)
            assert np.array_equal(left + right, counts)
            assert abs(int(left.sum()) - int(right.sum())) <= 1

    def test_balanced_halve_per_bucket_floor_ceil(self, rng):
        counts = rng.integers(0, 30, size=8)
        left, right = balanced_halve(counts)
        for c, l in zip(counts, left):
            assert l in (c // 2, c - c // 2)

    def test_balanced_matches_paper_on_example2_root(self):
        left, right = balanced_halve(np.array([5, 6, 8]))
        assert left.tolist() == [2, 3, 4]
        assert right.tolist() == [3, 3, 4]


class TestSeparatingSplit:
    def test_preserves_totals(self):
        counts = np.array([100, 300, 600])
        f_min = np.array([0.25, 0.5, 0.9])
        parts = separating_split(counts, f_min)
        assert parts is not None
        left, right = parts
        assert np.array_equal(left + right, counts)

    def test_quarantines_lowest_cap_bucket(self):
        counts = np.array([100, 300, 600])
        f_min = np.array([0.25, 0.5, 0.9])
        left, right = separating_split(counts, f_min)
        assert left[0] == 0  # constrained bucket fully on the right
        assert right[0] == 100
        # The quarantined share sits at half its cap.
        assert right[0] / right.sum() <= 0.5 * 0.25 + 1e-9

    def test_returns_none_when_impossible(self):
        # Quarantined bucket needs more companions than the node holds:
        # 50/(0.5*0.01) = 10000 >> 60.
        counts = np.array([50, 10])
        f_min = np.array([0.01, 0.9])
        assert separating_split(counts, f_min) is None

    def test_single_bucket_none(self):
        assert separating_split(np.array([10]), np.array([0.5])) is None


class TestBuildTree:
    def test_specs_cover_bucket_sizes(self, example2_partition):
        eligible = beta_eligibility(example2_partition.f_min)
        tree = build_ectree(
            [5, 6, 8], eligible, f_min=example2_partition.f_min
        )
        total = np.sum(tree.specs, axis=0)
        assert total.tolist() == [5, 6, 8]

    def test_all_leaves_eligible(self, example2_partition):
        eligible = beta_eligibility(example2_partition.f_min)
        tree = build_ectree(
            [5, 6, 8], eligible, f_min=example2_partition.f_min
        )
        for spec in tree.specs:
            assert eligible(spec, int(spec.sum()))

    def test_root_violation_rejected(self):
        eligible = beta_eligibility(np.array([0.01]))
        with pytest.raises(ValueError, match="Lemma 2"):
            build_ectree([10], eligible, f_min=np.array([0.01]))

    def test_empty_sizes_rejected(self):
        eligible = beta_eligibility(np.array([1.0]))
        with pytest.raises(ValueError):
            build_ectree([], eligible, f_min=np.array([]))
        with pytest.raises(ValueError):
            build_ectree([0, 0], eligible, f_min=np.array([1.0, 1.0]))

    def test_node_structure(self, example2_partition):
        eligible = beta_eligibility(example2_partition.f_min)
        tree = build_ectree(
            [5, 6, 8], eligible, f_min=example2_partition.f_min
        )
        assert tree.root.size == 19
        assert not tree.root.is_leaf
        assert tree.n_classes == len(tree.root.leaves())

    def test_bi_split_requires_sizes(self, example2_partition):
        with pytest.raises(ValueError, match="bucket_sizes"):
            bi_split(example2_partition)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tree_conservation_property(data):
    """Leaf specs always sum to the root sizes and pass eligibility."""
    k = data.draw(st.integers(min_value=1, max_value=6))
    sizes = data.draw(st.lists(st.integers(0, 200), min_size=k, max_size=k))
    if sum(sizes) == 0:
        return
    # Loose caps so the root is always eligible.
    f_min = np.full(k, 1.0)
    eligible = beta_eligibility(f_min)
    tree = build_ectree(sizes, eligible, f_min=f_min)
    assert np.array_equal(np.sum(tree.specs, axis=0), np.array(sizes))
    for spec in tree.specs:
        assert int(spec.sum()) > 0


# ----------------------------------------------------------------------
# Oracle: balanced_halve as a per-bucket remainder loop
# ----------------------------------------------------------------------


def _balanced_halve_loop(counts, f_min=None):
    """Reference ``balanced_halve``: one odd bucket at a time, each extra
    to the child whose share stays lower."""
    counts = np.asarray(counts, dtype=np.int64)
    floors = counts // 2
    odd = np.nonzero(counts - 2 * floors)[0]
    total = int(counts.sum())
    size_left = total // 2
    quota_left = size_left - int(floors.sum())
    size_right = total - size_left

    left = floors.copy()
    right = floors.copy()
    if f_min is not None:
        caps = np.asarray(f_min, dtype=float)
        odd = odd[np.argsort(caps[odd], kind="stable")]
    remaining_left = quota_left
    remaining_right = odd.size - quota_left
    for j in odd:
        share_left = (floors[j] + 1) / size_left if size_left else np.inf
        share_right = (floors[j] + 1) / size_right if size_right else np.inf
        prefer_left = share_left < share_right
        if (prefer_left and remaining_left > 0) or remaining_right == 0:
            left[j] += 1
            remaining_left -= 1
        else:
            right[j] += 1
            remaining_right -= 1
    return left, right


def _assert_halves_equal(counts, f_min):
    left, right = balanced_halve(counts, f_min)
    ref_left, ref_right = _balanced_halve_loop(counts, f_min)
    assert left.dtype == ref_left.dtype and right.dtype == ref_right.dtype
    assert np.array_equal(left, ref_left)
    assert np.array_equal(right, ref_right)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_balanced_halve_matches_loop_oracle(data):
    """Slice assignment equals the loop, with tied caps and no caps."""
    k = data.draw(st.integers(min_value=1, max_value=12))
    counts = data.draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
    # Few distinct cap values, so ties are common.
    caps = data.draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.05, 0.1, 0.25, 1.0]),
                min_size=k, max_size=k,
            ),
        )
    )
    _assert_halves_equal(np.array(counts), caps)


@pytest.mark.parametrize("f_min", [None, [0.5, 0.5, 0.5], [0.9, 0.1, 0.1]])
@pytest.mark.parametrize(
    "counts", [[1, 0, 0], [0, 0, 1], [1, 1, 0], [0, 2, 0], [1, 0, 1]]
)
def test_balanced_halve_matches_loop_at_totals_one_and_two(counts, f_min):
    _assert_halves_equal(np.array(counts), f_min)
