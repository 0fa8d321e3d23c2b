"""Tests for the ECTree / biSplit (§4.4), pinned to the paper's Example 2."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymity.sabre import _bucket_spans, emd_eligibility, sabre_partition
from repro.core import (
    TOLERANCE,
    BetaLikeness,
    balanced_halve,
    beta_eligibility,
    bi_split,
    build_ectree,
    dp_partition,
    naive_halve,
    separating_split,
)
from repro.core.ectree import _separating_splits
from repro.core.retrieve import HilbertRetriever
from repro.dataset.synthetic import synthetic


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

    def test_right_child_needs_companions(self):
        # ceil(10 / (0.9 * 1.2)) = 10: the quarantined bucket alone.
        counts, f_min = np.array([10, 10]), np.array([1.2, 1.5])
        assert separating_split(counts, f_min, margin=0.9) is None
        # ceil(10 / (0.9 * 1.1)) = 11: one companion tuple.
        left, right = separating_split(counts, np.array([1.1, 1.5]), margin=0.9)
        assert right.tolist() == [10, 1] and left.tolist() == [0, 9]


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
        """The root (19 tuples) splits, and one spec per leaf is kept."""
        eligible = beta_eligibility(example2_partition.f_min)
        tree = build_ectree(
            [5, 6, 8], eligible, f_min=example2_partition.f_min
        )
        assert int(np.sum(tree.specs)) == 19
        assert tree.n_classes > 1
        assert tree.n_classes == len(tree.specs)

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


# ----------------------------------------------------------------------
# Oracle: the node-by-node recursive builder the level pass replaced
# ----------------------------------------------------------------------


def _beta_rule_1d(f_min):
    """One node at a time, Theorem 1's cap test."""
    limit = np.asarray(f_min, dtype=float) + TOLERANCE

    def eligible(counts, size):
        return size > 0 and bool((counts / size <= limit).all())

    return eligible


def _emd_rule_1d(partition, t, ordered, m):
    """One node at a time, SABRE's worst-case EMD with 1-D sums."""
    min_freq = np.asarray(partition.min_freq, dtype=float)
    weights = np.asarray(partition.weights, dtype=float)
    spans = _bucket_spans(partition.buckets, m)

    def eligible(counts, size):
        if size <= 0:
            return False
        shares = counts / size
        if ordered:
            worst = (shares * spans).sum()
            worst += np.maximum(shares - weights, 0.0).sum()
        else:
            worst = np.maximum(shares - min_freq, 0.0).sum()
        return bool(worst <= t + TOLERANCE)

    return eligible


def _separating_split_1d(counts, f_min, margin=0.5):
    """One node at a time, the separating split as first written."""
    size = int(counts.sum())
    occupied = np.nonzero(counts)[0]
    if occupied.size < 2:
        return None
    target = occupied[np.argmin(f_min[occupied])]
    c_star = int(counts[target])
    size_right = int(np.ceil(c_star / (margin * f_min[target])))
    if size_right >= size or size_right <= c_star:
        return None
    others = counts.astype(float)
    others[target] = 0.0
    pad_total = size_right - c_star
    raw = others * (pad_total / others.sum())
    pad = np.floor(raw).astype(np.int64)
    deficit = pad_total - int(pad.sum())
    if deficit > 0:
        for j in np.argsort(-(raw - np.floor(raw)), kind="stable"):
            if deficit == 0:
                break
            if counts[j] - pad[j] > 0 and j != target:
                pad[j] += 1
                deficit -= 1
    if deficit != 0:
        return None
    pad[target] = c_star
    left = counts - pad
    return None if int(left.sum()) == 0 else (left, pad)


def _recursive_specs(sizes, eligible, f_min, balanced, separate):
    """biSplit node by node: halve, else separate, else keep the leaf;
    leaves in depth-first, left-first order."""

    def candidates(counts):
        if balanced:
            yield _balanced_halve_loop(counts, f_min)
        else:
            yield counts // 2, counts - counts // 2
        if separate:
            parts = _separating_split_1d(counts, np.asarray(f_min, dtype=float))
            if parts is not None:
                yield parts

    def leaves(counts):
        for left, right in candidates(counts):
            left_size, right_size = int(left.sum()), int(right.sum())
            if (
                left_size > 0
                and right_size > 0
                and eligible(left, left_size)
                and eligible(right, right_size)
            ):
                return leaves(left) + leaves(right)
        return [counts]

    return leaves(np.asarray(sizes, dtype=np.int64))


def _assert_tree_matches_oracle(sizes, eligible, rule_1d, f_min, **split):
    sizes = np.asarray(sizes, dtype=np.int64)
    if not rule_1d(sizes, int(sizes.sum())):
        with pytest.raises(ValueError, match="Lemma 2"):
            build_ectree(sizes, eligible, f_min=f_min, **split)
        return
    specs = build_ectree(sizes, eligible, f_min=f_min, **split).specs
    expected = _recursive_specs(sizes, rule_1d, f_min, **split)
    assert len(specs) == len(expected)
    for got, want in zip(specs, expected):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def _generated_sizes(data, n_values):
    """Per-value tuple counts (0..500, positive total), an SA
    distribution from them, and optionally per-value drift so the
    bucket sizes stray from that distribution."""
    counts = np.array(
        data.draw(
            st.lists(st.integers(0, 500), min_size=n_values, max_size=n_values)
        ),
        dtype=np.int64,
    )
    if counts.sum() == 0:
        counts[0] = 1
    drift = np.array(
        data.draw(
            st.lists(st.integers(-3, 3), min_size=n_values, max_size=n_values)
            | st.just([0] * n_values)
        ),
        dtype=np.int64,
    )
    return counts, np.maximum(counts + drift, 0)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_separating_split_matches_one_node_oracle(data):
    """The array-pass sizing plus per-row padding splits a node exactly
    as the one-node original does, both on a single node and on rows of
    a level matrix."""
    k = data.draw(st.integers(1, 12))
    rows = data.draw(st.integers(1, 6))
    counts = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 500), min_size=k, max_size=k),
                min_size=rows, max_size=rows,
            )
        ),
        dtype=np.int64,
    )
    f_min = np.array(
        data.draw(
            st.lists(
                st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 1.0])
                | st.floats(0.005, 2.0),
                min_size=k, max_size=k,
            )
        )
    )
    margin = data.draw(st.sampled_from([0.5, 0.25, 0.9]))
    rows, left, right = _separating_splits(counts, f_min, margin)
    level = dict(zip(rows.tolist(), zip(left, right)))
    for i, row in enumerate(counts):
        want = _separating_split_1d(row, f_min, margin)
        for got in (separating_split(row, f_min, margin), level.get(i)):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])


def _bucket_sizes(partition, value_counts):
    return np.array(
        [int(value_counts[b].sum()) for b in partition.buckets], dtype=np.int64
    )


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_level_pass_matches_recursive_builder(data):
    """β caps from DPpartition, φ from 1 to 12, every split variant."""
    n_values = data.draw(st.integers(1, 12))
    counts, drifted = _generated_sizes(data, n_values)
    model = BetaLikeness(
        data.draw(st.sampled_from([0.5, 1.0, 2.0, 5.0])),
        enhanced=data.draw(st.booleans()),
    )
    partition = dp_partition(counts / counts.sum(), model, margin=0.5)
    sizes = _bucket_sizes(partition, drifted)
    if sizes.sum() == 0:
        return
    _assert_tree_matches_oracle(
        sizes,
        beta_eligibility(partition.f_min),
        _beta_rule_1d(partition.f_min),
        partition.f_min,
        balanced=data.draw(st.booleans()),
        separate=data.draw(st.booleans()),
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_level_pass_matches_recursive_builder_sabre(data):
    """SABRE's batched EMD test flips no decision of its 1-D form."""
    n_values = data.draw(st.integers(2, 12))
    counts, drifted = _generated_sizes(data, n_values)
    t = data.draw(st.floats(0.02, 0.6))
    ordered = data.draw(st.booleans())
    try:
        partition = sabre_partition(counts / counts.sum(), t, ordered=ordered)
    except ValueError:
        return  # no bucketization fits t
    sizes = _bucket_sizes(partition, drifted)
    if sizes.sum() == 0:
        return
    _assert_tree_matches_oracle(
        sizes,
        emd_eligibility(partition, t, ordered, n_values),
        _emd_rule_1d(partition, t, ordered, n_values),
        partition.f_min,
        balanced=True,
        separate=True,
    )


@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("separate", [True, False])
def test_level_pass_matches_recursive_builder_on_census(
    census_small, balanced, separate
):
    """A deep tree: 10K CENSUS rows over 50 SA values at β=1."""
    partition = dp_partition(
        census_small.sa_distribution(), BetaLikeness(1.0), margin=0.5
    )
    value_counts = np.bincount(census_small.sa, minlength=50)
    _assert_tree_matches_oracle(
        _bucket_sizes(partition, value_counts),
        beta_eligibility(partition.f_min),
        _beta_rule_1d(partition.f_min),
        partition.f_min,
        balanced=balanced,
        separate=separate,
    )


@pytest.mark.parametrize("ordered", [False, True])
def test_batched_eligibility_matches_one_node_calls(census_small, ordered):
    """A level matrix gets the verdicts its rows get one at a time, and
    SABRE's batched test those of its 1-D form, on near-proportional
    rows that sit on both sides of ``t``."""
    partition = sabre_partition(census_small.sa_distribution(), 0.15, ordered)
    rng = np.random.default_rng(3)
    sizes = rng.integers(20, 2000, size=400)
    counts = np.floor(np.outer(sizes, partition.weights)).astype(np.int64)
    counts += rng.integers(0, 2, size=counts.shape)
    counts[:5] = 0
    sizes = counts.sum(axis=1)
    rule = _emd_rule_1d(partition, 0.15, ordered, 50)
    expected = [rule(row, int(size)) for row, size in zip(counts, sizes)]
    assert 0 < sum(expected) < len(expected) - 5
    for eligible in (
        emd_eligibility(partition, 0.15, ordered, 50),
        beta_eligibility(partition.f_min),
    ):
        verdicts = eligible(counts, sizes)
        assert verdicts.dtype == bool and verdicts.shape == (400,)
        assert verdicts.tolist() == [
            eligible(row, int(size)) for row, size in zip(counts, sizes)
        ]
    assert verdicts[:5].tolist() == [False] * 5
    emd = emd_eligibility(partition, 0.15, ordered, 50)
    assert emd(counts, sizes).tolist() == expected


def test_balanced_halve_takes_a_level_matrix(rng):
    """A (K, φ) input halves each row as a 1-D call would."""
    counts = rng.integers(0, 9, size=(50, 7))
    caps = rng.choice([0.05, 0.1, 0.25, 1.0], size=7)
    for f_min in (None, caps):
        left, right = balanced_halve(counts, f_min)
        for row, l_row, r_row in zip(counts, left, right):
            ref_left, ref_right = _balanced_halve_loop(row, f_min)
            assert np.array_equal(l_row, ref_left)
            assert np.array_equal(r_row, ref_right)


def test_build_ectree_memory_ceiling():
    """tracemalloc peak of the level pass on 20K synthetic rows over 32
    buckets (β=2, 525 ECs): 34.0 B per row measured, ceiling 40.  The
    node-by-node builder it replaced peaked at 24.9 B per row while
    keeping every node; the level pass keeps only the leaves (10 B per
    row) and peaks on one level's count matrices."""
    table = synthetic(20_000, qi_dims=3, sa_cardinality=32, skew=0.8, seed=7)
    partition = dp_partition(
        table.sa_distribution(), BetaLikeness(2.0), margin=0.5
    )
    sizes = HilbertRetriever(table, partition).bucket_sizes()
    eligible = beta_eligibility(partition.f_min)
    tracemalloc.start()
    try:
        tree = build_ectree(sizes, eligible, f_min=partition.f_min)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n_classes == 525
    assert peak <= 40 * table.n_rows
