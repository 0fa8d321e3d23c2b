"""Tests for EC materialization (§4.5)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BetaLikeness,
    HilbertRetriever,
    RandomRetriever,
    beta_eligibility,
    bi_split,
    dp_partition,
)
from repro.core.retrieve import qi_space_keys
from repro.dataset import make_census
from repro.dataset.synthetic import synthetic


@pytest.fixture()
def census_setup(census_small):
    model = BetaLikeness(3.0)
    partition = dp_partition(census_small.sa_distribution(), model, margin=0.5)
    return census_small, partition


class TestQiSpaceKeys:
    def test_one_key_per_row(self, census_small):
        keys = qi_space_keys(census_small)
        assert keys.shape == (census_small.n_rows,)

    def test_identical_tuples_share_keys(self, census_small):
        keys = qi_space_keys(census_small)
        qi = census_small.qi
        same = np.nonzero((qi == qi[0]).all(axis=1))[0]
        assert len(set(keys[same].tolist())) == 1


class TestHilbertRetriever:
    def test_bucket_sizes_match_table(self, census_setup):
        table, partition = census_setup
        retr = HilbertRetriever(table, partition)
        assert int(retr.bucket_sizes().sum()) == table.n_rows

    def test_materialize_partitions_rows(self, census_setup):
        table, partition = census_setup
        retr = HilbertRetriever(table, partition)
        specs = bi_split(
            partition,
            beta_eligibility(partition.f_min),
            bucket_sizes=retr.bucket_sizes(),
        )
        groups = retr.materialize(specs)
        all_rows = np.concatenate(groups)
        assert len(all_rows) == table.n_rows
        assert len(np.unique(all_rows)) == table.n_rows

    def test_groups_match_specs(self, census_setup):
        table, partition = census_setup
        retr = HilbertRetriever(table, partition)
        specs = bi_split(
            partition,
            beta_eligibility(partition.f_min),
            bucket_sizes=retr.bucket_sizes(),
        )
        groups = retr.materialize(specs)
        bucket_of = partition.bucket_of_value()
        for spec, rows in zip(specs, groups):
            got = np.zeros(len(partition), dtype=np.int64)
            for r in rows:
                got[bucket_of[int(table.sa[r])]] += 1
            assert np.array_equal(got, spec)

    def test_wrong_spec_totals_rejected(self, census_setup):
        table, partition = census_setup
        retr = HilbertRetriever(table, partition)
        bad = [np.ones(len(partition), dtype=np.int64)]
        with pytest.raises(ValueError, match="consume each bucket"):
            retr.materialize(bad)

    def test_deterministic_without_rng(self, census_setup):
        table, partition = census_setup
        specs = None
        outs = []
        for _ in range(2):
            retr = HilbertRetriever(table, partition)
            if specs is None:
                specs = bi_split(
                    partition,
                    beta_eligibility(partition.f_min),
                    bucket_sizes=retr.bucket_sizes(),
                )
            outs.append(retr.materialize(specs))
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(np.sort(a), np.sort(b))

    def test_locality_beats_random(self, census_setup):
        """The Hilbert heuristic must yield tighter boxes than random
        draws — the §4.5 design goal and our ablation axis."""
        from repro.dataset.published import publish
        from repro.metrics import average_information_loss

        table, partition = census_setup
        retr_h = HilbertRetriever(table, partition)
        specs = bi_split(
            partition,
            beta_eligibility(partition.f_min),
            bucket_sizes=retr_h.bucket_sizes(),
        )
        ail_h = average_information_loss(
            publish(table, retr_h.materialize(specs))
        )
        retr_r = RandomRetriever(
            table, partition, rng=np.random.default_rng(0)
        )
        ail_r = average_information_loss(
            publish(table, retr_r.materialize(specs))
        )
        assert ail_h < ail_r


class TestAliveOrder:
    def test_left_right_symmetry(self):
        from repro.core.retrieve import _AliveOrder

        order = _AliveOrder(5)
        assert order.find_left(4) == 4
        assert order.find_right(0) == 0
        order.kill(2)
        assert order.find_left(2) == 1
        assert order.find_right(2) == 3
        order.kill(1)
        order.kill(3)
        assert order.find_left(3) == 0
        assert order.find_right(1) == 4
        order.kill(0)
        assert order.find_left(3) == -1
        order.kill(4)
        assert order.find_right(0) == 5
        assert order.alive == 0

    def test_random_seeded_retrieval_partitions_exactly(self, census_setup):
        """Regression: random seeds used to exhaust the right frontier
        and silently duplicate ``rows[-1]``."""
        table, partition = census_setup
        retr = HilbertRetriever(
            table, partition, rng=np.random.default_rng(99)
        )
        specs = bi_split(
            partition,
            beta_eligibility(partition.f_min),
            bucket_sizes=retr.bucket_sizes(),
        )
        groups = retr.materialize(specs)
        rows = np.concatenate(groups)
        assert len(rows) == table.n_rows
        assert len(np.unique(rows)) == table.n_rows


class TestRandomRetriever:
    def test_partitions_rows(self, census_setup):
        table, partition = census_setup
        retr = RandomRetriever(table, partition, rng=np.random.default_rng(5))
        specs = bi_split(
            partition,
            beta_eligibility(partition.f_min),
            bucket_sizes=retr.bucket_sizes(),
        )
        groups = retr.materialize(specs)
        rows = np.concatenate(groups)
        assert len(np.unique(rows)) == table.n_rows

    def test_exhaustion_detected(self, census_setup):
        table, partition = census_setup
        retr = RandomRetriever(table, partition)
        huge = [retr.bucket_sizes() + 1]
        with pytest.raises(ValueError, match="exhausted"):
            retr.materialize(huge)


# ----------------------------------------------------------------------
# Seeded retrieval against the scalar oracle on generated inputs
# ----------------------------------------------------------------------


def _assert_seeded_matches_scalar(table, partition, specs, seed):
    fast = HilbertRetriever(table, partition, rng=np.random.default_rng(seed))
    slow = HilbertRetriever(
        table, partition, rng=np.random.default_rng(seed), vectorized=False
    )
    got, want = fast.materialize(specs), slow.materialize(specs)
    assert len(got) == len(want) == len(specs)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def _random_specs(sizes, rng, mode):
    """Specs consuming every bucket exactly: each tuple to a random EC
    (``mixed``), or each EC from a single bucket (``single``)."""
    if mode == "single":
        specs = []
        for j, size in enumerate(sizes):
            cuts = np.sort(rng.integers(0, size + 1, size=rng.integers(0, 4)))
            for piece in np.diff(np.concatenate([[0], cuts, [size]])):
                if piece:
                    spec = np.zeros(len(sizes), dtype=np.int64)
                    spec[j] = piece
                    specs.append(spec)
        rng.shuffle(specs)
        return specs
    n_ecs = int(rng.integers(1, 25))
    matrix = np.stack(
        [np.bincount(rng.integers(0, n_ecs, size=s), minlength=n_ecs) for s in sizes],
        axis=1,
    )
    return list(matrix[matrix.sum(axis=1) > 0])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_seeded_matches_scalar_on_generated_tables(data):
    """Tiny QI domains (equal keys are common), empty buckets, specs
    from the ECTree, from random splits and from single buckets."""
    table = synthetic(
        data.draw(st.integers(40, 600)),
        qi_dims=data.draw(st.integers(1, 3)),
        sa_cardinality=data.draw(st.integers(2, 10)),
        skew=data.draw(st.sampled_from([0.0, 0.8, 1.5])),
        seed=data.draw(st.integers(0, 2**16)),
        qi_domain=data.draw(st.integers(2, 6)),
    )
    partition = dp_partition(
        table.sa_distribution(),
        BetaLikeness(data.draw(st.sampled_from([1.0, 2.0, 5.0]))),
        margin=0.5,
    )
    if len(partition) > 1 and data.draw(st.booleans()):
        # Drop one bucket's rows: its store is empty, every spec skips it.
        gone = partition.buckets[data.draw(st.integers(0, len(partition) - 1))]
        table = table.subset(np.nonzero(~np.isin(table.sa, gone))[0])
    sizes = HilbertRetriever(table, partition).bucket_sizes()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    mode = data.draw(st.sampled_from(["tree", "mixed", "single"]))
    if mode == "tree":
        try:
            specs = bi_split(partition, bucket_sizes=sizes)
        except ValueError:  # the dropped bucket broke Lemma 2's root
            specs = _random_specs(sizes, rng, "mixed")
    else:
        specs = _random_specs(sizes, rng, mode)
    for seed in data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3)):
        _assert_seeded_matches_scalar(table, partition, specs, seed)


def test_seeded_matches_scalar_at_refresh_shape():
    """A scaled-down refresh shard: 32 skewed SA values, β=2, rng 17."""
    table = synthetic(
        6_000, qi_dims=3, sa_cardinality=32, skew=0.8, qi_domain=512, seed=1
    )
    partition = dp_partition(
        table.sa_distribution(), BetaLikeness(2.0), margin=0.5
    )
    specs = bi_split(
        partition, bucket_sizes=HilbertRetriever(table, partition).bucket_sizes()
    )
    _assert_seeded_matches_scalar(table, partition, specs, 17)


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("rng_seed", [None, 7])
def test_all_zero_spec_rejected_on_every_path(rng_seed, vectorized):
    """An EC that draws nothing is refused before any draw, whichever
    path would run it."""
    table = make_census(3_000, seed=7)
    partition = dp_partition(
        table.sa_distribution(), BetaLikeness(3.0), margin=0.5
    )

    def retriever():
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        return HilbertRetriever(table, partition, rng=rng, vectorized=vectorized)

    specs = bi_split(partition, bucket_sizes=retriever().bucket_sizes())
    specs.append(np.zeros(len(partition), dtype=np.int64))
    with pytest.raises(ValueError, match="at least one tuple"):
        retriever().materialize(specs)


def test_seeded_materialize_memory_ceiling():
    """tracemalloc peak of seeded retrieval on 20K synthetic rows over
    32 buckets (β=2, rng 17): 37.0 B per row measured, ceiling 44.  The
    alive key and row buffers take 16 B per row and the output about 8.5;
    the per-take array copies they replaced peaked at 24.8."""
    table = synthetic(20_000, qi_dims=3, sa_cardinality=32, skew=0.8, seed=7)
    partition = dp_partition(
        table.sa_distribution(), BetaLikeness(2.0), margin=0.5
    )
    retriever = HilbertRetriever(table, partition, rng=np.random.default_rng(17))
    specs = bi_split(partition, bucket_sizes=retriever.bucket_sizes())
    tracemalloc.start()
    try:
        groups = retriever.materialize(specs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(g) for g in groups) == table.n_rows
    assert peak <= 44 * table.n_rows
