"""Query estimators over the three publication formats (§5, §6.2, §6.3).

* **Generalized tables** (BUREL, Mondrian, SABRE): tuples inside each EC
  are assumed uniformly distributed over the EC's bounding box; an EC
  contributes its SA-matching tuple count scaled by the fractional
  overlap of the box with the query region (the standard estimator the
  paper uses in §6.2).
* **Perturbed tables** (§5): QI predicates filter exact QI values; the
  observed SA histogram ``E'`` of the filtered set is mapped back
  through the published transition matrix, ``N' = PM⁻¹ E'``, and the
  estimate sums ``N'`` over the SA range.
* **Baseline** (§6.3): QI predicates filter exact QI values; the SA
  predicate contributes the overall distribution mass of its range.

``median_relative_error`` reproduces the paper's workload metric:
``|est - prec| / prec``, with zero-``prec`` queries dropped.
"""

from __future__ import annotations

import numpy as np

from ..anonymity.anatomy import BaselinePublication
from ..core.perturb import PerturbedTable
from ..dataset.published import EquivalenceClass, GeneralizedTable
from ..dataset.schema import Schema
from .workload import CountQuery, EncodedWorkload, qi_mask, sa_bounds


#: Cells of one (queries × groups) block of :meth:`AnatomyAnswerer.batch`;
#: bounds its temporaries when a cube answers thousands of queries at once.
_FRACTION_CELLS = 2**21


def _box_overlap_fraction(
    schema: Schema, ec: EquivalenceClass, query: CountQuery
) -> float:
    """Fraction of the EC box inside the query's QI region.

    Each queried dimension contributes ``|box ∩ range| / |box|`` under
    the in-box uniformity assumption; unqueried dimensions contribute 1.
    All intervals are inclusive integer ranges.
    """
    fraction = 1.0
    for dim, (q_lo, q_hi) in query.qi_ranges:
        b_lo, b_hi = ec.box[dim]
        overlap = min(b_hi, q_hi) - max(b_lo, q_lo) + 1
        if overlap <= 0:
            return 0.0
        fraction *= overlap / (b_hi - b_lo + 1)
    return fraction


def answer_generalized(
    published: GeneralizedTable, query: CountQuery
) -> float:
    """Estimate a COUNT query on a generalized publication."""
    lo, hi = sa_bounds(query, published.sa_counts.shape[1])
    estimate = 0.0
    for ec in published:
        sa_matches = int(ec.sa_counts[lo : hi + 1].sum())
        if sa_matches == 0:
            continue
        fraction = _box_overlap_fraction(published.schema, ec, query)
        if fraction > 0.0:
            estimate += fraction * sa_matches
    return float(estimate)


def answer_perturbed(published: PerturbedTable, query: CountQuery) -> float:
    """Estimate a COUNT query on a perturbed publication (§5).

    Reconstruction can return (small) negative per-value counts — an
    artefact of inverting noisy observations the paper keeps, so no
    clipping is applied.
    """
    mask = qi_mask(published.source, query)
    observed = np.bincount(
        published.sa_perturbed[mask],
        minlength=published.source.sa_cardinality,
    )
    reconstructed = published.scheme.reconstruct(observed)
    lo, hi = sa_bounds(query, published.source.sa_cardinality)
    return float(reconstructed[lo : hi + 1].sum())


def answer_baseline(published: BaselinePublication, query: CountQuery) -> float:
    """Estimate a COUNT query on the §6.3 Baseline publication."""
    mask = qi_mask(published.source, query)
    probs = published.global_distribution()
    lo, hi = sa_bounds(query, probs.shape[0])
    return float(mask.sum() * probs[lo : hi + 1].sum())


def _fits_int32(*arrays: np.ndarray) -> bool:
    """Whether int32 bound arithmetic over ``arrays`` cannot overflow.

    It is ~2x faster than int64 (wider SIMD) and exact for any domain
    below 2^30 — the results, including the float64 division, are
    bit-identical to the int64 path.
    """
    return all(
        a.size == 0 or max(abs(int(a.min())), abs(int(a.max()))) < 2**30
        for a in arrays
    )


class GeneralizedAnswerer:
    """Vectorized batch estimator over a generalized publication.

    Precomputes per-EC box bounds, box widths and SA prefix sums once,
    so answering a query costs a handful of length-``|ECs|`` numpy
    operations instead of a Python loop — experiment sweeps answer
    millions of (query, EC) pairs.
    """

    def __init__(self, published: GeneralizedTable):
        self.published = published
        self.box_lo = published.boxes[:, :, 0]  # (E, d)
        self.box_hi = published.boxes[:, :, 1]
        counts = published.sa_counts  # (E, m)
        #: (m + 1, E) SA prefix sums, EC-minor: a query's per-EC SA
        #: matches are the difference of two contiguous rows.
        self.sa_prefix_t = np.zeros(
            (counts.shape[1] + 1, counts.shape[0]), dtype=np.int64
        )
        np.cumsum(counts.T, axis=0, out=self.sa_prefix_t[1:])
        # Dimension-major bounds and widths for the batch kernel.
        dtype = np.int32 if _fits_int32(published.boxes) else np.int64
        self._lo = np.ascontiguousarray(self.box_lo.T, dtype=dtype)  # (d, E)
        self._hi = np.ascontiguousarray(self.box_hi.T, dtype=dtype)
        self._width = self._hi - self._lo + 1

    def __call__(self, query: CountQuery) -> float:
        lo, hi = sa_bounds(query, self.sa_prefix_t.shape[0] - 1)
        sa_matches = (
            self.sa_prefix_t[hi + 1] - self.sa_prefix_t[lo]
        ).astype(float)
        fraction = np.ones(self.box_lo.shape[0])
        for dim, (q_lo, q_hi) in query.qi_ranges:
            b_lo = self.box_lo[:, dim]
            b_hi = self.box_hi[:, dim]
            overlap = np.minimum(b_hi, q_hi) - np.maximum(b_lo, q_lo) + 1
            fraction *= np.maximum(overlap, 0) / (b_hi - b_lo + 1)
        return float((fraction * sa_matches).sum())

    def batch(
        self, queries, chunk: int = 64, measure_dim: int | None = None
    ) -> np.ndarray:
        """Answer a whole workload in chunked (queries × ECs) passes.

        Per query this performs exactly the scalar operation sequence
        (per-dimension overlap products in ascending dimension order,
        then a row-wise sum over ECs) — of ``__call__`` for COUNT, of
        :func:`repro.query.aggregates.answer_aggregate` for SUM — so
        estimates are bit-for-bit identical; only the Python-level
        per-query dispatch is amortized.  Queries are grouped by which
        dimensions they constrain, so each kernel pass touches exactly
        its group's predicate dimensions with no per-row masking.

        Args:
            queries: Sequence of :class:`CountQuery`, or an
                :class:`~repro.query.workload.EncodedWorkload`.
            chunk: Queries per (chunk × ECs) block; small chunks keep the
                working set inside the CPU cache.
            measure_dim: ``None`` for COUNT; a QI dimension for the SUM
                of that attribute, where each EC's term is further
                scaled by the midpoint of its box's measure interval
                (clipped to the query's, when constrained): the expected
                measure value of a matching tuple under in-box
                uniformity.

        Returns:
            ``(Q,)`` float64 estimates, in workload order.
        """
        enc = EncodedWorkload.encode(self.published.schema, queries)
        q_n = enc.n_queries
        out = np.empty(q_n)
        if q_n == 0:
            return out
        n_classes = self.sa_prefix_t.shape[1]
        box_lo, box_hi, width = self._lo, self._hi, self._width
        qi_lo, qi_hi = enc.qi_lo, enc.qi_hi
        if box_lo.dtype == np.int32 and _fits_int32(qi_lo, qi_hi):
            qi_lo = qi_lo.astype(np.int32)
            qi_hi = qi_hi.astype(np.int32)
        patterns, inverse = np.unique(
            enc.constrained, axis=0, return_inverse=True
        )
        for p, pattern in enumerate(patterns):
            index = np.flatnonzero(inverse == p)
            dims = np.flatnonzero(pattern)
            for start in range(0, index.size, chunk):
                sel = index[start : start + chunk]
                fraction = None
                for dim in dims:
                    q_lo = qi_lo[sel, dim][:, None]
                    q_hi = qi_hi[sel, dim][:, None]
                    overlap = (
                        np.minimum(box_hi[dim], q_hi)
                        - np.maximum(box_lo[dim], q_lo)
                        + 1
                    )
                    term = np.maximum(overlap, 0) / width[dim]
                    if fraction is None:  # 1.0 * term == term, bit-exact
                        fraction = term
                    else:
                        fraction *= term
                if fraction is None:
                    fraction = np.ones((sel.size, n_classes))
                sa_matches = (
                    self.sa_prefix_t[enc.sa_hi[sel] + 1]
                    - self.sa_prefix_t[enc.sa_lo[sel]]
                ).astype(float)
                values = fraction * sa_matches
                if measure_dim is not None:
                    mid_lo = box_lo[measure_dim]
                    mid_hi = box_hi[measure_dim]
                    if pattern[measure_dim]:
                        # Inverted (empty) overlaps are annihilated by
                        # fraction == 0.
                        mid_lo = np.maximum(
                            mid_lo, qi_lo[sel, measure_dim][:, None]
                        )
                        mid_hi = np.minimum(
                            mid_hi, qi_hi[sel, measure_dim][:, None]
                        )
                    values *= (mid_lo + mid_hi) / 2.0
                out[sel] = values.sum(axis=1)
        return out


class PerturbedAnswerer:
    """Batch estimator over a perturbed publication.

    Summing the reconstruction ``PM⁻¹ E'`` over an SA range is a linear
    functional of the observed histogram ``E'``, so it folds into
    per-value weights once per SA range:
    ``est = (w · E')`` with ``w = (PM^-T · indicator(R_SA))``.  The
    estimate is computed in exactly that histogram form — an order-free
    function of integer per-value counts — so any histogram source
    (a :class:`~repro.query.cube.PrefixSumCube` value cube, or the
    bitmap engine's pass over the rows in each QI box) yields
    bit-identical results.
    """

    def __init__(self, published: PerturbedTable):
        self.published = published
        #: Histogram kind: each row's perturbed SA value, over the
        #: ``width`` SA codes.
        self.row_codes = published.sa_perturbed
        self.width = published.source.sa_cardinality
        self._weights_cache: dict[tuple[int, int], np.ndarray] = {}

    def _weights(self, sa_range: tuple[int, int]) -> np.ndarray:
        """Weights of clipped SA bounds (see :func:`sa_bounds`)."""
        if sa_range not in self._weights_cache:
            scheme = self.published.scheme
            lo, hi = sa_range
            indicator = np.zeros(self.width)
            indicator[lo : hi + 1] = 1.0
            ind_present = indicator[scheme.domain]
            if scheme.m == 1:
                w_present = ind_present
            else:
                w_present = np.linalg.solve(scheme.matrix.T, ind_present)
            weights = np.zeros(self.width)
            weights[scheme.domain] = w_present
            self._weights_cache[sa_range] = weights
        return self._weights_cache[sa_range]

    def __call__(self, query: CountQuery) -> float:
        mask = qi_mask(self.published.source, query)
        observed = np.bincount(
            self.row_codes[mask], minlength=self.width
        )
        weights = self._weights(sa_bounds(query, self.width))
        return float((weights * observed).sum())

    def weight_rows(self, queries) -> np.ndarray:
        """``(Q, m)`` per-query weight vectors (cached per SA range)."""
        enc = EncodedWorkload.encode(self.published.source.schema, queries)
        out = np.zeros((enc.n_queries, self.width))
        for i, bounds in enumerate(zip(enc.sa_lo.tolist(), enc.sa_hi.tolist())):
            out[i] = self._weights(bounds)
        return out

    def batch(self, queries, histograms: np.ndarray) -> np.ndarray:
        """Answer a workload from its observed perturbed-SA histograms.

        Args:
            queries: Sequence of :class:`CountQuery` or an
                :class:`~repro.query.workload.EncodedWorkload`.
            histograms: ``(Q, m)`` per-query histograms of the perturbed
                SA values of the rows in each QI box — counts, or
                measure sums for SUM estimates — from a
                :class:`~repro.query.cube.PrefixSumCube` value cube or
                the bitmap engine's pass
                (:func:`repro.query.evaluate.answer_batch`).

        Returns:
            ``(Q,)`` float64 estimates, bit-identical to ``__call__``:
            every source reduces the same (weights × exact-integer
            histogram) products, so only where the histogram comes from
            differs.
        """
        return (self.weight_rows(queries) * histograms).sum(axis=1)


class AnatomyAnswerer:
    """Batch estimator over an ℓ-diverse Anatomy publication.

    Anatomy publishes exact QI values plus each group's SA multiset, so
    a COUNT query is estimated as ``sum_groups |group ∩ QI-predicates| *
    (group's SA mass in the range)`` — the group-level analogue of the
    Baseline, strictly more informed because distributions are local.
    """

    def __init__(self, published):
        self.published = published
        # The publication validated its partition at construction, so
        # every row carries a real group id.
        self.group_of = published.class_of
        #: Histogram kind: each row's group id, over the ``width`` groups.
        self.row_codes = self.group_of
        self.width = published.n_groups
        distributions = published.sa_counts / published.sizes[:, None]
        #: (m + 1, G) SA prefix sums, SA-major: a query's per-group SA
        #: mass is the difference of two contiguous rows.
        self.sa_prefix = np.zeros(
            (distributions.shape[1] + 1, published.n_groups)
        )
        np.cumsum(distributions.T, axis=0, out=self.sa_prefix[1:])

    def __call__(self, query: CountQuery) -> float:
        mask = qi_mask(self.published.source, query)
        lo, hi = sa_bounds(query, self.sa_prefix.shape[0] - 1)
        counts = np.bincount(self.group_of[mask], minlength=self.width)
        fractions = self.sa_prefix[hi + 1] - self.sa_prefix[lo]
        return float((counts * fractions).sum())

    def fraction_rows(self, queries) -> np.ndarray:
        """``(Q, G)`` per-query group SA-range mass fractions."""
        enc = EncodedWorkload.encode(self.published.source.schema, queries)
        return self.sa_prefix[enc.sa_hi + 1] - self.sa_prefix[enc.sa_lo]

    def batch(self, queries, histograms: np.ndarray) -> np.ndarray:
        """Answer a workload from its per-group histograms.

        Same contract as :meth:`PerturbedAnswerer.batch`, with
        ``histograms`` the ``(Q, G)`` per-group membership counts (or
        measure sums) inside each query's QI box, e.g. one gather from a
        :class:`~repro.query.cube.PrefixSumCube` group cube.
        """
        enc = EncodedWorkload.encode(self.published.source.schema, queries)
        out = np.zeros(enc.n_queries)
        step = max(1, _FRACTION_CELLS // self.width)
        for start in range(0, enc.n_queries, step):
            stop = start + step
            products = self.fraction_rows(enc.slice(start, stop))
            products *= histograms[start:stop]
            out[start:stop] = products.sum(axis=1)
        return out


class BaselineAnswerer:
    """Batch estimator over the §6.3 Baseline publication."""

    def __init__(self, published: BaselinePublication):
        self.published = published
        #: Histogram kind: no row codes, so each query's histogram is
        #: the one-bin size (or measure sum) of its QI match.
        self.row_codes = None
        self.width = 1
        probs = published.global_distribution()
        self.sa_prefix = np.concatenate([[0.0], np.cumsum(probs)])

    def __call__(self, query: CountQuery) -> float:
        mask = qi_mask(self.published.source, query)
        lo, hi = sa_bounds(query, self.sa_prefix.shape[0] - 1)
        return float(mask.sum() * (self.sa_prefix[hi + 1] - self.sa_prefix[lo]))

    def batch(self, queries, histograms: np.ndarray) -> np.ndarray:
        """Answer a workload from its ``(Q, 1)`` QI-match histograms.

        The Baseline's histogram is one number per query: the size of
        its QI match, or with a measure the match's measure sum — from
        the bitmap index's popcounts, the bitmap engine's pass or
        table-cube lookups.  Integer sums are order-free and the
        per-query product is the same two-operand float multiply as
        ``__call__``, so estimates are bit-identical.
        """
        enc = EncodedWorkload.encode(self.published.source.schema, queries)
        return histograms[:, 0] * (
            self.sa_prefix[enc.sa_hi + 1] - self.sa_prefix[enc.sa_lo]
        )
