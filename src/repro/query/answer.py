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
from .workload import CountQuery, EncodedWorkload, qi_mask


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
    lo, hi = query.sa_range
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
    lo, hi = query.sa_range
    return float(reconstructed[lo : hi + 1].sum())


def answer_baseline(published: BaselinePublication, query: CountQuery) -> float:
    """Estimate a COUNT query on the §6.3 Baseline publication."""
    mask = qi_mask(published.source, query)
    probs = published.global_distribution()
    lo, hi = query.sa_range
    return float(mask.sum() * probs[lo : hi + 1].sum())


class GeneralizedAnswerer:
    """Vectorized batch estimator over a generalized publication.

    Precomputes per-EC box bounds and SA prefix sums once, so answering a
    query costs a handful of length-``|ECs|`` numpy operations instead of
    a Python loop — experiment sweeps answer millions of (query, EC)
    pairs.
    """

    def __init__(self, published: GeneralizedTable):
        self.published = published
        self.box_lo = published.boxes[:, :, 0]  # (E, d)
        self.box_hi = published.boxes[:, :, 1]
        counts = published.sa_counts  # (E, m)
        self.sa_prefix = np.concatenate(
            [np.zeros((counts.shape[0], 1), dtype=np.int64),
             np.cumsum(counts, axis=1)],
            axis=1,
        )

    def __call__(self, query: CountQuery) -> float:
        lo, hi = query.sa_range
        sa_matches = (
            self.sa_prefix[:, hi + 1] - self.sa_prefix[:, lo]
        ).astype(float)
        fraction = np.ones(self.box_lo.shape[0])
        for dim, (q_lo, q_hi) in query.qi_ranges:
            b_lo = self.box_lo[:, dim]
            b_hi = self.box_hi[:, dim]
            overlap = np.minimum(b_hi, q_hi) - np.maximum(b_lo, q_lo) + 1
            fraction *= np.maximum(overlap, 0) / (b_hi - b_lo + 1)
        return float((fraction * sa_matches).sum())

    def batch(self, queries, chunk: int = 64) -> np.ndarray:
        """Answer a whole workload in chunked (queries × ECs) passes.

        Per query this performs exactly the scalar ``__call__`` operation
        sequence (per-dimension overlap products in ascending dimension
        order, then a row-wise sum over ECs), so estimates are bit-for-bit
        identical — only the Python-level per-query dispatch is amortized.
        Queries are grouped by which dimensions they constrain, so each
        kernel pass touches exactly its group's predicate dimensions with
        no per-row masking.

        Args:
            queries: Sequence of :class:`CountQuery`, or an
                :class:`~repro.query.workload.EncodedWorkload`.
            chunk: Queries per (chunk × ECs) block; small chunks keep the
                working set inside the CPU cache.

        Returns:
            ``(Q,)`` float64 estimates, in workload order.
        """
        enc = EncodedWorkload.encode(self.published.schema, queries)
        q_n = enc.n_queries
        out = np.empty(q_n)
        if q_n == 0:
            return out
        n_classes = self.box_lo.shape[0]
        sa_prefix_t = np.ascontiguousarray(self.sa_prefix.T)  # (m + 1, E)
        # int32 bound arithmetic is ~2x faster (wider SIMD) and exact for
        # any domain below 2^30 — the results, including the float64
        # division, are bit-identical to the int64 path.
        bounds = (self.box_lo, self.box_hi, enc.qi_lo, enc.qi_hi)
        small = all(
            a.size == 0 or max(abs(int(a.min())), abs(int(a.max()))) < 2**30
            for a in bounds
        )
        dtype = np.int32 if small else np.int64
        box_lo = self.box_lo.astype(dtype, copy=False)
        box_hi = self.box_hi.astype(dtype, copy=False)
        qi_lo = enc.qi_lo.astype(dtype, copy=False)
        qi_hi = enc.qi_hi.astype(dtype, copy=False)
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
                    b_lo = box_lo[:, dim]
                    b_hi = box_hi[:, dim]
                    q_lo = qi_lo[sel, dim][:, None]
                    q_hi = qi_hi[sel, dim][:, None]
                    overlap = (
                        np.minimum(b_hi[None, :], q_hi)
                        - np.maximum(b_lo[None, :], q_lo)
                        + 1
                    )
                    term = np.maximum(overlap, 0) / (b_hi - b_lo + 1)
                    if fraction is None:  # 1.0 * term == term, bit-exact
                        fraction = term
                    else:
                        fraction *= term
                if fraction is None:
                    fraction = np.ones((sel.size, n_classes))
                sa_matches = (
                    sa_prefix_t[enc.sa_hi[sel] + 1]
                    - sa_prefix_t[enc.sa_lo[sel]]
                ).astype(float)
                out[sel] = (fraction * sa_matches).sum(axis=1)
        return out


class PerturbedAnswerer:
    """Batch estimator over a perturbed publication.

    Summing the reconstruction ``PM⁻¹ E'`` over an SA range is a linear
    functional of the observed histogram ``E'``, so it folds into
    per-value weights once per SA range:
    ``est = (w · E')`` with ``w = (PM^-T · indicator(R_SA))``.  The
    estimate is computed in exactly that histogram form — an order-free
    function of integer per-value counts — so any histogram source
    (per-query masks, or a precomputed
    :class:`~repro.query.cube.PrefixSumCube` value cube) yields
    bit-identical results.
    """

    def __init__(self, published: PerturbedTable):
        self.published = published
        self._weights_cache: dict[tuple[int, int], np.ndarray] = {}

    def _weights(self, sa_range: tuple[int, int]) -> np.ndarray:
        if sa_range not in self._weights_cache:
            scheme = self.published.scheme
            m_full = self.published.source.sa_cardinality
            lo, hi = sa_range
            indicator = np.zeros(m_full)
            indicator[lo : hi + 1] = 1.0
            ind_present = indicator[scheme.domain]
            if scheme.m == 1:
                w_present = ind_present
            else:
                w_present = np.linalg.solve(scheme.matrix.T, ind_present)
            weights = np.zeros(m_full)
            weights[scheme.domain] = w_present
            self._weights_cache[sa_range] = weights
        return self._weights_cache[sa_range]

    def __call__(self, query: CountQuery) -> float:
        mask = qi_mask(self.published.source, query)
        observed = np.bincount(
            self.published.sa_perturbed[mask],
            minlength=self.published.source.sa_cardinality,
        )
        weights = self._weights(query.sa_range)
        return float((weights * observed).sum())

    def weight_rows(self, queries) -> np.ndarray:
        """``(Q, m)`` per-query weight vectors (cached per SA range)."""
        if isinstance(queries, EncodedWorkload):
            queries = queries.queries
        m = self.published.source.sa_cardinality
        out = np.empty((len(queries), m))
        for i, query in enumerate(queries):
            out[i] = self._weights(query.sa_range)
        return out

    def batch(
        self,
        queries,
        masks: np.ndarray | None = None,
        histograms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Answer a workload against masks or precomputed histograms.

        Args:
            queries: Sequence of :class:`CountQuery` or an
                :class:`~repro.query.workload.EncodedWorkload`.
            masks: Optional ``(Q, n_rows)`` boolean QI-mask matrix shared
                across estimators (see
                :func:`~repro.query.evaluate.batch_estimates`); without
                it each query recomputes its own mask.
            histograms: Optional ``(Q, m)`` observed perturbed-SA
                histograms (integer counts), e.g. one gather from a
                :class:`~repro.query.cube.PrefixSumCube` value cube;
                takes precedence over ``masks``.

        Returns:
            ``(Q,)`` float64 estimates, bit-identical to ``__call__``:
            every path reduces the same (weights × integer histogram)
            products, so only where the histogram comes from differs.
        """
        if histograms is not None:
            return (self.weight_rows(queries) * histograms).sum(axis=1)
        if isinstance(queries, EncodedWorkload):
            queries = queries.queries
        source = self.published.source
        sa_perturbed = self.published.sa_perturbed
        m = source.sa_cardinality
        out = np.empty(len(queries))
        for i, query in enumerate(queries):
            mask = masks[i] if masks is not None else qi_mask(source, query)
            observed = np.bincount(sa_perturbed[mask], minlength=m)
            weights = self._weights(query.sa_range)
            out[i] = (weights * observed).sum()
        return out


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
        distributions = published.sa_counts / published.sizes[:, None]
        self.sa_prefix = np.zeros(  # (G, m + 1)
            (published.n_groups, distributions.shape[1] + 1)
        )
        np.cumsum(distributions, axis=1, out=self.sa_prefix[:, 1:])

    def __call__(self, query: CountQuery) -> float:
        mask = qi_mask(self.published.source, query)
        lo, hi = query.sa_range
        counts = np.bincount(
            self.group_of[mask], minlength=self.published.n_groups
        )
        fractions = self.sa_prefix[:, hi + 1] - self.sa_prefix[:, lo]
        return float((counts * fractions).sum())

    def fraction_rows(self, queries) -> np.ndarray:
        """``(Q, G)`` per-query group SA-range mass fractions."""
        if isinstance(queries, EncodedWorkload):
            queries = queries.queries
        out = np.empty((len(queries), self.sa_prefix.shape[0]))
        for i, query in enumerate(queries):
            lo, hi = query.sa_range
            out[i] = self.sa_prefix[:, hi + 1] - self.sa_prefix[:, lo]
        return out

    def batch(
        self,
        queries,
        masks: np.ndarray | None = None,
        group_counts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Answer a workload against masks or precomputed group counts.

        Same contract as :meth:`PerturbedAnswerer.batch`: per-query
        operations are the scalar ones, so estimates are bit-identical;
        ``masks`` only removes the per-query mask recomputation, and
        ``group_counts`` — ``(Q, G)`` integer per-group membership
        counts inside each query's QI box, e.g. one gather from a
        :class:`~repro.query.cube.PrefixSumCube` group cube — replaces
        the masks entirely.
        """
        if group_counts is not None:
            return (group_counts * self.fraction_rows(queries)).sum(axis=1)
        if isinstance(queries, EncodedWorkload):
            queries = queries.queries
        source = self.published.source
        n_groups = self.published.n_groups
        out = np.empty(len(queries))
        for i, query in enumerate(queries):
            mask = masks[i] if masks is not None else qi_mask(source, query)
            lo, hi = query.sa_range
            counts = np.bincount(self.group_of[mask], minlength=n_groups)
            fractions = self.sa_prefix[:, hi + 1] - self.sa_prefix[:, lo]
            out[i] = (counts * fractions).sum()
        return out


class BaselineAnswerer:
    """Batch estimator over the §6.3 Baseline publication."""

    def __init__(self, published: BaselinePublication):
        self.published = published
        probs = published.global_distribution()
        self.sa_prefix = np.concatenate([[0.0], np.cumsum(probs)])

    def __call__(self, query: CountQuery) -> float:
        mask = qi_mask(self.published.source, query)
        lo, hi = query.sa_range
        return float(mask.sum() * (self.sa_prefix[hi + 1] - self.sa_prefix[lo]))

    def batch(
        self,
        queries,
        masks: np.ndarray | None = None,
        qi_counts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Answer a workload in one vectorized pass.

        The Baseline only needs the *size* of each query's QI match, so
        ``qi_counts`` (``(Q,)`` int, e.g. from the shared bitmap index)
        is the cheapest input; ``masks`` or per-query recomputation are
        the fallbacks.  Integer counts are order-free and the per-query
        product is the same two-operand float multiply as ``__call__``,
        so estimates are bit-identical.
        """
        enc = EncodedWorkload.encode(self.published.source.schema, queries)
        if qi_counts is None:
            if masks is not None:
                qi_counts = masks.sum(axis=1)
            else:
                qi_counts = np.array(
                    [
                        qi_mask(self.published.source, query).sum()
                        for query in enc.queries
                    ],
                    dtype=np.int64,
                )
        return qi_counts * (
            self.sa_prefix[enc.sa_hi + 1] - self.sa_prefix[enc.sa_lo]
        )


