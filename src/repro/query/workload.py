"""COUNT-query workloads (Sections 5 and 6 of the paper).

Utility is evaluated with aggregation queries of the form::

    SELECT COUNT(*) FROM Anonymized-data
    WHERE pred(A_1) AND ... AND pred(A_λ) AND pred(SA)

Each predicate is a range ``A ∈ R_A``.  For an expected selectivity
``θ`` under a uniformity assumption, every one of the ``λ + 1``
predicates selects an interval of length ``|A| · θ^{1/(λ+1)}`` placed
uniformly at random inside the attribute's domain (§6.2).  The λ QI
attributes of each query are drawn at random from the table's QI set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset.schema import Schema
from ..dataset.table import Table
from ..rng import coerce_rng


@dataclass(frozen=True)
class CountQuery:
    """One COUNT query: QI range predicates plus an SA range predicate.

    Attributes:
        qi_ranges: Mapping from QI attribute index to an inclusive
            ``(lo, hi)`` interval in domain coordinates.
        sa_range: Inclusive ``(lo, hi)`` interval of SA value codes.
    """

    qi_ranges: tuple[tuple[int, tuple[int, int]], ...]
    sa_range: tuple[int, int]

    @property
    def n_qi_predicates(self) -> int:
        return len(self.qi_ranges)


def sa_bounds(query: CountQuery, m: int) -> tuple[int, int]:
    """The query's SA range as inclusive code bounds inside ``[0, m - 1]``.

    The one reader of the raw :attr:`CountQuery.sa_range`, so every
    estimator agrees on ranges that overhang or miss the domain: the
    range is clipped to it, and an empty result (out of domain, or
    inverted) comes back as ``hi = lo - 1``, whose prefix-sum mass and
    slices are zero.  In-domain ranges pass through unchanged.
    """
    lo, hi = query.sa_range
    lo = min(max(lo, 0), m)
    return lo, max(min(hi, m - 1), lo - 1)


def _random_interval(
    lo: int, hi: int, fraction: float, rng: np.random.Generator
) -> tuple[int, int]:
    """A random inclusive interval covering ``fraction`` of ``[lo, hi]``."""
    domain = hi - lo + 1
    length = max(1, int(round(domain * fraction)))
    length = min(length, domain)
    start = lo + int(rng.integers(0, domain - length + 1))
    return start, start + length - 1


def make_query(
    schema: Schema,
    lam: int,
    theta: float,
    rng: np.random.Generator,
    qi_dims: list[int] | None = None,
) -> CountQuery:
    """Generate one random COUNT query.

    Args:
        schema: The table's schema (supplies domains).
        lam: Number of QI attributes carrying predicates (``λ``).
        theta: Expected selectivity ``θ`` in (0, 1).
        rng: Randomness source.
        qi_dims: Optional fixed choice of QI attribute indices; defaults
            to a fresh random sample of size ``lam`` per query.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    if not 1 <= lam <= schema.n_qi:
        raise ValueError(f"lambda must be in [1, {schema.n_qi}]")
    fraction = theta ** (1.0 / (lam + 1))
    if qi_dims is None:
        qi_dims = sorted(rng.choice(schema.n_qi, size=lam, replace=False).tolist())
    ranges = tuple(
        (dim, _random_interval(schema.qi[dim].lo, schema.qi[dim].hi, fraction, rng))
        for dim in qi_dims
    )
    m = schema.sensitive.cardinality
    sa_range = _random_interval(0, m - 1, fraction, rng)
    return CountQuery(qi_ranges=ranges, sa_range=sa_range)


def make_workload(
    schema: Schema,
    n_queries: int,
    lam: int,
    theta: float,
    rng: np.random.Generator | int = 0,
) -> list[CountQuery]:
    """A workload of i.i.d. random COUNT queries (paper default: 10 000).

    Args:
        schema: The table's schema (supplies domains).
        n_queries: Workload size.
        lam: Number of QI predicates per query (``λ``).
        theta: Expected selectivity ``θ`` in (0, 1).
        rng: Randomness source, following the engine's uniform contract:
            an int seed or a ``numpy`` Generator.  The default is the
            explicit seed ``0`` — two calls without ``rng`` produce the
            same workload *by documented contract*, not by accident.
            ``None`` is rejected so callers cannot silently share one
            "random" workload across what they believe are independent
            draws.
    """
    rng = coerce_rng(rng, "make_workload")
    return [make_query(schema, lam, theta, rng) for _ in range(n_queries)]


class QueryTuple(tuple):
    """A workload's queries as a tuple that hashes its content once.

    The artifact cache keys a workload's encoding and precise answers by
    its queries.  A plain tuple rehashes every query on each dictionary
    probe — about 1 ms per probe for 2,000 queries, several probes per
    cache lookup — while this key hashes on first use and keeps the
    value.  Equality stays tuple equality, so a regenerated equal
    workload is an equal key.
    """

    def __new__(cls, queries: "Sequence[CountQuery]" = ()):
        # Like ``tuple(t) is t``: re-wrapping keeps the one cached hash.
        if type(queries) is cls:
            return queries
        return super().__new__(cls, queries)

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = self._hash = tuple.__hash__(self)
        return cached

    def __reduce__(self):
        return QueryTuple, (tuple(self),)


@dataclass(frozen=True)
class EncodedWorkload:
    """A workload as dense arrays, the batched evaluator's input format.

    Per-dimension bounds are *closed* over the full workload: dimensions
    a query does not constrain carry the attribute's whole domain (so a
    row/box comparison against them is vacuously true), and
    ``constrained`` records which entries are real predicates so batch
    kernels can skip the vacuous ones.  Bounds of real predicates are
    clipped to the domain (±1 for empty ranges), and SA bounds come from
    :func:`sa_bounds`, which leaves in-domain workloads — everything
    :func:`make_query` generates — bit-for-bit unchanged.

    Attributes:
        queries: The original :class:`CountQuery` objects, in order, as
            a :class:`QueryTuple` (the workload's cache key).
        qi_lo / qi_hi: ``(Q, d)`` inclusive QI bounds.
        constrained: ``(Q, d)`` bool; True where the query has a predicate.
        sa_lo / sa_hi: ``(Q,)`` inclusive SA bounds from
            :func:`sa_bounds` (``sa_hi = sa_lo - 1`` when empty).
    """

    queries: tuple[CountQuery, ...]
    qi_lo: np.ndarray
    qi_hi: np.ndarray
    constrained: np.ndarray
    sa_lo: np.ndarray
    sa_hi: np.ndarray

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def nbytes(self) -> int:
        """Bytes of the bound arrays (the query objects are not counted)."""
        arrays = (self.qi_lo, self.qi_hi, self.constrained, self.sa_lo, self.sa_hi)
        return sum(a.nbytes for a in arrays)

    def slice(self, start: int, stop: int) -> "EncodedWorkload":
        """A view of queries ``start:stop`` (arrays are shared)."""
        return EncodedWorkload(
            queries=self.queries[start:stop],
            qi_lo=self.qi_lo[start:stop],
            qi_hi=self.qi_hi[start:stop],
            constrained=self.constrained[start:stop],
            sa_lo=self.sa_lo[start:stop],
            sa_hi=self.sa_hi[start:stop],
        )

    @classmethod
    def encode(
        cls, schema: Schema, queries: "Sequence[CountQuery] | EncodedWorkload"
    ) -> "EncodedWorkload":
        """Encode ``queries``; passes an already-encoded workload through."""
        if isinstance(queries, EncodedWorkload):
            return queries
        queries = QueryTuple(queries)
        q_n = len(queries)
        d = schema.n_qi
        qi_lo = np.empty((q_n, d), dtype=np.int64)
        qi_hi = np.empty((q_n, d), dtype=np.int64)
        for j, attr in enumerate(schema.qi):
            qi_lo[:, j] = attr.lo
            qi_hi[:, j] = attr.hi
        constrained = np.zeros((q_n, d), dtype=bool)
        sa_lo = np.empty(q_n, dtype=np.int64)
        sa_hi = np.empty(q_n, dtype=np.int64)
        m = schema.sensitive.cardinality
        for i, query in enumerate(queries):
            last_dim = -1
            for dim, (lo, hi) in query.qi_ranges:
                if dim <= last_dim:
                    # The scalar answerers apply predicates in tuple
                    # order (masks intersect per entry, fractions
                    # multiply per entry); the dense encoding can only
                    # represent one predicate per dimension applied in
                    # ascending order, so anything else must be refused
                    # rather than silently diverge bitwise.
                    raise ValueError(
                        f"query {i}: QI predicates must be in strictly "
                        f"ascending dimension order (dimension {dim} "
                        f"after {last_dim}); sort and intersect them "
                        f"before encoding"
                    )
                last_dim = dim
                attr = schema.qi[dim]
                qi_lo[i, dim] = min(max(lo, attr.lo), attr.hi + 1)
                qi_hi[i, dim] = max(min(hi, attr.hi), attr.lo - 1)
                constrained[i, dim] = True
            sa_lo[i], sa_hi[i] = sa_bounds(query, m)
        return cls(
            queries=queries,
            qi_lo=qi_lo,
            qi_hi=qi_hi,
            constrained=constrained,
            sa_lo=sa_lo,
            sa_hi=sa_hi,
        )


def qi_mask(table: Table, query: CountQuery) -> np.ndarray:
    """Boolean mask of rows satisfying the query's QI predicates."""
    mask = np.ones(table.n_rows, dtype=bool)
    for dim, (lo, hi) in query.qi_ranges:
        column = table.qi[:, dim]
        mask &= (column >= lo) & (column <= hi)
    return mask


def answer_precise(table: Table, query: CountQuery) -> int:
    """The exact answer ``prec`` computed on the original microdata."""
    mask = qi_mask(table, query)
    lo, hi = query.sa_range
    mask &= (table.sa >= lo) & (table.sa <= hi)
    return int(mask.sum())
