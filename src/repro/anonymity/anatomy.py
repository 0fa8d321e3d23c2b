"""Anatomy-style publication (Xiao & Tao, VLDB 2006).

Two uses in the reproduction:

* **The Fig. 9 Baseline** (§6.3): publish every tuple's exact QI values
  together with only the *overall* SA distribution — the degenerate
  "one big group" Anatomy.  Its query estimator multiplies the count of
  QI-matching tuples by the SA predicate's global mass.
* **Group-based Anatomy** for the deFinetti attack (§7): tuples are
  grouped into ℓ-diverse buckets; each group publishes its QI tuples and
  its SA multiset separately, severing the per-tuple linkage.  This is
  the publication format Cormode's and Kifer's attacks were demonstrated
  against, so the attack module needs a faithful implementation.

The grouping algorithm is Xiao & Tao's: repeatedly form a group by
drawing one tuple from each of the ℓ currently largest SA-value buckets;
residual tuples join existing groups that lack their SA value.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..dataset.published import GroupedPublication, GroupRecords, group_offsets
from ..dataset.table import Table
from ..rng import coerce_rng

#: The documented deterministic default: ``rng=None`` shuffles each
#: SA-value pool with this fixed seed, so the grouping is reproducible
#: unless a caller explicitly asks for fresh randomness.
DEFAULT_ANATOMY_SEED = 0


@dataclass
class BaselinePublication:
    """§6.3's Baseline: exact QIs plus the overall SA distribution."""

    source: Table

    @property
    def qi(self) -> np.ndarray:
        return self.source.qi

    @property
    def n_rows(self) -> int:
        return self.source.n_rows

    def global_distribution(self) -> np.ndarray:
        return self.source.sa_distribution()


@dataclass(frozen=True)
class AnatomyGroup:
    """One Anatomy group as a read-only record: member rows plus the
    published SA multiset."""

    rows: np.ndarray
    sa_counts: np.ndarray

    @property
    def size(self) -> int:
        return int(self.rows.shape[0])

    def sa_distribution(self) -> np.ndarray:
        return self.sa_counts / self.size


class AnatomyTable(GroupedPublication):
    """An ℓ-diverse Anatomy publication over a source table.

    The columnar core (``rows``, ``offsets``, ``class_of``,
    ``sa_counts``) is the publication; ``groups`` are read-only
    :class:`AnatomyGroup` records built on access.
    """

    def __init__(self, source: Table, rows, offsets, l: int):
        super().__init__(source, rows, offsets)
        self.l = l

    @property
    def groups(self) -> GroupRecords:
        return GroupRecords(self)

    def record(self, g: int) -> AnatomyGroup:
        return AnatomyGroup(rows=self.group_rows(g), sa_counts=self.sa_counts[g])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnatomyTable({self.n_groups} groups over {self.n_rows} rows, "
            f"l={self.l})"
        )


def anatomy_row_groups(
    table: Table, l: int, rng: np.random.Generator | int | None = None
) -> list[list[int]]:
    """Xiao & Tao's grouping phase: row indices of each ℓ-diverse group.

    This is the engine's ``partition`` stage; :func:`anatomize` wraps it
    with eligibility checking and output assembly.  ``rng`` follows the
    repo contract (int seed or Generator); ``None`` means the documented
    :data:`DEFAULT_ANATOMY_SEED`.
    """
    rng = coerce_rng(
        rng if rng is not None else DEFAULT_ANATOMY_SEED, "anatomy_row_groups"
    )
    counts = table.sa_counts()

    pools: dict[int, list[int]] = {}
    for value in np.nonzero(counts)[0]:
        rows = np.nonzero(table.sa == value)[0]
        rng.shuffle(rows)
        pools[int(value)] = list(rows)

    # Max-heap of (remaining count, value); Python's heapq is a min-heap,
    # so counts are negated.
    heap = [(-len(rows), value) for value, rows in pools.items()]
    heapq.heapify(heap)

    group_rows: list[list[int]] = []
    group_values: list[set[int]] = []
    while len(heap) >= l:
        taken = [heapq.heappop(heap) for _ in range(l)]
        members: list[int] = []
        values: set[int] = set()
        for negative, value in taken:
            members.append(pools[value].pop())
            values.add(value)
            if -negative - 1 > 0:
                heapq.heappush(heap, (negative + 1, value))
        group_rows.append(members)
        group_values.append(values)

    # Residuals: fewer than ℓ distinct values remain; each residual tuple
    # joins some group currently lacking its SA value.
    for negative, value in heap:
        for _ in range(-negative):
            row = pools[value].pop()
            placed = False
            for g, values in enumerate(group_values):
                if value not in values:
                    group_rows[g].append(row)
                    values.add(value)
                    placed = True
                    break
            if not placed:
                raise AssertionError(
                    "anatomize failed to place a residual tuple; "
                    "eligibility check should have prevented this"
                )
    return group_rows


def check_eligibility(table: Table, l: int) -> None:
    """Raise unless ``table`` satisfies Xiao & Tao's ℓ-eligibility."""
    if l < 2:
        raise ValueError("l must be >= 2")
    if int(table.sa_counts().max()) * l > table.n_rows:
        raise ValueError(
            f"table is not {l}-eligible: an SA value exceeds frequency 1/{l}"
        )


def assemble_anatomy(
    table: Table, group_rows: list[list[int]], l: int
) -> AnatomyTable:
    """Build the :class:`AnatomyTable` publication from row groups.

    Each group publishes its rows in ascending order; one ``lexsort``
    orders rows within groups and keeps the groups in order.
    """
    sizes = np.fromiter(map(len, group_rows), dtype=np.int64)
    offsets = group_offsets(sizes)
    rows = np.fromiter(
        itertools.chain.from_iterable(group_rows),
        dtype=np.int64,
        count=int(offsets[-1]),
    )
    group_of = np.repeat(np.arange(sizes.shape[0]), sizes)
    return AnatomyTable(table, rows[np.lexsort((rows, group_of))], offsets, l)


def anatomize(
    table: Table, l: int, rng: np.random.Generator | int | None = None
) -> AnatomyTable:
    """Partition ``table`` into ℓ-diverse Anatomy groups.

    Args:
        table: The microdata to publish.
        l: Diversity parameter; each group receives ℓ tuples of ℓ
            distinct SA values (residuals may join earlier groups, which
            keeps every group ℓ-diverse).
        rng: Int seed or generator; shuffles tuples within each SA-value
            bucket so group membership is not order-dependent (``None``
            uses the documented :data:`DEFAULT_ANATOMY_SEED`, so the
            default is deterministic).

    Raises:
        ValueError: If the table is not ℓ-eligible (some SA value is more
            frequent than ``1/l``, Xiao & Tao's feasibility condition).
    """
    check_eligibility(table, l)
    return assemble_anatomy(table, anatomy_row_groups(table, l, rng), l)


@dataclass
class AnatomyResult:
    """Timing wrapper matching the other algorithms' result shape."""

    published: AnatomyTable
    elapsed_seconds: float


def anatomy(
    table: Table, l: int, rng: np.random.Generator | int | None = None
) -> AnatomyResult:
    """Timed convenience wrapper, routed through the staged engine."""
    from ..engine import run as engine_run

    result = engine_run("anatomy", table, rng=rng, l=l)
    return AnatomyResult(
        published=result.published, elapsed_seconds=result.elapsed_seconds
    )
