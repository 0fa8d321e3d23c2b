"""Versioned-dataset machinery: incremental re-anonymization after appends.

The paper anonymizes a static table; production data churns.  This
module gives :class:`~repro.api.dataset.Dataset` a mutable, versioned
life cycle::

    ds = Dataset(table)
    base = ds.anonymize("burel", beta=2.0, rng=17, shards=16)   # baseline
    ds.append(delta_rows)                # marks dirty shards, seeds caches
    run = ds.refresh()                   # recompute dirty, reuse clean
    run.publish(store, requirement={"beta": 2.0},
                name="census", parent=base_record)

**The reuse contract.**  A sharded baseline run leaves one artifact per
shard in the session's :class:`~repro.api.cache.ArtifactCache` — the
shard's :class:`~repro.engine.shard.ShardPiece` with global member rows
(its slice of the merged publication's arrays) — under
``("shard_run", lineage_token, shard_index)``.  An append routes the
new rows to shards by Hilbert-key interval
(:meth:`repro.parallel.ShardPlan.diff`), evicts exactly the touched
shards' artifacts, and carries what extends exactly to the concatenated
table's content key: its Hilbert keys and SA distribution from the
cached baseline arrays, and each cached workload's encoding and precise
COUNT answers, the latter plus the workload's answers over the appended
rows alone.  A refresh then re-anonymizes only the shards whose pieces
are gone, through the sharded session's own shard runner
(:meth:`repro.parallel.ShardedSession.shard_pieces`) on an inline
session over the lineage's plan and pinned ``P`` — the very code its
cold comparator runs — and concatenates cached and recomputed pieces
into the whole-table publication; its audit view is built from that
publication like any other.  Evaluating the refreshed run reads the
carried precise answers, so a generalized publication's evaluation runs
only its EC kernel and builds no mask engine over the grown table.  The
lineage keeps one version's artifacts: an append drops the entries
keyed by the old table content once the carried ones are re-keyed, and
a refresh drops those keyed by the superseded publication (its audit
view, which would also pin the old table).

**The pinned-``P`` invariant.**  Shard anonymization bucketizes against
the overall SA distribution ``P`` (see
:func:`repro.engine.shard.prepare_shard`).  Appending rows shifts ``P``
slightly — if shards re-prepared against the *current* ``P``, every
shard would be dirty and nothing could ever be reused.  The lineage
therefore pins the **baseline** table's ``P`` for anonymization across
all refreshes, while audits and certification always measure against
the current table's *true* distribution (privacy claims stay honest:
the gate re-checks the whole refreshed publication against the real
adversary).  Byte-identity is asserted against a cold sharded run over
the concatenated table using the same diffed plan and the same pinned
``P`` — the exact computation the refresh is claiming to shortcut.

Per-shard randomness follows the shard runner's contract: shard ``i``
always draws from child ``i`` of ``SeedSequence(seed)``, and
``ShardPlan.diff`` never changes the shard count, so dirty-shard
recomputes consume exactly the stream the baseline run would have.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..engine.pipeline import RunResult
from ..engine.shard import merge_pieces, merge_stage_seconds
from ..parallel import ShardPlan, ShardedSession
from .dataset import AnonymizationRun


def lineage_token(
    table_key: str,
    algorithm: str,
    params: dict,
    seed: "int | None",
    n_shards: int,
) -> str:
    """A short stable id for one (baseline table, run configuration).

    Per-shard artifacts are keyed under it, so two different baselines
    (or two parameterizations of one baseline) never alias each other's
    cached shards.
    """
    blob = repr(
        (
            table_key,
            algorithm,
            sorted((str(k), repr(v)) for k, v in params.items()),
            seed,
            n_shards,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class VersionState:
    """The mutable lineage of one sharded baseline run.

    Attributes:
        algorithm / params / seed: The baseline run configuration;
            dirty-shard recomputes replay it exactly.
        sa_distribution: The **pinned** anonymization-time ``P`` (the
            baseline table's overall SA distribution) — see the module
            docstring for why it never moves.
        plan: The current :class:`~repro.parallel.ShardPlan`; widened in
            place of the baseline's by each append's diff.
        token: The :func:`lineage_token` keying the shard artifacts.
        version: How many refreshes have completed (0 = baseline).
        dirty: Shard indices whose artifacts are stale.
        publication_key: Content digest of the current version's
            publication; the next refresh drops the artifacts keyed by
            it.
    """

    algorithm: str
    params: dict
    seed: "int | None"
    sa_distribution: np.ndarray
    plan: ShardPlan
    token: str
    version: int = 0
    dirty: set = field(default_factory=set)
    publication_key: "str | None" = None

    def shard_key(self, index: int) -> tuple:
        """The cache key of shard ``index``'s publication artifact."""
        return ("shard_run", self.token, index)


def snapshot_baseline(
    dataset, session, run, algorithm: str, params: dict, seed: "int | None"
) -> VersionState:
    """Record a sharded run as the dataset's versioned baseline.

    Caches each shard's piece with its slice of the merged publication's
    rows (the shard's rows, lifted to global ids — nothing is rebuilt)
    and returns the :class:`VersionState` that future appends/refreshes
    evolve.  A previous lineage's artifacts are dropped first: one
    facade tracks one baseline at a time.
    """
    state = VersionState(
        algorithm=algorithm,
        params=dict(params),
        seed=seed,
        sa_distribution=session._anon_probs,
        plan=session.plan,
        token=lineage_token(
            dataset.content_key,
            algorithm,
            params,
            seed,
            session.plan.n_shards,
        ),
        publication_key=dataset.cache.publication_key(run.published),
    )
    merged_rows = run.published.rows
    start = 0
    for i, piece in enumerate(run._pieces):
        stop = start + piece.rows.shape[0]
        dataset.cache.put(
            state.shard_key(i),
            dataclasses.replace(piece, rows=merged_rows[start:stop]),
        )
        start = stop
    return state


class RefreshRun(AnonymizationRun):
    """An :class:`~repro.api.dataset.AnonymizationRun` produced by
    :meth:`Dataset.refresh`, annotated with what was reused.

    Attributes:
        reused: Shard indices whose cached artifacts were reused.
        recomputed: Shard indices re-anonymized this refresh.
        version: The lineage's version counter after this refresh.
    """

    def __init__(
        self,
        dataset,
        result: RunResult,
        *,
        seed: "int | None",
        reused: tuple,
        recomputed: tuple,
        version: int,
    ):
        super().__init__(dataset, result, seed=seed)
        self.reused = reused
        self.recomputed = recomputed
        self.version = version


def refresh_state(dataset, state: VersionState) -> RefreshRun:
    """Re-anonymize a versioned dataset incrementally.

    Clean shards come straight from the cache (``get_or_build`` hits);
    dirty — or LRU-evicted — shards are rebuilt by
    :meth:`~repro.parallel.ShardedSession.shard_pieces` on an inline
    session over the lineage's (now extended) plan, with the pinned
    baseline ``P`` and the original per-shard seed stream.  The merged
    publication re-validates the row partition in its constructor; its
    audit view, built on first use, measures against the **current**
    table's true distribution.
    """
    start = time.perf_counter()
    table, cache, plan = dataset.table, dataset.cache, state.plan
    if plan.n_rows != table.n_rows:
        raise RuntimeError(
            f"lineage plan covers {plan.n_rows} rows but the table has "
            f"{table.n_rows}; append() is the only supported mutation"
        )
    session = ShardedSession(
        table, cache=cache, plan=plan, sa_distribution=state.sa_distribution,
        telemetry=dataset.telemetry(),
    )
    recomputed: list[int] = []

    def build(i: int):
        recomputed.append(i)
        (piece,) = session.shard_pieces(
            state.algorithm, [i], seed=state.seed, **state.params
        )
        return piece.lift(plan.shards[i].rows)

    pieces = [
        cache.get_or_build(state.shard_key(i), lambda i=i: build(i))
        for i in range(plan.n_shards)
    ]
    # The session memoizes its shard slices; let them go before merging.
    session = None
    reused = tuple(i for i in range(plan.n_shards) if i not in recomputed)
    published = merge_pieces(table, pieces)
    key = cache.publication_key(published)
    if state.publication_key not in (None, key):
        cache.invalidate(digest=state.publication_key)
    state.publication_key = key

    state.dirty.clear()
    state.version += 1
    provenance = {
        "incremental": {
            "token": state.token,
            "version": state.version,
            "n_shards": plan.n_shards,
            "reused": list(reused),
            "recomputed": list(recomputed),
            "recomputed_rows": int(
                sum(plan.shards[i].n_rows for i in recomputed)
            ),
        }
    }
    result = RunResult(
        algorithm=state.algorithm,
        published=published,
        params=dict(state.params),
        stage_seconds=merge_stage_seconds([pieces[i] for i in recomputed]),
        provenance=provenance,
        elapsed_seconds=time.perf_counter() - start,
    )
    return RefreshRun(
        dataset,
        result,
        seed=state.seed,
        reused=reused,
        recomputed=tuple(recomputed),
        version=state.version,
    )
