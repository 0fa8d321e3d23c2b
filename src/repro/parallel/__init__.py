"""Multi-process sharded execution over Hilbert-key range partitions.

The tentpole of this layer is :class:`ShardedSession`: partition a
table into contiguous Hilbert-key ranges (:class:`ShardPlan`), run
anonymization and workload evaluation per shard in a process pool (or
inline with ``workers=1`` — the same code path minus the pool), and
merge the results deterministically so, at a fixed shard count,
sharded outputs are byte-identical across worker counts (the shard
count itself shapes a publication: groups form within key ranges).  The pool's workers take the table, its Hilbert keys and the
shard row arrays once, at start-up — inherited under ``fork``, pickled
once per worker under ``spawn`` or ``forkserver`` — and each task names
only its shard: the pool runs shard tasks and nothing else.

Entry points:

* :class:`ShardedSession` / :class:`ShardedRun` — the session object
  (``shard_pieces`` is the one shard runner) and its merged run, an
  :class:`~repro.api.AnonymizationRun` folding per-shard answers.
* :class:`ShardPlan` / :class:`Shard` — the pure partition planner.

The facade exposes it as ``Dataset.anonymize(..., workers=N,
shards=M)``.  Parameter sweeps (``Dataset.sweep``) run serially through
:func:`repro.engine.batch.run_many`.
"""

from .executor import ShardedRun, ShardedSession
from .plan import Shard, ShardDiff, ShardPlan

__all__ = [
    "Shard",
    "ShardDiff",
    "ShardPlan",
    "ShardedRun",
    "ShardedSession",
]
