"""Multi-process sharded execution over Hilbert-key range partitions.

The tentpole of this layer is :class:`ShardedSession`: partition a
table into contiguous Hilbert-key ranges (:class:`ShardPlan`), run
anonymization / audit metrics / workload evaluation per shard in a
process pool (or inline with ``workers=1`` — the same code path minus
the pool), and merge the results deterministically so, at a fixed
shard count, sharded outputs are byte-identical across worker counts
(the shard count itself shapes a publication: groups form within key
ranges).  The pool's workers take the table, its Hilbert keys and the
shard row arrays once, at start-up — inherited under ``fork``, pickled
once per worker under ``spawn`` or ``forkserver`` — and each task names
only its shard.

Entry points:

* :class:`ShardedSession` / :class:`ShardedRun` — the session object and
  its merged-run handle (``anonymize`` → ``audit`` / ``evaluate`` /
  ``publish``).
* :func:`sweep_jobs` — job-level parallelism for parameter sweeps (one
  whole-table engine run per process).
* :class:`ShardPlan` / :class:`Shard` — the pure partition planner.

The facade exposes the common paths directly:
``Dataset.anonymize(..., workers=N)`` and ``Dataset.sweep(specs,
workers=N)``.
"""

from .executor import ShardedRun, ShardedSession, sweep_jobs
from .plan import Shard, ShardDiff, ShardPlan

__all__ = [
    "Shard",
    "ShardDiff",
    "ShardPlan",
    "ShardedRun",
    "ShardedSession",
    "sweep_jobs",
]
