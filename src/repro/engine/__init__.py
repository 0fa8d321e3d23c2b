"""Unified staged anonymization engine.

One dispatch layer for every publication scheme in the repository::

    from repro.engine import run, run_many, algorithm_names

    result = run("burel", table, beta=2.0)          # RunResult
    result.published                                 # GeneralizedTable
    result.stage_seconds                             # per-stage timings
    result.provenance["partition"]                   # bucket partition

    results = run_many(table, [("burel", {"beta": b}) for b in (1, 2, 4)])

Algorithms are registered via the :func:`~repro.engine.registry.register`
decorator (see ``repro.engine.algorithms`` for the six built-ins: burel,
sabre, mondrian, anatomy, fulldomain, perturb); each run executes the
canonical staged pipeline — prepare → partition → allocate →
materialize → publish — and returns a uniform
:class:`~repro.engine.pipeline.RunResult` carrying the publication,
per-stage wall-clock timings and provenance (partition, EC specs,
privacy model, parameters).  :func:`~repro.engine.batch.run_many` shares
per-table preprocessing (Hilbert keys, SA distribution, row→bucket
maps) across a batch of parameter settings.

The uniform ``rng`` contract: ``rng=None`` means the algorithm's
deterministic behaviour; pass an int seed or a generator to randomize.
"""

from .batch import EngineJob, PreparedTable, run_many
from .pipeline import STAGES, Pipeline, PipelineContext, RunResult
from .registry import Anonymizer, algorithm_names, get_algorithm, register, run
from .shard import ShardPiece, merge_pieces, prepare_shard, run_shard

# Importing the adapters populates the registry.
from . import algorithms  # noqa: E402,F401  # isort: skip

__all__ = [
    "STAGES",
    "Pipeline",
    "PipelineContext",
    "RunResult",
    "Anonymizer",
    "algorithm_names",
    "get_algorithm",
    "register",
    "run",
    "EngineJob",
    "PreparedTable",
    "run_many",
    "ShardPiece",
    "merge_pieces",
    "prepare_shard",
    "run_shard",
]
