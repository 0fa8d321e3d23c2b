"""The staged anonymization pipeline and its uniform result record.

Every publication scheme in this repository — the paper's BUREL and
perturbation, and the comparators (SABRE, the Mondrian family, Anatomy,
full-domain/Incognito) — shares one shape:

    prepare → partition → allocate → materialize → publish

``prepare`` derives distributions/models/constraints from the input,
``partition`` groups SA values or cuts the QI space, ``allocate`` fixes
how many tuples each output group draws (the ECTree phase), ``materialize``
picks concrete tuples, and ``publish`` assembles the output format.  Not
every algorithm has every stage (Mondrian has no allocation; perturbation
has no partition); adapters declare the stages they use and the engine
times each one, so per-stage provenance is comparable across algorithms.
A run ends with its :class:`RunResult`; store admission is the next
step, :meth:`repro.api.AnonymizationRun.publish`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..dataset.table import Table
from ..obs import Telemetry

#: Canonical stage names, in execution order.
STAGES = ("prepare", "partition", "allocate", "materialize", "publish")


@dataclass
class PipelineContext:
    """Mutable scratchpad threaded through a pipeline's stages.

    Attributes:
        table: The input microdata.
        params: Resolved algorithm parameters (defaults merged with the
            caller's overrides).
        rng: The uniform randomization hook; ``None`` means the
            algorithm's deterministic behaviour.
        shared: Optional :class:`~repro.engine.batch.PreparedTable`
            carrying per-table preprocessing reused across a batch.
        artifacts: Stage outputs handed to later stages.
        provenance: What the run wants recorded on the
            :class:`RunResult` (partition, specs, model, ...).
        published: The final publication, set by the last stage.
    """

    table: Table
    params: dict[str, Any]
    rng: np.random.Generator | None = None
    shared: Any = None
    artifacts: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    published: Any = None


#: One stage: a side-effecting callable over the context.
StageFn = Callable[[PipelineContext], None]


@dataclass(frozen=True)
class RunResult:
    """Uniform outcome of one engine run.

    Attributes:
        algorithm: Registry name of the algorithm that ran.
        published: The publication (a
            :class:`~repro.dataset.published.GeneralizedTable`,
            :class:`~repro.core.perturb.PerturbedTable` or
            :class:`~repro.anonymity.anatomy.AnatomyTable`, depending on
            the algorithm).
        params: The fully resolved parameters the run used.
        stage_seconds: Wall-clock seconds per executed stage, in
            execution order.
        provenance: Algorithm-specific intermediates (bucket partition,
            EC specs, privacy model, transition scheme, ...).
        elapsed_seconds: Total wall-clock time of the run.
    """

    algorithm: str
    published: Any
    params: dict[str, Any]
    stage_seconds: dict[str, float]
    provenance: dict[str, Any]
    elapsed_seconds: float

    @property
    def n_classes(self) -> int:
        """Number of published groups (when the format has groups)."""
        return len(self.published)


class Pipeline:
    """An ordered sequence of named stages for one algorithm."""

    def __init__(self, algorithm: str, stages: Sequence[tuple[str, StageFn]]):
        for name, _ in stages:
            if name not in STAGES:
                raise ValueError(
                    f"unknown stage {name!r}; expected one of {STAGES}"
                )
        order = {name: i for i, name in enumerate(STAGES)}
        indices = [order[name] for name, _ in stages]
        if indices != sorted(indices):
            raise ValueError("stages must follow the canonical order")
        self.algorithm = algorithm
        self.stages = list(stages)

    def run(
        self,
        table: Table,
        params: Mapping[str, Any],
        rng: np.random.Generator | None = None,
        shared: Any = None,
        telemetry: "Telemetry | None" = None,
    ) -> RunResult:
        """Execute the stages in order, one span per stage.

        ``telemetry``, when given and enabled, receives the run's spans
        (``engine.run`` wrapping one ``engine.<stage>`` per executed
        stage).  :attr:`RunResult.stage_seconds` is *derived from those
        spans* either way: a disabled/absent telemetry gets a private
        run-scoped tracer, so the result record is identical in shape
        and the session trace only gains spans when asked to.
        """
        if table.n_rows == 0:
            raise ValueError("cannot anonymize an empty table")
        tel = (
            telemetry
            if telemetry is not None and telemetry.enabled
            else Telemetry()
        )
        ctx = PipelineContext(
            table=table, params=dict(params), rng=rng, shared=shared
        )
        stage_seconds: dict[str, float] = {}
        with tel.span(
            "engine.run", algorithm=self.algorithm, rows=table.n_rows
        ) as root:
            for name, fn in self.stages:
                with tel.span(f"engine.{name}") as span:
                    fn(ctx)
                stage_seconds[name] = span.duration
        elapsed = root.duration
        if ctx.published is None:
            raise RuntimeError(
                f"pipeline {self.algorithm!r} finished without publishing"
            )
        return RunResult(
            algorithm=self.algorithm,
            published=ctx.published,
            params=ctx.params,
            stage_seconds=stage_seconds,
            provenance=ctx.provenance,
            elapsed_seconds=elapsed,
        )
