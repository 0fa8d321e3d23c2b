"""The algorithm registry: one uniform entry point for every scheme.

An :class:`Anonymizer` packages an algorithm's default parameters and
its staged pipeline.  Implementations register themselves with
:func:`register`, after which ``engine.run(name, table, **params)``
dispatches uniformly — the CLI, experiments and benchmarks all share
this single dispatch layer instead of hand-wiring imports.  A run only
anonymizes: store admission goes through
:meth:`repro.api.AnonymizationRun.publish`.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

from ..dataset.table import Table
from .pipeline import Pipeline, RunResult, StageFn


@runtime_checkable
class Anonymizer(Protocol):
    """One registered publication scheme.

    Attributes:
        name: Registry key (``"burel"``, ``"sabre"``, ...).
        defaults: Complete parameter set with default values; ``run``
            rejects parameters outside this set so typos fail loudly.
    """

    name: str
    defaults: Mapping[str, Any]

    def stages(self) -> list[tuple[str, StageFn]]:
        """The algorithm's pipeline stages in canonical order."""
        ...


_REGISTRY: dict[str, Anonymizer] = {}


def register(cls: type) -> type:
    """Class decorator adding an :class:`Anonymizer` to the registry."""
    instance = cls()
    name = instance.name
    if name in _REGISTRY:
        raise ValueError(f"algorithm {name!r} is already registered")
    _REGISTRY[name] = instance
    return cls


def get_algorithm(name: str) -> Anonymizer:
    """Look up a registered algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; registered: {algorithm_names()}"
        ) from None


def algorithm_names() -> list[str]:
    """Sorted names of all registered algorithms."""
    return sorted(_REGISTRY)


def _resolve_rng(
    rng: np.random.Generator | int | None,
) -> np.random.Generator | None:
    """Uniform rng parameter: ``None`` = deterministic, int = seed."""
    if rng is None or isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def run(
    name: str,
    table: Table,
    *,
    rng: np.random.Generator | int | None = None,
    shared: Any = None,
    telemetry=None,
    **params: Any,
) -> RunResult:
    """Anonymize ``table`` with the named algorithm.

    Args:
        name: A registered algorithm (:func:`algorithm_names`).
        table: The microdata to publish.
        rng: Uniform randomization hook — ``None`` for the algorithm's
            deterministic behaviour, an int seed, or a generator.
        shared: Optional :class:`~repro.engine.batch.PreparedTable` with
            precomputed per-table artifacts (see :func:`~repro.engine.batch.run_many`).
        telemetry: Optional :class:`repro.obs.Telemetry` receiving the
            run's per-stage spans (see :meth:`Pipeline.run`).
        **params: Algorithm parameters; unknown names are rejected.

    Returns:
        A :class:`~repro.engine.pipeline.RunResult` with the
        publication, per-stage timings and provenance.
    """
    algo = get_algorithm(name)
    if shared is not None and shared.table is not table:
        raise ValueError(
            "shared PreparedTable was built for a different table"
        )
    unknown = set(params) - set(algo.defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {name!r}; "
            f"accepted: {sorted(algo.defaults)}"
        )
    merged = {**algo.defaults, **params}
    pipeline = Pipeline(name, algo.stages())
    return pipeline.run(
        table, merged, rng=_resolve_rng(rng), shared=shared,
        telemetry=telemetry,
    )
