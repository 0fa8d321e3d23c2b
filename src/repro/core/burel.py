"""BUREL: BUcketization and REallocation for β-Likeness (Section 4.5).

The end-to-end generalization algorithm of the paper:

1. **Bucketization** — ``DPpartition`` groups SA values into the fewest
   buckets compatible with Lemma 2.
2. **Reallocation** — ``biSplit`` builds the ECTree and fixes how many
   tuples each EC draws from each bucket (Theorem 1 eligibility).
3. **Materialization** — a retriever (Hilbert-curve by default) picks
   concrete, QI-space-local tuples for each EC.

The output satisfies (enhanced) β-likeness *by construction*: every EC's
per-bucket share is capped by ``f(p_{ℓ_j})``, which upper-bounds every
member value's in-EC frequency (Theorem 1's proof).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.published import GeneralizedTable
from ..dataset.table import Table
from .bucketize import BucketPartition
from .model import BetaLikeness


@dataclass
class BurelResult:
    """Everything BUREL produced, for inspection and experiments."""

    published: GeneralizedTable
    partition: BucketPartition
    specs: list[np.ndarray]
    model: BetaLikeness
    elapsed_seconds: float


def burel(
    table: Table,
    beta: float,
    enhanced: bool = True,
    bucketizer: str = "dp",
    retriever: str = "hilbert",
    margin: float = 0.5,
    balanced_split: bool = True,
    separate: bool = True,
    rng: np.random.Generator | None = None,
) -> BurelResult:
    """Anonymize ``table`` to satisfy (enhanced) β-likeness.

    Args:
        table: The microdata to publish.
        beta: The β threshold (> 0).
        enhanced: Use enhanced β-likeness (Definition 3; the default) or
            the basic model (Definition 2).
        bucketizer: ``"dp"`` for the paper's DPpartition, ``"greedy"``
            for the first-fit ablation.
        retriever: ``"hilbert"`` for the paper's locality heuristic,
            ``"random"`` for the no-locality ablation.
        margin: Bucketization saturation margin (see
            :func:`~repro.core.bucketize.dp_partition`).  The default 0.5
            keeps 50% headroom under each bucket's cap so the ECTree can
            split deeply (calibrated in EXPERIMENTS.md; the ablation
            bench sweeps it); pass 0 for the paper-verbatim condition.
        balanced_split: Distribute rounding remainders across ECTree
            children (default) instead of the paper's all-to-the-right
            rule; see :func:`~repro.core.ectree.balanced_halve`.
        separate: Allow separating splits that quarantine cap-constrained
            buckets when halving stalls (default); see
            :func:`~repro.core.ectree.separating_split`.  Disable
            together with ``balanced_split`` and ``margin=0`` for the
            paper-verbatim pipeline.
        rng: Optional generator; with the Hilbert retriever it randomizes
            seed tuples as the paper describes, with the random retriever
            it shuffles draws.  ``None`` means deterministic for both
            retrievers (sweep / row-order draws respectively).

    Returns:
        A :class:`BurelResult`; ``result.published`` is the
        :class:`~repro.dataset.published.GeneralizedTable`.

    This wrapper routes through the staged engine (``repro.engine``),
    which is the single implementation path; it keeps the historical
    call shape and result type.
    """
    from ..engine import run as engine_run

    result = engine_run(
        "burel",
        table,
        rng=rng,
        beta=beta,
        enhanced=enhanced,
        bucketizer=bucketizer,
        retriever=retriever,
        margin=margin,
        balanced_split=balanced_split,
        separate=separate,
    )
    return BurelResult(
        published=result.published,
        partition=result.provenance["partition"],
        specs=result.provenance["specs"],
        model=result.provenance["model"],
        elapsed_seconds=result.elapsed_seconds,
    )

