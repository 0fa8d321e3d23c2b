"""Engine adapters for all six publication schemes.

Each adapter maps one algorithm onto the canonical staged pipeline
(prepare → partition → allocate → materialize → publish) using the
primitive building blocks of ``repro.core`` and ``repro.anonymity``.
The historical entry points (``burel()``, ``sabre()``, ``mondrian()``,
``anatomy()``, ``lattice_search()``, ``perturb_table()``) are thin
wrappers over these adapters, so there is exactly one implementation
path per algorithm.

Shared preprocessing: when a :class:`~repro.engine.batch.PreparedTable`
is supplied (by :func:`~repro.engine.batch.run_many`), the Hilbert keys,
SA distribution and row→bucket maps of the input table are computed once
and reused across parameter settings.
"""

from __future__ import annotations

import numpy as np

from ..anonymity.anatomy import (
    anatomy_row_groups,
    assemble_anatomy,
    check_eligibility,
)
from ..anonymity.constraints import (
    beta_likeness,
    delta_disclosure,
    delta_for_beta,
    k_anonymity,
    t_closeness,
)
from ..anonymity.fulldomain import (
    default_ladders,
    minimal_satisfying_vectors,
    publish_least_loss,
)
from ..anonymity.mondrian import mondrian_groups
from ..anonymity.sabre import emd_eligibility, sabre_partition
from ..core.bucketize import dp_partition, greedy_partition
from ..core.ectree import bi_split
from ..core.model import BetaLikeness
from ..core.perturb import PerturbationScheme, PerturbedTable
from ..core.retrieve import HilbertRetriever, RandomRetriever
from ..dataset.published import publish
from ..rng import coerce_rng
from .pipeline import PipelineContext, StageFn
from .registry import register

#: The documented deterministic default for the perturbation stage:
#: ``rng=None`` randomized-responds with this fixed seed (the
#: historical behaviour, kept byte-identical).
DEFAULT_PERTURB_SEED = 0


def _sa_distribution(ctx: PipelineContext) -> np.ndarray:
    if ctx.shared is not None:
        return ctx.shared.sa_distribution()
    return ctx.table.sa_distribution()


def _hilbert_retriever(ctx: PipelineContext, partition) -> HilbertRetriever:
    """Build the Hilbert retriever, reusing batch-shared preprocessing."""
    keys = row_bucket = None
    if ctx.shared is not None:
        keys = ctx.shared.hilbert_keys()
        row_bucket = ctx.shared.row_buckets(partition)
    return HilbertRetriever(
        ctx.table, partition, rng=ctx.rng, keys=keys, row_bucket=row_bucket
    )


@register
class BurelAlgorithm:
    """BUREL generalization (§4.5): bucketize, reallocate, materialize."""

    name = "burel"
    defaults = dict(
        beta=2.0,
        enhanced=True,
        bucketizer="dp",
        retriever="hilbert",
        margin=0.5,
        balanced_split=True,
        separate=True,
    )

    def stages(self) -> list[tuple[str, StageFn]]:
        return [
            ("prepare", self._prepare),
            ("partition", self._partition),
            ("allocate", self._allocate),
            ("materialize", self._materialize),
            ("publish", self._publish),
        ]

    def _prepare(self, ctx: PipelineContext) -> None:
        model = BetaLikeness(ctx.params["beta"], enhanced=ctx.params["enhanced"])
        ctx.artifacts["model"] = model
        ctx.artifacts["probs"] = _sa_distribution(ctx)
        ctx.provenance["model"] = model

    def _partition(self, ctx: PipelineContext) -> None:
        bucketizer = ctx.params["bucketizer"]
        if bucketizer == "dp":
            partition = dp_partition(
                ctx.artifacts["probs"],
                ctx.artifacts["model"],
                margin=ctx.params["margin"],
            )
        elif bucketizer == "greedy":
            partition = greedy_partition(
                ctx.artifacts["probs"], ctx.artifacts["model"]
            )
        else:
            raise ValueError(f"unknown bucketizer {bucketizer!r}")
        ctx.artifacts["partition"] = partition
        ctx.provenance["partition"] = partition

    def _allocate(self, ctx: PipelineContext) -> None:
        partition = ctx.artifacts["partition"]
        retriever = ctx.params["retriever"]
        if retriever == "hilbert":
            retr = _hilbert_retriever(ctx, partition)
        elif retriever == "random":
            retr = RandomRetriever(ctx.table, partition, rng=ctx.rng)
        else:
            raise ValueError(f"unknown retriever {retriever!r}")
        specs = bi_split(
            partition,
            bucket_sizes=retr.bucket_sizes(),
            balanced=ctx.params["balanced_split"],
            separate=ctx.params["separate"],
        )
        ctx.artifacts["retriever"] = retr
        ctx.artifacts["specs"] = specs
        ctx.provenance["specs"] = specs

    def _materialize(self, ctx: PipelineContext) -> None:
        ctx.artifacts["groups"] = ctx.artifacts["retriever"].materialize(
            ctx.artifacts["specs"]
        )

    def _publish(self, ctx: PipelineContext) -> None:
        ctx.published = publish(ctx.table, ctx.artifacts["groups"])


@register
class SabreAlgorithm:
    """SABRE (§6.1 comparator): t-closeness bucketization + redistribution."""

    name = "sabre"
    defaults = dict(t=0.2, ordered=False)

    def stages(self) -> list[tuple[str, StageFn]]:
        return [
            ("prepare", self._prepare),
            ("partition", self._partition),
            ("allocate", self._allocate),
            ("materialize", self._materialize),
            ("publish", self._publish),
        ]

    def _prepare(self, ctx: PipelineContext) -> None:
        ctx.artifacts["probs"] = _sa_distribution(ctx)

    def _partition(self, ctx: PipelineContext) -> None:
        partition = sabre_partition(
            ctx.artifacts["probs"], ctx.params["t"], ordered=ctx.params["ordered"]
        )
        ctx.artifacts["partition"] = partition
        ctx.provenance["partition"] = partition

    def _allocate(self, ctx: PipelineContext) -> None:
        partition = ctx.artifacts["partition"]
        retr = _hilbert_retriever(ctx, partition)
        specs = bi_split(
            partition,
            eligible=emd_eligibility(
                partition,
                ctx.params["t"],
                ctx.params["ordered"],
                ctx.table.sa_cardinality,
            ),
            bucket_sizes=retr.bucket_sizes(),
        )
        ctx.artifacts["retriever"] = retr
        ctx.artifacts["specs"] = specs
        ctx.provenance["specs"] = specs

    def _materialize(self, ctx: PipelineContext) -> None:
        ctx.artifacts["groups"] = ctx.artifacts["retriever"].materialize(
            ctx.artifacts["specs"]
        )

    def _publish(self, ctx: PipelineContext) -> None:
        ctx.published = publish(ctx.table, ctx.artifacts["groups"])


def _build_constraint(ctx: PipelineContext):
    """Resolve an EC constraint from an explicit object or a named kind."""
    if ctx.params["constraint"] is not None:
        return ctx.params["constraint"]
    kind = ctx.params["kind"]
    probs = _sa_distribution(ctx)
    if kind == "beta":
        return beta_likeness(
            probs, ctx.params["beta"], enhanced=ctx.params["enhanced"]
        )
    if kind == "k":
        return k_anonymity(ctx.params["k"])
    if kind == "t":
        return t_closeness(probs, ctx.params["t"], ordered=ctx.params["ordered"])
    if kind == "delta":
        return delta_disclosure(probs, delta_for_beta(probs, ctx.params["beta"]))
    raise ValueError(f"unknown constraint kind {kind!r}")


@register
class MondrianAlgorithm:
    """Strict multidimensional Mondrian with a pluggable EC constraint."""

    name = "mondrian"
    defaults = dict(
        constraint=None,
        kind="beta",
        beta=2.0,
        enhanced=True,
        k=10,
        t=0.2,
        ordered=False,
        try_all_dims=False,
    )

    def stages(self) -> list[tuple[str, StageFn]]:
        return [
            ("prepare", self._prepare),
            ("partition", self._partition),
            ("publish", self._publish),
        ]

    def _prepare(self, ctx: PipelineContext) -> None:
        constraint = _build_constraint(ctx)
        ctx.artifacts["constraint"] = constraint
        ctx.provenance["constraint"] = constraint

    def _partition(self, ctx: PipelineContext) -> None:
        ctx.artifacts["groups"] = mondrian_groups(
            ctx.table,
            ctx.artifacts["constraint"],
            try_all_dims=ctx.params["try_all_dims"],
        )

    def _publish(self, ctx: PipelineContext) -> None:
        ctx.published = publish(ctx.table, ctx.artifacts["groups"])


@register
class FullDomainAlgorithm:
    """Full-domain generalization with Incognito-style lattice search."""

    name = "fulldomain"
    defaults = dict(
        constraint=None,
        kind="k",
        beta=2.0,
        enhanced=True,
        k=10,
        t=0.2,
        ordered=False,
        ladders=None,
    )

    def stages(self) -> list[tuple[str, StageFn]]:
        return [
            ("prepare", self._prepare),
            ("partition", self._partition),
            ("publish", self._publish),
        ]

    def _prepare(self, ctx: PipelineContext) -> None:
        ladders = ctx.params["ladders"]
        if ladders is None:
            ladders = default_ladders(ctx.table.schema)
        ctx.artifacts["ladders"] = ladders
        ctx.artifacts["constraint"] = _build_constraint(ctx)
        ctx.provenance["constraint"] = ctx.artifacts["constraint"]

    def _partition(self, ctx: PipelineContext) -> None:
        minimal, evaluated, lattice_size = minimal_satisfying_vectors(
            ctx.table, ctx.artifacts["constraint"], ctx.artifacts["ladders"]
        )
        ctx.artifacts["minimal"] = minimal
        ctx.provenance["minimal_vectors"] = minimal
        ctx.provenance["nodes_evaluated"] = evaluated
        ctx.provenance["lattice_size"] = lattice_size

    def _publish(self, ctx: PipelineContext) -> None:
        vector, published = publish_least_loss(
            ctx.table, ctx.artifacts["ladders"], ctx.artifacts["minimal"]
        )
        ctx.provenance["vector"] = vector
        ctx.published = published


@register
class AnatomyAlgorithm:
    """ℓ-diverse Anatomy publication (Xiao & Tao)."""

    name = "anatomy"
    defaults = dict(l=2)

    def stages(self) -> list[tuple[str, StageFn]]:
        return [
            ("prepare", self._prepare),
            ("partition", self._partition),
            ("publish", self._publish),
        ]

    def _prepare(self, ctx: PipelineContext) -> None:
        check_eligibility(ctx.table, ctx.params["l"])

    def _partition(self, ctx: PipelineContext) -> None:
        ctx.artifacts["group_rows"] = anatomy_row_groups(
            ctx.table, ctx.params["l"], rng=ctx.rng
        )

    def _publish(self, ctx: PipelineContext) -> None:
        ctx.published = assemble_anatomy(
            ctx.table, ctx.artifacts["group_rows"], ctx.params["l"]
        )


@register
class PerturbAlgorithm:
    """Section 5 perturbation: per-value randomized response over the SA."""

    name = "perturb"
    defaults = dict(beta=2.0, enhanced=True)

    def stages(self) -> list[tuple[str, StageFn]]:
        return [
            ("prepare", self._prepare),
            ("materialize", self._materialize),
            ("publish", self._publish),
        ]

    def _prepare(self, ctx: PipelineContext) -> None:
        scheme = PerturbationScheme.fit(
            _sa_distribution(ctx),
            ctx.params["beta"],
            enhanced=ctx.params["enhanced"],
        )
        ctx.artifacts["scheme"] = scheme
        ctx.provenance["scheme"] = scheme

    def _materialize(self, ctx: PipelineContext) -> None:
        rng = coerce_rng(
            ctx.rng if ctx.rng is not None else DEFAULT_PERTURB_SEED,
            "perturb.materialize",
        )
        ctx.artifacts["sa_perturbed"] = ctx.artifacts["scheme"].perturb(
            ctx.table.sa, rng
        )

    def _publish(self, ctx: PipelineContext) -> None:
        ctx.published = PerturbedTable(
            source=ctx.table,
            sa_perturbed=ctx.artifacts["sa_perturbed"],
            scheme=ctx.artifacts["scheme"],
        )
