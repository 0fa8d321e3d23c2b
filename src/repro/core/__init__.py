"""The paper's primary contribution: β-likeness, BUREL and perturbation."""

from .bucketize import BucketPartition, dp_partition, greedy_partition
from .burel import BurelResult, burel
from .ectree import (
    ECTree,
    balanced_halve,
    beta_eligibility,
    bi_split,
    build_ectree,
    naive_halve,
    separating_split,
)
from .model import BetaLikeness, TOLERANCE
from .perturb import PerturbationScheme, PerturbedTable, perturb_table
from .retrieve import HilbertRetriever, RandomRetriever

__all__ = [
    "BetaLikeness",
    "TOLERANCE",
    "BucketPartition",
    "dp_partition",
    "greedy_partition",
    "ECTree",
    "balanced_halve",
    "beta_eligibility",
    "bi_split",
    "build_ectree",
    "naive_halve",
    "separating_split",
    "HilbertRetriever",
    "RandomRetriever",
    "BurelResult",
    "burel",
    "PerturbationScheme",
    "PerturbedTable",
    "perturb_table",
]
