"""The paper's contribution: MUC baseline and pivot-based enumerators."""

from repro.core.api import (
    ALGORITHMS,
    enumerate_maximal_cliques,
    maximal_clique_counts,
    maximum_eta_clique,
)
from repro.core.config import (
    BACKEND_CHOICES,
    KPIVOT_CHOICES,
    MPIVOT_CHOICES,
    ORDERING_CHOICES,
    PIVOT_CHOICES,
    PMUC_CONFIG,
    PMUC_PLUS_CONFIG,
    REDUCTION_CHOICES,
    PivotConfig,
)
from repro.core.dynamic import DynamicCliqueIndex
from repro.core.maximum import maximum_k_eta_clique, top_r_maximal_cliques
from repro.core.muc import muc
from repro.core.partition import (
    enumerate_parallel,
    enumerate_partitioned,
    seed_partitions,
)
from repro.core.session import CliqueQuerySession
from repro.core.verify import VerificationReport, verify_enumeration
from repro.core.pmuc import PivotEnumerator, pmuc, pmuc_plus, reduce_graph
from repro.core.pivot import PivotContext, STRATEGIES, get_strategy
from repro.core.stats import CliqueList, EnumerationResult, SearchStats

__all__ = [
    "ALGORITHMS",
    "enumerate_maximal_cliques",
    "maximal_clique_counts",
    "maximum_eta_clique",
    "PivotConfig",
    "PMUC_CONFIG",
    "PMUC_PLUS_CONFIG",
    "ORDERING_CHOICES",
    "PIVOT_CHOICES",
    "MPIVOT_CHOICES",
    "KPIVOT_CHOICES",
    "REDUCTION_CHOICES",
    "BACKEND_CHOICES",
    "reduce_graph",
    "DynamicCliqueIndex",
    "maximum_k_eta_clique",
    "top_r_maximal_cliques",
    "muc",
    "enumerate_parallel",
    "enumerate_partitioned",
    "seed_partitions",
    "CliqueQuerySession",
    "VerificationReport",
    "verify_enumeration",
    "pmuc",
    "pmuc_plus",
    "PivotEnumerator",
    "PivotContext",
    "STRATEGIES",
    "get_strategy",
    "CliqueList",
    "EnumerationResult",
    "SearchStats",
]
