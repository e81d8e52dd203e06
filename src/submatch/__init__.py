"""Sublinear-query estimation of min-weight bipartite matching with
outliers, and of Earth Mover's Distance, over arbitrary cost matrices."""

from .core import (
    BipartiteInstance, CostOracle, MatchingOracle, PotentialOracle,
    MembershipOracle, read_instance, write_instance,
)
from .mcm import Backend, SubroutineParams, backend_query_budget
from .template import TemplateParams, run_template
from .pipeline import (
    ReductionConfig, estimate_min_weight_matching, max_matching_under_budget,
)
from .emd import DiscreteDistribution, estimate_emd, sample_complexity
from . import baseline, generators

__version__ = "0.1.0"

__all__ = [
    "BipartiteInstance", "CostOracle", "MatchingOracle", "PotentialOracle",
    "MembershipOracle", "read_instance", "write_instance",
    "Backend", "SubroutineParams", "backend_query_budget",
    "TemplateParams", "run_template",
    "ReductionConfig", "estimate_min_weight_matching", "max_matching_under_budget",
    "DiscreteDistribution", "estimate_emd", "sample_complexity",
    "baseline", "generators",
]
