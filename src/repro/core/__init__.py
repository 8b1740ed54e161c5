"""repro.core — the paper's Section III contributions.

One module per challenge the paper identifies:

* :mod:`repro.core.prompts` — LLM prompt optimization (III-A): templates,
  historical prompt store over the vector database, performance-aware
  selection, budget-constrained retention.
* :mod:`repro.core.cascade` — cost-efficient LLM queries via model cascades
  (III-B1, Fig 6, Table I).
* :mod:`repro.core.decompose` — query decomposition & combination
  (III-B1, Fig 7, Table II).
* :mod:`repro.core.cache` — the semantic LLM cache (III-C, Table III).
* :mod:`repro.core.hybrid` — multi-modal hybrid query planning (III-B2).
* :mod:`repro.core.privacy` — DP training, federated fine-tuning and
  membership-inference evaluation (III-D).
* :mod:`repro.core.validation` — LLM output validation (III-E).
"""

from repro.core.cascade import CascadeClient, CascadeResult, ConfidenceDecisionModel, LearnedDecisionModel
from repro.core.cache import (
    AdmissionPredictor,
    CacheStats,
    EvictionPolicy,
    SemanticCache,
)
from repro.core.decompose import (
    CombinedPlan,
    DecomposedQuery,
    QueryOptimizer,
    shared_subquery_plan,
)
from repro.core.hybrid import AdaptiveKPredictor, HybridPlanner, LearnedOrderRouter

__all__ = [
    "AdaptiveKPredictor",
    "AdmissionPredictor",
    "CacheStats",
    "CascadeClient",
    "CascadeResult",
    "CombinedPlan",
    "ConfidenceDecisionModel",
    "DecomposedQuery",
    "EvictionPolicy",
    "HybridPlanner",
    "LearnedDecisionModel",
    "LearnedOrderRouter",
    "QueryOptimizer",
    "SemanticCache",
    "shared_subquery_plan",
]
