"""Two-stage pricing for per-prompt generative-AI services.

Users pick a model and a prompt budget to maximize their own payoff;
the platform, anticipating that, prices prompts per model.  The package
solves both stages: closed-form user strategies, closed-form pricing for
a homogeneous user base, search-based pricing under an ambiguity
distribution, benchmark mechanisms, and brute-force oracles that certify
the solvers.
"""

from .core import (
    ConfigError,
    DegenerateCostBase,
    GaiModel,
    InvalidAmbiguity,
    InvalidDistribution,
    InvalidModel,
    InvalidPrice,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    QuadratureConfig,
    SchedulePriceMissing,
    TabulatedAmbiguity,
    UnboundedDemand,
    UniformAmbiguity,
)
from .evaluation import PricingOutcome, platform_payoff
from .heterogeneous import (
    OppConfig,
    cost_based_pricing,
    grid_oracle,
    opp,
    single_model_price,
    utility_based_pricing,
)
from .homogeneous import (
    CostShape,
    CurvePoint,
    HomogeneousSolution,
    classify_cost_shape,
    homogeneous_payoff_curve,
    induced_prompt_count,
    optimal_homogeneous_price,
)
from .user_strategy import (
    UNBOUNDED,
    PromptShape,
    UserDecision,
    classify_prompt_shape,
    optimal_prompt_count,
    optimal_user_payoff,
    price_upper_bound,
    prompt_upper_bound,
    select_model,
    user_payoff,
)

__all__ = [
    "ConfigError",
    "CostShape",
    "CurvePoint",
    "DegenerateCostBase",
    "GaiModel",
    "HomogeneousSolution",
    "InvalidAmbiguity",
    "InvalidDistribution",
    "InvalidModel",
    "InvalidPrice",
    "ModelSet",
    "OppConfig",
    "PriceSchedule",
    "PricingOutcome",
    "PromptPricingError",
    "PromptShape",
    "QuadratureConfig",
    "SchedulePriceMissing",
    "TabulatedAmbiguity",
    "UNBOUNDED",
    "UnboundedDemand",
    "UniformAmbiguity",
    "UserDecision",
    "classify_cost_shape",
    "classify_prompt_shape",
    "cost_based_pricing",
    "grid_oracle",
    "homogeneous_payoff_curve",
    "induced_prompt_count",
    "opp",
    "optimal_homogeneous_price",
    "optimal_prompt_count",
    "optimal_user_payoff",
    "platform_payoff",
    "price_upper_bound",
    "prompt_upper_bound",
    "select_model",
    "single_model_price",
    "user_payoff",
    "utility_based_pricing",
]

__version__ = "0.1.0"
