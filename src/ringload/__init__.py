"""Exact arithmetic for rounding split ring routings, with certified
additive bounds, brute-force oracles, a load-equalizing instance
transform, and worst-case instance search."""

from .adversary import (
    LinearConstraint,
    MilpModel,
    MilpVariable,
    SearchResult,
    build_milp,
    builtin_instances,
    export_lp,
    heuristic_search,
    kept_selectors,
    max_feasible_performance,
    parse_lp,
    render_lp,
    seven18,
    seven18_alt,
    skutella8,
    skutella8_uniform,
    tight3,
    tight5,
    tight6,
    tight_even,
)
from .boost import (
    BoostedInstance,
    BoostReport,
    CrossingComponent,
    ShortComponent,
    boost,
    verify_boost,
)
from .core import (
    CrossingRouting,
    DeltaClass,
    LoadProfile,
    Pattern,
    RingInstance,
    additive_performance,
    split_loads,
    to_rational,
    unsplittable_loads,
)
from .errors import (
    GuaranteeViolated,
    MalformedRouting,
    ParameterOutOfRange,
    ParseError,
    RingLoadingError,
    TooLarge,
)
from .exact import (
    PerformanceOptimum,
    UnsplittableOptimum,
    min_additive_performance,
    optimal_unsplittable,
    optimal_unsplittable_boosted,
    split_optimum_boosted,
    split_optimum_crossing,
)
from .greedy import BACKWARD, FORWARD, backward_greedy, forward_greedy, is_proper
from .reduce import (
    CCW,
    CW,
    GeneralSplitRouting,
    ReductionResult,
    ReductionTrace,
    UncrossStep,
    demands_cross,
    to_crossing_form,
    uncross_parallel,
)
from .rounding import (
    BoundedRounding,
    RoundingMethod,
    closeness,
    crossover,
    induced_patterns,
    round_main,
    round_medium,
    round_upper,
    round_via_induced,
    ssw_round,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
