"""Mechanism-design engine and verification harness for combinatorial cost sharing.

Two mechanisms: an iterative ascending cost-sharing mechanism for symmetric
submodular valuations with separable costs, and the sequential mechanism for
general valuations with separable or non-separable costs. Around them:
exact-arithmetic cost/valuation models, exhaustive class checkers, brute-force
estimators for the average-cost-share parameterizations, social-cost optima,
and a coalition-misreport falsification search.
"""

from .core import (Allocation, AllocationCostFn, DimensionMismatchError,
                   GroundSetTooLargeError, Instance, Outcome, Rat,
                   SeparableCosts, SetFunction, Trace, allocation_cost,
                   harmonic, restrict_allocation)
from .valuations import (SymmetricSubmodularValuation, TableValuation,
                         ValuationFn, check_class)
from .costs import (AlphaReport, InfeasibleCoverError, alpha_average_decreasing,
                    alpha_max_bounded, alpha_max_bounded_ns, alpha_min_bounded,
                    alpha_min_bounded_ns, matching_cost, set_cover_cost,
                    table_cost, vertex_cover_cost)
from .mechanisms import (MechanismPreconditionError, greedy_bundle, iacsm_run,
                         incremental_costs, sm_run, verify_final_set_structure,
                         verify_p1, verify_p2)
from .analysis import (DeviationWitness, RunReport, check_icb_bound,
                       evaluate_run, optimal_social_cost, social_cost,
                       wgsp_search)

__version__ = "0.1.0"
