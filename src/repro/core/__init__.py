"""KARMA core: occupancy model, blocking, recompute interleave, planner."""

from .blocking import (
    BlockingInputs,
    BlockingResult,
    CandidateEvaluator,
    assign_policies,
    build_inputs,
    segment_graph,
    solve_blocking,
)
from .occupancy import (
    OccupancyEstimate,
    catch_up_step,
    estimate_blocking,
    occupancy,
    swap_in_throughput,
)
from .planner import KarmaPlan, plan
from .recompute import RecomputeResult, admissible, apply_recompute
from .schedule import (
    BlockPolicy,
    ExecutionPlan,
    Op,
    OpKind,
    PlanValidationError,
    Resource,
    Stage,
    single_block_plan,
)
from .solver import (
    SOLVER_VERSION,
    PartitionProblem,
    PortfolioResult,
    RejectedCandidate,
    local_search,
    portfolio_search,
    solve_dp,
)
from .stages import generate_stages, make_plan

__all__ = [
    "plan", "KarmaPlan",
    "ExecutionPlan", "Stage", "Op", "OpKind", "Resource", "BlockPolicy",
    "PlanValidationError", "single_block_plan",
    "generate_stages", "make_plan",
    "solve_blocking", "BlockingResult", "BlockingInputs", "build_inputs",
    "segment_graph", "assign_policies", "CandidateEvaluator",
    "apply_recompute", "RecomputeResult", "admissible",
    "occupancy", "swap_in_throughput", "catch_up_step", "estimate_blocking",
    "OccupancyEstimate",
    "PartitionProblem", "solve_dp", "local_search",
    "portfolio_search", "PortfolioResult", "RejectedCandidate",
    "SOLVER_VERSION",
]
