"""Discrete-event simulation: engine, single-device and distributed timing."""

from .collectives import AllreduceModel, flat_exchange_time, phased_groups
from .distributed_sim import (
    CostPerfPoint,
    DpKarmaResult,
    HybridResult,
    LmWorkload,
    dp_karma_cnn,
    dp_scaling_cnn,
    hybrid_mp_dp_lm,
    simulate_dp_karma_lm,
)
from .engine import (
    ScheduleBuilder,
    SimOp,
    SimResult,
    SimulationDeadlock,
    simulate,
)
from .reference_engine import simulate_reference
from .stall import StallProfile, compare_profiles, stall_profile
from .zero_model import ZeroConfig, karma_plus_zero_lm, zero_hybrid_lm, zero_min_gpus
from .trainer_sim import (
    BlockCosts,
    IterationResult,
    LoweringCache,
    OutOfCoreInfeasible,
    StructureCache,
    bind_costs,
    block_costs,
    compile_plan,
    compile_skeleton,
    simulate_plan,
)

__all__ = [
    "simulate", "simulate_reference",
    "SimOp", "SimResult", "SimulationDeadlock", "ScheduleBuilder",
    "simulate_plan", "compile_plan", "compile_skeleton", "bind_costs",
    "block_costs", "BlockCosts", "LoweringCache", "StructureCache",
    "StallProfile", "stall_profile", "compare_profiles",
    "IterationResult", "OutOfCoreInfeasible",
    "AllreduceModel", "phased_groups", "flat_exchange_time",
    "simulate_dp_karma_lm", "hybrid_mp_dp_lm", "DpKarmaResult",
    "HybridResult", "LmWorkload", "dp_scaling_cnn", "dp_karma_cnn",
    "CostPerfPoint", "ZeroConfig", "zero_min_gpus", "zero_hybrid_lm",
    "karma_plus_zero_lm",
]
