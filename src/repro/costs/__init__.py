"""Cost models: analytic FLOPs (§III-C), memory classes (§III-D), profiling."""

from .calibration import (
    OPTIMIZER_SLOTS,
    PROFILED_ACT_FACTOR,
    act_factor_for,
    optimizer_slots_for,
)
from .flops import (
    BACKWARD_FACTOR,
    backward_flops,
    forward_flops,
    graph_forward_flops,
    graph_param_count,
    param_count,
)
from .memory import (
    DTYPE_BYTES,
    BlockMemory,
    LayerMemory,
    block_memory,
    fits_in_core,
    layer_memory,
    max_in_core_batch,
    model_memory_total,
    projected_memory,
)
from .profiler import CostModel, LayerCost, profile_graph
from .trace_fit import (
    CALIBRATION_SCHEMA_VERSION,
    CalibrationArtifact,
    LinkFit,
    fit_link,
    fit_op_scales,
    fit_trace,
    fit_validation_report,
    merge_artifacts,
)

__all__ = [
    "forward_flops", "backward_flops", "param_count", "BACKWARD_FACTOR",
    "graph_forward_flops", "graph_param_count",
    "DTYPE_BYTES", "LayerMemory", "BlockMemory", "layer_memory",
    "block_memory", "model_memory_total", "fits_in_core",
    "max_in_core_batch", "projected_memory",
    "CostModel", "LayerCost", "profile_graph",
    "CALIBRATION_SCHEMA_VERSION", "CalibrationArtifact", "LinkFit",
    "fit_link", "fit_op_scales", "fit_trace", "fit_validation_report",
    "merge_artifacts",
    "PROFILED_ACT_FACTOR", "OPTIMIZER_SLOTS", "act_factor_for",
    "optimizer_slots_for",
]
