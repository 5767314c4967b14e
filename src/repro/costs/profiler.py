"""Offline profiling: the cost tables KARMA's planner consumes (Fig. 1, step 2).

The paper gathers metadata three ways — static analysis (FLOP formulas),
device query (hardware spec), and instrumentation/benchmarks (empirical
memory via ``memory_stats()``) — and profiles a model *once*, then
projects its memory classes and compute times across batch sizes
(§III-D).  The code splits the same way: a graph's batch-independent
:class:`StaticProfile` is built once per graph, and :class:`CostModel` is
its projection to one batch size, a handful of array operations.  Prefix
sums make any contiguous block's cost an O(1) query — the blocking DP
evaluates O(L^2) candidate blocks, so this matters for ResNet-1001.

An optional calibration hook rescales analytic times toward measured ones
(the numeric engine's wall-clock profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..graph.layer_graph import LayerGraph
from ..hardware.interconnect import TransferModel
from ..hardware.spec import DeviceSpec
from .flops import BACKWARD_FACTOR, DEFAULT_BACKWARD_FACTOR, forward_flops, \
    param_count
from .memory import DTYPE_BYTES, WORKSPACE_FACTOR, BlockMemory, LayerMemory


@dataclass(frozen=True)
class LayerCost:
    """One layer's compute times and memory footprint at a fixed batch."""

    index: int
    name: str
    fw_time: float
    bw_time: float
    memory: LayerMemory


@dataclass(frozen=True, eq=False)
class StaticProfile:
    """The batch-independent, per-sample cost facts of a graph's layers.

    One read-only array per fact, indexed like the graph, filled by the
    scalar formulas of :mod:`repro.costs.flops` and
    :mod:`repro.costs.memory`.  A graph builds it once
    (:meth:`LayerGraph.static_profile
    <repro.graph.layer_graph.LayerGraph.static_profile>`).
    """

    params: np.ndarray        # param_count (int64)
    input_elems: np.ndarray   # per-sample input elements (int64)
    output_elems: np.ndarray  # per-sample output elements (int64)
    fw_flops: np.ndarray      # per-sample forward FLOPs
    bw_factor: np.ndarray     # backward / forward FLOPs
    ws_factor: np.ndarray     # workspace / activation bytes

    @classmethod
    def of(cls, graph: LayerGraph) -> "StaticProfile":
        specs = list(graph)
        profile = cls(
            params=np.array([param_count(s) for s in specs], dtype=np.int64),
            input_elems=np.array([s.input_elems for s in specs],
                                 dtype=np.int64),
            output_elems=np.array([s.output_elems for s in specs],
                                  dtype=np.int64),
            fw_flops=np.array([forward_flops(s) for s in specs], dtype=float),
            bw_factor=np.array(
                [BACKWARD_FACTOR.get(s.kind, DEFAULT_BACKWARD_FACTOR)
                 for s in specs], dtype=float),
            ws_factor=np.array([WORKSPACE_FACTOR.get(s.kind, 0.0)
                                for s in specs], dtype=float),
        )
        for f in fields(profile):
            getattr(profile, f.name).flags.writeable = False
        return profile


def check_op_scales(scales: Mapping[str, float]) -> None:
    """Raise ``ValueError`` naming the first layer whose compute-time
    scale is not finite and > 0 — the rule
    :func:`~repro.costs.trace_fit.fit_op_scales` applies to its own fits.
    Any other scale corrupts every block time summed over that layer."""
    for name, scale in scales.items():
        if not 0 < scale < math.inf:
            raise ValueError(f"calibration scale for layer {name!r} must be "
                             f"finite and > 0, got {scale!r}")


class CostModel:
    """Per-layer and per-block cost oracle for one (model, device, batch).

    The graph's :class:`StaticProfile` projected to ``batch_size``: each
    array is computed with the same float operations, in the same order,
    as :func:`~repro.costs.memory.layer_memory`,
    :func:`~repro.costs.flops.forward_flops`/``backward_flops`` and
    :meth:`DeviceSpec.compute_time` applied layer by layer, so every value
    equals the scalar formulas'.  Per-layer records are built on demand.

    All block queries are over half-open index ranges ``[start, end)`` in
    the graph's topological order, matching the planner's block definition.
    """

    def __init__(self, graph: LayerGraph, device: DeviceSpec,
                 transfer: TransferModel, batch_size: int,
                 dtype_bytes: int = DTYPE_BYTES,
                 calibration: Optional[Dict[str, float]] = None,
                 act_factor: float = 1.0,
                 optimizer_slots: float = 1.0):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < act_factor < math.inf:
            raise ValueError("act_factor must be positive and finite")
        check_op_scales(calibration or {})
        self.graph = graph
        self.device = device
        self.transfer = transfer
        self.batch_size = batch_size
        self.dtype_bytes = dtype_bytes
        self.act_factor = act_factor
        self.optimizer_slots = optimizer_slots

        self.calibration: Dict[str, float] = dict(calibration or {})

        prof = graph.static_profile()
        # layer_memory: weight_grads == weights, activation_grads ==
        # activations, so one array serves each pair
        weights = prof.params * dtype_bytes
        inputs = (prof.input_elems * batch_size * dtype_bytes
                  * act_factor).astype(np.int64)
        acts = (prof.output_elems * batch_size * dtype_bytes
                * act_factor).astype(np.int64)
        self._workspaces = (prof.ws_factor * acts).astype(np.int64)
        bytes_fw = inputs + acts + weights
        bytes_bw = bytes_fw + acts + weights
        fw_flops = prof.fw_flops * batch_size
        fw = device.compute_times(fw_flops, bytes_fw)
        bw = device.compute_times(fw_flops * prof.bw_factor, bytes_bw)
        if calibration:
            scale = np.array([calibration.get(s.name, 1.0) for s in graph],
                             dtype=float)
            fw = fw * scale
            bw = bw * scale
        self._fw, self._bw = fw, bw
        self._weights, self._inputs, self._acts = weights, inputs, acts
        # prefix sums (index 0 is the empty prefix)
        self._fw_prefix = np.concatenate([[0.0], np.cumsum(fw)])
        self._bw_prefix = np.concatenate([[0.0], np.cumsum(bw)])
        self._w_prefix = np.concatenate([[0], np.cumsum(weights)])
        self._a_prefix = np.concatenate([[0], np.cumsum(acts)])

    # -- per-layer ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fw)

    def layer(self, i: int) -> LayerCost:
        # range() turns a negative i into the record's index, or raises
        return LayerCost(range(len(self))[i], self.graph[i].name,
                         self.fw_time(i), self.bw_time(i), self.layer_mem(i))

    def fw_time(self, i: int) -> float:
        return float(self._fw[i])

    def bw_time(self, i: int) -> float:
        return float(self._bw[i])

    def layer_mem(self, i: int) -> LayerMemory:
        w = int(self._weights[i])
        a = int(self._acts[i])
        return LayerMemory(name=self.graph[i].name, weights=w,
                           weight_grads=w, inputs=int(self._inputs[i]),
                           activations=a, activation_grads=a,
                           workspace=int(self._workspaces[i]))

    # -- per-block (O(1) via prefix sums) -----------------------------------

    def _check(self, start: int, end: int) -> None:
        if not (0 <= start < end <= len(self)):
            raise ValueError(f"invalid block [{start}, {end})")

    def block_fw_time(self, start: int, end: int) -> float:
        self._check(start, end)
        return float(self._fw_prefix[end] - self._fw_prefix[start])

    def block_bw_time(self, start: int, end: int) -> float:
        self._check(start, end)
        return float(self._bw_prefix[end] - self._bw_prefix[start])

    def block_weight_bytes(self, start: int, end: int) -> int:
        self._check(start, end)
        return int(self._w_prefix[end] - self._w_prefix[start])

    def block_activation_bytes(self, start: int, end: int) -> int:
        self._check(start, end)
        return int(self._a_prefix[end] - self._a_prefix[start])

    def block_table(self, blocks: Sequence[Tuple[int, int]]
                    ) -> Tuple[List[float], List[float], List[int],
                               List[int], List[int]]:
        """Every block's fw time, bw time, activation (stash) bytes,
        output-boundary bytes and weight bytes, as lists.

        The per-block queries above for a whole partition: one indexed
        prefix subtraction per column (the same float64/int64 ops), with
        each block range-checked in order first.
        """
        for start, end in blocks:
            self._check(start, end)
        bounds = np.array(blocks, dtype=np.int64).reshape(-1, 2)
        starts, ends = bounds[:, 0], bounds[:, 1]
        return ((self._fw_prefix[ends] - self._fw_prefix[starts]).tolist(),
                (self._bw_prefix[ends] - self._bw_prefix[starts]).tolist(),
                (self._a_prefix[ends] - self._a_prefix[starts]).tolist(),
                (self._a_prefix[ends] - self._a_prefix[ends - 1]).tolist(),
                (self._w_prefix[ends] - self._w_prefix[starts]).tolist())

    def block_swap_bytes(self, start: int, end: int) -> int:
        """Bytes travelling per swap of this block (weights + stash)."""
        return (self.block_weight_bytes(start, end)
                + self.block_activation_bytes(start, end))

    def block_swap_time(self, start: int, end: int) -> float:
        """One-way transfer time of the block (Eq. 4's min-throughput)."""
        return self.transfer.swap_time(self.block_swap_bytes(start, end))

    def block_memory(self, start: int, end: int) -> BlockMemory:
        # Served from the per-layer arrays built at construction: block
        # aggregation is pure integer arithmetic (sums via prefix diffs,
        # maxes via range max), so this is exactly equal to — and ~100x
        # faster than — re-running :func:`repro.costs.memory.block_memory`
        # over the layer range.  The blocking search prices O(10^3) blocks
        # per candidate grid, which made the per-call layer scan the
        # single hottest path of an uncached evaluation.
        self._check(start, end)
        weights = int(self._w_prefix[end] - self._w_prefix[start])
        return BlockMemory(
            start=start,
            end=end,
            weights=weights,
            weight_grads=weights,
            activations=int(self._a_prefix[end] - self._a_prefix[start]),
            activation_grads=int(self._acts[start:end].max()),
            peak_workspace=int(self._workspaces[start:end].max()),
            input_bytes=int(self._inputs[start]),
        )

    def persistent_bytes(self) -> int:
        """Weights + gradients + optimizer state for the whole model."""
        w = self.total_weight_bytes
        return int(w * (2.0 + self.optimizer_slots))

    # -- whole model ---------------------------------------------------------

    @property
    def total_fw_time(self) -> float:
        return float(self._fw_prefix[-1])

    @property
    def total_bw_time(self) -> float:
        return float(self._bw_prefix[-1])

    @property
    def total_weight_bytes(self) -> int:
        return int(self._w_prefix[-1])

    @property
    def total_activation_bytes(self) -> int:
        return int(self._a_prefix[-1])

    def iteration_compute_time(self) -> float:
        """Pure compute time of one iteration (no stalls): fw + bw."""
        return self.total_fw_time + self.total_bw_time

    def summary(self) -> str:
        g = self.graph
        lines = [
            f"CostModel[{g.name} @ batch {self.batch_size} on {self.device.name}]",
            f"  layers           : {len(self)}",
            f"  params           : {self.total_weight_bytes // self.dtype_bytes:,}",
            f"  fw time          : {self.total_fw_time * 1e3:9.3f} ms",
            f"  bw time          : {self.total_bw_time * 1e3:9.3f} ms",
            f"  weight bytes     : {self.total_weight_bytes / 2**20:9.1f} MiB",
            f"  activation bytes : {self.total_activation_bytes / 2**20:9.1f} MiB",
            f"  swap throughput  : {self.transfer.swap_throughput() / 1e9:6.1f} GB/s",
        ]
        return "\n".join(lines)


def profile_graph(graph: LayerGraph, device: DeviceSpec,
                  transfer: TransferModel, batch_size: int,
                  calibration: Optional[Dict[str, float]] = None,
                  act_factor: Optional[float] = None,
                  optimizer_slots: Optional[float] = None) -> CostModel:
    """The offline profiling entry point (Fig. 1 steps 1+2).

    When ``act_factor``/``optimizer_slots`` are omitted, the per-model
    calibration table (the stand-in for the paper's empirical V100 profile)
    supplies them based on the graph's name.  Note that cost models use the
    *managed stash* factor — the bytes KARMA actually retains and swaps —
    not the unmanaged in-core footprint factor used by ``fits_in_core``.
    """
    from .calibration import optimizer_slots_for, stash_factor_for

    graph.validate()  # memoized on the graph
    if act_factor is None:
        act_factor = stash_factor_for(graph.name)
    if optimizer_slots is None:
        optimizer_slots = optimizer_slots_for(graph.name)
    return CostModel(graph, device, transfer, batch_size,
                     calibration=calibration, act_factor=act_factor,
                     optimizer_slots=optimizer_slots)

