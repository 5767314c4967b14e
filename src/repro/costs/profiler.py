"""Offline profiling: the cost tables KARMA's planner consumes (Fig. 1, step 2).

The paper gathers metadata three ways — static analysis (FLOP formulas),
device query (hardware spec), and instrumentation/benchmarks (empirical
memory via ``memory_stats()``).  :class:`CostModel` fuses all three into
per-layer forward/backward times and memory classes, with prefix sums so
that any contiguous block's cost is an O(1) query — the blocking DP
evaluates O(L^2) candidate blocks, so this matters for ResNet-1001.

An optional calibration hook rescales analytic times toward measured ones
(the numeric engine's wall-clock profile), mirroring the paper's
profile-once-then-project methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..graph.layer_graph import LayerGraph
from ..hardware.interconnect import TransferModel
from ..hardware.spec import DeviceSpec
from .flops import backward_flops, forward_flops
from .memory import DTYPE_BYTES, BlockMemory, LayerMemory, layer_memory


@dataclass(frozen=True)
class LayerCost:
    """One layer's compute times and memory footprint at a fixed batch."""

    index: int
    name: str
    fw_time: float
    bw_time: float
    memory: LayerMemory


class CostModel:
    """Per-layer and per-block cost oracle for one (model, device, batch).

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
        self.graph = graph
        self.device = device
        self.transfer = transfer
        self.batch_size = batch_size
        self.dtype_bytes = dtype_bytes
        self.act_factor = act_factor
        self.optimizer_slots = optimizer_slots

        self.calibration: Dict[str, float] = dict(calibration or {})

        n = len(graph)
        self._layers: List[LayerCost] = []
        fw = np.zeros(n)
        bw = np.zeros(n)
        weights = np.zeros(n, dtype=np.int64)
        wgrads = np.zeros(n, dtype=np.int64)
        acts = np.zeros(n, dtype=np.int64)
        act_grads = np.zeros(n, dtype=np.int64)
        workspaces = np.zeros(n, dtype=np.int64)
        inputs = np.zeros(n, dtype=np.int64)
        for i, spec in enumerate(graph):
            mem = layer_memory(spec, batch_size, dtype_bytes, act_factor)
            bytes_fw = mem.inputs + mem.activations + mem.weights
            bytes_bw = bytes_fw + mem.activation_grads + mem.weight_grads
            t_fw = device.compute_time(forward_flops(spec, batch_size), bytes_fw)
            t_bw = device.compute_time(backward_flops(spec, batch_size), bytes_bw)
            scale = calibration.get(spec.name, 1.0) if calibration else 1.0
            t_fw *= scale
            t_bw *= scale
            self._layers.append(LayerCost(i, spec.name, t_fw, t_bw, mem))
            fw[i] = t_fw
            bw[i] = t_bw
            weights[i] = mem.weights
            wgrads[i] = mem.weight_grads
            acts[i] = mem.activations
            act_grads[i] = mem.activation_grads
            workspaces[i] = mem.workspace
            inputs[i] = mem.inputs
        # prefix sums (index 0 is the empty prefix)
        self._fw_prefix = np.concatenate([[0.0], np.cumsum(fw)])
        self._bw_prefix = np.concatenate([[0.0], np.cumsum(bw)])
        self._w_prefix = np.concatenate([[0], np.cumsum(weights)])
        self._wg_prefix = np.concatenate([[0], np.cumsum(wgrads)])
        self._a_prefix = np.concatenate([[0], np.cumsum(acts)])
        # per-layer arrays for the range-max / gather block queries
        self._act_grads = act_grads
        self._workspaces = workspaces
        self._inputs = inputs

    # -- per-layer ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, i: int) -> LayerCost:
        return self._layers[i]

    def fw_time(self, i: int) -> float:
        return self._layers[i].fw_time

    def bw_time(self, i: int) -> float:
        return self._layers[i].bw_time

    def layer_mem(self, i: int) -> LayerMemory:
        return self._layers[i].memory

    # -- per-block (O(1) via prefix sums) -----------------------------------

    def _check(self, start: int, end: int) -> None:
        if not (0 <= start < end <= len(self._layers)):
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
        return BlockMemory(
            start=start,
            end=end,
            weights=int(self._w_prefix[end] - self._w_prefix[start]),
            weight_grads=int(self._wg_prefix[end] - self._wg_prefix[start]),
            activations=int(self._a_prefix[end] - self._a_prefix[start]),
            activation_grads=int(self._act_grads[start:end].max()),
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

    graph.validate()
    if act_factor is None:
        act_factor = stash_factor_for(graph.name)
    if optimizer_slots is None:
        optimizer_slots = optimizer_slots_for(graph.name)
    return CostModel(graph, device, transfer, batch_size,
                     calibration=calibration, act_factor=act_factor,
                     optimizer_slots=optimizer_slots)

