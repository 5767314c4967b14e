"""Per-layer and per-block memory requirement model (§III-D).

The paper stresses that naive per-layer aggregation is inaccurate because
the framework's caching allocator, fusion, and workspace choices distort the
footprint; they profile once per model and then *project* across batch sizes
by breaking usage into variable classes:

    inputs | weights | weight gradients | activations | activation gradients

We implement exactly that decomposition.  :class:`LayerMemory` is the
analytic prior; :mod:`repro.costs.profiler` refines it against the numeric
engine's allocator (the 'offline profiling' step) and the batch-size
projection then only rescales the batch-proportional classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..graph.layer_graph import LayerGraph, LayerKind, LayerSpec
from .flops import param_count

DTYPE_BYTES = 4  # FP32 training throughout, as in the paper's PyTorch setup

# cuDNN-style workspace as a fraction of activation bytes, per kind.
# Convolutions using implicit-GEMM need im2col-sized scratch.
WORKSPACE_FACTOR: Dict[LayerKind, float] = {
    LayerKind.CONV2D: 1.0,
    LayerKind.ATTENTION: 1.5,   # score matrix scratch
    LayerKind.LSTM: 0.5,
    LayerKind.UPSAMPLE: 1.0,
}


@dataclass(frozen=True)
class LayerMemory:
    """Byte footprint of one layer at a given batch size.

    * ``weights`` / ``weight_grads``: batch-independent
    * ``inputs`` / ``activations`` / ``activation_grads``: scale with batch
    * ``workspace``: transient scratch, live only while the layer computes
    """

    name: str
    weights: int
    weight_grads: int
    inputs: int
    activations: int
    activation_grads: int
    workspace: int

    @property
    def resident_forward(self) -> int:
        """Bytes that must be near-resident to run this layer's forward."""
        return self.weights + self.inputs + self.activations + self.workspace

    @property
    def resident_backward(self) -> int:
        """Bytes needed near for the backward step of this layer."""
        return (self.weights + self.weight_grads + self.inputs
                + self.activations + self.activation_grads + self.workspace)

    @property
    def persistent(self) -> int:
        """Bytes that persist across the whole iteration (weights + grads)."""
        return self.weights + self.weight_grads

    @property
    def stashed(self) -> int:
        """Bytes stashed between forward and backward (saved activations)."""
        return self.activations

    @property
    def total(self) -> int:
        return (self.weights + self.weight_grads + self.inputs
                + self.activations + self.activation_grads)


def layer_memory(spec: LayerSpec, batch_size: int,
                 dtype_bytes: int = DTYPE_BYTES,
                 act_factor: float = 1.0) -> LayerMemory:
    """Analytic memory footprint of ``spec`` for ``batch_size`` samples.

    ``act_factor`` is the per-model empirical correction from offline
    profiling (§III-D): the paper measures each model once with
    ``memory_stats()`` because allocator caching, saved-input duplication
    and cuDNN workspaces make the analytic activation sum "highly
    inaccurate"; the factor rescales the batch-proportional classes to the
    measured footprint and is then *projected* across batch sizes.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if act_factor <= 0:
        raise ValueError("act_factor must be positive")
    p = param_count(spec) * dtype_bytes
    in_bytes = int(spec.input_elems * batch_size * dtype_bytes * act_factor)
    out_bytes = int(spec.output_elems * batch_size * dtype_bytes * act_factor)
    # dropout stashes its mask; pooling stashes argmax indices; both scale
    # with the output, which the activation term already covers.
    ws = int(WORKSPACE_FACTOR.get(spec.kind, 0.0) * out_bytes)
    return LayerMemory(
        name=spec.name,
        weights=p,
        weight_grads=p,
        inputs=in_bytes,
        activations=out_bytes,
        activation_grads=out_bytes,
        workspace=ws,
    )


@dataclass(frozen=True)
class BlockMemory:
    """Aggregated footprint of a block (consecutive layers)."""

    start: int
    end: int  # half-open
    weights: int
    weight_grads: int
    activations: int
    activation_grads: int
    peak_workspace: int
    input_bytes: int  # the block's external input activation

    @property
    def swap_bytes(self) -> int:
        """Bytes moved when this block is swapped (weights + stash).

        What travels between near and far memory for an out-of-core block:
        its parameters and the activations stashed for backward.
        """
        return self.weights + self.activations

    @property
    def resident_forward(self) -> int:
        return (self.weights + self.input_bytes + self.activations
                + self.peak_workspace)

    @property
    def resident_backward(self) -> int:
        return (self.weights + self.weight_grads + self.input_bytes
                + self.activations + self.activation_grads
                + self.peak_workspace)


def block_memory(graph: LayerGraph, start: int, end: int, batch_size: int,
                 dtype_bytes: int = DTYPE_BYTES,
                 act_factor: float = 1.0) -> BlockMemory:
    """Aggregate :class:`LayerMemory` over layers ``[start, end)``."""
    if not (0 <= start < end <= len(graph)):
        raise ValueError(f"invalid block range [{start}, {end})")
    mems = [layer_memory(graph[i], batch_size, dtype_bytes, act_factor)
            for i in range(start, end)]
    return BlockMemory(
        start=start,
        end=end,
        weights=sum(m.weights for m in mems),
        weight_grads=sum(m.weight_grads for m in mems),
        activations=sum(m.activations for m in mems),
        activation_grads=max((m.activation_grads for m in mems), default=0),
        peak_workspace=max((m.workspace for m in mems), default=0),
        input_bytes=mems[0].inputs if mems else 0,
    )


def model_memory_total(graph: LayerGraph, batch_size: int,
                       dtype_bytes: int = DTYPE_BYTES,
                       act_factor: float = 1.0,
                       optimizer_slots: float = 1.0) -> int:
    """Footprint of in-core training: weights + grads + optimizer state for
    all layers, plus all stashed activations, plus the largest transients.

    ``optimizer_slots`` counts per-parameter optimizer buffers (1 for SGD
    momentum, 2 for Adam's moments).
    """
    mems = [layer_memory(spec, batch_size, dtype_bytes, act_factor)
            for spec in graph]
    weights = sum(m.weights for m in mems)
    persistent = sum(m.persistent for m in mems) + int(optimizer_slots * weights)
    stash = sum(m.stashed for m in mems)
    transient = max((m.workspace + m.activation_grads for m in mems), default=0)
    return persistent + stash + transient


def fits_in_core(graph: LayerGraph, batch_size: int, capacity: float,
                 dtype_bytes: int = DTYPE_BYTES,
                 act_factor: float = 1.0,
                 optimizer_slots: float = 1.0) -> bool:
    """Would vanilla (no-swap) training fit in ``capacity`` bytes?"""
    total = model_memory_total(graph, batch_size, dtype_bytes, act_factor,
                               optimizer_slots)
    return total <= capacity


def max_in_core_batch(graph: LayerGraph, capacity: float,
                      dtype_bytes: int = DTYPE_BYTES,
                      act_factor: float = 1.0,
                      optimizer_slots: float = 1.0,
                      upper: int = 1 << 20) -> int:
    """Largest batch size that fits in-core (0 if even batch 1 does not).

    Memory is monotone in batch size, so binary search applies.  This is
    how the Fig. 5 x-axes are anchored: only the first reported batch size
    fits in device memory.
    """

    def fits(b: int) -> bool:
        return fits_in_core(graph, b, capacity, dtype_bytes, act_factor,
                            optimizer_slots)

    if not fits(1):
        return 0
    lo, hi = 1, 2
    while hi <= upper and fits(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, upper)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def projected_memory(profile_bytes: int, profile_batch: int,
                     batch_independent: int, target_batch: int) -> int:
    """Project a profiled footprint to a new batch size (§III-D).

    ``profile_bytes`` was measured at ``profile_batch``;
    ``batch_independent`` is the portion attributed to weights/gradients/
    context.  The batch-proportional remainder rescales linearly.
    """
    if profile_batch < 1 or target_batch < 1:
        raise ValueError("batch sizes must be >= 1")
    variable = max(0, profile_bytes - batch_independent)
    return batch_independent + int(math.ceil(
        variable * (target_batch / profile_batch)))
