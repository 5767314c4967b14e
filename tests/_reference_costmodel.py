"""The per-layer constructor ``CostModel`` used to have, kept as the
differential oracle for the array projection
(``tests/test_costmodel_projection.py``).

Copied from ``repro.costs.profiler.CostModel`` as it stood before the
projection replaced it: the scalar ``layer_memory`` + ``forward_flops`` +
``backward_flops`` + ``DeviceSpec.compute_time`` loop, one
:class:`LayerCost` per layer, and the prefix sums over the loop's
arrays.  Only the per-layer accessors came along; the block queries read
the prefix arrays, which the test compares directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.costs.flops import backward_flops, forward_flops
from repro.costs.memory import DTYPE_BYTES, LayerMemory, layer_memory
from repro.costs.profiler import LayerCost
from repro.graph.layer_graph import LayerGraph
from repro.hardware.interconnect import TransferModel
from repro.hardware.spec import DeviceSpec


class ReferenceCostModel:
    """The seed's ``CostModel`` constructor and per-layer accessors."""

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

    def persistent_bytes(self) -> int:
        w = self.total_weight_bytes
        return int(w * (2.0 + self.optimizer_slots))
