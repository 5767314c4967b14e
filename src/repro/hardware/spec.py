"""Hardware specifications for the simulated training platform.

The paper evaluates KARMA on the ABCI supercomputer (Table II): nodes with
4x NVIDIA V100 SMX2 (16 GiB HBM2), dual Xeon Gold 6148 hosts (192 GiB DRAM),
PCIe Gen3 x16 between host and device, NVLink between devices, and dual EDR
InfiniBand between nodes.  All KARMA decisions depend on the *ratios* between
compute throughput, link bandwidth, and memory capacity, so a faithful
parameterization of those published numbers is sufficient to reproduce the
scheduling behaviour.

Conventions used throughout the package:

* sizes are in **bytes**
* times are in **seconds**
* compute rates are in **FLOP/s**
* bandwidths are in **bytes/s**
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Dict, Optional

import numpy as np

GiB = 1024**3
MiB = 1024**2
KiB = 1024


def canonical_spec(obj: Any) -> Dict[str, Any]:
    """A deterministic, JSON-ready dict for any frozen hardware spec.

    Field order is sorted (not declaration order) and the concrete type is
    recorded, so the output is stable across processes, platforms, and
    field reorderings — the plan cache digests it.  Nested specs (a
    :class:`NodeSpec`'s device/host/links) recurse.
    """
    if not is_dataclass(obj):
        raise TypeError(f"not a spec dataclass: {type(obj).__name__}")

    def convert(value: Any) -> Any:
        if is_dataclass(value) and not isinstance(value, type):
            return canonical_spec(value)
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    out: Dict[str, Any] = {"spec": type(obj).__name__}
    for f in sorted(fields(obj), key=lambda f: f.name):
        out[f.name] = convert(getattr(obj, f.name))
    return out


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point interconnect (PCIe, NVLink, or network fabric).

    ``bandwidth`` is the sustained unidirectional bandwidth.  ``latency`` is
    the fixed per-transfer setup cost.  ``duplex`` marks links that can carry
    a swap-in and a swap-out simultaneously at full rate (the paper relies on
    bidirectional PCIe/NVLink to overlap D2H swap-out with H2D prefetch).
    """

    name: str
    bandwidth: float
    latency: float = 5e-6
    duplex: bool = True

    def transfer_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` across the link (latency + serialization)."""
        if nbytes <= 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name!r}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"link {self.name!r}: latency must be non-negative")


@dataclass(frozen=True)
class DeviceSpec:
    """An accelerator with dedicated ("near") memory.

    ``flops`` is the peak sustained throughput for dense math;
    ``efficiency`` derates it to an achievable fraction (cuDNN-style kernels
    rarely exceed ~50-60% of peak on real layer shapes).  ``mem_bandwidth``
    is the device (HBM) bandwidth, which bounds bandwidth-limited layers
    such as ReLU, batch-norm, and element-wise ops.
    """

    name: str
    memory: float
    flops: float
    mem_bandwidth: float
    efficiency: float = 0.55
    reserved_memory: float = 600 * MiB  # CUDA context + framework reserve

    @property
    def usable_memory(self) -> float:
        """Memory available to tensors after runtime/context reservations."""
        return max(0.0, self.memory - self.reserved_memory)

    @property
    def effective_flops(self) -> float:
        return self.flops * self.efficiency

    def compute_time(self, flop_count: float, bytes_touched: float = 0.0) -> float:
        """Roofline estimate: max of compute-bound and memory-bound time."""
        t_compute = flop_count / self.effective_flops if flop_count > 0 else 0.0
        t_memory = bytes_touched / self.mem_bandwidth if bytes_touched > 0 else 0.0
        return max(t_compute, t_memory)

    def compute_times(self, flop_counts: np.ndarray,
                      bytes_touched: np.ndarray) -> np.ndarray:
        """:meth:`compute_time` over arrays, element for element equal."""
        t_compute = np.where(flop_counts > 0,
                             flop_counts / self.effective_flops, 0.0)
        t_memory = np.where(bytes_touched > 0,
                            bytes_touched / self.mem_bandwidth, 0.0)
        return np.maximum(t_compute, t_memory)

    def __post_init__(self) -> None:
        if self.memory <= 0 or self.flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError(f"device {self.name!r}: sizes/rates must be positive")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError(f"device {self.name!r}: efficiency must be in (0, 1]")


@dataclass(frozen=True)
class HostSpec:
    """The CPU host providing "far" memory and CPU-side weight updates.

    ``update_flops`` is the throughput available to the standalone CPU
    optimizer kernel KARMA uses for the heterogeneous weight update (§III-G).
    It is far below GPU throughput, which is exactly why the update must be
    pipelined behind the phased gradient exchange.
    """

    name: str
    memory: float
    mem_bandwidth: float
    update_flops: float

    def update_time(self, flop_count: float, bytes_touched: float = 0.0) -> float:
        t_c = flop_count / self.update_flops if flop_count > 0 else 0.0
        t_m = bytes_touched / self.mem_bandwidth if bytes_touched > 0 else 0.0
        return max(t_c, t_m)

    def __post_init__(self) -> None:
        if self.memory <= 0 or self.mem_bandwidth <= 0 or self.update_flops <= 0:
            raise ValueError(f"host {self.name!r}: sizes/rates must be positive")


@dataclass(frozen=True)
class StorageSpec:
    """Node-local block storage (NVMe SSD) forming the third memory tier.

    Reads and writes are asymmetric on flash (ABCI's Intel DC P4600 reads
    ~3.2 GB/s but writes ~1.9 GB/s), so the two directions carry separate
    bandwidths.  ``latency`` is the per-I/O submission + flash access cost,
    orders of magnitude above a DMA doorbell — it is what makes small-block
    staging to NVMe expensive even when bandwidth would suffice.
    """

    name: str
    capacity: float
    read_bandwidth: float
    write_bandwidth: float
    latency: float = 80e-6

    def read_link(self) -> LinkSpec:
        """The storage->DRAM direction (stash promotion / swap-in path)."""
        return LinkSpec(name=f"{self.name}-read", bandwidth=self.read_bandwidth,
                        latency=self.latency, duplex=False)

    def write_link(self) -> LinkSpec:
        """The DRAM->storage direction (stash demotion / swap-out path)."""
        return LinkSpec(name=f"{self.name}-write",
                        bandwidth=self.write_bandwidth,
                        latency=self.latency, duplex=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.read_bandwidth <= 0 \
                or self.write_bandwidth <= 0:
            raise ValueError(f"storage {self.name!r}: sizes/rates must be "
                             "positive")
        if self.latency < 0:
            raise ValueError(f"storage {self.name!r}: latency must be "
                             "non-negative")


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: devices + host + the links that join them.

    ``storage`` is the optional node-local NVMe tier below host DRAM;
    ``None`` models a diskless node (the classic two-tier hierarchy).
    """

    name: str
    device: DeviceSpec
    host: HostSpec
    devices_per_node: int
    h2d: LinkSpec
    d2h: LinkSpec
    intra_node: LinkSpec  # device<->device (NVLink)
    storage: Optional[StorageSpec] = None

    def __post_init__(self) -> None:
        if self.devices_per_node < 1:
            raise ValueError("devices_per_node must be >= 1")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`NodeSpec` nodes."""

    name: str
    node: NodeSpec
    num_nodes: int
    network: LinkSpec  # inter-node fabric, per-node injection bandwidth
    allreduce_latency: float = 10e-6  # per-hop software latency (Fig. 1 metadata)

    @property
    def total_devices(self) -> int:
        return self.num_nodes * self.node.devices_per_node

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """A copy of this cluster scaled to ``num_nodes`` nodes."""
        return replace(self, num_nodes=num_nodes)

    def with_devices(self, total_devices: int) -> "ClusterSpec":
        """A copy scaled so that ``total_devices`` accelerators are available."""
        per = self.node.devices_per_node
        if total_devices % per:
            raise ValueError(
                f"{total_devices} devices not divisible by {per} devices/node"
            )
        return replace(self, num_nodes=total_devices // per)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------

def v100_sxm2_16gb(reserved: float = 600 * MiB) -> DeviceSpec:
    """NVIDIA Tesla V100 SXM2 16 GiB as used on ABCI (Table II)."""
    return DeviceSpec(
        name="V100-SXM2-16GB",
        memory=16 * GiB,
        flops=15.7e12,  # FP32 peak
        mem_bandwidth=900e9,
        efficiency=0.55,
        reserved_memory=reserved,
    )


def abci_host() -> HostSpec:
    """Dual Xeon Gold 6148 host: 192 GiB DRAM (32 GiB x 6 in Table II)."""
    return HostSpec(
        name="Xeon-Gold-6148x2",
        memory=192 * GiB,
        mem_bandwidth=110e9,
        update_flops=1.5e12,  # AVX-512 dual-socket sustained for SGD updates
    )


def pcie_gen3_x16() -> LinkSpec:
    """PCIe Gen3 x16: 16 GB/s per direction (Table II)."""
    return LinkSpec(name="PCIe3-x16", bandwidth=16e9, latency=10e-6, duplex=True)


def nvlink2() -> LinkSpec:
    """NVLink 2.0: 50 GB/s per direction (Table II)."""
    return LinkSpec(name="NVLink2", bandwidth=50e9, latency=5e-6, duplex=True)


def karma_swap_link() -> LinkSpec:
    """The calibrated host<->device swap path used by the KARMA planner.

    **Substitution note** (see DESIGN.md): the paper's measured Fig. 5
    curves imply a compute-to-transfer ratio in which KARMA's swap traffic
    mostly hides behind layer compute at 2-6x beyond device capacity.
    Reproducing that ratio against our roofline compute model requires an
    NVLink2-aggregate-class swap path (~100 GB/s); raw PCIe Gen3 (16 GB/s)
    makes every out-of-core method link-bound and collapses the relative
    differences the paper reports.  ``bench_ablation_link.py`` sweeps the
    16 / 50 / 100 GB/s regimes explicitly.
    """
    return LinkSpec(name="calibrated-swap-path", bandwidth=100e9,
                    latency=5e-6, duplex=True)


def infiniband_edr_x2() -> LinkSpec:
    """Dual-rail 100 Gbps EDR InfiniBand: 12.5 GB/s x 2 per node (Table II)."""
    return LinkSpec(name="2xEDR-IB", bandwidth=25e9, latency=1.5e-6, duplex=True)


def abci_nvme() -> StorageSpec:
    """ABCI's node-local NVMe SSD (Intel DC P4600, 1.6 TB, Table II).

    Published sustained rates: ~3.2 GB/s sequential read, ~1.9 GB/s
    sequential write, ~80 us access latency — one to two orders of
    magnitude below the DRAM tier, which is exactly the regime where
    bandwidth-aware placement starts to matter.
    """
    return StorageSpec(
        name="Intel-DC-P4600",
        capacity=1.6e12,
        read_bandwidth=3.2e9,
        write_bandwidth=1.9e9,
        latency=80e-6,
    )


def abci_node() -> NodeSpec:
    """One ABCI compute node: 4x V100 SXM2 + PCIe Gen3 + NVLink + NVMe."""
    pcie = pcie_gen3_x16()
    return NodeSpec(
        name="ABCI-node",
        device=v100_sxm2_16gb(),
        host=abci_host(),
        devices_per_node=4,
        h2d=pcie,
        d2h=pcie,
        intra_node=nvlink2(),
        storage=abci_nvme(),
    )


def abci_cluster(num_nodes: int = 512) -> ClusterSpec:
    """The ABCI supercomputer scaled to ``num_nodes`` nodes (1,088 max)."""
    return ClusterSpec(
        name="ABCI",
        node=abci_node(),
        num_nodes=num_nodes,
        network=infiniband_edr_x2(),
    )


def single_v100() -> ClusterSpec:
    """A single-device platform for the single-GPU experiments (Fig. 5-7)."""
    node = replace(abci_node(), devices_per_node=1)
    return ClusterSpec(name="single-V100", node=node, num_nodes=1,
                       network=infiniband_edr_x2())


def tiny_test_device(memory: float = 64 * MiB, flops: float = 1e12,
                     bandwidth: float = 1e9) -> DeviceSpec:
    """A deliberately small device used by tests to force out-of-core paths."""
    return DeviceSpec(
        name="tiny-test",
        memory=memory,
        flops=flops,
        mem_bandwidth=10 * bandwidth,
        efficiency=1.0,
        reserved_memory=0.0,
    )
