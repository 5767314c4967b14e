"""KARMA: out-of-core distributed deep learning beyond device memory capacity.

A full reproduction of Wahib et al., "Scaling Distributed Deep Learning
Workloads beyond the Memory Capacity with KARMA" (SC 2020).

Public entry points:

* :func:`repro.core.planner.plan` — derive a KARMA execution plan for a
  model graph on a device (blocking + recompute interleave).
* :mod:`repro.sim` — discrete-event simulation of plans at paper scale.
* :mod:`repro.runtime` — numeric out-of-core execution (correctness).
* :mod:`repro.distributed` — data-parallel KARMA (5-stage pipeline).
* :mod:`repro.baselines` — vDNN++, SuperNeurons, Checkmate, checkpointing.
* :mod:`repro.models` — the Table III model zoo.
* :mod:`repro.tiering` — stash placement across HBM -> DRAM -> NVMe
  hierarchies (ZeRO-Infinity-style tiered offload).
* :mod:`repro.cache` — the content-addressed plan cache backing the
  ``python -m repro plan`` planning service (:mod:`repro.cli`).

Subpackages load on first use: ``import repro`` imports none of them,
and ``repro.sim`` (or ``from repro import *``) imports that one on
first access (PEP 562), so an entry point pays only for what it uses.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["baselines", "cache", "core", "costs", "data", "distributed",
           "eval", "graph", "hardware", "models", "nn", "runtime", "sim",
           "tiering", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        # import_module binds the subpackage as an attribute of this
        # module, so later lookups never come back here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
