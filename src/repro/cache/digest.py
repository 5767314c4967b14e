"""Stable content digests for planning inputs.

The plan cache is *content-addressed*: a cache key is the SHA-256 of a
canonical JSON rendering of everything the planner's decision depends on —
the model graph, the hardware (device, transfer model, memory hierarchy,
capacity), the search knobs, and the solver version.  Canonical JSON means
``sort_keys=True`` with compact separators over JSON-native scalar types
only, so the same inputs digest to the same key in any process on any
platform (the digest-stability test asserts this across a fresh
interpreter).

Bumping :data:`repro.core.solver.SOLVER_VERSION` or
:data:`CACHE_FORMAT_VERSION` changes every key, which is the versioned
invalidation story: stale entries are simply never addressed again (and
the on-disk loader refuses entries whose recorded versions mismatch, so
even a hand-copied file cannot resurrect a stale plan).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

from ..graph.layer_graph import LayerGraph
from ..hardware.interconnect import TransferModel
from ..hardware.spec import DeviceSpec, canonical_spec
from ..hardware.tiering import MemoryHierarchy

#: Version of the cache's key/payload schema.  Bump on any change to what
#: gets digested or what gets stored — old entries become unreachable.
CACHE_FORMAT_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as canonical JSON (sorted keys, compact).

    Raises ``TypeError`` for non-JSON-native values: silent coercion
    (e.g. ``default=str``) would make digests depend on ``repr`` details.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def stable_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def plan_digest(graph: LayerGraph, batch_size: int, *,
                device: DeviceSpec,
                transfer: TransferModel,
                capacity: float,
                hierarchy: Optional[MemoryHierarchy],
                knobs: Mapping[str, Any]) -> str:
    """The content address of one planning problem.

    ``knobs`` carries the search parameters (method, max_span, recompute,
    placement policy, cost-model scaling) — anything that can change the
    plan must be included or two different problems would collide.
    """
    from ..core.solver import SOLVER_VERSION

    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "solver_version": SOLVER_VERSION,
        "batch_size": int(batch_size),
        "device": canonical_spec(device),
        "transfer": transfer.canonical_dict(),
        "capacity": float(capacity),
        "hierarchy": (hierarchy.canonical_dict()
                      if hierarchy is not None else None),
        "knobs": {str(k): knobs[k] for k in sorted(knobs)},
    }
    # This is stable_digest(payload | {"graph": graph.canonical_dict()})
    # byte for byte: the graph's cached canonical bytes are hashed in the
    # slot sort_keys gives the "graph" key, between the keys that sort
    # before it and those after it, so the graph is never re-serialized.
    head = canonical_json({k: v for k, v in payload.items() if k < "graph"})
    tail = canonical_json({k: v for k, v in payload.items() if k > "graph"})
    h = hashlib.sha256(head[:-1].encode("utf-8"))
    h.update(b',"graph":')
    h.update(graph.canonical_bytes())
    h.update(b"," + tail[1:].encode("utf-8"))
    return h.hexdigest()
