"""Layer dependency graphs: the model representation KARMA plans over.

KARMA's first workflow step (Fig. 1, step 1) builds a dependency graph of
the model; blocking, swapping and recompute decisions are then made over
*blocks of consecutive layers* in topological order.  :class:`LayerSpec`
captures everything the cost model (§III-C/III-D) needs: the layer kind,
per-sample input/output shapes, and kind-specific attributes (kernel size,
channels, heads, ...).  :class:`LayerGraph` is a DAG over those specs and
supports the three model families the paper targets: CNNs (linear chains +
affine residual skips), Transformers, and fully-convolutional U-Nets with
long skips between the contracting and expansive paths (§III-F.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:
    from ..costs.profiler import StaticProfile


class LayerKind(Enum):
    """Operator families with dedicated cost formulas in §III-C."""

    INPUT = "input"
    CONV2D = "conv2d"
    RELU = "relu"
    GELU = "gelu"
    POOL_MAX = "pool_max"
    POOL_AVG = "pool_avg"
    BATCHNORM = "batchnorm"
    LAYERNORM = "layernorm"
    LSTM = "lstm"
    ATTENTION = "attention"
    LINEAR = "linear"
    SOFTMAX = "softmax"
    DROPOUT = "dropout"
    EMBEDDING = "embedding"
    ADD = "add"            # element-wise tensor add (residual join)
    CONCAT = "concat"      # channel concat (U-Net skip join)
    RESHAPE = "reshape"    # flatten / view; zero-cost metadata op
    UPSAMPLE = "upsample"  # transposed conv / bilinear up (U-Net)
    LOSS = "loss"


# Kinds that carry trainable parameters.
PARAMETRIC_KINDS = frozenset({
    LayerKind.CONV2D, LayerKind.BATCHNORM, LayerKind.LAYERNORM,
    LayerKind.LSTM, LayerKind.ATTENTION, LayerKind.LINEAR,
    LayerKind.EMBEDDING, LayerKind.UPSAMPLE,
})

# Kinds that are cheap to recompute relative to their activation size
# (SuperNeurons' heuristic recomputes exactly these, §II-A.3).
CHEAP_TO_RECOMPUTE = frozenset({
    LayerKind.RELU, LayerKind.GELU, LayerKind.BATCHNORM, LayerKind.LAYERNORM,
    LayerKind.DROPOUT, LayerKind.SOFTMAX, LayerKind.ADD, LayerKind.RESHAPE,
    LayerKind.CONCAT, LayerKind.POOL_MAX, LayerKind.POOL_AVG,
})


@dataclass(frozen=True)
class LayerSpec:
    """A single layer: identity, shapes, and kind-specific attributes.

    ``input_shape`` / ``output_shape`` are per-sample shapes (no batch
    dimension): ``(C, H, W)`` for vision layers, ``(T, D)`` for sequence
    layers, ``(D,)`` for vectors.  ``attrs`` carries what the analytic FLOP
    formulas need, e.g. ``kernel=3, stride=1, in_channels=64`` for a conv.
    """

    name: str
    kind: LayerKind
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    attrs: Dict[str, float] = field(default_factory=dict, hash=False, compare=False)

    @property
    def input_elems(self) -> int:
        return int(math.prod(self.input_shape)) if self.input_shape else 0

    @property
    def output_elems(self) -> int:
        return int(math.prod(self.output_shape)) if self.output_shape else 0

    @property
    def is_parametric(self) -> bool:
        return self.kind in PARAMETRIC_KINDS

    def attr(self, key: str, default: Optional[float] = None) -> float:
        if key in self.attrs:
            return self.attrs[key]
        if default is None:
            raise KeyError(f"layer {self.name!r} ({self.kind.value}) missing attr {key!r}")
        return default


class GraphValidationError(ValueError):
    """Raised for malformed model graphs (cycles, dangling edges, ...)."""


class LayerGraph:
    """A validated DAG of :class:`LayerSpec` nodes in topological order.

    Layers are stored in the order they were added, which is required to be
    a valid topological order (construction fails otherwise).  That order is
    the "layer index" space KARMA's contiguous blocking operates in.

    The graph memoizes what is derived from its structure alone — the
    :meth:`validate` verdict, the canonical JSON bytes and the per-sample
    :meth:`static_profile` — so a model is analysed once however many
    batches it is planned at.  :meth:`add_layer` is the only mutator and
    drops those memos; :meth:`freeze` (what :meth:`GraphBuilder.finish
    <repro.models.builder.GraphBuilder.finish>` and :func:`chain` return)
    makes the graph immutable, so it can be shared process-wide.  The
    memos are filled without a lock: threads racing on a first use each
    compute an equal value and one of them is kept.

    Edges live in two insertion-ordered dicts used as ordered sets
    (``_succ[u]`` holds ``u``'s consumers, ``_pred[v]`` its inputs), so
    :meth:`edges` lists them by source, then by when each was added, and
    a layer that names the same input twice gets one edge.
    """

    def __init__(self, name: str):
        self.name = name
        self._layers: List[LayerSpec] = []
        self._index: Dict[str, int] = {}
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}
        self._frozen = False
        self._forget()

    def _forget(self) -> None:
        self._valid = False
        self._canonical: Optional[bytes] = None
        self._profile: Optional["StaticProfile"] = None

    # -- construction ------------------------------------------------------

    def add_layer(self, spec: LayerSpec,
                  inputs: Sequence[str] = ()) -> LayerSpec:
        """Append ``spec``, wiring data edges from each name in ``inputs``."""
        if self._frozen:
            raise GraphValidationError(
                f"{self.name}: graph is frozen; cannot add {spec.name!r}")
        if spec.name in self._index:
            raise GraphValidationError(f"duplicate layer name {spec.name!r}")
        for src in inputs:
            if src not in self._index:
                raise GraphValidationError(
                    f"layer {spec.name!r} depends on unknown layer {src!r} "
                    "(layers must be added in topological order)")
        self._forget()
        self._index[spec.name] = len(self._layers)
        self._layers.append(spec)
        self._succ[spec.name] = {}
        self._pred[spec.name] = dict.fromkeys(inputs)
        for src in inputs:
            self._succ[src][spec.name] = None
        return spec

    def freeze(self) -> "LayerGraph":
        """Validate, then forbid further :meth:`add_layer`; returns self."""
        self.validate()
        self._frozen = True
        return self

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self._layers)

    def __getitem__(self, idx: int) -> LayerSpec:
        return self._layers[idx]

    @property
    def layers(self) -> List[LayerSpec]:
        return list(self._layers)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def layer(self, name: str) -> LayerSpec:
        return self._layers[self._index[name]]

    def predecessors(self, name: str) -> List[str]:
        return sorted(self._pred[name], key=self.index_of)

    def successors(self, name: str) -> List[str]:
        return sorted(self._succ[name], key=self.index_of)

    def edges(self) -> List[Tuple[str, str]]:
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def validate(self) -> None:
        """Check that insertion order is topological (so the graph is a
        DAG: every edge runs from a lower index to a higher one) and that
        every layer but the first has an input."""
        if self._valid:
            return
        for u, v in self.edges():
            if self._index[u] >= self._index[v]:
                raise GraphValidationError(
                    f"{self.name}: edge {u!r}->{v!r} violates insertion "
                    "(topological) order")
        for i, spec in enumerate(self._layers):
            if i > 0 and not self._pred[spec.name]:
                raise GraphValidationError(
                    f"{self.name}: layer {spec.name!r} is disconnected")
        self._valid = True

    def static_profile(self) -> "StaticProfile":
        """The per-sample cost facts of every layer, built on first use.

        See :class:`repro.costs.profiler.StaticProfile`; a
        :class:`~repro.costs.profiler.CostModel` projects it to a batch.
        """
        if self._profile is None:
            from ..costs.profiler import StaticProfile

            self._profile = StaticProfile.of(self)
        return self._profile

    # -- structure analysis (for §III-F.4 non-linear model support) --------

    def skip_edges(self) -> List[Tuple[str, str]]:
        """Edges that jump over at least one layer in index order."""
        return [(u, v) for u, v in self.edges()
                if self._index[v] - self._index[u] > 1]

    def skip_span(self, edge: Tuple[str, str]) -> int:
        u, v = edge
        return self._index[v] - self._index[u]

    def is_linear_chain(self) -> bool:
        return not self.skip_edges()

    def longest_skip(self) -> int:
        spans = [self.skip_span(e) for e in self.skip_edges()]
        return max(spans, default=0)

    def consumers_after(self, name: str) -> int:
        """Index of the furthest consumer of ``name`` (its own index if none).

        KARMA's planner uses this to know how long an activation must stay
        live: U-Net long skips yield consumers far in the expansive path.
        """
        succ = [self._index[s] for s in self._succ[name]]
        return max(succ, default=self._index[name])

    def canonical_dict(self) -> Dict[str, object]:
        """A deterministic, JSON-ready description of the graph.

        Two graphs with identical structure produce byte-identical
        canonical JSON (``json.dumps(..., sort_keys=True)``) in any
        process on any platform — the plan cache digests this to key
        cached plans, so it must capture everything the planner reads:
        layer identities, kinds, shapes, attrs, and the edge set.
        """
        return {
            "name": self.name,
            "layers": [
                {
                    "name": spec.name,
                    "kind": spec.kind.value,
                    "input_shape": list(spec.input_shape),
                    "output_shape": list(spec.output_shape),
                    "attrs": {k: spec.attrs[k] for k in sorted(spec.attrs)},
                }
                for spec in self._layers
            ],
            "edges": sorted([u, v] for u, v in self.edges()),
        }

    def canonical_bytes(self) -> bytes:
        """:meth:`canonical_dict` as canonical JSON (UTF-8), built on first
        use; what :func:`repro.cache.digest.plan_digest` hashes."""
        if self._canonical is None:
            from ..cache.digest import canonical_json

            self._canonical = canonical_json(
                self.canonical_dict()).encode("utf-8")
        return self._canonical

    def describe(self) -> str:
        lines = [f"LayerGraph {self.name!r}: {len(self)} layers, "
                 f"{len(self.skip_edges())} skip edge(s)"]
        for i, spec in enumerate(self._layers):
            preds = ",".join(self.predecessors(spec.name)) or "-"
            lines.append(f"  [{i:4d}] {spec.name:<28s} {spec.kind.value:<10s} "
                         f"{spec.input_shape}->{spec.output_shape}  <- {preds}")
        return "\n".join(lines)


def chain(name: str, specs: Iterable[LayerSpec]) -> LayerGraph:
    """Build a purely sequential :class:`LayerGraph` from ``specs``."""
    g = LayerGraph(name)
    prev: Optional[str] = None
    for spec in specs:
        g.add_layer(spec, inputs=[prev] if prev is not None else [])
        prev = spec.name
    return g.freeze()
