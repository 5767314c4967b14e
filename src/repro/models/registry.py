"""Model registry: name -> builder, plus the Table III experiment matrix."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..graph.layer_graph import LayerGraph
from .resnet import resnet50, resnet200, resnet1001, wrn28_10
from .unet import unet
from .vgg import vgg16


@dataclass(frozen=True)
class ModelEntry:
    """One row of Table III: a model, its dataset, and Fig. 5's batch sweep."""

    name: str
    builder: Callable[[], LayerGraph]
    dataset: str
    num_samples: int
    reported_params: float      # Table III lower bound ("> 25M")
    reported_layers: int
    fig5_batch_sizes: Tuple[int, ...]  # the x-axis of the Fig. 5 panel


REGISTRY: Dict[str, ModelEntry] = {
    "resnet50": ModelEntry(
        "resnet50", resnet50, "imagenet", 1_280_000, 25e6, 50,
        fig5_batch_sizes=(128, 256, 384, 512, 640, 768)),
    "vgg16": ModelEntry(
        "vgg16", vgg16, "imagenet", 1_280_000, 169e6, 38,
        fig5_batch_sizes=(32, 64, 96, 128, 160)),
    "resnet200": ModelEntry(
        "resnet200", resnet200, "imagenet", 1_280_000, 64e6, 200,
        fig5_batch_sizes=(4, 8, 12, 16, 20, 24)),
    "wrn28_10": ModelEntry(
        "wrn28_10", wrn28_10, "cifar10", 60_000, 36e6, 28,
        fig5_batch_sizes=(256, 512, 768, 1024, 1280)),
    "resnet1001": ModelEntry(
        "resnet1001", resnet1001, "cifar10", 60_000, 10e6, 1001,
        fig5_batch_sizes=(64, 128, 192, 256, 320)),
    "unet": ModelEntry(
        "unet", unet, "sstem", 30, 31e6, 27,
        fig5_batch_sizes=(8, 16, 24, 32, 40)),
}


#: One frozen graph per registered name, bounded by the registry's size.
#: No lock: two threads that race on a miss each build an identical
#: immutable graph and the later store wins, which is harmless.
_BUILT: Dict[str, LayerGraph] = {}


def build(name: str) -> LayerGraph:
    """A registered model's spec graph by name: built once per process,
    frozen, and shared by every caller."""
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(REGISTRY)}")
    graph = _BUILT.get(name)
    if graph is None:
        graph = _BUILT[name] = REGISTRY[name].builder()
    return graph


def fig5_models() -> List[ModelEntry]:
    """The six single-GPU models in the Fig. 5 order."""
    order = ("resnet50", "vgg16", "resnet200", "wrn28_10", "resnet1001", "unet")
    return [REGISTRY[name] for name in order]
