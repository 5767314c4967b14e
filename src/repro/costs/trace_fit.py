"""Trace-driven calibration: fit cost-model inputs from runtime traces.

The analytic :class:`~repro.costs.profiler.CostModel` prices every layer
from FLOP formulas and a device spec; the validation harness
(:mod:`repro.eval.validation`) then measures how a real interleaved
runtime executes the resulting plan.  This module closes the remaining
loop — *profile once, then project* (the paper's Fig. 1 step 2
methodology): it reads the measured :class:`~repro.runtime.streams.OpRecord`
stream out of a :class:`~repro.runtime.async_executor.RuntimeTrace` and
least-squares-fits

* **per-op compute scales** — one multiplicative factor per block,
  regressed through the origin over that block's F/R/B records
  (``scale_b = sum(measured * modeled) / sum(modeled ** 2)``), then
  broadcast to every layer name inside the block.  The resulting
  ``op_scales`` dict is exactly what ``plan(calibration=...)`` and
  :class:`~repro.costs.profiler.CostModel` consume.
* **per-link latency/bandwidth** — an ordinary least-squares line
  ``duration = latency + nbytes / bandwidth`` over each link direction's
  transfer records (``h2d``/``d2h``/``d2s``/``s2d``), with a
  deterministic degenerate fallback when the samples cannot identify an
  intercept.  Link fits are diagnostic: ``python -m repro calibrate``
  reports them against the configured interconnect model.

Wall-clock durations are converted back to modeled seconds by dividing
out the pacer's ``time_scale`` before fitting, so artifacts are
comparable across runs with different wall budgets.

Fits are frozen into a versioned :class:`CalibrationArtifact` (JSON on
disk); ``python -m repro calibrate`` writes one and
``python -m repro validate --calibration`` replays it through the
planner.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .profiler import check_op_scales

#: Version stamp written into every artifact; readers reject mismatches.
CALIBRATION_SCHEMA_VERSION = 1

#: GPU op labels the compute fit understands: kind letter + 1-based block.
_GPU_LABEL = re.compile(r"^([FBR])(\d+)$")


@dataclass(frozen=True)
class LinkFit:
    """Fitted latency/bandwidth of one link direction (modeled seconds).

    ``bandwidth_bytes_per_s == 0`` means the samples could not identify a
    slope (no bytes moved, or no time passed); consumers must treat such
    a fit as "no information", never divide by it.
    """

    resource: str
    latency_s: float
    bandwidth_bytes_per_s: float
    samples: int
    rms_residual_s: float

    def to_json(self) -> Dict[str, object]:
        return {"resource": self.resource,
                "latency_s": self.latency_s,
                "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
                "samples": self.samples,
                "rms_residual_s": self.rms_residual_s}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "LinkFit":
        return cls(resource=str(payload["resource"]),
                   latency_s=float(payload["latency_s"]),          # type: ignore[arg-type]
                   bandwidth_bytes_per_s=float(
                       payload["bandwidth_bytes_per_s"]),          # type: ignore[arg-type]
                   samples=int(payload["samples"]),                # type: ignore[arg-type]
                   rms_residual_s=float(payload["rms_residual_s"]))  # type: ignore[arg-type]


@dataclass
class CalibrationArtifact:
    """A versioned, serializable bundle of trace-fitted cost parameters.

    ``op_scales`` maps layer names to multiplicative compute-time factors
    — pass it straight to ``plan(calibration=...)`` or
    ``profile_graph(calibration=...)``.  ``links`` holds the per-link
    :class:`LinkFit` diagnostics.
    """

    model: str
    time_scale: float
    op_scales: Dict[str, float]
    links: Dict[str, LinkFit]
    version: int = CALIBRATION_SCHEMA_VERSION
    meta: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "schema_version": self.version,
            "model": self.model,
            "time_scale": self.time_scale,
            "op_scales": {k: self.op_scales[k]
                          for k in sorted(self.op_scales)},
            "links": {r: self.links[r].to_json()
                      for r in sorted(self.links)},
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CalibrationArtifact":
        version = int(payload.get("schema_version", -1))  # type: ignore[arg-type]
        if version != CALIBRATION_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported calibration schema version {version}; "
                f"this build reads version {CALIBRATION_SCHEMA_VERSION}")
        links = {r: LinkFit.from_json(f)  # type: ignore[arg-type]
                 for r, f in dict(payload.get("links", {})).items()}  # type: ignore[arg-type]
        op_scales = {str(k): float(v) for k, v  # type: ignore[arg-type]
                     in dict(payload.get("op_scales", {})).items()}  # type: ignore[arg-type]
        check_op_scales(op_scales)
        return cls(model=str(payload.get("model", "")),
                   time_scale=float(payload.get("time_scale", 0.0)),  # type: ignore[arg-type]
                   op_scales=op_scales, links=links, version=version,
                   meta=dict(payload.get("meta", {})))  # type: ignore[arg-type]

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "CalibrationArtifact":
        return cls.from_json(json.loads(Path(path).read_text()))

    def summary(self) -> str:
        scales = sorted(self.op_scales.values())
        lines = [f"CalibrationArtifact[{self.model or '?'}] "
                 f"schema v{self.version}",
                 f"  op scales : {len(self.op_scales)} layers"]
        if scales:
            lines.append(f"    min/median/max : {scales[0]:.4f} / "
                         f"{scales[len(scales) // 2]:.4f} / "
                         f"{scales[-1]:.4f}")
        for resource in sorted(self.links):
            fit = self.links[resource]
            if fit.samples == 0:
                continue
            bw = fit.bandwidth_bytes_per_s
            bw_str = f"{bw / 1e9:8.3f} GB/s" if bw > 0 else "   (unfit)"
            lines.append(f"  {resource:>4} : {bw_str}  "
                         f"latency {fit.latency_s * 1e6:8.2f} us  "
                         f"({fit.samples} transfers, rms "
                         f"{fit.rms_residual_s * 1e6:.2f} us)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _gpu_sample(record, costs, n_blocks: int) -> Optional[Tuple[int, float]]:
    """(block index, modeled reference seconds) for one GPU record.

    Returns None for records the fit cannot use: non-F/R/B labels, block
    indices outside the plan, or zero modeled references (which carry no
    slope information).  The record's ``block`` field is authoritative;
    the label's 1-based suffix is the fallback for records assembled
    outside the executor.
    """
    m = _GPU_LABEL.match(record.label)
    if m is None:
        return None
    b = record.block if 0 <= record.block < n_blocks else int(m.group(2)) - 1
    if not (0 <= b < n_blocks and b < len(costs.fw)):
        return None
    ref = float(costs.bw[b] if m.group(1) == "B" else costs.fw[b])
    if ref <= 0:
        return None
    return b, ref


def fit_op_scales(records: Iterable, costs, blocks: Sequence[Tuple[int, int]],
                  layer_names: Sequence[str], *,
                  time_scale: float) -> Dict[str, float]:
    """Per-layer compute scales from a trace's GPU records.

    One through-origin least-squares scale per block — F/R records
    regress against ``costs.fw[b]``, B records against ``costs.bw[b]`` —
    broadcast to every layer name inside the block's ``[start, end)``
    range.  Blocks with no usable samples (or a zero modeled reference)
    keep scale 1.0.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be > 0 to recover modeled "
                         "durations from wall-clock records")
    num = np.zeros(len(blocks))
    den = np.zeros(len(blocks))
    for r in records:
        if r.resource != "gpu":
            continue
        sample = _gpu_sample(r, costs, len(blocks))
        if sample is None:
            continue
        b, ref = sample
        measured = (r.finish - r.start) / time_scale
        num[b] += measured * ref
        den[b] += ref * ref
    out: Dict[str, float] = {}
    for b, (s, e) in enumerate(blocks):
        scale = num[b] / den[b] if den[b] > 0 else 1.0
        if not math.isfinite(scale) or scale <= 0:
            scale = 1.0
        for i in range(s, e):
            out[layer_names[i]] = float(scale)
    return out


def fit_link(resource: str, records: Iterable, *,
             time_scale: float) -> LinkFit:
    """OLS latency/bandwidth of one link from its transfer records.

    Solves ``duration = latency + nbytes / bandwidth`` over the
    resource's records (durations first divided by ``time_scale``).
    Degenerate sample sets — fewer than two records, all-identical byte
    counts, or a non-positive fitted slope — deterministically fall back
    to zero latency and the aggregate-throughput bandwidth
    ``sum(nbytes) / sum(duration)``.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be > 0 to recover modeled "
                         "durations from wall-clock records")
    xs: List[float] = []
    ys: List[float] = []
    for r in records:
        if r.resource != resource:
            continue
        xs.append(float(r.nbytes))
        ys.append((r.finish - r.start) / time_scale)
    n = len(xs)
    if n == 0:
        return LinkFit(resource, 0.0, 0.0, 0, 0.0)
    x = np.asarray(xs)
    y = np.asarray(ys)

    def aggregate() -> LinkFit:
        total_y = float(y.sum())
        bw = float(x.sum()) / total_y if total_y > 0 else 0.0
        resid = y - (x / bw if bw > 0 else 0.0)
        rms = float(np.sqrt(np.mean(resid * resid)))
        return LinkFit(resource, 0.0, bw, n, rms)

    if n < 2 or np.unique(x).size < 2:
        return aggregate()
    design = np.stack([np.ones(n), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    latency, inv_bw = float(coef[0]), float(coef[1])
    if inv_bw <= 0:
        return aggregate()
    resid = y - (latency + x * inv_bw)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return LinkFit(resource, max(0.0, latency), 1.0 / inv_bw, n, rms)


def fit_trace(records: Iterable, *, costs,
              blocks: Sequence[Tuple[int, int]],
              layer_names: Sequence[str], time_scale: float,
              model: str = "",
              meta: Optional[Dict[str, object]] = None) \
        -> CalibrationArtifact:
    """Fit a full :class:`CalibrationArtifact` from one trace.

    Args:
        records: the trace's :class:`~repro.runtime.streams.OpRecord`
            sequence (a ``RuntimeTrace.records`` list works directly).
        costs: the :class:`~repro.sim.trainer_sim.BlockCosts` the pacer
            priced the run with (duck-typed: needs ``fw``/``bw``).
        blocks: the executed plan's half-open layer ranges.
        layer_names: all layer names of the graph, in topological order.
        time_scale: the pacer's wall-seconds-per-modeled-second factor.
        model: name stamped into the artifact.
        meta: extra JSON-native metadata to carry along.
    """
    # materialize once: the fitters each iterate the records
    recs = list(records)
    # lazy import: repro.runtime imports repro.core which imports this
    # package, so a module-level import would be cyclic
    from ..runtime.streams import LINK_RESOURCES

    op_scales = fit_op_scales(recs, costs, blocks, layer_names,
                              time_scale=time_scale)
    links = {r: fit_link(r, recs, time_scale=time_scale)
             for r in LINK_RESOURCES}
    return CalibrationArtifact(model=model, time_scale=time_scale,
                               op_scales=op_scales, links=links,
                               meta=dict(meta or {}))


def fit_validation_report(report) -> CalibrationArtifact:
    """Fit an artifact from one :class:`~repro.eval.validation.ValidationReport`.

    The report must have been produced by ``validate_config`` (it stashes
    the runtime trace, the bound block costs, and the planner output the
    fit needs).
    """
    trace = report.runtime_trace
    kp = report.karma_plan
    costs = report.block_costs
    if trace is None or kp is None or costs is None:
        raise ValueError("report lacks raw artifacts; run validate_config "
                         "to produce fit inputs")
    names = [spec.name for spec in kp.cost.graph]
    return fit_trace(trace.records, costs=costs, blocks=kp.plan.blocks,
                     layer_names=names, time_scale=report.time_scale,
                     model=report.config,
                     meta={"config": report.config,
                           "batch_size": report.batch_size,
                           "num_blocks": report.num_blocks})


def merge_artifacts(artifacts: Sequence[CalibrationArtifact]) \
        -> CalibrationArtifact:
    """Pool several artifacts (e.g. one per validation config) into one.

    Op scales are unioned — later artifacts win on (unexpected) name
    collisions.  Link fits are pooled as sample-weighted means of
    latency and inverse bandwidth; unfit links (zero bandwidth) carry no
    weight.  ``time_scale`` is not meaningful across runs and is stored
    as 0.
    """
    if not artifacts:
        raise ValueError("nothing to merge")
    if len(artifacts) == 1:
        return artifacts[0]
    op_scales: Dict[str, float] = {}
    for art in artifacts:
        op_scales.update(art.op_scales)
    resources = sorted({r for art in artifacts for r in art.links})
    links: Dict[str, LinkFit] = {}
    for resource in resources:
        fits = [art.links[resource] for art in artifacts
                if resource in art.links]
        weighted = [(f, f.samples) for f in fits
                    if f.samples > 0 and f.bandwidth_bytes_per_s > 0]
        total = sum(w for _, w in weighted)
        if total == 0:
            links[resource] = LinkFit(resource, 0.0, 0.0,
                                      sum(f.samples for f in fits), 0.0)
            continue
        latency = sum(f.latency_s * w for f, w in weighted) / total
        inv_bw = sum(w / f.bandwidth_bytes_per_s
                     for f, w in weighted) / total
        rms = sum(f.rms_residual_s * w for f, w in weighted) / total
        links[resource] = LinkFit(resource, latency, 1.0 / inv_bw,
                                  sum(f.samples for f in fits), rms)
    return CalibrationArtifact(
        model="+".join(art.model for art in artifacts),
        time_scale=0.0, op_scales=op_scales, links=links,
        meta={"merged_from": [art.model for art in artifacts]})
