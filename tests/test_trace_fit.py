"""Trace-calibration fitter: round-trip property tests.

The contract under test: synthesizing a runtime trace from *known*
per-block compute scales and per-link latency/bandwidth, the fitter must
recover those parameters — exactly in the noise-free case, within the
noise bound otherwise — and a calibrated re-plan must never worsen the
sim-vs-real validation error beyond measurement jitter.
"""

import json
import math
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.trace_fit import (
    CALIBRATION_SCHEMA_VERSION,
    CalibrationArtifact,
    LinkFit,
    fit_link,
    fit_op_scales,
    fit_trace,
    fit_validation_report,
    merge_artifacts,
)
from repro.runtime.streams import OpRecord


@dataclass(frozen=True)
class FakeBlockCosts:
    """The slice of BlockCosts the compute fitter reads."""

    fw: Tuple[float, ...]
    bw: Tuple[float, ...]


def _gpu_record(kind: str, block: int, duration: float,
                at: float = 0.0) -> OpRecord:
    return OpRecord(label=f"{kind}{block + 1}", resource="gpu",
                    block=block, start=at, finish=at + duration,
                    ready=at)


def _link_record(resource: str, nbytes: int, duration: float) -> OpRecord:
    return OpRecord(label=f"X{nbytes}", resource=resource, block=0,
                    start=0.0, finish=duration, ready=0.0, nbytes=nbytes)


# ---------------------------------------------------------------------------
# Compute-scale recovery
# ---------------------------------------------------------------------------

@st.composite
def scale_cases(draw):
    """(costs, blocks, names, true scales, noise bound, records, scale)."""
    n_blocks = draw(st.integers(min_value=1, max_value=6))
    pos = st.floats(min_value=1e-4, max_value=2.0, allow_nan=False)
    fw = tuple(draw(pos) for _ in range(n_blocks))
    bw = tuple(draw(pos) for _ in range(n_blocks))
    true = [draw(st.floats(min_value=0.25, max_value=4.0,
                           allow_nan=False)) for _ in range(n_blocks)]
    noise = draw(st.sampled_from([0.0, 0.01, 0.05]))
    time_scale = draw(st.sampled_from([0.5, 1.0, 40.0]))
    blocks = tuple((b, b + 1) for b in range(n_blocks))
    names = [f"layer{b}" for b in range(n_blocks)]
    records = []
    for b in range(n_blocks):
        for kind, ref in (("F", fw[b]), ("R", fw[b]), ("B", bw[b])):
            reps = draw(st.integers(min_value=1, max_value=3))
            for j in range(reps):
                eps = draw(st.floats(min_value=-noise, max_value=noise,
                                     allow_nan=False))
                measured = true[b] * ref * (1.0 + eps) * time_scale
                records.append(_gpu_record(kind, b, measured))
    return (FakeBlockCosts(fw, bw), blocks, names, true, noise,
            records, time_scale)


class TestOpScaleRecovery:
    @given(scale_cases())
    @settings(deadline=None)
    def test_property_round_trip_within_noise(self, case):
        costs, blocks, names, true, noise, records, time_scale = case
        scales = fit_op_scales(records, costs, blocks, names,
                               time_scale=time_scale)
        assert set(scales) == set(names)
        for b, name in enumerate(names):
            # through-origin least squares: the relative error of the
            # recovered scale is bounded by the injected relative noise
            rel = abs(scales[name] - true[b]) / true[b]
            assert rel <= noise + 1e-9

    def test_multi_layer_blocks_broadcast_the_block_scale(self):
        costs = FakeBlockCosts(fw=(2.0,), bw=(3.0,))
        blocks = ((0, 3),)
        names = ["a", "b", "c"]
        records = [_gpu_record("F", 0, 2.0 * 1.5),
                   _gpu_record("B", 0, 3.0 * 1.5)]
        scales = fit_op_scales(records, costs, blocks, names,
                               time_scale=1.0)
        assert scales == {"a": 1.5, "b": 1.5, "c": 1.5}

    def test_unsampled_blocks_keep_unit_scale(self):
        costs = FakeBlockCosts(fw=(1.0, 1.0), bw=(1.0, 1.0))
        scales = fit_op_scales([_gpu_record("F", 0, 2.0)], costs,
                               ((0, 1), (1, 2)), ["a", "b"],
                               time_scale=1.0)
        assert scales == {"a": 2.0, "b": 1.0}

    def test_non_gpu_and_unparseable_records_ignored(self):
        costs = FakeBlockCosts(fw=(1.0,), bw=(1.0,))
        records = [_link_record("h2d", 100, 9.0),
                   OpRecord("U1", "gpu", 0, 0.0, 9.0, 0.0),
                   OpRecord("F99", "gpu", 98, 0.0, 9.0, 0.0),
                   _gpu_record("F", 0, 1.25)]
        scales = fit_op_scales(records, costs, ((0, 1),), ["a"],
                               time_scale=1.0)
        assert scales == {"a": 1.25}

    def test_zero_time_scale_rejected(self):
        with pytest.raises(ValueError, match="time_scale"):
            fit_op_scales([], FakeBlockCosts((1.0,), (1.0,)),
                          ((0, 1),), ["a"], time_scale=0.0)


# ---------------------------------------------------------------------------
# Link-fit recovery
# ---------------------------------------------------------------------------

@st.composite
def link_cases(draw):
    latency = draw(st.floats(min_value=0.0, max_value=1e-3,
                             allow_nan=False))
    bandwidth = draw(st.floats(min_value=1e6, max_value=1e12,
                               allow_nan=False))
    time_scale = draw(st.sampled_from([0.25, 1.0, 10.0]))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=1 << 30),
                          min_size=2, max_size=12, unique=True))
    records = [_link_record("h2d", nb,
                            (latency + nb / bandwidth) * time_scale)
               for nb in sizes]
    return latency, bandwidth, time_scale, records


class TestLinkFitRecovery:
    @given(link_cases())
    @settings(deadline=None)
    def test_property_noise_free_recovery(self, case):
        latency, bandwidth, time_scale, records = case
        fit = fit_link("h2d", records, time_scale=time_scale)
        assert fit.samples == len(records)
        assert fit.latency_s == pytest.approx(latency, rel=1e-6,
                                              abs=1e-12)
        assert fit.bandwidth_bytes_per_s == pytest.approx(bandwidth,
                                                          rel=1e-6)

    def test_degenerate_same_size_falls_back_to_throughput(self):
        records = [_link_record("d2h", 1000, 2.0),
                   _link_record("d2h", 1000, 2.0)]
        fit = fit_link("d2h", records, time_scale=1.0)
        assert fit.latency_s == 0.0
        assert fit.bandwidth_bytes_per_s == pytest.approx(500.0)

    def test_no_samples_is_unfit(self):
        fit = fit_link("d2s", [], time_scale=1.0)
        assert fit == LinkFit("d2s", 0.0, 0.0, 0, 0.0)


# ---------------------------------------------------------------------------
# Artifact serialization and merging
# ---------------------------------------------------------------------------

class TestArtifact:
    def _artifact(self):
        costs = FakeBlockCosts(fw=(1.0, 2.0), bw=(1.5, 2.5))
        records = [_gpu_record("F", 0, 1.1), _gpu_record("B", 1, 2.5),
                   _link_record("h2d", 1 << 20, 0.01),
                   _link_record("h2d", 1 << 22, 0.03)]
        return fit_trace(records, costs=costs, blocks=((0, 1), (1, 2)),
                         layer_names=["a", "b"], time_scale=1.0,
                         model="toy", meta={"seed": 0})

    def test_json_round_trip_is_lossless(self, tmp_path):
        art = self._artifact()
        path = tmp_path / "calib.json"
        art.save(path)
        loaded = CalibrationArtifact.load(path)
        assert loaded.to_json() == art.to_json()
        assert loaded.op_scales == art.op_scales
        assert loaded.links["h2d"] == art.links["h2d"]
        assert loaded.version == CALIBRATION_SCHEMA_VERSION

    def test_unknown_schema_version_rejected(self, tmp_path):
        payload = self._artifact().to_json()
        payload["schema_version"] = CALIBRATION_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema version"):
            CalibrationArtifact.load(path)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf,
                                       0.0, -1.0])
    def test_bad_op_scale_rejected(self, tmp_path, scale, capsys):
        """The artifact boundary applies fit_op_scales' own rule, so
        ``validate --calibration`` refuses the file with exit code 2."""
        from repro.cli import main

        payload = self._artifact().to_json()
        payload["op_scales"]["b"] = scale
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'b'"):
            CalibrationArtifact.load(path)
        assert main(["validate", "--config", "cnn",
                     "--calibration", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read calibration artifact" in err and "'b'" in err

    def test_merge_unions_scales_and_pools_links(self):
        a = self._artifact()
        b = CalibrationArtifact(
            model="other", time_scale=1.0, op_scales={"c": 2.0},
            links={"h2d": LinkFit("h2d", 0.0,
                                  a.links["h2d"].bandwidth_bytes_per_s,
                                  2, 0.0)})
        merged = merge_artifacts([a, b])
        assert merged.op_scales == {**a.op_scales, "c": 2.0}
        assert merged.links["h2d"].samples == a.links["h2d"].samples + 2
        assert merged.links["h2d"].bandwidth_bytes_per_s > 0
        assert merge_artifacts([a]) is a
        with pytest.raises(ValueError):
            merge_artifacts([])


# ---------------------------------------------------------------------------
# End to end: fit from a real validation run, re-plan calibrated
# ---------------------------------------------------------------------------

class TestCalibratedValidation:
    #: measurement jitter allowance — thread-scheduling noise between two
    #: paced runs; well below the uncalibrated errors the fit removes
    EPS = 0.02

    @pytest.mark.parametrize("name", ["cnn", "gpt"])
    def test_calibrated_replan_does_not_worsen_error(self, name):
        from repro.eval.validation import validate_config

        before = validate_config(name, target_wall_s=0.15)
        art = fit_validation_report(before)
        assert art.op_scales and all(s > 0 for s in
                                     art.op_scales.values())
        after = validate_config(name, target_wall_s=0.15,
                                calibration=art.op_scales)
        assert after.max_abs_error <= before.max_abs_error + self.EPS

    def test_report_without_artifacts_rejected(self):
        from repro.eval.validation import ValidationReport
        from repro.sim.stall import StallProfile

        empty = StallProfile(makespan=0.0, gpu_busy=0.0)
        report = ValidationReport(
            config="cnn", batch_size=1, num_blocks=1, plan_string="",
            time_scale=1.0, predicted=empty, measured=empty)
        with pytest.raises(ValueError, match="raw artifacts"):
            fit_validation_report(report)
