"""Trace-calibration benchmarks: fit fidelity and closed-loop accuracy.

Two questions about ``repro.costs.trace_fit``:

1. **Fit fidelity** — given a trace synthesized from *known* per-block
   compute scales and link parameters over a real ResNet-50 cost
   profile, how closely does the least-squares fit recover them?  Fully
   deterministic (seeded rng, no wall clock), so the recovered errors
   are gateable key metrics.
2. **Closed-loop accuracy** — on the live validation harness (paced
   execution of the cnn and gpt configs), does re-planning with the
   fitted scales reduce the sim-vs-real stall error?  Wall-clock
   measurements are load-sensitive, so the per-config errors are
   reported for the trajectory but the gate is the epsilon-tolerant
   not-worse assert, mirroring the test suite.

Emits ``BENCH_calibration.json``; ``fit.max_rel_error`` and
``fit.link_bw_rel_error`` are gated in
``benchmarks/baselines/key_metrics.json`` (direction: lower).
"""

import numpy as np

from repro.core import BlockPolicy, make_plan
from repro.costs import fit_link, fit_op_scales, profile_graph
from repro.eval.validation import DEFAULT_CONFIGS, validate_config
from repro.costs.trace_fit import fit_validation_report
from repro.hardware import TransferModel, abci_host, karma_swap_link
from repro.hardware.spec import v100_sxm2_16gb
from repro.models import build
from repro.runtime.streams import OpRecord
from repro.sim import block_costs

NUM_BLOCKS = 8
TIME_SCALE = 0.02
NOISE = 0.01
TRUE_LATENCY_S = 5e-6
TRUE_BANDWIDTH = 12e9


def _resnet50_blocks():
    graph = build("resnet50")
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    cost = profile_graph(graph, device, transfer, 16)
    n = len(graph)
    bounds = [round((i + 1) * n / NUM_BLOCKS) for i in range(NUM_BLOCKS)]
    blocks = tuple(zip([0] + bounds[:-1], bounds))
    policies = [BlockPolicy.SWAPPED] * (NUM_BLOCKS - 1) + \
        [BlockPolicy.RESIDENT]
    plan = make_plan(graph.name, 16, list(blocks), policies)
    costs = block_costs(plan.blocks, cost)
    names = [spec.name for spec in graph]
    return blocks, costs, names


def test_synthetic_fit_fidelity(bench_writer):
    """Recovered scales / link parameters vs the known ground truth the
    trace was synthesized from; deterministic, gated."""
    blocks, costs, names = _resnet50_blocks()
    rng = np.random.default_rng(0)
    true_scales = rng.uniform(0.5, 2.0, NUM_BLOCKS)

    records = []
    for b in range(NUM_BLOCKS):
        for kind, ref in (("F", costs.fw[b]), ("R", costs.fw[b]),
                          ("B", costs.bw[b])):
            for _ in range(3):
                eps = rng.uniform(-NOISE, NOISE)
                dur = true_scales[b] * ref * (1.0 + eps) * TIME_SCALE
                records.append(OpRecord(
                    label=f"{kind}{b + 1}", resource="gpu", block=b,
                    start=0.0, finish=dur, ready=0.0))
    for nbytes in (1 << 22, 1 << 24, 1 << 26, 1 << 28):
        dur = (TRUE_LATENCY_S + nbytes / TRUE_BANDWIDTH) * TIME_SCALE
        records.append(OpRecord(label="S", resource="h2d", block=0,
                               start=0.0, finish=dur, ready=0.0,
                               nbytes=nbytes))

    scales = fit_op_scales(records, costs, blocks, names,
                           time_scale=TIME_SCALE)
    per_block = np.asarray([scales[names[s]] for s, _ in blocks])
    rel = np.abs(per_block - true_scales) / true_scales
    link = fit_link("h2d", records, time_scale=TIME_SCALE)
    bw_rel = abs(link.bandwidth_bytes_per_s - TRUE_BANDWIDTH) \
        / TRUE_BANDWIDTH

    print(f"\nsynthetic fit over {NUM_BLOCKS} blocks, {NOISE:.0%} noise: "
          f"max scale error {rel.max():.4f}, mean {rel.mean():.4f}; "
          f"link bw error {bw_rel:.2e} "
          f"(fit {link.bandwidth_bytes_per_s / 1e9:.2f} GB/s, "
          f"latency {link.latency_s * 1e6:.1f} us)")
    bench_writer.emit("calibration", {
        "fit.blocks": NUM_BLOCKS,
        "fit.noise": NOISE,
        "fit.max_rel_error": float(rel.max()),
        "fit.mean_rel_error": float(rel.mean()),
        "fit.link_bw_rel_error": float(bw_rel),
        "fit.link_latency_rel_error":
            float(abs(link.latency_s - TRUE_LATENCY_S) / TRUE_LATENCY_S),
    })
    # through-origin LS over 3 reps: error bounded by the injected noise
    assert rel.max() <= NOISE
    assert bw_rel <= 1e-6  # link samples are noise-free


def test_calibrated_validation_error(bench_writer):
    """Fit from one paced validation run per config, re-validate with the
    calibrated cost model; error must not get worse (epsilon-tolerant —
    paced wall clocks carry scheduler noise)."""
    eps = 0.02
    rows = {}
    worse = 0.0
    for name in DEFAULT_CONFIGS:
        before = validate_config(name, target_wall_s=0.4)
        art = fit_validation_report(before)
        after = validate_config(name, target_wall_s=0.4,
                                calibration=art.op_scales)
        rows[name] = (before.max_abs_error, after.max_abs_error)
        worse = max(worse, after.max_abs_error - before.max_abs_error)

    print("\ncalibrated validation (max abs stall error, fraction of "
          "makespan):")
    for name, (b, a) in rows.items():
        print(f"  {name:4} uncalibrated {b:.4f} -> calibrated {a:.4f}")
    bench_writer.emit("calibration", {
        **{f"{name}.uncalibrated_error": b for name, (b, _) in
           rows.items()},
        **{f"{name}.calibrated_error": a for name, (_, a) in
           rows.items()},
        "calibrated_not_worse": worse <= eps,
    })
    assert worse <= eps, \
        f"calibration worsened validation error by {worse:.4f}"
