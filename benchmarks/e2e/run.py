"""The repo benchmark: seven workloads, end to end and layer by layer.

One workload, as the benchmark driver runs it (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 3 \
        --seconds 10 --trace 0

prints every end-to-end metric by name with its unit, then one JSON
object on the last line.  ``--trace 1`` measures one untraced round,
wraps each layer's public functions (``layers.py``), measures traced
rounds, prints the per-layer metrics instead and leaves a Chrome trace
in ``benchmarks/e2e/out/``.

Without ``--workload`` all seven run, each in a fresh child interpreter;
``--repeat N --out FILE`` records N runs of each for ``--compare``::

    python3 benchmarks/e2e/run.py --repeat 5 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

See ``README.md`` next to this file for the workloads, the metrics and
how they interact.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up is repeated in fresh interpreters while the samples so far
#: add up to less than this share of ``--seconds``, so short set-ups
#: (imports only) report a median of several and long ones (a 136-plan
#: cache pre-fill, steady by its length) are not paid three times over.
SETUP_BUDGET = 0.3
SETUP_MAX_SAMPLES = 5


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated inside the sample."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: Any, seconds: float) -> Dict[str, List[Any]]:
    """Whole rounds, closed loop, until the total is nearest ``seconds``.

    Under ``--trace 1`` the first round runs unwrapped (the baseline of
    ``trace.overhead_frac``) and the wrappers go in before the second.
    """
    rec = workload.rec
    rounds: Dict[str, List[Any]] = {"plain": [], "traced": []}
    start = time.perf_counter()
    while True:
        if rec is not None and rounds["plain"] and not rec.installed:
            rec.install()
        kind = "traced" if rec is not None and rec.installed else "plain"
        rounds[kind].append(workload.round())
        done = len(rounds["plain"]) + len(rounds["traced"])
        elapsed = time.perf_counter() - start
        if workload.exhausted:
            break
        if rec is not None and not rounds["traced"]:
            continue
        if elapsed + 0.5 * elapsed / done >= seconds:
            break
    return rounds


def run_workload(name: str, seed: int, seconds: float, scale: float,
                 trace: bool, setup_only: bool = False) -> Dict[str, Any]:
    """Set up, measure, check and tear down one workload in this process."""
    from layers import Recorder
    from workloads import WORKLOADS

    workdir = OUT / f"run-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # nothing may fall back to ~/.cache/karma-repro
    os.environ["KARMA_PLAN_CACHE_DIR"] = str(workdir / "cache")
    os.environ["KARMA_FLIGHT_DIR"] = str(workdir / "flight")
    rec = Recorder() if trace else None
    workload = WORKLOADS[name](seed, scale, workdir, rec)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T_START
        if setup_only:
            return {"setup_s": setup_s}
        rounds = measure(workload, seconds)
        extras = workload.finish()
        peak_rss_mb = 0.0 if trace else workload.peak_rss_mb()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    every = rounds["plain"] + rounds["traced"]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    if trace:
        rec.write_chrome_trace(OUT / f"trace_{name}.json")
        measured = {**rec.fold(), **extras}
        plain, traced = (
            sum(r.wall_s for r in rs) / max(1, sum(r.units for r in rs))
            for rs in (rounds["plain"], rounds["traced"]))
        measured["trace.overhead_frac"] = traced / plain - 1 if plain else 0.0
        wanted = SPEC["per_layer"]
    else:
        latencies = [ms for r in every for ms in r.latencies_ms]
        wall = sum(r.wall_s for r in every)
        measured = {
            "setup_s": more_setups(name, seed, scale, setup_s,
                                   SETUP_BUDGET * seconds),
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s":
                sum(r.units for r in every) / wall if wall else 0.0,
            "latency_ms.p50": percentile(latencies, 50),
            "latency_ms.p90": percentile(latencies, 90),
        }
        wanted = SPEC["end_to_end"]
        print(f"{name}: seed {seed}, {len(every)} round(s), "
              f"{sum(r.units for r in every)} {workload.unit}, "
              f"{len(latencies)} latency samples "
              f"({workload.latency_of})")
    for problem in workload.problems[:10]:
        print(f"PROBLEM {problem}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for metric, entry in metrics.items():
        print(f"{name:<15} {metric:<44} {entry['value']:>14.6f} "
              f"{entry['unit']}")
    return {"correct": failed == 0 and not workload.problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def child(name: str, seed: int, scale: float, *flags: str,
          timeout: float = 175.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--scale", str(scale), *flags],
        capture_output=True, text=True, timeout=timeout)


def more_setups(name: str, seed: int, scale: float, first: float,
                budget_s: float) -> float:
    """Median set-up time over this run's own and further fresh ones."""
    samples = [first]
    while sum(samples) < budget_s and len(samples) < SETUP_MAX_SAMPLES:
        done = child(name, seed, scale, "--setup-only")
        if done.returncode != 0:
            raise RuntimeError(f"repeated set-up failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# -- all workloads, results files, comparison --------------------------------


def machine() -> Dict[str, Any]:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"   # an exported checkout, or no git at all
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def run_all(args: argparse.Namespace) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    ok = True
    for _ in range(args.repeat):
        for name in names:
            done = child(name, args.seed, args.scale,
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace))
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            runs[name].append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
             "trace": args.trace, **machine(), "runs": runs}, indent=1))
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    """One row per (end-to-end metric, workload): both medians, how much
    worse B is, the bound, and ok / regressed / unresolved (A's own
    quartile spread exceeds the bound, so the bound cannot be resolved)."""
    a, b = (json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b))
    regressed = False
    print(f"{'workload':<15} {'metric':<18} {'A median':>12} {'B median':>12}"
          f" {'worse by':>9} {'bound':>6}  verdict")
    for metric in SPEC["end_to_end"]:
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for name in a:
            va, vb = ([r["metrics"][metric["name"]]["value"] for r in runs]
                      for runs in (a[name], b.get(name, [])))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = sign * (mb - ma) / ma if ma else math.inf
            spread = 0.0
            if len(va) >= 2 and ma:
                q1, _, q3 = statistics.quantiles(va, n=4)
                spread = (q3 - q1) / ma
            verdict = ("unresolved" if spread > metric["bound"] else
                       "regressed" if worse > metric["bound"] else "ok")
            regressed = regressed or verdict == "regressed"
            print(f"{name:<15} {metric['name']:<18} {ma:>12.5g} {mb:>12.5g}"
                  f" {worse:>+9.1%} {metric['bound']:>6.0%}  {verdict}")
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names,
                   help="run this one here; omitted, all seven run, each "
                        "in a fresh child interpreter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every round (the smoke test uses 0.02)")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs of each workload when all seven run")
    p.add_argument("--out", help="write the runs to this results file")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "does not exist", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    # for this process and for every child: the daemon, the manifest CLI
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = run_workload(args.workload, args.seed, args.seconds, args.scale,
                          bool(args.trace), args.setup_only)
    if args.setup_only:
        print(result["setup_s"])
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
