"""wfsim benchmark: one measured run of a workload (or of each, in turn).

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from src/, which
need not be installed. The workload's inputs are generated from the seed
into .bench_work/NAME/. Set-up is timed in fifteen fresh processes, and
the measured run is one more; every process is pinned to one thread. Every
timing is scaled to a reference host speed (see CAL_REF_S). The lines
printed before the last one report sample counts, quartiles, the
environment and the output digest. The last line is one JSON object: with
--trace 0 its metrics are the end-to-end ones, with --trace 1 the per-layer
ones from spans recorded at the layer boundaries. BENCHMARK.json lists them.
A traced run reports every per-layer metric; those whose layer is not on
the workload's path (workloads.OFF_PATH) read 0 and are reported apart.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

from tracing import PER_LAYER
from workloads import OFF_PATH, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 15
# Host speed on a shared machine drifts by tens of percent within seconds.
# worker.calibrate, a fixed pure-Python kernel, is timed before and after each
# set-up sample and each pass, and that timing is scaled by CAL_REF_S over the
# mean of the two: the seconds it would take on a host where the kernel takes
# CAL_REF_S.
CAL_REF_S = 0.05
RUN_TIMEOUT_S = 170  # one run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ALIASES = {"ensembles": "ensembles_per_s", "estimates": "estimates_per_s",
           "commands": "commands_per_s"}


class BenchError(RuntimeError):
    pass


def worker(args: list[str], work: Path, deadline: float) -> dict:
    """Run worker.py in ``work``; it is killed and reaped if it passes ``deadline``."""
    proc = subprocess.run([sys.executable, str(WORKER), *args, "--src", str(SRC)],
                          cwd=work, env={**os.environ, **THREAD_ENV}, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def command_percentiles(per_pass: list[list[float]]) -> tuple[float, float, float]:
    """Per-command latency: each command's median over the timed passes, then
    nearest-rank percentiles across the commands of a pass. Returns (p50,
    upper, p): upper is the highest percentile up to p90 that leaves at least
    ten commands beyond it, or the slowest command when a pass has fewer than
    twenty commands and no percentile at or above the median leaves ten."""
    typical = sorted(median(col) for col in zip(*per_pass))
    n = len(typical)
    p = min(0.9, 1.0 - 10.0 / n) if n >= 20 else 1.0
    return typical[math.ceil(0.5 * n) - 1], typical[math.ceil(p * n) - 1], p


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def _commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: do not let git search parents
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def prepare(workload: str, seed: int, size: str = "full") -> tuple[Path, dict]:
    """Fresh work directory with the workload's generated inputs."""
    if not (SRC / "wfsim" / "__init__.py").is_file():
        raise BenchError(f"no wfsim sources under {SRC}")
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work, generate(workload, seed, work, size)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        setup_samples: int = SETUP_SAMPLES) -> tuple[dict, list[str]]:
    """Measure one run; returns the result object and the report lines."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work, plan = prepare(workload, seed, size)
    setups = [worker(["setup", *plan["configs"]], work, deadline) for _ in range(setup_samples)]
    res = worker(["measure", "--seconds", str(seconds), "--trace", str(int(trace))],
                 work, deadline)
    import_s = [s["import_s"] * CAL_REF_S / s["cal_s"] for s in setups]
    setup_s = [(s["import_s"] + s["load_s"]) * CAL_REF_S / s["cal_s"] for s in setups]
    raw_setup_s = [s["import_s"] + s["load_s"] for s in setups]
    all_cals = res["cals"] + res["traced_cals"]
    cal = median(all_cals)
    lines = [
        f"workload {workload}, seed {seed}, {seconds:g} s measured, trace {int(trace)}; "
        f"closed loop, one client, {len(plan['commands'])} commands per pass",
        f"env: commit {_commit()}, nproc {len(os.sched_getaffinity(0))}, "
        f"python {platform.python_version()}, numpy {_version('numpy')}, "
        f"scipy {_version('scipy')}, threads pinned to 1",
        f"host: calibration kernel {cal:.6g} s (median of {quartiles(all_cals)}); each "
        f"timing below is scaled to a {CAL_REF_S:g} s kernel by the kernel timed around it",
        f"setup_s {median(setup_s):.6g} s (median of {quartiles(setup_s)}; "
        f"unscaled {median(raw_setup_s):.6g} s; import {median(import_s):.6g} s)",
    ]
    attempted, failed = res["attempted"], res["failed"]
    scales = [CAL_REF_S / c for c in res["cals"]]
    walls = [w * k for w, k in zip(res["walls"], scales)]
    if trace:
        traced_scales = [CAL_REF_S / c for c in res["traced_cals"]]
        traced = [w * k for w, k in zip(res["traced_walls"], traced_scales)]
        metrics = {name: median(layer[name] * (k if unit == "s" else 1)
                                for layer, k in zip(res["layers"], traced_scales))
                   for name, unit in PER_LAYER if name in res["layers"][0]}
        metrics["setup.import_s"] = median(import_s)
        metrics["host.calibration_s"] = cal
        metrics["trace_overhead_ratio"] = median(traced) / median(walls)
        lines.append(f"traced wall_s {median(traced):.6g} s ({quartiles(traced)}), "
                     f"untraced {median(walls):.6g} s ({quartiles(walls)})")
        units = dict(PER_LAYER)
    else:
        wall = median(walls)
        p50, p_hi, p = command_percentiles([[t * k for t in lat]
                                            for lat, k in zip(res["latencies"], scales)])
        metrics = {"setup_s": median(setup_s), "wall_s": wall,
                   "throughput_per_s": plan["units_per_pass"] / wall,
                   "call_p50_ms": 1e3 * p50, "call_p90_ms": 1e3 * p_hi,
                   "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        units = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
                 "call_p50_ms": "ms", "call_p90_ms": "ms", "peak_rss_mb": "MB"}
        lines += [
            f"wall_s {wall:.6g} s (median of {quartiles(walls)} passes; "
            f"unscaled {median(res['walls']):.6g} s)",
            f"{ALIASES[plan['unit']]} {metrics['throughput_per_s']:.6g} 1/s "
            f"(throughput_per_s: {plan['units_per_pass']} {plan['unit']} per pass)",
            f"call_p50_ms {metrics['call_p50_ms']:.6g} ms, call_p90_ms {metrics['call_p90_ms']:.6g} ms "
            f"(nearest-rank p50 and p{round(100 * p)} of {len(plan['commands'])} commands, "
            f"each the median of {len(walls)} passes)",
            f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        ]
    refs_path = BENCH / "digests.json"
    refs = json.loads(refs_path.read_text()).get(workload, {}) if refs_path.is_file() else {}
    ref = refs.get(str(seed)) if size == "full" else None
    status = "no reference for this seed" if ref is None else (
        "same as reference" if ref == res["digest"] else f"CHANGED from reference {ref}")
    lines += [
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)",
        *(f"  failure: {note}" for note in res["failures"]),
        f"output sha256 {res['digest']} ({status})",
    ]
    if trace:
        off = OFF_PATH[workload]
        lines += [f"  {name} = {value:.6g} {units[name]}" for name, value in metrics.items()
                  if name not in off]
        lines.append("  not on this workload's path: "
                     + ", ".join(f"{name} = {metrics[name]:g}" for name in off))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main() -> int:
    ap = argparse.ArgumentParser(description="wfsim benchmark: one measured run")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or 'all' to report each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError,
                IndexError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
