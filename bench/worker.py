"""Benchmark worker: one fresh process per set-up sample or measured run.

    worker.py setup   --src DIR CONFIG...
        time ``import wfsim`` and loading the workload's configs, once,
        between two timings of the calibration kernel
    worker.py measure --src DIR --seconds S --trace 0|1
        run one untimed warm-up pass of plan.json's commands through
        ``wfsim.cli.main`` in process, then timed passes until S seconds of
        passes are measured; with --trace 1 every other pass is traced.
        The calibration kernel is timed between timed passes.

It runs in the workload's work directory and prints one JSON object on
stdout. The commands' own stdout and stderr are captured per command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import OUT, RUN_CHECKS, check_pass

MIN_PASSES = 3


def run_pass(main, commands):
    """Closed loop: each command starts when the previous one returns."""
    latencies, results = [], []
    start = perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        latencies.append(perf_counter() - t0)
        results.append((rc, out.getvalue()))
        if rc != 0:
            sys.stderr.write(f"{' '.join(argv)} -> {rc}: {err.getvalue()[-500:]}\n")
    return perf_counter() - start, latencies, results


def output_digest(commands, results, work: Path) -> str:
    """SHA-256 over every command's argv, exit code and stdout, then every
    output file in path order."""
    h = hashlib.sha256()
    for argv, (rc, out) in zip(commands, results):
        h.update(json.dumps([argv, rc, out]).encode())
    for path in sorted(p for p in (work / OUT).rglob("*") if p.is_file()):
        h.update(path.relative_to(work).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def calibrate() -> float:
    """Time a fixed pure-Python kernel (integer and float arithmetic, dict
    updates, float formatting; about 50 ms). It imports nothing, so it can run
    before the set-up it calibrates. Its time tracks the host's current speed,
    which drifts on a shared machine, and run.py scales every timing by it."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(60_000):
        x = (i * 2654435761) % 1000003
        acc += x * 1e-6 / (1.0 + (x & 7))
        counts[x & 4095] = counts.get(x & 4095, 0) + 1
    ",".join(repr(v * 1.000001) for v in range(20_000))
    return perf_counter() - t0


def setup(configs) -> dict:
    before = calibrate()
    t0 = perf_counter()
    import wfsim
    t1 = perf_counter()
    for cfg in configs:
        wfsim.load_config(cfg)
    load_s = perf_counter() - t1
    return {"import_s": t1 - t0, "load_s": load_s, "cal_s": (before + calibrate()) / 2}


def measure(seconds: float, trace: bool) -> dict:
    work = Path.cwd()
    plan = json.loads((work / "plan.json").read_text())
    commands = plan["commands"]
    from wfsim import cli

    tracer = Tracer() if trace else None
    traced_main = tracer.wrap("cli.main", cli.main) if trace else None
    attempted = failed = 0
    notes: list[str] = []
    reference = None

    def one_pass(traced: bool):
        nonlocal attempted, failed, reference
        if traced:
            tracer.install()
        try:
            wall, latencies, results = run_pass(traced_main if traced else cli.main, commands)
        finally:
            if traced:
                tracer.uninstall()
        layers = tracer.take() if traced else None
        failures = check_pass(plan, work, results)
        digest = output_digest(commands, results, work)
        reference = reference or digest
        if digest != reference:
            failures.setdefault(len(commands) - 1, "outputs differ from the warm-up pass")
        attempted += len(commands)
        failed += len(failures)
        notes.extend(f"{' '.join(commands[i])}: {why}" for i, why in sorted(failures.items()))
        return wall, latencies, layers

    one_pass(False)  # warm-up: caches, lazy imports, first file creation
    walls, traced_walls, latencies, layers, cals, traced_cals = [], [], [], [], [], []
    measured = 0.0
    before = calibrate()
    while seconds > 0 and (measured < seconds or len(walls) < MIN_PASSES
                           or (trace and len(traced_walls) < MIN_PASSES)):
        traced = trace and len(walls) > len(traced_walls)
        wall, lat, lay = one_pass(traced)
        after = calibrate()
        cal, before = (before + after) / 2, after
        measured += wall
        if traced:
            traced_walls.append(wall)
            traced_cals.append(cal)
            layers.append(lay)
        else:
            walls.append(wall)
            cals.append(cal)
            latencies.append(lat)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_check = RUN_CHECKS.get(plan["workload"])
    if run_check is not None:
        attempted += 1
        reason = run_check(plan, work)
        if reason:
            failed += 1
            notes.append(reason)
    return {"walls": walls, "traced_walls": traced_walls, "latencies": latencies,
            "cals": cals, "traced_cals": traced_cals,
            "layers": layers, "attempted": attempted, "failed": failed,
            "failures": notes[:20], "digest": reference, "peak_rss_kb": peak_rss_kb}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("configs", nargs="*")
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    if args.mode == "setup":
        result = setup(args.configs)
    else:
        result = measure(args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
