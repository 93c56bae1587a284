"""Fast self-check of the benchmark harness at tiny sizes (about half a minute).

    python3 bench/selfcheck.py

Checks that BENCHMARK.json and the harness name the same metrics; that the
tracer wraps only bindings in other modules and restores them; that layer
self times add up to the traced command time; that every workload runs at
tiny sizes with tracing off and on, with every oracle passing and every
metric above 0 except the per-layer ones off the workload's path, which
must be exactly 0; and that the
benchmark refuses to run where there are no sources. Exits 1 on a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run
from tracing import LAYERS, PER_LAYER, Tracer
from workloads import OFF_PATH, WORKLOADS


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_tracer() -> None:
    sys.path.insert(0, str(run.SRC))
    from wfsim import cli, measurement, waveform

    original = waveform.integrate
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    tracer.install()
    try:
        check(measurement.integrate is not original and waveform.integrate is original,
              "install wraps other modules' bindings, not the defining module's")
        work, plan = run.prepare("scaling-table", 0, "tiny")
        os.chdir(work)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = traced_main(plan["commands"][0])
    finally:
        tracer.uninstall()
        os.chdir(run.ROOT)
    check(rc == 0, "traced tiny scaling-table command exits 0")
    check(all(getattr(m, name) is fn for m, name, fn, _ in tracer._patches),
          "uninstall restores every binding")
    root = sum(t1 - t0 for _, t0, t1, parent in tracer.spans if parent < 0)
    m = tracer.take()
    total = sum(m[f"{layer}.self_s"] for layer in (*LAYERS, "cli"))
    check(abs(total - root) < 1e-6 * max(root, 1.0), "layer self times sum to the command time")
    check(m["waveform.evaluate.calls"] == m["estimator.score.calls"],
          "evaluate calls inside integrate's quadrature are not traced")
    check(m["waveform.integrate.calls_per_acquire"] == (10 + 20 + 40) / 3,
          "integrate calls per acquire equal the mean n1 of budgets 140, 560, 2240")


def check_workloads(spec: dict) -> None:
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    check(names[1] == [n for n, _ in PER_LAYER], "per_layer names match the tracer's")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run.run(workload, 0, 0.2, bool(trace), size="tiny", setup_samples=1)
            metrics = result["metrics"]
            off = set(OFF_PATH[workload]) if trace else set()
            check(sorted(metrics) == sorted(names[trace])
                  and all(math.isfinite(v["value"]) for v in metrics.values()),
                  f"{workload} trace {trace}: every metric present and finite")
            check(all((v["value"] == 0) if name in off else (v["value"] > 0)
                      for name, v in metrics.items()),
                  f"{workload} trace {trace}: metrics above 0"
                  + (f", except the {len(off)} off-path ones at 0" if off else ""))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace {trace}: all {result['attempted']} operations pass")


def check_refuses_without_sources() -> None:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout, "refuses to run without src/")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        check_refuses_without_sources()
        check_tracer()
        check_workloads(spec)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
