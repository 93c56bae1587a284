"""Record the reference output digests that run.py compares against.

    python3 bench/record_digests.py SEED [SEED ...]

For each workload and seed this runs the untimed warm-up pass only and stores
the SHA-256 of its deterministic outputs in bench/digests.json. Re-record a
seed only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import WORKLOADS


def main(seeds: list[int]) -> int:
    path = run.BENCH / "digests.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            work, _ = run.prepare(workload, seed)
            res = run.worker(["measure", "--seconds", "0"], work,
                             time.monotonic() + run.RUN_TIMEOUT_S)
            if res["failed"]:
                print(f"{workload} seed {seed}: {res['failures']}", file=sys.stderr)
                return 1
            refs.setdefault(workload, {})[str(seed)] = res["digest"]
            print(workload, seed, res["digest"])
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
