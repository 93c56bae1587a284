"""Benchmark workloads: seeded inputs, the commands of one pass, and output oracles.

``generate`` writes a workload's inputs (YAML configs, the kinked table CSV)
into a work directory and returns its plan: the ``wfsim`` argv lists of one
pass, the configs loaded at set-up, and the unit its throughput counts.
Everything the program sees comes from the seed through these files and argv.
The oracles read the files and stdout that the commands produced. The
physical constants and published tables they need are restated here. Only
the read-back check uses the program as its reference: it compares the CLI's
file with the library's own acquisition.

Every input property that sets the cost of a pass (budgets, seed counts,
knot count, ensemble size, the planning N ladder) is fixed; the seed only
moves values (readout seeds, waveform shapes, a 1% jitter on each N), so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

PERIOD_S = 9.6e-6
T_S = 150e-9
GAMMA_E = 2.0 * math.pi * 28.024e9  # electron gyromagnetic ratio, rad/(s T)
# field amplitude of the calibrated scaling tone: phase amplitude 0.04*sqrt(6)/pi
TONE_AMPLITUDE_T = 0.04 * math.sqrt(6.0) / math.pi / (2.0 * GAMMA_E * T_S)

SLOPE_TOL = 0.07  # acceptance criterion 4
IDENTITY_RTOL = 1e-10  # delta^2 = delta_stat^2 + delta_det^2

# published optimal-allocation tables (N, n1, n2)
TABLE_SQL = (
    (4, 2, 2), (32, 4, 8), (60, 5, 12), (168, 7, 24), (480, 10, 48),
    (840, 12, 70), (1066, 13, 82), (1984, 16, 124), (2380, 17, 140),
)
TABLE_HQL = (
    (12, 3, 4), (140, 10, 14), (234, 13, 18), (408, 17, 24), (560, 20, 28),
    (736, 23, 32), (1026, 27, 38), (1260, 30, 42), (1518, 33, 46),
    (1924, 37, 52), (2240, 40, 56), (2580, 43, 60),
)
# fitted error model of those tables: delta^2 = (a/n2^p)^2 + (c/n1^q)^2
MODEL = {"sql": (0.0555, 0.5, 0.04, 1.0), "hql": (0.0555, 1.0, 0.04, 1.0)}
BRUTE_FORCE_MAX_N = 3000

WORKLOADS = ("scaling-tone", "scaling-table", "ensemble-roundtrip", "planning")

# full-size and self-check sizes of every cost-setting input
SIZES = {
    "full": {"tone_seeds": 200, "table_seeds": 10, "table_knots": 257,
             "batches": 10_000, "ladder": 40, "ladder_max": 2e5},
    "tiny": {"tone_seeds": 20, "table_seeds": 2, "table_knots": 65,
             "batches": 200, "ladder": 6, "ladder_max": 2e3},
}

# per-layer metrics whose layer or role is not on a workload's path; the
# traced run still reports them (as 0), since every traced run carries every
# per-layer metric, and the self-check holds them at 0 and all others above 0
_SCALING_OFF = ("allocation.optimize_exact.calls", "allocation.optimize_exact.s",
                "allocation.candidates", "measurement.csv_write.s", "measurement.csv_write.bytes",
                "measurement.csv_read.s", "measurement.csv_read.bytes", "waveform.estimate_holder.s")
OFF_PATH = {
    "scaling-tone": _SCALING_OFF,
    "scaling-table": _SCALING_OFF,
    "ensemble-roundtrip": ("allocation.optimize_exact.calls", "allocation.optimize_exact.s",
                           "allocation.candidates", "allocation.self_s",
                           "measurement.with_seed.s", "waveform.estimate_holder.s"),
    "planning": ("waveform.integrate.calls", "waveform.integrate.self_s",
                 "waveform.integrate.calls_per_acquire", "waveform.evaluate.calls",
                 "waveform.evaluate.self_s", "measurement.acquire.calls",
                 "measurement.acquire.self_s", "measurement.with_seed.s",
                 "measurement.noise_draws", "measurement.csv_write.s",
                 "measurement.csv_write.bytes", "measurement.csv_read.s",
                 "measurement.csv_read.bytes", "measurement.self_s",
                 "estimator.reconstruct.calls", "estimator.score.calls", "estimator.self_s"),
}

OUT = "out"
COMMON = ["--out", OUT, "--deterministic"]


def _yaml(path: Path, text: str) -> str:
    path.write_text(text)
    return path.name


def _kinked_table(rng: random.Random, knots: int) -> list[tuple[float, float]]:
    """One period sampled on uniform knots: a fundamental with weak 2nd and
    3rd harmonics plus triangular kinks, scaled to the calibrated tone's peak
    so the hql phase stays inside one atan2 branch at every table budget."""
    ts = [PERIOD_S * i / (knots - 1) for i in range(knots)]
    amps = (1.0, rng.uniform(0.05, 0.15), rng.uniform(0.0, 0.1))
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in amps]
    vals = [sum(a * math.sin(2.0 * math.pi * (m + 1) * t / PERIOD_S + psi)
                for m, (a, psi) in enumerate(zip(amps, phases))) for t in ts]
    for _ in range(8):
        centre, half, height = rng.randrange(knots), rng.randint(3, 12), rng.uniform(-0.15, 0.15)
        for i in range(max(0, centre - half), min(knots, centre + half + 1)):
            vals[i] += height * (1.0 - abs(i - centre) / (half + 1))
    vals[-1] = vals[0]
    peak = max(abs(v) for v in vals)
    return [(t, TONE_AMPLITUDE_T * v / peak) for t, v in zip(ts, vals)]


def _table_config(rng: random.Random, work: Path, knots: int, extra: str = "") -> str:
    with open(work / "table.csv", "w", newline="") as fh:
        fh.write("# t_seconds,b_tesla\n")
        csv.writer(fh, lineterminator="\n").writerows(
            (repr(t), repr(b)) for t, b in _kinked_table(rng, knots))
    return _yaml(work / "table.yaml",
                 f"waveform:\n  period: {PERIOD_S:.6e}\n  csv: table.csv\n"
                 f"readout:\n  seed: {rng.getrandbits(32)}\n{extra}")


def _tone_config(rng: random.Random, work: Path, name: str, extra: str = "") -> str:
    a1 = TONE_AMPLITUDE_T * rng.uniform(0.5, 1.0)
    a2 = TONE_AMPLITUDE_T * rng.uniform(0.0, 0.3)
    return _yaml(work / name,
                 f"waveform:\n  period: {PERIOD_S:.6e}\n  components:\n"
                 f"    - {{amplitude: {a1:.9e}, harmonic: 1, phase: {rng.uniform(0, 6.28):.6f}}}\n"
                 f"    - {{amplitude: {a2:.9e}, harmonic: 2, phase: {rng.uniform(0, 6.28):.6f}}}\n"
                 f"readout:\n  seed: {rng.getrandbits(32)}\n{extra}")


def generate(workload: str, seed: int, work: Path, size: str = "full") -> dict:
    """Write the workload's inputs into ``work`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    z = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    plan = {"workload": workload, "seed": seed, "size": size}
    if workload == "scaling-tone":
        cfg = _yaml(work / "tone.yaml", f"readout:\n  seed: {rng.getrandbits(32)}\n"
                                        f"experiment:\n  seeds: {z['tone_seeds']}\n")
        plan["commands"] = [["scaling", "--scheme", s, "--config", cfg, "--no-decoherence", *COMMON]
                            for s in ("sql", "hql")]
        plan["configs"] = [cfg]
        plan["unit"] = "ensembles"
        plan["units_per_pass"] = z["tone_seeds"] * (len(TABLE_SQL) + len(TABLE_HQL))
    elif workload == "scaling-table":
        cfg = _table_config(rng, work, z["table_knots"],
                            f"experiment:\n  budgets: [140, 560, 2240]\n  seeds: {z['table_seeds']}\n")
        plan["commands"] = [["scaling", "--scheme", "hql", "--config", cfg, "--no-decoherence", *COMMON]]
        plan["configs"] = [cfg]
        plan["unit"] = "ensembles"
        plan["units_per_pass"] = 3 * z["table_seeds"]
    elif workload == "ensemble-roundtrip":
        k, n1 = 7, 40
        cfg = _tone_config(rng, work, "roundtrip.yaml",
                           f"protocol:\n  kind: pdd-tdqd\n  k: {k}\n  t_s: {T_S:.6e}\n"
                           f"grid:\n  n1: {n1}\nexperiment:\n  seeds: {z['batches']}\n")
        plan["commands"] = [["simulate", "--config", cfg, *COMMON],
                            ["reconstruct", "--config", cfg, "--ensemble", f"{OUT}/ensemble.csv", *COMMON]]
        plan["configs"] = [cfg]
        plan["unit"] = "estimates"
        plan["units_per_pass"] = n1 * z["batches"]
        plan["ensemble"] = {"k": k, "n1": n1, "batches": z["batches"]}
    else:
        tone = _tone_config(rng, work, "tone.yaml")
        table = _table_config(rng, work, z["table_knots"])
        cmds = [["allocate", "--scheme", "hql", "--n", str(N)] for N, _, _ in TABLE_HQL]
        cmds += [["allocate", "--scheme", "sql", "--n", str(N), "--paper-rule"] for N, _, _ in TABLE_SQL]
        steps = z["ladder"]
        for i in range(steps):
            base = 10.0 ** (1.0 + (i + 0.5) * (math.log10(z["ladder_max"]) - 1.0) / steps)
            N = str(int(base * rng.uniform(0.99, 1.01)))
            scheme = ("sql", "hql")[i % 2]
            cmds.append(["allocate", "--scheme", scheme, "--n", N])
            cmds.append(["allocate", "--scheme", scheme, "--n", N, "--budget"])
        cmds.append(["compare-tables", *COMMON])
        cmds += [["sensitivity", "--protocol", p, *COMMON] for p in ("tdqd", "pdd-tdqd")]
        cmds += [["holder", "--config", c] for c in (tone, table)]
        plan["commands"] = cmds
        plan["configs"] = [tone, table]
        plan["unit"] = "commands"
        plan["units_per_pass"] = len(cmds)
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    return plan


# ---------------------------------------------------------------- oracles


def _slope(work: Path, scheme: str) -> float:
    with open(work / OUT / f"scaling_{scheme}_summary.json") as fh:
        return float(json.load(fh)["fitted_slope"])


def _split(stdout: str) -> tuple[int, int]:
    first = stdout.strip().splitlines()[0]
    n1, n2 = (int(part.split("=")[1]) for part in first.split(","))
    return n1, n2


def _brute_force(scheme: str, N: int, budget: bool) -> tuple[int, int]:
    """Smallest-n1 minimiser of the table model over every admissible split."""
    a, p, c, q = MODEL[scheme]
    best = None
    for n1 in range(1, N + 1):
        if not budget and N % n1:
            continue
        n2 = N // n1
        d = (a / n2**p) ** 2 + (c / n1**q) ** 2
        if best is None or d < best[0]:
            best = (d, n1, n2)
    return best[1], best[2]


def _check_allocate(argv: list[str], stdout: str) -> str | None:
    scheme, N = argv[2], int(argv[4])
    n1, n2 = _split(stdout)
    if "--paper-rule" in argv or (scheme == "hql" and "--budget" not in argv
                                  and any(N == row[0] for row in TABLE_HQL)):
        row = next(r for r in (TABLE_SQL if scheme == "sql" else TABLE_HQL) if r[0] == N)
        return None if (N, n1, n2) == row else f"N={N}: got ({n1}, {n2}), published {row[1:]}"
    budget = "--budget" in argv
    if (n1 * n2 > N) if budget else (n1 * n2 != N):
        return f"N={N}: n1*n2={n1 * n2} breaks the budget"
    if N <= BRUTE_FORCE_MAX_N:
        expected = _brute_force(scheme, N, budget)
        if (n1, n2) != expected:
            return f"N={N}: got ({n1}, {n2}), brute force {expected}"
    return None


def check_pass(plan: dict, work: Path, results: list[tuple[int, str]]) -> dict[int, str]:
    """Oracle verdicts of one pass: command index -> failure reason.

    ``results`` holds (exit code, stdout) per command; a non-zero exit is a
    failure before any oracle runs.
    """
    failures = {i: f"exit code {rc}" for i, (rc, _) in enumerate(results) if rc != 0}
    if failures:
        return failures
    name = plan["workload"]
    try:
        if name == "scaling-tone":
            for i, (scheme, target) in enumerate((("sql", -1.0 / 3.0), ("hql", -0.5))):
                s = _slope(work, scheme)
                if not abs(s - target) <= SLOPE_TOL:
                    failures[i] = f"{scheme} slope {s:.4f} outside {target:.4f} +/- {SLOPE_TOL}"
        elif name == "scaling-table":
            s = _slope(work, "hql")
            with open(work / OUT / "scaling_hql.csv", newline="") as fh:
                deltas = [float(r["delta_rad"]) for r in csv.DictReader(fh)]
            if not abs(s + 0.5) <= SLOPE_TOL:
                failures[0] = f"hql slope {s:.4f} outside -0.5 +/- {SLOPE_TOL}"
            elif len(deltas) != 3 or not all(math.isfinite(d) for d in deltas):
                failures[0] = f"deltas {deltas} are not three finite values"
        elif name == "ensemble-roundtrip":
            with open(work / OUT / "error_report.json") as fh:
                rep = json.load(fh)
            gap = abs(rep["delta_sq_rad2"] - rep["delta_sq_direct_rad2"]) / rep["delta_sq_rad2"]
            if not gap < IDENTITY_RTOL:
                failures[1] = f"decomposition identity off by {gap:.3g} relative"
        else:
            for i, (argv, (_, out)) in enumerate(zip(plan["commands"], results)):
                reason = None
                if argv[0] == "allocate":
                    reason = _check_allocate(argv, out)
                elif argv[0] == "holder" and argv[2] == "tone.yaml":
                    q = float(out.split()[0].split("=")[1])
                    reason = None if q == 1.0 else f"holder q={q} on the tone, expected 1"
                if reason:
                    failures[i] = reason
    except (OSError, ValueError, KeyError, IndexError, StopIteration, ZeroDivisionError) as exc:
        failures[len(results) - 1] = f"unreadable output: {exc!r}"
    return failures


def readback_check(plan: dict, work: Path) -> str | None:
    """The ensemble read back from the simulate output equals, bit for bit,
    the ensemble the library acquires from the same config and seed."""
    import wfsim

    e = plan["ensemble"]
    try:
        cfg = wfsim.load_config(work / plan["configs"][0])
        simulated = wfsim.acquire_ensemble_hql(
            cfg.waveform, cfg.sensor, cfg.readout, e["n1"], 2 * e["k"],
            float(cfg.protocol["t_s"]), n_batches=e["batches"]).estimates
        back = wfsim.read_ensemble_csv(work / OUT / "ensemble.csv").estimates
    except (OSError, ValueError, KeyError, wfsim.WfsimError) as exc:
        return f"ensemble read-back check failed: {exc!r}"
    if back.shape != simulated.shape or back.tobytes() != simulated.tobytes():
        return "ensemble read back differs from the simulated one"
    return None


# checks made once per measured run, after the timed passes
RUN_CHECKS = {"ensemble-roundtrip": readback_check}
