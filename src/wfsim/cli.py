"""Command-line interface: simulation, reconstruction, allocation, scaling.

Exit codes: 0 success, 1 runtime error, 2 configuration error.  All CSVs
use '.' decimals, LF line endings, and a header row; every value is SI.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (
    HQL_MODEL,
    SQL_MODEL,
    TABLE_HQL,
    TABLE_SQL,
    calibrated_tone,
    optimize_exact,
    paper_rule_sql,
    run_scaling_experiment,
    validate_paper_tables,
)
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DecoheredSignalError, WfsimError
from .estimator import decompose_error, phase_truth, reconstruct
from .measurement import acquire, photon_shot_noise, read_ensemble_csv, write_ensemble_csv
from .sensor import Protocol, sensitivity_curve
from .waveform import estimate_holder

log = logging.getLogger("wfsim")

# sampling window of simulate and scaling
T_S = 150e-9


def _setup_logging():
    """Set the package logger's level from WFSIM_LOG on every call; only the
    first call installs the stderr handler, as basicConfig does nothing once
    the root logger has one.  A name that is not a level means WARNING."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    level = getattr(logging, os.environ.get("WFSIM_LOG", "WARNING").upper(), None)
    log.setLevel(level if isinstance(level, int) else logging.WARNING)


def _setting(flag, value, default):
    """The one override rule: the flag if given, else the config value, else the
    command's default.  Only None is unset, so 0 and [] reach their checks."""
    if flag is not None:
        return flag
    return default if value is None else value


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config is not None else ExperimentConfig()
    if args.seed is not None:
        try:
            cfg.readout = replace(cfg.readout, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    return cfg


def _outdir(args, cfg: ExperimentConfig) -> Path:
    out = Path(_setting(args.out, cfg.output, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _require_waveform(cfg: ExperimentConfig):
    if cfg.waveform is None:
        raise ConfigError("a 'waveform' config section is required for this command")


def cmd_simulate(args) -> int:
    cfg = _load(args)
    _require_waveform(cfg)
    kind = Protocol(_setting(args.protocol, cfg.protocol.get("kind"), Protocol.PDD_TDQD))
    t_s = _setting(args.t_s, cfg.protocol.get("t_s"), T_S)
    if kind is Protocol.RAMSEY_SQL:
        flags = [f for f, v in (("--k", args.k), ("--t-i", args.t_i), ("--seeds", args.seeds))
                 if v is not None]
        if flags:
            raise ConfigError(f"ramsey-sql takes n1 x n2 single-shot estimates; "
                              f"drop {', '.join(flags)}")
        n2 = _setting(args.n2, cfg.grid.get("n2"), 8)
        n_batches = 1
    else:
        k = _setting(args.k, cfg.protocol.get("k"), 1)
        n2 = _setting(args.n2, cfg.grid.get("n2"), 2 * k)
        if n2 != 2 * k:
            raise ConfigError(f"{kind.value} uses n2 = 2k = {2 * k} resources, got n2 = {n2}")
        n_batches = _setting(args.seeds, cfg.experiment.get("seeds"), 1)
    if args.t_i is None:
        n1 = _setting(args.n1, cfg.grid.get("n1"), 8)
    elif args.n1 is not None or "n1" in cfg.grid:
        raise ConfigError("--t-i acquires one instant; drop --n1 and grid.n1")
    else:
        n1 = 1
    ens = acquire(kind, cfg.waveform, cfg.sensor, cfg.readout, n1, n2, t_s,
                  n_batches=n_batches, t_i=args.t_i)
    out = _outdir(args, cfg)
    path = out / "ensemble.csv"
    write_ensemble_csv(ens, path, deterministic=args.deterministic)
    log.info("wrote %s (%d x %d)", path, ens.n1, ens.estimates.shape[1])
    print(path)
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load(args)
    _require_waveform(cfg)
    ens = read_ensemble_csv(args.ensemble)
    t_i, grid_t = ens.meta.get("t_i"), ens.grid.instants[0]
    if t_i is not None and not abs(t_i - grid_t) <= 1e-12 * grid_t:
        raise ValueError(f"ensemble acquired at t_i = {t_i!r}, but its one-bin grid "
                         f"scores it at T/2 = {grid_t!r}")
    phi_bar = reconstruct(ens)
    report = decompose_error(ens, cfg.waveform, cfg.sensor)
    out = _outdir(args, cfg)
    truth = phase_truth(cfg.waveform, cfg.sensor, ens.t_s, np.array(ens.grid.instants))
    rows = [(repr(t), repr(phi), repr(phi_t))
            for t, phi, phi_t in zip(ens.grid.instants, phi_bar.tolist(), truth.tolist())]
    _write_csv(out / "reconstruction.csv",
               ["t_seconds", "phi_tilde_rad", "phi_true_rad"], rows)
    report.to_json(out / "error_report.json")
    print(f"delta={math.sqrt(report.delta_sq):.6g} rad "
          f"(stat {math.sqrt(report.delta_stat_sq):.6g}, "
          f"det {math.sqrt(report.delta_det_sq):.6g})")
    return 0


def cmd_allocate(args) -> int:
    model = SQL_MODEL if args.scheme == "sql" else HQL_MODEL
    if args.paper_rule:
        if args.scheme != "sql":
            raise ConfigError("--paper-rule applies to the sql scheme only")
        n1, n2 = paper_rule_sql(args.n)
        print(f"n1={n1},n2={n2}")
        return 0
    alloc = optimize_exact(model, args.n, budget_mode=args.budget)
    print(f"n1={alloc.n1},n2={alloc.n2}")
    if args.budget and alloc.n1 * alloc.n2 != args.n:
        print(f"# budget mode: n1*n2={alloc.n1 * alloc.n2} <= N={args.n}", file=sys.stderr)
    return 0


def cmd_scaling(args) -> int:
    cfg = _load(args)
    t_s = cfg.protocol.get("t_s", T_S)
    budgets = cfg.experiment.get(
        "budgets", [N for N, _, _ in (TABLE_SQL if args.scheme == "sql" else TABLE_HQL)])
    if len(budgets) < 3:
        raise ConfigError(f"scaling fits a slope to >= 3 budgets, got {budgets}")
    seeds = _setting(args.seeds, cfg.experiment.get("seeds"), 100)
    if seeds < 2:
        raise ConfigError(f"scaling needs >= 2 seeds for its confidence interval, got {seeds}")
    allocator = cfg.experiment.get("allocator", "exact")
    if allocator == "paper" and args.scheme != "sql":
        raise ConfigError("experiment.allocator 'paper' applies to the sql scheme only")
    w = cfg.waveform or calibrated_tone(cfg.sensor, t_s, 9.6e-6)
    rows, slope = run_scaling_experiment(
        args.scheme, budgets, w, cfg.sensor, cfg.readout, seeds=seeds, t_s=t_s,
        decoherence=not args.no_decoherence, allocator=allocator,
    )
    out = _outdir(args, cfg)
    _write_csv(out / f"scaling_{args.scheme}.csv",
               ["N", "delta_rad", "delta_ci_rad", "n1", "n2"],
               [(r["N"], repr(r["delta"]), repr(r["delta_ci"]), r["n1"], r["n2"])
                for r in rows])
    # gnuplot-ready whitespace-separated data
    with open(out / f"scaling_{args.scheme}.dat", "w") as fh:
        fh.write("# N delta_rad delta_ci_rad\n")
        for r in rows:
            fh.write(f"{r['N']} {r['delta']!r} {r['delta_ci']!r}\n")
    summary = {"scheme": args.scheme, "seeds": seeds, "fitted_slope": slope,
               "decoherence": not args.no_decoherence}
    with open(out / f"scaling_{args.scheme}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"scheme={args.scheme} slope={slope:.4f}")
    return 0


def cmd_sensitivity(args) -> int:
    cfg = _load(args)
    kind = Protocol(_setting(args.protocol, cfg.protocol.get("kind"), Protocol.PDD_TDQD))
    if kind is Protocol.RAMSEY_SQL:
        raise ConfigError("sensitivity takes the k-pass protocols, not ramsey-sql")
    if args.k_max < 1:
        raise ConfigError(f"--k-max must be >= 1, got {args.k_max}")
    # without a waveform: the sensitivity figure's period and window
    T = cfg.waveform.period_T if cfg.waveform is not None else 2.4e-6
    t_s = cfg.protocol.get("t_s", 300e-9)
    ks, etas = sensitivity_curve(cfg.sensor, kind, range(1, args.k_max + 1), t_s, T,
                                 sigma_read=photon_shot_noise(cfg.readout, cfg.sensor))
    if not np.isfinite(etas).any():
        raise DecoheredSignalError(f"the {kind.value} envelope has decayed to 0 at every "
                                   f"k in 1..{args.k_max}: no finite sensitivity")
    out = _outdir(args, cfg)
    _write_csv(out / f"sensitivity_{kind.value}.csv",
               ["k", "eta_tesla_per_sqrthz"],
               [(int(k), repr(float(e))) for k, e in zip(ks, etas)])
    best = int(ks[np.argmin(etas)])
    print(f"protocol={kind.value} k_opt={best} eta_opt={float(np.min(etas)):.6g} T/sqrt(Hz)")
    return 0


def cmd_compare_tables(args) -> int:
    rows = validate_paper_tables()
    cfg = _load(args)
    out = _outdir(args, cfg)
    with open(out / "table_report.json", "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    n_fail = 0
    for r in rows:
        print(f"{r['scheme']} N={r['N']:>5} (n1={r['n1']}, n2={r['n2']}): {r['status']}")
        n_fail += r["status"] == "FAIL"
    return 1 if n_fail else 0


def cmd_holder(args) -> int:
    cfg = _load(args)
    _require_waveform(cfg)
    est = estimate_holder(cfg.waveform, n_grid=args.n_grid)
    print(f"q={est.q:.4g} M={est.M:.6g}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The wfsim argument parser, built on the first call and shared by every
    later one: no argument has a mutable default and help reads the terminal
    width when it is printed, so ``parse_args`` leaves the parser as it was.
    ``set_defaults(func=cmd_*)`` binds each command function when the parser
    is built; patching a ``cli.cmd_*`` afterwards does not reach ``main``."""
    parser = argparse.ArgumentParser(prog="wfsim",
                                     description="waveform-estimation simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="YAML config file")
        sp.add_argument("--seed", type=int, default=None, help="root RNG seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps in metadata")

    sp = sub.add_parser("simulate", help="acquire a phase-estimate ensemble")
    common(sp)
    sp.add_argument("--protocol", choices=[p.value for p in Protocol])
    sp.add_argument("--k", type=int)
    sp.add_argument("--t-i", type=float, dest="t_i")
    sp.add_argument("--t-s", type=float, dest="t_s")
    sp.add_argument("--n1", type=int)
    sp.add_argument("--n2", type=int)
    sp.add_argument("--seeds", type=int, help="independent repetitions (HQL batches)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("reconstruct", help="ZOH reconstruction + error report")
    common(sp)
    sp.add_argument("--ensemble", required=True, help="ensemble CSV path")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("allocate", help="optimal (n1, n2) for a budget N")
    common(sp)
    sp.add_argument("--scheme", choices=["sql", "hql"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", action="store_true", help="allow n1*n2 <= N")
    sp.add_argument("--paper-rule", action="store_true",
                    help="use the asymptotic rule n1 = round((2N)^(1/3))")
    sp.set_defaults(func=cmd_allocate)

    sp = sub.add_parser("scaling", help="simulated delta vs budget N")
    common(sp)
    sp.add_argument("--scheme", choices=["sql", "hql"], required=True)
    sp.add_argument("--seeds", type=int)
    sp.add_argument("--no-decoherence", action="store_true")
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("sensitivity", help="sensitivity vs pass count k")
    common(sp)
    sp.add_argument("--protocol", choices=["tdqd", "pdd-tdqd"],
                    help="default: protocol.kind, else pdd-tdqd")
    sp.add_argument("--k-max", type=int, default=128)
    sp.set_defaults(func=cmd_sensitivity)

    sp = sub.add_parser("compare-tables", help="validate published allocation tables")
    common(sp)
    sp.set_defaults(func=cmd_compare_tables)

    sp = sub.add_parser("holder", help="smoothness (Hoelder) estimate of the waveform")
    common(sp)
    sp.add_argument("--n-grid", type=int, default=4096)
    sp.set_defaults(func=cmd_holder)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (WfsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
