"""Stochastic readout simulation and phase-estimate ensembles.

The per-shot phase estimates {phi_ij} produced here all live in the same
differential phase convention as ``phase_exact`` (phi(t) ~ -2 gamma_e
b(t) t_s), so SQL and HQL ensembles can be reconstructed and decomposed
against the same truth.  The default Gaussian noise level is calibrated
so a single-resource estimate has a standard deviation of
``sigma_ref`` = 0.0555 rad at the reference repetition count, matching
the fitted statistical-error constants; the Poisson mode is the
bottom-up photon-statistics alternative.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DecoheredSignalError
from .sensor import (
    Protocol,
    ProtocolConfig,
    SensorParams,
    _check_window,
    _phase_gain,
    _protocol_envelope,
    _quadratures,
    envelope_pdd,
    envelope_ramsey,
    phase_exact,
)
from .waveform import SampleGrid, WaveformSpec, integrate, make_grid

__all__ = [
    "ReadoutModel",
    "PhaseEstimate",
    "PhaseEnsemble",
    "photon_shot_noise",
    "simulate_readout",
    "estimate_phase",
    "acquire_ensemble_sql",
    "acquire_ensemble_hql",
    "acquire_single_instant_hql",
    "write_ensemble_csv",
    "read_ensemble_csv",
]

ENVELOPE_FLOOR = 1e-6

# repetition count the sigma_ref calibration is anchored to
SHOTS_REF = 2_000_000

# bright-state photons per shot, chosen so that C * sqrt(SHOTS_REF * photons)
# equals the reference single-point SNR of 50 at the default contrast C = 0.25
DEFAULT_PHOTONS_PER_SHOT = (50.0 / 0.25) ** 2 / SHOTS_REF


@dataclass(frozen=True)
class ReadoutModel:
    """Readout noise model for one signal point.

    noise_mode is one of "gaussian" (fitted calibration, the default),
    "poisson" (photon statistics) or "none" (noiseless).  sigma_ref is
    the per-quadrature signal noise at shots_R = 2e6 in gaussian mode,
    scaled as 1/sqrt(shots_R) away from that reference.
    """

    shots_R: int = SHOTS_REF
    noise_mode: str = "gaussian"
    photons_per_shot_bright: float = DEFAULT_PHOTONS_PER_SHOT
    seed: int = 0
    sigma_ref: float = 0.0555

    def __post_init__(self):
        if self.shots_R < 1:
            raise ValueError(f"shots_R must be >= 1, got {self.shots_R}")
        if self.noise_mode not in ("gaussian", "poisson", "none"):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")
        if not self.photons_per_shot_bright > 0:
            raise ValueError("photons_per_shot_bright must be positive")
        if not self.sigma_ref > 0:
            raise ValueError("sigma_ref must be positive")


@dataclass(frozen=True)
class PhaseEstimate:
    phi_hat: float
    std_err: float
    resources_n2: int

    def __post_init__(self):
        if not math.isfinite(self.phi_hat):
            raise ValueError("phi_hat must be finite")
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")
        if self.resources_n2 < 1:
            raise ValueError("resources_n2 must be >= 1")


@dataclass(frozen=True)
class PhaseEnsemble:
    """n1 x n_cols matrix of per-shot phase estimates on a sampling grid.

    For SQL ensembles n_cols == n2 (one column per resource).  For HQL
    ensembles each estimate already consumes n2 = 2k resources, so the
    columns index independent repetitions of the full k-pass measurement
    and ``collapsed`` is set.
    """

    n1: int
    n2: int
    estimates: np.ndarray = field(repr=False)
    grid: SampleGrid
    t_s: float
    protocol: str
    collapsed: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        object.__setattr__(self, "estimates", est)
        if est.shape[0] != self.n1 or est.ndim != 2:
            raise ValueError(f"estimates must be (n1, n_cols), got {est.shape}")
        if not self.collapsed and est.shape[1] != self.n2:
            raise ValueError("non-collapsed ensemble must have n2 columns")
        if not np.all(np.isfinite(est)):
            raise ValueError("all phase estimates must be finite")

    @property
    def resources_total(self) -> int:
        """Total resources consumed: n1 * n2 per repetition batch."""
        batches = self.estimates.shape[1] if self.collapsed else 1
        return self.n1 * self.n2 * batches


def photon_shot_noise(m: ReadoutModel, p: SensorParams, shots: int = 1) -> float:
    """Photon shot noise of one readout, normalized to the bright level."""
    mean_photons = shots * m.photons_per_shot_bright
    return math.sqrt((1.0 - p.contrast_C / 2.0) / mean_photons)


def quadrature_noise_std(m: ReadoutModel, p: SensorParams) -> float:
    """Per-quadrature standard deviation of a simulated readout."""
    if m.noise_mode == "none":
        return 0.0
    if m.noise_mode == "gaussian":
        return m.sigma_ref * math.sqrt(SHOTS_REF / m.shots_R)
    c = p.contrast_C
    return math.sqrt(4.0 * (1.0 - c / 2.0) / (c**2 * m.photons_per_shot_bright * m.shots_R))


def _noisy_signal(s_true: np.ndarray, m: ReadoutModel, p: SensorParams,
                  rng: np.random.Generator, sigma_scale: float = 1.0) -> np.ndarray:
    """Vectorized noisy readout of signal values in [-1, 1]."""
    s_true = np.asarray(s_true, dtype=float)
    if m.noise_mode == "none":
        return s_true.copy()
    if m.noise_mode == "gaussian":
        sigma = sigma_scale * quadrature_noise_std(m, p)
        return s_true + sigma * rng.standard_normal(s_true.shape)
    # Poisson photon counting: bright-state probability (1 + s)/2,
    # fluorescence mean n_b (1 - C (1 - p_bright)) per shot
    c = p.contrast_C
    n_b = m.photons_per_shot_bright
    mu = m.shots_R * n_b * (1.0 - c / 2.0 + (c / 2.0) * s_true)
    counts = rng.poisson(mu)
    return (counts / m.shots_R - n_b * (1.0 - c / 2.0)) * 2.0 / (c * n_b)


def simulate_readout(s_true: float, m: ReadoutModel, p: SensorParams,
                     rng: np.random.Generator | None = None) -> float:
    """One noisy readout of a signal value; unbiased, Var ~ 1/shots_R."""
    if abs(s_true) > 1.0:
        raise ValueError(f"|s_true| must be <= 1, got {s_true}")
    if rng is None:
        rng = np.random.default_rng(m.seed)
    return float(_noisy_signal(np.asarray(s_true), m, p, rng))


def _noise_scale(kind: Protocol, m: ReadoutModel) -> float:
    """Quadrature-noise scale of one readout."""
    # one Ramsey pass accumulates half the differential phase; the Gaussian
    # calibration is anchored to per-resource noise in the differential
    # convention, so the doubled estimate gets half the quadrature noise
    return 0.5 if kind is Protocol.RAMSEY_SQL and m.noise_mode == "gaussian" else 1.0


def _acquire(kind: Protocol, phases, env: float, k: int, n_cols: int, m: ReadoutModel,
             p: SensorParams, rng: np.random.Generator) -> np.ndarray:
    """n_cols noisy two-quadrature readouts per window phase, inverted by atan2
    back to the differential convention: a (len(phases), n_cols) matrix."""
    if env < ENVELOPE_FLOOR:
        raise DecoheredSignalError(
            f"{kind.value} envelope {env:.3g} below {ENVELOPE_FLOOR:g} at k={k}: "
            "signal fully decohered"
        )
    gain = _phase_gain(kind, k)
    big_phi = gain * np.asarray(phases, dtype=float)
    x, y = _quadratures(kind, np.cos(big_phi), np.sin(big_phi))
    s_true = np.broadcast_to((env * np.stack([x, y], axis=-1))[:, None, :],
                             (len(x), n_cols, 2))
    noisy = _noisy_signal(s_true, m, p, rng, sigma_scale=_noise_scale(kind, m))
    cos_hat, sin_hat = _quadratures(kind, noisy[..., 0], noisy[..., 1])
    return np.arctan2(sin_hat, cos_hat) / gain


def estimate_phase(w: WaveformSpec, p: SensorParams, c: ProtocolConfig,
                   m: ReadoutModel, rng: np.random.Generator | None = None) -> PhaseEstimate:
    """Simulate both quadratures of the window [t_i, t_i + t_s] and invert
    them to a phase in the differential convention.

    Dynamic range: the total accumulated phase must stay within one
    atan2 branch (|Phi| < pi); beyond it the estimate wraps and biases.
    """
    if rng is None:
        rng = np.random.default_rng(m.seed)
    _check_window(p, c)
    env = _protocol_envelope(p, c)
    phi = phase_exact(w, p, c.t_i, c.t_s)
    phi_hat = float(_acquire(c.kind, [phi], env, c.k, 1, m, p, rng)[0, 0])
    std_err = (_noise_scale(c.kind, m) * quadrature_noise_std(m, p)
               / (env * _phase_gain(c.kind, c.k)))
    return PhaseEstimate(phi_hat=phi_hat, std_err=std_err, resources_n2=c.n2)


def _ensemble_rng(seed: int) -> np.random.Generator:
    # counter-based bit generator: the (i, j, quadrature) cells map onto
    # consecutive counter values, so output is scheduling-independent
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _centered_window_phases(w: WaveformSpec, p: SensorParams, instants,
                            t_s: float) -> np.ndarray:
    """Exact differential phase with the sampling window centered on each t_i."""
    return np.array([
        -2.0 * p.gamma_e * integrate(w, t_i - t_s / 2.0, t_i + t_s / 2.0)
        for t_i in instants
    ])


def _ensemble(kind: Protocol, grid: SampleGrid, n2: int, t_s: float,
              estimates: np.ndarray, m: ReadoutModel, **meta) -> PhaseEnsemble:
    meta = {"seed": m.seed, "protocol": kind.value, "t_s": t_s,
            "noise_mode": m.noise_mode, "shots_R": m.shots_R, **meta}
    return PhaseEnsemble(n1=grid.n1, n2=n2, estimates=estimates, grid=grid, t_s=t_s,
                         protocol=kind.value, collapsed=kind is not Protocol.RAMSEY_SQL,
                         meta=meta)


def acquire_ensemble_sql(w: WaveformSpec, p: SensorParams, m: ReadoutModel,
                         n1: int, n2: int, t_s: float) -> PhaseEnsemble:
    """n2 independent single-pass Ramsey estimates at each of n1 instants.

    Entries are stored in the differential phase convention (twice the
    raw Ramsey phase).  Per-entry variance is independent of n2; the
    column means average down as 1/n2.
    """
    T = w.period_T
    if n1 * (t_s + 2 * p.t_pi) > T:
        raise ValueError("n1 * (t_s + 2 t_pi) exceeds the waveform period")
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    grid = make_grid(T, n1)
    phases = _centered_window_phases(w, p, grid.instants, t_s)
    estimates = _acquire(Protocol.RAMSEY_SQL, phases, envelope_ramsey(p, t_s), 1, n2,
                         m, p, _ensemble_rng(m.seed))
    return _ensemble(Protocol.RAMSEY_SQL, grid, n2, t_s, estimates, m)


def acquire_ensemble_hql(w: WaveformSpec, p: SensorParams, m: ReadoutModel,
                         n1: int, n2: int, t_s: float,
                         n_batches: int = 1) -> PhaseEnsemble:
    """One k-pass decoupled estimate (k = n2/2) per instant and batch.

    Each stored estimate consumes n2 = 2k resources; per-estimate noise
    scales as 1/n2 before decoherence.  Columns are independent
    repetitions of the full measurement, flagged via ``collapsed``.
    """
    if n2 < 2 or n2 % 2 != 0:
        raise ValueError(f"n2 must be an even integer >= 2, got {n2}")
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    k = n2 // 2
    grid = make_grid(w.period_T, n1)
    phases = _centered_window_phases(w, p, grid.instants, t_s)
    estimates = _acquire(Protocol.PDD_TDQD, phases, envelope_pdd(p, k, t_s, w.period_T), k,
                         n_batches, m, p, _ensemble_rng(m.seed))
    return _ensemble(Protocol.PDD_TDQD, grid, n2, t_s, estimates, m,
                     k=k, n_batches=n_batches)


def acquire_single_instant_hql(w: WaveformSpec, p: SensorParams, m: ReadoutModel,
                               k: int, t_i: float, t_s: float,
                               n_batches: int = 1) -> PhaseEnsemble:
    """k-pass decoupled estimates at one chosen instant (one-bin grid)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    phases = _centered_window_phases(w, p, [t_i], t_s)
    estimates = _acquire(Protocol.PDD_TDQD, phases, envelope_pdd(p, k, t_s, w.period_T), k,
                         n_batches, m, p, _ensemble_rng(m.seed))
    return _ensemble(Protocol.PDD_TDQD, make_grid(w.period_T, 1), 2 * k, t_s, estimates, m,
                     k=k, t_i=t_i, n_batches=n_batches)


_CSV_HEADER = "i,j,t_i_seconds,phi_ij_rad\n"
_CSV_ROW = [("i", "i4"), ("j", "i4"), ("t_i", "f8"), ("phi", "f8")]
# rows formatted or parsed at a time: bounds the strings alive at once
_CSV_BLOCK_ROWS = 4096


def write_ensemble_csv(e: PhaseEnsemble, path, deterministic: bool = False) -> None:
    """Write the ensemble as CSV plus a JSON metadata sidecar.

    One row per cell, in (i, j) order, with floats in shortest repr form.
    """
    path = str(path)
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER)
        for i, (t, row) in enumerate(zip(e.grid.instants, e.estimates), start=1):
            t_i = repr(t)
            for j0 in range(0, len(row), _CSV_BLOCK_ROWS):
                block = row[j0:j0 + _CSV_BLOCK_ROWS].tolist()
                fh.write("".join([f"{i},{j},{t_i},{phi!r}\n"
                                  for j, phi in enumerate(block, start=j0 + 1)]))
    meta = dict(e.meta)
    meta.update({
        "n1": e.n1, "n2": e.n2, "t_s": e.t_s, "protocol": e.protocol,
        "collapsed": e.collapsed, "period_T": e.grid.period_T,
        "n_cols": int(e.estimates.shape[1]),
    })
    if not deterministic:
        import datetime
        meta["written_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_csv_rows(lines: list[str], first_line: int) -> np.ndarray:
    """Parse ensemble CSV data lines; every line must hold one row of four fields."""
    try:
        with warnings.catch_warnings():
            # NumPy 1.x parses "1.0" into an integer field with only this warning;
            # as an error, loadtxt raises ValueError
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            rows = np.loadtxt(lines, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"ensemble CSV lines {first_line}-{first_line + len(lines) - 1}: "
                         f"{exc}") from None
    if len(rows) != len(lines):
        blank = first_line + lines.index("\n")
        raise ValueError(f"ensemble CSV line {blank} is blank")
    return rows


def read_ensemble_csv(path) -> PhaseEnsemble:
    """Read an ensemble written by :func:`write_ensemble_csv`.

    Rows may come in any order, but every cell must appear exactly once and
    each row's t_i_seconds must be grid instant i (relative tolerance 1e-12).
    """
    path = str(path)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    n1, n_cols = meta["n1"], meta["n_cols"]
    grid = make_grid(meta["period_T"], n1)
    instants = np.array(grid.instants)
    # cells no row fills stay NaN, which PhaseEnsemble rejects
    estimates = np.full((n1, n_cols), np.nan)
    n_rows = n1 * n_cols
    with open(path) as fh:
        header = fh.readline()
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected ensemble CSV header: {header!r}")
        n_read = 0
        while n_read < n_rows:
            lines = list(itertools.islice(fh, min(_CSV_BLOCK_ROWS, n_rows - n_read)))
            if not lines:
                break
            first_line = n_read + 2
            rows = _parse_csv_rows(lines, first_line)
            i, j = rows["i"] - 1, rows["j"] - 1
            bad = (i < 0) | (i >= n1) | (j < 0) | (j >= n_cols)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"ensemble CSV line {first_line + k}: cell ({i[k] + 1}, "
                                 f"{j[k] + 1}) outside [1, {n1}] x [1, {n_cols}]")
            want = instants[i]
            bad = ~(np.abs(rows["t_i"] - want) <= 1e-12 * np.abs(want))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"ensemble CSV line {first_line + k}: t_i_seconds "
                                 f"{float(rows['t_i'][k])!r} is not grid instant "
                                 f"{i[k] + 1} ({float(want[k])!r})")
            estimates[i, j] = rows["phi"]
            n_read += len(lines)
        n_read += sum(1 for _ in fh)
    if n_read != n_rows:
        raise ValueError(f"ensemble CSV has {n_read} rows, "
                         f"expected n1 * n_cols = {n_rows}")
    return PhaseEnsemble(n1=n1, n2=meta["n2"], estimates=estimates, grid=grid,
                         t_s=meta["t_s"], protocol=meta["protocol"],
                         collapsed=meta["collapsed"], meta=meta)


def with_seed(m: ReadoutModel, *entropy) -> ReadoutModel:
    """Derive a child readout model with a deterministic sub-seed."""
    ss = np.random.SeedSequence([int(m.seed)] + [int(x) for x in entropy])
    return replace(m, seed=int(ss.generate_state(1, np.uint64)[0]))
