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

from .errors import DecoheredSignalError, WfsimError
from .sensor import (
    Protocol,
    SensorParams,
    _phase_gain,
    _quadratures,
    envelope,
)
from .waveform import SampleGrid, WaveformSpec, integrate

__all__ = [
    "ReadoutModel",
    "PhaseEnsemble",
    "photon_shot_noise",
    "AcquisitionPlan",
    "acquire",
    "plan_acquisition",
    "acquire_planned",
    "acquire_ensemble_hql",
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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.noise_mode not in ("gaussian", "poisson", "none"):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")
        if not self.photons_per_shot_bright > 0:
            raise ValueError("photons_per_shot_bright must be positive")
        if not self.sigma_ref > 0:
            raise ValueError("sigma_ref must be positive")


@dataclass(frozen=True)
class PhaseEnsemble:
    """n1 x n_cols matrix of per-shot phase estimates on a sampling grid.

    For ramsey-sql ensembles n_cols == n2 (one column per resource).  The
    k-pass protocols spend n2 = 2k resources on each estimate, so their
    columns index independent repetitions of the full measurement and the
    ensemble is ``collapsed``.
    """

    n1: int
    n2: int
    estimates: np.ndarray = field(repr=False)
    grid: SampleGrid
    t_s: float
    protocol: str
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        object.__setattr__(self, "estimates", est)
        Protocol(self.protocol)  # ValueError for an unknown protocol
        if self.grid.n1 != self.n1:
            raise ValueError(f"grid has {self.grid.n1} bins, ensemble n1 = {self.n1}")
        if est.ndim != 2 or est.shape[0] != self.n1 or est.shape[1] < 1:
            raise ValueError(f"estimates must be (n1, n_cols >= 1), got {est.shape}")
        if not self.collapsed and est.shape[1] != self.n2:
            raise ValueError("non-collapsed ensemble must have n2 columns")
        if not np.all(np.isfinite(est)):
            raise ValueError("all phase estimates must be finite")

    @property
    def collapsed(self) -> bool:
        """Whether each estimate already spends all n2 resources (k-pass protocols)."""
        return self.protocol != Protocol.RAMSEY_SQL

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


def _signal(kind: Protocol, phases, env: float, k: int) -> tuple[np.ndarray, float]:
    """Noiseless two-quadrature readout of each window phase, scaled by the
    envelope: a (len(phases), 2) matrix, and the protocol's phase gain."""
    if env < ENVELOPE_FLOOR:
        raise DecoheredSignalError(
            f"{kind.value} envelope {env:.3g} below {ENVELOPE_FLOOR:g} at k={k}: "
            "signal fully decohered"
        )
    gain = _phase_gain(kind, k)
    big_phi = gain * np.asarray(phases, dtype=float)
    peak = np.abs(big_phi).max()
    if not peak < np.pi:
        raise WfsimError(f"{kind.value} accumulated phase reaches {peak:.3g} rad at k={k}, "
                         f"outside the atan2 branch (-pi, pi): the estimate would wrap")
    x, y = _quadratures(kind, np.cos(big_phi), np.sin(big_phi))
    return env * np.stack([x, y], axis=-1), gain


def _centered_window_phases(w: WaveformSpec, p: SensorParams, instants,
                            t_s: float) -> np.ndarray:
    """Exact differential phase with the sampling window centered on each t_i."""
    return np.array([
        -2.0 * p.gamma_e * integrate(w, t_i - t_s / 2.0, t_i + t_s / 2.0)
        for t_i in instants
    ])


def acquire(kind: Protocol, w: WaveformSpec, p: SensorParams, m: ReadoutModel,
            n1: int, n2: int, t_s: float, n_batches: int = 1,
            t_i: float | None = None) -> PhaseEnsemble:
    """Phase-estimate ensemble of one protocol on the n1-bin grid of w's period.

    ramsey-sql stores n2 independent single-pass estimates per instant (one
    resource each, n_batches must be 1); their column means average down as
    1/n2.  tdqd and pdd-tdqd spend n2 = 2k resources on each k-pass estimate
    and store n_batches independent repetitions per instant (``collapsed``).
    Each sampling window of width t_s is centred on its instant.  t_i moves
    the one instant of an n1 = 1 ensemble off T/2; the grid stays the one-bin
    grid and meta["t_i"] records the instant.  Entries are in the differential
    phase convention of ``phase_exact``.

    Dynamic range: the noiseless accumulated phase must stay within one
    atan2 branch (|Phi| < pi); beyond it the estimate would wrap, so
    WfsimError is raised.
    """
    return acquire_planned(plan_acquisition(kind, w, p, n1, n2, t_s, n_batches, t_i), m)


@dataclass(frozen=True, eq=False)
class AcquisitionPlan:
    """The seed-independent part of one acquisition, made by
    :func:`plan_acquisition`: the checked arguments, the grid, the noiseless
    (X, Y) signal of each window (read-only) and the phase gain."""

    kind: Protocol
    p: SensorParams
    n2: int
    t_s: float
    n_cols: int
    grid: SampleGrid
    signal: np.ndarray = field(repr=False)
    gain: float
    meta: dict


def plan_acquisition(kind: Protocol, w: WaveformSpec, p: SensorParams, n1: int, n2: int,
                     t_s: float, n_batches: int = 1,
                     t_i: float | None = None) -> AcquisitionPlan:
    """Check the arguments of :func:`acquire` and compute everything it needs
    but the noise draw, so seeded ensembles of one (kind, w, p, n1, n2, t_s)
    share one plan; each is drawn by :func:`acquire_planned`."""
    kind = Protocol(kind)
    T = w.period_T
    meta = {}
    if not 0 < t_s <= T - 2 * p.t_pi:
        raise ValueError(f"t_s must be in (0, T - 2 t_pi], got {t_s}")
    if kind is Protocol.RAMSEY_SQL:
        if n1 * (t_s + 2 * p.t_pi) > T:
            raise ValueError("n1 * (t_s + 2 t_pi) exceeds the waveform period")
        if n2 < 1:
            raise ValueError(f"n2 must be >= 1, got {n2}")
        if n_batches != 1:
            raise ValueError(f"ramsey-sql stores n2 single-shot columns; n_batches must "
                             f"be 1, got {n_batches}")
        k, n_cols = 1, n2
    else:
        if n2 < 2 or n2 % 2 != 0:
            raise ValueError(f"n2 must be an even integer >= 2, got {n2}")
        if n_batches < 1:
            raise ValueError(f"n_batches must be >= 1, got {n_batches}")
        k, n_cols = n2 // 2, n_batches
        meta.update(k=k, n_batches=n_batches)
    grid = SampleGrid(T, n1)
    instants = grid.instants
    if t_i is not None:
        if n1 != 1:
            raise ValueError(f"t_i sets the one instant of an n1 = 1 ensemble, got n1 = {n1}")
        if not (0 <= t_i - t_s / 2 and t_i + t_s / 2 <= T):
            raise ValueError(f"window [t_i - t_s/2, t_i + t_s/2] around t_i = {t_i!r} "
                             f"leaves [0, T = {T!r}]")
        instants = [t_i]
        meta["t_i"] = t_i
    phases = _centered_window_phases(w, p, instants, t_s)
    signal, gain = _signal(kind, phases, envelope(kind, p, k, t_s, T), k)
    signal.flags.writeable = False
    return AcquisitionPlan(kind=kind, p=p, n2=n2, t_s=t_s, n_cols=n_cols, grid=grid,
                           signal=signal, gain=gain, meta=meta)


def _philox() -> np.random.Generator:
    """A Philox generator to re-key with :func:`_rekey`.  The fixed seed keeps
    it off os.urandom, which Philox(key=...) reads for a throwaway SeedSequence."""
    return np.random.Generator(np.random.Philox(0))


_ZEROS = (0, 0, 0, 0)


def _rekey(rng: np.random.Generator, key: int) -> np.random.Generator:
    """Reset rng's Philox to the state of a fresh Philox(key=key): counter 0,
    key [key, 0], empty buffer, no cached uint32.  Its draws then equal the
    fresh generator's bit for bit; the (i, j, quadrature) cells map onto
    consecutive counter values, so output is scheduling-independent."""
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZEROS, "key": (key, 0)},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _noisy_readout(plan: AcquisitionPlan, m: ReadoutModel, keys) -> np.ndarray:
    """plan.n_cols noisy (X, Y) readouts of each noiseless signal row with m's
    noise, for each Philox key: a (len(keys), n1, n_cols, 2) stack.

    Each key's raw noise is drawn by a freshly keyed generator into its own
    slice of the stack; the noise transform then runs once over the stack, so
    slice s equals the draw of key s alone."""
    p, signal = plan.p, plan.signal[:, None]
    shape = (len(plan.signal), plan.n_cols, 2)
    noisy = np.empty((len(keys), *shape))
    if m.noise_mode == "none":
        noisy[...] = signal
        return noisy
    rng = _philox()
    if m.noise_mode == "gaussian":
        # one Ramsey pass accumulates half the differential phase; the Gaussian
        # calibration is anchored to per-resource noise in the differential
        # convention, so the doubled estimate gets half the quadrature noise
        scale = 0.5 if plan.kind is Protocol.RAMSEY_SQL else 1.0
        for s, key in enumerate(keys):
            _rekey(rng, key).standard_normal(out=noisy[s])
        noisy *= scale * quadrature_noise_std(m, p)
        noisy += signal
        return noisy
    # Poisson photon counting: bright-state probability (1 + s)/2,
    # fluorescence mean n_b (1 - C (1 - p_bright)) per shot
    c = p.contrast_C
    n_b = m.photons_per_shot_bright
    mu = m.shots_R * n_b * (1.0 - c / 2.0 + (c / 2.0) * signal)
    for s, key in enumerate(keys):
        noisy[s] = _rekey(rng, key).poisson(mu, shape)
    # (counts / shots_R - n_b (1 - c/2)) * 2.0 / (c n_b), one rounding at a time
    noisy /= m.shots_R
    noisy -= n_b * (1.0 - c / 2.0)
    noisy *= 2.0
    noisy /= c * n_b
    return noisy


def _acquire(plan: AcquisitionPlan, m: ReadoutModel, keys) -> np.ndarray:
    """The draw kernel: the noisy readouts of each Philox key, inverted by atan2
    back to the differential convention in one pass over the whole stack: a
    (len(keys), n1, n_cols) stack of phase estimates."""
    noisy = _noisy_readout(plan, m, keys)
    cos_hat, sin_hat = _quadratures(plan.kind, noisy[..., 0], noisy[..., 1])
    phi = np.arctan2(sin_hat, cos_hat)
    phi /= plan.gain
    return phi


def acquire_planned(plan: AcquisitionPlan, m: ReadoutModel) -> PhaseEnsemble:
    """The ensemble of :func:`acquire` for a plan, drawn with m's noise and seed."""
    meta = {"seed": m.seed, "noise_mode": m.noise_mode, "shots_R": m.shots_R, **plan.meta}
    return PhaseEnsemble(n1=plan.grid.n1, n2=plan.n2, estimates=_acquire(plan, m, [m.seed])[0],
                         grid=plan.grid, t_s=plan.t_s, protocol=plan.kind.value, meta=meta)


def acquire_ensemble_hql(w: WaveformSpec, p: SensorParams, m: ReadoutModel, n1: int,
                         n2: int, t_s: float, n_batches: int = 1) -> PhaseEnsemble:
    """``acquire(Protocol.PDD_TDQD, ...)``, kept for the benchmark's read-back check."""
    return acquire(Protocol.PDD_TDQD, w, p, m, n1, n2, t_s, n_batches=n_batches)


_CSV_HEADER = "i,j,t_i_seconds,phi_ij_rad\n"
_CSV_ROW = [("i", "i4"), ("j", "i4"), ("t_i", "f8"), ("phi", "f8")]
# rows formatted or parsed at a time: bounds the strings alive at once
_CSV_BLOCK_ROWS = 4096


def write_ensemble_csv(e: PhaseEnsemble, path, deterministic: bool = False) -> None:
    """Write the ensemble as CSV plus a JSON metadata sidecar.

    One row per cell, in (i, j) order, with floats in shortest repr form.
    """
    path = str(path)
    j_strs = [str(j) for j in range(1, e.estimates.shape[1] + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER)
        for i, (t, row) in enumerate(zip(e.grid.instants, e.estimates), start=1):
            # row "i,j,t_i,phi" is pre + mid.join((j, phi)); the joins run in C
            pre, mid, sep = f"{i},", f",{t!r},", f"\n{i},"
            for j0 in range(0, len(row), _CSV_BLOCK_ROWS):
                j1 = j0 + _CSV_BLOCK_ROWS
                cells = zip(j_strs[j0:j1], map(repr, row[j0:j1].tolist()))
                fh.write(pre + sep.join(map(mid.join, cells)) + "\n")
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


def _first_repeat(cells: np.ndarray, filled: np.ndarray) -> int | None:
    """Index of the first of cells already in filled or earlier in cells."""
    s = np.sort(cells)
    if not (filled[cells].any() or (s[1:] == s[:-1]).any()):
        return None
    seen = set()
    for k, c in enumerate(cells.tolist()):
        if filled[c] or c in seen:
            return k
        seen.add(c)


# sidecar keys read back, each with what it must be and its check
_SIDECAR_KEYS = {
    **dict.fromkeys(("n1", "n_cols", "n2"),
                    ("an integer >= 1", lambda v: type(v) is int and v >= 1)),
    **dict.fromkeys(("period_T", "t_s"), ("a finite number > 0",
                                          lambda v: type(v) in (int, float) and 0 < v < math.inf)),
    "protocol": (f"one of {[p.value for p in Protocol]}", lambda v: v in list(Protocol)),
    "t_i": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
}
_OPTIONAL_SIDECAR_KEYS = {"t_i"}  # written only for a single-instant ensemble


def _read_sidecar(path: str) -> dict:
    with open(path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object, got {meta!r}")
    for key, (want, ok) in _SIDECAR_KEYS.items():
        if key in _OPTIONAL_SIDECAR_KEYS and key not in meta:
            continue
        if not ok(meta.get(key)):
            got = repr(meta[key]) if key in meta else "no such key"
            raise ValueError(f"{path}: {key!r} must be {want}, got {got}")
    if meta["protocol"] != Protocol.RAMSEY_SQL and meta["n2"] % 2 != 0:
        # a k-pass estimate spends n2 = 2k resources
        raise ValueError(f"{path}: 'n2' of a {meta['protocol']} ensemble must be even, "
                         f"got {meta['n2']}")
    return meta


def read_ensemble_csv(path) -> PhaseEnsemble:
    """Read an ensemble written by :func:`write_ensemble_csv`.

    The sidecar must hold a valid n1, n_cols, n2 (even for a k-pass protocol),
    period_T, t_s and protocol, and a finite t_i if it has one.
    Rows may come in any order, but every cell must appear exactly once with
    a finite phase within an atan2 estimate's range, |phi| <= pi / gain (the
    protocol's phase gain at k = n2 // 2), and each row's t_i_seconds must be
    grid instant i (relative tolerance 1e-12).  Each failure names its line or
    sidecar key.
    """
    path = str(path)
    meta = _read_sidecar(path + ".meta.json")
    n1, n_cols = meta["n1"], meta["n_cols"]
    # atan2 returns [-pi, pi], so no estimate exceeds pi over its phase gain
    phi_max = np.pi / _phase_gain(Protocol(meta["protocol"]), meta["n2"] // 2)
    grid = SampleGrid(meta["period_T"], n1)
    instants = np.array(grid.instants)
    # n1 * n_cols in-range rows that repeat no cell fill every cell
    estimates = np.empty((n1, n_cols))
    n_rows = n1 * n_cols
    filled = np.zeros(n_rows, dtype=bool)
    repeat = None  # (line, cell) of the first cell given twice
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
            phi = rows["phi"]
            bad = ~(np.abs(phi) <= phi_max)
            if bad.any():
                k = int(np.argmax(bad))
                x = float(phi[k])
                why = (f"is outside [-pi/gain, pi/gain] = [{-phi_max!r}, {phi_max!r}], the "
                       f"range of an atan2 estimate of {meta['protocol']} at n2 = {meta['n2']}"
                       if math.isfinite(x) else "is not finite")
                raise ValueError(f"ensemble CSV line {first_line + k}: phase {x!r} {why}")
            cells = np.ravel_multi_index((i, j), (n1, n_cols))
            if repeat is None and (k := _first_repeat(cells, filled)) is not None:
                repeat = (first_line + k, int(cells[k]))
            filled[cells] = True
            estimates[i, j] = phi
            n_read += len(lines)
        n_read += sum(1 for _ in fh)
    if n_read != n_rows:
        raise ValueError(f"ensemble CSV has {n_read} rows, "
                         f"expected n1 * n_cols = {n_rows}")
    if repeat is not None:
        line, cell = repeat
        (i, j), (mi, mj) = divmod(cell, n_cols), divmod(int(np.argmin(filled)), n_cols)
        raise ValueError(f"ensemble CSV line {line} repeats cell ({i + 1}, {j + 1}); "
                         f"cell ({mi + 1}, {mj + 1}) is missing")
    return PhaseEnsemble(n1=n1, n2=meta["n2"], estimates=estimates, grid=grid,
                         t_s=meta["t_s"], protocol=meta["protocol"], meta=meta)


# numpy SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)


def _words(n: int) -> list[np.ndarray]:
    """A non-negative integer as SeedSequence reads it: little-endian uint32
    words, one word for 0, each a one-element array."""
    if n < 0:
        raise ValueError(f"entropy must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, which steps its own hash constant per call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_keys(seed: int, *entropy) -> np.ndarray:
    """``SeedSequence([seed, *entropy]).generate_state(1, np.uint64)`` for each
    value s of the last argument, in one vectorised pass: an array of keys.

    The last argument is an integer or an array of integers in [0, 2**32),
    each one uint32 word.  The mixing is SeedSequence's in uint32 array
    arithmetic: its hash constants step the same way whatever the data, so
    every step vectorises over s.  Entropy of more words than the pool (a
    seed and an N of 2**32 or more) is mixed in after the pool, as there.
    """
    *head, last = (seed, *entropy)
    words = [w for x in head for w in _words(int(x))]
    if np.ndim(last) == 0:
        words += _words(int(last))
    else:
        last = np.asarray(last)
        if last.size and not (0 <= last.min() and last.max() <= _MASK32):
            raise ValueError("the last entropy word must be in [0, 2**32)")
        words.append(last.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state(1, np.uint64): two hashed pool words, low word first
    out = _hasher(_INIT_B, _MULT_B)
    lo, hi = (out(word).astype(np.uint64) for word in pool[:2])
    return lo | (hi << np.uint64(32))


def with_seed(m: ReadoutModel, *entropy) -> ReadoutModel:
    """Derive a child readout model with the sub-seed
    ``SeedSequence([m.seed, *entropy]).generate_state(1, np.uint64)[0]``."""
    return replace(m, seed=int(_seed_keys(m.seed, *entropy)[0]))
