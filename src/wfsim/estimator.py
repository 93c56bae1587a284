"""Zero-order-hold reconstruction and exact error decomposition.

All errors are in phase units (rad), with the truth phase
phi(t) = -2 gamma_e b(t) t_s, the same convention the ensembles use.
Every score is ``waveform.hold_error``, the exact integral of the squared
hold error over each window, scaled by (2 gamma_e t_s)^2 / T.  The direct
total of ``decompose_error`` expands the square per bin instead and takes
the window integrals of phi from ``waveform.integrate``, so the identity
delta^2 = delta_stat^2 + delta_det^2 compares two independent routes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .measurement import PhaseEnsemble, _estimate_range
from .sensor import SensorParams
from .waveform import SampleGrid, WaveformSpec, evaluate, hold_error, integrate

__all__ = [
    "ErrorReport",
    "reconstruct",
    "decompose_error",
    "recon_error_sq",
    "deterministic_error_curve",
    "phase_truth",
    "phase_to_tesla",
]

@dataclass(frozen=True)
class ErrorReport:
    """Total, statistical, and deterministic reconstruction error (rad^2)."""

    delta_sq: float
    delta_stat_sq: float
    delta_det_sq: float
    per_bin_stat: tuple[float, ...]
    per_bin_det: tuple[float, ...]
    delta_sq_direct: float  # per-bin expanded double sum, the cross-check

    def __post_init__(self):
        if self.delta_stat_sq < 0 or self.delta_det_sq < 0:
            raise ValueError("error components must be >= 0")

    def to_dict(self) -> dict:
        return {
            "delta_sq_rad2": self.delta_sq,
            "delta_stat_sq_rad2": self.delta_stat_sq,
            "delta_det_sq_rad2": self.delta_det_sq,
            "delta_rad": float(np.sqrt(self.delta_sq)),
            "delta_stat_rad": float(np.sqrt(self.delta_stat_sq)),
            "delta_det_rad": float(np.sqrt(self.delta_det_sq)),
            "delta_sq_direct_rad2": self.delta_sq_direct,
            "per_bin_stat_rad2": list(self.per_bin_stat),
            "per_bin_det_rad2": list(self.per_bin_det),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def reconstruct(e: PhaseEnsemble) -> np.ndarray:
    """Per-bin means phi_bar_i: the ZOH estimate holds phi_bar_i on hold window i."""
    return e.estimates.mean(axis=1)


def phase_truth(w: WaveformSpec, p: SensorParams, t_s: float, t):
    """Phase-domain truth phi(t) = -2 gamma_e b(t) t_s."""
    return -2.0 * p.gamma_e * evaluate(w, t) * t_s


def phase_to_tesla(phi, p: SensorParams, t_s: float):
    """Convert phase-domain values (rad) back to field units (tesla)."""
    return np.asarray(phi) / (-2.0 * p.gamma_e * t_s)


def _hold_error_sq(truth: WaveformSpec, p: SensorParams, t_s: float, phi_held):
    """(1/T) int (phi_held_i - phi(t))^2 dt over each hold window, in rad^2.

    The windows are integrated in tesla, so a tiny gamma_e * t_s can overflow
    the squares before the rescale, and a huge one the rescale itself; either
    raises ValueError, not a nan score or an OverflowError."""
    with np.errstate(all="ignore"):
        scale = np.float64(2.0 * p.gamma_e * t_s) ** 2 / truth.period_T
        err = scale * hold_error(truth, phase_to_tesla(phi_held, p, t_s))
    if not np.isfinite(err).all():
        raise ValueError(f"the hold error, integrated in tesla, is not finite: held phases up "
                         f"to {np.abs(phi_held).max():.3g} rad at gamma_e * t_s = "
                         f"{p.gamma_e * t_s:.3g} rad/T")
    return err


def decompose_error(e: PhaseEnsemble, truth: WaveformSpec, p: SensorParams) -> ErrorReport:
    """Exact split of the total estimation error into statistical and
    deterministic parts, plus the direct double-sum total as cross-check.
    """
    if not np.isclose(truth.period_T, e.grid.period_T, rtol=1e-9):
        raise ValueError(
            f"truth period {truth.period_T:g} does not match ensemble grid "
            f"period {e.grid.period_T:g}"
        )
    est = e.estimates
    # no atan2 estimate lies beyond pi/gain; a larger one would overflow the
    # squares below
    phi_max, in_range = _estimate_range(e.protocol, e.n2)
    bad = ~(np.abs(est) <= phi_max)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"estimate {float(est[i, j])!r} in bin {i + 1}, column {j + 1} is "
                         f"outside {in_range}")
    phi_bar = reconstruct(e)
    per_bin_stat = ((est - phi_bar[:, None]) ** 2).mean(axis=1)
    delta_stat_sq = float(per_bin_stat.mean())

    per_bin_det = _hold_error_sq(truth, p, e.t_s, phi_bar)
    delta_det_sq = float(per_bin_det.sum())

    # Eq-level cross-check: (1/n_cols) sum_j sum_i int (phi_ij - phi)^2 dt/T,
    # expanded per bin as W mean_j phi_ij^2 - 2 phi_bar_i int phi + int phi^2
    edges = SampleGrid(truth.period_T, e.n1).edges
    int_phi = -2.0 * p.gamma_e * e.t_s * integrate(truth, edges[:-1], edges[1:])
    cross = (np.diff(edges) * (est**2).mean(axis=1) - 2.0 * phi_bar * int_phi) / truth.period_T
    delta_sq_direct = float(np.sum(cross + _hold_error_sq(truth, p, e.t_s, np.zeros(e.n1))))

    return ErrorReport(
        delta_sq=delta_stat_sq + delta_det_sq,
        delta_stat_sq=delta_stat_sq,
        delta_det_sq=delta_det_sq,
        per_bin_stat=tuple(per_bin_stat),
        per_bin_det=tuple(per_bin_det),
        delta_sq_direct=delta_sq_direct,
    )


def recon_error_sq(phi_bar, truth: WaveformSpec, p: SensorParams, t_s: float):
    """Reconstruction error (1/T) int (phi_tilde(t) - phi(t))^2 dt in rad^2 of the
    ZOH estimate holding phi_bar_i on the i-th of len(phi_bar) bins of truth's period.

    This is the error of the mean-based ZOH estimator, the quantity the
    overall SQL/HQL scaling experiments track.  A (rows, n1) stack of
    estimates is scored in one ``hold_error`` call and gives an array of one
    error per row.  Every phi_bar_i must be finite.
    """
    phi_bar = np.asarray(phi_bar, dtype=float)
    if phi_bar.ndim not in (1, 2):
        raise ValueError(f"phi_bar must be (n1,) or (rows, n1), got shape {phi_bar.shape}")
    rows = phi_bar.reshape(-1, phi_bar.shape[-1])
    bad = ~np.isfinite(rows)
    if bad.any():
        r, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"phi_bar is not finite in row {r}, bin {i}: {float(rows[r, i])!r}")
    err = _hold_error_sq(truth, p, t_s, phi_bar).sum(axis=-1)
    return float(err) if phi_bar.ndim == 1 else err


def deterministic_error_curve(truth: WaveformSpec, p: SensorParams, n1_list,
                              t_s: float):
    """delta_det vs n1 with the noiseless bin-center values phi(t_i) as the
    converged estimates."""
    out = []
    for n1 in n1_list:
        instants = np.asarray(SampleGrid(truth.period_T, int(n1)).instants)
        det_sq = _hold_error_sq(truth, p, t_s, phase_truth(truth, p, t_s, instants)).sum()
        out.append((int(n1), float(np.sqrt(det_sq))))
    return out
