"""Zero-order-hold reconstruction and exact error decomposition.

All errors are in phase units (rad), with the truth phase
phi(t) = -2 gamma_e b(t) t_s, the same convention the ensembles use.
Window integrals use a fixed 64-point Gauss-Legendre rule per hold
window; the decomposition identity then holds to machine precision
because both routes share the same quadrature nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measurement import PhaseEnsemble
from .sensor import SensorParams
from .waveform import SampleGrid, WaveformSpec, evaluate, make_grid

__all__ = [
    "ErrorReport",
    "reconstruct",
    "decompose_error",
    "recon_error_sq",
    "deterministic_error_curve",
    "phase_truth",
    "phase_to_tesla",
]

_GL_POINTS = 64


@lru_cache(maxsize=1)
def _gl_nodes():
    return np.polynomial.legendre.leggauss(_GL_POINTS)


@dataclass(frozen=True)
class ErrorReport:
    """Total, statistical, and deterministic reconstruction error (rad^2)."""

    delta_sq: float
    delta_stat_sq: float
    delta_det_sq: float
    per_bin_stat: tuple[float, ...]
    per_bin_det: tuple[float, ...]
    delta_sq_direct: float  # brute-force double-sum cross-check

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


def _truth_on_windows(w: WaveformSpec, p: SensorParams, t_s: float, grid: SampleGrid):
    """Truth phase at the quadrature nodes of every hold window, shape (n1, 64),
    and the node weights, which include dt/T."""
    xs, ws = _gl_nodes()
    half = grid.window_width / 2.0
    nodes = np.asarray(grid.instants)[:, None] + half * xs[None, :]
    return phase_truth(w, p, t_s, nodes), np.broadcast_to(half * ws / grid.period_T, nodes.shape)


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
    phi_bar = reconstruct(e)
    per_bin_stat = ((est - phi_bar[:, None]) ** 2).mean(axis=1)
    delta_stat_sq = float(per_bin_stat.mean())

    phi_true, weights = _truth_on_windows(truth, p, e.t_s, e.grid)
    per_bin_det = np.sum(weights * (phi_bar[:, None] - phi_true) ** 2, axis=1)
    delta_det_sq = float(per_bin_det.sum())

    # Eq-level cross-check: (1/n_cols) sum_j sum_i int (phi_ij - phi)^2 dt/T
    mean_sq = (est**2).mean(axis=1)
    integrand = mean_sq[:, None] - 2.0 * phi_bar[:, None] * phi_true + phi_true**2
    delta_sq_direct = float(np.sum(weights * integrand))

    return ErrorReport(
        delta_sq=delta_stat_sq + delta_det_sq,
        delta_stat_sq=delta_stat_sq,
        delta_det_sq=delta_det_sq,
        per_bin_stat=tuple(per_bin_stat),
        per_bin_det=tuple(per_bin_det),
        delta_sq_direct=delta_sq_direct,
    )


def recon_error_sq(phi_bar, truth: WaveformSpec, p: SensorParams, t_s: float) -> float:
    """Reconstruction error (1/T) int (phi_tilde(t) - phi(t))^2 dt in rad^2 of the
    ZOH estimate holding phi_bar_i on the i-th of len(phi_bar) bins of truth's period.

    This is the error of the mean-based ZOH estimator, the quantity the
    overall SQL/HQL scaling experiments track.
    """
    phi_bar = np.asarray(phi_bar, dtype=float)
    grid = make_grid(truth.period_T, len(phi_bar))
    phi_true, weights = _truth_on_windows(truth, p, t_s, grid)
    return float(np.sum(weights * (phi_bar[:, None] - phi_true) ** 2))


def deterministic_error_curve(truth: WaveformSpec, p: SensorParams, n1_list,
                              t_s: float):
    """delta_det vs n1 with the noiseless bin-center values phi(t_i) as the
    converged estimates."""
    out = []
    for n1 in n1_list:
        instants = np.asarray(make_grid(truth.period_T, int(n1)).instants)
        det_sq = recon_error_sq(phase_truth(truth, p, t_s, instants), truth, p, t_s)
        out.append((int(n1), float(np.sqrt(det_sq))))
    return out
