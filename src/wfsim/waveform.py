"""Waveforms b(t) over one period: evaluation, integration, smoothness, sampling grids.

A waveform is either a sum of harmonic sine components or a table of
(t, b) samples interpolated linearly.  All quantities are SI (seconds,
tesla).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "WaveformSpec",
    "SmoothnessEstimate",
    "SampleGrid",
    "evaluate",
    "integrate",
    "estimate_holder",
    "make_grid",
]


@dataclass(frozen=True)
class WaveformSpec:
    """Signal b(t) on [0, T]: harmonic components or tabulated samples.

    Components are (amplitude_tesla, harmonic_index, phase_offset_rad)
    triples giving b(t) = sum_m A_m * sin(2*pi*m*t/T + psi_m); the
    parametric form is evaluated periodically for any t.  Tabulated mode
    holds strictly increasing (t, b) pairs on [0, T] and interpolates
    linearly between them.
    """

    period_T: float
    components: tuple[tuple[float, int, float], ...] | None = None
    tabulated: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not self.period_T > 0:
            raise ValueError(f"period_T must be positive, got {self.period_T}")
        if (self.components is None) == (self.tabulated is None):
            raise ValueError("exactly one of components/tabulated must be given")
        if self.components is not None:
            comps = tuple((float(a), int(m), float(psi)) for a, m, psi in self.components)
            for _, m, _ in comps:
                if m < 1:
                    raise ValueError(f"harmonic index must be >= 1, got {m}")
            object.__setattr__(self, "components", comps)
        else:
            tab = tuple((float(t), float(b)) for t, b in self.tabulated)
            if len(tab) < 2:
                raise ValueError("tabulated waveform needs at least two samples")
            object.__setattr__(self, "tabulated", tab)
            ts, _ = _knots(self)
            if np.any(np.diff(ts) <= 0):
                raise ValueError("tabulated times must be strictly increasing")
            if ts[0] < 0 or ts[-1] > self.period_T:
                raise ValueError("tabulated times must lie in [0, period_T]")

    @classmethod
    def harmonic(cls, period_T, amplitude, harmonic=1, phase=0.0):
        """Single sine tone A*sin(2*pi*m*t/T + psi)."""
        return cls(period_T=period_T, components=((amplitude, harmonic, phase),))

    @classmethod
    def from_table(cls, period_T, times, values):
        return cls(period_T=period_T, tabulated=tuple(zip(times, values)))


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Hoelder exponent q in (0, 1] and constant M of the waveform."""

    q: float
    M: float

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")


@dataclass(frozen=True)
class SampleGrid:
    """Bin-center sample instants t_i = (i - 1/2) * T / n1, i = 1..n1.

    The hold windows [t_i - T/(2 n1), t_i + T/(2 n1)] tile [0, T] exactly.
    """

    n1: int
    instants: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {self.n1}")
        if len(self.instants) != self.n1:
            raise ValueError("instants length must equal n1")

    @property
    def period_T(self) -> float:
        # first bin center is T / (2 n1)
        return 2.0 * self.n1 * self.instants[0]

    @property
    def window_width(self) -> float:
        return self.period_T / self.n1


def _eval_parametric(w: WaveformSpec, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for a, m, psi in w.components:
        out = out + a * np.sin(2.0 * np.pi * m * t / w.period_T + psi)
    return out


def _knots(w: WaveformSpec) -> np.ndarray:
    """Knot times and values of a tabulated waveform, as the rows of a (2, n) array."""
    return np.array(w.tabulated).T


def _eval_tabulated(w: WaveformSpec, t):
    t = np.asarray(t, dtype=float)
    ts, bs = _knots(w)
    if np.any(t < ts[0]) or np.any(t > ts[-1]):
        raise DomainError(
            f"t outside tabulated range [{ts[0]:g}, {ts[-1]:g}]"
        )
    return np.interp(t, ts, bs)


def evaluate(w: WaveformSpec, t):
    """b(t) in tesla; accepts scalars or arrays.

    Parametric waveforms are periodic in t; tabulated ones are only
    defined on their sample range and interpolate linearly.
    """
    scalar = np.isscalar(t)
    vals = _eval_parametric(w, t) if w.components is not None else _eval_tabulated(w, t)
    return float(vals) if scalar else vals


def _eval_periodic(w: WaveformSpec, t):
    """b(t mod T), used for the periodic-extension smoothness integral."""
    t = np.mod(np.asarray(t, dtype=float), w.period_T)
    if w.components is not None:
        return _eval_parametric(w, t)
    # np.interp clamps the wrap point onto the tabulated range
    return np.interp(t, *_knots(w))


def integrate(w: WaveformSpec, t0: float, t1: float) -> float:
    """Integral of b(t) dt over [t0, t1] in tesla*seconds.

    Closed-form antiderivative for parametric components.  Tabulated
    waveforms are linear between knots, so the trapezoid sum over the
    window ends and the knots inside the window is exact.
    """
    if t0 > t1:
        raise ValueError(f"t0 must be <= t1, got {t0} > {t1}")
    if t0 == t1:
        return 0.0
    if w.components is not None:
        total = 0.0
        for a, m, psi in w.components:
            omega = 2.0 * np.pi * m / w.period_T
            total += (a / omega) * (math.cos(omega * t0 + psi) - math.cos(omega * t1 + psi))
        return total
    ts, _ = _knots(w)
    x = np.concatenate(([t0], ts[(ts > t0) & (ts < t1)], [t1]))
    y = _eval_tabulated(w, x)
    return float(0.5 * np.sum(np.diff(x) * (y[:-1] + y[1:])))


def make_grid(T: float, n1: int) -> SampleGrid:
    """Bin-center grid whose hold windows tile [0, T]."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    instants = tuple((i + 0.5) * T / n1 for i in range(n1))
    return SampleGrid(n1=n1, instants=instants)


def _increment_integral(w: WaveformSpec, eps: float, n_grid: int) -> float:
    """(1/T) * int |b(t+eps) - b(t)|^2 dt on a uniform grid."""
    ts = np.arange(n_grid) * (w.period_T / n_grid)
    d = _eval_periodic(w, ts + eps) - _eval_periodic(w, ts)
    return float(np.mean(d**2))


def estimate_holder(w: WaveformSpec, n_grid: int = 4096, eps_set=None) -> SmoothnessEstimate:
    """Estimate the Hoelder exponent q and constant M of the waveform.

    For candidate exponents q on a grid in (0, 1] the increment integral
    H(q, eps) = (1/T) int |(b(t+eps)-b(t))/eps^q|^2 dt is evaluated over
    eps_set (periodic extension).  The largest q for which H stays
    bounded as eps shrinks (non-increasing within a factor 2 per halving)
    is returned, with M = T^q * sqrt(max_eps H(q, eps)).  q is capped at
    1: the zero-order hold only exploits first-order smoothness.
    """
    if n_grid < 64:
        raise ValueError(f"n_grid must be >= 64, got {n_grid}")
    if eps_set is None:
        eps_set = [w.period_T / 2**j for j in range(4, 10)]
    eps_desc = np.array(sorted((float(e) for e in eps_set), reverse=True))
    if eps_desc.size == 0:
        raise ValueError("eps_set must not be empty")
    if eps_desc[-1] <= 0 or eps_desc[0] >= w.period_T:
        raise ValueError("each eps must satisfy 0 < eps < period_T")

    q_grid = np.arange(1, 21) * 0.05  # 0.05 .. 1.00
    # H(q, eps) = H(0, eps) / eps^(2q): one increment integral per eps
    h0 = np.array([_increment_integral(w, e, n_grid) for e in eps_desc])
    H = h0 / eps_desc ** (2.0 * q_grid[:, None])
    bounded = np.all(H[:, 1:] <= 2.0 * H[:, :-1] + 1e-300, axis=1)
    # largest bounded exponent, else the roughest admitted one
    i = np.flatnonzero(bounded)[-1] if bounded.any() else 0
    q = float(q_grid[i])
    return SmoothnessEstimate(q=q, M=w.period_T**q * math.sqrt(H[i].max()))
