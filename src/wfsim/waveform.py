"""Waveforms b(t) over one period: evaluation, integration, hold errors,
smoothness, sampling grids.

A waveform is either a sum of harmonic sine components or a table of
(t, b) samples interpolated linearly.  All quantities are SI (seconds,
tesla).
"""

from __future__ import annotations

import hashlib
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
    "hold_error",
    "estimate_holder",
]


@dataclass(frozen=True)
class WaveformSpec:
    """Signal b(t) on [0, T]: harmonic components or a table of knots.

    Components are (amplitude_tesla, harmonic_index, phase_offset_rad)
    triples giving b(t) = sum_m A_m * sin(2*pi*m*t/T + psi_m); the
    parametric form is evaluated periodically for any t.  A table is held
    only in ``knots``, a read-only C-ordered (2, K) float array: row 0 holds
    K >= 2 strictly increasing times in [0, T], row 1 their values, and b is
    linear between knots.  Any (2, K) array-like is copied in; ``knots`` is
    None for harmonics.  ``knots_sha256``, the SHA-256 of the knot bytes,
    stands in for the array in equality and hashing, so two tables are
    equal exactly when their bits are.
    """

    period_T: float
    components: tuple[tuple[float, int, float], ...] | None = None
    knots: np.ndarray | None = field(default=None, repr=False, compare=False)
    knots_sha256: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.period_T < math.inf:
            raise ValueError(f"period_T must be finite and positive, got {self.period_T}")
        if (self.components is None) == (self.knots is None):
            raise ValueError("exactly one of components/knots must be given")
        if self.components is not None:
            comps = tuple((float(a), int(m), float(psi)) for a, m, psi in self.components)
            for _, m, _ in comps:
                if m < 1:
                    raise ValueError(f"harmonic index must be >= 1, got {m}")
            if not np.isfinite(comps).all():
                raise ValueError("amplitudes and phases must be finite")
            object.__setattr__(self, "components", comps)
            return
        knots = np.array(self.knots, dtype=float, order="C")
        if knots.ndim != 2 or len(knots) != 2:
            raise ValueError(f"knots must be a (2, K) array, got shape {knots.shape}")
        if knots.shape[1] < 2:
            raise ValueError("tabulated waveform needs at least two samples")
        if not np.isfinite(knots).all():
            raise ValueError("tabulated times and samples must be finite")
        if np.any(np.diff(knots[0]) <= 0):
            raise ValueError("tabulated times must be strictly increasing")
        if knots[0, 0] < 0 or knots[0, -1] > self.period_T:
            raise ValueError("tabulated times must lie in [0, period_T]")
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "knots_sha256", hashlib.sha256(knots).hexdigest())

    @classmethod
    def harmonic(cls, period_T, amplitude, harmonic=1, phase=0.0):
        """Single sine tone A*sin(2*pi*m*t/T + psi)."""
        return cls(period_T=period_T, components=((amplitude, harmonic, phase),))

    @classmethod
    def from_table(cls, period_T, times, values):
        return cls(period_T=period_T, knots=(times, values))


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
    """n1 bins of period T with bin-center instants t_i = (i - 1/2) * T / n1.

    The hold windows [t_i - T/(2 n1), t_i + T/(2 n1)] tile [0, T] exactly;
    ``edges`` gives their n1 + 1 ends.
    """

    period_T: float
    n1: int

    def __post_init__(self):
        if not 0 < self.period_T < math.inf:
            raise ValueError(f"T must be finite and positive, got {self.period_T}")
        if self.n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {self.n1}")

    @property
    def instants(self) -> tuple[float, ...]:
        return tuple((i + 0.5) * self.period_T / self.n1 for i in range(self.n1))

    @property
    def edges(self) -> np.ndarray:
        """Window ends i*T/n1, i = 0..n1, from exactly 0 to exactly T."""
        return self.period_T * (np.arange(self.n1 + 1) / self.n1)


def _eval_parametric(w: WaveformSpec, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for a, m, psi in w.components:
        out = out + a * np.sin(2.0 * np.pi * m * t / w.period_T + psi)
    return out


def _eval_tabulated(w: WaveformSpec, t):
    t = np.asarray(t, dtype=float)
    ts, bs = w.knots
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
    return np.interp(t, *w.knots)


def _split_table(w: WaveformSpec, ends):
    """Split a table at its knots and the window ends: the sorted piece ends x
    (the union of both), b(x), and the index of each window end in x."""
    x = np.union1d(w.knots[0], ends)
    return x, _eval_tabulated(w, x), np.searchsorted(x, ends)


def integrate(w: WaveformSpec, t0, t1):
    """Integral of b(t) dt over each window [t0, t1] in tesla*seconds.

    t0 and t1 are scalar window ends, which give a float, or arrays of them
    that broadcast together, which give one integral per window.  Harmonics
    use their closed-form antiderivative.  A table is linear between knots:
    the one table splitter, which ``hold_error`` shares, cuts it at the knots
    and all window ends, and each window sums the exact trapezoids of its own
    pieces, never a difference of a global antiderivative, which would cancel
    digits on a short window.
    """
    t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    if (t0 > t1).any():
        k = np.argmax(t0 > t1)
        raise ValueError(f"t0 must be <= t1, got {t0.flat[k]} > {t1.flat[k]}")
    if w.components is not None:
        total = np.zeros(t0.shape)
        for a, m, psi in w.components:
            omega = 2.0 * np.pi * m / w.period_T
            total = total + (a / omega) * (np.cos(omega * t0 + psi) - np.cos(omega * t1 + psi))
    else:
        x, y, ends = _split_table(w, np.stack([t0, t1], axis=-1).ravel())
        # reduceat over the interleaved (start, end) indices sums each window's
        # pieces from a 0 inserted before its first one: a zero-width window
        # gives 0, and the pieces group as np.sum groups them.  A trailing 0
        # keeps an end at x[-1] a valid index
        at = np.unique(ends[0::2])
        pieces = np.insert(np.append(np.diff(x) * (y[:-1] + y[1:]), 0.0), at, 0.0)
        sums = np.add.reduceat(pieces, ends + np.searchsorted(at, ends))[0::2]
        total = 0.5 * sums.reshape(t0.shape)
    return float(total) if total.ndim == 0 else total


def _one_minus_sinc(x):
    """1 - sin(x)/x for x >= 0, without the cancellation near 0: its Taylor
    series below x = 1, the closed form from there on."""
    x = np.asarray(x, dtype=float)
    s = np.minimum(x, 1.0)
    series = sum((-1) ** (k + 1) * s ** (2 * k) / math.factorial(2 * k + 1) for k in range(1, 10))
    return np.where(x < 1.0, series, 1.0 - np.sin(x) / np.maximum(x, 1.0))


def hold_error(w: WaveformSpec, held) -> np.ndarray:
    """Integral of (held_i - b(t))^2 dt over each hold window, in tesla^2 * s.

    held is a (..., n1) stack of values in tesla, held_i on the i-th of the n1
    windows [i T/n1, (i+1) T/n1] that tile [0, T]; the result has its shape.
    Both forms are exact up to rounding and centre the error before squaring.
    A table is linear between the knots and the window edges, so it is split
    there by the one table splitter that ``integrate`` uses too, and summed
    piece by piece.  A harmonic component m is expanded about each window's
    midpoint mu as P_m cos(w_m s) + Q_m sin(w_m s), s = t - mu, and the
    integrals of the products of (cos(w_m s) - 1) and sin(w_m s) over the
    window are closed forms in 1 - sinc.
    """
    held = np.asarray(held, dtype=float)
    if held.ndim == 0:
        raise ValueError("held must have a last axis of n1 window values")
    n1 = held.shape[-1]
    edges = SampleGrid(w.period_T, n1).edges
    if w.components is None:
        x, y, starts = _split_table(w, edges)
        c = np.repeat(held, np.diff(starts), axis=-1)
        u0, u1 = y[:-1] - c, y[1:] - c
        pieces = np.diff(x) / 3.0 * (u0 * u0 + u0 * u1 + u1 * u1)
        return np.add.reduceat(pieces, starts[:-1], axis=-1)
    amp, index, phase = (np.array(col) for col in zip(*w.components))
    half = 0.5 * w.period_T / n1
    # 1 - sinc(w h) of each component, and of the sums and differences of pairs
    x = np.pi * index / n1
    g, g_sum, g_diff = (_one_minus_sinc(v) for v in (x, x[:, None] + x, abs(x[:, None] - x)))
    even = half * (2.0 * g[:, None] + 2.0 * g - g_sum - g_diff)
    odd = half * (g_sum - g_diff)
    mid = 0.5 * (edges[:-1] + edges[1:])
    arg = (2.0 * np.pi * index / w.period_T)[:, None] * mid + phase[:, None]
    P, Q = amp[:, None] * np.sin(arg), amp[:, None] * np.cos(arg)
    d = P.sum(axis=0) - held  # b(mu) - held
    return (2.0 * half * d * d - 4.0 * half * d * (g @ P)
            + np.sum(P * (even @ P), axis=0) + np.sum(Q * (odd @ Q), axis=0))


def _increment_integral(w: WaveformSpec, eps: float, n_grid: int) -> float:
    """(1/T) * int |b(t+eps) - b(t)|^2 dt on a uniform grid."""
    ts = np.arange(n_grid) * (w.period_T / n_grid)
    d = _eval_periodic(w, ts + eps) - _eval_periodic(w, ts)
    return float(np.mean(d**2))


def estimate_holder(w: WaveformSpec, n_grid: int = 4096) -> SmoothnessEstimate:
    """Estimate the Hoelder exponent q and constant M of the waveform.

    For candidate exponents q on a grid in (0, 1] the increment integral
    H(q, eps) = (1/T) int |(b(t+eps)-b(t))/eps^q|^2 dt is evaluated at
    eps = T/16 ... T/512 (periodic extension).  The largest q for which H stays
    bounded as eps shrinks (non-increasing within a factor 2 per halving)
    is returned, with M = sqrt(max_eps H(q, eps) T^(2q)).  q is capped at
    1: the zero-order hold only exploits first-order smoothness.
    """
    if n_grid < 64:
        raise ValueError(f"n_grid must be >= 64, got {n_grid}")
    # eps / T = 2^-j exactly, so no power of eps can underflow on a short period
    ratio = 2.0 ** -np.arange(4, 10)
    q_grid = np.arange(1, 21) * 0.05  # 0.05 .. 1.00
    # an amplitude near the float range overflows into an M the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        # H(q, eps) T^(2q) = H(0, eps) / (eps/T)^(2q): one increment integral per eps
        h0 = np.array([_increment_integral(w, r * w.period_T, n_grid) for r in ratio])
        H = h0 / ratio ** (2.0 * q_grid[:, None])
        bounded = np.all(H[:, 1:] <= 2.0 * H[:, :-1] + 1e-300, axis=1)
    # largest bounded exponent, else the roughest admitted one
    i = np.flatnonzero(bounded)[-1] if bounded.any() else 0
    q = float(q_grid[i])
    M = math.sqrt(H[i].max())
    if not math.isfinite(M):
        raise ValueError(f"Hoelder constant M is not finite ({M}) at q = {q:g} for "
                         f"period {w.period_T:g}")
    return SmoothnessEstimate(q=q, M=M)
