"""Deterministic spin-sensor model: phases, decay envelopes, signals, sensitivity.

Protocols
---------
``ramsey-sql``   single-pass small-interval Ramsey sampling (1 resource/shot)
``tdqd``         differential two-pi-pulse sampling, k passes (n2 = 2k)
``pdd-tdqd``     the same with a periodic-decoupling pulse train, which
                 removes the fast-dephasing envelope and leaves only the
                 coherence-time decay over the full multi-pass duration
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .waveform import WaveformSpec, evaluate, integrate

__all__ = [
    "GAMMA_E_DEFAULT",
    "SensorParams",
    "Protocol",
    "ProtocolConfig",
    "phase_exact",
    "phase_approx",
    "envelope_tdqd",
    "envelope_pdd",
    "envelope_ramsey",
    "envelope",
    "signal",
    "sensitivity",
    "sensitivity_curve",
]

# electron-spin gyromagnetic ratio, rad / (s T)
GAMMA_E_DEFAULT = 2.0 * math.pi * 28.024e9


@dataclass(frozen=True)
class SensorParams:
    """Physical parameters of the spin sensor (defaults: NV center values)."""

    gamma_e: float = GAMMA_E_DEFAULT
    T2_star: float = 5.2e-6
    T2: float = 0.66e-3
    contrast_C: float = 0.25
    rabi_freq: float = 10e6
    t_pi: float = 50e-9

    def __post_init__(self):
        for name in ("gamma_e", "T2_star", "T2", "contrast_C", "rabi_freq", "t_pi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.contrast_C > 1:
            raise ValueError(f"contrast_C must be <= 1, got {self.contrast_C}")
        if math.isfinite(self.rabi_freq) and abs(self.t_pi * self.rabi_freq - 0.5) > 0.05:
            warnings.warn(
                f"t_pi * rabi_freq = {self.t_pi * self.rabi_freq:.3g} deviates from "
                "1/2 by more than 10%: pi-pulse timing inconsistent",
                stacklevel=2,
            )

    def without_decoherence(self) -> "SensorParams":
        """Copy with both decay times set to infinity."""
        return replace(self, T2_star=math.inf, T2=math.inf)


class Protocol(str, Enum):
    RAMSEY_SQL = "ramsey-sql"
    TDQD = "tdqd"
    PDD_TDQD = "pdd-tdqd"


@dataclass(frozen=True)
class ProtocolConfig:
    """One sensing configuration: protocol, pass count, window and instant."""

    kind: Protocol
    k: int
    t_s: float
    T: float
    t_i: float

    def __post_init__(self):
        object.__setattr__(self, "kind", Protocol(self.kind))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.t_s <= self.T:
            raise ValueError(f"t_s must be in (0, T], got {self.t_s}")
        if not 0 <= self.t_i <= self.T - self.t_s:
            raise ValueError(f"t_i must be in [0, T - t_s], got {self.t_i}")

    @property
    def n2(self) -> int:
        """Resources consumed per sample."""
        return 1 if self.kind is Protocol.RAMSEY_SQL else 2 * self.k


def phase_exact(w: WaveformSpec, p: SensorParams, t_i: float, t_s: float) -> float:
    """Single-pass differential phase: -2 * gamma_e * int_{t_i}^{t_i+t_s} b(t) dt."""
    if t_i + t_s > w.period_T:
        raise ValueError("sampling window extends beyond the waveform period")
    return -2.0 * p.gamma_e * integrate(w, t_i, t_i + t_s)


def phase_approx(w: WaveformSpec, p: SensorParams, t_i: float, t_s: float) -> float:
    """Small-window approximation -2 * gamma_e * b(t_i) * t_s (t_s/T << 1)."""
    if t_i + t_s > w.period_T:
        raise ValueError("sampling window extends beyond the waveform period")
    return -2.0 * p.gamma_e * evaluate(w, t_i) * t_s


def _decay(ratio: float) -> float:
    """exp(-ratio^2), which is 0.0 once ratio^2 overflows.  ratio ** 2 rather
    than ratio * ratio: the two differ in the last bit for some ratios."""
    try:
        return math.exp(-(ratio ** 2))
    except OverflowError:
        return 0.0


def envelope_tdqd(p: SensorParams, k: int, t_s: float, T: float) -> float:
    """Decay envelope of the plain differential protocol.

    exp[-(2k t_s / T2*)^2] * exp[-(2k T / T2)^2]
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _decay(2 * k * t_s / p.T2_star) * _decay(2 * k * T / p.T2)


def envelope_pdd(p: SensorParams, k: int, t_s: float, T: float) -> float:
    """Decay envelope with periodic decoupling: exp[-(2k (T + t_s) / T2)^2].

    Independent of T2*: the pulse train refocuses the fast dephasing.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _decay(2 * k * (T + t_s) / p.T2)


def envelope_ramsey(p: SensorParams, t_s: float) -> float:
    """Free-induction envelope of one short Ramsey window: exp[-(t_s/T2*)^2]."""
    return _decay(t_s / p.T2_star)


def envelope(kind: Protocol, p: SensorParams, k: int, t_s: float, T: float) -> float:
    """Decay envelope of a protocol's accumulated signal: one Ramsey window
    (k and T unused), or k plain or k decoupled differential passes."""
    if kind is Protocol.RAMSEY_SQL:
        return envelope_ramsey(p, t_s)
    if kind is Protocol.TDQD:
        return envelope_tdqd(p, k, t_s, T)
    return envelope_pdd(p, k, t_s, T)


def _check_window(p: SensorParams, c: ProtocolConfig):
    if c.t_s + 2 * p.t_pi > c.T:
        raise ValueError("t_s + 2*t_pi must fit within the waveform period")


def _phase_gain(kind: Protocol, k: int) -> float:
    """Accumulated phase per unit differential phase: one Ramsey pass
    accumulates half of it, k differential passes 2k times it."""
    return 0.5 if kind is Protocol.RAMSEY_SQL else 2 * k


def _quadratures(kind: Protocol, cos, sin):
    """(X, Y) readout order of an accumulated phase's cos and sin: tdqd reads
    sin on X and cos on Y, the other protocols the reverse.  The order is a
    swap or not, so the same call maps a read-out (X, Y) back to (cos, sin)."""
    return (sin, cos) if kind is Protocol.TDQD else (cos, sin)


def signal(w: WaveformSpec, p: SensorParams, c: ProtocolConfig, readout_quadrature: str = "X") -> float:
    """Noiseless sensor output in [-1, 1] for the given quadrature ("X" or "Y")."""
    if readout_quadrature not in ("X", "Y"):
        raise ValueError(f"quadrature must be 'X' or 'Y', got {readout_quadrature!r}")
    _check_window(p, c)
    big_phi = _phase_gain(c.kind, c.k) * phase_exact(w, p, c.t_i, c.t_s)
    x, y = _quadratures(c.kind, math.cos(big_phi), math.sin(big_phi))
    return envelope(c.kind, p, c.k, c.t_s, c.T) * (x if readout_quadrature == "X" else y)


def sensitivity(p: SensorParams, c: ProtocolConfig, sigma_read: float | None = None) -> float:
    """Sensitivity B_min * sqrt(t_cycle) in T / sqrt(Hz).

    B_min = sigma_read / |dS/dB| with |dS/dB| = envelope * gain * 2 gamma_e
    t_s * C, where gain is the phase gain (2k, or 1/2 for one Ramsey pass),
    and t_cycle = n2 (T + t_s).  sigma_read defaults
    to the per-cycle photon shot noise of the default readout model.
    Returns inf when the envelope has fully decayed.
    """
    if sigma_read is None:
        from .measurement import ReadoutModel, photon_shot_noise
        sigma_read = photon_shot_noise(ReadoutModel(), p)
    env = envelope(c.kind, p, c.k, c.t_s, c.T)
    dSdB = env * _phase_gain(c.kind, c.k) * 2.0 * p.gamma_e * c.t_s * p.contrast_C
    t_cycle = c.n2 * (c.T + c.t_s)
    if dSdB <= 0 or not math.isfinite(dSdB) or env < 1e-300:
        return math.inf
    return (sigma_read / dSdB) * math.sqrt(t_cycle)


def sensitivity_curve(p: SensorParams, kind: Protocol, k_values, t_s: float, T: float,
                      sigma_read: float | None = None):
    """Sensitivity vs k, with the window at t_i = 0; returns (k_array, eta_array)."""
    ks = np.asarray(list(k_values), dtype=int)
    etas = np.array([
        sensitivity(p, ProtocolConfig(kind=kind, k=int(k), t_s=t_s, T=T, t_i=0.0),
                    sigma_read=sigma_read)
        for k in ks
    ])
    return ks, etas
