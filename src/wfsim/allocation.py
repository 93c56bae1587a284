"""Resource allocation under the two-term error trade-off and scaling experiments.

The fitted error model is delta_stat = a / n2^p, delta_det = c / n1^q
with the published constants a = 0.0555 rad, c = 0.04 rad, p = 1/2 (SQL)
or 1 (HQL), q = 1 for the first-order differentiable test tones.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

import numpy as np

from .estimator import recon_error_sq
from .measurement import ReadoutModel, _acquire, plan_acquisition
from .sensor import Protocol, SensorParams
from .waveform import WaveformSpec

__all__ = [
    "ErrorModel",
    "Allocation",
    "SQL_MODEL",
    "HQL_MODEL",
    "TABLE_SQL",
    "TABLE_HQL",
    "continuous_optimum",
    "optimize_exact",
    "paper_rule_sql",
    "validate_paper_tables",
    "fit_loglog",
    "run_scaling_experiment",
    "statistical_error_curve",
    "calibrated_tone",
]


@dataclass(frozen=True)
class ErrorModel:
    """Power-law error constants: delta_stat = a/n2^p, delta_det = c/n1^q."""

    a_stat: float = 0.0555
    p_stat: float = 0.5
    c_det: float = 0.04
    q: float = 1.0

    def __post_init__(self):
        for name in ("a_stat", "p_stat", "c_det"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0 < self.q <= 1:
            raise ValueError(f"q must be in (0, 1], got {self.q}")

    def predicted_delta_sq(self, n1: int, n2: int) -> float:
        return (self.a_stat / n2**self.p_stat) ** 2 + (self.c_det / n1**self.q) ** 2


SQL_MODEL = ErrorModel(a_stat=0.0555, p_stat=0.5, c_det=0.04, q=1.0)
HQL_MODEL = ErrorModel(a_stat=0.0555, p_stat=1.0, c_det=0.04, q=1.0)

# published optimal-allocation tables: (N, n1, n2)
TABLE_SQL = (
    (4, 2, 2), (32, 4, 8), (60, 5, 12), (168, 7, 24), (480, 10, 48),
    (840, 12, 70), (1066, 13, 82), (1984, 16, 124), (2380, 17, 140),
)
TABLE_HQL = (
    (12, 3, 4), (140, 10, 14), (234, 13, 18), (408, 17, 24), (560, 20, 28),
    (736, 23, 32), (1026, 27, 38), (1260, 30, 42), (1518, 33, 46),
    (1924, 37, 52), (2240, 40, 56), (2580, 43, 60),
)


@dataclass(frozen=True)
class Allocation:
    n1: int
    n2: int
    N: int
    predicted_delta_sq: float
    budget_mode: bool = False

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be >= 1")
        if not self.budget_mode and self.n1 * self.n2 != self.N:
            raise ValueError("n1 * n2 must equal N unless budget_mode is set")


def continuous_optimum(m: ErrorModel, N: int) -> float:
    """Real-valued stationary n1 of a^2 (n1/N)^(2p) + c^2 n1^(-2q) on [1, N]."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    p, q = m.p_stat, m.q
    n1 = (q * m.c_det**2 / (p * m.a_stat**2)) ** (1.0 / (2 * p + 2 * q)) * N ** (p / (p + q))
    return float(min(max(n1, 1.0), N))


def _divisor_pairs(N: int):
    for d in range(1, int(math.isqrt(N)) + 1):
        if N % d == 0:
            yield d, N // d
            if d != N // d:
                yield N // d, d


def _budget_pairs(N: int):
    """(n1, N // n1) for the largest n1 of each distinct N // n1, in increasing n1."""
    s = math.isqrt(N)
    for n1 in range(1, s + 1):  # N // n1 differs for each n1 <= isqrt(N)
        yield n1, N // n1
    for n2 in range(N // (s + 1), 0, -1):
        yield N // n2, n2


def optimize_exact(m: ErrorModel, N: int, budget_mode: bool = False) -> Allocation:
    """Integer-optimal (n1, n2): exhaustive over divisor pairs of N, or, when
    budget_mode allows n1*n2 <= N, over every n1 with n2 = floor(N/n1).

    Budget mode searches in O(sqrt(N)): c/n1^q falls as n1 grows, so among
    the n1 sharing one n2 = floor(N/n1) the largest is best, and only the
    at most 2*isqrt(N) distinct values of n2 are scored.  Ties go to the
    smaller n1, so the result equals a scan of every n1 bit for bit.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    best = None
    for n1, n2 in _budget_pairs(N) if budget_mode else _divisor_pairs(N):
        d = m.predicted_delta_sq(n1, n2)
        if best is None or d < best[0] or (d == best[0] and n1 < best[1]):
            best = (d, n1, n2)
    d, n1, n2 = best
    if budget_mode:
        # rounding can give smaller n1 with the same n2 the same delta^2; the
        # smallest of them wins the tie (none is scored when n1 is alone)
        lo = N // (n2 + 1) + 1
        n1 = lo + bisect.bisect_left(range(lo, n1), True,
                                     key=lambda k: m.predicted_delta_sq(k, n2) <= d)
    return Allocation(n1=n1, n2=n2, N=N, predicted_delta_sq=d, budget_mode=budget_mode)


def paper_rule_sql(N: int) -> tuple[int, int]:
    """Asymptotic SQL rounding rule n1 = round((2N)^(1/3)), n2 = N / n1."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    n1 = int(round((2 * N) ** (1.0 / 3.0)))
    if N % n1 != 0:
        raise ValueError(f"N={N} is not divisible by the rule's n1={n1}")
    return n1, N // n1


def validate_paper_tables(m_sql: ErrorModel = SQL_MODEL,
                          m_hql: ErrorModel = HQL_MODEL) -> list[dict]:
    """Check every published table row against the model optima.

    HQL rows must equal the rounding of the continuous optimum exactly;
    SQL rows must be within 6% of the exhaustive optimum in predicted
    delta^2 and match the asymptotic rounding rule n1 = round((2N)^(1/3)).
    """
    rows = []
    for N, n1, n2 in TABLE_SQL:
        opt = optimize_exact(m_sql, N)
        d_table = m_sql.predicted_delta_sq(n1, n2)
        ratio = d_table / opt.predicted_delta_sq
        rule_n1 = int(round((2 * N) ** (1.0 / 3.0)))
        ok = n1 * n2 == N and ratio <= 1.06 and rule_n1 == n1
        rows.append({
            "scheme": "SQL", "N": N, "n1": n1, "n2": n2,
            "opt_n1": opt.n1, "opt_n2": opt.n2,
            "delta_sq_ratio": ratio, "paper_rule_n1": rule_n1,
            "status": "within-6%" if ok else "FAIL",
        })
    for N, n1, n2 in TABLE_HQL:
        opt = optimize_exact(m_hql, N)
        n1_round = int(round(continuous_optimum(m_hql, N)))
        d_table = m_hql.predicted_delta_sq(n1, n2)
        ratio = d_table / opt.predicted_delta_sq
        ok = n1 * n2 == N and n1_round == n1 and N % n1 == 0 and N // n1 == n2
        rows.append({
            "scheme": "HQL", "N": N, "n1": n1, "n2": n2,
            "opt_n1": opt.n1, "opt_n2": opt.n2,
            "delta_sq_ratio": ratio, "rounded_continuous_n1": n1_round,
            "status": "exact-match" if ok else "FAIL",
        })
    return rows


def fit_loglog(points) -> tuple[float, float, float]:
    """OLS fit of log y on log x; returns (slope, intercept, slope_stderr)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("all points must be strictly positive")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    n = len(pts)
    sxx = np.sum((lx - lx.mean()) ** 2)
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    stderr = float(np.sqrt(np.sum(resid**2) / max(n - 2, 1) / sxx))
    return slope, intercept, stderr


def calibrated_tone(p: SensorParams, t_s: float, period_T: float,
                    c_det: float = 0.04, harmonic: int = 1) -> WaveformSpec:
    """Sinusoid whose ZOH deterministic error matches c_det/n1 asymptotically.

    For phi(t) = Phi0 sin(2 pi t/T) the bin-center ZOH error tends to
    Phi0 * pi / (sqrt(6) n1), so Phi0 = c_det * sqrt(6) / pi.
    """
    phi0 = c_det * math.sqrt(6.0) / math.pi
    amplitude = phi0 / (2.0 * p.gamma_e * t_s)
    return WaveformSpec.harmonic(period_T, amplitude, harmonic=harmonic)


def _scheme_kind(scheme: str) -> Protocol:
    kind = {"sql": Protocol.RAMSEY_SQL, "hql": Protocol.PDD_TDQD}.get(scheme)
    if kind is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    return kind


def _check_seeds(seeds: int) -> None:
    if seeds < 2:
        raise ValueError(f"seeds must be >= 2 for a spread over seeds, got {seeds}")


# noise draws per chunk of seeds (256 KB of float64): enough seeds to spread
# numpy's per-call cost, few enough that the chunk stays in cache
_CHUNK_DRAWS = 2**15


def _monte_carlo(kind: Protocol, w: WaveformSpec, p: SensorParams, m: ReadoutModel,
                 n1: int, n2: int, t_s: float, key: int, seeds: int) -> np.ndarray:
    """(seeds, n1) per-bin means, row s those of the ensemble drawn by
    Philox(SeedSequence([m.seed, key])).jumped(s).  One plan and one Philox key
    serve every seed, and seed s is counter s under that key (Salmon et al.,
    SC'11), so the seeds are drawn in chunks of about _CHUNK_DRAWS draws and
    each row still equals its own fresh draw bit for bit."""
    plan = plan_acquisition(kind, w, p, n1, n2, t_s)
    philox_key = np.random.SeedSequence([m.seed, key]).generate_state(2, np.uint64).tolist()
    chunk = max(1, _CHUNK_DRAWS // (plan.signal.size * plan.n_cols))
    phi_bars = np.empty((seeds, n1))
    for s0 in range(0, seeds, chunk):
        counters = range(s0, min(s0 + chunk, seeds))
        phi_bars[s0:s0 + chunk] = _acquire(plan, m, philox_key, counters).mean(axis=-1)
    # a non-finite estimate makes its bin mean non-finite: the ensemble's check
    if not np.isfinite(phi_bars).all():
        raise ValueError("all phase estimates must be finite")
    return phi_bars


def run_scaling_experiment(scheme: str, N_list, w: WaveformSpec, p: SensorParams,
                           m: ReadoutModel, seeds: int = 100, t_s: float = 150e-9,
                           decoherence: bool = True, allocator: str = "exact"):
    """Simulated overall error delta vs total budget N.

    For each N the budget is split by the scheme's fitted-constant
    optimum ("exact") or, for sql only, the published rounding rule
    ("paper"); `seeds` >= 2 independent ensembles are acquired,
    reconstructed, and scored by the ZOH reconstruction error.  Returns
    (rows, slope) where each row is a dict with N, n1, n2, delta, delta_ci.
    """
    import logging  # here, not at the top: it adds about 5% to `import wfsim`

    log = logging.getLogger(__name__)
    kind = _scheme_kind(scheme)
    if allocator not in ("exact", "paper"):
        raise ValueError(f"unknown allocator {allocator!r}")
    if allocator == "paper" and scheme != "sql":
        raise ValueError(f"allocator 'paper' applies to the sql scheme only, got {scheme!r}")
    _check_seeds(seeds)
    model = SQL_MODEL if scheme == "sql" else HQL_MODEL
    p_run = p if decoherence else p.without_decoherence()
    rows = []
    for N in N_list:
        t0 = time.perf_counter()
        if allocator == "paper":
            n1, n2 = paper_rule_sql(N)
        else:
            alloc = optimize_exact(model, N)
            n1, n2 = alloc.n1, alloc.n2
        if scheme == "hql" and n2 % 2 != 0:
            # nudge to the nearest even-n2 divisor split
            alloc = min(
                (
                    (model.predicted_delta_sq(a, b), a, b)
                    for a, b in _divisor_pairs(N) if b % 2 == 0
                ),
                default=None,
            )
            if alloc is None:
                raise ValueError(f"N={N} admits no even-n2 allocation")
            _, n1, n2 = alloc
        phi_bars = _monte_carlo(kind, w, p_run, m, n1, n2, t_s, N, seeds)
        deltas = np.sqrt(recon_error_sq(phi_bars, w, p_run, t_s))
        rows.append({
            "N": int(N), "n1": n1, "n2": n2,
            "delta": float(deltas.mean()),
            "delta_ci": float(1.96 * deltas.std(ddof=1) / math.sqrt(seeds)),
        })
        log.info("scaling %s N=%d n1=%d n2=%d seeds=%d %.3fs",
                 scheme, N, n1, n2, seeds, time.perf_counter() - t0)
    slope = math.nan
    if len(rows) >= 3:
        slope, _, _ = fit_loglog([(r["N"], r["delta"]) for r in rows])
    return rows, slope


def statistical_error_curve(scheme: str, n2_list, w: WaveformSpec, p: SensorParams,
                            m: ReadoutModel, n1: int = 4, t_s: float = 150e-9,
                            seeds: int = 200, decoherence: bool = False):
    """delta_stat vs n2: std over seeds >= 2 of the per-bin phase estimates.

    For SQL the per-bin estimate is the column mean of n2 single-resource
    shots; for HQL it is the single n2-resource (k = n2/2) estimate.
    """
    kind = _scheme_kind(scheme)
    _check_seeds(seeds)
    p_run = p if decoherence else p.without_decoherence()
    out = []
    for n2 in n2_list:
        phi_bars = _monte_carlo(kind, w, p_run, m, n1, int(n2), t_s, n2, seeds)
        delta_stat = float(np.sqrt(phi_bars.var(axis=0, ddof=1).mean()))
        out.append((int(n2), delta_stat))
    return out
