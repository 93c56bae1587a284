"""Acceptance gate: the nine headline behaviors, one printed verdict each.

Each test computes its criterion, prints a single ``ACCEPTANCE n ...:
PASS|FAIL`` line straight to the terminal (bypassing capture), and then
asserts.  Tolerances are stated inline next to each assertion.
"""

import math

import numpy as np
import pytest

from wfsim import (
    HQL_MODEL,
    SQL_MODEL,
    TABLE_HQL,
    TABLE_SQL,
    Protocol,
    ProtocolConfig,
    ReadoutModel,
    SampleGrid,
    SensorParams,
    WaveformSpec,
    calibrated_tone,
    continuous_optimum,
    decompose_error,
    deterministic_error_curve,
    envelope_pdd,
    envelope_tdqd,
    fit_loglog,
    optimize_exact,
    paper_rule_sql,
    phase_approx,
    phase_exact,
    phase_truth,
    run_scaling_experiment,
    sensitivity_curve,
    signal,
    statistical_error_curve,
)
from wfsim.measurement import PhaseEnsemble

P = SensorParams()
P_INF = P.without_decoherence()
T_TONE = 2.4e-6     # single-tone period used for protocol-level checks
T_SCALE = 9.6e-6    # multi-bin period used for scaling experiments
T_S = 150e-9


@pytest.fixture
def report(capsys, request):
    def _report(number, label, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: {verdict}{suffix}")
    return _report


def test_criterion_1_decomposition_identity(report):
    """delta^2 == delta_stat^2 + delta_det^2 to 1e-10 relative, 1000 ensembles."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(1, 33))
        n2 = int(rng.integers(2, 33))
        truth = WaveformSpec.harmonic(T_SCALE, float(rng.uniform(0.01e-6, 2e-6)),
                                      harmonic=int(rng.integers(1, 4)))
        grid = SampleGrid(T_SCALE, n1)
        phi = phase_truth(truth, P, T_S, np.asarray(grid.instants))
        noise = float(rng.uniform(1e-4, 0.3))
        est = phi[:, None] + noise * rng.standard_normal((n1, n2))
        ens = PhaseEnsemble(n1=n1, n2=n2, estimates=est, grid=grid, t_s=T_S,
                            protocol="ramsey-sql")
        rep = decompose_error(ens, truth, P)
        worst = max(worst, abs(rep.delta_sq - rep.delta_sq_direct) / rep.delta_sq)
    ok = worst < 1e-10
    report(1, "decomposition-identity", ok, f"worst rel dev {worst:.2e}")
    assert ok


def test_criterion_2_deterministic_error_scaling(report):
    """log-log slope of delta_det vs n1 over {4..64} is -1.00 +/- 0.05."""
    tone = calibrated_tone(P, T_S, T_SCALE)
    curve = deterministic_error_curve(tone, P, [4, 8, 16, 32, 64], T_S)
    slope, _, _ = fit_loglog(curve)
    ok = abs(slope + 1.0) <= 0.05
    report(2, "deterministic-error-slope", ok, f"slope {slope:.4f}")
    assert ok


def test_criterion_3_statistical_scaling(report):
    """delta_stat vs n2 slopes: SQL -0.5 +/- 0.07, HQL -1.0 +/- 0.07."""
    tone = calibrated_tone(P, T_S, T_SCALE)
    n2s = [4, 8, 16, 32, 64]
    sql = statistical_error_curve("sql", n2s, tone, P, ReadoutModel(seed=0), seeds=200)
    hql = statistical_error_curve("hql", n2s, tone, P, ReadoutModel(seed=1), seeds=200)
    s_sql, _, _ = fit_loglog(sql)
    s_hql, _, _ = fit_loglog(hql)
    ok = abs(s_sql + 0.5) <= 0.07 and abs(s_hql + 1.0) <= 0.07
    report(3, "statistical-scaling", ok, f"sql {s_sql:.3f}, hql {s_hql:.3f}")
    assert abs(s_sql + 0.5) <= 0.07
    assert abs(s_hql + 1.0) <= 0.07


def test_criterion_4_overall_scaling_and_5db(report):
    """Overall slopes SQL -1/3, HQL -1/2 (+/- 0.07); HQL >= 5 dB below SQL
    in delta^2 at N ~ 2e3 with full decoherence."""
    tone = calibrated_tone(P, T_S, T_SCALE)
    m = ReadoutModel(seed=0)
    sql_rows, s_sql = run_scaling_experiment(
        "sql", [N for N, _, _ in TABLE_SQL], tone, P, m, seeds=100,
        t_s=T_S, decoherence=False)
    hql_rows, s_hql = run_scaling_experiment(
        "hql", [N for N, _, _ in TABLE_HQL], tone, P, m, seeds=100,
        t_s=T_S, decoherence=False)
    # headline comparison near N = 2e3 with decoherence enabled
    (sql2k,), _ = run_scaling_experiment("sql", [1984], tone, P, m, seeds=100,
                                         t_s=T_S, decoherence=True)
    (hql2k,), _ = run_scaling_experiment("hql", [1924], tone, P, m, seeds=100,
                                         t_s=T_S, decoherence=True)
    gain_db = 10.0 * math.log10(sql2k["delta"] ** 2 / hql2k["delta"] ** 2)
    ok = (abs(s_sql + 1.0 / 3.0) <= 0.07 and abs(s_hql + 0.5) <= 0.07
          and gain_db >= 5.0)
    report(4, "overall-scaling", ok,
           f"sql {s_sql:.3f}, hql {s_hql:.3f}, gain {gain_db:.2f} dB")
    assert abs(s_sql + 1.0 / 3.0) <= 0.07
    assert abs(s_hql + 0.5) <= 0.07
    assert gain_db >= 5.0


def test_criterion_5_allocation_tables(report):
    """12 HQL rows from rounded continuous optimum; 9 SQL rows within 6%
    of the exhaustive optimum and reproduced by the cube-root rule."""
    hql_ok = all(
        int(round(continuous_optimum(HQL_MODEL, N))) == n1 and N // n1 == n2
        and N % n1 == 0
        for N, n1, n2 in TABLE_HQL
    )
    sql_ok = True
    for N, n1, n2 in TABLE_SQL:
        opt = optimize_exact(SQL_MODEL, N)
        ratio = SQL_MODEL.predicted_delta_sq(n1, n2) / opt.predicted_delta_sq
        sql_ok &= ratio <= 1.06 and paper_rule_sql(N) == (n1, n2)
    ok = hql_ok and sql_ok
    report(5, "allocation-tables", ok, "12 HQL exact, 9 SQL within 6%")
    assert hql_ok
    assert sql_ok


def test_criterion_6_envelope_formulas(report):
    """Hand-evaluated k=8 envelopes to 1e-12 relative; decoupled envelope
    strictly above the plain one for all k in 1..128."""
    t_s, T = 300e-9, T_TONE
    ref_tdqd = math.exp(-((2 * 8 * t_s / P.T2_star) ** 2)) * \
        math.exp(-((2 * 8 * T / P.T2) ** 2))
    ref_pdd = math.exp(-((2 * 8 * (T + t_s) / P.T2) ** 2))
    hand_ok = (
        abs(envelope_tdqd(P, 8, t_s, T) / ref_tdqd - 1) < 1e-12
        and abs(envelope_pdd(P, 8, t_s, T) / ref_pdd - 1) < 1e-12
    )
    order_ok = all(envelope_pdd(P, k, t_s, T) > envelope_tdqd(P, k, t_s, T)
                   for k in range(1, 129))
    ok = hand_ok and order_ok
    report(6, "envelope-formulas", ok)
    assert hand_ok
    assert order_ok


def test_criterion_7_phase_linearity(report):
    """Noiseless accumulated phase Phi(k) is linear in k to 1e-12 relative."""
    tone = WaveformSpec.harmonic(T_TONE, 100e-9)
    t_i, t_s = 450e-9, 300e-9
    ks = np.arange(1, 65)
    phis = np.empty(len(ks))
    for i, k in enumerate(ks):
        c = ProtocolConfig(Protocol.PDD_TDQD, k=int(k), t_s=t_s, T=T_TONE, t_i=t_i)
        phis[i] = math.atan2(signal(tone, P_INF, c, "Y"), signal(tone, P_INF, c, "X"))
    coeff = np.polynomial.polynomial.polyfit(ks, phis, 1)
    resid = np.max(np.abs(phis - np.polynomial.polynomial.polyval(ks, coeff)))
    rel = resid / np.max(np.abs(phis))
    ok = rel < 1e-12
    report(7, "phase-linearity", ok, f"rel residual {rel:.2e}")
    assert ok


def test_criterion_8_sensitivity_improvement(report):
    """Decoupled protocol: interior optimum in k, and >= 5x better optimal
    sensitivity than the plain protocol at the default parameters."""
    t_s, T = 300e-9, T_TONE
    ks, etas_t = sensitivity_curve(P, Protocol.TDQD, range(1, 129), t_s, T)
    _, etas_p = sensitivity_curve(P, Protocol.PDD_TDQD, range(1, 129), t_s, T)
    i_p = int(np.argmin(etas_p))
    interior = 0 < i_p < len(ks) - 1
    ratio = float(np.min(etas_t) / np.min(etas_p))
    ok = interior and ratio >= 5.0
    report(8, "sensitivity-improvement", ok,
           f"k_opt {ks[i_p]}, eta_pdd {np.min(etas_p):.3g}, "
           f"eta_tdqd {np.min(etas_t):.3g}, ratio {ratio:.2f}x")
    assert interior
    assert ratio >= 5.0


def test_criterion_9_small_window_order(report):
    """|phase_approx - phase_exact| converges with observed order 2.0 +/- 0.1
    in t_s, measured on the finest halving pair of t_s = T/8 .. T/256."""
    tone = WaveformSpec.harmonic(T_TONE, 100e-9)
    t_i = 450e-9
    t_list = [T_TONE / 2**j for j in range(3, 9)]
    errs = [abs(phase_approx(tone, P, t_i, t) - phase_exact(tone, P, t_i, t))
            for t in t_list]
    orders = [math.log2(errs[j] / errs[j + 1]) for j in range(len(errs) - 1)]
    observed = orders[-1]  # asymptotic (finest-pair) observed order
    ok = abs(observed - 2.0) <= 0.1
    report(9, "small-window-order", ok, f"order {observed:.3f}")
    assert ok
