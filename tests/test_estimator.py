import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wfsim import (
    Protocol,
    ReadoutModel,
    SensorParams,
    WaveformSpec,
    acquire,
    decompose_error,
    deterministic_error_curve,
    fit_loglog,
    make_grid,
    phase_truth,
    phase_to_tesla,
    recon_error_sq,
    reconstruct,
)
from wfsim.measurement import PhaseEnsemble

T_FIG4 = 9.6e-6
P = SensorParams()
P_INF = P.without_decoherence()
T_S = 150e-9


def tone(amplitude=1e-6):
    return WaveformSpec.harmonic(T_FIG4, amplitude)


def synthetic_ensemble(truth, n1, n2, seed, noise=0.05):
    """Ensemble with explicit Gaussian scatter around the truth phase."""
    grid = make_grid(truth.period_T, n1)
    rng = np.random.default_rng(seed)
    phi = phase_truth(truth, P, T_S, np.asarray(grid.instants))
    est = phi[:, None] + noise * rng.standard_normal((n1, n2))
    return PhaseEnsemble(n1=n1, n2=n2, estimates=est, grid=grid, t_s=T_S,
                         protocol="ramsey-sql")


class TestReconstruction:
    def test_mean_over_columns(self):
        grid = make_grid(T_FIG4, 2)
        est = np.array([[1.0, 3.0], [0.0, -2.0]])
        ens = PhaseEnsemble(n1=2, n2=2, estimates=est, grid=grid, t_s=T_S,
                            protocol="ramsey-sql")
        assert reconstruct(ens) == pytest.approx([2.0, -1.0])

    def test_phase_to_tesla_inverts_truth(self):
        w = tone(2e-6)
        t = 1.3e-6
        phi = phase_truth(w, P, T_S, t)
        assert phase_to_tesla(phi, P, T_S) == pytest.approx(2e-6 * math.sin(2 * math.pi * t / T_FIG4), rel=1e-12)


class TestDecomposition:
    def test_constant_truth_hand_case(self):
        # truth phi = 0 everywhere, estimates {0.1, 0.3} in a single bin:
        # phi_bar = 0.2, stat = var = 0.01, det = 0.04, total by hand 0.05
        truth = WaveformSpec.from_table(T_FIG4, [0.0, T_FIG4], [0.0, 0.0])
        grid = make_grid(T_FIG4, 1)
        ens = PhaseEnsemble(n1=1, n2=2, estimates=np.array([[0.1, 0.3]]),
                            grid=grid, t_s=T_S, protocol="ramsey-sql")
        rep = decompose_error(ens, truth, P)
        assert rep.delta_stat_sq == pytest.approx(0.01, rel=1e-12)
        assert rep.delta_det_sq == pytest.approx(0.04, rel=1e-12)
        assert rep.delta_sq == pytest.approx(0.05, rel=1e-12)
        assert rep.delta_sq_direct == pytest.approx(0.05, rel=1e-12)

    def test_sinusoid_single_bin_oracle(self):
        # zero estimates, one bin: delta_det^2 = (1/T) int phi(t)^2 dt
        w = tone(1e-6)
        grid = make_grid(T_FIG4, 1)
        ens = PhaseEnsemble(n1=1, n2=3, estimates=np.zeros((1, 3)), grid=grid,
                            t_s=T_S, protocol="ramsey-sql")
        rep = decompose_error(ens, w, P)
        oracle, _ = quad(lambda t: phase_truth(w, P, T_S, t) ** 2, 0, T_FIG4,
                         epsrel=1e-12)
        assert rep.delta_det_sq == pytest.approx(oracle / T_FIG4, rel=1e-9)
        assert rep.delta_stat_sq == 0.0

    def test_identity_on_simulated_ensembles(self):
        w = tone(0.05e-6)
        for seed, kind in enumerate(Protocol):
            ens = acquire(kind, w, P_INF, ReadoutModel(seed=seed), 8, 16, T_S)
            rep = decompose_error(ens, w, P_INF)
            assert rep.delta_sq == pytest.approx(rep.delta_sq_direct, rel=1e-10)

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        truth = tone(float(rng.uniform(0.01e-6, 2e-6)))
        ens = synthetic_ensemble(truth, n1, n2, seed, noise=float(rng.uniform(0.001, 0.2)))
        rep = decompose_error(ens, truth, P)
        assert rep.delta_sq == pytest.approx(rep.delta_sq_direct, rel=1e-10)

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_column_order_invariance(self, seed, n1, n2):
        # permuting the columns reorders only the sums, so the results agree to
        # rounding rather than bit for bit
        rng = np.random.default_rng(seed)
        truth = tone(float(rng.uniform(0.01e-6, 2e-6)))
        ens = synthetic_ensemble(truth, n1, n2, seed, noise=float(rng.uniform(0.001, 0.2)))
        shuffled = dataclasses.replace(ens, estimates=ens.estimates[:, rng.permutation(n2)])
        np.testing.assert_allclose(reconstruct(shuffled), reconstruct(ens),
                                   rtol=1e-12, atol=0)
        rep, rep_shuffled = decompose_error(ens, truth, P), decompose_error(shuffled, truth, P)
        for f in dataclasses.fields(rep):
            np.testing.assert_allclose(getattr(rep_shuffled, f.name), getattr(rep, f.name),
                                       rtol=1e-12, atol=0, err_msg=f.name)

    def test_offset_shifts_only_det_part(self):
        truth = tone(0.5e-6)
        base = synthetic_ensemble(truth, 6, 8, seed=3)
        shifted = PhaseEnsemble(n1=6, n2=8, estimates=base.estimates + 0.01,
                                grid=base.grid, t_s=T_S, protocol="ramsey-sql")
        r0 = decompose_error(base, truth, P)
        r1 = decompose_error(shifted, truth, P)
        assert r1.delta_stat_sq == pytest.approx(r0.delta_stat_sq, rel=1e-12)
        assert r1.delta_det_sq != pytest.approx(r0.delta_det_sq, rel=1e-6)

    def test_period_mismatch_rejected(self):
        ens = synthetic_ensemble(tone(), 4, 4, seed=0)
        other = WaveformSpec.harmonic(2 * T_FIG4, 1e-6)
        with pytest.raises(ValueError):
            decompose_error(ens, other, P)

    def test_report_serialization(self, tmp_path):
        rep = decompose_error(synthetic_ensemble(tone(), 4, 4, seed=0), tone(), P)
        path = tmp_path / "report.json"
        rep.to_json(path)
        import json
        loaded = json.loads(path.read_text())
        assert loaded["delta_sq_rad2"] == pytest.approx(rep.delta_sq)
        assert len(loaded["per_bin_det_rad2"]) == 4


class TestReconError:
    def test_perfect_zoh_of_constant_truth_is_zero(self):
        truth = WaveformSpec.from_table(T_FIG4, [0.0, T_FIG4], [1e-6, 1e-6])
        grid = make_grid(T_FIG4, 4)
        phi = phase_truth(truth, P, T_S, np.asarray(grid.instants))
        assert recon_error_sq(phi, truth, P, T_S) == pytest.approx(0.0, abs=1e-28)

    def test_matches_det_part_for_mean_based_estimator(self):
        truth = tone(0.2e-6)
        ens = synthetic_ensemble(truth, 8, 16, seed=5)
        rep = decompose_error(ens, truth, P)
        assert recon_error_sq(reconstruct(ens), truth, P, T_S) == pytest.approx(
            rep.delta_det_sq, rel=1e-12)


class TestDeterministicCurve:
    def test_constant_truth_gives_zero(self):
        truth = WaveformSpec.from_table(T_FIG4, [0.0, T_FIG4], [1e-6, 1e-6])
        for _, d in deterministic_error_curve(truth, P, [1, 4, 16], T_S):
            assert d == pytest.approx(0.0, abs=1e-14)

    def test_first_order_slope_for_smooth_tone(self):
        curve = deterministic_error_curve(tone(1e-6), P, [4, 8, 16, 32, 64], T_S)
        slope, _, _ = fit_loglog(curve)
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_sinusoid_asymptotic_prefactor(self):
        # bin-center ZOH of Phi0 sin(.): delta_det -> Phi0 * pi / (sqrt(6) n1)
        phi0 = 0.1
        amp = phi0 / (2 * P.gamma_e * T_S)
        curve = deterministic_error_curve(WaveformSpec.harmonic(T_FIG4, amp), P,
                                          [256], T_S)
        n1, d = curve[0]
        assert d * n1 == pytest.approx(phi0 * math.pi / math.sqrt(6.0), rel=1e-3)
