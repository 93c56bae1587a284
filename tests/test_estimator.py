import bisect
import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wfsim import (
    Protocol,
    ReadoutModel,
    SampleGrid,
    SensorParams,
    WaveformSpec,
    acquire,
    decompose_error,
    deterministic_error_curve,
    evaluate,
    fit_loglog,
    hold_error,
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
    grid = SampleGrid(truth.period_T, n1)
    rng = np.random.default_rng(seed)
    phi = phase_truth(truth, P, T_S, np.asarray(grid.instants))
    est = phi[:, None] + noise * rng.standard_normal((n1, n2))
    return PhaseEnsemble(n1=n1, n2=n2, estimates=est, grid=grid, t_s=T_S,
                         protocol="ramsey-sql")


class TestReconstruction:
    def test_mean_over_columns(self):
        grid = SampleGrid(T_FIG4, 2)
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
        grid = SampleGrid(T_FIG4, 1)
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
        grid = SampleGrid(T_FIG4, 1)
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

    @pytest.mark.parametrize("protocol, n2, gain", [("ramsey-sql", 3, 0.5), ("tdqd", 6, 6),
                                                    ("pdd-tdqd", 8, 8)])
    def test_estimates_beyond_pi_over_gain_rejected_before_squaring(self, protocol, n2, gain):
        # no atan2 estimate exceeds pi/gain; 1e200 used to overflow the square
        # of est - phi_bar with a RuntimeWarning before the hold-error check
        grid, phi_max = SampleGrid(T_FIG4, 2), math.pi / gain
        edge = PhaseEnsemble(n1=2, n2=n2, estimates=[[phi_max, -phi_max, 0.0]] * 2, grid=grid,
                             t_s=T_S, protocol=protocol)
        decompose_error(edge, tone(), P)
        for bad in (1e200, -1e200, float(np.nextafter(phi_max, np.inf))):
            est = np.zeros((2, 3))
            est[1, 2] = bad
            ens = PhaseEnsemble(n1=2, n2=n2, estimates=est, grid=grid, t_s=T_S,
                                protocol=protocol)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"^estimate {re.escape(repr(bad))} in bin "
                                                     r"2, column 3 is outside \[-pi/gain"):
                    decompose_error(ens, tone(), P)

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
        grid = SampleGrid(T_FIG4, 4)
        phi = phase_truth(truth, P, T_S, np.asarray(grid.instants))
        assert recon_error_sq(phi, truth, P, T_S) == pytest.approx(0.0, abs=1e-28)

    def test_matches_det_part_for_mean_based_estimator(self):
        truth = tone(0.2e-6)
        ens = synthetic_ensemble(truth, 8, 16, seed=5)
        rep = decompose_error(ens, truth, P)
        assert recon_error_sq(reconstruct(ens), truth, P, T_S) == pytest.approx(
            rep.delta_det_sq, rel=1e-12)

    @pytest.mark.parametrize("truth", [
        tone(0.2e-6),
        WaveformSpec.from_table(T_FIG4, [0.0, 3e-6, T_FIG4], [0.0, 1e-6, -2e-7]),
    ])
    @pytest.mark.parametrize("rows, n1", [(1, 1), (1, 7), (9, 7), (30, 43)])
    def test_stacked_rows_equal_per_row_calls(self, truth, rows, n1):
        phi_bars = np.random.default_rng(n1).normal(0.0, 0.05, (rows, n1))
        stacked = recon_error_sq(phi_bars, truth, P, T_S)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (rows,)
        per_row = [recon_error_sq(row, truth, P, T_S) for row in phi_bars]
        assert all(type(e) is float for e in per_row)
        assert stacked.tolist() == per_row

    def test_stack_is_scored_in_one_hold_error_call(self, monkeypatch):
        import wfsim.estimator as estimator
        import wfsim.waveform as waveform

        calls = []
        hold_error = estimator.hold_error
        monkeypatch.setattr(estimator, "hold_error",
                            lambda w, held: calls.append(np.shape(held)) or hold_error(w, held))
        monkeypatch.setattr(waveform, "evaluate", None)
        monkeypatch.setattr(estimator, "evaluate", None)
        recon_error_sq(np.zeros((50, 6)), tone(), P, T_S)
        assert calls == [(50, 6)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected(self, bad):
        phi_bars = np.zeros((4, 5))
        phi_bars[2, 3] = bad
        with pytest.raises(ValueError, match=rf"not finite in row 2, bin 3: {bad!r}"):
            recon_error_sq(phi_bars, tone(), P, T_S)
        with pytest.raises(ValueError, match=r"not finite in row 0, bin 3"):
            recon_error_sq(phi_bars[2], tone(), P, T_S)

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="phi_bar must be"):
            recon_error_sq(np.zeros(shape), tone(), P, T_S)

    @pytest.mark.parametrize("gamma_e, t_s", [(1e-300, T_S), (P.gamma_e, 1e-300),
                                              (1e-300, 1e-300), (1e300, T_S)],
                             ids=["gamma_e", "t_s", "both", "huge-gamma_e"])
    def test_overflow_in_tesla_units_raises(self, gamma_e, t_s):
        # the windows are integrated in tesla: phi / (2 gamma_e t_s) squared used
        # to overflow into a nan score after numpy RuntimeWarnings, and the
        # rescale (2 gamma_e t_s)^2 at a huge gamma_e raised OverflowError
        p = dataclasses.replace(P, gamma_e=gamma_e)
        with pytest.raises(ValueError, match="hold error, integrated in tesla, is not finite"):
            recon_error_sq(np.full((3, 4), 0.01), tone(), p, t_s)
        ens = synthetic_ensemble(tone(), 4, 3, seed=1)
        with pytest.raises(ValueError, match="not finite"):
            decompose_error(dataclasses.replace(ens, t_s=t_s), tone(), p)


def random_walk_table():
    # 257 uniform knots carrying a Gaussian random walk: a kink at every knot
    rng = np.random.default_rng(5)
    return WaveformSpec.from_table(T_FIG4, np.linspace(0.0, T_FIG4, 257),
                                   1e-7 * np.cumsum(rng.standard_normal(257)))


def fraction_hold_error(w, held):
    """Exact rational integral of (held_i - b(t))^2 dt over each window between
    the float edges i*T/n1, segment by segment of the piecewise-linear table."""
    knots = [(Fraction(t), Fraction(b)) for t, b in w.knots.T.tolist()]
    times = [t for t, _ in knots]
    edges = [Fraction(e) for e in SampleGrid(w.period_T, len(held)).edges]
    out = []
    for a, z, c in zip(edges, edges[1:], map(Fraction, held)):
        total = Fraction(0)
        for j in range(max(bisect.bisect_right(times, a) - 1, 0), len(knots) - 1):
            (ta, ba), (tb, bb) = knots[j], knots[j + 1]
            if ta >= z:
                break
            lo, hi = max(ta, a), min(tb, z)
            slope = (bb - ba) / (tb - ta)
            u0, u1 = ba + slope * (lo - ta) - c, ba + slope * (hi - ta) - c
            total += (hi - lo) * (u0 * u0 + u0 * u1 + u1 * u1) / 3
        out.append(total)
    return out


def gauss_legendre_hold_error(w, held):
    """(held_i - b(t))^2 integrated by a 64-point Gauss-Legendre rule per window,
    exact up to rounding for a tone of a few harmonics."""
    xs, ws = np.polynomial.legendre.leggauss(64)
    edges = SampleGrid(w.period_T, held.shape[-1]).edges
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (1.0 + xs)
    return np.sum(half * ws * (held[..., None] - evaluate(w, nodes)) ** 2, axis=-1)


def held_near_truth(w, n1, spread):
    """Bin-centre truth values in tesla, plus Gaussian scatter of the given size."""
    instants = np.asarray(SampleGrid(w.period_T, n1).instants)
    return evaluate(w, instants) + spread * np.random.default_rng(n1).standard_normal(n1)


class TestExactScoring:
    SCALE = (2.0 * P.gamma_e * T_S) ** 2 / T_FIG4

    @pytest.mark.parametrize("n1", [1, 10, 40, 140, 1000])
    @pytest.mark.parametrize("spread", [0.0, 1e-9])
    def test_table_matches_fraction_oracle(self, n1, spread):
        w = random_walk_table()
        phi_bar = -2.0 * P.gamma_e * T_S * held_near_truth(w, n1, spread)
        held = phase_to_tesla(phi_bar, P, T_S)
        oracle = fraction_hold_error(w, held)
        # a window whose error is tiny loses digits to the rounding of b at its
        # edges, so each window may also be off by 1e-13 of the mean window
        per_window = np.array([float(x) for x in oracle])
        np.testing.assert_allclose(hold_error(w, held), per_window,
                                   rtol=1e-12, atol=1e-13 * per_window.mean())
        total = float(Fraction(self.SCALE) * sum(oracle))
        assert recon_error_sq(phi_bar, w, P, T_S) == pytest.approx(total, rel=1e-13)

    @pytest.mark.parametrize("n1", [1, 3, 10, 64, 256])
    @pytest.mark.parametrize("spread", [0.0, 1e-8, 1e-6])
    def test_tone_matches_gauss_legendre(self, n1, spread):
        # two components share harmonic index 2, so both same-index product
        # terms (the pair and each component with itself) take part
        w = WaveformSpec(period_T=T_FIG4, components=(
            (1e-6, 1, 0.3), (0.5e-6, 2, 1.1), (0.3e-6, 2, -0.4), (0.25e-6, 4, 2.0)))
        phi_bar = -2.0 * P.gamma_e * T_S * held_near_truth(w, n1, spread)
        held = phase_to_tesla(phi_bar, P, T_S)
        reference = gauss_legendre_hold_error(w, held)
        total = self.SCALE * reference.sum()
        assert recon_error_sq(phi_bar, w, P, T_S) == pytest.approx(total, rel=1e-12)
        np.testing.assert_allclose(hold_error(w, held), reference,
                                   rtol=1e-12, atol=1e-13 * reference.mean())


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
