import math

import numpy as np
import pytest
from scipy.integrate import quad

from wfsim import (
    GAMMA_E_DEFAULT,
    Protocol,
    ProtocolConfig,
    SensorParams,
    WaveformSpec,
    envelope,
    envelope_pdd,
    envelope_ramsey,
    envelope_tdqd,
    evaluate,
    phase_approx,
    phase_exact,
    sensitivity,
    sensitivity_curve,
    signal,
)

T_FIG2 = 2.4e-6
P = SensorParams()


def tone(amplitude=1e-6, T=T_FIG2):
    return WaveformSpec.harmonic(T, amplitude)


class TestSensorParams:
    def test_defaults(self):
        assert P.gamma_e == pytest.approx(2 * math.pi * 28.024e9)
        assert P.T2_star == 5.2e-6
        assert P.T2 == 0.66e-3
        assert P.contrast_C == 0.25

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SensorParams(T2=0.0)
        with pytest.raises(ValueError):
            SensorParams(contrast_C=-0.1)
        with pytest.raises(ValueError):
            SensorParams(contrast_C=1.5)

    def test_pi_pulse_consistency_warning(self):
        with pytest.warns(UserWarning):
            SensorParams(t_pi=200e-9)

    def test_without_decoherence(self):
        q = P.without_decoherence()
        assert math.isinf(q.T2) and math.isinf(q.T2_star)
        assert q.gamma_e == P.gamma_e


class TestProtocolConfig:
    def test_n2_accounting(self):
        c = ProtocolConfig(Protocol.PDD_TDQD, k=8, t_s=300e-9, T=T_FIG2, t_i=0.0)
        assert c.n2 == 16
        c = ProtocolConfig(Protocol.RAMSEY_SQL, k=1, t_s=300e-9, T=T_FIG2, t_i=0.0)
        assert c.n2 == 1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ProtocolConfig(Protocol.TDQD, k=0, t_s=300e-9, T=T_FIG2, t_i=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(Protocol.TDQD, k=1, t_s=3e-6, T=T_FIG2, t_i=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(Protocol.TDQD, k=1, t_s=300e-9, T=T_FIG2, t_i=2.3e-6)


class TestPhase:
    def test_zero_field(self):
        w = WaveformSpec.from_table(T_FIG2, [0.0, T_FIG2], [0.0, 0.0])
        assert phase_exact(w, P, 0.1e-6, 300e-9) == 0.0
        assert phase_approx(w, P, 0.1e-6, 300e-9) == 0.0

    def test_constant_field_exact(self):
        b0 = 1e-6
        w = WaveformSpec.from_table(T_FIG2, [0.0, T_FIG2], [b0, b0])
        t_s = 300e-9
        expected = -2.0 * GAMMA_E_DEFAULT * b0 * t_s
        assert phase_exact(w, P, 0.5e-6, t_s) == pytest.approx(expected, rel=1e-9)
        # approx and exact agree exactly for a constant field
        assert phase_approx(w, P, 0.5e-6, t_s) == pytest.approx(expected, rel=1e-12)

    def test_sinusoid_matches_quadrature_oracle(self):
        w = tone(2e-6)
        t_i, t_s = 0.45e-6, 300e-9
        oracle, _ = quad(lambda t: evaluate(w, t), t_i, t_i + t_s, epsrel=1e-12)
        assert phase_exact(w, P, t_i, t_s) == pytest.approx(
            -2 * P.gamma_e * oracle, rel=1e-10)

    def test_window_must_fit_period(self):
        with pytest.raises(ValueError):
            phase_exact(tone(), P, 2.3e-6, 300e-9)

    def test_approx_error_second_order(self):
        # phase_approx uses the left-edge value; the window-shift error is
        # first-order in t_s times an O(t_s) derivative term => O(t_s^2)
        w = tone(1e-6)
        t_i = 0.2e-6
        errs = []
        for t_s in (T_FIG2 / 64, T_FIG2 / 128, T_FIG2 / 256):
            errs.append(abs(phase_approx(w, P, t_i, t_s) - phase_exact(w, P, t_i, t_s)))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert r == pytest.approx(4.0, rel=0.1)


class TestEnvelopes:
    def test_tdqd_hand_value_k8(self):
        # exp[-(2k t_s/T2*)^2] exp[-(2k T/T2)^2] at k=8, t_s=300 ns, T=2.4 us
        expected = math.exp(-((4.8e-6 / 5.2e-6) ** 2)) * math.exp(-((38.4e-6 / 660e-6) ** 2))
        got = envelope_tdqd(P, 8, 300e-9, T_FIG2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.4247, rel=1e-3)

    def test_pdd_hand_value_k8(self):
        expected = math.exp(-((43.2e-6 / 660e-6) ** 2))
        got = envelope_pdd(P, 8, 300e-9, T_FIG2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.99572, rel=1e-4)

    def test_pdd_hand_value_k64(self):
        got = envelope_pdd(P, 64, 300e-9, T_FIG2)
        assert got == pytest.approx(math.exp(-((345.6e-6 / 660e-6) ** 2)), rel=1e-12)
        assert got == pytest.approx(0.7603, rel=1e-3)

    def test_ramsey_hand_value(self):
        assert envelope_ramsey(P, 300e-9) == pytest.approx(
            math.exp(-((0.3 / 5.2) ** 2)), rel=1e-12)

    def test_unity_at_k_zero(self):
        assert envelope_tdqd(P, 0, 300e-9, T_FIG2) == 1.0
        assert envelope_pdd(P, 0, 300e-9, T_FIG2) == 1.0

    def test_monotone_nonincreasing_in_k(self):
        ks = range(0, 129)
        tdqd = [envelope_tdqd(P, k, 300e-9, T_FIG2) for k in ks]
        pdd = [envelope_pdd(P, k, 300e-9, T_FIG2) for k in ks]
        assert all(a >= b for a, b in zip(tdqd, tdqd[1:]))
        assert all(a >= b for a, b in zip(pdd, pdd[1:]))

    def test_envelope_picks_each_protocols_formula(self):
        # one Ramsey window decays with t_s alone; k and T count only for the passes
        assert envelope(Protocol.RAMSEY_SQL, P, 8, 300e-9, T_FIG2) == envelope_ramsey(P, 300e-9)
        assert envelope(Protocol.TDQD, P, 8, 300e-9, T_FIG2) == envelope_tdqd(P, 8, 300e-9, T_FIG2)
        assert envelope(Protocol.PDD_TDQD, P, 8, 300e-9, T_FIG2) == \
            envelope_pdd(P, 8, 300e-9, T_FIG2)

    def test_formulas_keep_their_bits(self):
        # the same ratio ** 2 expressions as the docstrings, bit for bit
        for k in (1, 7, 64, 1000):
            for t_s, T in ((150e-9, 9.6e-6), (300e-9, T_FIG2), (1.7e-7, 3.3e-5)):
                assert envelope_tdqd(P, k, t_s, T) == \
                    math.exp(-((2 * k * t_s / P.T2_star) ** 2)) * math.exp(-((2 * k * T / P.T2) ** 2))
                assert envelope_pdd(P, k, t_s, T) == math.exp(-((2 * k * (T + t_s) / P.T2) ** 2))
            assert envelope_ramsey(P, k * 1e-9) == math.exp(-((k * 1e-9 / P.T2_star) ** 2))

    def test_saturate_to_zero_where_the_square_overflows(self):
        # (2k T / T2)^2 overflows a double here; the envelope has decayed to 0
        short = SensorParams(T2_star=1e-300, T2=1e-300)
        assert envelope_tdqd(short, 1, 300e-9, T_FIG2) == 0.0
        assert envelope_pdd(short, 1, 300e-9, T_FIG2) == 0.0
        assert envelope_ramsey(short, 300e-9) == 0.0
        assert envelope_pdd(P, 1, 300e-9, 1e300) == 0.0

    def test_pdd_beats_tdqd_for_all_k(self):
        for k in range(1, 129):
            assert envelope_pdd(P, k, 300e-9, T_FIG2) > envelope_tdqd(P, k, 300e-9, T_FIG2)


class TestSignal:
    def cfg(self, kind, k=1, t_i=0.45e-6, t_s=300e-9):
        return ProtocolConfig(kind, k=k, t_s=t_s, T=T_FIG2, t_i=t_i)

    def test_zero_field_quadratures(self):
        w = WaveformSpec.from_table(T_FIG2, [0.0, T_FIG2], [0.0, 0.0])
        c = self.cfg(Protocol.TDQD, k=4)
        env = envelope_tdqd(P, 4, c.t_s, T_FIG2)
        # zero phase: sin quadrature 0, cos quadrature = envelope
        assert signal(w, P, c, "X") == pytest.approx(0.0, abs=1e-15)
        assert signal(w, P, c, "Y") == pytest.approx(env, rel=1e-12)

    def test_quadrature_sum_equals_envelope(self):
        w = tone(2e-6)
        for kind, env_fn in ((Protocol.TDQD, envelope_tdqd), (Protocol.PDD_TDQD, envelope_pdd)):
            c = self.cfg(kind, k=6)
            env = env_fn(P, 6, c.t_s, T_FIG2)
            x, y = signal(w, P, c, "X"), signal(w, P, c, "Y")
            assert x**2 + y**2 == pytest.approx(env**2, rel=1e-12)

    def test_small_signal_linear_in_amplitude(self):
        c = self.cfg(Protocol.PDD_TDQD, k=1)
        s1 = signal(tone(1e-9), P, c, "Y")
        s2 = signal(tone(2e-9), P, c, "Y")
        assert s2 / s1 == pytest.approx(2.0, rel=1e-4)

    def test_total_phase_linear_in_k(self):
        # noiseless accumulated phase Phi(k) = 2 k phi: exactly linear
        w = tone(0.5e-9)  # small so |Phi| < pi even at k = 64
        phi = phase_exact(w, P, 0.45e-6, 300e-9)
        p_inf = P.without_decoherence()
        for k in (1, 2, 7, 32, 64):
            c = self.cfg(Protocol.PDD_TDQD, k=k)
            big_phi = math.atan2(signal(w, p_inf, c, "Y"), signal(w, p_inf, c, "X"))
            assert big_phi == pytest.approx(2 * k * phi, rel=1e-12)

    def test_rejects_bad_quadrature(self):
        with pytest.raises(ValueError):
            signal(tone(), P, self.cfg(Protocol.TDQD), "Z")


class TestSensitivity:
    def test_halves_with_doubled_k_without_decoherence(self):
        # eta ~ sqrt(t_cycle)/(env * 2k ...): without decay, doubling k
        # gains 2x in slope but sqrt(2)x in time => sqrt(2) improvement
        p_inf = P.without_decoherence()
        e1 = sensitivity(p_inf, ProtocolConfig(Protocol.PDD_TDQD, 8, 300e-9, T_FIG2, 0.0),
                         sigma_read=1.0)
        e2 = sensitivity(p_inf, ProtocolConfig(Protocol.PDD_TDQD, 16, 300e-9, T_FIG2, 0.0),
                         sigma_read=1.0)
        assert e1 / e2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_pdd_interior_optimum_near_k64(self):
        ks, etas = sensitivity_curve(P, Protocol.PDD_TDQD, range(1, 129), 300e-9, T_FIG2)
        i = int(np.argmin(etas))
        assert 0 < i < len(ks) - 1  # interior optimum
        assert 32 <= ks[i] <= 128

    def test_tdqd_optimum_is_earlier_and_worse(self):
        ks_t, etas_t = sensitivity_curve(P, Protocol.TDQD, range(1, 129), 300e-9, T_FIG2)
        ks_p, etas_p = sensitivity_curve(P, Protocol.PDD_TDQD, range(1, 129), 300e-9, T_FIG2)
        assert ks_t[np.argmin(etas_t)] < ks_p[np.argmin(etas_p)]
        assert np.min(etas_p) < np.min(etas_t)

    def test_optimum_ratio_closed_form(self):
        # acceptance criterion 8's ratio.  With envelope exp(-4 a k^2) and
        # t_cycle ~ k, eta ~ exp(4 a k^2) / sqrt(k) is least at k^2 = 1/(16 a),
        # so the ratio of the optima is (a_tdqd / a_pdd)^(1/4) for any readout
        # noise; the integer grid of k adds the last few 1e-3
        t_s, T = 300e-9, T_FIG2
        a_tdqd = (t_s / P.T2_star) ** 2 + (T / P.T2) ** 2
        a_pdd = ((T + t_s) / P.T2) ** 2
        closed = (a_tdqd / a_pdd) ** 0.25
        assert closed == pytest.approx(3.759, abs=1e-3)
        ratios = []
        for sigma_read in (None, 1.0):
            _, etas_t = sensitivity_curve(P, Protocol.TDQD, range(1, 129), t_s, T,
                                          sigma_read=sigma_read)
            _, etas_p = sensitivity_curve(P, Protocol.PDD_TDQD, range(1, 129), t_s, T,
                                          sigma_read=sigma_read)
            ratios.append(np.min(etas_t) / np.min(etas_p))
        assert ratios[0] == pytest.approx(closed, rel=5e-3)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)

    def test_decohered_limit_is_infinite(self):
        c = ProtocolConfig(Protocol.TDQD, 10_000, 300e-9, T_FIG2, 0.0)
        assert math.isinf(sensitivity(P, c, sigma_read=1.0))

    def test_closed_form_value(self):
        c = ProtocolConfig(Protocol.PDD_TDQD, 4, 300e-9, T_FIG2, 0.0)
        env = envelope_pdd(P, 4, 300e-9, T_FIG2)
        dsdb = env * 8 * 2 * P.gamma_e * 300e-9 * P.contrast_C
        expected = (1.0 / dsdb) * math.sqrt(8 * (T_FIG2 + 300e-9))
        assert sensitivity(P, c, sigma_read=1.0) == pytest.approx(expected, rel=1e-12)

    def test_ramsey_closed_form_value(self):
        # one Ramsey pass accumulates half the differential phase: gain 1/2,
        # one resource per cycle
        c = ProtocolConfig(Protocol.RAMSEY_SQL, 1, 300e-9, T_FIG2, 0.0)
        dsdb = envelope_ramsey(P, 300e-9) * 0.5 * 2 * P.gamma_e * 300e-9 * P.contrast_C
        expected = (1.0 / dsdb) * math.sqrt(T_FIG2 + 300e-9)
        assert sensitivity(P, c, sigma_read=1.0) == pytest.approx(expected, rel=1e-12)
