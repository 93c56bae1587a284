import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import wfsim
from wfsim import (
    DomainError,
    WaveformSpec,
    estimate_holder,
    evaluate,
    integrate,
    make_grid,
)

T_FIG2 = 2.4e-6
T_FIG4 = 9.6e-6


def fig4_waveform(b=1.0):
    # b(t) = b [sin(2 pi t/T) + 0.5 sin(4 pi t/T) + 0.25 sin(8 pi t/T)]
    return WaveformSpec(
        period_T=T_FIG4,
        components=((b, 1, 0.0), (0.5 * b, 2, 0.0), (0.25 * b, 4, 0.0)),
    )


def kinked_table():
    # nine irregular knots spanning [0, T] with values of both signs
    rng = np.random.default_rng(7)
    ts = np.sort(np.concatenate(([0.0, T_FIG4], rng.uniform(0, T_FIG4, 7))))
    return WaveformSpec.from_table(T_FIG4, ts, rng.uniform(-1e-6, 1e-6, 9))


def trapezoid_oracle(w, t0, t1):
    """Exact rational integral of the piecewise-linear table, segment by segment."""
    knots = [(Fraction(t), Fraction(b)) for t, b in w.tabulated]
    a, z = Fraction(t0), Fraction(t1)
    total = Fraction(0)
    for (ta, ba), (tb, bb) in zip(knots, knots[1:]):
        lo, hi = max(ta, a), min(tb, z)
        if lo < hi:
            slope = (bb - ba) / (tb - ta)
            total += (hi - lo) * (ba + slope * (lo - ta) + ba + slope * (hi - ta)) / 2
    return float(total)


class TestEvaluate:
    def test_single_component_at_zero(self):
        w = WaveformSpec.harmonic(T_FIG2, 1e-6)
        assert evaluate(w, 0.0) == 0.0

    def test_multi_harmonic_quarter_period(self):
        # by hand: sin(pi/2)=1, sin(pi)=0, sin(2 pi)=0
        w = fig4_waveform()
        assert evaluate(w, T_FIG4 / 4) == pytest.approx(1.0, rel=1e-12)

    def test_tabulated_midpoint(self):
        w = WaveformSpec.from_table(1e-6, [0.0, 1e-6], [0.0, 2e-6])
        assert evaluate(w, 0.5e-6) == pytest.approx(1e-6)

    def test_tabulated_out_of_domain(self):
        w = WaveformSpec.from_table(1e-6, [0.0, 0.5e-6], [0.0, 1e-6])
        with pytest.raises(DomainError):
            evaluate(w, 0.9e-6)

    def test_parametric_is_periodic(self):
        w = fig4_waveform()
        assert evaluate(w, 0.3e-6) == pytest.approx(evaluate(w, 0.3e-6 + T_FIG4), rel=1e-9)


class TestSpecValidation:
    def test_needs_exactly_one_representation(self):
        with pytest.raises(ValueError):
            WaveformSpec(period_T=1e-6)
        with pytest.raises(ValueError):
            WaveformSpec(period_T=1e-6, components=((1e-6, 1, 0.0),),
                         tabulated=((0.0, 0.0), (1e-6, 0.0)))

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            WaveformSpec.harmonic(0.0, 1e-6)

    def test_rejects_non_increasing_table(self):
        with pytest.raises(ValueError):
            WaveformSpec.from_table(1e-6, [0.0, 0.5e-6, 0.5e-6], [0, 1, 2])

    def test_rejects_table_outside_period(self):
        with pytest.raises(ValueError):
            WaveformSpec.from_table(1e-6, [0.0, 2e-6], [0, 1])

    @pytest.mark.parametrize("make", [
        lambda: WaveformSpec.harmonic(math.inf, 1e-6),
        lambda: WaveformSpec.harmonic(1e-6, math.nan),
        lambda: WaveformSpec.harmonic(1e-6, -math.inf),
        lambda: WaveformSpec.harmonic(1e-6, 1e-6, phase=math.inf),
        lambda: WaveformSpec.from_table(1e-6, [0.0, 0.5e-6, 1e-6], [0.0, math.nan, 0.0]),
        lambda: WaveformSpec.from_table(1e-6, [0.0, math.nan], [0.0, 0.0]),
    ], ids=["period-inf", "amplitude-nan", "amplitude-minus-inf", "phase-inf", "table-nan",
            "time-nan"])
    def test_rejects_non_finite(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestIntegrate:
    def test_zero_width(self):
        w = WaveformSpec.harmonic(T_FIG2, 1e-6)
        assert integrate(w, 0.7e-6, 0.7e-6) == 0.0

    def test_full_period_sine_is_zero(self):
        w = WaveformSpec.harmonic(T_FIG2, 1e-6)
        assert integrate(w, 0.0, T_FIG2) == pytest.approx(0.0, abs=1e-25)

    def test_half_period_closed_form(self):
        # int_0^{T/2} A sin(2 pi t/T) dt = A T / pi
        w = WaveformSpec.harmonic(T_FIG2, 1e-6)
        expected = 1e-6 * T_FIG2 / math.pi
        assert integrate(w, 0.0, T_FIG2 / 2) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.639e-13, rel=1e-3)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            comps = tuple(
                (float(rng.uniform(0.1e-6, 2e-6)), int(rng.integers(1, 6)),
                 float(rng.uniform(0, 2 * math.pi)))
                for _ in range(3)
            )
            w = WaveformSpec(period_T=T_FIG4, components=comps)
            t0, t1 = sorted(rng.uniform(0, T_FIG4, size=2))
            oracle, _ = quad(lambda t: evaluate(w, t), t0, t1, epsrel=1e-12, epsabs=0)
            assert integrate(w, t0, t1) == pytest.approx(oracle, rel=1e-9, abs=1e-22)

    def test_tabulated_quadrature(self):
        ts = np.linspace(0, 1e-6, 33)
        w = WaveformSpec.from_table(1e-6, ts, 2e-6 * ts / 1e-6)
        # linear ramp: exact integral
        assert integrate(w, 0.0, 1e-6) == pytest.approx(1e-12, rel=1e-9)

    def test_tabulated_matches_exact_trapezoid_oracle(self):
        w = kinked_table()
        knots = [t for t, _ in w.tabulated]
        rng = np.random.default_rng(3)
        # windows with partial segments at both ends, inside one segment,
        # on knots, and over the whole table
        windows = [sorted(rng.uniform(0, T_FIG4, 2)) for _ in range(20)]
        windows += [(knots[2] + 1e-9, knots[2] + 2e-9), (knots[1], knots[5]), (0.0, T_FIG4)]
        for t0, t1 in windows:
            oracle = trapezoid_oracle(w, t0, t1)
            assert integrate(w, t0, t1) == pytest.approx(oracle, rel=1e-14, abs=1e-30)

    def test_tabulated_past_last_knot_raises(self):
        w = WaveformSpec.from_table(1e-6, [0.0, 0.5e-6], [0.0, 1e-6])
        with pytest.raises(DomainError):
            integrate(w, 0.4e-6, 0.6e-6)

    def test_rejects_reversed_bounds(self):
        w = WaveformSpec.harmonic(T_FIG2, 1e-6)
        with pytest.raises(ValueError):
            integrate(w, 1e-6, 0.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=T_FIG4), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, ts):
        t0, t1, t2 = sorted(ts)
        for w in (fig4_waveform(1e-6), kinked_table()):
            whole = integrate(w, t0, t2)
            split = integrate(w, t0, t1) + integrate(w, t1, t2)
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-24)


class TestMakeGrid:
    def test_single_bin(self):
        g = make_grid(T_FIG4, 1)
        assert g.instants == (pytest.approx(4.8e-6),)

    def test_64_bins(self):
        g = make_grid(T_FIG4, 64)
        assert g.n1 == 64
        assert g.instants[0] == pytest.approx(75e-9)
        assert np.allclose(np.diff(g.instants), 150e-9)

    def test_8_bins_small_period(self):
        g = make_grid(T_FIG2, 8)
        assert g.instants[0] == pytest.approx(150e-9)
        assert np.allclose(np.diff(g.instants), 300e-9)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            make_grid(T_FIG4, 0)

    @pytest.mark.parametrize("T", [9.6e-6, 1e-5])
    def test_period_kept_exactly(self, T):
        # 2 n1 t_1 misses T by an ulp for e.g. n1 = 75 at 9.6 us and n1 = 5 at
        # 10 us, so the grid must keep T itself
        assert all(make_grid(T, n1).period_T == T for n1 in range(1, 3000))

    @pytest.mark.parametrize("n1", [1, 2, 7, 16, 64])
    def test_windows_tile_period(self, n1):
        g = make_grid(T_FIG4, n1)
        edges = [t - g.window_width / 2 for t in g.instants] + [T_FIG4]
        assert edges[0] == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(np.diff(edges), T_FIG4 / n1)


class TestHolder:
    def test_smooth_sinusoid_is_first_order(self):
        w = WaveformSpec.harmonic(T_FIG4, 1e-6)
        est = estimate_holder(w)
        assert est.q == 1.0

    def test_multi_harmonic_is_first_order(self):
        est = estimate_holder(fig4_waveform(1e-6))
        assert est.q == 1.0

    def test_constant_waveform(self):
        w = WaveformSpec.from_table(1e-6, [0.0, 1e-6], [2e-6, 2e-6])
        est = estimate_holder(w)
        assert est.q == 1.0
        assert est.M == 0.0

    def test_triangle_wave(self):
        # symmetric triangle, slope magnitude 4 A / T everywhere
        T, A = 9.6e-6, 1e-6
        ts = np.linspace(0, T, 513)
        bs = A * (1 - 2 * np.abs((2 * ts / T) % 2 - 1))
        w = WaveformSpec.from_table(T, ts, bs)
        est = estimate_holder(w, n_grid=4096)
        assert est.q == 1.0
        # brute-force oracle on a 4096-point grid at the smallest eps
        eps = T / 512
        grid = np.arange(4096) * T / 4096

        def tri(t):
            t = np.mod(t, T)
            return A * (1 - 2 * np.abs((2 * t / T) % 2 - 1))

        h = np.mean(((tri(grid + eps) - tri(grid)) / eps) ** 2)
        m_oracle = T * math.sqrt(h)
        assert est.M == pytest.approx(m_oracle, rel=0.1)

    def test_rejects_bad_arguments(self):
        w = WaveformSpec.harmonic(T_FIG4, 1e-6)
        with pytest.raises(ValueError):
            estimate_holder(w, n_grid=32)


def test_runs_without_scipy():
    # scipy is a test-only dependency: the package must import and integrate without it
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from wfsim import WaveformSpec, estimate_holder, integrate\n"
        "w = WaveformSpec.from_table(1e-6, [0.0, 0.5e-6, 1e-6], [0.0, 1e-6, 0.0])\n"
        "assert abs(integrate(w, 0.25e-6, 1e-6) - 4.375e-13) < 1e-25\n"
        "assert estimate_holder(w).q == 1.0\n"
    )
    src = str(Path(wfsim.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
