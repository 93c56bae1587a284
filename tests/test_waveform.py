import bisect
import dataclasses
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
    SampleGrid,
    WaveformSpec,
    estimate_holder,
    evaluate,
    hold_error,
    integrate,
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
    knots = [(Fraction(t), Fraction(b)) for t, b in w.knots.T.tolist()]
    a, z = Fraction(t0), Fraction(t1)
    total = Fraction(0)
    for (ta, ba), (tb, bb) in zip(knots, knots[1:]):
        lo, hi = max(ta, a), min(tb, z)
        if lo < hi:
            slope = (bb - ba) / (tb - ta)
            total += (hi - lo) * (ba + slope * (lo - ta) + ba + slope * (hi - ta)) / 2
    return float(total)


def fraction_window_integrals(w, edges):
    """Exact rational integral of the table over each window between consecutive
    edges: an exact antiderivative at each edge, differenced in Fractions."""
    ts = [Fraction(t) for t in w.knots[0].tolist()]
    bs = [Fraction(b) for b in w.knots[1].tolist()]
    F = [Fraction(0)]
    for j in range(len(ts) - 1):
        F.append(F[-1] + (ts[j + 1] - ts[j]) * (bs[j] + bs[j + 1]) / 2)

    def antiderivative(e):
        j = min(bisect.bisect_right(ts, e) - 1, len(ts) - 2)
        be = bs[j] + (bs[j + 1] - bs[j]) / (ts[j + 1] - ts[j]) * (e - ts[j])
        return F[j] + (e - ts[j]) * (bs[j] + be) / 2

    Fe = [antiderivative(Fraction(e)) for e in edges]
    return [b - a for a, b in zip(Fe, Fe[1:])]


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
                         knots=((0.0, 1e-6), (0.0, 0.0)))

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            WaveformSpec.harmonic(0.0, 1e-6)

    def test_rejects_non_increasing_table(self):
        with pytest.raises(ValueError):
            WaveformSpec.from_table(1e-6, [0.0, 0.5e-6, 0.5e-6], [0, 1, 2])

    def test_knots_are_read_only_and_equality_follows_their_bytes(self):
        w = WaveformSpec.from_table(1e-6, [0.0, 0.5e-6, 1e-6], [0.0, 1e-6, 0.0])
        assert w.knots.tolist() == [[0.0, 0.5e-6, 1e-6], [0.0, 1e-6, 0.0]]
        with pytest.raises(ValueError):
            w.knots[1, 0] = 1.0
        twin = WaveformSpec.from_table(1e-6, [0.0, 0.5e-6, 1e-6], [0.0, 1e-6, 0.0])
        assert twin == w and hash(twin) == hash(w) and "knots" not in repr(w)
        moved = dataclasses.replace(w, knots=((0.0, 1e-6), (1e-6, 0.0)))
        assert moved.knots.tolist() == [[0.0, 1e-6], [1e-6, 0.0]]
        assert moved != w
        assert dataclasses.replace(w, knots=((0.0, 0.5e-6, 1e-6), (0.0, 2e-6, 0.0))) != w
        # -0.0 == 0.0, but its bits differ, so the table does too
        assert dataclasses.replace(w, knots=((0.0, 0.5e-6, 1e-6), (-0.0, 1e-6, 0.0))) != w
        assert WaveformSpec.harmonic(1e-6, 1e-6).knots is None

    def test_three_ways_of_building_a_table_agree(self, tmp_path):
        ts = np.sort(np.random.default_rng(2).uniform(0.0, 1e-6, 50))
        bs = np.random.default_rng(3).standard_normal(50) * 1e-7
        rows = zip(ts.tolist(), bs.tolist())
        (tmp_path / "t.csv").write_text("".join(f"{t!r},{b!r}\n" for t, b in rows))
        (tmp_path / "exp.yaml").write_text("waveform:\n  period: 1e-6\n  csv: t.csv\n")
        source = np.column_stack([ts, bs]).T  # a Fortran-ordered, writable view
        specs = [WaveformSpec.from_table(1e-6, ts, bs),
                 WaveformSpec(period_T=1e-6, knots=source),
                 wfsim.load_config(tmp_path / "exp.yaml").waveform]
        source[1, 0] = 1.0  # the spec holds a copy
        for w in specs:
            assert w == specs[0] and hash(w) == hash(specs[0])
            assert w.knots.flags.c_contiguous and not w.knots.flags.writeable
            assert w.knots.tobytes() == np.array([ts, bs]).tobytes()

    @pytest.mark.parametrize("knots", [
        [0.0, 1e-6], [[0.0, 1e-6]] * 3, [[[0.0, 1e-6]] * 2] * 2, ([0.0, 1e-6], [0.0]),
    ], ids=["1-d", "three-rows", "3-d", "ragged"])
    def test_rejects_knots_of_the_wrong_shape(self, knots):
        with pytest.raises(ValueError):
            WaveformSpec(period_T=1e-6, knots=knots)

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
        knots = w.knots[0].tolist()
        rng = np.random.default_rng(3)
        # windows with partial segments at both ends, inside one segment,
        # on knots, and over the whole table
        windows = [sorted(rng.uniform(0, T_FIG4, 2)) for _ in range(20)]
        windows += [(knots[2] + 1e-9, knots[2] + 2e-9), (knots[1], knots[5]), (0.0, T_FIG4)]
        for t0, t1 in windows:
            oracle = trapezoid_oracle(w, t0, t1)
            assert integrate(w, t0, t1) == pytest.approx(oracle, rel=1e-14, abs=1e-30)

    @pytest.mark.parametrize("t0, t1", [(0.4e-6, 0.6e-6), ([0.0, 0.4e-6], [0.1e-6, 0.6e-6])],
                             ids=["scalar", "array"])
    def test_tabulated_past_last_knot_raises(self, t0, t1):
        w = WaveformSpec.from_table(1e-6, [0.0, 0.5e-6], [0.0, 1e-6])
        with pytest.raises(DomainError):
            integrate(w, t0, t1)

    @pytest.mark.parametrize("w", [WaveformSpec.harmonic(T_FIG2, 1e-6), kinked_table()],
                             ids=["tone", "table"])
    def test_rejects_reversed_bounds(self, w):
        with pytest.raises(ValueError):
            integrate(w, 1e-6, 0.0)
        # any one reversed window of an array is named
        with pytest.raises(ValueError, match="t0 must be <= t1, got 3e-06 > 2e-06"):
            integrate(w, [0.0, 1e-6, 3e-6], [1e-6, 2e-6, 2e-6])

    @pytest.mark.parametrize("w", [fig4_waveform(1e-6), kinked_table()], ids=["tone", "table"])
    def test_scalar_window_gives_a_float(self, w):
        assert type(integrate(w, 1e-6, 2e-6)) is float
        assert type(integrate(w, np.float64(1e-6), np.array(2e-6))) is float
        assert integrate(w, [1e-6], [2e-6]).shape == (1,)

    def test_tone_array_equals_scalar_calls_bit_for_bit(self):
        w = fig4_waveform(1e-6)
        rng = np.random.default_rng(11)
        t0, t1 = np.sort(rng.uniform(0, T_FIG4, (2, 40)), axis=0)
        t1[:3] = t0[:3]  # zero width
        out = integrate(w, t0, t1)
        assert out.shape == (40,)
        assert out.tolist() == [integrate(w, a, b) for a, b in zip(t0.tolist(), t1.tolist())]
        # window ends broadcast: a (4, 10) stack of windows from one start
        grid = t1.reshape(4, 10)
        assert integrate(w, 0.0, grid).tolist() == \
            [[integrate(w, 0.0, b) for b in row] for row in grid.tolist()]

    def test_table_array_matches_exact_trapezoid_oracle(self):
        w = kinked_table()
        knots = w.knots[0].tolist()
        rng = np.random.default_rng(4)
        windows = [sorted(rng.uniform(0, T_FIG4, 2)) for _ in range(20)]  # overlapping
        windows += [(knots[3], knots[3]), (0.0, 0.0), (T_FIG4, T_FIG4), (2e-6, 2e-6)]  # zero width
        windows += [(knots[1], knots[5]), (knots[2], knots[3]), (0.0, knots[4])]  # ends on knots
        windows += [(knots[6] + 1e-9, T_FIG4), (0.0, T_FIG4)]  # ending at T
        t0, t1 = np.array(windows).T
        out = integrate(w, t0, t1)
        for got, (a, b) in zip(out, windows):
            assert got == pytest.approx(trapezoid_oracle(w, a, b), rel=1e-14, abs=1e-30)
        assert out[20:24].tolist() == [0.0] * 4

    @pytest.mark.parametrize("n1", [1, 3, 40, 257, 1000])
    def test_table_windows_equal_np_sum_trapezoids_bit_for_bit(self, n1):
        # a window that holds no other window's end sums its own trapezoids in
        # np.sum's order, so hold windows and centred sampling windows keep
        # the bits of a per-window np.sum
        w = kinked_table()
        ts, bs = w.knots
        edges = SampleGrid(T_FIG4, n1).edges
        mids = 0.5 * (edges[:-1] + edges[1:])
        for t0, t1 in ((edges[:-1], edges[1:]), (mids - 0.2 * edges[1], mids + 0.2 * edges[1])):
            want = []
            for a, b in zip(t0, t1):
                x = np.concatenate(([a], ts[(ts > a) & (ts < b)], [b]))
                y = np.interp(x, ts, bs)
                want.append(0.5 * np.sum(np.diff(x) * (y[:-1] + y[1:])))
            assert integrate(w, t0, t1).tolist() == want

    @pytest.mark.parametrize("n1", [1, 10, 40, 140, 1000])
    def test_random_walk_matches_fraction_oracle(self, n1):
        # the seed-5 random walk kinks at every knot.  Each hold window agrees
        # with the exact rational integral to a few ulps of max|b| times its
        # width; differencing a float antiderivative F(t1) - F(t0) would be off
        # by ulps of F, up to n1 times more
        rng = np.random.default_rng(5)
        w = WaveformSpec.from_table(T_FIG4, np.linspace(0.0, T_FIG4, 257),
                                    1e-7 * np.cumsum(rng.standard_normal(257)))
        edges = SampleGrid(T_FIG4, n1).edges
        exact = np.array([float(x) for x in fraction_window_integrals(w, edges)])
        err = np.abs(integrate(w, edges[:-1], edges[1:]) - exact)
        assert err.max() <= 4 * 2.2e-16 * np.abs(w.knots[1]).max() * (T_FIG4 / n1)

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
        g = SampleGrid(T_FIG4, 1)
        assert g.instants == (pytest.approx(4.8e-6),)

    def test_64_bins(self):
        g = SampleGrid(T_FIG4, 64)
        assert g.n1 == 64
        assert g.instants[0] == pytest.approx(75e-9)
        assert np.allclose(np.diff(g.instants), 150e-9)

    def test_8_bins_small_period(self):
        g = SampleGrid(T_FIG2, 8)
        assert g.instants[0] == pytest.approx(150e-9)
        assert np.allclose(np.diff(g.instants), 300e-9)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            SampleGrid(T_FIG4, 0)

    @pytest.mark.parametrize("T", [9.6e-6, 1e-5])
    def test_period_kept_exactly(self, T):
        # 2 n1 t_1 misses T by an ulp for e.g. n1 = 75 at 9.6 us and n1 = 5 at
        # 10 us, so the grid must keep T itself
        assert all(SampleGrid(T, n1).period_T == T for n1 in range(1, 3000))

    @pytest.mark.parametrize("T", [9.6e-6, 1e-5])
    def test_edges_run_from_zero_to_exactly_the_period(self, T):
        for n1 in range(1, 3000):
            edges = SampleGrid(T, n1).edges
            assert len(edges) == n1 + 1 and edges[0] == 0.0 and edges[-1] == T
            assert np.all(np.diff(edges) > 0)

    @pytest.mark.parametrize("n1", [1, 2, 7, 16, 64])
    def test_windows_tile_period(self, n1):
        g = SampleGrid(T_FIG4, n1)
        edges = g.edges
        assert edges[0] == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(np.diff(edges), T_FIG4 / n1)
        # each hold window is centred on its instant
        assert np.allclose(0.5 * (edges[:-1] + edges[1:]), g.instants)


class TestHoldError:
    def test_tone_over_one_window_by_hand(self):
        # int_0^T (c - A sin(2 pi t/T))^2 dt = c^2 T + A^2 T / 2
        w = WaveformSpec.harmonic(T_FIG4, 2e-6, phase=0.7)
        assert hold_error(w, [0.0])[0] == pytest.approx(2e-12 * T_FIG4, rel=1e-14)
        assert hold_error(w, [1e-6])[0] == pytest.approx(3e-12 * T_FIG4, rel=1e-14)

    def test_ramp_by_hand(self):
        # b = s t held at 0 on [0, T]: s^2 T^3 / 3; held at the midpoint of each
        # of n1 windows: (s W)^2 W / 12 per window
        w = WaveformSpec.from_table(T_FIG4, [0.0, T_FIG4], [0.0, 1e-6])
        assert hold_error(w, [0.0])[0] == pytest.approx(1e-12 * T_FIG4 / 3, rel=1e-15)
        mids = evaluate(w, np.asarray(SampleGrid(T_FIG4, 8).instants))
        np.testing.assert_allclose(hold_error(w, mids), 1e-12 * T_FIG4 / 8**3 / 12, rtol=1e-12)

    @pytest.mark.parametrize("w", [fig4_waveform(1e-6), kinked_table()], ids=["tone", "table"])
    def test_stack_keeps_its_shape_and_rows(self, w):
        held = np.random.default_rng(0).normal(0.0, 1e-6, (2, 3, 5))
        out = hold_error(w, held)
        assert out.shape == (2, 3, 5)
        for i, j in np.ndindex(2, 3):
            assert out[i, j].tolist() == hold_error(w, held[i, j]).tolist()

    def test_table_short_of_the_period_raises(self):
        w = WaveformSpec.from_table(T_FIG4, [0.0, 0.9 * T_FIG4], [0.0, 1e-6])
        with pytest.raises(DomainError):
            hold_error(w, np.zeros(4))

    def test_rejects_a_scalar(self):
        with pytest.raises(ValueError, match="last axis"):
            hold_error(fig4_waveform(), 0.0)


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

    @pytest.mark.parametrize("period", [1e-300, 1e300])
    def test_constant_is_scale_free_in_the_period(self, period):
        # M = sqrt(max h0 / (eps/T)^(2q)) with eps/T = 2^-j: at T = 1e-300 the
        # old eps^(2q) underflowed to an infinite M, at T = 1e300 it overflowed to M = 0
        want = estimate_holder(WaveformSpec.harmonic(T_FIG4, 1e-6))
        est = estimate_holder(WaveformSpec.harmonic(period, 1e-6))
        assert est.q == want.q == 1.0
        assert est.M == pytest.approx(want.M, rel=1e-13)


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
