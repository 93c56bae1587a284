import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wfsim import (
    DecoheredSignalError,
    PhaseEnsemble,
    Protocol,
    ReadoutModel,
    SensorParams,
    WaveformSpec,
    WfsimError,
    acquire,
    make_grid,
    phase_exact,
    photon_shot_noise,
    read_ensemble_csv,
    with_seed,
    write_ensemble_csv,
)
from wfsim.measurement import (
    DEFAULT_PHOTONS_PER_SHOT,
    SHOTS_REF,
    _noisy_signal,
    quadrature_noise_std,
)

T_FIG2 = 2.4e-6
T_FIG4 = 9.6e-6
P = SensorParams()
P_INF = P.without_decoherence()


def tone(amplitude=1e-6, T=T_FIG4):
    return WaveformSpec.harmonic(T, amplitude)


class TestReadoutModel:
    def test_defaults(self):
        m = ReadoutModel()
        assert m.shots_R == 2_000_000
        assert m.noise_mode == "gaussian"
        assert m.sigma_ref == 0.0555
        # photons_per_shot chosen so C * sqrt(shots * photons) = 50
        assert m.photons_per_shot_bright == DEFAULT_PHOTONS_PER_SHOT
        snr = P.contrast_C * math.sqrt(m.shots_R * DEFAULT_PHOTONS_PER_SHOT)
        assert snr == pytest.approx(50.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutModel(shots_R=0)
        with pytest.raises(ValueError):
            ReadoutModel(noise_mode="bogus")
        with pytest.raises(ValueError):
            ReadoutModel(sigma_ref=0.0)

    def test_photon_shot_noise_value(self):
        # sqrt((1 - C/2)/mean_photons) with mean = 1 shot * 0.02 photons
        m = ReadoutModel()
        expected = math.sqrt((1 - 0.125) / 0.02)
        assert photon_shot_noise(m, P) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_sigma_scales_with_shots(self):
        m4 = ReadoutModel(shots_R=4 * SHOTS_REF)
        assert quadrature_noise_std(m4, P) == pytest.approx(0.0555 / 2, rel=1e-12)

    def test_none_mode_is_noiseless(self):
        m = ReadoutModel(noise_mode="none")
        assert quadrature_noise_std(m, P) == 0.0
        assert _noisy_signal(0.37, m, P, np.random.default_rng(0)) == 0.37


class TestSimulateReadout:
    """The noisy readout of signal values that every acquisition draws."""

    @pytest.mark.parametrize("mode", ["gaussian", "poisson"])
    def test_unbiased_with_correct_variance(self, mode):
        m = ReadoutModel(noise_mode=mode, seed=7)
        rng = np.random.default_rng(7)
        s_true = 0.3
        draws = _noisy_signal(np.full(4000, s_true), m, P, rng)
        sigma = quadrature_noise_std(m, P)
        assert draws.mean() == pytest.approx(s_true, abs=4 * sigma / math.sqrt(4000))
        assert draws.std(ddof=1) == pytest.approx(sigma, rel=0.1)

    def test_poisson_snr_matches_reference(self):
        # C / sigma at the default shots equals the quoted SNR of 50
        m = ReadoutModel(noise_mode="poisson")
        snr = P.contrast_C * math.sqrt(m.shots_R * m.photons_per_shot_bright)
        assert snr == pytest.approx(50.0, rel=1e-9)


class TestEstimatePhase:
    """Estimates of the one window [t_i, t_i + t_s] = [450 ns, 750 ns] of T_FIG2,
    acquired as n1 = 1 ensembles centred on t_i + t_s/2."""

    T_I, T_S = 450e-9, 300e-9

    def estimates(self, w, p, m, kind=Protocol.PDD_TDQD, k=15, n=1):
        """n estimates: n single-shot columns for ramsey-sql, else n k-pass batches."""
        n2, n_batches = (n, 1) if kind is Protocol.RAMSEY_SQL else (2 * k, n)
        return acquire(kind, w, p, m, 1, n2, self.T_S, n_batches=n_batches,
                       t_i=self.T_I + self.T_S / 2)

    def truth(self, w):
        return phase_exact(w, P_INF, self.T_I, self.T_S)

    @pytest.mark.parametrize("kind", list(Protocol), ids=lambda k: k.value)
    def test_noiseless_recovers_exact_phase(self, kind):
        # every protocol reports the differential convention of phase_exact
        w = WaveformSpec.harmonic(T_FIG2, 0.3e-9)
        ens = self.estimates(w, P_INF, ReadoutModel(noise_mode="none"), kind)
        assert ens.estimates[0, 0] == pytest.approx(self.truth(w), rel=1e-10)
        assert ens.n2 == (1 if kind is Protocol.RAMSEY_SQL else 30)

    @pytest.mark.parametrize("mode", ["gaussian", "poisson"])
    def test_ramsey_std_err_matches_spread(self, mode):
        # one pass accumulates half the differential phase, so the estimate
        # doubles the quadrature noise; gaussian noise is halved to keep the
        # per-resource calibration at sigma_ref
        w = WaveformSpec.harmonic(T_FIG2, 0.3e-9)
        m = ReadoutModel(noise_mode=mode, seed=5)
        ens = self.estimates(w, P_INF, m, Protocol.RAMSEY_SQL, n=2000)
        std_err = (0.5 if mode == "gaussian" else 1.0) * quadrature_noise_std(m, P) / 0.5
        assert ens.estimates.std(ddof=1) == pytest.approx(std_err, rel=0.1)

    def test_zero_field_zero_phase(self):
        w = WaveformSpec.from_table(T_FIG2, [0.0, T_FIG2], [0.0, 0.0])
        ens = self.estimates(w, P_INF, ReadoutModel(noise_mode="none"))
        assert ens.estimates[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_std_err_shrinks_with_k(self):
        # a k-pass estimate accumulates 2k times the phase for the same readout noise
        w = WaveformSpec.harmonic(T_FIG2, 0.1e-9)
        m = ReadoutModel()
        s1, s8 = (self.estimates(w, P_INF, m, k=k, n=4000).estimates.std(ddof=1)
                  for k in (1, 8))
        assert s1 == pytest.approx(quadrature_noise_std(m, P) / 2, rel=0.05)
        assert s8 == pytest.approx(s1 / 8, rel=0.05)

    def test_coverage(self):
        w = WaveformSpec.harmonic(T_FIG2, 0.3e-9)
        m = ReadoutModel()
        ens = self.estimates(w, P_INF, m, k=4, n=300)
        std_err = quadrature_noise_std(m, P) / (2 * 4)
        hits = np.sum(np.abs(ens.estimates - self.truth(w)) < 3 * std_err)
        assert hits >= 290  # ~99.7% nominal

    def test_fully_decohered_raises(self):
        w = WaveformSpec.harmonic(T_FIG2, 0.1e-9)
        with pytest.raises(DecoheredSignalError):
            self.estimates(w, P, ReadoutModel(noise_mode="none"), Protocol.TDQD, k=5000)

    def test_dynamic_range_wraps_beyond_branch(self):
        # |Phi| > pi: the atan2 estimate would jump to the wrong branch, so
        # acquisition refuses it
        w = WaveformSpec.harmonic(T_FIG2, 1e-6)
        truth = self.truth(w)
        assert abs(2 * 32 * truth) > math.pi
        with pytest.raises(WfsimError, match="atan2 branch"):
            self.estimates(w, P_INF, ReadoutModel(noise_mode="none"), k=32)


class TestEnsembles:
    def test_sql_shape_and_resources(self):
        ens = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(), n1=8, n2=12, t_s=150e-9)
        assert ens.estimates.shape == (8, 12)
        assert ens.resources_total == 96
        assert not ens.collapsed

    def test_hql_shape_and_resources(self):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), n1=8, n2=12,
                      t_s=150e-9, n_batches=3)
        assert ens.estimates.shape == (8, 3)
        assert ens.collapsed
        assert ens.resources_total == 8 * 12 * 3

    def test_sql_rejects_overfull_period(self):
        with pytest.raises(ValueError):
            acquire(Protocol.RAMSEY_SQL, tone(T=1e-6), P, ReadoutModel(), n1=8, n2=2, t_s=150e-9)

    def test_hql_rejects_odd_n2(self):
        with pytest.raises(ValueError):
            acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), n1=4, n2=3, t_s=150e-9)

    def test_hql_decohered_k_raises(self):
        with pytest.raises(DecoheredSignalError):
            acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), n1=4, n2=2000, t_s=150e-9)

    def test_noiseless_sql_equals_window_mean_phase(self):
        w = tone(0.2e-9)
        ens = acquire(Protocol.RAMSEY_SQL, w, P_INF, ReadoutModel(noise_mode="none"),
                      n1=4, n2=3, t_s=150e-9)
        for i, t_i in enumerate(ens.grid.instants):
            expected = phase_exact(w, P_INF, t_i - 75e-9, 150e-9)
            assert ens.estimates[i] == pytest.approx(expected, rel=1e-10)

    def test_noiseless_hql_equals_window_mean_phase(self):
        w = tone(0.2e-9)
        ens = acquire(Protocol.PDD_TDQD, w, P_INF, ReadoutModel(noise_mode="none"),
                      n1=4, n2=8, t_s=150e-9)
        for i, t_i in enumerate(ens.grid.instants):
            expected = phase_exact(w, P_INF, t_i - 75e-9, 150e-9)
            assert ens.estimates[i] == pytest.approx(expected, rel=1e-10)

    def test_noiseless_tdqd_equals_window_mean_phase(self):
        # tdqd reads sin on X; the estimate is the same differential phase
        w = tone(0.2e-9)
        ens = acquire(Protocol.TDQD, w, P_INF, ReadoutModel(noise_mode="none"),
                      n1=4, n2=8, t_s=150e-9, n_batches=2)
        assert ens.collapsed and ens.meta["k"] == 4 and ens.estimates.shape == (4, 2)
        for i, t_i in enumerate(ens.grid.instants):
            expected = phase_exact(w, P_INF, t_i - 75e-9, 150e-9)
            assert ens.estimates[i] == pytest.approx(expected, rel=1e-10)

    def test_tdqd_decoheres_before_pdd(self):
        # at t_s = 150 ns the tdqd envelope is e^-3.8 at k = 30 and e^-42, below the
        # floor, at k = 100, where the decoupled envelope is still e^-8.7; the
        # pdd-tdqd tone is 0.1 uT, as at 1 uT its accumulated phase (7.47 rad)
        # would leave the atan2 branch
        with pytest.raises(DecoheredSignalError):
            acquire(Protocol.TDQD, tone(), P, ReadoutModel(), n1=4, n2=200, t_s=150e-9)
        acquire(Protocol.PDD_TDQD, tone(0.1e-6), P, ReadoutModel(), n1=4, n2=200, t_s=150e-9)

    def test_kind_given_by_value(self):
        a = acquire("ramsey-sql", tone(), P, ReadoutModel(seed=5), 4, 3, 150e-9)
        b = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(seed=5), 4, 3, 150e-9)
        assert a.protocol == "ramsey-sql" and np.array_equal(a.estimates, b.estimates)
        with pytest.raises(ValueError):
            acquire("bogus", tone(), P, ReadoutModel(), 4, 3, 150e-9)

    def test_ramsey_rejects_batches(self):
        # ramsey-sql repeats through its n2 single-shot columns
        with pytest.raises(ValueError, match="n_batches"):
            acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(), 4, 3, 150e-9, n_batches=2)

    @pytest.mark.parametrize("t_s", [0.0, -1e-9, T_FIG4 - 50e-9])
    def test_window_must_fit_the_period(self, t_s):
        # t_s + 2 t_pi must fit within T for every protocol
        with pytest.raises(ValueError, match="t_s"):
            acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), 1, 2, t_s)

    def test_t_i_needs_one_bin(self):
        with pytest.raises(ValueError, match="n1"):
            acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), 2, 2, 150e-9, t_i=4.8e-6)

    @pytest.mark.parametrize("t_i", [1.0, 50e-9, T_FIG4 - 50e-9, -4.8e-6])
    def test_t_i_window_outside_period_raises(self, t_i):
        # the window [t_i - t_s/2, t_i + t_s/2] must lie inside [0, T]
        with pytest.raises(ValueError, match="window"):
            acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), 1, 2, 150e-9, t_i=t_i)

    def test_t_i_window_may_touch_the_period_ends(self):
        for t_i in (75e-9, T_FIG4 - 75e-9):
            ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(), 1, 2, 150e-9, t_i=t_i)
            assert ens.meta["t_i"] == t_i

    def test_single_instant_matches_one_bin_ensemble(self):
        # the one-bin grid's instant is T/2, so both paths read the same window
        w, m = tone(0.2e-9), ReadoutModel(seed=4)
        single = acquire(Protocol.PDD_TDQD, w, P, m, n1=1, n2=14, t_s=150e-9, n_batches=5,
                         t_i=T_FIG4 / 2)
        ens = acquire(Protocol.PDD_TDQD, w, P, m, n1=1, n2=14, t_s=150e-9, n_batches=5)
        assert np.array_equal(single.estimates, ens.estimates)

    def test_same_seed_bit_identical(self):
        a = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(seed=5), 8, 8, 150e-9)
        b = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(seed=5), 8, 8, 150e-9)
        assert np.array_equal(a.estimates, b.estimates)

    def test_different_seed_differs(self):
        a = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(seed=5), 8, 8, 150e-9)
        b = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(seed=6), 8, 8, 150e-9)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_with_seed_is_deterministic_and_distinct(self):
        m = ReadoutModel(seed=3)
        assert with_seed(m, 1, 2).seed == with_seed(m, 1, 2).seed
        assert with_seed(m, 1, 2).seed != with_seed(m, 1, 3).seed

    def test_sql_per_entry_noise_calibration(self):
        # std of a single-resource entry ~ sigma_ref (doubled convention)
        w = WaveformSpec.harmonic(T_FIG4, 0.01e-9)
        ens = acquire(Protocol.RAMSEY_SQL, w, P_INF, ReadoutModel(seed=0), n1=4, n2=2000,
                      t_s=150e-9)
        per_entry = ens.estimates.std(axis=1, ddof=1).mean()
        assert per_entry == pytest.approx(0.0555, rel=0.05)

    def test_hql_estimate_noise_scales_inverse_n2(self):
        # std of an n2-resource estimate ~ sigma_ref / n2
        w = WaveformSpec.harmonic(T_FIG4, 0.01e-9)
        stds = []
        for n2 in (4, 8, 16):
            ens = acquire(Protocol.PDD_TDQD, w, P_INF, ReadoutModel(seed=0), n1=4, n2=n2,
                          t_s=150e-9, n_batches=800)
            stds.append(ens.estimates.std(axis=1, ddof=1).mean())
        assert stds[0] == pytest.approx(0.0555 / 4, rel=0.1)
        assert stds[0] / stds[1] == pytest.approx(2.0, rel=0.1)
        assert stds[1] / stds[2] == pytest.approx(2.0, rel=0.1)

    def test_hql_noise_inflates_under_decoherence(self):
        w = WaveformSpec.harmonic(T_FIG4, 0.01e-9)
        kw = dict(n1=2, t_s=150e-9, n_batches=600)
        n2 = 128
        free = acquire(Protocol.PDD_TDQD, w, P_INF, ReadoutModel(seed=0), n2=n2, **kw)
        deco = acquire(Protocol.PDD_TDQD, w, P, ReadoutModel(seed=0), n2=n2, **kw)
        assert deco.estimates.std() > 1.2 * free.estimates.std()

    def test_validation_shape(self):
        from wfsim import make_grid
        with pytest.raises(ValueError):
            PhaseEnsemble(n1=2, n2=3, estimates=np.zeros((2, 4)),
                          grid=make_grid(T_FIG4, 2), t_s=150e-9, protocol="ramsey-sql")

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="n_cols >= 1"):
            PhaseEnsemble(n1=2, n2=2, estimates=np.zeros((2, 0)),
                          grid=make_grid(T_FIG4, 2), t_s=150e-9, protocol="pdd-tdqd")

    def test_grid_bins_must_equal_n1(self):
        # else a 4-row ensemble on an 8-bin grid fails only inside decompose_error
        with pytest.raises(ValueError, match="grid has 8 bins"):
            PhaseEnsemble(n1=4, n2=3, estimates=np.zeros((4, 3)),
                          grid=make_grid(T_FIG4, 8), t_s=150e-9, protocol="ramsey-sql")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            PhaseEnsemble(n1=2, n2=3, estimates=np.zeros((2, 3)),
                          grid=make_grid(T_FIG4, 2), t_s=150e-9, protocol="sql")

    @pytest.mark.parametrize("protocol, collapsed", [("ramsey-sql", False), ("tdqd", True),
                                                     ("pdd-tdqd", True)])
    def test_collapsed_follows_protocol(self, protocol, collapsed):
        ens = PhaseEnsemble(n1=2, n2=2, estimates=np.zeros((2, 2)),
                            grid=make_grid(T_FIG4, 2), t_s=150e-9, protocol=protocol)
        assert ens.collapsed is collapsed


class TestCsvRoundTrip:
    def test_bit_identical(self, tmp_path):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=9), n1=6, n2=10,
                      t_s=150e-9, n_batches=4)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        back = read_ensemble_csv(path)
        assert np.array_equal(back.estimates, ens.estimates)
        assert back.n1 == ens.n1 and back.n2 == ens.n2
        assert back.t_s == ens.t_s
        assert back.protocol == ens.protocol
        assert back.collapsed == ens.collapsed
        assert back.grid.instants == pytest.approx(ens.grid.instants)

    def test_deterministic_flag_suppresses_timestamp(self, tmp_path):
        ens = acquire(Protocol.RAMSEY_SQL, tone(), P, ReadoutModel(seed=1), 4, 4, 150e-9)
        write_ensemble_csv(ens, tmp_path / "a.csv", deterministic=True)
        write_ensemble_csv(ens, tmp_path / "b.csv", deterministic=True)
        assert (tmp_path / "a.csv.meta.json").read_text() == \
               (tmp_path / "b.csv.meta.json").read_text()
        assert "written_at" not in (tmp_path / "a.csv.meta.json").read_text()

    def _written(self, tmp_path):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=9), n1=4, n2=10,
                      t_s=150e-9, n_batches=3)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        with pytest.raises(ValueError, match="rows"):
            read_ensemble_csv(path)

    @pytest.mark.parametrize("cell", ["0,1", "5,1", "1,0", "1,4"])
    def test_cell_outside_matrix_rejected(self, tmp_path, cell):
        # i = 0 would otherwise wrap onto the last row
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = cell + lines[1][3:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="outside"):
            read_ensemble_csv(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[1]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"line 3 repeats cell \(1, 1\); "
                                             r"cell \(1, 2\) is missing"):
            read_ensemble_csv(path)

    def test_duplicate_cell_in_a_later_block_rejected(self, tmp_path):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=6), n1=2, n2=10,
                      t_s=150e-9, n_batches=6000)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        lines = path.read_text().splitlines(keepends=True)
        lines[9000] = lines[10]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"line 9001 repeats cell \(1, 10\); "
                                             r"cell \(2, 3000\) is missing"):
            read_ensemble_csv(path)

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phase_rejected(self, tmp_path, phi):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = lines[4].rsplit(",", 1)[0] + f",{phi}\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line 5: phase {phi} is not finite"):
            read_ensemble_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        (tmp_path / "bad.csv.meta.json").write_text(
            '{"n1": 1, "n2": 1, "n_cols": 1, "t_s": 1e-7, "protocol": "ramsey-sql",'
            ' "collapsed": false, "period_T": 9.6e-6}\n')
        with pytest.raises(ValueError):
            read_ensemble_csv(path)

    def _damaged(self, tmp_path, line, text):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[line:line + 1] = [text]
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("row", ["1,1,1.2e-06\n", "1,1,1.2e-06,0.5,7\n", "1.0,1,1.2e-06,0.5\n",
                                     "#1,1,1.2e-06,0.5\n", "\n"],
                             ids=["3_fields", "5_fields", "float_index", "comment", "blank"])
    def test_malformed_row_rejected(self, tmp_path, row):
        path = self._damaged(tmp_path, 5, row)
        with pytest.raises(ValueError, match="line"):
            read_ensemble_csv(path)

    def test_extra_trailing_row_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + [lines[-1]]))
        with pytest.raises(ValueError, match="rows"):
            read_ensemble_csv(path)

    def test_t_i_off_grid_rejected(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        i, j, t_i, phi = lines[7].split(",")
        assert i == "3"
        lines[7] = f"{i},{j},{float(t_i) * (1 + 1e-9)!r},{phi}"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 8"):
            read_ensemble_csv(path)

    def test_t_i_checked_against_rebuilt_grid_with_tolerance(self, tmp_path):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=2), n1=75, n2=2, t_s=50e-9)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        assert np.array_equal(read_ensemble_csv(path).estimates, ens.estimates)

    @pytest.mark.parametrize("T", [T_FIG4, 1e-5])
    @pytest.mark.parametrize("n1", [5, 75, 161])
    def test_grid_round_trip_exact(self, tmp_path, T, n1):
        # the read grid must be the writer's bit for bit, including where
        # 2 n1 t_1 misses T (n1 = 75 at 9.6 us, n1 = 5 at 10 us)
        grid = make_grid(T, n1)
        ens = PhaseEnsemble(n1=n1, n2=2, estimates=np.zeros((n1, 2)), grid=grid,
                            t_s=150e-9, protocol="pdd-tdqd")
        write_ensemble_csv(ens, tmp_path / "ens.csv", deterministic=True)
        back = read_ensemble_csv(tmp_path / "ens.csv")
        assert back.grid == grid
        assert back.grid.instants == grid.instants

    @pytest.mark.parametrize("key, value", [
        ("n1", None), ("n_cols", None), ("n2", None), ("period_T", None), ("t_s", None),
        ("protocol", None), ("n1", 0), ("n_cols", 3.0), ("n2", True), ("period_T", -1.0),
        ("t_s", "1.5e-7"), ("protocol", "sql"),
    ], ids=lambda v: repr(v))
    def test_sidecar_key_checked(self, tmp_path, key, value):
        path = self._written(tmp_path)
        sidecar = Path(str(path) + ".meta.json")
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=repr(key)):
            read_ensemble_csv(path)

    def test_rows_in_any_order(self, tmp_path):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=4), n1=5, n2=10,
                      t_s=150e-9, n_batches=7)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        header, *rows = path.read_text().splitlines(keepends=True)
        np.random.default_rng(0).shuffle(rows)
        path.write_text(header + "".join(rows))
        assert read_ensemble_csv(path).estimates.tobytes() == ens.estimates.tobytes()

    @pytest.mark.parametrize("n1, n_cols", [(4, 3), (2, 5000)])
    def test_bytes_match_csv_writer_oracle(self, tmp_path, n1, n_cols):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=5), n1=n1, n2=10,
                      t_s=150e-9, n_batches=n_cols)
        write_ensemble_csv(ens, tmp_path / "new.csv", deterministic=True)
        _csv_writer_oracle(ens, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_line_numbers_past_the_first_block(self, tmp_path):
        ens = acquire(Protocol.PDD_TDQD, tone(), P, ReadoutModel(seed=6), n1=2, n2=10,
                      t_s=150e-9, n_batches=6000)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        lines = path.read_text().splitlines(keepends=True)
        lines[9000] = "2,3001,1.0,0.5\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 9001"):
            read_ensemble_csv(path)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[-0.0, 5e-324], [1e308, -1e308], [2.2250738585072014e-308, 0.1]]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact_for_any_finite_float(self, estimates):
        n1, n_cols = estimates.shape
        ens = PhaseEnsemble(n1=n1, n2=2, estimates=estimates, grid=make_grid(T_FIG4, n1),
                            t_s=150e-9, protocol="pdd-tdqd")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ens.csv"
            write_ensemble_csv(ens, path, deterministic=True)
            assert read_ensemble_csv(path).estimates.tobytes() == estimates.tobytes()


def _csv_writer_oracle(e, path):
    """The csv.writer loop that wrote ensemble CSVs before the block writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "t_i_seconds", "phi_ij_rad"])
        for i in range(e.n1):
            t_i = e.grid.instants[i]
            for j in range(e.estimates.shape[1]):
                writer.writerow([i + 1, j + 1, repr(t_i), repr(float(e.estimates[i, j]))])
