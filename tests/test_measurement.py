import csv
import json
import math
import tempfile
from dataclasses import replace
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
    SampleGrid,
    SensorParams,
    WaveformSpec,
    WfsimError,
    acquire,
    acquire_planned,
    phase_exact,
    photon_shot_noise,
    plan_acquisition,
    read_ensemble_csv,
    with_seed,
    write_ensemble_csv,
)
from wfsim.measurement import (
    DEFAULT_PHOTONS_PER_SHOT,
    SHOTS_REF,
    _acquire,
    _noisy_readout,
    _philox,
    _rekey,
    _seed_keys,
    quadrature_noise_std,
)
from wfsim.sensor import _phase_gain

T_FIG2 = 2.4e-6
T_FIG4 = 9.6e-6
P = SensorParams()
P_INF = P.without_decoherence()


def tone(amplitude=1e-6, T=T_FIG4):
    return WaveformSpec.harmonic(T, amplitude)


def _fresh(key):
    return np.random.Generator(np.random.Philox(key=np.uint64(key)))


def _signal_plan(signal, n_cols):
    """A pdd-tdqd plan (noise scale 1) whose noiseless (X, Y) rows are signal."""
    signal = np.asarray(signal, dtype=float)
    plan = plan_acquisition(Protocol.PDD_TDQD, tone(), P, len(signal), 2, 150e-9,
                            n_batches=n_cols)
    return replace(plan, signal=signal)


def _noisy_signal_oracle(s_true, m, rng, sigma_scale=1.0):
    """The readout draw of one seed before seeds were drawn in batches: one
    draw per cell of s_true."""
    if m.noise_mode == "none":
        return np.array(s_true, dtype=float)
    if m.noise_mode == "gaussian":
        sigma = sigma_scale * quadrature_noise_std(m, P)
        return sigma * rng.standard_normal(s_true.shape) + s_true
    c, n_b = P.contrast_C, m.photons_per_shot_bright
    mu = m.shots_R * n_b * (1.0 - c / 2.0 + (c / 2.0) * s_true)
    counts = rng.poisson(mu, s_true.shape)
    return (counts / m.shots_R - n_b * (1.0 - c / 2.0)) * 2.0 / (c * n_b)


def _acquire_oracle(plan, m, key):
    """The estimates of one seed drawn on its own from a fresh Philox(key=key)."""
    scale = 0.5 if plan.kind is Protocol.RAMSEY_SQL and m.noise_mode == "gaussian" else 1.0
    s_true = np.broadcast_to(plan.signal[:, None], (len(plan.signal), plan.n_cols, 2))
    noisy = _noisy_signal_oracle(s_true, m, _fresh(key), scale)
    x, y = noisy[..., 0], noisy[..., 1]
    cos_hat, sin_hat = (y, x) if plan.kind is Protocol.TDQD else (x, y)
    return np.arctan2(sin_hat, cos_hat) / plan.gain


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
        assert (_noisy_readout(_signal_plan([[0.37, 0.37]], 3), m, [0, 1]) == 0.37).all()


class TestSimulateReadout:
    """The noisy readout of signal values that every acquisition draws."""

    @pytest.mark.parametrize("mode", ["gaussian", "poisson"])
    def test_unbiased_with_correct_variance(self, mode):
        m = ReadoutModel(noise_mode=mode, seed=7)
        s_true = 0.3
        draws = _noisy_readout(_signal_plan(np.full((1000, 2), s_true), 2), m, [7]).ravel()
        assert draws.size == 4000
        sigma = quadrature_noise_std(m, P)
        assert draws.mean() == pytest.approx(s_true, abs=4 * sigma / math.sqrt(4000))
        assert draws.std(ddof=1) == pytest.approx(sigma, rel=0.1)

    @pytest.mark.parametrize("mode", ["gaussian", "poisson", "none"])
    def test_shape_draws_as_the_broadcast_signal(self, mode):
        # the kernel draws each key's (n1, n_cols, 2) cells around the (n1, 1, 2)
        # signal into one stack; each slice must give the bits of drawing that
        # key alone on the broadcast signal
        m = ReadoutModel(noise_mode=mode)
        s_true = np.random.default_rng(1).uniform(-1, 1, (5, 2))
        keys = [3, 0, 2**64 - 1]
        drawn = _noisy_readout(_signal_plan(s_true, 7), m, keys)
        assert drawn.shape == (3, 5, 7, 2)
        for s, key in enumerate(keys):
            broadcast = _noisy_signal_oracle(np.broadcast_to(s_true[:, None], (5, 7, 2)), m,
                                             _fresh(key))
            assert drawn[s].tobytes() == broadcast.tobytes()

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
        with pytest.raises(ValueError):
            PhaseEnsemble(n1=2, n2=3, estimates=np.zeros((2, 4)),
                          grid=SampleGrid(T_FIG4, 2), t_s=150e-9, protocol="ramsey-sql")

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="n_cols >= 1"):
            PhaseEnsemble(n1=2, n2=2, estimates=np.zeros((2, 0)),
                          grid=SampleGrid(T_FIG4, 2), t_s=150e-9, protocol="pdd-tdqd")

    def test_grid_bins_must_equal_n1(self):
        # else a 4-row ensemble on an 8-bin grid fails only inside decompose_error
        with pytest.raises(ValueError, match="grid has 8 bins"):
            PhaseEnsemble(n1=4, n2=3, estimates=np.zeros((4, 3)),
                          grid=SampleGrid(T_FIG4, 8), t_s=150e-9, protocol="ramsey-sql")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            PhaseEnsemble(n1=2, n2=3, estimates=np.zeros((2, 3)),
                          grid=SampleGrid(T_FIG4, 2), t_s=150e-9, protocol="sql")

    @pytest.mark.parametrize("protocol, collapsed", [("ramsey-sql", False), ("tdqd", True),
                                                     ("pdd-tdqd", True)])
    def test_collapsed_follows_protocol(self, protocol, collapsed):
        ens = PhaseEnsemble(n1=2, n2=2, estimates=np.zeros((2, 2)),
                            grid=SampleGrid(T_FIG4, 2), t_s=150e-9, protocol=protocol)
        assert ens.collapsed is collapsed


def _same_ensemble(a, b):
    assert np.array_equal(a.estimates, b.estimates)
    assert (a.n1, a.n2, a.grid, a.t_s, a.protocol) == (b.n1, b.n2, b.grid, b.t_s, b.protocol)
    assert json.dumps(a.meta) == json.dumps(b.meta)


class TestPlannedAcquisition:
    CASES = [
        (Protocol.RAMSEY_SQL, 8, 12, {}),
        (Protocol.TDQD, 5, 8, {"n_batches": 3}),
        (Protocol.PDD_TDQD, 6, 14, {}),
        (Protocol.PDD_TDQD, 4, 4, {"n_batches": 50}),
        (Protocol.PDD_TDQD, 1, 6, {"n_batches": 7, "t_i": 2.1e-6}),
        (Protocol.RAMSEY_SQL, 1, 9, {"t_i": 75e-9}),
    ]

    @pytest.mark.parametrize("noise_mode", ["gaussian", "poisson", "none"])
    @pytest.mark.parametrize("kind, n1, n2, kw", CASES)
    def test_equals_acquire_bitwise(self, kind, n1, n2, kw, noise_mode):
        # one plan serves several seeds, each equal to a fresh acquire
        w = tone(0.2e-6)
        plan = plan_acquisition(kind, w, P, n1, n2, 150e-9, **kw)
        for seed in (0, 5, 2**63 + 1):
            m = ReadoutModel(seed=seed, noise_mode=noise_mode)
            _same_ensemble(acquire_planned(plan, m),
                           acquire(kind, w, P, m, n1, n2, 150e-9, **kw))

    @pytest.mark.parametrize("noise_mode", ["gaussian", "poisson", "none"])
    @pytest.mark.parametrize("kind, n1, n2, kw", CASES)
    def test_batched_kernel_equals_fresh_philox_per_key(self, kind, n1, n2, kw, noise_mode):
        # one call draws a stack of keys; each slice is that key's own draw,
        # and acquire_planned is the one-key stack of m.seed
        plan = plan_acquisition(kind, tone(0.2e-6), P, n1, n2, 150e-9, **kw)
        m = ReadoutModel(noise_mode=noise_mode)
        keys = [0, 5, 2**63 + 1, 2**64 - 1]
        stack = _acquire(plan, m, keys)
        assert stack.shape == (len(keys), n1, plan.n_cols)
        for s, key in enumerate(keys):
            want = _acquire_oracle(plan, m, key)
            assert stack[s].tobytes() == want.tobytes()
            assert acquire_planned(plan, replace(m, seed=key)).estimates.tobytes() == \
                want.tobytes()

    def test_signal_is_read_only(self):
        plan = plan_acquisition(Protocol.PDD_TDQD, tone(), P, 4, 6, 150e-9)
        assert plan.signal.shape == (4, 2)
        with pytest.raises(ValueError):
            plan.signal[0, 0] = 0.0

    @pytest.mark.parametrize("args, kw, error", [
        ((Protocol.PDD_TDQD, 4, 3, 150e-9), {}, ValueError),
        ((Protocol.RAMSEY_SQL, 4, 3, 150e-9), {"n_batches": 2}, ValueError),
        ((Protocol.PDD_TDQD, 2, 2, 150e-9), {"t_i": 4.8e-6}, ValueError),
        ((Protocol.PDD_TDQD, 1, 2, 0.0), {}, ValueError),
        ((Protocol.PDD_TDQD, 4, 2000, 150e-9), {}, DecoheredSignalError),
    ])
    def test_plan_makes_acquire_checks(self, args, kw, error):
        kind, n1, n2, t_s = args
        with pytest.raises(error) as want:
            acquire(kind, tone(), P, ReadoutModel(), n1, n2, t_s, **kw)
        with pytest.raises(error) as got:
            plan_acquisition(kind, tone(), P, n1, n2, t_s, **kw)
        assert str(got.value) == str(want.value)

    def test_plan_checks_the_phase_wrap(self):
        # a 5 uT tone at k = 20 accumulates 9.76 rad
        with pytest.raises(WfsimError, match="atan2 branch"):
            plan_acquisition(Protocol.PDD_TDQD, tone(5e-6), P_INF, 8, 40, 150e-9)


def _seed_sequence_key(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


class TestSeedKeys:
    """The vectorised key rule equals SeedSequence, and a re-keyed Philox a fresh one."""

    # seed and N of two and three words overflow the 4-word pool
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), N=st.integers(1, 2**70 - 1),
           s=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300))
    @example(seed=2**64 - 1, N=2**70 - 1, s=[0, 1, 2**32 - 1])
    @example(seed=0, N=1, s=list(range(300)))
    def test_keys_equal_seed_sequence(self, seed, N, s):
        got = _seed_keys(seed, N, np.array(s, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [_seed_sequence_key(seed, N, x) for x in s]

    @pytest.mark.parametrize("entropy", [(), (5,), (140, 3), (2**40, 2**33), (2**70, 0, 1)])
    def test_with_seed_equals_seed_sequence(self, entropy):
        for seed in (0, 7, 2**64 - 1):
            assert with_seed(ReadoutModel(seed=seed), *entropy).seed == \
                _seed_sequence_key(seed, *entropy)

    def test_rejects_negative_or_wide_words(self):
        with pytest.raises(ValueError):
            _seed_keys(1, -2, np.arange(3))
        with pytest.raises(ValueError):
            _seed_keys(1, 2, np.array([0, 2**32]))

    @pytest.mark.parametrize("draw", [
        lambda g: g.standard_normal((3, 5, 2)),
        lambda g: g.poisson([[0.5, 3.0], [40.0, 1e4]]),
    ], ids=["standard_normal", "poisson"])
    def test_rekeyed_draws_equal_fresh_philox(self, draw):
        rng = _philox()
        for key in (0, 1, 2**63 + 5, 2**64 - 1):
            # leave a part-used buffer, an advanced counter and a cached uint32 behind
            draw(rng)
            rng.integers(0, 7, size=3, dtype=np.uint32)
            fresh = np.random.Generator(np.random.Philox(key=np.uint64(key)))
            assert np.array_equal(draw(_rekey(rng, key)), draw(fresh))
            assert rng.bit_generator.state["has_uint32"] == fresh.bit_generator.state["has_uint32"]


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

    def test_out_of_range_phase_rejected(self, tmp_path):
        # no atan2 estimate exceeds pi/gain = pi/10 at pdd-tdqd's n2 = 10
        path = self._written(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = lines[4].rsplit(",", 1)[0] + ",1e200\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"line 5: phase 1e\+200 is outside "
                                             r"\[-pi/gain, pi/gain\] = \[-0\.314"):
            read_ensemble_csv(path)

    @pytest.mark.parametrize("kind, n2", [(Protocol.RAMSEY_SQL, 3), (Protocol.TDQD, 4),
                                          (Protocol.PDD_TDQD, 10)])
    def test_phase_of_pi_over_gain_accepted(self, tmp_path, kind, n2):
        # atan2 returns +-pi exactly, so +-pi/gain is an estimate; one ulp more is not
        assert np.arctan2(0.0, -1.0) == math.pi and np.arctan2(-0.0, -1.0) == -math.pi
        phi_max = np.arctan2(0.0, -1.0) / _phase_gain(kind, n2 // 2)
        n_cols = n2 if kind is Protocol.RAMSEY_SQL else 2
        estimates = np.zeros((2, n_cols))
        estimates[0, 0], estimates[1, -1] = phi_max, -phi_max
        ens = PhaseEnsemble(n1=2, n2=n2, estimates=estimates, grid=SampleGrid(T_FIG4, 2),
                            t_s=150e-9, protocol=kind.value)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path, deterministic=True)
        assert read_ensemble_csv(path).estimates.tobytes() == estimates.tobytes()
        estimates[1, -1] = np.nextafter(-phi_max, -math.inf)
        write_ensemble_csv(replace(ens, estimates=estimates), path, deterministic=True)
        with pytest.raises(ValueError, match=f"line {2 * n_cols + 1}: .* is outside"):
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
        grid = SampleGrid(T, n1)
        ens = PhaseEnsemble(n1=n1, n2=2, estimates=np.zeros((n1, 2)), grid=grid,
                            t_s=150e-9, protocol="pdd-tdqd")
        write_ensemble_csv(ens, tmp_path / "ens.csv", deterministic=True)
        back = read_ensemble_csv(tmp_path / "ens.csv")
        assert back.grid == grid
        assert back.grid.instants == grid.instants

    @pytest.mark.parametrize("key, value", [
        ("n1", None), ("n_cols", None), ("n2", None), ("period_T", None), ("t_s", None),
        ("protocol", None), ("n1", 0), ("n_cols", 3.0), ("n2", True), ("period_T", -1.0),
        ("t_s", "1.5e-7"), ("protocol", "sql"), ("n2", 9),
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

    @pytest.mark.parametrize("n_cols", [7, 4100])
    def test_bytes_match_fstring_writer_oracle_on_edge_floats(self, tmp_path, n_cols):
        edge = [-0.0, 5e-324, 1e16, 1e-5, 0.1, math.pi, -math.pi, 1e308, -1e308,
                2.2250738585072014e-308]
        estimates = np.resize(edge, (3, n_cols))
        ens = PhaseEnsemble(n1=3, n2=2, estimates=estimates, grid=SampleGrid(T_FIG4, 3),
                            t_s=150e-9, protocol="pdd-tdqd")
        write_ensemble_csv(ens, tmp_path / "new.csv", deterministic=True)
        _fstring_writer_oracle(ens, tmp_path / "old.csv")
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

    # any finite float the reader accepts: |phi| <= pi/2, the atan2 range at
    # pdd-tdqd's phase gain 2 for n2 = 2
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(-math.pi / 2, math.pi / 2)))
    @example(np.array([[-0.0, 5e-324], [math.pi / 2, -math.pi / 2],
                       [2.2250738585072014e-308, 0.1]]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact_for_any_finite_float(self, estimates):
        n1, n_cols = estimates.shape
        ens = PhaseEnsemble(n1=n1, n2=2, estimates=estimates, grid=SampleGrid(T_FIG4, n1),
                            t_s=150e-9, protocol="pdd-tdqd")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ens.csv"
            write_ensemble_csv(ens, path, deterministic=True)
            assert read_ensemble_csv(path).estimates.tobytes() == estimates.tobytes()


def _fstring_writer_oracle(e, path):
    """The f-string block formatter that wrote ensemble CSV rows before the joins."""
    with open(path, "w", newline="") as fh:
        fh.write("i,j,t_i_seconds,phi_ij_rad\n")
        for i, (t, row) in enumerate(zip(e.grid.instants, e.estimates), start=1):
            t_i = repr(t)
            for j0 in range(0, len(row), 4096):
                block = row[j0:j0 + 4096].tolist()
                fh.write("".join([f"{i},{j},{t_i},{phi!r}\n"
                                  for j, phi in enumerate(block, start=j0 + 1)]))


def _csv_writer_oracle(e, path):
    """The csv.writer loop that wrote ensemble CSVs before the block writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "t_i_seconds", "phi_ij_rad"])
        for i in range(e.n1):
            t_i = e.grid.instants[i]
            for j in range(e.estimates.shape[1]):
                writer.writerow([i + 1, j + 1, repr(t_i), repr(float(e.estimates[i, j]))])
