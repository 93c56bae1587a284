import csv
import json
import math
import re

import numpy as np
import pytest

from wfsim import (
    ConfigError,
    Protocol,
    ReadoutModel,
    SensorParams,
    load_config,
    photon_shot_noise,
    read_ensemble_csv,
    sensitivity_curve,
)
from wfsim.cli import main
from wfsim.measurement import acquire_ensemble_hql

GOOD_CONFIG = """\
waveform:
  period: 9.6e-6
  components:
    - {amplitude: 5.906e-7, harmonic: 1}
sensor:
  t2_star: 5.2e-6
  t2: 0.66e-3
readout:
  shots: 2000000
  noise: gaussian
  seed: 42
protocol:
  kind: pdd-tdqd
  k: 7
  t_s: 150.0e-9
grid:
  n1: 8
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(GOOD_CONFIG)
    return path


class TestConfig:
    def test_loads_sections(self, cfg_path):
        cfg = load_config(cfg_path)
        assert cfg.waveform.period_T == pytest.approx(9.6e-6)
        assert cfg.sensor.T2_star == pytest.approx(5.2e-6)
        assert cfg.readout.seed == 42
        assert cfg.protocol["k"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        # keys that no code would read are rejected like misspelled ones
        path = tmp_path / "bad.yaml"
        for section, key in [("sensor", "bogus"), ("sensor", "photon_rate_bright"),
                             ("sensor", "snr_ref"),
                             ("experiment", "scheme"), ("experiment", "decoherence"),
                             ("protocol", "t_i")]:
            path.write_text(f"{section}:\n  {key}: 1\n")
            with pytest.raises(ConfigError, match=key):
                load_config(path)
            assert main(["holder", "--config", str(path)]) == 2

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mystery:\n  a: 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_waveform_needs_one_representation(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("waveform:\n  period: 1.0e-6\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_waveform_from_csv(self, tmp_path):
        table = tmp_path / "wave.csv"
        table.write_text("0.0,0.0\n4.8e-6,1e-6\n9.6e-6,0.0\n")
        path = tmp_path / "exp.yaml"
        path.write_text(f"waveform:\n  period: 9.6e-6\n  csv: {table}\n")
        cfg = load_config(path)
        assert cfg.waveform.tabulated is not None

    def test_invariants_revalidated(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("sensor:\n  t2: -1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_inf_decay_time(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("sensor:\n  t2_star: inf\n")
        assert math.isinf(load_config(path).sensor.T2_star)


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("mystery: 1\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_waveform_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("sensor:\n  t2: 0.66e-3\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2

    def test_runtime_error_exits_1(self, cfg_path, tmp_path, capsys):
        # k large enough that the envelope is fully decohered
        rc = main(["simulate", "--config", str(cfg_path), "--k", "5000",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_success_exits_0(self, cfg_path, tmp_path):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


class TestSimulate:
    def test_writes_ensemble_with_metadata(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--seeds", "5"]) == 0
        ens = read_ensemble_csv(out / "ensemble.csv")
        assert ens.estimates.shape == (8, 5)
        assert ens.meta["k"] == 7

    def test_matches_in_process_results(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "3"])
        cfg = load_config(cfg_path)
        ens = acquire_ensemble_hql(cfg.waveform, cfg.sensor, cfg.readout,
                                   n1=8, n2=14, t_s=150e-9, n_batches=3)
        back = read_ensemble_csv(out / "ensemble.csv")
        assert np.array_equal(back.estimates, ens.estimates)

    def test_single_instant_mode(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("grid:\n  n1: 8\n", ""))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--k", "15",
                     "--t-i", "450e-9", "--seeds", "4", "--out", str(out)]) == 0
        ens = read_ensemble_csv(out / "ensemble.csv")
        assert ens.estimates.shape == (1, 4)
        assert ens.meta["t_i"] == pytest.approx(450e-9)

    def test_zero_field_gives_zero_phases(self, tmp_path):
        path = tmp_path / "zero.yaml"
        path.write_text(
            "waveform:\n  period: 9.6e-6\n"
            "  components:\n    - {amplitude: 0.0e-6, harmonic: 1}\n"
            "readout:\n  noise: none\n"
        )
        # zero amplitude is rejected? no: amplitude 0 is a valid constant-zero tone
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        ens = read_ensemble_csv(out / "ensemble.csv")
        assert np.allclose(ens.estimates, 0.0, atol=1e-15)

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path):
        a, b, c = (tmp_path / x for x in "abc")
        main(["simulate", "--config", str(cfg_path), "--out", str(a), "--seed", "1",
              "--deterministic"])
        main(["simulate", "--config", str(cfg_path), "--out", str(b), "--seed", "1",
              "--deterministic"])
        main(["simulate", "--config", str(cfg_path), "--out", str(c), "--seed", "2",
              "--deterministic"])
        ea = (a / "ensemble.csv").read_text()
        assert ea == (b / "ensemble.csv").read_text()
        assert ea != (c / "ensemble.csv").read_text()
        assert (a / "ensemble.csv.meta.json").read_text() == \
               (b / "ensemble.csv.meta.json").read_text()

    def test_single_instant_rejects_n1_flag(self, tmp_path, capsys):
        # --t-i acquires one instant; an n1 given with it was ignored
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("grid:\n  n1: 8\n", ""))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--k", "3", "--t-i", "4.8e-6",
                     "--n1", "5", "--out", str(out)]) == 2
        assert "n1" in capsys.readouterr().err
        assert not (out / "ensemble.csv").exists()

    def test_single_instant_rejects_grid_n1(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--k", "3", "--t-i", "4.8e-6",
                     "--out", str(out)]) == 2
        assert "n1" in capsys.readouterr().err
        assert not (out / "ensemble.csv").exists()

    def test_hql_n2_must_equal_2k(self, cfg_path, tmp_path, capsys):
        # pdd-tdqd spends n2 = 2k resources per estimate; another n2 was ignored
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("k: 7", "k: 3") + "  n2: 40\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "n2" in capsys.readouterr().err
        assert main(["simulate", "--config", str(path), "--n2", "100", "--out", str(out)]) == 2
        assert main(["simulate", "--config", str(path), "--n2", "6", "--out", str(out)]) == 0
        assert read_ensemble_csv(out / "ensemble.csv").n2 == 6

    def test_sql_protocol(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--protocol", "ramsey-sql",
                     "--n1", "4", "--n2", "6", "--out", str(out)]) == 0
        ens = read_ensemble_csv(out / "ensemble.csv")
        assert ens.estimates.shape == (4, 6)


class TestReconstruct:
    def test_round_trip_reproduces_in_process(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "6"])
        rc = main(["reconstruct", "--config", str(cfg_path),
                   "--ensemble", str(out / "ensemble.csv"), "--out", str(out)])
        assert rc == 0
        # file-based reconstruction must equal the in-process one bit for bit
        from wfsim import decompose_error, reconstruct
        cfg = load_config(cfg_path)
        ens = read_ensemble_csv(out / "ensemble.csv")
        rep = decompose_error(ens, cfg.waveform, cfg.sensor)
        loaded = json.loads((out / "error_report.json").read_text())
        assert loaded["delta_sq_rad2"] == rep.delta_sq
        assert loaded["delta_stat_sq_rad2"] == rep.delta_stat_sq
        rec = reconstruct(ens)
        with open(out / "reconstruction.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row, t, phi in zip(rows, ens.grid.instants, rec.phi_bar):
            assert float(row["t_seconds"]) == t
            assert float(row["phi_tilde_rad"]) == phi


    @pytest.mark.parametrize("damage", ["truncated", "row_zero", "t_i_off_grid"])
    def test_damaged_ensemble_exits_1(self, cfg_path, tmp_path, capsys, damage):
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "3"])
        path = out / "ensemble.csv"
        lines = path.read_text().splitlines(keepends=True)
        if damage == "truncated":
            lines = lines[:-2]
        elif damage == "row_zero":
            lines[1] = "0" + lines[1][1:]
        else:
            # row 1 belongs to instant 1; give it instant 2's time
            i, j, _, phi = lines[1].split(",")
            lines[1] = ",".join([i, j, lines[4].split(",")[2], phi])
        path.write_text("".join(lines))
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--ensemble", str(path), "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err


class TestAllocate:
    def test_table_ii_row(self, capsys):
        assert main(["allocate", "--scheme", "hql", "--n", "560"]) == 0
        assert capsys.readouterr().out.strip() == "n1=20,n2=28"

    def test_paper_rule(self, capsys):
        assert main(["allocate", "--scheme", "sql", "--n", "1984", "--paper-rule"]) == 0
        assert capsys.readouterr().out.strip() == "n1=16,n2=124"

    def test_paper_rule_requires_sql(self, capsys):
        assert main(["allocate", "--scheme", "hql", "--n", "560", "--paper-rule"]) == 2

    def test_budget_mode_prime(self, capsys):
        assert main(["allocate", "--scheme", "hql", "--n", "563", "--budget"]) == 0
        out = capsys.readouterr().out
        n1, n2 = (int(kv.split("=")[1]) for kv in out.strip().split(","))
        assert n1 * n2 <= 563 and n1 > 1


class TestCompareTables:
    def test_reports_21_rows_all_passing(self, tmp_path, capsys):
        assert main(["compare-tables", "--out", str(tmp_path)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 21
        assert sum("exact-match" in ln for ln in lines) == 12
        assert sum("within-6%" in ln for ln in lines) == 9
        report = json.loads((tmp_path / "table_report.json").read_text())
        assert len(report) == 21


class TestScaling:
    def test_hql_no_decoherence_summary(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "experiment:\n  budgets: [140, 560, 2240]\n  seeds: 12\n"
        )
        assert main(["scaling", "--scheme", "hql", "--config", str(path),
                     "--no-decoherence", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "scaling_hql_summary.json").read_text())
        assert summary["fitted_slope"] == pytest.approx(-0.5, abs=0.1)
        assert not summary["decoherence"]
        # gnuplot-ready companion data
        dat = (tmp_path / "scaling_hql.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 4


class TestSensitivity:
    def test_pdd_curve(self, tmp_path, capsys):
        assert main(["sensitivity", "--protocol", "pdd-tdqd", "--k-max", "100",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "k_opt=" in out
        with open(tmp_path / "sensitivity_pdd-tdqd.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100

    @staticmethod
    def _eta_opt(capsys) -> float:
        return float(re.search(r"eta_opt=(\S+)", capsys.readouterr().out).group(1))

    def test_uses_configured_photons_per_shot(self, tmp_path, capsys):
        # readout.photons_per_shot sets the read-out noise the sensitivity divides
        default_eta = min(sensitivity_curve(SensorParams(), Protocol.PDD_TDQD,
                                            range(1, 129), 300e-9, 2.4e-6)[1])
        assert main(["sensitivity", "--out", str(tmp_path)]) == 0
        assert self._eta_opt(capsys) == float(f"{default_eta:.6g}")
        path = tmp_path / "exp.yaml"
        path.write_text("readout:\n  photons_per_shot: 5.0\n")
        assert main(["sensitivity", "--config", str(path), "--out", str(tmp_path)]) == 0
        sigma = photon_shot_noise(ReadoutModel(photons_per_shot_bright=5.0), SensorParams())
        eta = min(sensitivity_curve(SensorParams(), Protocol.PDD_TDQD, range(1, 129),
                                    300e-9, 2.4e-6, sigma_read=sigma)[1])
        assert self._eta_opt(capsys) == float(f"{eta:.6g}")
        assert eta < default_eta / 10


class TestHolder:
    def test_smooth_tone(self, cfg_path, tmp_path, capsys):
        assert main(["holder", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("q=1")
