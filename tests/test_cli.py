import argparse
import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wfsim
from wfsim import (
    ConfigError,
    Protocol,
    ReadoutModel,
    SensorParams,
    acquire,
    calibrated_tone,
    load_config,
    photon_shot_noise,
    read_ensemble_csv,
    run_scaling_experiment,
    sensitivity_curve,
)
from wfsim import cli, estimator
from wfsim.cli import main

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

WAVEFORM = """\
waveform:
  period: 9.6e-6
  components:
    - {amplitude: 5.906e-7, harmonic: 1}
"""

TABLE_CONFIG = "waveform:\n  period: 9.6e-6\n  csv: table.csv\n"


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
                             ("experiment", "t_s"), ("protocol", "t_i")]:
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
        assert cfg.waveform.knots is not None

    def test_waveform_csv_relative_to_the_config(self, tmp_path, monkeypatch, capsys):
        # a relative csv path names a file next to the config, whatever the cwd
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "t.csv").write_text("0.0,0.0\n4.8e-6,1e-6\n9.6e-6,0.0\n")
        (sub / "tab.yaml").write_text("waveform:\n  period: 9.6e-6\n  csv: t.csv\n")
        monkeypatch.chdir(tmp_path)
        assert tuple(load_config("sub/tab.yaml").waveform.knots[:, 1]) == (4.8e-6, 1e-6)
        assert main(["holder", "--config", "sub/tab.yaml"]) == 0
        assert capsys.readouterr().out.startswith("q=1")

    def test_table_comments_and_empty_lines_are_skipped(self, tmp_path):
        (tmp_path / "t.csv").write_text("# t, b\n\n0.0,0.0  # start\n4.8e-6,1e-6\r\n\n"
                                        "9.6e-6,0.0#end\n# done\n")
        (tmp_path / "exp.yaml").write_text("waveform:\n  period: 9.6e-6\n  csv: t.csv\n")
        w = load_config(tmp_path / "exp.yaml").waveform
        assert w.knots.tolist() == [[0.0, 4.8e-6, 9.6e-6], [0.0, 1e-6, 0.0]]

    def test_waveform_csv_path_must_be_a_string(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("waveform:\n  period: 9.6e-6\n  csv: 0\n")
        with pytest.raises(ConfigError, match="waveform.csv"):
            load_config(path)

    def test_invariants_revalidated(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("sensor:\n  t2: -1.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_inf_decay_time(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("sensor:\n  t2_star: inf\n")
        assert math.isinf(load_config(path).sensor.T2_star)

    def test_converts_values(self, tmp_path):
        # PyYAML reads 2e6 and 150e-9 as strings; a YAML integer seed keeps all 64 bits
        path = tmp_path / "exp.yaml"
        path.write_text("readout:\n  shots: 2e6\n  seed: 18446744073709551615\n"
                        "protocol:\n  kind: tdqd\n  t_s: 150e-9\n"
                        "experiment:\n  budgets: [140, 5.6e2]\n")
        cfg = load_config(path)
        assert cfg.readout.shots_R == 2_000_000 and type(cfg.readout.shots_R) is int
        assert cfg.readout.seed == 2**64 - 1
        assert cfg.protocol == {"kind": Protocol.TDQD, "t_s": 150e-9}
        assert cfg.experiment["budgets"] == [140, 560]


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("mystery: 1\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config, table, message", [
        (None, "0,1e-7\n", "cannot read config"),
        ("waveform: [1, 2\n", "0,1e-7\n", "config parse error"),
        (TABLE_CONFIG, "0,1e-7\n", "at least two samples"),
        (TABLE_CONFIG, "", "at least two samples"),
        (TABLE_CONFIG, "# t, b\n\n# no rows\n", "at least two samples"),
        (TABLE_CONFIG, "0,0,7\n1e-6,1,7\n", "table.csv': line 1 does not hold exactly two"),
        (TABLE_CONFIG, "# t, b\n0,0\n\n1e-6,1,7\n", "table.csv': line 4 does not hold exactly two"),
        (TABLE_CONFIG, "0,0\n1e-6\n", "table.csv': line 2 does not hold exactly two"),
        (TABLE_CONFIG, "0,0,\n1e-6,1\n", "table.csv': line 1 does not hold exactly two"),
    ], ids=["no-such-file", "malformed-yaml", "one-row-table", "empty-table",
            "comment-only-table", "third-column", "third-field-in-one-row", "one-field-row",
            "trailing-comma"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, monkeypatch, config, table,
                                       message):
        # a row of other than two fields names its line; no numpy warning reaches stderr
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.csv").write_text(table)
        if config is not None:
            (tmp_path / "exp.yaml").write_text(config)
        assert main(["simulate", "--config", "exp.yaml", "--out", "run"]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^config error: .*{message}", err, re.M)
        assert "Warning" not in err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("command, config, name", [
        ("simulate", WAVEFORM + "grid:\n  n1: 2.7\n", "grid.n1"),
        ("simulate", WAVEFORM + "readout:\n  shots: 2.5\n", "readout.shots"),
        ("simulate", WAVEFORM + "experiment:\n  seeds: 2.9\n", "experiment.seeds"),
        ("simulate", WAVEFORM.replace("harmonic: 1", "harmonic: 1.5"), "harmonic"),
        ("simulate", WAVEFORM + "grid:\n  n1: abc\n", "grid.n1"),
        ("simulate", WAVEFORM + "sensor:\n  t2_star: abc\n", "sensor.t2_star"),
        ("scaling", "experiment:\n  allocator: bogus\n", "experiment.allocator"),
        ("scaling", "experiment:\n  budgets: [140, 140.5]\n", "experiment.budgets"),
        ("simulate", WAVEFORM + "readout:\n  seed: -1\n", "seed"),
    ], ids=["n1-2.7", "shots-2.5", "seeds-2.9", "harmonic-1.5", "n1-abc", "t2_star-abc",
            "allocator-bogus", "budgets-140.5", "seed-minus-1"])
    def test_bad_value_exits_2(self, tmp_path, capsys, command, config, name):
        # each was truncated, or ended in exit 1 or a traceback
        path = tmp_path / "exp.yaml"
        path.write_text(config)
        out = tmp_path / "run"
        scheme = ["--scheme", "sql"] if command == "scaling" else []
        assert main([command, "--config", str(path), *scheme, "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["holder", "simulate"])
    @pytest.mark.parametrize("config", [
        WAVEFORM.replace("5.906e-7", "nan"),
        WAVEFORM.replace("harmonic: 1}", "harmonic: 1, phase: inf}"),
        WAVEFORM.replace("9.6e-6", "inf"),
        "waveform:\n  period: 9.6e-6\n  csv: table.csv\n",
    ], ids=["amplitude-nan", "phase-inf", "period-inf", "table-nan"])
    def test_non_finite_waveform_exits_2(self, tmp_path, capsys, monkeypatch, command, config):
        # a non-finite waveform is a config error, caught at load before any output
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.csv").write_text("0,0\n4.8e-6,nan\n9.6e-6,0\n")
        (tmp_path / "exp.yaml").write_text(config)
        assert main([command, "--config", "exp.yaml", "--out", "run"]) == 2
        assert "config error: waveform" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "sensitivity"])
    @pytest.mark.parametrize("config", [
        WAVEFORM + "sensor:\n  t2: 1e-300\n",
        WAVEFORM.replace("9.6e-6", "1e300"),
    ], ids=["t2-1e-300", "period-1e300"])
    def test_fully_decayed_envelope_exits_1(self, tmp_path, capsys, command, config):
        # the envelope's square used to overflow into an OverflowError traceback;
        # an envelope that has decayed to 0 fails before any output is written
        path = tmp_path / "exp.yaml"
        path.write_text(config)
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "envelope" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, cfg_path, tmp_path, capsys):
        assert main(["simulate", "--config", str(cfg_path), "--seed", "-1",
                     "--out", str(tmp_path / "run")]) == 2
        assert "--seed" in capsys.readouterr().err


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
        ens = acquire(Protocol.PDD_TDQD, cfg.waveform, cfg.sensor, cfg.readout,
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

    @pytest.mark.parametrize("amplitude, gamma_e", [("1e17", "1e300"), ("0.0", "1e308")],
                             ids=["overflow", "inf-times-zero"])
    def test_non_finite_window_phase_exits_1_without_a_warning(self, tmp_path, capsys,
                                                              amplitude, gamma_e):
        # -2 gamma_e * int b over all windows at once overflows, or meets an
        # exactly zero window integral at -2 gamma_e = -inf
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("5.906e-7", amplitude)
                        .replace("sensor:\n", f"sensor:\n  gamma_e: {gamma_e}\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        assert "outside the atan2 branch" in capsys.readouterr().err

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
        assert not out.exists()

    def test_single_instant_rejects_grid_n1(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--k", "3", "--t-i", "4.8e-6",
                     "--out", str(out)]) == 2
        assert "n1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_i", ["1.0", "50e-9"])
    def test_single_instant_window_outside_period_exits_1(self, tmp_path, capsys, t_i):
        # the window centred on t_i must lie inside [0, T]
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("grid:\n  n1: 8\n", ""))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--t-i", t_i, "--out", str(out)]) == 1
        assert "window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--k", "3"], ["--t-i", "4.8e-6"], ["--seeds", "5"]],
                             ids=lambda f: f[0])
    def test_ramsey_rejects_hql_flags(self, cfg_path, tmp_path, capsys, flag):
        # ramsey-sql has no pass count, no single-instant mode and no batches;
        # the config keys protocol.k and experiment.seeds stay accepted
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--protocol", "ramsey-sql",
                     *flag, "--out", str(out)]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n1", "--seeds", "--k"])
    def test_explicit_zero_overrides_config(self, cfg_path, tmp_path, capsys, flag):
        # a 0 flag reaches acquire's checks instead of falling back to the config value
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), flag, "0", "--out", str(out)]) == 1
        assert ">= " in capsys.readouterr().err
        assert not out.exists()

    def test_hql_n2_must_equal_2k(self, cfg_path, tmp_path, capsys):
        # pdd-tdqd spends n2 = 2k resources per estimate; another n2 was ignored
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("k: 7", "k: 3") + "  n2: 40\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "n2" in capsys.readouterr().err
        assert main(["simulate", "--config", str(path), "--n2", "100", "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["simulate", "--config", str(path), "--n2", "6", "--out", str(out)]) == 0
        assert read_ensemble_csv(out / "ensemble.csv").n2 == 6

    def test_sql_protocol(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--protocol", "ramsey-sql",
                     "--n1", "4", "--n2", "6", "--out", str(out)]) == 0
        ens = read_ensemble_csv(out / "ensemble.csv")
        assert ens.estimates.shape == (4, 6)

    def test_tdqd_protocol(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--protocol", "tdqd",
                     "--seeds", "3", "--out", str(out)]) == 0
        back = read_ensemble_csv(out / "ensemble.csv")
        cfg = load_config(cfg_path)
        ens = acquire(Protocol.TDQD, cfg.waveform, cfg.sensor, cfg.readout,
                      n1=8, n2=14, t_s=150e-9, n_batches=3)
        assert back.protocol == "tdqd" and back.meta["k"] == 7
        assert np.array_equal(back.estimates, ens.estimates)


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
        with open(out / "reconstruction.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row, t, phi in zip(rows, ens.grid.instants, reconstruct(ens)):
            assert float(row["t_seconds"]) == t
            assert float(row["phi_tilde_rad"]) == phi

    def test_truth_is_one_evaluate_call(self, cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "6"])
        evaluate, calls = estimator.evaluate, []
        monkeypatch.setattr(estimator, "evaluate",
                            lambda w, t: calls.append(np.shape(t)) or evaluate(w, t))
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == 0
        assert calls == [(8,)]
        # the bytes of one scalar truth call per instant
        cfg, ens = load_config(cfg_path), read_ensemble_csv(out / "ensemble.csv")
        want = [[repr(t), repr(float(phi)),
                 repr(float(estimator.phase_truth(cfg.waveform, cfg.sensor, ens.t_s, t)))]
                for t, phi in zip(ens.grid.instants, estimator.reconstruct(ens))]
        with open(out / "reconstruction.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == want


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

    def test_out_of_range_phase_exits_1_without_a_warning(self, cfg_path, tmp_path, capsys):
        # a phase beyond pi/gain, which no atan2 estimate gives, used to reach
        # decompose_error and overflow its square with a RuntimeWarning
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--seeds", "3"]) == 0
        path = out / "ensemble.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + ",1e200\n"
        path.write_text("".join(lines))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["reconstruct", "--config", str(cfg_path),
                       "--ensemble", str(path), "--out", str(out)])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        assert re.search(r"^error: ensemble CSV line 4: phase 1e\+200 is outside",
                         capsys.readouterr().err, re.M)
        assert not (out / "error_report.json").exists()

    def test_sidecar_without_n_cols_exits_1(self, cfg_path, tmp_path, capsys):
        # a missing sidecar key is a runtime error naming the key, not a traceback
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "3"])
        sidecar = out / "ensemble.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        del meta["n_cols"]
        sidecar.write_text(json.dumps(meta))
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == 1
        assert re.search(r"^error: .*'n_cols'", capsys.readouterr().err, re.M)

    def test_sidecar_that_is_a_list_exits_1(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seeds", "3"])
        (out / "ensemble.csv.meta.json").write_text("[1, 2]\n")
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == 1
        assert re.search(r"^error: .*expected a JSON object, got \[1, 2\]$",
                         capsys.readouterr().err, re.M)

    def test_sidecar_non_numeric_t_i_exits_1(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("grid:\n  n1: 8\n", ""))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--t-i", "4.8e-6", "--seeds", "3",
                     "--out", str(out)]) == 0
        sidecar = out / "ensemble.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["t_i"] = "abc"
        sidecar.write_text(json.dumps(meta))
        assert main(["reconstruct", "--config", str(path),
                     "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == 1
        assert re.search(r"^error: .*'t_i'", capsys.readouterr().err, re.M)

    @pytest.mark.parametrize("t_i, rc", [("450e-9", 1), ("4.8e-6", 0)])
    def test_single_instant_scored_only_at_t_half(self, tmp_path, capsys, t_i, rc):
        # a --t-i ensemble sits on the one-bin grid, whose instant is T/2; scoring
        # one taken elsewhere against the truth at T/2 would be wrong
        path = tmp_path / "exp.yaml"
        path.write_text(GOOD_CONFIG.replace("grid:\n  n1: 8\n", ""))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--t-i", t_i, "--seeds", "4",
                     "--out", str(out)]) == 0
        assert main(["reconstruct", "--config", str(path),
                     "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == rc
        assert ("t_i" in capsys.readouterr().err) == (rc == 1)

    def test_hold_error_overflowing_in_tesla_exits_1(self, tmp_path, capsys):
        # delta=nan and a NaN, which is not JSON, in error_report.json used to exit 0
        path = tmp_path / "exp.yaml"
        path.write_text(WAVEFORM + "sensor:\n  gamma_e: 1e-300\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["reconstruct", "--config", str(path),
                     "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == 1
        assert "hold error, integrated in tesla, is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["ensemble.csv",
                                                         "ensemble.csv.meta.json"]


class TestAllocate:
    def test_table_ii_row(self, capsys):
        assert main(["allocate", "--scheme", "hql", "--n", "560"]) == 0
        assert capsys.readouterr().out.strip() == "n1=20,n2=28"

    def test_paper_rule(self, capsys):
        assert main(["allocate", "--scheme", "sql", "--n", "1984", "--paper-rule"]) == 0
        assert capsys.readouterr().out.strip() == "n1=16,n2=124"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_paper_rule_rejects_n_below_1(self, capsys, n):
        assert main(["allocate", "--scheme", "sql", "--n", n, "--paper-rule"]) == 1
        assert re.search(rf"^error: N must be >= 1, got {n}$", capsys.readouterr().err, re.M)

    @pytest.mark.parametrize("flags", [[], ["--budget"]], ids=["exact", "budget"])
    def test_rejects_n_below_1(self, capsys, flags):
        assert main(["allocate", "--scheme", "hql", "--n", "0", *flags]) == 1
        assert re.search(r"^error: N must be >= 1, got 0$", capsys.readouterr().err, re.M)

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

    @pytest.mark.parametrize("experiment, flags", [
        ("seeds: 1", []),
        ("seeds: 3", ["--seeds", "0"]),
        ("budgets: [140, 560]", []),
        ("budgets: []", []),
        ("allocator: paper", []),
    ])
    def test_inputs_without_a_finite_result_exit_2(self, tmp_path, capsys, experiment, flags):
        # one seed has no confidence interval, fewer than 3 budgets no slope, and
        # the paper rule is an sql rule
        path = tmp_path / "exp.yaml"
        path.write_text(f"experiment:\n  {experiment}\n")
        out = tmp_path / "run"
        assert main(["scaling", "--scheme", "hql", "--config", str(path), *flags,
                     "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_odd_n2_budget_moves_to_an_even_split(self, tmp_path, capsys):
        # allocate prints the model optimum (20, 25); pdd-tdqd runs (25, 20)
        assert main(["allocate", "--scheme", "hql", "--n", "500"]) == 0
        assert capsys.readouterr().out == "n1=20,n2=25\n"
        path = tmp_path / "exp.yaml"
        path.write_text("experiment:\n  budgets: [140, 500, 2240]\n  seeds: 2\n")
        assert main(["scaling", "--scheme", "hql", "--config", str(path),
                     "--no-decoherence", "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "scaling_hql.csv", newline="") as fh:
            assert [(r["N"], r["n1"], r["n2"]) for r in csv.DictReader(fh)] == [
                ("140", "10", "14"), ("500", "25", "20"), ("2240", "40", "56")]

    def test_budget_without_even_n2_split_exits_1(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("experiment:\n  budgets: [140, 561, 2240]\n  seeds: 2\n")
        out = tmp_path / "run"
        assert main(["scaling", "--scheme", "hql", "--config", str(path),
                     "--no-decoherence", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: N=561 admits no even-n2 allocation\n"
        assert not out.exists()

    def test_info_log_leaves_stdout_and_files_unchanged(self, tmp_path):
        # WFSIM_LOG=INFO adds one stderr line per budget and nothing else
        path = tmp_path / "exp.yaml"
        path.write_text("experiment:\n  budgets: [140, 560, 2240]\n  seeds: 4\n")
        src = str(Path(wfsim.__file__).parents[1])
        runs = {}
        for level in ("WARNING", "INFO"):
            out = tmp_path / level
            env = {**os.environ, "WFSIM_LOG": level,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "wfsim.cli", "scaling", "--scheme",
                                   "hql", "--config", str(path), "--no-decoherence",
                                   "--deterministic", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs[level] = (proc.stdout, files, proc.stderr.splitlines())
        assert runs["INFO"][:2] == runs["WARNING"][:2]
        assert runs["WARNING"][2] == []
        log = runs["INFO"][2]
        assert [re.sub(r" [\d.]+s$", "", ln) for ln in log] == [
            f"INFO wfsim.allocation: scaling hql N={N} n1={n1} n2={n2} seeds=4"
            for N, n1, n2 in ((140, 10, 14), (560, 20, 28), (2240, 40, 56))]

    @pytest.mark.parametrize("config", ["sensor:\n  gamma_e: 1e-300\n",
                                        "protocol:\n  t_s: 1e-300\n",
                                        WAVEFORM.replace("5.906e-7", "0.0")
                                        + "sensor:\n  gamma_e: 1e300\n"],
                             ids=["gamma_e", "t_s", "zero-field-huge-gamma_e"])
    def test_hold_error_overflowing_in_tesla_exits_1(self, tmp_path, capsys, config):
        # the scores squared phi / (2 gamma_e t_s): four RuntimeWarnings, then
        # slope=nan, nan deltas in the CSV and exit 0; a zero field at a huge
        # gamma_e passes the phase check, and its rescale raised OverflowError
        path = tmp_path / "exp.yaml"
        path.write_text(config)
        out = tmp_path / "run"
        assert main(["scaling", "--scheme", "hql", "--config", str(path), "--seeds", "2",
                     "--no-decoherence", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "hold error, integrated in tesla, is not finite" in captured.err
        assert not out.exists()

    def test_protocol_t_s_sets_the_window(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("protocol:\n  t_s: 300e-9\n"
                        "experiment:\n  budgets: [140, 560, 2240]\n  seeds: 2\n")
        assert main(["scaling", "--scheme", "hql", "--config", str(path),
                     "--no-decoherence", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "scaling_hql.csv", newline="") as fh:
            written = [float(r["delta_rad"]) for r in csv.DictReader(fh)]
        p = SensorParams()

        def deltas(t_s):
            rows, _ = run_scaling_experiment("hql", [140, 560, 2240],
                                             calibrated_tone(p, t_s, 9.6e-6), p,
                                             ReadoutModel(), seeds=2, t_s=t_s,
                                             decoherence=False)
            return [r["delta"] for r in rows]

        assert written == deltas(300e-9)
        assert written != deltas(150e-9)


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

    @pytest.mark.parametrize("kind, flags, rc, written", [
        ("tdqd", [], 0, "tdqd"),
        ("tdqd", ["--protocol", "pdd-tdqd"], 0, "pdd-tdqd"),
        ("ramsey-sql", [], 2, None),
        ("pdd-tdqd", ["--k-max", "0"], 2, None),
    ])
    def test_protocol_from_config(self, tmp_path, kind, flags, rc, written):
        # --protocol overrides protocol.kind, which overrides pdd-tdqd
        path = tmp_path / "exp.yaml"
        path.write_text(f"protocol:\n  kind: {kind}\n")
        out = tmp_path / "run"
        assert main(["sensitivity", "--config", str(path), *flags, "--out", str(out)]) == rc
        files = sorted(p.name for p in out.glob("*")) if out.exists() else []
        assert files == ([f"sensitivity_{written}.csv"] if written else [])


class TestHolder:
    def test_smooth_tone(self, cfg_path, tmp_path, capsys):
        assert main(["holder", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("q=1")

    def test_short_period_gives_the_same_constant(self, tmp_path, capsys):
        # eps^(2q) underflowed at T = 1e-300; the estimate now uses eps/T = 2^-j
        outs = []
        for period in ("9.6e-6", "1e-300"):
            path = tmp_path / "exp.yaml"
            path.write_text(WAVEFORM.replace("9.6e-6", period))
            assert main(["holder", "--config", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("q=1 M=")
        assert outs[1] == outs[0]

    def test_overflowing_amplitude_exits_1_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(WAVEFORM.replace("5.906e-7", "1e200"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["holder", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err


class TestRepeatedCalls:
    """main may be called many times in one process: it parses with one parser,
    built on the first call, and reads WFSIM_LOG on every call."""

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for n in (560, 140, 2240, 12, 560):
            assert main(["allocate", "--scheme", "hql", "--n", str(n)]) == 0
        assert len(built) == 8  # wfsim and its seven subcommands
        assert built[0] == "wfsim"
        assert capsys.readouterr().out.splitlines()[-1] == "n1=20,n2=28"

    def test_interleaved_calls_equal_calls_alone(self, cfg_path, tmp_path, monkeypatch,
                                                 capsys):
        # a flag of one call must not reach the next: --k 3 then the config's k = 7,
        # --budget then the exact split
        scaling = tmp_path / "scaling.yaml"
        scaling.write_text("experiment:\n  budgets: [140, 560, 2240]\n  seeds: 4\n")
        calls = [["simulate", "--config", str(cfg_path), "--k", "3"],
                 ["simulate", "--config", str(cfg_path)],
                 ["allocate", "--scheme", "sql", "--n", "1009", "--budget"],
                 ["allocate", "--scheme", "sql", "--n", "1009"],
                 ["scaling", "--scheme", "hql", "--config", str(scaling), "--no-decoherence"]]

        def run(argv, where):
            where.mkdir(parents=True)
            monkeypatch.chdir(where)
            rc = main([*argv, "--deterministic", "--out", "run"])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(where.glob("run/*"))}
            return rc, captured.out, captured.err, files

        together = [run(argv, tmp_path / "together" / str(i)) for i, argv in enumerate(calls)]
        alone = []
        for i, argv in enumerate(calls):
            cli.build_parser.cache_clear()
            alone.append(run(argv, tmp_path / "alone" / str(i)))
        assert together == alone
        assert [rc for rc, *_ in together] == [0] * 5
        metas = [json.loads(together[i][3]["ensemble.csv.meta.json"]) for i in (0, 1)]
        assert [m["k"] for m in metas] == [3, 7]
        assert together[2][1] != together[3][1]

    def test_help_and_version_after_earlier_calls(self, capsys):
        assert main(["allocate", "--scheme", "hql", "--n", "560"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "--scheme", "hql"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv, text in ((["--version"], wfsim.__version__),
                           (["allocate", "--help"], "usage: wfsim allocate")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert text in capsys.readouterr().out
        assert main(["allocate", "--scheme", "hql", "--n", "560"]) == 0
        assert capsys.readouterr().out == "n1=20,n2=28\n"

    @pytest.mark.parametrize("level", ["root", "getLogger", "verbose"])
    def test_wfsim_log_that_names_no_level_means_warning(self, monkeypatch, capsys, level):
        # getattr(logging, "ROOT") is the root logger, not a level: a TypeError
        monkeypatch.setenv("WFSIM_LOG", level)
        assert main(["allocate", "--scheme", "hql", "--n", "560"]) == 0
        assert logging.getLogger("wfsim").level == logging.WARNING

    def test_wfsim_log_is_read_on_every_call(self, tmp_path):
        # basicConfig set the level on the first call only: INFO set after a
        # WARNING call logged nothing
        path = tmp_path / "exp.yaml"
        path.write_text("experiment:\n  budgets: [140, 560, 2240]\n  seeds: 2\n")
        scaling = ["scaling", "--scheme", "hql", "--config", str(path), "--no-decoherence",
                   "--out", str(tmp_path)]
        script = (
            "import os, sys\n"
            "from wfsim.cli import main\n"
            f"calls = [['allocate', '--scheme', 'hql', '--n', '560']] + [{scaling!r}] * 3\n"
            "for level, argv in zip(['WARNING', 'INFO', 'WARNING', 'INFO'], calls):\n"
            "    os.environ['WFSIM_LOG'] = level\n"
            "    print('call', level, file=sys.stderr, flush=True)\n"
            "    assert main(argv) == 0\n"
        )
        src = str(Path(wfsim.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("WFSIM_LOG", None)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        budgets = [f"INFO wfsim.allocation: scaling hql N={N} n1={n1} n2={n2} seeds=2"
                   for N, n1, n2 in ((140, 10, 14), (560, 20, 28), (2240, 40, 56))]
        assert [re.sub(r" [\d.]+s$", "", ln) for ln in proc.stderr.splitlines()] == [
            "call WARNING", "call INFO", *budgets, "call WARNING", "call INFO", *budgets]
