"""YAML experiment configuration: schema validation and object construction.

Top-level sections: waveform (required for most commands), sensor,
readout, protocol, grid, experiment, output.  Unknown keys anywhere are
rejected.  All values are SI units.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import yaml

from .errors import ConfigError
from .measurement import ReadoutModel
from .sensor import Protocol, SensorParams
from .waveform import WaveformSpec

__all__ = ["ExperimentConfig", "load_config"]

_SECTIONS = ("waveform", "sensor", "readout", "protocol", "grid", "experiment", "output")


@dataclass
class ExperimentConfig:
    waveform: WaveformSpec | None = None
    sensor: SensorParams = field(default_factory=SensorParams)
    readout: ReadoutModel = field(default_factory=ReadoutModel)
    protocol: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    output: str = "."


def _check_keys(section: str, data: dict, allowed: set[str]):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _build_waveform(data: dict) -> WaveformSpec:
    _check_keys("waveform", data, {"period", "components", "csv"})
    if "period" not in data:
        raise ConfigError("waveform.period is required")
    period = float(data["period"])
    has_comp = "components" in data
    has_csv = "csv" in data
    if has_comp == has_csv:
        raise ConfigError("waveform needs exactly one of 'components' or 'csv'")
    if has_comp:
        comps = []
        for i, c in enumerate(data["components"]):
            _check_keys(f"waveform.components[{i}]", c, {"amplitude", "harmonic", "phase"})
            comps.append((float(c["amplitude"]), int(c.get("harmonic", 1)),
                          float(c.get("phase", 0.0))))
        try:
            return WaveformSpec(period_T=period, components=tuple(comps))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        with open(data["csv"], newline="") as fh:
            rows = [(float(r[0]), float(r[1])) for r in csv.reader(fh)
                    if r and not r[0].lstrip().startswith("#")]
        return WaveformSpec(period_T=period, tabulated=tuple(rows))
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot load waveform csv {data['csv']!r}: {exc}") from exc


_SENSOR_KEYS = {
    "gamma_e": "gamma_e", "t2_star": "T2_star", "t2": "T2",
    "contrast": "contrast_C", "rabi_freq": "rabi_freq", "t_pi": "t_pi",
}

_READOUT_KEYS = {
    "shots": "shots_R", "noise": "noise_mode",
    "photons_per_shot": "photons_per_shot_bright", "seed": "seed",
    "sigma_ref": "sigma_ref",
}


def _build_sensor(data: dict) -> SensorParams:
    _check_keys("sensor", data, set(_SENSOR_KEYS))
    kwargs = {}
    for key, val in data.items():
        kwargs[_SENSOR_KEYS[key]] = float("inf") if val in ("inf", ".inf") else float(val)
    try:
        return SensorParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_readout(data: dict) -> ReadoutModel:
    _check_keys("readout", data, set(_READOUT_KEYS))
    kwargs = {_READOUT_KEYS[k]: v for k, v in data.items()}
    if "shots_R" in kwargs:
        kwargs["shots_R"] = int(kwargs["shots_R"])
    if "seed" in kwargs:
        kwargs["seed"] = int(kwargs["seed"])
    try:
        return ReadoutModel(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _validated_dict(section: str, data: dict, allowed: set[str]) -> dict:
    _check_keys(section, data, allowed)
    return dict(data)


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path!r}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys("config", raw, set(_SECTIONS))

    cfg = ExperimentConfig()
    if "waveform" in raw:
        cfg.waveform = _build_waveform(raw["waveform"] or {})
    if "sensor" in raw:
        cfg.sensor = _build_sensor(raw["sensor"] or {})
    if "readout" in raw:
        cfg.readout = _build_readout(raw["readout"] or {})
    if "protocol" in raw:
        cfg.protocol = _validated_dict("protocol", raw["protocol"] or {},
                                       {"kind", "k", "t_s"})
        if "kind" in cfg.protocol:
            try:
                Protocol(cfg.protocol["kind"])
            except ValueError as exc:
                raise ConfigError(f"unknown protocol kind {cfg.protocol['kind']!r}") from exc
    if "grid" in raw:
        cfg.grid = _validated_dict("grid", raw["grid"] or {}, {"n1", "n2"})
    if "experiment" in raw:
        cfg.experiment = _validated_dict(
            "experiment", raw["experiment"] or {},
            {"budgets", "seeds", "t_s", "allocator"},
        )
    if "output" in raw:
        cfg.output = str(raw["output"])
    return cfg
