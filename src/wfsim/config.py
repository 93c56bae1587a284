"""YAML experiment configuration: schema validation and object construction.

Top-level sections: waveform (required for most commands), sensor,
readout, protocol, grid, experiment, output.  Unknown keys anywhere are
rejected, and a value of the wrong type raises ``ConfigError`` naming
``section.key``.  All values are SI units.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError
from .measurement import ReadoutModel
from .sensor import Protocol, SensorParams
from .waveform import WaveformSpec

__all__ = ["ExperimentConfig", "load_config"]


@dataclass
class ExperimentConfig:
    waveform: WaveformSpec | None = None
    sensor: SensorParams = field(default_factory=SensorParams)
    readout: ReadoutModel = field(default_factory=ReadoutModel)
    protocol: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    output: str | None = None


def _real(value) -> float:
    """A number.  PyYAML reads exponents without a dot (150e-9, 2e6) and
    'inf' as strings, so numeric strings are parsed here."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integral number.  A YAML integer is taken as it is, so a seed above
    2**53 keeps every bit; any other number must be integral (2e6, not 2.5)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    x = _real(value)
    if not x.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(x)


def _list(convert):
    """Converter of a YAML list whose items each go through convert."""
    def parse(value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return [convert(v) for v in value]
    return parse


def _allocator(value) -> str:
    if value not in ("exact", "paper"):
        raise ValueError(f"expected exact or paper, got {value!r}")
    return value


def _component(amplitude, harmonic=1, phase=0.0):
    return amplitude, harmonic, phase


def _misshapen_line(path) -> int | None:
    """Number of the first line of a table file whose row, once its comment is
    cut off, is neither empty nor two fields."""
    with open(path, encoding="latin-1") as fh:
        rows = (line.split("#", 1)[0].rstrip("\r\n") for line in fh)
        return next((n for n, row in enumerate(rows, 1) if row and row.count(",") != 1), None)


def _table(path) -> np.ndarray:
    """The (2, K) times and values of a table file of "t, b" rows, in one numpy
    parse: '#' starts a comment, and a line empty once it is cut off is skipped."""
    if not isinstance(path, str):
        raise ValueError(f"expected a file path, got {path!r}")
    try:
        with warnings.catch_warnings():
            # a file without rows loads empty, and WaveformSpec rejects it for its size
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        if rows.size and rows.shape[1] != 2:
            raise ValueError(f"{rows.shape[1]} columns")
    except OSError as exc:
        raise ValueError(f"cannot load waveform csv {path!r}: {exc}") from exc
    except ValueError as exc:
        line = _misshapen_line(path)
        reason = exc if line is None else f"line {line} does not hold exactly two fields (t, b)"
        raise ValueError(f"cannot load waveform csv {path!r}: {reason}") from exc
    return rows.reshape(-1, 2).T  # (K, 2) rows, or (0, 1) from a file without rows


# section: (builder, {YAML key: (field, converter)})
_SECTIONS = {
    "waveform": (WaveformSpec, {"period": ("period_T", _real),
                                "components": ("components",
                                               _list(lambda c: _section("component", c))),
                                "csv": ("knots", _table)}),
    "component": (_component, {"amplitude": ("amplitude", _real),
                               "harmonic": ("harmonic", _integer), "phase": ("phase", _real)}),
    "sensor": (SensorParams, {"gamma_e": ("gamma_e", _real), "t2_star": ("T2_star", _real),
                              "t2": ("T2", _real), "contrast": ("contrast_C", _real),
                              "rabi_freq": ("rabi_freq", _real), "t_pi": ("t_pi", _real)}),
    "readout": (ReadoutModel, {"shots": ("shots_R", _integer), "noise": ("noise_mode", str),
                               "photons_per_shot": ("photons_per_shot_bright", _real),
                               "seed": ("seed", _integer), "sigma_ref": ("sigma_ref", _real)}),
    "protocol": (dict, {"kind": ("kind", Protocol), "k": ("k", _integer),
                        "t_s": ("t_s", _real)}),
    "grid": (dict, {"n1": ("n1", _integer), "n2": ("n2", _integer)}),
    "experiment": (dict, {"budgets": ("budgets", _list(_integer)), "seeds": ("seeds", _integer),
                          "allocator": ("allocator", _allocator)}),
}


def _check_keys(section: str, data, allowed):
    if not isinstance(data, dict):
        raise ConfigError(f"'{section}' must be a mapping, got {data!r}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _section(name: str, data):
    """Convert each key of one section by its table entry, then build the section."""
    build, keys = _SECTIONS[name]
    data = {} if data is None else data
    _check_keys(name, data, keys)
    values = {}
    for key, value in data.items():
        attr, convert = keys[key]
        try:
            values[attr] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc
    try:
        return build(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# libyaml's parser, about 8x faster than the pure-Python one, with safe_load's
# constructor and resolver; the Python parser where libyaml is not built in
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration file.  A relative
    ``waveform.csv`` path names a file in the config file's directory."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path!r}: {exc}") from exc
    raw = {} if raw is None else raw
    _check_keys("config", raw, [f.name for f in fields(ExperimentConfig)])
    wave = raw.get("waveform")
    if isinstance(wave, dict) and isinstance(wave.get("csv"), str):
        wave["csv"] = os.path.join(os.path.dirname(path), wave["csv"])
    cfg = ExperimentConfig()
    for name, value in raw.items():
        setattr(cfg, name, str(value) if name == "output" else _section(name, value))
    return cfg
