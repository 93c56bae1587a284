"""CLI contract fuzz: every config key of ``config._SECTIONS`` set to edge values
under simulate, holder, sensitivity and scaling.

Whatever the input, ``main`` returns 0, 1 or 2, lets no exception escape,
raises no warning but the documented pi-pulse timing one, and on exit 0
prints and writes only finite numbers.
"""

import contextlib
import copy
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsim.cli import main
from wfsim.config import _SECTIONS

# the other commands' defaults are small; scaling's budgets and seeds are
# capped so that every case runs in milliseconds and allocates well under 1 MB
BASE = {
    "waveform": {"period": 9.6e-6, "components": [{"amplitude": 5.906e-7, "harmonic": 1}]},
    "experiment": {"budgets": [12, 24, 48], "seeds": 2},
}
COMMANDS = {"simulate": [], "holder": ["--n-grid", "256"], "sensitivity": ["--k-max", "8"],
            "scaling": ["--scheme", "hql"]}
KEYS = [(section, key) for section, (_, keys) in _SECTIONS.items() for key in keys]
EDGES = [0, -1, 1e300, -1e300, 1e-300, math.inf, -math.inf, math.nan, 2**70, "abc", [1, 2]]
# keys that size an array or a loop: a large value would allocate or run for
# ever before any check could reject it, so they get only values of 64 or less
SIZES = {("grid", "n1"), ("grid", "n2"), ("protocol", "k"), ("experiment", "seeds"),
         ("experiment", "budgets")}
SMALL = [v for v in EDGES if not (isinstance(v, (int, float)) and v > 64)]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def edges(section, key):
    return SMALL if (section, key) in SIZES else EDGES


def values(section, key):
    """The key's edges, or any value of its kind, kept small where it sizes."""
    if (section, key) == ("experiment", "budgets"):
        other = st.lists(st.integers(-2, 64), max_size=4)
    elif (section, key) in SIZES:
        other = st.integers(-2, 6)
    else:
        other = st.floats() | st.integers(-2**70, 2**70) | st.text(max_size=4)
    return st.sampled_from(edges(section, key)) | other


def edited(cfg, section, key, value):
    """A copy of cfg with section.key set to value; a component key edits the
    first component, if waveform.components still holds one."""
    cfg = copy.deepcopy(cfg)
    if section != "component":
        cfg.setdefault(section, {})[key] = value
    elif isinstance(comps := cfg["waveform"]["components"], list) and comps \
            and isinstance(comps[0], dict):
        comps[0][key] = value
    return cfg


def check_contract(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c.yaml").write_text(yaml.safe_dump(cfg))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(tmp / "c.yaml"), *COMMANDS[command],
                           "--deterministic", "--out", str(tmp / "run")])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught
                if not (w.category is UserWarning and "pi-pulse" in str(w.message))] == []
        if rc == 0:
            assert not NON_FINITE.search(out.getvalue()), out.getvalue()
            for path in (tmp / "run").glob("*"):
                assert not NON_FINITE.search(path.read_text()), path.name


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
def test_every_key_at_every_edge_keeps_the_contract(command, section, key):
    for value in edges(section, key):
        check_contract(command, edited(BASE, section, key, value))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(list(COMMANDS)), data=st.data())
def test_random_edits_keep_the_contract(command, data):
    cfg = BASE
    for section, key in data.draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3,
                                           unique=True)):
        cfg = edited(cfg, section, key, data.draw(values(section, key)))
    check_contract(command, cfg)


# scalars as a config may spell them, beside the edges yaml.safe_dump writes
SPELLINGS = ["1e-300", "150e-9", "2e6", "1.0e+300", "-0.0", ".inf", "-.inf", ".nan", "inf",
             "NaN", "0x10", "0o17", "0b101", "1_000", "+1", "12:30", "18446744073709551615",
             "1180591620717411303424", "yes", "~", "'2e6'", "[1, 2e6]", "{a: 1}", "2001-12-14"]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLibyamlLoader:
    """load_config parses with libyaml; it must read every config as the
    pure-Python safe_load does.  repr tells nan, -0.0, 1 and 1.0 apart."""

    @staticmethod
    def both(text):
        return (repr(yaml.load(text, Loader=yaml.CSafeLoader)),
                repr(yaml.load(text, Loader=yaml.SafeLoader)))

    def test_load_config_uses_libyaml(self):
        from wfsim import config
        assert config._LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
    def test_every_edge_parses_as_safe_load(self, section, key):
        for value in EDGES:
            c, py = self.both(yaml.safe_dump(edited(BASE, section, key, value)))
            assert c == py

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_hand_spellings_parse_as_safe_load(self, spelling):
        c, py = self.both(f"readout:\n  seed: {spelling}\n")
        assert c == py
