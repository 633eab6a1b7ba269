import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smibctrl import cli, machine, networks, scenarios
from smibctrl.configio import (ConfigError, Key, parse_float, parse_str, read_config,
                               write_table)

SCHEMA = {
    "name": Key(parse_str),
    "gain": Key(parse_float, 1.0),
    "pole": Key(parse_float, (), repeat=True),
}


@pytest.mark.parametrize("text, message", [
    ("gain = 2\n", "demo config is missing the 'name' key"),
    ("name = a\nname = b\n", "duplicate demo config key 'name'"),
    ("name = a\nbogus = 1\n", "unknown demo config key 'bogus'"),
])
def test_read_config_names_key_and_kind(tmp_path, text, message):
    path = tmp_path / "demo.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        read_config(path, "demo", SCHEMA)


def test_read_config_fills_defaults_and_collects_repeats(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text("name = a\npole = 0.5\npole = 0.6\n")
    assert read_config(path, "demo", SCHEMA) == {"name": "a", "gain": 1.0, "pole": [0.5, 0.6]}


def test_write_table_formats_each_column_by_its_type(tmp_path):
    # columns in, one row per index out: integer columns as integers, float
    # columns (NumPy scalars included) at full float precision
    path = tmp_path / "table.csv"
    write_table(path, ("k", "x", "y", "n"), (range(3), [0.1, 1e-5, 2.0**60],
                                             np.array([1.0, -0.0, 1 / 3]),
                                             (np.int64(7), 0, -2)))
    assert path.read_text() == ("k,x,y,n\n0,0.1,1.0,7\n1,1e-05,-0.0,0\n"
                                "2,1.152921504606847e+18,0.3333333333333333,-2\n")
    write_table(path, ("a", "b"), ())
    assert path.read_text() == "a,b\n"


# --- every reader either parses or raises ConfigError -----------------------

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
NUMBER = st.one_of(st.floats().map(repr), st.integers(-3, 12).map(str))
KEYS = ("H", "L_d", "r_f", "speed_coupled_z", "controller", "weights", "p", "pole", "nu",
        "d0", "g_min", "adapt", "machine", "t_end", "dt_control", "v_ref", "event", "seed")
WORDS = ("auto", "neural", "st1a", "none", "true", "off", "narx_ref.nwt",
         "0.5 set_vref 1.2", "0.1 scale_H 0", "1e9 set_Pm 1", "0.2 explode 1")
CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS),
              st.one_of(NUMBER, st.sampled_from(WORDS), TEXT)),
    TEXT,
)
CONFIG_TEXT = st.one_of(TEXT, st.lists(CONFIG_LINE, max_size=12).map("\n".join))

CSV_ROW = st.lists(st.one_of(NUMBER, TEXT), max_size=9).map(",".join)
TRACE_TEXT = st.builds("{}\n{}".format,
                       st.sampled_from([",".join(scenarios.TRACE_COLUMNS), "k,u,y", "t"]),
                       st.lists(CSV_ROW, max_size=6).map("\n".join))
WEIGHT_TEXT = st.builds(
    "{}\n{}".format,
    st.one_of(st.builds("narx-v1 p={} in={}".format, st.integers(-2, 2), st.integers(-2, 3)),
              TEXT),
    st.lists(st.one_of(NUMBER, TEXT), max_size=24).map("\n".join),
)

READERS = {
    "machine": (machine.load_machine_config, CONFIG_TEXT),
    "controller": (scenarios.load_controller_config, CONFIG_TEXT),
    "scenario": (scenarios.parse_scenario, CONFIG_TEXT),
    "weights": (networks.load_weights, WEIGHT_TEXT),
    "trace": (scenarios.Trace.from_csv, TRACE_TEXT),
    "dataset": (cli._read_dataset_csv, TRACE_TEXT),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_parses_or_raises_config_error(tmp_path_factory, reader):
    read, text = READERS[reader]
    path = tmp_path_factory.mktemp(reader) / "input.txt"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text)
    def check(content):
        path.write_text(content, encoding="utf-8")
        try:
            read(path)
        except ConfigError:
            pass

    check()
