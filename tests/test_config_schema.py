"""The config keys live in one place: DEFAULTS and the config dataclasses.

The shipped config file, the CLI flags and the config-file parser are all
derived from that one schema; these tests fail when any of them drifts.
"""

import argparse
from pathlib import Path

import pytest

from multihop import cli
from multihop.harness import DEFAULTS, ConfigError, load_config, parse_config_text
from multihop.schedule import TR_PHASES

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"

LIST_KEYS = {key for key, default in DEFAULTS.items() if isinstance(default, tuple)}

# options that belong to a verb, not to the config
VERB_OPTIONS = {
    "layout": [],
    "capacity": ["--mode", "--z", "--hops"],
    "simulate": ["--mode", "--z", "--hops", "--periods", "--trace", "--trace-csv"],
    "sweep": ["--output"],
    "table4": ["--alt", "--output"],
}

REQUIRED = {
    "layout": [],
    "capacity": ["--mode", "TR", "--z", "3"],
    "simulate": ["--mode", "TR", "--z", "3"],
    "sweep": [],
    "table4": [],
}


def flag(key):
    return "--streams" if key == "num_streams" else "--" + key.replace("_", "-")


def other_text(default):
    """Config text for a value other than the default."""
    if isinstance(default, tuple):
        return ", ".join(str(v) for v in reversed(default))
    if isinstance(default, str):
        return next(p for p in TR_PHASES if p != default)
    return str(default * 2)


def cli_config(argv):
    return cli._effective_config(cli.build_parser().parse_args(argv))


def verb_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_shipped_config_file_is_the_defaults():
    assert load_config(str(DEFAULT_CFG)) == DEFAULTS


def test_every_key_appears_in_the_shipped_config_file():
    text = DEFAULT_CFG.read_text()
    keys = {line.split("=")[0].strip() for line in text.splitlines() if "=" in line.split("#")[0]}
    assert keys == set(DEFAULTS)


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_flag_and_config_line_give_the_same_config(key):
    text = other_text(DEFAULTS[key])
    from_file = parse_config_text("%s = %s\n" % (key, text))
    assert from_file != DEFAULTS
    assert cli_config(["sweep", flag(key), text]) == from_file


@pytest.mark.parametrize("verb", list(VERB_OPTIONS))
def test_each_verb_offers_exactly_the_expected_flags(verb):
    keys = [k for k in DEFAULTS if verb == "sweep" or k not in LIST_KEYS]
    expected = {"-h", "--help", "--config"} | {flag(k) for k in keys} | set(VERB_OPTIONS[verb])
    offered = {s for action in verb_parsers()[verb]._actions for s in action.option_strings}
    assert offered == expected


@pytest.mark.parametrize("verb", [v for v in VERB_OPTIONS if v != "sweep"])
@pytest.mark.parametrize("key", sorted(LIST_KEYS))
def test_list_flags_are_sweep_only(verb, key, capsys):
    assert cli.main([verb] + REQUIRED[verb] + [flag(key), other_text(DEFAULTS[key])]) == 1


@pytest.mark.parametrize("verb", list(VERB_OPTIONS))
def test_unknown_tr_phase_exits_one_on_every_verb(verb, capsys):
    assert cli.main([verb] + REQUIRED[verb] + ["--tr-phase", "sideways"]) == 1
    assert "tr_phase" in capsys.readouterr().err


def test_unknown_tr_phase_in_a_config_file_is_rejected():
    with pytest.raises(ConfigError, match="tr_phase"):
        parse_config_text("tr_phase = sideways\n")
