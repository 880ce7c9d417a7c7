"""The config keys live in one place: DEFAULTS and the config dataclasses.

The shipped config file, the CLI flags and the config-file parser are all
derived from that one schema; these tests fail when any of them drifts.
Each verb offers a flag for exactly the keys it reads, and the README's
per-verb key list matches the parsers.
"""

import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from multihop import cli
from multihop.harness import DEFAULTS, ConfigError, load_config, parse_config_text
from multihop.layout import LayoutConfig
from multihop.schedule import TR_PHASES

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
README = ROOT / "README.md"

LIST_KEYS = {key for key, default in DEFAULTS.items() if isinstance(default, tuple)}
SCALAR_KEYS = [key for key in DEFAULTS if key not in LIST_KEYS]

# the config keys each verb reads; table4 fixes the row length and runs both stream counts
VERB_KEYS = {
    "layout": [f.name for f in fields(LayoutConfig)],
    "capacity": SCALAR_KEYS,
    "simulate": ["nodes_per_stream"],
    "sweep": list(DEFAULTS),
    "table4": [k for k in SCALAR_KEYS if k not in ("nodes_per_stream", "num_streams")],
}

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


def valid_other_text(key):
    """Like other_text, but in range for the value's checks and the validated row length."""
    overrides = {"num_streams": "1", "nodes_per_stream": "6", "path_loss_exponent": "3.0"}
    return overrides.get(key) or other_text(DEFAULTS[key])


def cli_config(argv):
    return cli._effective_config(cli.build_parser().parse_args(argv))


def verb_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def offered_keys(parser):
    return {action.dest for action in parser._actions if action.dest in DEFAULTS}


def test_shipped_config_file_is_the_defaults():
    assert load_config(str(DEFAULT_CFG)) == DEFAULTS


def test_every_key_appears_in_the_shipped_config_file():
    text = DEFAULT_CFG.read_text()
    keys = {line.split("=")[0].strip() for line in text.splitlines() if "=" in line.split("#")[0]}
    assert keys == set(DEFAULTS)


def readme_verb_keys():
    """{verb: keys} from README's list lines of the form "- `verb`: `key`, `key`"."""
    out = {}
    for line in README.read_text().splitlines():
        m = re.match(r"- `(\w+)`: (`\w+`(, `\w+`)*)$", line)
        if m and m.group(1) in VERB_OPTIONS:
            out[m.group(1)] = set(re.findall(r"`(\w+)`", m.group(2)))
    return out


def test_readme_lists_the_keys_each_verb_reads():
    assert readme_verb_keys() == {verb: offered_keys(p) for verb, p in verb_parsers().items()}


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_flag_and_config_line_give_the_same_config(key):
    text = other_text(DEFAULTS[key])
    from_file = parse_config_text("%s = %s\n" % (key, text))
    assert from_file != DEFAULTS
    assert cli_config(["sweep", flag(key), text]) == from_file


# scalar keys a verb does not read, and so no longer offers
DROPPED = [(verb, key) for verb in VERB_OPTIONS for key in SCALAR_KEYS if key not in VERB_KEYS[verb]]


@pytest.mark.parametrize("verb", list(VERB_OPTIONS))
def test_each_verb_offers_exactly_the_expected_flags(verb):
    expected = {"-h", "--help", "--config"} | {flag(k) for k in VERB_KEYS[verb]} | set(VERB_OPTIONS[verb])
    offered = {s for action in verb_parsers()[verb]._actions for s in action.option_strings}
    assert offered == expected


def test_offered_config_flag_counts():
    counts = {verb: len(offered_keys(p)) for verb, p in verb_parsers().items()}
    assert counts == {"layout": 4, "capacity": 13, "simulate": 1, "sweep": 16, "table4": 11}
    assert len(DROPPED) == 23


def stdout_of(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "verb, key",
    [(verb, key) for verb, p in verb_parsers().items() if verb != "sweep" for key in sorted(offered_keys(p))],
)
def test_every_offered_flag_changes_stdout(verb, key, capsys):
    argv = [verb] + REQUIRED[verb]
    assert stdout_of(argv + [flag(key), valid_other_text(key)], capsys) != stdout_of(argv, capsys)


@pytest.mark.parametrize("verb, key", DROPPED)
def test_dropped_flags_are_unrecognized(verb, key, capsys):
    assert cli.main([verb] + REQUIRED[verb] + [flag(key), valid_other_text(key)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [v for v in VERB_OPTIONS if v != "sweep"])
@pytest.mark.parametrize("key", sorted(LIST_KEYS))
def test_list_flags_are_sweep_only(verb, key, capsys):
    assert cli.main([verb] + REQUIRED[verb] + [flag(key), other_text(DEFAULTS[key])]) == 1


@pytest.mark.parametrize("verb", [v for v in VERB_OPTIONS if "tr_phase" in VERB_KEYS[v]])
def test_unknown_tr_phase_exits_one_on_every_verb(verb, capsys):
    assert cli.main([verb] + REQUIRED[verb] + ["--tr-phase", "sideways"]) == 1
    assert "tr_phase" in capsys.readouterr().err


def test_unknown_tr_phase_in_a_config_file_is_rejected():
    with pytest.raises(ConfigError, match="tr_phase"):
        parse_config_text("tr_phase = sideways\n")
