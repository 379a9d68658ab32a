"""Flat key=value config parsing and the resolved-sidecar round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsearch import cli
from dfsearch.config import (
    Option,
    format_resolved,
    parse_choice,
    parse_config_text,
    parse_float,
    parse_float_list,
    parse_int,
    parse_int_list,
    read_config,
    resolve_options,
)
from dfsearch.errors import ConfigError


class TestParseConfigText:
    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# header\n\nn=20\n  # indented comment\np=10\n")
        assert raw == {"n": "20", "p": "10"}

    def test_values_may_contain_equals(self):
        raw = parse_config_text("label=a=b\n")
        assert raw == {"label": "a=b"}

    def test_missing_separator_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("n=20\nbogus\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n=20\nn=30\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("=5\n")


class TestScalarParsers:
    def test_int_parses_and_rejects(self):
        assert parse_int("42") == 42
        with pytest.raises(ConfigError):
            parse_int("4.5")
        with pytest.raises(ConfigError):
            parse_int("abc")

    def test_float_rejects_nan_and_inf(self):
        assert parse_float("2.5") == 2.5
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError):
                parse_float(bad)

    def test_choice_restricts_values(self):
        parse = parse_choice("a", "b")
        assert parse("a") == "a"
        with pytest.raises(ConfigError):
            parse("c")

    def test_int_list_and_float_list(self):
        assert parse_int_list("1,2,3") == (1, 2, 3)
        assert parse_int_list("") == ()
        assert parse_float_list("0.5, 1.5") == (0.5, 1.5)
        with pytest.raises(ConfigError):
            parse_float_list("")


_OPTS = [
    Option("n", parse_int, 10),
    Option("rate", parse_float),
    Option("mode", parse_choice("fast", "slow"), "fast"),
]


class TestResolveOptions:
    def test_defaults_fill_missing_keys(self):
        resolved = resolve_options({"rate": "0.5"}, _OPTS, "demo")
        assert resolved == {"n": 10, "rate": 0.5, "mode": "fast"}

    def test_required_key_enforced(self):
        with pytest.raises(ConfigError, match="rate"):
            resolve_options({}, _OPTS, "demo")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_options({"rate": "1.0", "typo": "3"}, _OPTS, "demo")

    def test_command_tag_must_match(self):
        raw = {"command": "demo", "rate": "1.0"}
        assert resolve_options(raw, _OPTS, "demo")["rate"] == 1.0
        with pytest.raises(ConfigError):
            resolve_options({"command": "other", "rate": "1.0"}, _OPTS, "demo")

    def test_parse_error_names_the_key(self):
        with pytest.raises(ConfigError, match="'rate'"):
            resolve_options({"rate": "fast"}, _OPTS, "demo")


class TestSidecarRoundTrip:
    def test_format_then_parse_gives_same_resolution(self):
        resolved = resolve_options({"rate": "0.1", "n": "7"}, _OPTS, "demo")
        text = format_resolved(resolved, _OPTS, "demo")
        assert text.startswith("command=demo\n")
        again = resolve_options(parse_config_text(text), _OPTS, "demo")
        assert again == resolved

    def test_float_lists_round_trip_exactly(self):
        opts = [Option("grid", parse_float_list)]
        vals = (0.1, 1.0 / 3.0, 2.0**-40, 123456.789)
        text = format_resolved({"grid": vals}, opts, "demo")
        again = resolve_options(parse_config_text(text), opts, "demo")
        assert again["grid"] == vals


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_BY_PARSER = {
    parse_int: st.integers(-10**12, 10**12),
    parse_float: _FLOATS,
    parse_int_list: st.lists(st.integers(-1000, 1000), max_size=5).map(tuple),
    parse_float_list: st.lists(_FLOATS, min_size=1, max_size=5).map(tuple),
}
_CHOICES = {
    "regime": ("null", "sparse", "dense"),
    "signal": ("null", "sparse", "dense"),
    "mode": ("library", "decompose", "both"),
}
_COMMANDS = {
    "curves": (cli._CURVES_OPTIONS, ()),
    "simulate": (cli._SIM_OPTIONS, cli._SIM_PROCEDURES),
    "stein-check": (cli._STEIN_OPTIONS, cli._STEIN_PROCEDURES),
}


def _option_values(opt, procedures):
    if opt.parse in _BY_PARSER:
        return _BY_PARSER[opt.parse]
    if opt.name == "procedures":
        return st.lists(st.sampled_from(procedures), min_size=1, unique=True).map(tuple)
    if opt.name == "design":
        return st.sampled_from(("block", "orthogonal"))
    return st.sampled_from(_CHOICES[opt.name])


@st.composite
def _resolved(draw, command):
    options, procedures = _COMMANDS[command]
    return {opt.name: draw(_option_values(opt, procedures)) for opt in options}


class TestCommandSidecarRoundTrip:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_resolve_of_formatted_sidecar_is_identity(self, command, data):
        options = _COMMANDS[command][0]
        resolved = data.draw(_resolved(command))
        text = format_resolved(resolved, options, command)
        assert resolve_options(parse_config_text(text), options, command) == resolved


class TestReadConfig:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(str(tmp_path / "absent.txt"))

    def test_reads_and_parses(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("n=3\n# note\nrate=0.25\n")
        assert read_config(str(path)) == {"n": "3", "rate": "0.25"}
