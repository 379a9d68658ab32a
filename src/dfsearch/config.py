"""Flat key=value experiment configuration.

One option per line, ``key=value``, with blank lines and ``#`` comments
ignored.  Parsing is strict: duplicate keys, unknown keys, missing required
keys, and unparseable values all raise ConfigError.  Every run writes back
its fully resolved configuration (defaults filled in), and that sidecar is
itself a valid config that reproduces the run byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "Option",
    "REQUIRED",
    "parse_config_text",
    "read_config",
    "resolve_options",
    "format_resolved",
    "parse_int",
    "parse_float",
    "parse_choice",
    "parse_int_list",
    "parse_float_list",
]

REQUIRED = object()


def parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def parse_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None
    if v != v or v in (float("inf"), float("-inf")):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return v


def parse_choice(*choices: str):
    def parse(s: str) -> str:
        if s not in choices:
            raise ConfigError(f"expected one of {', '.join(choices)}; got {s!r}")
        return s

    return parse


def _parse_list(item_parse, empty_ok: bool):
    def parse(s: str):
        s = s.strip()
        if not s:
            if empty_ok:
                return ()
            raise ConfigError("expected a comma-separated list, got an empty value")
        return tuple(item_parse(part.strip()) for part in s.split(","))

    return parse


def parse_int_list(s: str):
    return _parse_list(parse_int, empty_ok=True)(s)


def parse_float_list(s: str):
    return _parse_list(parse_float, empty_ok=False)(s)


@dataclass(frozen=True)
class Option:
    """One recognized configuration key: its parser and default (REQUIRED
    means the config must supply it)."""

    name: str
    parse: object
    default: object = REQUIRED


def parse_config_text(text: str) -> dict:
    """Raw key=value pairs from config text, order preserved."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config_text(text)


def resolve_options(raw: dict, options: list, command: str) -> dict:
    """Validate raw pairs against the command's options and fill defaults.

    A ``command`` key is accepted in the raw config (resolved sidecars carry
    one) but must match the command being run.
    """
    known = {opt.name: opt for opt in options}
    resolved: dict = {}
    for key, value in raw.items():
        if key == "command":
            if value != command:
                raise ConfigError(
                    f"config is for command {value!r}, not {command!r}"
                )
            continue
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        try:
            resolved[key] = known[key].parse(value)
        except ConfigError as err:
            raise ConfigError(f"key {key!r}: {err}") from None
    for opt in options:
        if opt.name not in resolved:
            if opt.default is REQUIRED:
                raise ConfigError(f"missing required key {opt.name!r} for {command!r}")
            resolved[opt.name] = opt.default
    return resolved


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def format_resolved(resolved: dict, options: list, command: str) -> str:
    """Canonical sidecar text: the command followed by every option in
    schema order.  Floats are written in round-trip form, so re-running
    from the sidecar resolves to identical values."""
    lines = [f"command={command}"]
    for opt in options:
        lines.append(f"{opt.name}={_format_value(resolved[opt.name])}")
    return "\n".join(lines) + "\n"
