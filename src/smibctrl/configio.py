"""Shared config and data file formats.

Config files hold one `key = value` per line, `#` starts a comment and
blank lines are ignored; each reader declares its keys as a schema of
`Key` entries for `read_config`.  Data files (datasets, traces, reports,
weights) are CSV tables of numbers under a fixed header.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, fields
from typing import Callable, NamedTuple

import numpy as np


class ConfigError(ValueError):
    """Malformed config file or unknown/invalid key."""


class Key(NamedTuple):
    """A config key: its parser `(key, raw) -> value`, its default (MISSING
    when required) and whether it repeats, collecting its values in a list."""

    parse: Callable
    default: object = MISSING
    repeat: bool = False


def read_pairs(path) -> list[tuple[str, str]]:
    """Parse a config file into an ordered list of (key, value) pairs."""
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, value = line.split("=", 1)
                key = key.strip()
                value = value.strip()
                if not key or not value:
                    raise ConfigError(f"{path}:{lineno}: empty key or value")
                pairs.append((key, value))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def read_config(path, kind: str, schema: dict) -> dict:
    """Map each key of the {key: Key} schema to its parsed value or default;
    unknown, missing required and duplicate keys raise ConfigError."""
    repeatable = {key for key, spec in schema.items() if spec.repeat}
    raw = as_map(read_pairs(path), repeatable=repeatable, kind=f"{kind} config")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown {kind} config key {key!r}")
    values = {}
    for key, spec in schema.items():
        if key in raw:
            values[key] = ([spec.parse(key, v) for v in raw[key]] if spec.repeat
                           else spec.parse(key, raw[key]))
        elif spec.default is MISSING:
            raise ConfigError(f"{kind} config is missing the {key!r} key")
        else:
            values[key] = spec.default
    return values


def fields_schema(cls) -> dict:
    """Schema of a dataclass's float/int fields, with their defaults."""
    parsers = {"float": parse_float, "int": parse_int}
    return {f.name: Key(parsers[f.type], f.default) for f in fields(cls)}


def as_map(pairs, *, repeatable=(), kind="config") -> dict:
    """Collapse pairs to a dict of raw strings; repeatable keys become
    lists, duplicates of other keys are an error."""
    out: dict = {}
    for key, value in pairs:
        if key in repeatable:
            out.setdefault(key, []).append(value)
        elif key in out:
            raise ConfigError(f"duplicate {kind} key {key!r}")
        else:
            out[key] = value
    return out


def parse_str(key, value) -> str:
    return value


def parse_float(key, value) -> float:
    """A finite float; `nan` and `inf` are config errors."""
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r}: not a finite number: {value!r}")
    return number


def parse_int(key, value) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {value!r}") from exc


def resolve_path(base_file, value) -> str:
    """Resolve a path value relative to the directory of the config file."""
    if os.path.isabs(value):
        return value
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(base_file)), value))


def read_table(path, columns, kind: str) -> np.ndarray:
    """Read a CSV of floats with the header `columns` into an (n, len(columns)) array."""
    header = ",".join(columns)
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            got = fh.readline().strip()
            if got != header:
                raise ConfigError(f"{path}: expected {kind} header {header!r}, got {got!r}")
            for lineno, line in enumerate(fh, start=2):
                if line.isspace():
                    continue
                parts = line.split(",")
                if len(parts) != len(columns):
                    raise ConfigError(f"{path}:{lineno}: malformed {kind} row {line.strip()!r}")
                try:
                    values.extend(map(float, parts))
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: non-numeric {kind} row {line.strip()!r}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    return np.array(values, dtype=float).reshape(-1, len(columns))


def write_table(path, header, columns) -> None:
    """Write columns of equal length under `header`, float columns at full
    precision and integer ones as integers, each formatted from `.tolist()`
    with no Python-level loop over values; the file is replaced atomically."""
    cells = (map(repr if a.dtype.kind == "f" else str, a.tolist()) for a in map(np.asarray, columns))
    lines = [",".join(header), *map(",".join, zip(*cells))]
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
