"""Plain key=value config files mapped onto the dataclass configs.

Lines are `key = value`, blank lines and `#` comments ignored. A key is
`<namespace>.<field>` (`train.epochs=10`, `attack.swarm=20`): each
consumer applies its namespace's keys onto a dataclass instance, with
values coerced to the annotated field types.
"""

from __future__ import annotations

import dataclasses
import math
import typing


class BadConfigLine(ValueError):
    pass


class InvalidConfig(ValueError):
    """A stage config value outside what its stage can run with."""


class UnknownConfigKey(KeyError):
    def __str__(self):  # KeyError's own str() is the repr of its message
        return str(self.args[0])


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfigLine(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise BadConfigLine(f"line {lineno}: empty key")
        values[key] = value
    return values


def parse_config_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _coerce(value: str, annotation) -> object:
    if typing.get_origin(annotation) is tuple:
        elem = typing.get_args(annotation)[0]
        parts = [p.strip() for p in value.split(",") if p.strip()]
        return tuple(_coerce(p, elem) for p in parts)
    if annotation in (int, float):
        try:
            number = annotation(value)
        except ValueError:
            raise BadConfigLine(f"expected {annotation.__name__}, got {value!r}") from None
        # A NaN compares false with everything, so it would pass every range check.
        if annotation is float and not math.isfinite(number):
            raise BadConfigLine(f"expected a finite number, got {value!r}")
        return number
    return value


def check_namespaces(values: dict[str, str], namespaces) -> None:
    """Raise UnknownConfigKey for a key outside every namespace."""
    for key in values:
        if key.partition(".")[0] not in namespaces:
            raise UnknownConfigKey(f"{key!r} is not under one of the namespaces {', '.join(namespaces)}")


def apply_overrides(config, values: dict[str, str], prefix: str):
    """A copy of the dataclass with each `prefix.<field>` key applied.

    Keys under other prefixes are left alone; a key under prefix that
    names no field, a deeper dotted path included, raises UnknownConfigKey.
    """
    fields = {f.name for f in dataclasses.fields(config)}
    hints = typing.get_type_hints(type(config))
    updates = {}
    for key, value in values.items():
        namespace, _, name = key.partition(".")
        if namespace != prefix:
            continue
        if name not in fields:
            raise UnknownConfigKey(f"{key!r} does not match a field of {type(config).__name__}")
        try:
            updates[name] = _coerce(value, hints[name])
        except BadConfigLine as exc:
            raise BadConfigLine(f"{key}: {exc}") from None
    return dataclasses.replace(config, **updates) if updates else config
