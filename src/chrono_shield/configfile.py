"""Plain key=value config files mapped onto the dataclass configs.

Lines are `key = value`, blank lines and `#` comments ignored. Keys are
namespaced with dots (`train.epochs=10`, `attack.swarm=20`); a consumer
picks its namespace and applies the rest onto a dataclass instance, with
values coerced to the annotated field types.
"""

from __future__ import annotations

import dataclasses
import typing


class BadConfigLine(ValueError):
    pass


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


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(value: str, annotation) -> object:
    origin = typing.get_origin(annotation)
    if origin is typing.Union:  # includes Optional
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value.lower() in {"none", "null", ""}:
            return None
        return _coerce(value, args[0])
    if origin is tuple:
        inner = typing.get_args(annotation)
        elem = inner[0] if inner else str
        parts = [p.strip() for p in value.split(",") if p.strip()]
        return tuple(_coerce(p, elem) for p in parts)
    if annotation is bool:
        low = value.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise BadConfigLine(f"expected a boolean, got {value!r}")
    if annotation in (int, float):
        try:
            return annotation(value)
        except ValueError:
            raise BadConfigLine(f"expected {annotation.__name__}, got {value!r}") from None
    return value


def apply_overrides(config, values: dict[str, str], prefix: str = ""):
    """Return a copy of the dataclass with matching keys replaced.

    Only keys under `prefix.` (or all keys when prefix is empty) are
    consumed; a key that names no field raises UnknownConfigKey.
    """
    fields = {f.name: f for f in dataclasses.fields(config)}
    hints = typing.get_type_hints(type(config))
    updates = {}
    for key, value in values.items():
        if prefix:
            if not key.startswith(prefix + "."):
                continue
            name = key[len(prefix) + 1 :]
        else:
            name = key
        if "." in name:
            continue
        if name not in fields:
            raise UnknownConfigKey(f"{key!r} does not match a field of {type(config).__name__}")
        try:
            updates[name] = _coerce(value, hints[fields[name].name])
        except BadConfigLine as exc:
            raise BadConfigLine(f"{key}: {exc}") from None
    if not updates:
        return config
    return dataclasses.replace(config, **updates)
