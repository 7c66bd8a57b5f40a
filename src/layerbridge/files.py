"""The file layer: the one writer every output file goes through, and the one
typed reader every JSON input (config file, override, corpus spec) goes
through on its way to a dataclass."""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path

from .errors import ConfigError


def write_atomic(path: str | Path, payload: str | bytes) -> Path:
    """Write ``payload`` (``str`` as UTF-8) to ``path`` + ".tmp", creating
    parent directories, then rename it over ``path``; a failed write leaves
    any earlier file at ``path`` whole and no temp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload.encode("utf-8") if isinstance(payload, str) else payload)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return tmp.replace(path)


def read_json_object(path: Path, error: type[Exception], what: str) -> dict:
    """The JSON object the file at ``path`` holds; an unreadable file, invalid
    JSON or a top level that is not an object raises ``error`` naming the
    path, and the line of a syntax error."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"{path}: cannot read {what}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise error(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: top level: expected an object, got {type(data).__name__}")
    return data


# the JSON type each leaf annotation admits; a bool is never taken as a number
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "tuple[str, ...]": (list, tuple), "dict[str, str]": dict}


def build(base, data: dict, path: str):
    """``base`` with the fields a JSON object sets replaced; a field whose type
    is a dataclass is a nested section, built the same way over ``base``'s
    value, so an omitted key keeps the enclosing default, not its class's.
    Any bad key or value raises ``ConfigError`` at its dotted ``path``."""
    cls = type(base)
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object, got {type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{path or 'top level'}: unknown keys {unknown}")
    kwargs = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = build(getattr(base, key), value, dotted)
            continue
        kind = _JSON_TYPES[types[key].removesuffix(" | None")]
        # the two container leaves hold strings only
        items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
        if not (value is None and types[key].endswith(" | None")) and (
            not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
            or not all(isinstance(item, str) for item in items)
        ):
            raise ConfigError(f"{dotted}: expected {types[key]}, got {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return dataclasses.replace(base, **kwargs)
    except TypeError as err:
        raise ConfigError(f"{path or 'top level'}: {err}") from err
    except ConfigError as err:
        # a section's own check names a field, not the section holding it
        if not path:
            raise
        raise ConfigError(f"{path}: {err}") from err
