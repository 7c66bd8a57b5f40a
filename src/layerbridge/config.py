"""Run configuration: JSON schema, env overrides, digests.

A run is fully described by one RunConfig. Files are plain JSON with strict
unknown-key rejection at every nesting level, so a typo in an ablation flag
fails loudly instead of silently running the wrong experiment. Environment
variables prefixed LAYERBRIDGE_ override single fields, with ``__`` as the
nesting separator (e.g. LAYERBRIDGE_DECODER__D_DEC=256).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthSpec
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import ConfigError
from .model import AblationFlags, BridgedModel, BridgeSettings
from .training import STAGE2_DEFAULT_LR, StageConfig

ENV_PREFIX = "LAYERBRIDGE_"


@dataclass
class DataConfig:
    """Either an inline synthetic spec or a directory of corpus files."""

    corpus_dir: str | None = None
    synth: SynthSpec = field(default_factory=SynthSpec)


@dataclass
class DiagnosticsConfig:
    plots: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    bridge: BridgeSettings = field(default_factory=BridgeSettings)
    stage1: StageConfig = field(default_factory=StageConfig)
    stage2: StageConfig = field(default_factory=lambda: StageConfig(learning_rate=STAGE2_DEFAULT_LR))
    data: DataConfig = field(default_factory=DataConfig)
    ablations: AblationFlags = field(default_factory=AblationFlags)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


# the JSON type each leaf annotation admits; a bool is never taken as a number
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "tuple[str, ...]": (list, tuple), "dict[str, str]": dict}


def _build(base, data: dict, path: str):
    """``base`` with the fields a JSON object sets replaced; a field whose type
    is a dataclass is a nested section, built the same way over ``base``'s
    value, so an omitted key keeps the enclosing default, not its class's."""
    cls = type(base)
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
    kwargs = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _build(getattr(base, key), value, dotted)
            continue
        kind = _JSON_TYPES[types[key].removesuffix(" | None")]
        if not (value is None and types[key].endswith(" | None")) and (
            not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
        ):
            raise ConfigError(f"{dotted}: expected {types[key]}, got {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return dataclasses.replace(base, **kwargs)
    except TypeError as err:
        raise ConfigError(f"{path or 'config'}: {err}") from err


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig(), data, "")


def _parse_env_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_env_overrides(data: dict, environ=None) -> dict:
    """Fold LAYERBRIDGE_* variables into a raw config dict (lowest wins last)."""
    environ = os.environ if environ is None else environ
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        parts = [p.lower() for p in name[len(ENV_PREFIX):].split("__")]
        if not all(parts):
            raise ConfigError(f"malformed override variable {name}")
        node = data
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{name}: {part} is not a config section")
        node[parts[-1]] = _parse_env_value(environ[name])
    return data


def load_run_config(path: str | Path | None, environ=None) -> RunConfig:
    """Config file plus env overrides; either part may be absent."""
    if path is None:
        data: dict = {}
    else:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"{path}: cannot read config: {err}") from err
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
    apply_env_overrides(data, environ)
    return run_config_from_dict(data)


def config_digest(config: RunConfig) -> str:
    """Digest of the parts that determine parameters and data.

    Output directory and diagnostics toggles are excluded: they change where
    results land, not what the model is.
    """
    payload = dataclasses.asdict(config)
    payload.pop("out_dir")
    payload.pop("diagnostics")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_model(config: RunConfig) -> BridgedModel:
    return BridgedModel(
        enc_config=config.encoder,
        dec_config=config.decoder,
        settings=config.bridge,
        ablations=config.ablations,
        seed=config.seed,
    )
