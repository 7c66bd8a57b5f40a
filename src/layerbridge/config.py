"""Run configuration: JSON schema, env overrides, digests.

A run is fully described by one RunConfig. Files are plain JSON, built by
``files.build`` with strict unknown-key rejection at every nesting level, so
a typo in an ablation flag fails loudly instead of silently running the
wrong experiment. Environment variables prefixed LAYERBRIDGE_ override
single fields, with ``__`` as the nesting separator (e.g.
LAYERBRIDGE_DECODER__D_DEC=256).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthSpec
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import ConfigError
from .files import build, read_json_object
from .model import AblationFlags, BridgedModel
from .training import StageConfig

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
    stage1: StageConfig = field(default_factory=StageConfig)
    # Stage 2 runs at half the stage-1 rate. A bridge that already speaks the
    # ciphers only needs to adapt to the task format, and the halved rate is
    # enough for that; a bridge trained from scratch on task rows alone has
    # to escape a much worse starting point, which the same rate is too slow
    # to do in the epoch budget. That asymmetry is what the stage-comparison
    # experiment measures.
    stage2: StageConfig = field(default_factory=lambda: StageConfig(learning_rate=1e-2, epochs=6))
    data: DataConfig = field(default_factory=DataConfig)
    ablations: AblationFlags = field(default_factory=AblationFlags)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def run_config_from_dict(data: dict) -> RunConfig:
    return build(RunConfig(), data, "")


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
    data = {} if path is None else read_json_object(Path(path), ConfigError, "config")
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
        ablations=config.ablations,
        seed=config.seed,
    )
