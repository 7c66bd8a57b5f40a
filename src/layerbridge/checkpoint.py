"""Minimal binary checkpoint container with bit-exact round trips.

Layout: 4-byte magic, uint32 format version, uint64 header length, a
canonical JSON header (sorted keys, no whitespace), then the raw payload of
all tensors as little-endian float32, concatenated in header-table order.
Writes go through a temp file and an atomic rename so an interrupted run
never leaves a partial checkpoint behind.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ContractError, IngestionError

MAGIC = b"LBCK"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config_digest: str
    stage: str
    step: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> Path:
    path = Path(path)
    names = sorted(ckpt.tensors)
    if len(names) != len(set(names)):
        raise ContractError("duplicate tensor names in checkpoint")
    table = []
    payload = bytearray()
    for name in names:
        # asarray with order="C", not ascontiguousarray: the latter would
        # silently promote 0-d tensors to shape (1,) and break the round trip
        arr = np.asarray(ckpt.tensors[name], dtype="<f4", order="C")
        table.append(
            {"name": name, "shape": list(arr.shape), "dtype": "float32", "offset": len(payload)}
        )
        payload.extend(arr.tobytes())
    header = {
        "version": FORMAT_VERSION,
        "config_digest": ckpt.config_digest,
        "stage": ckpt.stage,
        "step": ckpt.step,
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(bytes(payload))
    os.replace(tmp, path)
    return path


def load_checkpoint(
    path: str | Path,
    expected_digest: str | None = None,
    force: bool = False,
) -> Checkpoint:
    """Read a checkpoint, refusing a config-digest mismatch unless forced."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as err:
        raise IngestionError(f"{path}: cannot read checkpoint: {err}") from err
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise IngestionError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise IngestionError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if header_end > len(blob):
        raise IngestionError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise IngestionError(f"{path}: corrupt checkpoint header: {err}") from err
    try:
        digest = header["config_digest"]
        stage, step = header["stage"], header["step"]
        table = [
            (str(e["name"]), tuple(int(n) for n in e["shape"]), int(e["offset"]))
            for e in header["tensors"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise IngestionError(f"{path}: malformed checkpoint header: {err!r}") from err
    if expected_digest is not None and digest != expected_digest and not force:
        raise ConfigError(
            f"{path}: checkpoint was written under config digest "
            f"{digest}, expected {expected_digest}; pass force to override"
        )
    payload = blob[header_end:]
    tensors: dict[str, np.ndarray] = {}
    for name, shape, start in table:
        if name in tensors:
            raise IngestionError(f"{path}: duplicate tensor {name!r}")
        if start < 0 or min(shape, default=0) < 0:
            raise IngestionError(f"{path}: negative offset or extent for tensor {name!r}")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise IngestionError(f"{path}: truncated payload for tensor {name!r}")
        try:
            tensors[name] = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape).copy()
        except ValueError as err:  # an empty shape numpy cannot represent
            raise IngestionError(f"{path}: bad shape {shape} for tensor {name!r}: {err}") from err
    return Checkpoint(config_digest=digest, stage=stage, step=step, tensors=tensors)


def checkpoint_from_params(
    params: dict[str, Tensor],
    config_digest: str,
    stage: str,
    step: int,
) -> Checkpoint:
    return Checkpoint(
        config_digest=config_digest,
        stage=stage,
        step=step,
        tensors={name: p.data.copy() for name, p in params.items()},
    )


def restore_params(params: dict[str, Tensor], ckpt: Checkpoint) -> None:
    """Copy checkpoint tensors into live parameters, matching names exactly."""
    missing = sorted(set(params) - set(ckpt.tensors))
    extra = sorted(set(ckpt.tensors) - set(params))
    if missing or extra:
        raise ContractError(
            f"checkpoint does not match model: missing {missing[:4]}, unexpected {extra[:4]}"
        )
    for name, p in params.items():
        value = ckpt.tensors[name]
        if value.shape != p.data.shape:
            raise ContractError(
                f"checkpoint tensor {name!r} has shape {value.shape}, model expects {p.data.shape}"
            )
        p.data[...] = value.astype(p.data.dtype)
