"""The one writer every output file goes through."""

from __future__ import annotations

from pathlib import Path


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
