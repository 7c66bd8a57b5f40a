"""The one output writer: whole payloads land at once, failures leave the old file."""

import numpy as np
import pytest

from layerbridge.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from layerbridge.files import write_atomic
from conftest import fail_file_writes


def test_write_atomic_writes_str_as_utf8_and_bytes_verbatim(tmp_path):
    text_path = write_atomic(tmp_path / "a.csv", "x,ü\n")
    blob_path = write_atomic(str(tmp_path / "b.bin"), b"\x00\xff")
    assert text_path == tmp_path / "a.csv"
    assert text_path.read_bytes() == "x,ü\n".encode("utf-8")
    assert blob_path.read_bytes() == b"\x00\xff"


def test_write_atomic_creates_parents_and_replaces(tmp_path):
    path = tmp_path / "deep" / "er" / "out.txt"
    write_atomic(path, "first\n")
    write_atomic(path, "second\n")
    assert path.read_text() == "second\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]


def test_failed_temp_write_keeps_old_bytes_and_cleans_up(tmp_path, monkeypatch):
    path = write_atomic(tmp_path / "out.txt", "old contents\n")
    fail_file_writes(monkeypatch)
    with pytest.raises(OSError):
        write_atomic(path, "new contents that never land\n")
    assert path.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_checkpoint_serialisation_error_touches_no_file(tmp_path):
    path = save_checkpoint(tmp_path / "c.bin", Checkpoint("d", "translation", 1, {"w": np.ones(3)}))
    before = path.read_bytes()
    bad = Checkpoint("d", "translation", 2, {"w": np.array(["not", "a", "number"])})
    with pytest.raises(ValueError):
        save_checkpoint(path, bad)
    assert path.read_bytes() == before
    assert load_checkpoint(path).step == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]
