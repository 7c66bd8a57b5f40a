"""Checkpoint container: byte-exact round trips, digest refusal, and the
failure modes of damaged files.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerbridge.autodiff import Tensor
from layerbridge.checkpoint import (
    Checkpoint,
    checkpoint_from_params,
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from layerbridge.errors import ConfigError, ContractError, IngestionError


def make_ckpt():
    rng = np.random.default_rng(5)
    return Checkpoint(
        config_digest="abc123",
        stage="translation",
        step=42,
        tensors={
            "adapter.w": rng.normal(size=(3, 4)).astype(np.float32),
            "gates": rng.normal(size=(2,)).astype(np.float32),
            "scalar": np.array(1.25, dtype=np.float32),
        },
    )


def test_round_trip_preserves_everything(tmp_path):
    ckpt = make_ckpt()
    path = save_checkpoint(tmp_path / "m.ckpt", ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config_digest == "abc123"
    assert loaded.stage == "translation"
    assert loaded.step == 42
    assert sorted(loaded.tensors) == sorted(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert loaded.tensors[name].dtype == np.float32
        assert loaded.tensors[name].shape == arr.shape  # 0-d stays 0-d
        assert np.array_equal(loaded.tensors[name], arr)


def test_save_load_save_is_byte_identical(tmp_path):
    ckpt = make_ckpt()
    save_checkpoint(tmp_path / "a.ckpt", ckpt)
    save_checkpoint(tmp_path / "b.ckpt", load_checkpoint(tmp_path / "a.ckpt"))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_tensor_order_does_not_matter(tmp_path):
    ckpt = make_ckpt()
    reversed_tensors = dict(reversed(list(ckpt.tensors.items())))
    save_checkpoint(tmp_path / "a.ckpt", ckpt)
    save_checkpoint(
        tmp_path / "b.ckpt",
        Checkpoint(ckpt.config_digest, ckpt.stage, ckpt.step, reversed_tensors),
    )
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_no_tmp_file_left_behind(tmp_path):
    save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_digest_mismatch_refused_unless_forced(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    with pytest.raises(ConfigError, match="digest"):
        load_checkpoint(path, expected_digest="something-else")
    loaded = load_checkpoint(path, expected_digest="something-else", force=True)
    assert loaded.config_digest == "abc123"
    # matching digest passes without force
    assert load_checkpoint(path, expected_digest="abc123").step == 42


def test_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_bad_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(IngestionError, match="magic"):
        load_checkpoint(p)


def test_too_short_file(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"LBCK\x01")
    with pytest.raises(IngestionError, match="magic"):
        load_checkpoint(p)


def test_unsupported_version(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(IngestionError, match="version 99"):
        load_checkpoint(path)


def test_truncated_header(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    blob = bytearray(path.read_bytes())
    blob[8:16] = struct.pack("<Q", len(blob) * 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(IngestionError, match="truncated checkpoint header"):
        load_checkpoint(path)


def test_corrupt_header_json(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    blob = bytearray(path.read_bytes())
    blob[16] = ord("?")
    path.write_bytes(bytes(blob))
    with pytest.raises(IngestionError, match="corrupt checkpoint header"):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(IngestionError, match="truncated payload"):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Replace the JSON header of the checkpoint at ``path`` with ``edit(header)``."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = edit(json.loads(blob[16 : 16 + header_len]))
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new_header)) + new_header + blob[16 + header_len :])


def test_duplicate_tensor_entry(tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    rewrite_header(path, lambda h: {**h, "tensors": h["tensors"] + [h["tensors"][0]]})
    with pytest.raises(IngestionError, match="duplicate tensor"):
        load_checkpoint(path)


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


MALFORMED_HEADERS = {
    "no tensors": lambda h: _without(h, "tensors"),
    "no config_digest": lambda h: _without(h, "config_digest"),
    "no shape": lambda h: {**h, "tensors": [_without(h["tensors"][0], "shape")]},
    "header is a list": lambda h: [h],
    "negative offset": lambda h: {**h, "tensors": [{**h["tensors"][0], "offset": -8}]},
    "negative extent": lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [-1, 4]}]},
    # a digit flipped to an exponent, "300E400", parses as infinity
    "infinite extent": lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [float("inf"), 4]}]},
    "empty tensor too wide for numpy": lambda h: {**h, "tensors": [{**h["tensors"][0], "shape": [0, 2**70]}]},
}


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_header_is_ingestion_error(tmp_path, edit):
    path = save_checkpoint(tmp_path / "m.ckpt", make_ckpt())
    rewrite_header(path, edit)
    with pytest.raises(IngestionError, match="m.ckpt"):
        load_checkpoint(path, expected_digest="abc123")


# bytes that turn a header digit, bracket or quote into other valid JSON
# (an exponent, a sign, a float) as well as arbitrary ones
DAMAGE_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(list(b'-.0123456789eE[]{}",:')))


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_bytes_load_or_raise_ingestion_error(tmp_path, data):
    ckpt = make_ckpt()
    # multi-digit extents and offsets give a flipped byte room to make big numbers
    ckpt.tensors["adapter.w"] = np.zeros((30, 400), dtype=np.float32)
    path = save_checkpoint(tmp_path / "m.ckpt", ckpt)
    blob = bytearray(path.read_bytes())
    # payload bytes are any float32 values; the header is where damage can bite
    header_end = 16 + struct.unpack_from("<Q", blob, 8)[0]
    for at, byte in data.draw(st.lists(st.tuples(st.integers(0, header_end - 1), DAMAGE_BYTES), max_size=4)):
        blob[at] = byte
    path.write_bytes(blob[: data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))])
    try:
        loaded = load_checkpoint(path)
    except IngestionError:
        return
    assert isinstance(loaded, Checkpoint)


def test_duplicate_names_refused_on_save(tmp_path):
    ckpt = make_ckpt()
    save = dict(ckpt.tensors)

    class Doubled(dict):
        def __iter__(self):
            yield from list(save) + [next(iter(save))]

    ckpt.tensors = Doubled(save)
    with pytest.raises(ContractError, match="duplicate"):
        save_checkpoint(tmp_path / "m.ckpt", ckpt)


def params_like(ckpt):
    return {name: Tensor(np.zeros_like(arr)) for name, arr in ckpt.tensors.items()}


def test_checkpoint_from_params_copies():
    params = {"w": Tensor(np.ones((2, 2), dtype=np.float32))}
    ckpt = checkpoint_from_params(params, "d", "task", 7)
    params["w"].data[...] = 5.0
    assert np.array_equal(ckpt.tensors["w"], np.ones((2, 2)))
    assert (ckpt.config_digest, ckpt.stage, ckpt.step) == ("d", "task", 7)


def test_restore_params_round_trip():
    ckpt = make_ckpt()
    params = params_like(ckpt)
    restore_params(params, ckpt)
    for name, p in params.items():
        assert np.array_equal(p.data, ckpt.tensors[name])


def test_restore_rejects_missing_and_extra():
    ckpt = make_ckpt()
    params = params_like(ckpt)
    del params["gates"]
    params["rogue"] = Tensor(np.zeros(3, dtype=np.float32))
    with pytest.raises(ContractError, match=r"missing \['rogue'\], unexpected \['gates'\]"):
        restore_params(params, ckpt)


def test_restore_rejects_shape_mismatch():
    ckpt = make_ckpt()
    params = params_like(ckpt)
    params["gates"] = Tensor(np.zeros((3,), dtype=np.float32))
    with pytest.raises(ContractError, match="shape"):
        restore_params(params, ckpt)
