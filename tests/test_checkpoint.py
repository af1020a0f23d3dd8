import struct

import numpy as np
import pytest

from poet.checkpoint import MAGIC, VERSION, ContainerError, load_arrays, save_arrays


def test_roundtrip_preserves_values_shapes_and_order(tmp_path):
    path = str(tmp_path / "arrays.bin")
    arrays = {
        "alpha.weight": np.arange(12, dtype=np.float64).reshape(3, 4),
        "beta.bias": np.array([1.5]),
        "gamma": np.zeros((2, 1, 2)),
    }
    save_arrays(path, arrays)
    back = load_arrays(path)
    assert list(back) == list(arrays)
    for name in arrays:
        assert back[name].shape == arrays[name].shape
        assert back[name].tobytes() == arrays[name].tobytes()


def test_header_layout(tmp_path):
    path = str(tmp_path / "one.bin")
    save_arrays(path, {"w": np.array([2.0, 3.0])})
    raw = open(path, "rb").read()
    assert raw[:4] == MAGIC == b"POET"
    assert struct.unpack("<I", raw[4:8]) == (VERSION,)
    name_len = struct.unpack("<I", raw[8:12])[0]
    assert raw[12 : 12 + name_len] == b"w"
    rank = struct.unpack("<I", raw[13:17])[0]
    assert rank == 1
    assert struct.unpack("<I", raw[17:21]) == (2,)
    assert np.frombuffer(raw[21:], dtype="<f8").tolist() == [2.0, 3.0]


def test_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    arrays = {"x": np.linspace(0, 1, 7), "y": np.ones((2, 2))}
    save_arrays(a, arrays)
    save_arrays(b, arrays)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ContainerError, match="bad magic"):
        load_arrays(str(bad))

    path = tmp_path / "trunc.bin"
    save_arrays(str(path), {"w": np.ones(4)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ContainerError, match="truncated"):
        load_arrays(str(path))


def test_scalar_rank_zero(tmp_path):
    path = str(tmp_path / "scalar.bin")
    save_arrays(path, {"s": np.array(3.5)})
    back = load_arrays(path)
    assert back["s"].shape == () and float(back["s"]) == 3.5


class _FailsToEncode:
    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("encoding failed")


def test_failed_write_leaves_earlier_file_and_no_temporary(tmp_path):
    path = tmp_path / "ck.bin"
    save_arrays(str(path), {"a": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="encoding failed"):
        save_arrays(str(path), {"a": np.arange(4.0), "b": _FailsToEncode()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]
