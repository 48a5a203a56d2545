"""Parameter checkpoint format: exact round-trips and corruption rejection."""

import contextlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.checkpoint import load_parameters, save_parameters
from focusrank.errors import FormatError
from focusrank.ops import ParameterSet


def _sample_params():
    rng = np.random.default_rng(3)
    p = ParameterSet()
    p.add("enc.w", rng.normal(size=(4, 6)))
    p.add("enc.b", rng.normal(size=6))
    p.add("fusion.scale", np.array(0.0))
    p.add("odd.high_dim", rng.normal(size=(2, 3, 4)))
    return p


def test_round_trip_bit_exact(tmp_path):
    p = _sample_params()
    path = tmp_path / "ckpt.bin"
    save_parameters(p, path)
    loaded = load_parameters(path)
    state = p.state()
    assert list(loaded) == list(state)
    for name in state:
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], state[name])
        assert loaded[name].shape == state[name].shape


def test_round_trip_through_parameter_set(tmp_path):
    p = _sample_params()
    path = tmp_path / "ckpt.bin"
    save_parameters(p, path)
    q = _sample_params()
    for _, t in q.items():
        t.data = t.data + 1.0
    q.load_state(load_parameters(path))
    for name, t in q.items():
        assert np.array_equal(t.data, p[name].data)


def test_truncated_file_rejected(tmp_path):
    p = _sample_params()
    path = tmp_path / "ckpt.bin"
    save_parameters(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError):
        load_parameters(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_parameters(_sample_params(), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError):
        load_parameters(path)


def test_every_header_byte_is_protected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_parameters(_sample_params(), path)
    blob = bytearray(path.read_bytes())
    for offset in range(16):  # magic + version + count + crc
        corrupted = bytearray(blob)
        corrupted[offset] ^= 0xFF
        path.write_bytes(bytes(corrupted))
        with pytest.raises(FormatError):
            load_parameters(path)


def test_name_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_parameters({"w": np.zeros(2)}, path)
    blob = bytearray(path.read_bytes())
    blob[20] = 0xFF  # the name byte, after the header and its u32 length
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="utf-8"):
        load_parameters(path)


def test_duplicate_parameter_name_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_parameters({"w1": np.zeros(2), "w2": np.ones(2)}, path)
    blob = path.read_bytes()
    second = blob.index(b"w2") - 4  # the record's name length
    path.write_bytes(blob.replace(b"w2", b"w1"))
    with pytest.raises(FormatError, match="duplicate parameter 'w1'") as err:
        load_parameters(path)
    assert err.value.offset == second


def test_shape_whose_size_overflows_int64_rejected(tmp_path):
    # 2**31 * 2**31 * 2 wraps to a negative int64 element count.
    path = tmp_path / "ckpt.bin"
    save_parameters({"w": np.zeros((1, 1, 2))}, path)
    blob = bytearray(path.read_bytes())
    blob[25:37] = struct.pack("<3I", 2**31, 2**31, 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_parameters(path)


def test_empty_shape_too_big_for_numpy_rejected(tmp_path):
    # Zero elements, but numpy cannot represent 2**31 * 2**31 doubles.
    path = tmp_path / "ckpt.bin"
    save_parameters({"w": np.zeros((0, 1, 1))}, path)
    blob = bytearray(path.read_bytes())
    blob[25:37] = struct.pack("<3I", 0, 2**31, 2**31)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_parameters(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(tmp_path, bad):
    # A NaN delta_scale would turn every final score non-finite at ranking time.
    # The saver refuses such a value, so it is written into the last record.
    path = tmp_path / "ckpt.bin"
    save_parameters({"w": np.zeros(2), "fusion.delta_scale": np.array(0.0)}, path)
    path.write_bytes(path.read_bytes()[:-8] + np.array(bad, dtype="<f8").tobytes())
    record_at = 16 + (4 + 1 + 4 + 4 + 8 * 2)  # header, then the whole "w" record
    with pytest.raises(FormatError, match="'fusion.delta_scale'") as info:
        load_parameters(path)
    assert info.value.offset == record_at


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_not_saved(tmp_path, bad):
    # The loader would reject the file, so none is written.
    path = tmp_path / "ckpt.bin"
    with pytest.raises(FormatError, match="'w'"):
        save_parameters({"b": np.zeros(2), "w": [1.0, bad]}, path)
    assert not path.exists()


@settings(deadline=None, max_examples=400)
@given(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=3),
    st.booleans(),
)
def test_mutated_file_loads_or_raises_format_error(tmp_path_factory, mutations, reseal):
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    save_parameters(_sample_params(), path)
    blob = bytearray(path.read_bytes())
    for at, flip in mutations:
        blob[at % len(blob)] ^= flip
    if reseal:  # a fresh header CRC lets a body mutation reach the record parser
        blob[12:16] = struct.pack("<I", zlib.crc32(bytes(blob[:12])))
    path.write_bytes(bytes(blob))
    with contextlib.suppress(FormatError):
        load_parameters(path)
