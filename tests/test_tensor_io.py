"""Tensor container format: exact layout, round trips, error paths."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from planarseg.tensor_io import TensorFormatError, read_tensor, write_tensor


class TestHeaderLayout:
    def test_identity_matrix_layout(self, tmp_path):
        path = tmp_path / "eye.pten"
        write_tensor(path, np.eye(2, dtype=np.float64))
        raw = path.read_bytes()
        # header: magic(4) + version(1) + dtype(1) + ndim(1) + 2 dims(16)
        assert raw[:4] == b"PTEN"
        assert raw[4] == 1  # version
        assert raw[5] == 1  # float64 code
        assert raw[6] == 2  # ndim
        assert struct.unpack("<2Q", raw[7:23]) == (2, 2)
        payload = np.frombuffer(raw[23:], dtype="<f8")
        assert payload.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_dtype_codes(self, tmp_path):
        for code, dtype in [(1, np.float64), (2, np.float32), (3, np.int32), (4, np.uint8)]:
            path = tmp_path / f"code{code}.pten"
            write_tensor(path, np.ones(3, dtype=dtype))
            assert path.read_bytes()[5] == code

    def test_zero_length_dim_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="dimensions"):
            write_tensor(tmp_path / "z.pten", np.zeros((2, 0)))

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="unsupported dtype"):
            write_tensor(tmp_path / "c.pten", np.zeros(3, dtype=np.complex128))


class TestRoundTrip:
    def test_bit_identical_floats(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = rng.normal(size=(5, 7))
        path = tmp_path / "t.pten"
        write_tensor(path, tensor)
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert back.tobytes() == tensor.tobytes()

    def test_embedding_sized_tensor(self, tmp_path):
        rng = np.random.default_rng(1)
        tensor = rng.normal(size=(192, 256, 2))
        path = tmp_path / "emb.pten"
        write_tensor(path, tensor)
        np.testing.assert_array_equal(read_tensor(path), tensor)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float64, np.float32, np.int32, np.uint8]),
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    )
    def test_any_supported_tensor(self, tmp_path_factory, data, dtype, shape):
        if np.issubdtype(dtype, np.floating):
            elements = st.floats(
                -1e6, 1e6, allow_nan=False, width=32 if dtype == np.float32 else 64
            )
        else:
            info = np.iinfo(dtype)
            elements = st.integers(info.min, info.max)
        tensor = data.draw(arrays(dtype=dtype, shape=tuple(shape), elements=elements))
        path = tmp_path_factory.mktemp("rt") / "t.pten"
        write_tensor(path, tensor)
        back = read_tensor(path)
        assert back.dtype == tensor.dtype
        assert back.shape == tensor.shape
        np.testing.assert_array_equal(back, tensor)

    def test_non_contiguous_input(self, tmp_path):
        tensor = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        path = tmp_path / "nc.pten"
        write_tensor(path, tensor)
        np.testing.assert_array_equal(read_tensor(path), tensor)


class TestReadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pten"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(TensorFormatError, match="bad magic"):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.pten"
        path.write_bytes(b"PTEN" + bytes([9, 1, 1]) + struct.pack("<Q", 1) + bytes(8))
        with pytest.raises(TensorFormatError, match="version"):
            read_tensor(path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "d9.pten"
        path.write_bytes(b"PTEN" + bytes([1, 9, 1]) + struct.pack("<Q", 1) + bytes(8))
        with pytest.raises(TensorFormatError, match="dtype code"):
            read_tensor(path)

    def test_zero_dimensional_header(self, tmp_path):
        # A 0-d header with one float64 payload would read back as a
        # shape-() array, which write_tensor refuses to write.
        path = tmp_path / "scalar.pten"
        path.write_bytes(b"PTEN" + bytes([1, 1, 0]) + struct.pack("<d", 1.5))
        with pytest.raises(TensorFormatError, match="at least one dimension") as err:
            read_tensor(path)
        assert str(path) in str(err.value)
        with pytest.raises(TensorFormatError, match="dimensions"):
            write_tensor(tmp_path / "out.pten", np.float64(1.5))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "tr.pten"
        write_tensor(path, np.ones((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TensorFormatError, match="truncated payload"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "th.pten"
        path.write_bytes(b"PTEN" + bytes([1, 1]))
        with pytest.raises(TensorFormatError, match="too short"):
            read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "tg.pten"
        write_tensor(path, np.ones(2))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(TensorFormatError, match="trailing"):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_tensor(tmp_path / "absent.pten")
