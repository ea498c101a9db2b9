"""Self-describing binary tensor files.

Layout: magic ``PTEN``, version byte, dtype code byte, ndim byte, then
ndim little-endian u64 dimensions, then the row-major payload in
little-endian byte order. Supported dtype codes: 1 = float64,
2 = float32, 3 = int32, 4 = uint8.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

__all__ = ["write_tensor", "read_tensor", "TensorFormatError"]

MAGIC = b"PTEN"
VERSION = 1

_CODE_TO_DTYPE = {
    1: np.dtype("<f8"),
    2: np.dtype("<f4"),
    3: np.dtype("<i4"),
    4: np.dtype("u1"),
}
_KIND_TO_CODE = {
    np.dtype(np.float64): 1,
    np.dtype(np.float32): 2,
    np.dtype(np.int32): 3,
    np.dtype(np.uint8): 4,
}


class TensorFormatError(ValueError):
    """Raised for malformed tensor files or unsupported tensors."""


def write_tensor(path: Union[str, Path], tensor: np.ndarray) -> None:
    """Write ``tensor`` to ``path`` in the PTEN container format."""
    arr = np.asarray(tensor)
    code = _KIND_TO_CODE.get(arr.dtype.newbyteorder("="))
    if code is None:
        raise TensorFormatError(
            f"unsupported dtype {arr.dtype}; expected one of "
            "float64, float32, int32, uint8"
        )
    if arr.ndim < 1 or any(dim < 1 for dim in arr.shape):
        raise TensorFormatError(f"all dimensions must be >= 1, got shape {arr.shape}")
    if arr.ndim > 255:
        raise TensorFormatError("too many dimensions")
    header = MAGIC + struct.pack("<BBB", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code]).tobytes()
    Path(path).write_bytes(header + payload)


def read_tensor(path: Union[str, Path]) -> np.ndarray:
    """Read a PTEN file back into an array; inverse of :func:`write_tensor`."""
    raw = Path(path).read_bytes()
    if len(raw) < 7:
        raise TensorFormatError(f"{path}: file too short for a tensor header")
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, code, ndim = struct.unpack("<BBB", raw[4:7])
    if version != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise TensorFormatError(f"{path}: unknown dtype code {code}")
    if ndim < 1:
        raise TensorFormatError(f"{path}: a tensor needs at least one dimension")
    dims_end = 7 + 8 * ndim
    if len(raw) < dims_end:
        raise TensorFormatError(f"{path}: truncated dimension list")
    shape = struct.unpack(f"<{ndim}Q", raw[7:dims_end])
    if any(dim < 1 for dim in shape):
        raise TensorFormatError(f"{path}: zero-sized dimension in {shape}")
    count = 1
    for dim in shape:
        count *= dim
    expected = count * dtype.itemsize
    payload = raw[dims_end:]
    if len(payload) < expected:
        raise TensorFormatError(
            f"{path}: truncated payload, expected {expected} bytes, "
            f"got {len(payload)}"
        )
    if len(payload) > expected:
        raise TensorFormatError(f"{path}: trailing bytes after payload")
    flat = np.frombuffer(payload, dtype=dtype, count=count)
    return flat.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
