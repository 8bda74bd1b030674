"""Append-only record logs: the on-disk form of campaign checkpoints.

A log is one file of framed records.  Each record is appended with one
``write`` and framed as::

    length (u32 LE) | crc32 of payload (u32 LE) | payload

and its payload is a JSON header followed by raw array bytes::

    header length (u32 LE) | header JSON | array bytes ...

The header holds the record's ``meta`` (a JSON object) and each array's
name, dtype string and shape.  Arrays are stored uncompressed and read
back with :func:`numpy.frombuffer`: nothing is pickled or zipped, so a
record costs what its arrays weigh.

A killed writer can leave a torn last record, and a damaged disk a bad
one anywhere.  :func:`read_records` keeps the whole, CRC-valid records
up to the first bad one and stops there; :meth:`RecordLog.append`
truncates the file to that point before its first append, so every
later record stays readable.

Only NumPy and the standard library are imported, so
:mod:`repro.core` can use this module without an import cycle.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = ["Record", "RecordLog", "read_records"]

_FRAME = struct.Struct("<II")
_U32 = struct.Struct("<I")


class Record(NamedTuple):
    """One decoded record and the file offset just past it."""

    meta: dict
    arrays: dict[str, np.ndarray]
    end: int


def _encode(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Frame one record: ``length | crc32 | header | array bytes``."""
    arrays = {name: np.asarray(a, order="C") for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.hasobject:
            raise TypeError(f"array {name!r} has an object dtype")
    header = json.dumps({
        "meta": meta,
        "arrays": [[name, a.dtype.str, list(a.shape)]
                   for name, a in arrays.items()],
    }, separators=(",", ":")).encode()
    payload = b"".join([_U32.pack(len(header)), header,
                        *(a.tobytes() for a in arrays.values())])
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(payload: memoryview) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`_encode` (after the frame); raises ``ValueError``."""
    (n_header,) = _U32.unpack_from(payload)
    pos = _U32.size + n_header
    header = json.loads(bytes(payload[_U32.size:pos]))
    if not isinstance(header.get("meta"), dict):
        raise ValueError("record metadata is not an object")
    arrays = {}
    for name, dtype, shape in header["arrays"]:
        dtype = np.dtype(dtype)  # frombuffer refuses object dtypes
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if pos + nbytes > len(payload):
            raise ValueError(f"array {name!r} overruns its record")
        arrays[name] = np.frombuffer(payload[pos:pos + nbytes],
                                     dtype=dtype).reshape(shape)
        pos += nbytes
    if pos != len(payload):
        raise ValueError("record has trailing bytes")
    return header["meta"], arrays


def _scan(data: bytes) -> tuple[list[Record], int]:
    """Whole, CRC-valid records of ``data`` up to the first bad one, and
    the offset just past the last of them."""
    records: list[Record] = []
    view = memoryview(data)
    pos = 0
    while pos + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(view, pos)
        end = pos + _FRAME.size + length
        if end > len(data):
            break  # torn tail
        payload = view[pos + _FRAME.size:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            meta, arrays = _decode(payload)
        except (ValueError, TypeError, KeyError, AttributeError,
                struct.error):
            break
        records.append(Record(meta, arrays, end))
        pos = end
    return records, pos


def read_records(path: str | Path) -> list[Record]:
    """Every whole, CRC-valid record of the log at ``path``, in order.

    A missing file reads as an empty log.  Reading never modifies the
    file, so a monitor may poll a log that a campaign is appending to.
    """
    return RecordLog(path).read()


class RecordLog:
    """The writer's handle on one log file.

    :meth:`read` returns the log's records and remembers where the valid
    part ends; the first :meth:`append` after it truncates anything
    beyond that point (a torn or corrupt tail) before writing.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._valid_end: int | None = None
        self._read = False

    def read(self) -> list[Record]:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        records, end = _scan(data)
        self._valid_end = end if end < len(data) else None
        self._read = True
        return records

    def append(self, meta: dict, **arrays: np.ndarray) -> int:
        """Append one record with a single write; returns its size in bytes."""
        if not self._read:
            self.read()
        frame = _encode(meta, arrays)
        with open(self.path, "ab", buffering=0) as fh:
            if self._valid_end is not None:
                fh.truncate(self._valid_end)
                self._valid_end = None
            written = fh.write(frame)
        if written != len(frame):
            raise OSError(f"short write to {self.path}: {written} of "
                          f"{len(frame)} bytes")
        return len(frame)
