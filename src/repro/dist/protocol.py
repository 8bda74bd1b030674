"""Wire protocol of the distributed campaign plane.

Coordinator and nodes speak length-prefixed JSON frames over a plain TCP
stream: an 8-byte big-endian length header followed by a UTF-8 JSON
body.  NumPy arrays embed losslessly as ``{"__nd__": [dtype, shape,
base64(bytes)]}`` — campaign payloads (experiment index chunks, outcome
grids, aggregator partials) round-trip bit-exactly, which is what makes
the coordinator's merged boundary bit-identical to a single-node run.

Message vocabulary (the ``type`` field):

=================  ======  =================================================
type               dir     meaning
=================  ======  =================================================
``hello``          n → c   node registration: id, pid, worker count,
                           protocol version
``welcome``        c → n   campaign workload: ``(kernel, params)`` spec +
                           expected content key, heartbeat interval
``lease``          c → n   one chunk lease: lease id, task kind
                           (``phase_a``, ``phase_b`` or ``round``) and
                           payload, content key, deadline
``result``         n → c   a completed lease's reduced arrays, keyed by
                           the task's content key
``task_error``     n → c   the task raised on the node (repr attached)
``node_error``     n → c   the node itself cannot serve (e.g. workload
                           key mismatch); connection is abandoned
``heartbeat``      n → c   liveness beacon (any frame refreshes liveness)
``shutdown``       c → n   campaign plane closing; node exits its loop
=================  ======  =================================================

Framing errors (truncated header/body, oversized frames, non-JSON
bodies) raise :class:`ProtocolError`; a clean EOF between frames returns
``None`` from :func:`recv_msg` so callers can tell an orderly disconnect
from a torn one.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any

import numpy as np

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_payload",
    "encode_payload",
    "recv_msg",
    "send_msg",
]

#: Bumped on any incompatible frame/message change; ``hello`` carries it
#: and the coordinator rejects mismatched nodes at registration.  Version
#: 2 added the ``round`` lease kind, which a version-1 node cannot serve.
PROTOCOL_VERSION = 2

#: Upper bound on one frame; campaign frames are index arrays and reduced
#: grids (kilobytes to low megabytes), so anything near this is garbage.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">Q")

#: JSON key marking an encoded ndarray; unlikely to collide with payload
#: dict keys, and nested payloads are rejected at encode time anyway.
_ND_KEY = "__nd__"


class ProtocolError(RuntimeError):
    """A malformed, truncated or oversized frame on the wire."""


# ---------------------------------------------------------------- payload


def encode_payload(obj: Any) -> Any:
    """Recursively JSON-encode a payload, wrapping ndarrays losslessly."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {_ND_KEY: [data.dtype.str, list(data.shape),
                          base64.b64encode(data.tobytes()).decode("ascii")]}
    if isinstance(obj, np.generic):
        return encode_payload(np.asarray(obj))
    if isinstance(obj, dict):
        if _ND_KEY in obj:
            raise ProtocolError(f"payload dict may not use the reserved "
                                f"key {_ND_KEY!r}")
        return {str(k): encode_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_payload(v) for v in obj]
    return obj


def decode_payload(obj: Any) -> Any:
    """Inverse of :func:`encode_payload` (bit-exact array round-trip)."""
    if isinstance(obj, dict):
        if set(obj) == {_ND_KEY}:
            try:
                dtype, shape, blob = obj[_ND_KEY]
                raw = base64.b64decode(blob.encode("ascii"), validate=True)
                array = np.frombuffer(raw, dtype=np.dtype(dtype))
                return array.reshape(shape).copy()
            except (TypeError, ValueError, KeyError) as exc:
                raise ProtocolError(f"malformed ndarray payload: {exc}") \
                    from None
        return {k: decode_payload(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(v) for v in obj]
    return obj


# ---------------------------------------------------------------- framing


def send_msg(sock: socket.socket, msg: dict) -> None:
    """Serialize and send one message frame (atomic ``sendall``)."""
    body = json.dumps(encode_payload(msg),
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte cap")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict | None:
    """Receive one message frame; ``None`` on a clean EOF between frames."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header announces {length} bytes "
                            f"(cap {MAX_FRAME_BYTES}); stream corrupt")
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        msg = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"non-JSON frame body: {exc}") from None
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError("frame body must be an object with a 'type'")
    return decode_payload(msg)
