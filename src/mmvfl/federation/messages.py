"""Round message schema and its wire encoding.

Every message is one length-prefixed frame: a 4-byte big-endian unsigned
body length followed by the body.  The body is a fixed 26-byte
little-endian header, ``struct`` format ``<BIIBdII``, then the entries:

    u8   kind            index into KINDS, so their order is part of the format
    u32  round, u32 participant_id
    u8   flags           bit 0: label_owner; bit 1: objective_part is present
    f64  objective_part  all zero bytes when absent
    u32  rows, u32 cols  (0, 0) when there is no payload
    rows*cols row-major little-endian float64 entries

Matrices and objective parts decode bit-identically; a framed 2000x10
upload is 160,030 bytes.  ``label_owner`` is set only on the Register of
the participant that holds the labels.  Each message has one encoding:
any body the decoder accepts re-encodes to the same bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

KIND_REGISTER = "Register"
KIND_ZK_UPLOAD = "ZkUpload"
KIND_Z_BROADCAST = "ZBroadcast"
KIND_CONVERGED = "Converged"
KIND_ABORT = "Abort"

# A kind goes on the wire as its index here: append new kinds, never reorder.
KINDS = (KIND_REGISTER, KIND_ZK_UPLOAD, KIND_Z_BROADCAST, KIND_CONVERGED, KIND_ABORT)

# Kinds whose payload is a pseudo-label or consensus matrix.
MATRIX_KINDS = (KIND_ZK_UPLOAD, KIND_Z_BROADCAST, KIND_CONVERGED)

_HEADER = struct.Struct("<BIIBdII")  # the body's fixed header, fields as above
_LABEL_OWNER, _HAS_PART = 1, 2  # its flag bits
# Wire dtype of matrix entries, whatever the host byte order.
_WIRE_DTYPE = np.dtype("<f8")

LENGTH = struct.Struct("!I")  # the frame's body length
# Far above any training round; guards the frame reader against garbage lengths.
MAX_BODY_BYTES = 256 * 1024 * 1024


class ProtocolError(Exception):
    """A frame or message violated the wire schema."""


@dataclass
class RoundMessage:
    """One protocol message; payload is a float64 matrix or None."""

    kind: str
    round: int
    participant_id: int
    payload: np.ndarray | None = None
    objective_part: float | None = None
    label_owner: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProtocolError(f"unknown message kind {self.kind!r}")
        if self.round < 0:
            raise ProtocolError("round must be >= 0")
        if self.participant_id < 0:
            raise ProtocolError("participant_id must be >= 0")
        if self.label_owner and self.kind != KIND_REGISTER:
            raise ProtocolError("only a Register message can claim label ownership")


def encode_body(message: RoundMessage) -> bytes:
    """Serialize a message to its body bytes: the fixed header, then the entries."""
    flags = _LABEL_OWNER if message.label_owner else 0
    part = 0.0
    if message.objective_part is not None:
        part = float(message.objective_part)
        if not math.isfinite(part):
            raise ProtocolError(f"non-finite value cannot go on the wire: {part!r}")
        flags |= _HAS_PART
    if message.payload is None:
        shape, block = (0, 0), b""
    else:
        matrix = np.asarray(message.payload, dtype=np.float64)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ProtocolError("payload must be a non-empty 2-D matrix")
        if not np.isfinite(matrix).all():
            raise ProtocolError("payload contains non-finite entries")
        shape, block = matrix.shape, np.ascontiguousarray(matrix, dtype=_WIRE_DTYPE)
    try:
        header = _HEADER.pack(KINDS.index(message.kind), message.round,
                              message.participant_id, flags, part, *shape)
    except struct.error as exc:
        raise ProtocolError(f"message does not fit the wire header: {exc}") from exc
    # join reads the array through the buffer protocol: one copy of the entries
    return b"".join((header, block))


def decode_body(body: bytes) -> RoundMessage:
    """Parse body bytes back into a message, validating the schema.

    Any malformed body raises ``ProtocolError`` and nothing else.
    """
    if len(body) < _HEADER.size:
        raise ProtocolError(f"short body: {len(body)} bytes, under the {_HEADER.size}-byte header")
    code, round_, participant_id, flags, part, rows, cols = _HEADER.unpack_from(body)
    if code >= len(KINDS):
        raise ProtocolError(f"unknown kind code {code}")
    if flags & ~(_LABEL_OWNER | _HAS_PART):
        raise ProtocolError(f"unknown flag bits in {flags:#04x}")
    if not flags & _HAS_PART:
        # absent is all zero bytes, so each message has one encoding
        if part != 0.0 or math.copysign(1.0, part) < 0:
            raise ProtocolError("objective_part bytes are set but its flag is not")
        part = None
    elif not math.isfinite(part):
        raise ProtocolError("objective_part must be finite")
    if (rows == 0) != (cols == 0):
        raise ProtocolError(f"payload shape {rows}x{cols} has exactly one zero side")
    expected = _HEADER.size + rows * cols * _WIRE_DTYPE.itemsize
    if len(body) != expected:
        raise ProtocolError(f"length mismatch: {len(body)}-byte body, "
                            f"{expected} bytes for {rows}x{cols} float64 entries")
    payload = None
    if rows:
        # astype copies: frombuffer over the body is read-only, maybe unaligned
        # and maybe foreign-endian; the result is writable native float64.
        payload = np.frombuffer(body, dtype=_WIRE_DTYPE, count=rows * cols,
                                offset=_HEADER.size).reshape(rows, cols).astype(np.float64)
        if not np.isfinite(payload).all():
            raise ProtocolError("payload contains non-finite entries")
    return RoundMessage(kind=KINDS[code], round=round_, participant_id=participant_id,
                        payload=payload, objective_part=part,
                        label_owner=bool(flags & _LABEL_OWNER))


def frame(body: bytes) -> bytes:
    """Prefix a body with its 4-byte big-endian length."""
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {len(body)} bytes exceeds the frame limit")
    return LENGTH.pack(len(body)) + body


def frame_size(body: bytes) -> int:
    """Total on-wire size of a framed body."""
    return LENGTH.size + len(body)
