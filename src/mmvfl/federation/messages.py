"""Round message schema and its wire encoding.

Every message is one length-prefixed frame: a 4-byte big-endian unsigned
body length followed by the body.  The body has three parts:

    4-byte big-endian unsigned header length h
    h bytes of UTF-8 JSON with exactly the keys
        {"kind", "round", "participant_id", "objective_part",
         "label_owner", "payload"}
    the payload entries as raw row-major little-endian float64

``payload`` in the header is null or ``{"rows": r, "cols": c}``; the
body then ends with exactly r*c*8 bytes, or with the header when it is
null.  Matrices decode bit-identically at 8 bytes per entry plus a
header of 100-140 bytes.  ``objective_part`` is null or a float
written in its shortest round-trip form, again bit-identical.
``label_owner`` is true only on the Register of the participant that
holds the labels.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

KIND_REGISTER = "Register"
KIND_ZK_UPLOAD = "ZkUpload"
KIND_Z_BROADCAST = "ZBroadcast"
KIND_CONVERGED = "Converged"
KIND_ABORT = "Abort"

KINDS = (KIND_REGISTER, KIND_ZK_UPLOAD, KIND_Z_BROADCAST, KIND_CONVERGED, KIND_ABORT)

# Kinds whose payload is a pseudo-label or consensus matrix.
MATRIX_KINDS = (KIND_ZK_UPLOAD, KIND_Z_BROADCAST, KIND_CONVERGED)

_HEADER_KEYS = {"kind", "round", "participant_id", "objective_part", "label_owner", "payload"}
_PAYLOAD_KEYS = {"rows", "cols"}

# Wire dtype of matrix entries, whatever the host byte order.
_WIRE_DTYPE = np.dtype("<f8")

# The frame's body length and the body's header length.
LENGTH = struct.Struct("!I")

# Far above anything a training round produces; guards the frame reader
# against garbage lengths.
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _format_float(value: float) -> str:
    value = float(value)
    if not np.isfinite(value):
        raise ProtocolError(f"non-finite value cannot go on the wire: {value!r}")
    # repr is the shortest string that parses back to the same double and
    # always keeps a '.' or exponent, so -0.0 survives as a JSON float.
    return repr(value)


def encode_body(message: RoundMessage) -> bytes:
    """Serialize a message to its body bytes: header length, header, entries."""
    if message.payload is None:
        payload, block = "null", b""
    else:
        matrix = np.asarray(message.payload, dtype=np.float64)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ProtocolError("payload must be a non-empty 2-D matrix")
        if not np.isfinite(matrix).all():
            raise ProtocolError("payload contains non-finite entries")
        payload = '{"rows":%d,"cols":%d}' % matrix.shape
        block = np.ascontiguousarray(matrix, dtype=_WIRE_DTYPE)
    part = "null" if message.objective_part is None else _format_float(message.objective_part)
    header = (
        '{"kind":%s,"round":%d,"participant_id":%d,"objective_part":%s,'
        '"label_owner":%s,"payload":%s}'
        % (json.dumps(message.kind), message.round, message.participant_id, part,
           "true" if message.label_owner else "false", payload)
    ).encode("utf-8")
    # join reads the array through the buffer protocol: one copy of the entries
    return b"".join((LENGTH.pack(len(header)), header, block))


def _decode_shape(raw) -> tuple[int, int]:
    if not isinstance(raw, dict) or set(raw) != _PAYLOAD_KEYS:
        raise ProtocolError("payload must be null or carry exactly rows, cols")
    rows, cols = raw["rows"], raw["cols"]
    if not (_is_int(rows) and _is_int(cols) and rows > 0 and cols > 0):
        raise ProtocolError("payload rows and cols must be positive integers")
    return rows, cols


def decode_body(body: bytes) -> RoundMessage:
    """Parse body bytes back into a message, validating the schema.

    Any malformed body raises ``ProtocolError`` and nothing else.
    """
    if len(body) < LENGTH.size:
        raise ProtocolError(f"body of {len(body)} bytes has no header length")
    (header_size,) = LENGTH.unpack_from(body)
    start = LENGTH.size + header_size
    if start > len(body):
        raise ProtocolError(
            f"header of {header_size} bytes runs past the {len(body)}-byte body")
    try:
        raw = json.loads(body[LENGTH.size:start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError covers deeply nested arrays.
        raise ProtocolError(f"undecodable message header: {exc}") from exc
    if not isinstance(raw, dict) or set(raw) != _HEADER_KEYS:
        raise ProtocolError("message header must carry exactly the schema keys")
    kind = raw["kind"]
    if not isinstance(kind, str):
        raise ProtocolError("kind must be a string")
    if not _is_int(raw["round"]):
        raise ProtocolError("round must be an integer")
    if not _is_int(raw["participant_id"]):
        raise ProtocolError("participant_id must be an integer")
    if not isinstance(raw["label_owner"], bool):
        raise ProtocolError("label_owner must be a boolean")
    part = raw["objective_part"]
    if part is not None:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            raise ProtocolError("objective_part must be a float")
        try:
            part = float(part)
        except OverflowError as exc:
            raise ProtocolError(f"objective_part out of float range: {exc}") from exc
        if not np.isfinite(part):
            raise ProtocolError("objective_part must be finite")
    block_size = len(body) - start
    payload = raw["payload"]
    if payload is None:
        if block_size:
            raise ProtocolError(f"{block_size} trailing bytes after a null payload")
    else:
        rows, cols = _decode_shape(payload)
        if block_size != rows * cols * _WIRE_DTYPE.itemsize:
            raise ProtocolError(
                f"payload holds {block_size} bytes, not {rows}x{cols} float64 entries")
        # astype copies: frombuffer over the body is read-only, maybe
        # unaligned and maybe foreign-endian; the result is writable native
        # float64.
        payload = np.frombuffer(body, dtype=_WIRE_DTYPE, count=rows * cols,
                                offset=start).reshape(rows, cols).astype(np.float64)
        if not np.isfinite(payload).all():
            raise ProtocolError("payload contains non-finite entries")
    return RoundMessage(kind=kind, round=raw["round"],
                        participant_id=raw["participant_id"],
                        payload=payload, objective_part=part,
                        label_owner=raw["label_owner"])


def frame(body: bytes) -> bytes:
    """Prefix a body with its 4-byte big-endian length."""
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {len(body)} bytes exceeds the frame limit")
    return LENGTH.pack(len(body)) + body


def frame_size(body: bytes) -> int:
    """Total on-wire size of a framed body."""
    return LENGTH.size + len(body)
