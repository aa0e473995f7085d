"""Round message schema and its wire encoding.

Every message is one length-prefixed frame: a 4-byte big-endian unsigned
body length followed by a UTF-8 JSON object with exactly the keys

    {"kind", "round", "participant_id", "payload", "objective_part"}

``payload`` is either null or one binary matrix block

    {"rows": r, "cols": c, "f8le": "<base64 of r*c little-endian float64>"}

holding the matrix in row-major order, so decoding returns bit-identical
values at 8 bytes (plus base64) per entry.  ``objective_part`` is null
or a float written in its shortest round-trip form, again bit-identical.
On a Register message ``objective_part`` doubles as the label-ownership
flag (1.0 owner, 0.0 otherwise) since the schema has no other slot.
"""

from __future__ import annotations

import base64
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

_BODY_KEYS = {"kind", "round", "participant_id", "payload", "objective_part"}
_PAYLOAD_KEYS = {"rows", "cols", "f8le"}

# Wire dtype of matrix entries, whatever the host byte order.
_WIRE_DTYPE = np.dtype("<f8")

HEADER = struct.Struct("!I")

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProtocolError(f"unknown message kind {self.kind!r}")
        if self.round < 0:
            raise ProtocolError("round must be >= 0")
        if self.participant_id < 0:
            raise ProtocolError("participant_id must be >= 0")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _format_float(value: float) -> str:
    value = float(value)
    if not np.isfinite(value):
        raise ProtocolError(f"non-finite value cannot go on the wire: {value!r}")
    # repr is the shortest string that parses back to the same double and
    # always keeps a '.' or exponent, so -0.0 survives as a JSON float.
    return repr(value)


def _encode_matrix(matrix: np.ndarray) -> str:
    if matrix.ndim != 2 or matrix.size == 0:
        raise ProtocolError("payload must be a non-empty 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ProtocolError("payload contains non-finite entries")
    block = base64.b64encode(matrix.astype(_WIRE_DTYPE, copy=False).tobytes())
    return '{"rows":%d,"cols":%d,"f8le":"%s"}' % (
        matrix.shape[0], matrix.shape[1], block.decode("ascii"))


def _decode_matrix(raw) -> np.ndarray:
    if not isinstance(raw, dict) or set(raw) != _PAYLOAD_KEYS:
        raise ProtocolError("payload must be null or carry exactly rows, cols, f8le")
    rows, cols, block = raw["rows"], raw["cols"], raw["f8le"]
    if not (_is_int(rows) and _is_int(cols) and rows > 0 and cols > 0):
        raise ProtocolError("payload rows and cols must be positive integers")
    if not isinstance(block, str):
        raise ProtocolError("payload f8le must be a base64 string")
    try:
        data = base64.b64decode(block, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ProtocolError(f"payload f8le is not valid base64: {exc}") from exc
    if len(data) != rows * cols * _WIRE_DTYPE.itemsize:
        raise ProtocolError(
            f"payload holds {len(data)} bytes, not {rows}x{cols} float64 entries")
    # astype copies: frombuffer over bytes is read-only and may be
    # foreign-endian, the result is writable native float64.
    matrix = np.frombuffer(data, dtype=_WIRE_DTYPE).reshape(rows, cols).astype(np.float64)
    if not np.isfinite(matrix).all():
        raise ProtocolError("payload contains non-finite entries")
    return matrix


def encode_body(message: RoundMessage) -> bytes:
    """Serialize a message to its JSON body bytes."""
    if message.payload is None:
        payload = "null"
    else:
        payload = _encode_matrix(np.asarray(message.payload, dtype=np.float64))
    part = "null" if message.objective_part is None else _format_float(message.objective_part)
    body = (
        '{"kind":%s,"round":%d,"participant_id":%d,"payload":%s,"objective_part":%s}'
        % (json.dumps(message.kind), message.round, message.participant_id, payload, part)
    )
    return body.encode("utf-8")


def decode_body(body: bytes) -> RoundMessage:
    """Parse JSON body bytes back into a message, validating the schema.

    Any malformed body raises ``ProtocolError`` and nothing else.
    """
    try:
        raw = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError covers deeply nested arrays.
        raise ProtocolError(f"undecodable message body: {exc}") from exc
    if not isinstance(raw, dict) or set(raw) != _BODY_KEYS:
        raise ProtocolError("message body must carry exactly the schema keys")
    kind = raw["kind"]
    if not isinstance(kind, str):
        raise ProtocolError("kind must be a string")
    if not _is_int(raw["round"]):
        raise ProtocolError("round must be an integer")
    if not _is_int(raw["participant_id"]):
        raise ProtocolError("participant_id must be an integer")
    payload = raw["payload"]
    if payload is not None:
        payload = _decode_matrix(payload)
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
    return RoundMessage(kind=kind, round=raw["round"],
                        participant_id=raw["participant_id"],
                        payload=payload, objective_part=part)


def frame(body: bytes) -> bytes:
    """Prefix a body with its 4-byte big-endian length."""
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {len(body)} bytes exceeds the frame limit")
    return HEADER.pack(len(body)) + body


def frame_size(body: bytes) -> int:
    """Total on-wire size of a framed body."""
    return HEADER.size + len(body)
