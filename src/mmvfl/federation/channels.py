"""Message channels between coordinator and participants.

One channel class carries length-prefixed frames over any connected
stream socket: one end of a ``socket.socketpair()`` in process, or a
loopback TCP connection.  Either way frames arrive whole, in FIFO order,
exactly once, and both ends enforce the frame limit, so training results
cannot depend on which transport carried them.
"""

from __future__ import annotations

import socket

from .messages import (LENGTH, MAX_BODY_BYTES, ProtocolError, decode_body, encode_body, frame,
                       frame_size)


class ChannelClosedError(Exception):
    """The peer closed the channel."""


class ChannelTimeoutError(Exception):
    """No message arrived within the deadline."""


class TcpChannel:
    """One endpoint of a connected stream socket (TCP or a socketpair)
    carrying length-prefixed frames.

    ``send`` and ``recv`` carry round messages and report the framed wire
    size of each, so callers account for traffic the same way on every
    transport; ``send_bytes`` and ``recv_bytes`` carry raw bodies.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False

    def send(self, message) -> int:
        body = encode_body(message)
        self.send_bytes(body)
        return frame_size(body)

    def recv(self, timeout: float | None = None):
        body = self.recv_bytes(timeout=timeout)
        return decode_body(body), frame_size(body)

    def send_bytes(self, body: bytes):
        """Send one framed body; ``ProtocolError`` if it exceeds the frame limit."""
        if self._closed:
            raise ChannelClosedError("channel is closed")
        framed = frame(body)
        try:
            self._sock.sendall(framed)
        except OSError as exc:
            raise ChannelClosedError(f"send failed: {exc}") from exc

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining > 0:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise ChannelTimeoutError("no message within the deadline") from None
            except OSError as exc:
                raise ChannelClosedError(f"recv failed: {exc}") from exc
            if chunk == b"":
                raise ChannelClosedError("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_bytes(self, timeout: float | None = None) -> bytes:
        if self._closed:
            raise ChannelClosedError("channel is closed")
        self._sock.settimeout(timeout)
        header = self._recv_exact(LENGTH.size)
        (length,) = LENGTH.unpack(header)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the limit")
        return self._recv_exact(length)

    def close(self):
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
