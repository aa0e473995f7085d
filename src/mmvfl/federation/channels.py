"""Byte channels between coordinator and participants.

Two transports share one interface: an in-process queue pair and a TCP
socket carrying length-prefixed frames.  Both deliver whole message
bodies in FIFO order, exactly once, so training results cannot depend on
which transport carried them.
"""

from __future__ import annotations

import queue
import socket

from .messages import (HEADER, MAX_BODY_BYTES, ProtocolError, decode_body, encode_body, frame,
                       frame_size)


class ChannelClosedError(Exception):
    """The peer closed the channel."""


class ChannelTimeoutError(Exception):
    """No message arrived within the deadline."""


_CLOSED = object()


class InProcessChannel:
    """One endpoint of an in-process duplex byte channel."""

    def __init__(self, outgoing: queue.Queue, incoming: queue.Queue):
        self._outgoing = outgoing
        self._incoming = incoming
        self._closed = False

    @classmethod
    def pair(cls):
        """Two connected endpoints."""
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        return cls(a_to_b, b_to_a), cls(b_to_a, a_to_b)

    def send_bytes(self, body: bytes):
        if self._closed:
            raise ChannelClosedError("channel is closed")
        self._outgoing.put(bytes(body))

    def recv_bytes(self, timeout: float | None = None) -> bytes:
        if self._closed:
            raise ChannelClosedError("channel is closed")
        try:
            item = self._incoming.get(timeout=timeout)
        except queue.Empty:
            raise ChannelTimeoutError(f"no message within {timeout} s") from None
        if item is _CLOSED:
            # keep the marker visible for any later reader
            self._incoming.put(_CLOSED)
            raise ChannelClosedError("peer closed the channel")
        return item

    def close(self):
        if not self._closed:
            self._closed = True
            self._outgoing.put(_CLOSED)


class TcpChannel:
    """One endpoint of a TCP connection carrying length-prefixed frames."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False

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
        header = self._recv_exact(HEADER.size)
        (length,) = HEADER.unpack(header)
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


class MessageChannel:
    """Typed wrapper: encodes/decodes round messages over a byte channel.

    ``send`` and ``recv`` report the framed wire size of each message so
    callers can account for traffic uniformly across transports.
    """

    def __init__(self, raw):
        self.raw = raw

    def send(self, message) -> int:
        body = encode_body(message)
        self.raw.send_bytes(body)
        return frame_size(body)

    def recv(self, timeout: float | None = None):
        body = self.raw.recv_bytes(timeout=timeout)
        return decode_body(body), frame_size(body)

    def close(self):
        self.raw.close()
