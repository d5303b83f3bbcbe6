"""Minimal non-blocking wire clients for the load generator.

The library's ``BlueprintClient`` is synchronous and hides per-request
timing inside ``post_many``; the generator needs to stamp every send and
every receipt, and to serve two connections from one thread, so it
speaks both dialects directly over plain sockets.
"""

from __future__ import annotations

import socket

from repro.network.framing import FrameDecoder, encode_frame


class FramedConn:
    """A framed connection: tagged requests, untagged pushes."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._decoder = FrameDecoder()
        self._next_id = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, payload: dict) -> int:
        """Send one request; returns the tag the response will carry."""
        self._next_id += 1
        payload["id"] = self._next_id
        self._sendall(encode_frame(payload))
        return self._next_id

    def _sendall(self, data: bytes) -> None:
        self.sock.setblocking(True)
        try:
            self.sock.sendall(data)
        finally:
            self.sock.setblocking(False)

    def read(self) -> list[dict]:
        """Every complete frame available now (empty if none)."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the framed connection")
        return self._decoder.feed(data)

    def close(self) -> None:
        self.sock.close()


class LineConn:
    """A line-dialect connection: one response line per request."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._buffer = bytearray()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, line: str) -> None:
        self.sock.setblocking(True)
        try:
            self.sock.sendall((line + "\n").encode("utf-8"))
        finally:
            self.sock.setblocking(False)

    def read(self) -> list[str]:
        """Every complete line available now (empty if none)."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the line connection")
        self._buffer.extend(data)
        lines = []
        while (newline := self._buffer.find(b"\n")) >= 0:
            lines.append(self._buffer[:newline].decode("utf-8").strip())
            del self._buffer[: newline + 1]
        return lines

    def close(self) -> None:
        self.sock.close()
