"""Message framing, the one reply shape, and the server both services share.

Every message is a 4-byte big-endian unsigned length (at most 1 MiB)
followed by that many bytes of UTF-8 JSON with a top-level ``type``
field. File payloads are the sole exception: raw bytes of a
pre-declared size follow a ``data_header`` frame (downloads) or a
``command`` frame (uploads).

Every answer from a service is one :func:`reply` frame of type
``response``; a refusal is raised as a :class:`Refusal` and carries its
reply (``code``, ``message`` and any extra fields).

Both services run on :class:`Server`: accept, hand the framed channel
to the service's ``handle_session``, answer a refusal or a transport
error that ends the session, close. TCP sockets on both ends set
``TCP_NODELAY``: a reply written as a frame plus payload in separate
small writes would otherwise wait on the peer's delayed ACK.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import sys

MAX_FRAME_BYTES = 1_048_576
_CHUNK = 65536


class WireError(Exception):
    """Base class for transport errors."""


class ProtocolError(WireError):
    """The peer violated the framing or message rules."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded the 1 MiB limit."""


class ConnectionClosedError(WireError):
    """The peer closed the connection mid-message."""


class ChannelTimeout(WireError):
    """No data arrived within the channel's timeout."""


def reply(status: int, **fields) -> dict:
    """The one answer frame: ``{"type": "response", "status": ..., **fields}``."""
    return {"type": "response", "status": status, **fields}


class Refusal(Exception):
    """A refused request; ``reply()`` answers it, with any extra ``fields``."""

    def __init__(self, status: int, code: str, message: str, **fields):
        super().__init__(message)
        self.status = status
        self.code = code
        self.fields = fields

    def reply(self) -> dict:
        return reply(self.status, code=self.code, message=str(self), **self.fields)


def encode_frame(message: dict) -> bytes:
    """Encode one message as a length-prefixed frame, ready to send."""
    data = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameTooLarge("outgoing frame of %d bytes" % len(data))
    return struct.pack(">I", len(data)) + data


def is_size(value) -> bool:
    """Is a peer-declared byte count a non-negative integer (not a bool)?"""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Channel:
    """A framed duplex channel over a connected socket."""

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        if timeout is not None:
            sock.settimeout(timeout)

    def send_frame(self, message: dict) -> None:
        self._send(encode_frame(message))

    def recv_frame(self) -> dict:
        header = self._recv_exact(4)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME_BYTES:
            raise FrameTooLarge("peer declared a frame of %d bytes" % length)
        data = self._recv_exact(length)
        try:
            message = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError("frame is not valid JSON: %s" % exc) from exc
        except RecursionError:
            raise ProtocolError("frame nests too deeply") from None
        if not isinstance(message, dict) or not isinstance(message.get("type"), str):
            raise ProtocolError("frame lacks a string 'type' field")
        return message

    def send_bytes(self, data: bytes) -> None:
        self._send(data)

    def recv_bytes_to(self, size: int, writer) -> None:
        """Stream exactly ``size`` payload bytes into ``writer.write``."""
        remaining = size
        while remaining > 0:
            chunk = self._recv_some(min(_CHUNK, remaining))
            writer.write(chunk)
            remaining -= len(chunk)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # A socket error other than a timeout (a reset, a broken pipe) is the
    # peer gone: a transport error like any other, not a server fault.

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except socket.timeout as exc:
            raise ChannelTimeout(str(exc)) from exc
        except OSError as exc:
            raise ConnectionClosedError("connection lost: %s" % exc) from exc

    def _recv_some(self, limit: int) -> bytes:
        try:
            chunk = self._sock.recv(limit)
        except socket.timeout as exc:
            raise ChannelTimeout(str(exc)) from exc
        except OSError as exc:
            raise ConnectionClosedError("connection lost: %s" % exc) from exc
        if not chunk:
            raise ConnectionClosedError("peer closed the connection")
        return chunk

    def _recv_exact(self, size: int) -> bytes:
        buf = bytearray()
        while len(buf) < size:
            buf.extend(self._recv_some(min(_CHUNK, size - len(buf))))
        return bytes(buf)


# How long shutdown() can wait for serve_forever to notice it.
_SHUTDOWN_POLL_SECONDS = 0.05


class Server(socketserver.ThreadingTCPServer):
    """Thread-per-connection server for a service.

    The service provides ``io_timeout`` (seconds) and
    ``handle_session(channel)``; the server closes the channel when the
    session returns. A :class:`Refusal` that escapes the session is
    answered with its reply, and a transport error (broken framing, an
    idle timeout, a peer gone mid-message) with a best-effort 400
    ``protocol-error``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service):
        # finish_request below serves each connection; no handler class runs.
        super().__init__(address, socketserver.BaseRequestHandler)
        self.service = service

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_forever(self, poll_interval: float = _SHUTDOWN_POLL_SECONDS) -> None:
        super().serve_forever(poll_interval)

    def finish_request(self, request, client_address) -> None:
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(request, timeout=self.service.io_timeout)
        try:
            self.service.handle_session(channel)
        except (Refusal, WireError) as exc:
            if isinstance(exc, WireError):
                exc = Refusal(400, "protocol-error", str(exc))
            try:
                channel.send_frame(exc.reply())
            except WireError:
                pass  # the peer has already gone
        finally:
            channel.close()

    def run(self, banner: str) -> None:
        """Print ``<banner> listening on host:port`` and serve until interrupted."""
        host, port = self.address
        print("%s listening on %s:%d" % (banner, host, port))
        sys.stdout.flush()
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.server_close()


def connect(address: tuple[str, int], timeout: float | None = 10.0) -> Channel:
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Channel(sock, timeout=timeout)


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (bare ``:port`` binds all interfaces)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ValueError("expected host:port, got %r" % text)
    return host or "0.0.0.0", int(port)
