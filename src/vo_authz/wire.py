"""Message framing, the one reply shape, and the server both services share.

Every message is a 4-byte big-endian unsigned length (at most 1 MiB)
followed by that many bytes of UTF-8 JSON with a top-level ``type``
field. File payloads are the sole exception: raw bytes of a
pre-declared size follow a ``data_header`` frame (downloads) or a
``command`` frame (uploads).

Every answer from a service is one :func:`reply` frame of type
``response``; a refusal is raised as a :class:`Refusal` and carries its
reply (``code``, ``message`` and any extra fields).

Both services run on :class:`Server`: accept, hand the connection to
an idle worker thread, which gives the framed channel to the service's
``handle_session``, answers a refusal or a transport error that ends
the session, and closes. Workers are reused from one connection to the
next; past :attr:`Server.max_workers` busy workers a connection is
answered 503 ``busy`` and closed. TCP sockets on both ends set
``TCP_NODELAY``: a reply written as a frame plus payload in separate
small writes would otherwise wait on the peer's delayed ACK.

A :class:`Channel` reads the socket in chunks of up to 64 KiB into its
own buffer, so one read usually yields a whole frame, and a frame with
the payload written after it.
"""

from __future__ import annotations

import itertools
import json
import queue
import socket
import socketserver
import struct
import sys
import threading

MAX_FRAME_BYTES = 1_048_576
# The most one socket read takes, and the largest payload that leaves
# in one write with the frames before it.
CHUNK_BYTES = 65536


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
        self._buffer = bytearray()  # received and not yet consumed
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

    def send_frames(self, *messages: dict, payload: bytes = b"") -> None:
        """Send ``messages``, then ``payload`` raw, in one write.

        A payload larger than :data:`CHUNK_BYTES` is not copied: it
        follows the frames in a second write.
        """
        frames = b"".join(map(encode_frame, messages))
        if len(payload) <= CHUNK_BYTES:
            self.send_bytes(frames + payload)
        else:
            self.send_bytes(frames)
            self.send_bytes(payload)

    def recv_bytes_to(self, size: int, writer) -> None:
        """Stream exactly ``size`` payload bytes into ``writer.write``."""
        buffered = min(size, len(self._buffer))
        if buffered:
            writer.write(bytes(self._buffer[:buffered]))
            del self._buffer[:buffered]
        remaining = size - buffered
        while remaining > 0:
            chunk = self._recv_some(min(CHUNK_BYTES, remaining))
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
        buffer = self._buffer
        while len(buffer) < size:
            buffer += self._recv_some(CHUNK_BYTES)
        data = bytes(buffer[:size])
        del buffer[:size]
        return data


# How long shutdown() can wait for serve_forever to notice it.
_SHUTDOWN_POLL_SECONDS = 0.05
# How long the accept loop may spend answering a connection 503 busy.
_BUSY_SEND_SECONDS = 1.0
_worker_ids = itertools.count(1)


def _send_refusal(channel: Channel, refusal: Refusal) -> None:
    try:
        channel.send_frame(refusal.reply())
    except WireError:
        pass  # the peer has already gone


class Server(socketserver.TCPServer):
    """A service's server: a pool of reusable worker threads.

    The accept loop hands each connection to an idle worker, and starts
    a worker only when none is idle and fewer than :attr:`max_workers`
    exist; a connection beyond that is answered 503 ``busy`` and
    closed. A worker serves one connection at a time, through
    :meth:`finish_request` and :meth:`shutdown_request`, then waits for
    the next. :meth:`server_close` ends the idle workers at once and a
    busy one when its session ends.

    The service provides ``io_timeout`` (seconds) and
    ``handle_session(channel)``; the server closes the channel when the
    session returns. A :class:`Refusal` that escapes the session is
    answered with its reply, and a transport error (broken framing, an
    idle timeout, a peer gone mid-message) with a best-effort 400
    ``protocol-error``.
    """

    allow_reuse_address = True
    max_workers = 64

    def __init__(self, address: tuple[str, int], service):
        # finish_request below serves each connection; no handler class runs.
        super().__init__(address, socketserver.BaseRequestHandler)
        self.service = service
        self._connections = queue.SimpleQueue()  # (request, address), or None: exit
        self._lock = threading.Lock()
        self._workers = 0  # started and not yet told to exit
        self._idle = 0  # workers free for a connection not yet queued
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_forever(self, poll_interval: float = _SHUTDOWN_POLL_SECONDS) -> None:
        super().serve_forever(poll_interval)

    def process_request(self, request, client_address) -> None:
        """Hand the connection to an idle worker, or answer it 503 ``busy``."""
        with self._lock:
            ready = not self._closed and (self._idle > 0 or self._start_worker())
            if ready:
                self._idle -= 1
                self._connections.put((request, client_address))
        if not ready:
            busy = Refusal(503, "busy", "every worker is busy; try again later")
            _send_refusal(Channel(request, timeout=_BUSY_SEND_SECONDS), busy)
            self.shutdown_request(request)

    def _start_worker(self) -> bool:
        """Start one more worker, idle, unless :attr:`max_workers` exist."""
        if self._workers >= self.max_workers:
            return False
        name = "vo-worker-%d" % next(_worker_ids)
        try:
            threading.Thread(target=self._work, name=name, daemon=True).start()
        except RuntimeError:  # the system has no thread to spare
            return False
        self._workers += 1
        self._idle += 1
        return True

    def _work(self) -> None:
        while True:
            item = self._connections.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                # The session is over: the worker counts as idle before
                # its socket is shut, which only releases the socket.
                with self._lock:
                    self._idle += 1
                self.shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, and tell every worker to exit once it is idle."""
        super().server_close()
        with self._lock:
            self._closed = True
            for _ in range(self._workers):
                self._connections.put(None)
            self._workers = 0

    def finish_request(self, request, client_address) -> None:
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(request, timeout=self.service.io_timeout)
        try:
            self.service.handle_session(channel)
        except (Refusal, WireError) as exc:
            if isinstance(exc, WireError):
                exc = Refusal(400, "protocol-error", str(exc))
            _send_refusal(channel, exc)
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
