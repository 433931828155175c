"""Message framing, the one reply shape, and the server both services share.

Every message is a 4-byte big-endian unsigned length (at most 1 MiB)
followed by that many bytes of UTF-8 JSON with a top-level ``type``
field. File payloads are the sole exception: raw bytes of a
pre-declared ``size`` follow a GET's ``response`` frame (downloads) or a
PUT's ``command`` frame (uploads).

Every answer from a service is one :func:`reply` frame of type
``response``; a refusal is raised as a :class:`Refusal` and carries its
reply (``code``, ``message`` and any extra fields).

Both services run on :class:`Server`, whose idle worker threads wait
for the listening socket in the kernel, which wakes one of them for
each connection; that worker accepts it and keeps it until it is
closed. The worker gives the framed channel to the service's
``handle_session``, answers a refusal or a transport error that ends
the session, closes, and goes back to waiting. Past
:attr:`Server.max_workers` open sessions, or past
:attr:`Server.max_sessions_per_peer` from one peer address, a
connection is answered 503 ``busy`` and closed. Closing the server ends
every open session at once. TCP sockets on both ends set
``TCP_NODELAY``: a reply written as a frame plus payload in separate
small writes would otherwise wait on the peer's delayed ACK.

A :class:`Channel` keeps its socket blocking and has the kernel enforce
its timeout (``SO_RCVTIMEO`` and ``SO_SNDTIMEO``), so every read or
write is one system call. It reads in chunks of up to 64 KiB into its
own buffer, so one read usually yields a whole frame, and a frame with
the payload written after it.
"""

from __future__ import annotations

import json
import select
import signal
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
    """A read or a write moved no data within the channel's timeout."""


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
    """A framed duplex channel over a connected socket.

    With a ``timeout`` (seconds) the socket is made blocking and the
    kernel bounds each read or write system call on it: one that moves
    no data in that time raises :class:`ChannelTimeout`, while a long
    send that keeps moving data is not cut short.
    """

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        self._buffer = bytearray()  # received and not yet consumed
        if timeout is not None:
            sock.settimeout(None)
            # A zero timeval would mean no timeout at all: round up to 1 µs.
            seconds, micros = divmod(max(1, round(timeout * 1_000_000)), 1_000_000)
            timeval = struct.pack("ll", seconds, micros)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)

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
        except ValueError as exc:  # bad UTF-8, bad JSON, an integer of too many digits
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

    def recv_bytes_to(self, size: int, write) -> None:
        """Stream exactly ``size`` payload bytes into ``write``, a chunk a call."""
        buffered = min(size, len(self._buffer))
        if buffered:
            write(bytes(self._buffer[:buffered]))
            del self._buffer[:buffered]
        remaining = size - buffered
        while remaining > 0:
            chunk = self._recv_some(min(CHUNK_BYTES, remaining))
            write(chunk)
            remaining -= len(chunk)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # The kernel's timeout fails a call with EAGAIN (BlockingIOError). Any
    # other socket error (a reset, a broken pipe) is the peer gone: a
    # transport error like any other, not a server fault.

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except BlockingIOError as exc:
            raise ChannelTimeout("timed out") from exc
        except OSError as exc:
            raise ConnectionClosedError("connection lost: %s" % exc) from exc

    def _recv_some(self, limit: int) -> bytes:
        try:
            chunk = self._sock.recv(limit)
        except BlockingIOError as exc:
            raise ChannelTimeout("timed out") from exc
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


# How long a worker may spend answering a connection 503 busy.
_BUSY_SEND_SECONDS = 1.0
# The listening socket wakes one idle worker, then waits to be re-armed.
_ONE_WAKE = select.EPOLLIN | select.EPOLLONESHOT


def _send_refusal(channel: Channel, refusal: Refusal) -> None:
    try:
        channel.send_frame(refusal.reply())
    except WireError:
        pass  # the peer has already gone


class Server(socketserver.TCPServer):
    """A service's server: each connection is served by the thread that accepts it.

    Idle workers wait on one epoll set that watches the listening
    socket (Linux). For each connection the kernel wakes one of them,
    the one that went idle last, and that worker accepts the connection
    and serves it on the same thread. So the threads that have just
    served keep serving. Threads blocked in ``accept`` itself would be
    woken in turn, the one idle longest first; under the issuance
    benchmark on two cores that rotation kept the tail latency where
    the thread pool had it.

    A worker takes the connection it accepts while fewer than
    :attr:`max_workers` sessions are open, and fewer than
    :attr:`max_sessions_per_peer` from the same peer address; it answers
    any other connection 503 ``busy`` and closes it. A worker that takes
    a connection while no other worker is idle starts one more, up to
    ``max_workers + 1`` in all, so one is always waiting to accept.
    Workers live until the server stops.

    :meth:`shutdown` stops the accepting. :meth:`server_close` also
    shuts every open session's socket, so a session waiting on its peer
    ends at once and one mid-transfer at its next read or write, and
    returns once every worker has exited.

    The service provides ``io_timeout`` (seconds) and
    ``handle_session(channel)``; the server closes the connection when
    the session returns. A :class:`Refusal` that escapes the session is
    answered with its reply, and a transport error (broken framing, an
    idle timeout, a peer gone mid-message) with a best-effort 400
    ``protocol-error``.
    """

    allow_reuse_address = True
    # socketserver listens with a backlog of 5. A burst that overflows it
    # has the kernel drop handshakes, and those clients wait a second or
    # more for the retry.
    request_queue_size = socket.SOMAXCONN
    max_workers = 64
    max_sessions_per_peer = 16

    def __init__(self, address: tuple[str, int], service):
        # Set before binding: a failed bind calls server_close.
        self.service = service
        self._lock = threading.Lock()
        self._sessions: set | None = set()  # open connections; None once closed
        self._peers: dict[str, int] = {}  # open sessions per peer address
        self._workers: list[threading.Thread] = []
        self._idle = 0  # workers waiting to accept or on their way back to it
        self._stopped = threading.Event()
        self._waiting = select.epoll()  # where idle workers wait, the last to arrive woken first
        # finish_request below serves each connection; no handler class runs.
        super().__init__(address, socketserver.BaseRequestHandler)
        # A worker woken when no connection is left (one that failed
        # before it was accepted) must not block in accept.
        self.socket.setblocking(False)
        self._waiting.register(self.socket, _ONE_WAKE)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_forever(self) -> None:
        """Start the first worker, then wait for :meth:`shutdown`."""
        with self._lock:
            if self._sessions is not None:
                self._start_worker()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting connections; open sessions run on."""
        self._stopped.set()
        try:
            # Wakes a waiting worker, whose accept() then fails with EINVAL.
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # shut already

    def server_close(self) -> None:
        """Stop accepting, end every open session, wait for the workers, and close."""
        self.shutdown()
        with self._lock:
            sessions, self._sessions = self._sessions or (), None
            for request in sessions:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for worker in self._workers:  # no worker starts once the server is closed
            worker.join()
        # Closed last, so that no descriptor is reused under a waiting worker.
        self._waiting.close()
        super().server_close()

    def _start_worker(self) -> None:
        """Start one more worker; the caller holds the lock."""
        worker = threading.Thread(
            target=self._work, name="vo-worker-%d" % len(self._workers), daemon=True
        )
        worker.start()
        self._workers.append(worker)
        self._idle += 1

    def _admit(self, request, host: str) -> bool:
        """Take a connection if the caps allow it, and keep a worker waiting to accept."""
        with self._lock:
            if (
                self._sessions is None
                or len(self._sessions) >= self.max_workers
                or self._peers.get(host, 0) >= self.max_sessions_per_peer
            ):
                return False
            self._sessions.add(request)
            self._peers[host] = self._peers.get(host, 0) + 1
            self._idle -= 1
            if not self._idle and len(self._workers) < self.max_workers + 1:
                try:
                    self._start_worker()
                except RuntimeError:
                    pass  # no thread to spare: serve this one; the others keep accepting
            return True

    def _release(self, request, host: str) -> None:
        # The socket leaves the set before it is closed, under the lock,
        # so that server_close never shuts a closed socket.
        with self._lock:
            if self._sessions is not None:
                self._sessions.discard(request)
            self._peers[host] -= 1
            if not self._peers[host]:
                del self._peers[host]
            self._idle += 1

    def _work(self) -> None:
        """Accept connections and serve each in turn, until the server stops."""
        while True:
            self._waiting.poll()
            try:
                request, client_address = self.socket.accept()
            except OSError:  # no connection left, or the socket is shut
                request = None
            # Re-armed, the socket wakes the next idle worker for the next
            # connection, or for the shut socket.
            self._waiting.modify(self.socket, _ONE_WAKE)
            if request is None:
                if self._stopped.is_set():
                    return
                continue
            host = client_address[0]
            if not self._admit(request, host):
                busy = Refusal(503, "busy", "every worker is busy; try again later")
                _send_refusal(Channel(request, timeout=_BUSY_SEND_SECONDS), busy)
                self.shutdown_request(request)
                continue
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self._release(request, host)
                self.shutdown_request(request)

    def finish_request(self, request, client_address) -> None:
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(request, timeout=self.service.io_timeout)
        try:
            self.service.handle_session(channel)
        except (Refusal, WireError) as exc:
            if isinstance(exc, WireError):
                exc = Refusal(400, "protocol-error", str(exc))
            _send_refusal(channel, exc)

    def run(self, banner: str) -> None:
        """Print ``<banner> listening on host:port`` and serve until interrupted.

        SIGTERM interrupts it as Ctrl-C does; either way the server is
        closed. Call it from the main thread, which alone takes signals.
        """
        signal.signal(signal.SIGTERM, signal.default_int_handler)
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
