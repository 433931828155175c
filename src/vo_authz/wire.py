"""Message framing, the one reply shape, and the server both services share.

Every message is a 4-byte big-endian unsigned length (at most 1 MiB)
followed by that many bytes of UTF-8 JSON with a top-level ``type``
field. File payloads are the sole exception: raw bytes of a
pre-declared ``size`` follow a GET's ``response`` frame (downloads) or a
PUT's ``command`` frame (uploads).

Every answer from a service is one :func:`reply` frame of type
``response``; a refusal is raised as a :class:`Refusal` and carries its
reply (``code``, ``message`` and any extra fields).

Both services run on :class:`Server`: one stdlib ``selectors`` loop per
server owns the listening socket and every connection, and resumes each
session, a generator, once what it waits for holds; so no thread waits
on a peer. TCP sockets on both ends set ``TCP_NODELAY``: a reply
written as a frame plus payload in separate small writes would
otherwise wait on the peer's delayed ACK.

A client's :class:`Channel` keeps its socket blocking and has the kernel
enforce its timeout (``SO_RCVTIMEO`` and ``SO_SNDTIMEO``), so every read
or write is one system call. Both ends read in chunks of up to 64 KiB
into the channel's own buffer, so one read usually yields a whole
frame, and a frame with the payload written after it.
"""

from __future__ import annotations

import json
import queue
import selectors
import signal
import socket
import struct
import sys
import threading
import time
from collections import deque

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
    """A framed duplex channel over a connected socket: a client's.

    With a ``timeout`` (seconds) the socket is made blocking and the
    kernel bounds each read or write system call on it: one that moves
    no data in that time raises :class:`ChannelTimeout`, while a long
    send that keeps moving data is not cut short. A server's connection
    is a :class:`ServerChannel`, which keeps these methods and replaces
    only the socket primitives (``_send``, ``_recv_some``).
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


# What a session yields, besides a byte count, to wait for its sends to drain.
_DRAIN = 0
_BUSY = Refusal(503, "busy", "too many open sessions; try again later")
_NEVER = float("inf")


class ServerChannel(Channel):
    """A server connection's channel, whose I/O the :class:`Server` loop does.

    The socket is non-blocking. A send the socket does not take at once
    is kept, and the loop sends it as the socket drains. The loop reads
    only while the session waits for input, one chunk a read, so at most
    one frame (or the payload bytes asked for) and one chunk are
    buffered. A wait that ends without what it waited for records why
    (the peer closed or reset the connection, or it sent nothing within
    ``io_timeout``), and the next read or send raises that.

    A session waits by yielding from :meth:`next_frame`,
    :meth:`wait_frame`, :meth:`recv_payload` or :meth:`flush`.
    """

    def __init__(self, sock: socket.socket, host: str):
        super().__init__(sock)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.host = host
        self.steps = None  # the session generator the loop resumes
        self.need = None  # bytes a read waits for, _DRAIN for sends; None when not waiting
        self.deadline = 0.0  # when the wait times out, unless the peer makes progress
        self.events = 0  # the selector events the socket is registered for
        self.outcome = (None, None)  # (result, error) to resume the session with
        self._pending = bytearray()  # sent, but not yet taken by the socket
        self._recv_failed: WireError | None = None
        self._send_failed: WireError | None = None

    def wait_frame(self):
        """Wait until a whole frame is buffered, for :meth:`recv_frame` to read.

        Pending sends drain first. Every frame waits at least one turn,
        so a peer whose frames are already buffered gets one a turn.
        """
        yield from self.flush()
        yield self._frame_bytes()
        while self._recv_failed is None and len(self._buffer) < self._frame_bytes():
            yield self._frame_bytes()

    def next_frame(self):
        """Wait for the next frame and read it: ``frame = yield from channel.next_frame()``."""
        yield from self.wait_frame()
        return self.recv_frame()

    def recv_payload(self, size: int, write):
        """Stream exactly ``size`` payload bytes into ``write`` as they arrive."""
        while size:
            if not self._buffer:
                yield 1
                if not self._buffer:
                    raise self._recv_failed
            part = min(size, len(self._buffer))
            self.recv_bytes_to(part, write)
            size -= part

    def flush(self):
        """Wait until the socket has taken every send."""
        if self._pending:
            yield _DRAIN
            if self._send_failed is not None:
                raise self._send_failed

    def _frame_bytes(self) -> int:
        """How many buffered bytes the next frame needs (4 until its header is in).

        A header that declares too large a frame needs nothing more:
        :meth:`recv_frame` refuses it.
        """
        if len(self._buffer) < 4:
            return 4
        (length,) = struct.unpack_from(">I", self._buffer)
        return 4 + length if length <= MAX_FRAME_BYTES else 4

    # The socket primitives. A read here follows a wait that ended
    # without its bytes, so it raises why; a send never blocks.

    def _send(self, data: bytes) -> None:
        if self._send_failed is not None:
            raise self._send_failed
        if not self._pending:
            try:
                sent = self._sock.send(data)
            except BlockingIOError:
                sent = 0
            except OSError as exc:
                self._send_failed = ConnectionClosedError("connection lost: %s" % exc)
                raise self._send_failed from exc
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
        self._pending += data

    def _recv_some(self, limit: int) -> bytes:
        raise self._recv_failed

    # The loop's side: one read for a session waiting for input, one send
    # of pending bytes for a session waiting for them to drain. Each
    # returns whether the peer made progress, or failed.

    def _read(self) -> bool:
        try:
            chunk = self._sock.recv(CHUNK_BYTES)
        except BlockingIOError:
            return False
        except OSError as exc:
            self._recv_failed = ConnectionClosedError("connection lost: %s" % exc)
            return True
        if not chunk:
            self._recv_failed = ConnectionClosedError("peer closed the connection")
        self._buffer += chunk
        return True

    def _push(self) -> bool:
        try:
            sent = self._sock.send(self._pending)
        except BlockingIOError:
            return False
        except OSError as exc:
            self._send_failed = ConnectionClosedError("connection lost: %s" % exc)
            return True
        del self._pending[:sent]
        return True


class Server:
    """A service's server: one ``selectors`` loop serves every connection.

    :meth:`serve_forever` runs the loop on the calling thread until
    :meth:`shutdown`. The loop accepts each connection and runs the
    service's session on it: ``service.handle_session(channel)`` returns
    a generator that yields what it waits for (see
    :class:`ServerChannel`), or a function to run off the loop, whose
    result the yield returns. The loop resumes a session once what it
    waits for holds, so no thread waits on a peer. One resumption, a
    turn, handles at most one frame: after each turn the loop polls,
    without waiting, for new connections and other sessions' input, and
    only then gives a session a frame that was already buffered. Work
    yielded as a function runs on one helper thread, started on first
    use.

    ``io_timeout`` (seconds, from the service) is how long a session may
    wait on its peer without progress. A :class:`Refusal` that escapes
    the session is answered with its reply, and a transport error
    (broken framing, an idle timeout, a peer gone mid-message) with a
    best-effort 400 ``protocol-error``; the server closes the
    connection once the session ends and its sends have drained.

    Past :attr:`max_sessions` open sessions, or past
    :attr:`max_sessions_per_peer` from one peer address, a connection is
    answered 503 ``busy`` and closed. :meth:`server_close` ends every
    open session at once: each session generator is closed, so its
    ``finally`` blocks run (a PUT in flight is discarded), and its
    connection is closed with no reply.
    """

    max_sessions = 64
    max_sessions_per_peer = 16

    def __init__(self, address: tuple[str, int], service):
        self.service = service
        self.socket = socket.create_server(address, backlog=socket.SOMAXCONN)
        self.socket.setblocking(False)
        self.address: tuple[str, int] = self.socket.getsockname()[:2]
        self._wake, self._waker = socket.socketpair()  # the helper and shutdown wake the loop
        self._wake.setblocking(False)
        self._waker.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._sessions: dict[ServerChannel, None] = {}  # open, in the order they came
        self._peers: dict[str, int] = {}  # open sessions per peer address
        self._ready: deque[ServerChannel] = deque()  # sessions to resume, in turn
        self._later: list[ServerChannel] = []  # resumed only after the next poll
        self._waiting: dict[ServerChannel, None] = {}  # sessions waiting on their peer
        self._check_at = _NEVER  # no waiting session times out before this
        self._helper: threading.Thread | None = None
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: deque = deque()  # (session, outcome) from the helper
        self._stopping = False
        self._stopped = threading.Event()  # set while no loop runs
        self._stopped.set()

    def serve_forever(self) -> None:
        """Run the loop on this thread until :meth:`shutdown`."""
        self._stopped.clear()
        try:
            ready, later, select = self._ready, self._later, self._selector.select
            while not self._stopping:
                now = time.monotonic()
                if now >= self._check_at:
                    self._expire(now)
                if ready or later:
                    timeout = 0
                elif self._check_at == _NEVER:
                    timeout = None
                else:
                    timeout = self._check_at - now
                for key, events in select(timeout):
                    if key.data is not None:
                        self._io(key.data)
                    elif key.fileobj is self.socket:
                        self._accept()
                    else:
                        self._collect()
                ready.extend(later)
                later.clear()
                if ready:
                    self._turn(ready.popleft())
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the loop; returns once :meth:`serve_forever` has. Sessions stay open."""
        self._stopping = True
        try:
            self._waker.send(b"\0")
        except OSError:
            pass  # a wake is pending already, or the server is closed
        self._stopped.wait()

    def server_close(self) -> None:
        """Stop the loop, end every open session, and close."""
        self.shutdown()
        for channel in list(self._sessions):
            try:
                channel.steps.close()
            except Exception:
                self.handle_error(channel._sock, channel.host)
            self._end(channel)
        if self._helper is not None:
            self._jobs.put(None)
            self._helper.join()
            self._helper = None
        self._selector.close()
        self._wake.close()
        self._waker.close()
        self.socket.close()

    def handle_error(self, request, client_address) -> None:
        """Print the traceback of a fault no session step handled."""
        import traceback

        print("-" * 40, file=sys.stderr)
        print("Exception in the session from", client_address, file=sys.stderr)
        traceback.print_exc()
        print("-" * 40, file=sys.stderr)

    def shutdown_request(self, request: socket.socket) -> None:
        """Close a connection, its sending side first."""
        try:
            request.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        request.close()

    # -- the loop's steps ----------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                request, client_address = self.socket.accept()
            except OSError:  # none left, or one that failed before it was accepted
                return
            host = client_address[0]
            channel = ServerChannel(request, host)
            if (
                len(self._sessions) >= self.max_sessions
                or self._peers.get(host, 0) >= self.max_sessions_per_peer
            ):
                try:
                    channel.send_frame(_BUSY.reply())
                except WireError:
                    pass  # the peer has already gone
                self.shutdown_request(request)
                continue
            channel.steps = self._session(channel)
            self._sessions[channel] = None
            self._peers[host] = self._peers.get(host, 0) + 1
            self._ready.append(channel)

    def _session(self, channel: ServerChannel):
        """The service's session on ``channel``, then the answer to what ended it."""
        try:
            try:
                yield from self.service.handle_session(channel)
            except (Refusal, WireError) as exc:
                if isinstance(exc, WireError):
                    exc = Refusal(400, "protocol-error", str(exc))
                channel.send_frame(exc.reply())
            yield from channel.flush()
        except WireError:
            pass  # the peer has gone, or stopped reading

    def _turn(self, channel: ServerChannel) -> None:
        """Resume a session, and file what it waits for next."""
        (result, error), channel.outcome = channel.outcome, (None, None)
        try:
            wait = channel.steps.throw(error) if error else channel.steps.send(result)
        except StopIteration:
            self._end(channel)
            return
        except Exception:
            self.handle_error(channel._sock, channel.host)
            self._end(channel)
            return
        if callable(wait):
            self._offload(channel, wait)
        elif wait == _DRAIN:
            self._wait(channel, _DRAIN, selectors.EVENT_WRITE)
        elif len(channel._buffer) >= wait or channel._recv_failed is not None:
            self._later.append(channel)
        else:
            self._wait(channel, wait, selectors.EVENT_READ)

    def _wait(self, channel: ServerChannel, need: int, events: int) -> None:
        channel.need = need
        channel.deadline = time.monotonic() + self.service.io_timeout
        self._check_at = min(self._check_at, channel.deadline)
        self._waiting[channel] = None
        self._watch(channel, events)

    def _io(self, channel: ServerChannel) -> None:
        """Read or send for a session that waits on its peer."""
        need = channel.need
        if need is None:  # not waiting: unwatched until it waits again
            self._watch(channel, 0)
            return
        if need == _DRAIN:
            moved = channel._push()
            done = not channel._pending or channel._send_failed is not None
        else:
            moved = channel._read()
            done = len(channel._buffer) >= need or channel._recv_failed is not None
        if done:
            self._resume(channel)
        elif moved:
            channel.deadline = time.monotonic() + self.service.io_timeout

    def _expire(self, now: float) -> None:
        """Time out every session that waited on its peer too long."""
        self._check_at = _NEVER
        for channel in list(self._waiting):
            if channel.deadline > now:
                self._check_at = min(self._check_at, channel.deadline)
                continue
            if channel.need == _DRAIN:
                channel._send_failed = ChannelTimeout("timed out")
            else:
                channel._recv_failed = ChannelTimeout("timed out")
            self._resume(channel)

    def _resume(self, channel: ServerChannel) -> None:
        del self._waiting[channel]
        channel.need = None
        self._ready.append(channel)

    def _watch(self, channel: ServerChannel, events: int) -> None:
        if events == channel.events:
            return
        if not events:
            self._selector.unregister(channel._sock)
        elif not channel.events:
            self._selector.register(channel._sock, events, channel)
        else:
            self._selector.modify(channel._sock, events, channel)
        channel.events = events

    def _end(self, channel: ServerChannel) -> None:
        del self._sessions[channel]
        self._waiting.pop(channel, None)
        self._peers[channel.host] -= 1
        if not self._peers[channel.host]:
            del self._peers[channel.host]
        self._watch(channel, 0)
        self.shutdown_request(channel._sock)

    # -- work off the loop ---------------------------------------------------

    def _offload(self, channel: ServerChannel, work) -> None:
        if self._helper is None:
            self._helper = threading.Thread(target=self._help, name="vo-helper", daemon=True)
            self._helper.start()
        self._jobs.put((channel, work))

    def _help(self) -> None:
        """The helper thread: run each job, and wake the loop with its outcome."""
        while (job := self._jobs.get()) is not None:
            channel, work = job
            try:
                outcome = (work(), None)
            except Exception as exc:
                outcome = (None, exc)
            self._done.append((channel, outcome))
            try:
                self._waker.send(b"\0")
            except OSError:
                pass  # a wake is pending already

    def _collect(self) -> None:
        """Take the wake-ups, and queue the sessions whose work is done."""
        try:
            self._wake.recv(4096)
        except OSError:
            pass
        while self._done:
            channel, outcome = self._done.popleft()
            channel.outcome = outcome
            self._ready.append(channel)

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
    # ASCII digits only: ``isdigit`` and ``int`` also take other scripts' digits.
    # At most five, so ``int`` never meets its digit limit.
    if not sep or not (port.isascii() and port.isdigit()) or len(port) > 5 or int(port) > 65535:
        raise ValueError("expected host:port, got %r" % text)
    return host or "0.0.0.0", int(port)
