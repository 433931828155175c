from __future__ import annotations

import io
import os
import select
import socket
import struct
import subprocess
import sys
import threading

import pytest

from vo_authz.credentials import HandshakeError, answer_challenge
from vo_authz.wire import (
    CHUNK_BYTES,
    MAX_FRAME_BYTES,
    Channel,
    ChannelTimeout,
    ConnectionClosedError,
    FrameTooLarge,
    ProtocolError,
    Refusal,
    Server,
    connect,
    encode_frame,
    parse_address,
)

from .conftest import TULL, server_threads


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    left, right = Channel(a, timeout=5.0), Channel(b, timeout=5.0)
    yield left, right
    left.close()
    right.close()


def test_frame_round_trip(pair):
    left, right = pair
    message = {"type": "command", "op": "LIST", "path": "/data"}
    left.send_frame(message)
    assert right.recv_frame() == message


def test_frames_preserve_non_ascii(pair):
    left, right = pair
    left.send_frame({"type": "x", "subject": "/O=x/CN=Grå"})
    assert right.recv_frame()["subject"] == "/O=x/CN=Grå"


def test_multiple_frames_in_order(pair):
    left, right = pair
    for i in range(5):
        left.send_frame({"type": "n", "i": i})
    assert [right.recv_frame()["i"] for i in range(5)] == [0, 1, 2, 3, 4]


def test_raw_bytes_after_frame(pair):
    left, right = pair
    payload = bytes(range(256)) * 10
    left.send_frame({"type": "data_header", "size": len(payload)})
    left.send_bytes(payload)
    header = right.recv_frame()
    sink = io.BytesIO()
    right.recv_bytes_to(header["size"], sink.write)
    assert sink.getvalue() == payload


def test_recv_bytes_to_streams_into_writer(pair):
    left, right = pair
    payload = b"x" * 100_000
    left.send_bytes(payload)
    sink = io.BytesIO()
    right.recv_bytes_to(len(payload), sink.write)
    assert sink.getvalue() == payload


def test_two_frames_in_one_write_are_both_read(pair):
    left, right = pair
    left.send_frames({"type": "a"}, {"type": "b"})
    assert right.recv_frame() == {"type": "a"}
    assert right.recv_frame() == {"type": "b"}


def test_frame_and_raw_bytes_in_one_write(pair):
    left, right = pair
    payload = bytes(range(256)) * 4
    left.send_frames({"type": "data_header", "size": len(payload)}, payload=payload)
    left.send_frame({"type": "after"})
    assert right.recv_frame() == {"type": "data_header", "size": len(payload)}
    sink = io.BytesIO()
    right.recv_bytes_to(len(payload), sink.write)
    assert sink.getvalue() == payload
    assert right.recv_frame() == {"type": "after"}


def test_payload_over_a_chunk_follows_its_frames(pair, monkeypatch):
    left, right = pair
    writes = []
    send = Channel._send

    def counting(channel, data):
        writes.append(len(data))
        send(channel, data)

    monkeypatch.setattr(Channel, "_send", counting)
    payload = b"p" * (CHUNK_BYTES + 1)
    header = {"type": "data_header", "size": len(payload)}
    sender = threading.Thread(target=left.send_frames, args=(header,), kwargs={"payload": payload})
    sender.start()
    try:
        assert right.recv_frame() == header
        sink = io.BytesIO()
        right.recv_bytes_to(len(payload), sink.write)
    finally:
        sender.join(timeout=5)
    assert not sender.is_alive()
    assert sink.getvalue() == payload
    assert writes == [len(encode_frame(header)), len(payload)]


def test_frame_fed_one_byte_at_a_time(pair, monkeypatch):
    left, right = pair
    recv_some = Channel._recv_some
    monkeypatch.setattr(Channel, "_recv_some", lambda channel, limit: recv_some(channel, 1))
    message = {"type": "command", "op": "PUT", "path": "/data/x", "size": 3}
    left.send_frames(message, payload=b"xyz")
    left.send_frame({"type": "next"})
    assert right.recv_frame() == message
    sink = io.BytesIO()
    right.recv_bytes_to(3, sink.write)
    assert sink.getvalue() == b"xyz"
    assert right.recv_frame() == {"type": "next"}


def test_oversized_outgoing_frame_rejected(pair):
    left, _ = pair
    with pytest.raises(FrameTooLarge):
        left.send_frame({"type": "x", "blob": "a" * (MAX_FRAME_BYTES + 1)})


def test_oversized_declared_length_rejected(pair):
    left, right = pair
    left.send_bytes(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(FrameTooLarge):
        right.recv_frame()


def test_non_json_frame_rejected(pair):
    left, right = pair
    left.send_bytes(struct.pack(">I", 3) + b"{{{")
    with pytest.raises(ProtocolError):
        right.recv_frame()


def test_deeply_nested_frame_rejected(pair):
    left, right = pair
    data = b"[" * 100_000
    sender = threading.Thread(target=left.send_bytes, args=(struct.pack(">I", len(data)) + data,))
    sender.start()
    try:
        with pytest.raises(ProtocolError):
            right.recv_frame()
    finally:
        sender.join(timeout=5)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer digit limit here"
)
def test_integer_of_too_many_digits_rejected(pair):
    # json.loads raises a bare ValueError past the interpreter's digit limit.
    left, right = pair
    data = b'{"type":"auth","n":%s}' % (b"9" * (sys.get_int_max_str_digits() + 700))
    left.send_bytes(struct.pack(">I", len(data)) + data)
    with pytest.raises(ProtocolError):
        right.recv_frame()


def test_frame_without_type_rejected(pair):
    left, right = pair
    left.send_bytes(struct.pack(">I", 2) + b"{}")
    with pytest.raises(ProtocolError):
        right.recv_frame()


def test_non_object_frame_rejected(pair):
    left, right = pair
    left.send_bytes(struct.pack(">I", 7) + b'[1,2,3]')
    with pytest.raises(ProtocolError):
        right.recv_frame()


def test_peer_close_raises(pair):
    left, right = pair
    left.close()
    with pytest.raises(ConnectionClosedError):
        right.recv_frame()


def test_truncated_frame_raises_on_close(pair):
    left, right = pair
    left.send_bytes(struct.pack(">I", 100) + b"only a little")
    left.close()
    with pytest.raises(ConnectionClosedError):
        right.recv_frame()


def test_recv_timeout():
    a, b = socket.socketpair()
    left, right = Channel(a, timeout=0.1), Channel(b, timeout=0.1)
    try:
        with pytest.raises(ChannelTimeout):
            right.recv_frame()
    finally:
        left.close()
        right.close()


def test_large_frame_crosses_socket_buffers():
    # A frame bigger than any kernel socket buffer must arrive whole;
    # the sender runs in a thread so both directions make progress.
    a, b = socket.socketpair()
    left, right = Channel(a, timeout=10.0), Channel(b, timeout=10.0)
    message = {"type": "x", "blob": "y" * 600_000}
    sender = threading.Thread(target=left.send_frame, args=(message,), daemon=True)
    sender.start()
    try:
        assert right.recv_frame() == message
        sender.join(timeout=10)
    finally:
        left.close()
        right.close()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("localhost:900", ("localhost", 900)),
        (":2813", ("0.0.0.0", 2813)),
        ("10.0.0.1:1", ("10.0.0.1", 1)),
    ],
)
def test_parse_address(text, expected):
    assert parse_address(text) == expected


# Digits of other scripts pass ``isdigit``, and ``int`` reads most of them;
# ``int`` refuses more than 4,300 digits with a message of its own.
@pytest.mark.parametrize("text", ["localhost", "host:", "host:abc", "", ":70000", "h:65536",
                                  ":٢٨١٣", "h:１２", ":²",
                                  pytest.param(":" + "1" * 5000, id="5000-digit-port")])
def test_parse_address_rejects(text):
    with pytest.raises(ValueError, match="expected host:port"):
        parse_address(text)


def test_tcp_connections_set_nodelay_on_both_ends():
    server_side = []

    class Probe:
        io_timeout = 5.0

        def handle_session(self, channel):
            server_side.append(channel._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            channel.send_frame({"type": "done"})
            yield from channel.flush()

    server = Server(("127.0.0.1", 0), Probe())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = connect(server.address, timeout=5.0)
        try:
            assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert client.recv_frame() == {"type": "done"}
        finally:
            client.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert server_side and server_side[0]


def test_server_answers_a_refusal_that_ends_the_session():
    class Refuser:
        io_timeout = 5.0

        def handle_session(self, channel):
            frame = yield from channel.next_frame()
            raise Refusal(403, "no", "refused %s" % frame["type"], uncovered=[])

    server = Server(("127.0.0.1", 0), Refuser())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = connect(server.address, timeout=5.0)
        try:
            client.send_frame({"type": "hello"})
            assert client.recv_frame() == {
                "type": "response", "status": 403, "code": "no", "message": "refused hello",
                "uncovered": [],
            }
            with pytest.raises(ConnectionClosedError):
                client.recv_frame()
        finally:
            client.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def serve_one_session(handle_session, io_timeout=5.0):
    """Serve ``handle_session`` on a local port: ``(server, errors, finished, thread)``.

    ``errors`` records every ``handle_error`` call; ``finished`` is set
    once the server has closed a connection.
    """

    class Service:
        pass

    service = Service()
    service.io_timeout = io_timeout
    service.handle_session = handle_session
    server = Server(("127.0.0.1", 0), service)
    errors, finished = [], threading.Event()
    server.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
    shutdown_request = server.shutdown_request

    def shutdown_and_signal(request):
        shutdown_request(request)
        finished.set()

    server.shutdown_request = shutdown_and_signal
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, errors, finished, thread


def reset(channel):
    """Close with ``SO_LINGER`` 0, so the peer sees a reset, not an orderly close."""
    channel._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    channel._sock.close()


def stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_reset_mid_frame_is_a_transport_error():
    seen = []

    def read_a_frame(channel):
        try:
            yield from channel.next_frame()
        except Exception as exc:
            seen.append(exc)
            raise

    server, errors, finished, thread = serve_one_session(read_a_frame)
    try:
        client = connect(server.address, timeout=5.0)
        client.send_bytes(struct.pack(">I", 100) + b"half a frame")
        reset(client)
        assert finished.wait(timeout=5)
    finally:
        stop(server, thread)
    assert errors == []
    assert len(seen) == 1 and isinstance(seen[0], ConnectionClosedError)


def streaming(seen, started=None):
    """A session that sends up to 64 MiB, each 64 KiB once the socket took the last."""

    def stream(channel):
        if started is not None:
            started.set()
        block = b"x" * CHUNK_BYTES
        try:
            for _ in range(1024):
                channel.send_bytes(block)
                yield from channel.flush()
        except Exception as exc:
            seen.append(exc)
            raise

    return stream


def test_reset_mid_send_is_a_transport_error():
    seen = []
    started = threading.Event()
    server, errors, finished, thread = serve_one_session(streaming(seen, started))
    try:
        client = connect(server.address, timeout=5.0)
        assert started.wait(timeout=5)
        client._sock.recv(4096)
        reset(client)
        assert finished.wait(timeout=5)
    finally:
        stop(server, thread)
    assert errors == []
    assert len(seen) == 1 and isinstance(seen[0], ConnectionClosedError)


def test_send_timeout_ends_the_session():
    # The client never reads, so once the socket buffers fill the
    # session's sends stop draining, and it times out.
    seen = []
    server, errors, finished, thread = serve_one_session(streaming(seen), io_timeout=0.5)
    try:
        client = connect(server.address, timeout=5.0)
        try:
            assert finished.wait(timeout=3)
        finally:
            client.close()
    finally:
        stop(server, thread)
    assert errors == []
    assert len(seen) == 1 and isinstance(seen[0], ChannelTimeout)


def test_a_peer_that_never_reads_cannot_make_the_server_buffer_its_writes():
    # The client asks for a large reply, never reads it, and keeps
    # writing. The server reads only while the session waits for input,
    # so the client's writes stall once the kernel buffers are full,
    # and the session ends when its sends make no progress for io_timeout.
    seen, channels = [], []

    def reply_then_wait(channel):
        channels.append(channel)
        yield from channel.next_frame()
        yield from streaming(seen)(channel)
        yield from channel.next_frame()

    server, errors, finished, thread = serve_one_session(reply_then_wait, io_timeout=0.5)
    cap = 32 * 1024 * 1024  # far past what the kernel buffers of one connection hold
    written = 0
    try:
        client = connect(server.address, timeout=5.0)
        try:
            client.send_frame({"type": "get"})
            client._sock.setblocking(False)
            junk = b"\xff" * CHUNK_BYTES
            while written < cap:
                if not select.select([], [client._sock], [], 5.0)[1]:
                    break  # stalled for good: the server never closed
                try:
                    written += client._sock.send(junk)
                except BlockingIOError:
                    continue
                except OSError:  # the server closed the connection
                    break
            assert finished.wait(timeout=3)
        finally:
            client.close()
    finally:
        stop(server, thread)
    assert errors == []
    assert written < cap
    assert len(seen) == 1 and isinstance(seen[0], ChannelTimeout)
    assert len(channels[0]._buffer) <= CHUNK_BYTES


# -- the loop ---------------------------------------------------------------


class Echo:
    """Waits for one frame and answers it with ``done``; records its threads."""

    io_timeout = 5.0

    def __init__(self):
        self.threads = set()

    def handle_session(self, channel):
        self.threads.add(threading.current_thread())
        yield from channel.next_frame()
        channel.send_frame({"type": "done"})


def serve(service):
    """Serve ``service``: ``(server, thread, ended)``; ``ended`` is released per shut connection."""
    server = Server(("127.0.0.1", 0), service)
    ended = threading.Semaphore(0)
    shutdown_request = server.shutdown_request

    def shutdown_and_signal(request):
        shutdown_request(request)
        ended.release()

    server.shutdown_request = shutdown_and_signal
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, ended


def round_trip(address):
    client = connect(address, timeout=5.0)
    try:
        client.send_frame({"type": "hello"})
        assert client.recv_frame() == {"type": "done"}
        with pytest.raises(ConnectionClosedError):
            client.recv_frame()
    finally:
        client.close()


BUSY = {
    "type": "response", "status": 503, "code": "busy",
    "message": "too many open sessions; try again later",
}


def test_connection_over_the_cap_is_refused_busy(monkeypatch, identities):
    monkeypatch.setattr(Server, "max_sessions", 2)
    server, thread, ended = serve(Echo())
    held = [connect(server.address, timeout=5.0) for _ in range(2)]
    try:
        extra = connect(server.address, timeout=5.0)
        try:
            assert extra.recv_frame() == BUSY
            with pytest.raises(ConnectionClosedError):
                extra.recv_frame()
        finally:
            extra.close()
        assert ended.acquire(timeout=5)  # the refused connection
        # The client names the refusal that came in place of the challenge.
        extra = connect(server.address, timeout=5.0)
        try:
            with pytest.raises(HandshakeError) as exc:
                answer_challenge(extra, identities.bundle(TULL))
            assert (exc.value.status, exc.value.code) == (503, "busy")
        finally:
            extra.close()
        assert ended.acquire(timeout=5)
        # A session that ends makes room for the next connection.
        first = held.pop(0)
        first.send_frame({"type": "hello"})
        assert first.recv_frame() == {"type": "done"}
        first.close()
        assert ended.acquire(timeout=5)
        round_trip(server.address)
    finally:
        for client in held:
            client.close()
        stop(server, thread)


def test_sequential_connections_start_no_thread():
    before = threading.active_count()
    service = Echo()
    server, thread, ended = serve(service)
    try:
        for _ in range(50):
            round_trip(server.address)
            assert ended.acquire(timeout=5)
        # Every session ran on the loop's own thread.
        assert service.threads == {thread}
        assert threading.active_count() == before + 1
    finally:
        stop(server, thread)


class Offloader(Echo):
    """Answers each frame with what a function run off the loop returns."""

    def handle_session(self, channel):
        self.threads.add(threading.current_thread())
        yield from channel.next_frame()
        channel.send_frame((yield lambda: {"type": "done", "on": threading.current_thread().name}))


def test_server_close_leaves_no_server_thread():
    baseline, before = threading.active_count(), server_threads()
    server, thread, ended = serve(Offloader())
    try:
        clients = [connect(server.address, timeout=5.0) for _ in range(3)]
        for client in clients:
            client.send_frame({"type": "hello"})
        for client in clients:
            assert client.recv_frame() == {"type": "done", "on": "vo-helper"}
            client.close()
    finally:
        stop(server, thread)
    assert server_threads() <= before
    assert threading.active_count() <= baseline


def test_sessions_past_the_per_peer_cap_are_refused_busy(monkeypatch):
    monkeypatch.setattr(Server, "max_sessions_per_peer", 1)
    server, thread, ended = serve(Echo())
    try:
        held = connect(server.address, timeout=5.0)
        try:
            extra = connect(server.address, timeout=5.0)
            try:
                assert extra.recv_frame() == BUSY
            finally:
                extra.close()
            assert ended.acquire(timeout=5)
            # Another peer address is still served.
            sock = socket.create_connection(
                server.address, timeout=5.0, source_address=("127.0.0.2", 0)
            )
            other = Channel(sock, timeout=5.0)
            try:
                other.send_frame({"type": "hello"})
                assert other.recv_frame() == {"type": "done"}
            finally:
                other.close()
            assert ended.acquire(timeout=5)
            held.send_frame({"type": "hello"})
            assert held.recv_frame() == {"type": "done"}
        finally:
            held.close()
        assert ended.acquire(timeout=5)
        # The peer's count fell with its session.
        round_trip(server.address)
    finally:
        stop(server, thread)


class Greeter:
    """Answers ``done`` at once, then holds the session until the peer closes."""

    io_timeout = 5.0

    def handle_session(self, channel):
        channel.send_frame({"type": "done"})
        yield from channel.next_frame()


def test_a_burst_of_connections_stays_within_the_thread_bound(monkeypatch):
    monkeypatch.setattr(Server, "max_sessions", 2)
    server, thread, ended = serve(Greeter())
    before = threading.active_count()
    answers = []
    # Every client keeps its connection open until all have their answer.
    answered = threading.Barrier(20, timeout=10)

    def client():
        channel = connect(server.address, timeout=5.0)
        try:
            answers.append(channel.recv_frame())
            answered.wait()
        finally:
            channel.close()

    clients = [threading.Thread(target=client) for _ in range(20)]
    try:
        for each in clients:
            each.start()
        during = threading.active_count()
        for each in clients:
            each.join(timeout=10)
        assert not any(each.is_alive() for each in clients)
        assert during <= before + 20  # the clients' threads, and no server thread
    finally:
        stop(server, thread)
    assert sorted(answer["type"] for answer in answers) == ["done"] * 2 + ["response"] * 18
    assert all(answer in ({"type": "done"}, BUSY) for answer in answers)


def test_a_failed_bind_raises_its_os_error():
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with pytest.raises(OSError):
            Server(taken.getsockname(), Echo())


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_services_loads_no_thread_pool_or_logging():
    # Each module costs every server process its import time at start.
    # A server prints a traceback only on a fault, and imports traceback then.
    code = (
        "import sys, vo_authz.cas_server, vo_authz.file_server; "
        "print(*[m for m in ('logging', 'concurrent.futures', 'socketserver', 'asyncio',"
        " 'traceback') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
