from __future__ import annotations

import io
import socket
import struct
import sys
import threading
import time

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

from .conftest import TULL, WORKER_PREFIX


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
    right.recv_bytes_to(header["size"], sink)
    assert sink.getvalue() == payload


def test_recv_bytes_to_streams_into_writer(pair):
    left, right = pair
    payload = b"x" * 100_000
    left.send_bytes(payload)
    sink = io.BytesIO()
    right.recv_bytes_to(len(payload), sink)
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
    right.recv_bytes_to(len(payload), sink)
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
        right.recv_bytes_to(len(payload), sink)
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
    right.recv_bytes_to(3, sink)
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


@pytest.mark.parametrize("text", ["localhost", "host:", "host:abc", "", ":70000", "h:65536"])
def test_parse_address_rejects(text):
    with pytest.raises(ValueError):
        parse_address(text)


def test_tcp_connections_set_nodelay_on_both_ends():
    server_side = []

    class Probe:
        io_timeout = 5.0

        def handle_session(self, channel):
            server_side.append(channel._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            channel.send_frame({"type": "done"})

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
            frame = channel.recv_frame()
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


def serve_one_session(handle_session):
    """Serve ``handle_session`` on a local port: ``(server, errors, finished, thread)``.

    ``errors`` records every ``handle_error`` call; ``finished`` is set
    once the server has closed a connection.
    """

    class Service:
        io_timeout = 5.0

    service = Service()
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
            channel.recv_frame()
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


def test_reset_mid_send_is_a_transport_error():
    seen = []
    started = threading.Event()

    def stream(channel):
        started.set()
        block = b"x" * 1_048_576
        try:
            for _ in range(256):
                channel.send_bytes(block)
        except Exception as exc:
            seen.append(exc)
            raise

    server, errors, finished, thread = serve_one_session(stream)
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


# -- the worker pool ------------------------------------------------------------


class Echo:
    """Waits for one frame and answers it with ``done``; counts its workers."""

    io_timeout = 5.0

    def __init__(self):
        self.workers = set()

    def handle_session(self, channel):
        self.workers.add(threading.current_thread().name)
        channel.recv_frame()
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


def worker_names():
    return {t.name for t in threading.enumerate() if t.name.startswith(WORKER_PREFIX)}


def test_connection_over_the_cap_is_refused_busy(monkeypatch, identities):
    monkeypatch.setattr(Server, "max_workers", 2)
    server, thread, ended = serve(Echo())
    held = [connect(server.address, timeout=5.0) for _ in range(2)]
    try:
        extra = connect(server.address, timeout=5.0)
        try:
            assert extra.recv_frame() == {
                "type": "response", "status": 503, "code": "busy",
                "message": "every worker is busy; try again later",
            }
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
            assert exc.value.code == "busy"
        finally:
            extra.close()
        assert ended.acquire(timeout=5)
        # A session that ends frees its worker for the next connection.
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


def test_sequential_connections_reuse_workers(monkeypatch):
    monkeypatch.setattr(Server, "max_workers", 2)
    before = worker_names()
    service = Echo()
    server, thread, ended = serve(service)
    try:
        for _ in range(50):
            round_trip(server.address)
            assert ended.acquire(timeout=5)
        assert len(service.workers) <= 2
        assert len(worker_names() - before) <= 2
    finally:
        stop(server, thread)


def test_server_close_ends_the_workers():
    baseline = threading.active_count()
    server, thread, ended = serve(Echo())
    try:
        clients = [connect(server.address, timeout=5.0) for _ in range(3)]
        for client in clients:
            client.send_frame({"type": "hello"})
        for client in clients:
            assert client.recv_frame() == {"type": "done"}
            client.close()
    finally:
        stop(server, thread)
    deadline = time.monotonic() + 1.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline
