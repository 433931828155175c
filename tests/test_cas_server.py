from __future__ import annotations

import json
import os
import random
import select
import socket
import struct
import sys
import threading
import time
from datetime import timedelta

import pytest

from vo_authz import cas_server as cas_server_module
from vo_authz import credentials, wire
from vo_authz.ca import write_atomically
from vo_authz.cas_server import CasServer, CasService, load_cas_config, service_from_config
from vo_authz.cas_server import main as cas_main
from vo_authz.client import ServiceError, admin_load, issue_assertion
from vo_authz.credentials import (
    answer_challenge,
    assertion_from_doc,
    identity_to_doc,
    public_key_to_pem,
    verify_assertion,
)
from vo_authz.policy import RightsTuple, apply_command_file, load_snapshot, save_snapshot

from .conftest import ADMIN, CAS_DN, DEMO_POLICY, ORWELL, TULL, WELLS


@pytest.fixture
def cas_service(cas_identity, trust_root, demo_store, clock, tmp_path):
    cred, private = cas_identity
    return CasService(
        issuer=cred,
        issuer_private_key=private,
        trust_root=trust_root[1],
        store=demo_store,
        admin_dns=(ADMIN,),
        max_lifetime_seconds=43200,
        snapshot_path=str(tmp_path / "policy.snapshot"),
        clock=clock,
    )


def issue(service: CasService, subject: str, **fields) -> dict:
    frame = {"type": "issue_request"}
    frame.update(fields)
    return service.handle_request(subject, frame)


def trusted(service: CasService) -> dict[str, bytes]:
    return {service.issuer.subject: service.issuer.public_key}


# -- issuance ------------------------------------------------------------------


def test_empty_request_issues_all_granted_rights(cas_service, demo_store, now):
    response = issue(cas_service, TULL)
    assert response["status"] == 200
    assertion = assertion_from_doc(response["assertion"])
    verified = verify_assertion(assertion, trusted(cas_service), now)
    assert verified.subject == TULL
    assert verified.issuer == CAS_DN
    assert list(verified.rights) == demo_store.rights_of(TULL)


def test_filter_narrows_issue(cas_service, now):
    want = RightsTuple("group", "member", "atlas/admin")
    response = issue(cas_service, TULL, rights=[want.as_dict()])
    assert response["status"] == 200
    body = assertion_from_doc(response["assertion"]).body
    assert body.rights == (want,)


def test_uncovered_request_denied_with_listing(cas_service):
    want = RightsTuple("group", "member", "atlas/admin")
    response = issue(cas_service, ORWELL, rights=[want.as_dict()])
    assert response["status"] == 403
    assert response["code"] == "rights-not-granted"
    assert response["uncovered"] == [want.as_dict()]


def test_unknown_subject_gets_no_vo_membership(cas_service):
    response = issue(cas_service, WELLS)
    assert response["status"] == 403
    assert response["code"] == "no-vo-membership"


def test_registered_but_grantless_subject_gets_no_rights(cas_identity, trust_root, demo_store, clock):
    cred, private = cas_identity
    store, _ = apply_command_file(demo_store, 'user "%s"\n' % WELLS)
    service = CasService(cred, private, trust_root[1], store=store, clock=clock)
    response = issue(service, WELLS)
    assert response["status"] == 403
    assert response["code"] == "no-rights"


def test_subject_whose_last_right_is_rescinded_gets_no_rights(cas_service):
    assert issue(cas_service, ORWELL)["status"] == 200
    commands = 'rescind "%s" member atlas/data\n' % ORWELL
    response = cas_service.handle_request(
        ADMIN, {"type": "admin_load", "commands": commands}
    )
    assert response["status"] == 200
    response = issue(cas_service, ORWELL)
    assert response["status"] == 403
    assert response["code"] == "no-rights"


def test_issue_window_uses_requested_lifetime(cas_service, now):
    response = issue(cas_service, TULL, lifetime_seconds=60)
    body = assertion_from_doc(response["assertion"]).body
    assert body.issued_at == now
    assert body.not_after == now + timedelta(seconds=60)


def test_issue_lifetime_clamped_to_server_max(cas_service, now):
    response = issue(cas_service, TULL, lifetime_seconds=10**9)
    body = assertion_from_doc(response["assertion"]).body
    assert body.not_after == now + timedelta(seconds=cas_service.max_lifetime_seconds)


@pytest.mark.parametrize("lifetime", [0, -5, True, "3600"])
def test_bad_lifetime_rejected(cas_service, lifetime):
    response = issue(cas_service, TULL, lifetime_seconds=lifetime)
    assert response["status"] == 400


@pytest.mark.parametrize(
    "rights",
    [
        "not-a-list",
        [{"service_type": "group"}],
        [{"service_type": "group", "action": "member", "target": "atlas/admin", "match_mode": "glob"}],
        [5],
        [["service_type", "action", "target", "match_mode"]],
        [{"service_type": "group", "action": "member", "target": "atlas/admin", "match_mode": True}],
    ],
)
def test_bad_requested_rights_rejected(cas_service, rights):
    response = issue(cas_service, TULL, rights=rights)
    assert response["status"] == 400


def test_issued_rights_always_subset_of_granted(cas_service, demo_store, now):
    # Soundness: whatever subset is requested, nothing outside the
    # store's grants is ever issued.
    rng = random.Random(42)
    granted = demo_store.rights_of(TULL)
    extra = RightsTuple("group", "member", "cms/prod")
    for _ in range(50):
        req = [t for t in granted if rng.random() < 0.6]
        if rng.random() < 0.3:
            req.append(extra)
        response = issue(cas_service, TULL, rights=[t.as_dict() for t in req])
        if extra in req:
            assert response["status"] == 403
        else:
            body = assertion_from_doc(response["assertion"]).body
            assert set(body.rights) <= set(granted)
            if not req:
                assert list(body.rights) == granted


def test_serials_are_fresh(cas_service):
    serials = set()
    for _ in range(50):
        response = issue(cas_service, TULL)
        serials.add(response["assertion"]["serial"])
    assert len(serials) == 50


def test_unknown_request_type(cas_service):
    response = cas_service.handle_request(TULL, {"type": "command"})
    assert response["type"] == "response"
    assert response["status"] == 400


# -- administration ------------------------------------------------------------


def test_non_admin_cannot_load(cas_service, demo_store):
    response = cas_service.handle_request(
        TULL, {"type": "admin_load", "commands": "servicetype net join\n"}
    )
    assert response["status"] == 403
    assert response["code"] == "not-admin"
    assert cas_service.store == demo_store


def test_admin_load_applies_and_persists(cas_service):
    commands = 'rescind "%s" member atlas/admin\n' % TULL
    response = cas_service.handle_request(
        ADMIN, {"type": "admin_load", "commands": commands}
    )
    assert response == {"type": "response", "status": 200, "applied": 1}
    assert cas_service.store.rights_of(TULL) == [
        RightsTuple("group", "member", "atlas/data")
    ]
    with open(cas_service.snapshot_path, "rb") as handle:
        assert load_snapshot(handle.read()) == cas_service.store


def test_admin_load_error_names_line_and_mutates_nothing(cas_service, demo_store):
    cas_service.handle_request(ADMIN, {"type": "admin_load", "commands": ""})
    with open(cas_service.snapshot_path, "rb") as handle:
        before = handle.read()
    commands = "object group atlas/new\nbogus line\n"
    response = cas_service.handle_request(
        ADMIN, {"type": "admin_load", "commands": commands}
    )
    assert response["status"] == 400
    assert response["code"] == "command-file-error"
    assert response["line"] == 2
    assert cas_service.store == demo_store
    with open(cas_service.snapshot_path, "rb") as handle:
        assert handle.read() == before


def test_admin_load_requires_string_commands(cas_service):
    response = cas_service.handle_request(ADMIN, {"type": "admin_load", "commands": 7})
    assert response["status"] == 400


def test_issuance_sees_pre_or_post_load_store_never_a_mix(cas_service, demo_store):
    pre = tuple(demo_store.rights_of(TULL))
    post = (RightsTuple("group", "member", "atlas/data"),)
    commands = 'rescind "%s" member atlas/admin\n' % TULL
    results: list[tuple] = []
    stop = threading.Event()

    def issuer_loop():
        while not stop.is_set():
            response = issue(cas_service, TULL)
            body = assertion_from_doc(response["assertion"]).body
            results.append(body.rights)

    threads = [threading.Thread(target=issuer_loop) for _ in range(4)]
    for t in threads:
        t.start()
    cas_service.handle_request(ADMIN, {"type": "admin_load", "commands": commands})
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert results
    for rights in results:
        assert rights in (pre, post)


# -- over the wire ---------------------------------------------------------------


@pytest.fixture
def cas_server(cas_service):
    server = CasServer(("127.0.0.1", 0), cas_service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_issue_over_tcp(cas_server, identities, now, cas_service):
    bundle = identities.bundle(TULL)
    assertion = issue_assertion(cas_server.address, bundle)
    verified = verify_assertion(assertion, trusted(cas_service), now)
    assert verified.subject == TULL


def test_admin_load_over_tcp(cas_server, identities, cas_service):
    bundle = identities.bundle(ADMIN)
    applied = admin_load(cas_server.address, bundle, 'rescind "%s" member atlas/admin\n' % TULL)
    assert applied == 1
    assert cas_service.store.rights_of(TULL) == [
        RightsTuple("group", "member", "atlas/data")
    ]


def test_server_close_ends_an_open_session(cas_server):
    channel = wire.connect(cas_server.address, timeout=1.0)
    try:
        assert channel.recv_frame()["type"] == "challenge"
        cas_server.shutdown()
        started = time.monotonic()
        cas_server.server_close()
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
        assert time.monotonic() - started < 1.0
    finally:
        channel.close()


def burn_cpu(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_a_new_connection_is_challenged_before_a_buffered_request_is_served(
    cas_server, identities, monkeypatch
):
    # A sends its auth and its request in one write. B connects while A's
    # auth is being checked, and must get its challenge before A's request
    # takes its turn.
    verify_session_chain = credentials.verify_session_chain
    handle_issue = CasService.handle_issue

    def slow_verify(*args):
        burn_cpu(0.1)
        return verify_session_chain(*args)

    def slow_issue(*args):
        burn_cpu(0.1)
        return handle_issue(*args)

    monkeypatch.setattr(credentials, "verify_session_chain", slow_verify)
    monkeypatch.setattr(CasService, "handle_issue", slow_issue)
    a = wire.connect(cas_server.address, timeout=5.0)
    try:
        answer_challenge(a, identities.bundle(TULL), {"type": "issue_request"})
        time.sleep(0.01)
        b = wire.connect(cas_server.address, timeout=5.0)
        try:
            assert b.recv_frame()["type"] == "challenge"
            # A's reply has not arrived yet.
            assert select.select([a._sock], [], [], 0)[0] == []
        finally:
            b.close()
        assert a.recv_frame()["status"] == 200
    finally:
        a.close()


def test_an_issuance_is_served_while_a_policy_load_writes_its_snapshot(
    cas_server, cas_service, identities, monkeypatch
):
    writing = threading.Event()

    def slow_write(path, data):
        writing.set()
        time.sleep(0.5)
        write_atomically(path, data)

    monkeypatch.setattr(cas_server_module, "write_atomically", slow_write)
    applied = []
    load = threading.Thread(
        target=lambda: applied.append(
            admin_load(
                cas_server.address, identities.bundle(ADMIN),
                'rescind "%s" member atlas/admin\n' % TULL,
            )
        )
    )
    load.start()
    try:
        assert writing.wait(timeout=5)
        started = time.monotonic()
        issue_assertion(cas_server.address, identities.bundle(ORWELL))
        assert time.monotonic() - started < 0.25
    finally:
        load.join(timeout=5)
    assert applied == [1]
    assert cas_service.store.rights_of(TULL) == [RightsTuple("group", "member", "atlas/data")]


@pytest.mark.parametrize("failure", ["missing-directory", "rename-blocked"])
def test_failed_snapshot_write_answers_500_and_keeps_store(
    cas_server, cas_service, identities, demo_store, tmp_path, failure
):
    if failure == "missing-directory":
        cas_service.snapshot_path = str(tmp_path / "gone" / "policy.snapshot")
    else:
        # The temporary file is written, then the rename onto a directory fails.
        os.mkdir(cas_service.snapshot_path)
    with pytest.raises(ServiceError) as exc:
        admin_load(
            cas_server.address,
            identities.bundle(ADMIN),
            'rescind "%s" member atlas/admin\n' % TULL,
        )
    assert exc.value.status == 500
    assert exc.value.code == "snapshot-failed"
    assert cas_service.store == demo_store
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_denied_issue_over_tcp_raises_service_error(cas_server, identities):
    bundle = identities.bundle(WELLS)
    with pytest.raises(ServiceError) as exc:
        issue_assertion(cas_server.address, bundle)
    assert exc.value.status == 403
    assert exc.value.code == "no-vo-membership"


def test_concurrent_issues_get_distinct_serials(cas_server, identities):
    serials: list[str] = []
    lock = threading.Lock()
    bundles = [identities.bundle(TULL), identities.bundle(ORWELL)]

    def one(bundle):
        assertion = issue_assertion(cas_server.address, bundle)
        with lock:
            serials.append(assertion.body.serial)

    threads = [threading.Thread(target=one, args=(b,)) for b in bundles for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(serials) == 6
    assert len(set(serials)) == 6


def test_expired_session_rejected_over_tcp(cas_server, identities, now):
    bundle = identities.bundle(TULL, session_lifetime=timedelta(seconds=1))
    # Server clock is far past this session's expiry.  The server sends
    # its 401 and closes while the client is still pipelining, so the
    # error may surface as a connection failure instead of a response.
    cas_server.service.clock = lambda: now + timedelta(hours=1)
    try:
        with pytest.raises((ServiceError, wire.WireError, OSError)):
            issue_assertion(cas_server.address, bundle)
    finally:
        cas_server.service.clock = lambda: now


def test_oversized_frame_gets_protocol_error(cas_server):
    sock = socket.create_connection(cas_server.address, timeout=5)
    try:
        channel = wire.Channel(sock, timeout=5)
        channel.recv_frame()  # the challenge
        sock.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1))
        frame = channel.recv_frame()
        assert frame["type"] == "response"
        assert frame["code"] == "protocol-error"
    finally:
        sock.close()


def test_deeply_nested_auth_frame_gets_protocol_error(cas_server):
    errors = []
    cas_server.handle_error = lambda request, address: errors.append(address)
    channel = wire.connect(cas_server.address, timeout=5)
    try:
        channel.recv_frame()  # the challenge
        data = b"[" * 100_000
        channel.send_bytes(struct.pack(">I", len(data)) + data)
        assert channel.recv_frame() == {
            "type": "response", "status": 400, "code": "protocol-error",
            "message": "frame nests too deeply",
        }
    finally:
        channel.close()
    assert errors == []


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer digit limit here"
)
def test_auth_frame_with_an_integer_of_too_many_digits_gets_protocol_error(cas_server):
    errors = []
    cas_server.handle_error = lambda request, address: errors.append(address)
    channel = wire.connect(cas_server.address, timeout=5)
    try:
        channel.recv_frame()  # the challenge
        data = b'{"type":"auth","n":%s}' % (b"9" * (sys.get_int_max_str_digits() + 700))
        channel.send_bytes(struct.pack(">I", len(data)) + data)
        frame = channel.recv_frame()
        assert (frame["type"], frame["status"], frame["code"]) == (
            "response", 400, "protocol-error"
        )
    finally:
        channel.close()
    assert errors == []


# -- configuration -----------------------------------------------------------------


def test_config_round_trip(tmp_path, trust_root, identities, cas_identity):
    from vo_authz.credentials import private_key_to_pem

    cred, private = cas_identity
    key_doc = identity_to_doc(cred)
    key_doc["private_key_pem"] = private_key_to_pem(private)
    (tmp_path / "cas_key.json").write_text(json.dumps(key_doc))
    (tmp_path / "trust_root.pem").write_text(public_key_to_pem(trust_root[1]))
    (tmp_path / "cas.conf").write_text(
        "listen = 127.0.0.1:0\n"
        "key_file = cas_key.json\n"
        "trust_root_file = trust_root.pem\n"
        "snapshot_file = policy.snapshot\n"
        'admin_dns = "%s"\n'
        "max_lifetime_seconds = 600\n" % ADMIN
    )
    config = load_cas_config(str(tmp_path / "cas.conf"))
    assert config.admin_dns == (ADMIN,)
    assert config.max_lifetime_seconds == 600
    assert os.path.isabs(config.key_file)

    service = service_from_config(config)
    assert service.issuer.subject == CAS_DN
    assert service.store.subjects == frozenset()

    # A stored snapshot is picked up on the next start.
    service.handle_request(ADMIN, {"type": "admin_load", "commands": DEMO_POLICY})
    again = service_from_config(config)
    assert again.store == service.store
    assert save_snapshot(again.store) == save_snapshot(service.store)


def test_server_refuses_a_key_file_whose_key_is_not_text(
    tmp_path, trust_root, cas_identity, capsys
):
    key_doc = identity_to_doc(cas_identity[0])
    key_doc["private_key_pem"] = 5
    (tmp_path / "cas_key.json").write_text(json.dumps(key_doc))
    (tmp_path / "trust_root.pem").write_text(public_key_to_pem(trust_root[1]))
    (tmp_path / "cas.conf").write_text(
        "listen = 127.0.0.1:0\nkey_file = cas_key.json\ntrust_root_file = trust_root.pem\n"
    )
    assert cas_main(["--config", str(tmp_path / "cas.conf")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_missing_key_errors(tmp_path):
    (tmp_path / "cas.conf").write_text("listen = :0\n")
    with pytest.raises(ValueError):
        load_cas_config(str(tmp_path / "cas.conf"))


CAS_CONF_HEAD = "listen = 127.0.0.1:0\nkey_file = cas_key.json\ntrust_root_file = root.pem\n"


def test_server_refuses_a_misspelled_config_key(tmp_path, capsys):
    # Accepted silently, the typo would leave the policy unpersisted.
    (tmp_path / "cas.conf").write_text(CAS_CONF_HEAD + "snapshot_fle = policy.snapshot\n")
    assert cas_main(["--config", str(tmp_path / "cas.conf")]) == 1
    assert capsys.readouterr().err == "error: line 4: unknown key 'snapshot_fle'\n"


def test_config_refuses_a_repeated_key(tmp_path):
    (tmp_path / "cas.conf").write_text(CAS_CONF_HEAD + "listen = 127.0.0.1:9000\n")
    with pytest.raises(ValueError) as exc:
        load_cas_config(str(tmp_path / "cas.conf"))
    assert str(exc.value) == "line 4: repeated key 'listen'"


def test_config_trailing_comments_are_not_part_of_values(tmp_path):
    (tmp_path / "cas.conf").write_text(
        CAS_CONF_HEAD
        + "snapshot_file = policy.snapshot  # kept across restarts\n"
        + 'admin_dns = "/O=x/CN=A #1", "%s"  # two admins\n' % ADMIN
    )
    config = load_cas_config(str(tmp_path / "cas.conf"))
    assert config.snapshot_file == str(tmp_path / "policy.snapshot")
    assert config.admin_dns == ("/O=x/CN=A #1", ADMIN)
