from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from datetime import timedelta

import pytest

from vo_authz import wire
from vo_authz.client import ResourceSession, ServiceError
from vo_authz.credentials import (
    answer_challenge,
    assertion_to_doc,
    format_timestamp,
    generate_keypair,
    identity_to_doc,
    public_key_to_pem,
    utc_now,
)
from vo_authz.engine import Decision
from vo_authz.file_server import (
    AccountInfo,
    AuditLog,
    MAX_PUT_BYTES,
    PathError,
    Refusal,
    ResourceService,
    authorize_file_op,
    canonical_path,
    map_to_account,
    parse_account_table,
    parse_grid_map,
    parse_role_map,
)
from vo_authz.lineformat import LineError
from vo_authz.policy import RightsTuple

from .conftest import (
    CALIB_BYTES,
    CAS_DN,
    ORWELL,
    OTHER_CAS_DN,
    README_BYTES,
    RUN1_BYTES,
    SERVER_NAME,
    TULL,
    WELLS,
    IdentityFactory,
    ResourceEnv,
    get_bytes,
    make_assertion,
    server_threads,
)

DATA_ROLE = RightsTuple("group", "member", "atlas/data")
ADMIN_ROLE = RightsTuple("group", "member", "atlas/admin")
STAMP = "2003-03-19T08:30:53Z"  # conftest.NOW as the audit log writes it


# -- map file parsing ------------------------------------------------------------


def test_parse_role_map_keeps_file_order():
    text = "# roles\natlas/admin admin\n\natlas/data data\n"
    assert parse_role_map(text) == (("atlas/admin", "admin"), ("atlas/data", "data"))


@pytest.mark.parametrize(
    "line",
    ["atlas/admin", "atlas/admin admin extra", "no-slash admin", "atlas/admin Admin", "atlas/admin 9abc"],
)
def test_parse_role_map_rejects(line):
    with pytest.raises(LineError) as exc:
        parse_role_map("atlas/data data\n%s\n" % line)
    assert exc.value.line == 2


def test_parse_grid_map_merges_and_dedupes():
    text = '"%s" data,admin\n"%s" tull\n"%s" admin\n' % (CAS_DN, TULL, CAS_DN)
    assert parse_grid_map(text) == {CAS_DN: ("data", "admin"), TULL: ("tull",)}


@pytest.mark.parametrize(
    "line",
    ['"%s"' % CAS_DN, '"%s" data admin' % CAS_DN, '"%s" ,' % CAS_DN, '"%s" Data' % CAS_DN, '"not-a-dn" data'],
)
def test_parse_grid_map_rejects(line):
    with pytest.raises(LineError):
        parse_grid_map(line + "\n")


def test_parse_account_table():
    text = "data /home/data rw\ntull /home/tull ro\n"
    assert parse_account_table(text) == {
        "data": AccountInfo("/home/data", True),
        "tull": AccountInfo("/home/tull", False),
    }


@pytest.mark.parametrize(
    "text",
    [
        "data /home/data\n",
        "data /home/data rx\n",
        "data relative/home rw\n",
        "data /home/data rw\ndata /other rw\n",
        "Data /home/data rw\n",
    ],
)
def test_parse_account_table_rejects(text):
    with pytest.raises(LineError):
        parse_account_table(text)


def test_account_table_normalizes_home():
    table = parse_account_table("data /home//data/./x/.. rw\n")
    assert table["data"].home == "/home/data"


# -- account mapping -------------------------------------------------------------

ROLE_MAP = (("atlas/admin", "admin"), ("atlas/data", "data"))
GRID_MAP = {CAS_DN: ("admin", "data"), TULL: ("tull",)}


def held(subject, issuer, *rights) -> tuple:
    """``map_to_account``'s first three arguments: who holds which rights from whom."""
    return subject, issuer, tuple(rights)


def test_role_maps_to_shared_account():
    mapped = map_to_account(*held(ORWELL, CAS_DN, DATA_ROLE), ROLE_MAP, GRID_MAP)
    assert mapped == ("data", "role:atlas/data")


def test_no_role_falls_back_to_personal_account():
    assert map_to_account(*held(TULL, TULL), ROLE_MAP, GRID_MAP) == ("tull", "personal")


def test_issuer_must_be_cleared_for_the_account():
    with pytest.raises(Refusal) as exc:
        map_to_account(*held(ORWELL, OTHER_CAS_DN, DATA_ROLE), ROLE_MAP, GRID_MAP)
    assert (exc.value.status, exc.value.code) == (403, "issuer-not-authorized-for-account")


def test_no_role_and_no_personal_mapping():
    with pytest.raises(Refusal) as exc:
        map_to_account(*held(WELLS, WELLS), ROLE_MAP, GRID_MAP)
    assert (exc.value.status, exc.value.code) == (403, "no-role-and-no-personal-mapping")


def test_first_matching_role_wins_in_any_file_order():
    verified = held(TULL, CAS_DN, ADMIN_ROLE, DATA_ROLE)
    entries = [("atlas/admin", "admin"), ("atlas/data", "data"), ("cms/prod", "admin")]
    for order in itertools.permutations(entries):
        _, via = map_to_account(*verified, tuple(order), GRID_MAP)
        first_held = next(r for r, _ in order if r in ("atlas/admin", "atlas/data"))
        assert via == "role:%s" % first_held


def test_issuer_check_applies_to_the_winning_role_only():
    # atlas/admin maps to an account this issuer may not use, but the
    # subject does not hold that role, so the walk passes it by.
    verified = held(ORWELL, CAS_DN, DATA_ROLE)
    grid = {CAS_DN: ("data",)}
    assert map_to_account(*verified, ROLE_MAP, grid) == ("data", "role:atlas/data")


def test_personal_fallback_ignores_issuer_entry():
    # Personal mapping is keyed by the subject; the issuer needs no
    # grid-map entry of its own for it.
    mapped = map_to_account(*held(TULL, CAS_DN), ROLE_MAP, {TULL: ("tull",)})
    assert mapped == ("tull", "personal")


def test_personal_fallback_picks_lexicographically_first():
    mapped = map_to_account(*held(TULL, TULL), (), {TULL: ("zeta", "alpha")})
    assert mapped == ("alpha", "personal")


def test_wildcard_role_grants_do_not_map():
    star = RightsTuple("group", "member", "atlas/*", match_mode="wildcard")
    with pytest.raises(Refusal):
        map_to_account(*held(ORWELL, CAS_DN, star), ROLE_MAP, GRID_MAP)


# -- paths ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expect",
    [
        ("/home/data", "/home/data"),
        ("/home//data/", "/home/data"),
        ("/home/data/../admin", "/home/admin"),
        ("/..", "/"),
        ("/a/./b", "/a/b"),
        ("//home/data/f", "/home/data/f"),
        ("//", "/"),
    ],
)
def test_canonical_path(raw, expect):
    assert canonical_path(raw) == expect


@pytest.mark.parametrize("raw", ["relative", "", None, 7, "/has\nnewline", "/has\x01ctl"])
def test_canonical_path_rejects(raw):
    with pytest.raises(PathError):
        canonical_path(raw)


def test_fs_path_refuses_symlinks(resource_env, tmp_path):
    # Any symlink on the way is refused, even one that stays inside the root.
    outside = tmp_path / "outside.txt"
    outside.write_text("secret")
    os.symlink(outside, os.path.join(resource_env.export_root, "home/data/leak"))
    os.symlink("../admin", os.path.join(resource_env.export_root, "home/data/alias"))
    for path in ("/home/data/leak/x", "/home/data/alias/calib.db"):
        with pytest.raises(PathError):
            resource_env.service.fs_path(path)


def test_fs_path_refuses_escaping_parent(resource_env, tmp_path):
    os.symlink(tmp_path, os.path.join(resource_env.export_root, "home/data/door"))
    with pytest.raises(PathError):
        resource_env.service.fs_path("/home/data/door/new.dat")


def test_fs_path_refuses_reserved_names(resource_env):
    for path in ("/home/data/.vo-upload-1", "/home/.vo-upload-x/f"):
        with pytest.raises(PathError):
            resource_env.service.fs_path(path)


def test_fs_path_maps_into_export_root(resource_env):
    cases = [("/home/data/run1.dat", "home/data", "run1.dat"), ("/home", "", "home"), ("/", "", ".")]
    for virtual, directory, leaf in cases:
        parent, name = resource_env.service.fs_path(virtual)
        try:
            expected = os.stat(os.path.join(resource_env.export_root, directory))
            assert os.path.samestat(os.fstat(parent), expected)
            assert name == leaf
        finally:
            os.close(parent)


# -- the two authorization layers ---------------------------------------------------

TABLE = {
    "data": AccountInfo("/home/data", True),
    "scan": AccountInfo("/home/scan", False),
}


def check(rights, op, path, account="data", public_root="/public") -> Decision:
    return authorize_file_op(tuple(rights), account, op, path, TABLE, SERVER_NAME, public_root)


def test_role_only_session_defers_to_local_perms():
    assert check([DATA_ROLE], "GET", "/home/data/run1.dat").allowed
    assert check([DATA_ROLE], "LIST", "/home/data").allowed
    assert check([DATA_ROLE], "PUT", "/home/data/new.dat").allowed


def test_reads_allowed_under_public_root():
    assert check([], "GET", "/public/readme.txt").allowed
    denied = check([], "GET", "/public/readme.txt", public_root=None)
    assert not denied.allowed
    assert denied.reason == "local-perms"


def test_writes_confined_to_writable_home():
    assert not check([], "PUT", "/public/notes.txt").allowed
    assert not check([], "PUT", "/home/scan/x", account="scan").allowed
    assert not check([], "PUT", "/home/data/x", account="scan").allowed


def test_reads_outside_home_and_public_denied():
    denied = check([], "GET", "/home/scan/cal.db")
    assert not denied.allowed
    assert denied.reason == "local-perms"


def test_file_tuples_gate_before_local_perms():
    narrow = RightsTuple(
        "file", "read", "ftp://%s/home/data/*" % SERVER_NAME, match_mode="wildcard"
    )
    allowed = check([narrow, DATA_ROLE], "GET", "/home/data/run1.dat")
    assert allowed.allowed
    assert allowed.matched_tuple == narrow
    # Locally readable, but outside what the assertion's file rights cover.
    denied = check([narrow], "GET", "/public/readme.txt")
    assert not denied.allowed
    assert denied.reason == "cas-rights"
    # A read-only file right does not cover PUT.
    denied = check([narrow], "PUT", "/home/data/new.dat")
    assert denied.reason == "cas-rights"


def test_home_prefix_matching_is_per_component():
    assert not check([], "GET", "/home/database/f").allowed
    assert check([], "GET", "/home/data").allowed


def test_sibling_prefix_not_under_public():
    assert not check([], "GET", "/publicity/readme.txt").allowed


# -- audit log ---------------------------------------------------------------------


def test_audit_log_failure_is_an_error(tmp_path):
    log = AuditLog(str(tmp_path / "audit.log"))
    log.close()
    with pytest.raises(wire.Refusal) as exc:
        log.write(STAMP, TULL, CAS_DN, "-", "-", "MAP", "-", "deny", "x")
    # A plain wire.Refusal: the session step that audits file refusals
    # must not catch it and try to audit it.
    assert not isinstance(exc.value, Refusal)
    assert exc.value.reply() == wire.reply(
        500,
        code="audit-unavailable",
        message="cannot record the operation, refusing to serve it",
    )


def test_audit_line_sanitizes_path_column(tmp_path):
    log = AuditLog(str(tmp_path / "audit.log"))
    log.write(STAMP, TULL, CAS_DN, "a", "personal", "GET", "/bad\tpath\n", "deny", "bad-path")
    log.close()
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split("\t")[6] == "/bad?path?"


# -- service construction ------------------------------------------------------------


def test_service_rejects_unknown_accounts(tmp_path, trust_root, clock):
    export = tmp_path / "export"
    export.mkdir()
    common = dict(
        server_name=SERVER_NAME,
        export_root=str(export),
        account_table={"data": AccountInfo("/home/data", True)},
        trusted_issuers={},
        trust_root=trust_root[1],
        audit_path=str(tmp_path / "a.log"),
        clock=clock,
    )
    with pytest.raises(ValueError):
        ResourceService(role_map=(("atlas/x", "ghost"),), grid_map={}, **common)
    with pytest.raises(ValueError):
        ResourceService(role_map=(), grid_map={TULL: ("ghost",)}, **common)
    # A refused service opened no audit log.
    assert not (tmp_path / "a.log").exists()


def test_service_requires_export_directory(tmp_path, trust_root, clock):
    with pytest.raises(ValueError):
        ResourceService(
            server_name=SERVER_NAME,
            export_root=str(tmp_path / "missing"),
            role_map=(),
            grid_map={},
            account_table={},
            trusted_issuers={},
            trust_root=trust_root[1],
            audit_path=str(tmp_path / "a.log"),
            clock=clock,
        )
    assert not (tmp_path / "a.log").exists()


def write_file_service_config(tmp_path, trust_root_public, issuers: dict) -> str:
    """A file service config on a free local port, trusting the issuer
    documents ``issuers`` (file name: document); returns its path."""
    (tmp_path / "export/home/data").mkdir(parents=True)
    (tmp_path / "trust_root.pem").write_text(public_key_to_pem(trust_root_public))
    for name, doc in issuers.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "roles.map").write_text("atlas/data data\n")
    (tmp_path / "grid.map").write_text('"%s" data\n' % CAS_DN)
    (tmp_path / "accounts.map").write_text("data /home/data rw\n")
    (tmp_path / "files.conf").write_text(
        "listen = 127.0.0.1:0\n"
        "server_name = %s\n" % SERVER_NAME
        + "trust_root_file = trust_root.pem\n"
        + "issuer_files = %s\n" % ",".join('"%s"' % name for name in issuers)
        + "role_map_file = roles.map\n"
        + "grid_map_file = grid.map\n"
        + "account_file = accounts.map\n"
        + "export_root = export\n"
        + "audit_file = audit.log\n"
        + "public_root = /public\n"
    )
    return str(tmp_path / "files.conf")


def test_service_from_config_round_trip(tmp_path, trust_root, identities, clock):
    from vo_authz.credentials import private_key_to_pem
    from vo_authz.file_server import load_file_config, service_from_config

    cas_cred, cas_key = identities.identity(CAS_DN)
    other_cred, _ = identities.identity(OTHER_CAS_DN)
    # One issuer file is a full keypair file, its key under a passphrase
    # the service never has; the other is public-only. Both shapes load.
    keypair_doc = identity_to_doc(cas_cred)
    keypair_doc["private_key_pem"] = private_key_to_pem(cas_key, b"secret")
    issuers = {"cas.json": keypair_doc, "other-cas.json": identity_to_doc(other_cred)}
    config = load_file_config(write_file_service_config(tmp_path, trust_root[1], issuers))
    assert config.server_name == SERVER_NAME
    assert os.path.isabs(config.export_root)

    service = service_from_config(config, clock=clock)
    assert set(service.trusted_issuers) == {CAS_DN, OTHER_CAS_DN}
    assert service.trusted_issuers[CAS_DN] == cas_cred.public_key
    assert service.role_map == (("atlas/data", "data"),)
    assert service.grid_map == {CAS_DN: ("data",)}
    assert service.public_root == "/public"
    service.audit_log.close()


def test_main_reports_an_issuer_file_that_is_not_json(tmp_path, trust_root, capsys):
    from vo_authz import file_server

    path = write_file_service_config(tmp_path, trust_root[1], {"cas.json": {}})
    (tmp_path / "cas.json").write_text("not json\n")
    assert file_server.main(["--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: identity file is not JSON: ")
    assert "Traceback" not in err
    assert not (tmp_path / "audit.log").exists()


def test_load_file_config_requires_every_key(tmp_path):
    from vo_authz.file_server import load_file_config

    (tmp_path / "files.conf").write_text("server_name = x\n")
    with pytest.raises(ValueError) as exc:
        load_file_config(str(tmp_path / "files.conf"))
    assert "trust_root_file" in str(exc.value)


def test_load_file_config_refuses_an_unknown_key(tmp_path):
    from vo_authz.file_server import load_file_config

    (tmp_path / "files.conf").write_text("server_name = x\npublic_rot = /public\n")
    with pytest.raises(ValueError) as exc:
        load_file_config(str(tmp_path / "files.conf"))
    assert str(exc.value) == "line 2: unknown key 'public_rot'"


# -- sessions over TCP ----------------------------------------------------------------


def data_assertion(cas_identity, now, subject=ORWELL, rights=(DATA_ROLE,), **kw):
    cred, key = cas_identity
    return make_assertion(cred, key, subject, rights, now, **kw)


def test_role_session_round_trip(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        assert session.account == "data"
        assert session.via == "role:atlas/data"
        assert session.ls("/home/data") == ["run1.dat"]
        assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
        session.put("/home/data/new.dat", b"fresh payload")
        assert get_bytes(session, "/home/data/new.dat") == b"fresh payload"
        assert session.ls("/home/data") == ["new.dat", "run1.dat"]
        session.quit()


def test_get_answers_with_one_frame_then_exactly_its_bytes(
    resource_env, identities, cas_identity, now
):
    sock = socket.create_connection(resource_env.address, timeout=5.0)
    channel = wire.Channel(sock, timeout=5.0)
    try:
        assertion = assertion_to_doc(data_assertion(cas_identity, now))
        request = {"type": "present_assertion", "assertion": assertion}
        answer_challenge(channel, identities.bundle(ORWELL), request)
        assert channel.recv_frame()["status"] == 200
        get = {"type": "command", "op": "GET", "path": "/home/data/run1.dat"}
        channel.send_frames(get, {"type": "command", "op": "QUIT"})
        # The service closes after QUIT, so this reads all it sent for both.
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    finally:
        channel.close()
    assert raw == (
        wire.encode_frame(wire.reply(200, size=len(RUN1_BYTES)))
        + RUN1_BYTES
        + wire.encode_frame(wire.reply(200, message="bye"))
    )


def test_small_gets_and_puts_do_not_wait_for_delayed_acks(
    resource_env, identities, cas_identity, now
):
    # A reply sent as several small writes must not sit in the sender's
    # buffer until the peer's delayed ACK fires (about 40 ms on Linux).
    assertion = data_assertion(cas_identity, now)
    gets, puts = [], []
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        for i in range(5):
            start = time.perf_counter()
            assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
            gets.append(time.perf_counter() - start)
            start = time.perf_counter()
            session.put("/home/data/quick-%d.dat" % i, b"x" * 512)
            puts.append(time.perf_counter() - start)
        session.quit()
    assert statistics.median(gets) < 0.020
    assert statistics.median(puts) < 0.020


def test_peer_closing_mid_handshake_is_not_a_server_error(resource_env):
    server = resource_env.server
    errors, finished = [], threading.Event()
    server.handle_error = lambda request, address: errors.append(address)
    shutdown_request = server.shutdown_request

    def shutdown_and_signal(request):
        shutdown_request(request)
        finished.set()

    server.shutdown_request = shutdown_and_signal
    channel = wire.connect(resource_env.address, timeout=5.0)
    assert channel.recv_frame()["type"] == "challenge"
    channel.close()
    assert finished.wait(timeout=5)
    assert errors == []


def test_put_never_overwrites(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(ServiceError) as exc:
            session.put("/home/data/run1.dat", b"clobber attempt")
        assert exc.value.status == 409
        assert exc.value.code == "exists"
        # The refused payload was drained: the session still works.
        assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
    on_disk = os.path.join(resource_env.export_root, "home/data/run1.dat")
    with open(on_disk, "rb") as handle:
        assert handle.read() == RUN1_BYTES


def test_put_into_missing_directory(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(ServiceError) as exc:
            session.put("/home/data/nosuch/f.dat", b"x")
        assert exc.value.status == 404
        assert exc.value.code == "missing-parent"
        session.quit()


def test_get_missing_file(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(ServiceError) as exc:
            get_bytes(session, "/home/data/absent.dat")
        assert exc.value.status == 404
        assert exc.value.code == "not-found"


def test_get_of_a_non_regular_file_is_not_found(resource_env, identities, cas_identity, now):
    # A FIFO must be refused without blocking the server on its open.
    os.mkfifo(os.path.join(resource_env.export_root, "home/data/pipe"))
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        for path in ("/home/data/pipe", "/home/data"):
            with pytest.raises(ServiceError) as exc:
                get_bytes(session, path)
            assert (exc.value.status, exc.value.code) == (404, "not-found")
        session.quit()


def resize_during_get_audit(env, name, resize):
    """Call ``resize(path)`` right after the GET of ``name`` is audited."""
    path = os.path.join(env.export_root, "home/data", name)
    audit_log = env.service.audit_log
    write = audit_log.write

    def write_then_resize(*columns):
        write(*columns)
        if columns[5] == "GET":
            resize(path)

    audit_log.write = write_then_resize
    return path


def append_tail(path):
    with open(path, "ab") as handle:
        handle.write(b"appended after the size was declared\n" * 10)


@pytest.mark.parametrize("size", [len(RUN1_BYTES), 200_000])
def test_get_sends_the_declared_size_of_a_growing_file(
    resource_env, identities, cas_identity, now, size
):
    content = os.urandom(size)
    path = resize_during_get_audit(resource_env, "grows.dat", append_tail)
    with open(path, "wb") as handle:
        handle.write(content)
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        assert get_bytes(session, "/home/data/grows.dat") == content
        assert session.ls("/home/data") == ["grows.dat", "run1.dat"]
        session.quit()
    assert os.path.getsize(path) > size


@pytest.mark.parametrize("size", [len(RUN1_BYTES), 200_000])
def test_get_of_a_shrinking_file_ends_the_session(
    resource_env, identities, cas_identity, now, size
):
    path = resize_during_get_audit(
        resource_env, "shrinks.dat", lambda p: os.truncate(p, size // 2)
    )
    with open(path, "wb") as handle:
        handle.write(os.urandom(size))
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(wire.ConnectionClosedError):
            get_bytes(session, "/home/data/shrinks.dat")
    # The session ended because the file shrank, not for another fault.
    assert os.path.getsize(path) == size // 2


def test_small_get_reply_is_one_write(resource_env, identities, cas_identity, now, monkeypatch):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        writes = []
        send_frame, send_bytes = wire.Channel.send_frame, wire.Channel.send_bytes

        def count_frame(channel, message):
            writes.append(message["type"])
            send_frame(channel, message)

        def count_bytes(channel, data):
            writes.append(len(data))
            send_bytes(channel, data)

        monkeypatch.setattr(wire.Channel, "send_frame", count_frame)
        monkeypatch.setattr(wire.Channel, "send_bytes", count_bytes)
        assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
        # The client's command frame, then the server's whole reply.
        assert writes[0] == "command"
        assert len(writes) == 2 and writes[1] > len(RUN1_BYTES)
        monkeypatch.undo()
        session.quit()


def test_small_put_is_one_write(resource_env, identities, cas_identity, now, monkeypatch):
    assertion = data_assertion(cas_identity, now)
    payload = os.urandom(4096)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        writes = []
        send_frame, send_bytes = wire.Channel.send_frame, wire.Channel.send_bytes

        def count_frame(channel, message):
            writes.append(message["type"])
            send_frame(channel, message)

        def count_bytes(channel, data):
            writes.append(len(data))
            send_bytes(channel, data)

        monkeypatch.setattr(wire.Channel, "send_frame", count_frame)
        monkeypatch.setattr(wire.Channel, "send_bytes", count_bytes)
        session.put("/home/data/four.bin", payload)
        # The client's command frame with its payload, then the server's reply.
        assert len(writes) == 2 and writes[0] > len(payload)
        assert writes[1] == "response"
        monkeypatch.undo()
        assert get_bytes(session, "/home/data/four.bin") == payload
        session.quit()


def test_small_get_reply_is_one_read(resource_env, identities, cas_identity, now, monkeypatch):
    assertion = data_assertion(cas_identity, now)
    content = os.urandom(1024)
    with open(os.path.join(resource_env.export_root, "home/data/one.bin"), "wb") as handle:
        handle.write(content)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        reads = []
        recv_some = wire.Channel._recv_some

        def counting(channel, limit):
            if channel is session._channel:
                reads.append(limit)
            return recv_some(channel, limit)

        monkeypatch.setattr(wire.Channel, "_recv_some", counting)
        assert get_bytes(session, "/home/data/one.bin") == content
        # The reply, the data header and the payload arrive in one read.
        assert len(reads) == 1
        monkeypatch.undo()
        session.quit()


def test_list_of_a_file(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(ServiceError) as exc:
            session.ls("/home/data/run1.dat")
        assert exc.value.code == "not-a-directory"


def test_public_reads_allowed_writes_denied(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        assert get_bytes(session, "/public/readme.txt") == README_BYTES
        with pytest.raises(ServiceError) as exc:
            session.put("/public/notes.txt", b"graffiti")
        assert exc.value.status == 403
        assert exc.value.code == "local-perms"


def test_other_home_denied(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(ServiceError) as exc:
            get_bytes(session, "/home/admin/calib.db")
        assert exc.value.status == 403
        assert exc.value.code == "local-perms"


def test_admin_role_reaches_admin_home(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now, subject=TULL, rights=(ADMIN_ROLE, DATA_ROLE))
    with ResourceSession(resource_env.address, identities.bundle(TULL), assertion) as session:
        assert session.account == "admin"
        assert get_bytes(session, "/home/admin/calib.db") == CALIB_BYTES


def test_personal_session_without_assertion(resource_env, identities):
    with ResourceSession(resource_env.address, identities.bundle(TULL)) as session:
        assert session.account is None  # mapping happens lazily
        assert session.ls("/home/tull") == []
        session.put("/home/tull/mine.txt", b"private bytes")
        assert get_bytes(session, "/home/tull/mine.txt") == b"private bytes"
        with pytest.raises(ServiceError) as exc:
            session.ls("/home/data")
        assert exc.value.code == "local-perms"


def test_unmapped_subject_refused_on_first_command(resource_env, identities):
    import vo_authz.wire as wire

    with ResourceSession(resource_env.address, identities.bundle(WELLS)) as session:
        with pytest.raises(ServiceError) as exc:
            session.ls("/public")
        assert exc.value.status == 403
        assert exc.value.code == "no-role-and-no-personal-mapping"
        # The refusal also closes the connection.
        with pytest.raises((wire.WireError, OSError)):
            session.ls("/public")


def test_expired_assertion_rejected_and_audited(resource_env, identities, cas_identity, now):
    assertion = data_assertion(
        cas_identity, now - timedelta(hours=2), lifetime_seconds=3600
    )
    with pytest.raises(ServiceError) as exc:
        ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion)
    assert exc.value.status == 401
    assert exc.value.code == "expired"
    lines = resource_env.audit_lines()
    assert lines[-1][1] == ORWELL
    assert lines[-1][2] == CAS_DN
    assert lines[-1][5:] == ["MAP", "-", "deny", "expired"]


def test_assertion_subject_must_match_peer(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now, subject=TULL)
    with pytest.raises(ServiceError) as exc:
        ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion)
    assert exc.value.status == 401
    assert exc.value.code == "subject-mismatch"


def test_untrusted_issuer_rejected(resource_env, identities, now):
    other_cred, other_key = identities.identity(OTHER_CAS_DN)
    assertion = make_assertion(other_cred, other_key, ORWELL, (DATA_ROLE,), now)
    with pytest.raises(ServiceError) as exc:
        ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion)
    assert exc.value.status == 401
    assert exc.value.code == "untrusted-issuer"
    assert resource_env.audit_lines()[-1][8] == "untrusted-issuer"


def test_tampered_assertion_rejected(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    forged = type(assertion)(
        body=type(assertion.body)(
            issuer=assertion.body.issuer,
            subject=assertion.body.subject,
            serial=assertion.body.serial,
            issued_at=assertion.body.issued_at,
            not_after=assertion.body.not_after,
            rights=(ADMIN_ROLE,),
        ),
        signature=assertion.signature,
    )
    with pytest.raises(ServiceError) as exc:
        ResourceSession(resource_env.address, identities.bundle(ORWELL), forged)
    assert exc.value.code == "bad-signature"


def test_file_rights_constrain_a_session(resource_env, identities, cas_identity, now):
    narrow = RightsTuple(
        "file", "read", "ftp://%s/home/data/*" % SERVER_NAME, match_mode="wildcard"
    )
    assertion = data_assertion(cas_identity, now, rights=(DATA_ROLE, narrow))
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
        # Locally public, but not covered by the file rights.
        with pytest.raises(ServiceError) as exc:
            get_bytes(session, "/public/readme.txt")
        assert exc.value.code == "cas-rights"
        with pytest.raises(ServiceError) as exc:
            session.put("/home/data/out.dat", b"x")
        assert exc.value.code == "cas-rights"
        session.quit()


def test_audit_covers_commands_and_only_commands(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        session.ls("/home/data")
        get_bytes(session, "/home/data/run1.dat")
        with pytest.raises(ServiceError):
            get_bytes(session, "/home/admin/calib.db")
        session.put("/home/data/audited.dat", b"x")
        session.quit()  # not audited

    lines = resource_env.audit_lines()
    assert len(lines) == 4
    for line in lines:
        assert line[1] == ORWELL
        assert line[2] == CAS_DN
        assert line[3] == "data"
        assert line[4] == "role:atlas/data"
    assert [l[5] for l in lines] == ["LIST", "GET", "GET", "PUT"]
    assert [l[7] for l in lines] == ["allow", "allow", "deny", "allow"]
    assert lines[2][6] == "/home/admin/calib.db"
    assert lines[2][8] == "local-perms"


def test_successful_mapping_is_not_audited(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        session.quit()
    assert resource_env.audit_lines() == []


def test_personal_audit_attribution(resource_env, identities):
    with ResourceSession(resource_env.address, identities.bundle(TULL)) as session:
        session.ls("/home/tull")
        session.quit()
    lines = resource_env.audit_lines()
    assert len(lines) == 1
    assert lines[0][1] == TULL
    assert lines[0][2] == "-"  # no assertion, no issuer
    assert lines[0][3] == "tull"
    assert lines[0][4] == "personal"


def test_unwritable_audit_log_fails_closed(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        session.ls("/home/data")
        resource_env.service.audit_log.close()
        with pytest.raises(ServiceError) as exc:
            session.ls("/home/data")
        assert exc.value.status == 500
        assert exc.value.code == "audit-unavailable"


# -- every refusal, one session each --------------------------------------------------

ROGUE_CAS_DN = "/O=doesciencegrid.org/CN=rogue-cas"
NARROW = RightsTuple(
    "file", "read", "ftp://%s/home/data/*" % SERVER_NAME, match_mode="wildcard"
)
PAYLOAD = b"payload that a refusal must drain"


@pytest.fixture
def refusal_env(tmp_path, trust_root, identities, cas_identity, clock):
    """A file service that trusts a second issuer the grid map does not clear."""
    other = identities.identity(OTHER_CAS_DN)
    env = ResourceEnv(
        tmp_path,
        trust_root[1],
        {CAS_DN: cas_identity[0].public_key, OTHER_CAS_DN: other[0].public_key},
        clock,
    )
    outside = tmp_path / "outside.txt"
    outside.write_text("secret")
    os.symlink(outside, os.path.join(env.export_root, "home/data/leak"))
    os.symlink(tmp_path, os.path.join(env.export_root, "home/data/door"))
    env.issuers = {CAS_DN: cas_identity, OTHER_CAS_DN: other}
    yield env
    env.close()


def open_channel(env, identities, subject, assertion=None):
    """A handshaken channel; a given assertion must be accepted."""
    channel = wire.connect(env.address, timeout=5.0)
    answer_challenge(channel, identities.bundle(subject))
    if assertion is not None:
        channel.send_frame(
            {"type": "present_assertion", "assertion": assertion_to_doc(assertion)}
        )
        assert channel.recv_frame()["status"] == 200
    return channel


def send_command(channel, op, path):
    frame = {"type": "command", "op": op, "path": path}
    if op == "PUT":
        frame["size"] = len(PAYLOAD)
        channel.send_frame(frame)
        channel.send_bytes(PAYLOAD)
    else:
        channel.send_frame(frame)


@pytest.mark.parametrize(
    "subject, rights, op, path, status, code, message, audited",
    [
        (ORWELL, (DATA_ROLE,), "LIST", "/home/da\tta", 400, "bad-path",
         "path contains control characters", "/home/da?ta"),
        (ORWELL, (DATA_ROLE,), "GET", "relative", 400, "bad-path",
         "path must be an absolute string", "relative"),
        (ORWELL, (DATA_ROLE,), "GET", "/home/data/leak", 400, "bad-path",
         "symlinks are not served", "/home/data/leak"),
        (ORWELL, (DATA_ROLE,), "PUT", "/home/data/door/new.dat", 400, "bad-path",
         "symlinks are not served", "/home/data/door/new.dat"),
        (ORWELL, (DATA_ROLE,), "LIST", "/home/data/door", 400, "bad-path",
         "symlinks are not served", "/home/data/door"),
        (ORWELL, (DATA_ROLE,), "PUT", "/home/data/leak", 400, "bad-path",
         "symlinks are not served", "/home/data/leak"),
        (ORWELL, (DATA_ROLE,), "GET", "/home/data/.vo-upload-0", 400, "bad-path",
         "names starting with .vo-upload- are reserved", "/home/data/.vo-upload-0"),
        (ORWELL, (DATA_ROLE, NARROW), "GET", "/public/readme.txt", 403, "cas-rights",
         "no file right covers ftp://%s/public/readme.txt" % SERVER_NAME,
         "/public/readme.txt"),
        (ORWELL, (DATA_ROLE, NARROW), "PUT", "/home/data/out.dat", 403, "cas-rights",
         "no file right covers ftp://%s/home/data/out.dat" % SERVER_NAME,
         "/home/data/out.dat"),
        (ORWELL, (DATA_ROLE,), "GET", "/home/admin/calib.db", 403, "local-perms",
         "denied by local-perms", "/home/admin/calib.db"),
        (ORWELL, (DATA_ROLE,), "PUT", "/public/notes.txt", 403, "local-perms",
         "denied by local-perms", "/public/notes.txt"),
        (TULL, None, "LIST", "/home/data", 403, "local-perms",
         "denied by local-perms", "/home/data"),
        (ORWELL, (DATA_ROLE,), "LIST", "/home/data/nosuch", 404, "not-found",
         "no such path", "/home/data/nosuch"),
        (ORWELL, (DATA_ROLE,), "GET", "/home/data/absent.dat", 404, "not-found",
         "no such file", "/home/data/absent.dat"),
        (ORWELL, (DATA_ROLE,), "LIST", "/home/data/run1.dat", 404, "not-a-directory",
         "not a directory", "/home/data/run1.dat"),
        (ORWELL, (DATA_ROLE,), "PUT", "/home/data/run1.dat", 409, "exists",
         "refusing to overwrite", "/home/data/run1.dat"),
        (ORWELL, (DATA_ROLE,), "PUT", "/home/data/nosuch/f.dat", 404, "missing-parent",
         "no such directory", "/home/data/nosuch/f.dat"),
    ],
    ids=[
        "bad-path-control-char", "bad-path-relative", "bad-path-symlink", "bad-path-escape",
        "bad-path-symlink-list", "bad-path-symlink-put", "bad-path-reserved",
        "cas-rights-get", "cas-rights-put", "local-perms-get", "local-perms-put",
        "local-perms-personal", "not-found-list", "not-found-get", "not-a-directory",
        "exists", "missing-parent",
    ],
)
def test_command_refusal_is_audited_answered_and_continues(
    refusal_env, identities, cas_identity, now,
    subject, rights, op, path, status, code, message, audited,
):
    assertion = None
    account, via, issuer = "tull", "personal", "-"
    if rights is not None:
        assertion = make_assertion(*cas_identity, subject, rights, now)
        account, via, issuer = "data", "role:atlas/data", CAS_DN
    channel = open_channel(refusal_env, identities, subject, assertion)
    try:
        send_command(channel, op, path)
        assert channel.recv_frame() == {
            "type": "response", "status": status, "code": code, "message": message
        }
        # The session goes on, with the stream still aligned after a PUT.
        channel.send_frame({"type": "command", "op": "QUIT"})
        assert channel.recv_frame() == {"type": "response", "status": 200, "message": "bye"}
    finally:
        channel.close()
    assert refusal_env.audit_lines() == [
        [STAMP, subject, issuer, account, via, op, audited, "deny", code]
    ]


def map_refusal_assertion(kind, issuers, now):
    cas = issuers[CAS_DN]
    if kind == "untrusted-issuer":
        rogue = IdentityFactory(generate_keypair()[0], now).identity(ROGUE_CAS_DN)
        return make_assertion(*rogue, ORWELL, (DATA_ROLE,), now)
    if kind == "bad-signature":
        genuine = make_assertion(*cas, ORWELL, (DATA_ROLE,), now)
        return replace(genuine, body=replace(genuine.body, rights=(ADMIN_ROLE,)))
    if kind == "expired":
        return make_assertion(*cas, ORWELL, (DATA_ROLE,), now - timedelta(hours=2))
    if kind == "not-yet-valid":
        return make_assertion(*cas, ORWELL, (DATA_ROLE,), now + timedelta(hours=1))
    if kind == "subject-mismatch":
        return make_assertion(*cas, TULL, (DATA_ROLE,), now)
    if kind == "issuer-not-authorized-for-account":
        return make_assertion(*issuers[OTHER_CAS_DN], ORWELL, (DATA_ROLE,), now)
    assert kind == "no-role-and-no-personal-mapping"
    return make_assertion(*cas, WELLS, (), now)


def malformed_assertion_document(kind, issuers, now):
    """A genuine signed assertion's document, changed so it does not parse."""
    document = assertion_to_doc(make_assertion(*issuers[CAS_DN], ORWELL, (DATA_ROLE,), now))
    if kind == "bad-assertion/version-true":
        return dict(document, version=True)
    if kind == "bad-assertion/non-ascii-digit":
        return dict(document, issued_at="\uff12" + document["issued_at"][1:])  # fullwidth 2
    assert kind == "bad-assertion/rights-not-objects"
    return dict(document, rights=[5])


@pytest.mark.parametrize(
    "kind, subject, status, issuer",
    [
        ("bad-assertion", ORWELL, 400, "-"),
        ("bad-assertion/version-true", ORWELL, 400, "-"),
        ("bad-assertion/non-ascii-digit", ORWELL, 400, "-"),
        ("bad-assertion/rights-not-objects", ORWELL, 400, "-"),
        ("untrusted-issuer", ORWELL, 401, ROGUE_CAS_DN),
        ("bad-signature", ORWELL, 401, CAS_DN),
        ("expired", ORWELL, 401, CAS_DN),
        ("not-yet-valid", ORWELL, 401, CAS_DN),
        ("subject-mismatch", ORWELL, 401, CAS_DN),
        ("issuer-not-authorized-for-account", ORWELL, 403, OTHER_CAS_DN),
        ("no-role-and-no-personal-mapping", WELLS, 403, CAS_DN),
    ],
)
def test_assertion_refusal_is_audited_answered_and_ends_the_session(
    refusal_env, identities, now, kind, subject, status, issuer
):
    code = kind.partition("/")[0]
    channel = open_channel(refusal_env, identities, subject)
    try:
        if kind == "bad-assertion":
            document = {"issuer": CAS_DN}
        elif code == "bad-assertion":
            document = malformed_assertion_document(kind, refusal_env.issuers, now)
        else:
            assertion = map_refusal_assertion(kind, refusal_env.issuers, now)
            document = assertion_to_doc(assertion)
        channel.send_frame({"type": "present_assertion", "assertion": document})
        reply = channel.recv_frame()
        assert {k: reply[k] for k in ("type", "status", "code")} == {
            "type": "response", "status": status, "code": code
        }
        assert set(reply) == {"type", "status", "code", "message"}
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
    finally:
        channel.close()
    assert refusal_env.audit_lines() == [
        [STAMP, subject, issuer, "-", "-", "MAP", "-", "deny", code]
    ]


def test_personal_mapping_refusal_is_audited_answered_and_ends_the_session(
    refusal_env, identities
):
    channel = open_channel(refusal_env, identities, WELLS)
    try:
        send_command(channel, "LIST", "/public")
        assert channel.recv_frame() == {
            "type": "response",
            "status": 403,
            "code": "no-role-and-no-personal-mapping",
            "message": "no role matched and %r has no personal account" % WELLS,
        }
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
    finally:
        channel.close()
    assert refusal_env.audit_lines() == [
        [STAMP, WELLS, "-", "-", "-", "MAP", "-", "deny", "no-role-and-no-personal-mapping"]
    ]


@pytest.mark.parametrize(
    "frames, message",
    [
        ([{"type": "command", "op": "LIST", "path": "/home/tull"},
          {"type": "present_assertion", "assertion": {}}],
         "present_assertion must be the first frame"),
        ([{"type": "command", "op": "DELETE", "path": "/home/tull"}],
         "unknown op 'DELETE'"),
        ([{"type": "hello"}], "unsupported frame type 'hello'"),
        ([{"type": "command", "op": "PUT", "path": "/home/tull/x", "size": -1}],
         "PUT needs a non-negative integer size"),
        ([{"type": "command", "op": "PUT", "path": "/home/tull/x", "size": True}],
         "PUT needs a non-negative integer size"),
        ([{"type": "command", "op": "PUT", "path": "/home/tull/x", "size": MAX_PUT_BYTES + 1}],
         "PUT payload exceeds %d bytes" % MAX_PUT_BYTES),
    ],
    ids=["assertion-after-command", "unknown-op", "unsupported-frame",
         "put-negative-size", "put-bool-size", "put-oversized"],
)
def test_protocol_errors_end_the_session_unaudited(refusal_env, identities, frames, message):
    channel = open_channel(refusal_env, identities, TULL)
    try:
        *allowed, last = frames
        for frame in allowed:
            channel.send_frame(frame)
            assert channel.recv_frame()["status"] == 200
        channel.send_frame(last)
        assert channel.recv_frame() == {
            "type": "response", "status": 400, "code": "protocol-error", "message": message
        }
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
    finally:
        channel.close()
    assert [line[7] for line in refusal_env.audit_lines()] == ["allow"] * len(allowed)


@pytest.mark.parametrize("broken", ["bad-frame", "idle-timeout"])
def test_transport_errors_get_protocol_error_before_close(refusal_env, identities, broken):
    refusal_env.service.io_timeout = 0.5  # how long the idle session waits
    channel = open_channel(refusal_env, identities, TULL)
    try:
        if broken == "bad-frame":
            channel.send_bytes(b"\x00\x00\x00\x03{{{")
        reply = channel.recv_frame()
        assert {k: reply[k] for k in ("type", "status", "code")} == {
            "type": "response", "status": 400, "code": "protocol-error"
        }
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
    finally:
        channel.close()
    assert refusal_env.audit_lines() == []


def test_second_assertion_is_a_protocol_error(refusal_env, identities, cas_identity, now):
    assertion = make_assertion(*cas_identity, ORWELL, (DATA_ROLE,), now)
    channel = open_channel(refusal_env, identities, ORWELL, assertion)
    try:
        channel.send_frame(
            {"type": "present_assertion", "assertion": assertion_to_doc(assertion)}
        )
        assert channel.recv_frame()["message"] == "present_assertion must be the first frame"
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
    finally:
        channel.close()
    assert refusal_env.audit_lines() == []


# -- the session deadline ------------------------------------------------------------


@pytest.fixture
def moving_env(tmp_path, trust_root, cas_identity, now):
    """A file service whose clock a test sets with ``env.at[0] = ...``."""
    at = [now]
    env = ResourceEnv(
        tmp_path, trust_root[1], {CAS_DN: cas_identity[0].public_key}, lambda: at[0]
    )
    env.at = at
    yield env
    env.close()


def expire_mid_session(env, channel, op, path, deadline):
    """A LIST a second before ``deadline`` is served; ``op`` at it gets 401 and ends the session."""
    env.at[0] = deadline - timedelta(seconds=1)
    send_command(channel, "LIST", "/public")
    assert channel.recv_frame()["status"] == 200
    env.at[0] = deadline
    send_command(channel, op, path)
    assert channel.recv_frame() == {
        "type": "response",
        "status": 401,
        "code": "expired",
        "message": "credentials expired at %s" % format_timestamp(deadline),
    }
    with pytest.raises(wire.ConnectionClosedError):
        channel.recv_frame()


@pytest.mark.parametrize("op", ["LIST", "GET", "PUT"])
def test_assertion_that_expires_mid_session_ends_it(
    moving_env, identities, cas_identity, now, op
):
    # A 60 s assertion under a 120 s session credential: the assertion ends it.
    path = {"LIST": "/home/data", "GET": "/home/data/run1.dat", "PUT": "/home/data/new.dat"}[op]
    assertion = make_assertion(*cas_identity, ORWELL, (DATA_ROLE,), now, lifetime_seconds=60)
    channel = wire.connect(moving_env.address, timeout=5.0)
    try:
        answer_challenge(channel, identities.bundle(ORWELL, timedelta(seconds=120)))
        channel.send_frame(
            {"type": "present_assertion", "assertion": assertion_to_doc(assertion)}
        )
        assert channel.recv_frame()["status"] == 200
        expire_mid_session(moving_env, channel, op, path, assertion.body.not_after)
    finally:
        channel.close()
    stamp = format_timestamp(assertion.body.not_after)
    assert moving_env.audit_lines()[-1] == [
        stamp, ORWELL, CAS_DN, "data", "role:atlas/data", op, path, "deny", "expired"
    ]
    assert not os.path.exists(os.path.join(moving_env.export_root, "home/data/new.dat"))


def test_personal_session_ends_when_its_session_credential_expires(moving_env, identities):
    bundle = identities.bundle(TULL, timedelta(seconds=120))
    channel = wire.connect(moving_env.address, timeout=5.0)
    try:
        answer_challenge(channel, bundle)
        deadline = bundle.session.not_after
        expire_mid_session(moving_env, channel, "GET", "/public/readme.txt", deadline)
    finally:
        channel.close()
    assert moving_env.audit_lines()[-1] == [
        format_timestamp(bundle.session.not_after),
        TULL, "-", "tull", "personal", "GET", "/public/readme.txt", "deny", "expired",
    ]


# -- confinement and upload publishing ------------------------------------------------


def test_get_never_follows_a_directory_swapped_in_after_the_walk(
    resource_env, identities, cas_identity, now, tmp_path
):
    sub = os.path.join(resource_env.export_root, "home/data/sub")
    os.mkdir(sub)
    with open(os.path.join(sub, "f.dat"), "wb") as handle:
        handle.write(b"inside bytes")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "f.dat").write_bytes(b"outside bytes")
    service = resource_env.service
    fs_path = service.fs_path

    def fs_path_then_swap(virtual):
        resolved = fs_path(virtual)
        os.rename(sub, sub + ".old")
        os.symlink(outside, sub)
        return resolved

    service.fs_path = fs_path_then_swap
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        assert get_bytes(session, "/home/data/sub/f.dat") == b"inside bytes"
        session.quit()


def test_get_through_a_symlink_inside_the_root_is_bad_path(
    resource_env, identities, cas_identity, now
):
    data = os.path.join(resource_env.export_root, "home/data")
    os.mkdir(os.path.join(data, "inner"))
    with open(os.path.join(data, "inner/f.dat"), "wb") as handle:
        handle.write(b"reachable only by its own name")
    os.symlink("inner", os.path.join(data, "alias"))
    assertion = data_assertion(cas_identity, now)
    with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as session:
        with pytest.raises(ServiceError) as exc:
            get_bytes(session, "/home/data/alias/f.dat")
        assert (exc.value.status, exc.value.code) == (400, "bad-path")
        assert get_bytes(session, "/home/data/inner/f.dat") == b"reachable only by its own name"
        session.quit()


def recv_reply(channel, op):
    """One command's reply; a GET's payload is read and dropped."""
    reply = channel.recv_frame()
    if op == "GET" and reply["status"] == 200:
        channel.recv_bytes_to(reply["size"], lambda data: None)
    return reply


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_commands_leave_no_open_descriptors(refusal_env, identities, cas_identity, now):
    # A successful GET closes its file after the reply, so it goes first:
    # each later reply shows the command before it has cleaned up.
    commands = [
        ("GET", "/home/data/run1.dat"),
        ("LIST", "/home/data"),
        ("PUT", "/home/data/new-%d.dat"),
        ("LIST", "/home/da\tta"),
        ("GET", "relative"),
        ("GET", "/home/data/leak"),
        ("PUT", "/home/data/door/new.dat"),
        ("LIST", "/home/data/door"),
        ("PUT", "/home/data/leak"),
        ("GET", "/home/data/.vo-upload-0"),
        ("GET", "/home/admin/calib.db"),
        ("LIST", "/home/data/nosuch"),
        ("GET", "/home/data/absent.dat"),
        ("LIST", "/home/data/run1.dat"),
        ("PUT", "/home/data/nosuch/f.dat"),
        ("PUT", "/home/data/run1.dat"),
    ]
    assertion = make_assertion(*cas_identity, ORWELL, (DATA_ROLE,), now)
    channel = open_channel(refusal_env, identities, ORWELL, assertion)
    try:
        counts = []
        for round_number in range(51):
            for op, path in commands:
                send_command(channel, op, path.replace("%d", str(round_number)))
                recv_reply(channel, op)
            if round_number in (0, 50):
                counts.append(len(os.listdir("/proc/self/fd")))
        channel.send_frame({"type": "command", "op": "QUIT"})
        assert channel.recv_frame()["status"] == 200
    finally:
        channel.close()
    assert counts[0] == counts[1]


def upload_names(env) -> list[str]:
    names = os.listdir(os.path.join(env.export_root, "home/data"))
    return sorted(name for name in names if name != "run1.dat")


def start_put(env, identities, assertion, path, payload, sent):
    """Send a PUT frame and ``sent`` payload bytes, and wait until the upload has a file."""
    channel = open_channel(env, identities, ORWELL, assertion)
    channel.send_frame({"type": "command", "op": "PUT", "path": path, "size": len(payload)})
    channel.send_bytes(payload[:sent])
    deadline = time.monotonic() + 5
    while not upload_names(env):
        assert time.monotonic() < deadline, "the upload never created a file"
        time.sleep(0.01)
    return channel


def test_get_during_a_put_sees_nothing_until_the_whole_upload(
    resource_env, identities, cas_identity, now
):
    payload = os.urandom(200_000)
    assertion = data_assertion(cas_identity, now)
    writer = start_put(
        resource_env, identities, assertion, "/home/data/up.dat", payload, len(payload) // 2
    )
    try:
        with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as reader:
            with pytest.raises(ServiceError) as exc:
                get_bytes(reader, "/home/data/up.dat")
            assert (exc.value.status, exc.value.code) == (404, "not-found")
            assert reader.ls("/home/data") == ["run1.dat"]  # the upload is hidden
            writer.send_bytes(payload[len(payload) // 2:])
            assert writer.recv_frame() == {"type": "response", "status": 200, "size": len(payload)}
            assert get_bytes(reader, "/home/data/up.dat") == payload
            assert reader.ls("/home/data") == ["run1.dat", "up.dat"]
            reader.quit()
    finally:
        writer.close()
    assert upload_names(resource_env) == ["up.dat"]


def test_put_that_loses_the_race_for_a_name_never_replaces_it(
    resource_env, identities, cas_identity, now
):
    assertion = data_assertion(cas_identity, now)
    slow = start_put(resource_env, identities, assertion, "/home/data/once.dat", b"slow" * 1000, 2000)
    try:
        with ResourceSession(resource_env.address, identities.bundle(ORWELL), assertion) as fast:
            fast.put("/home/data/once.dat", b"fast")
            slow.send_bytes(b"slow" * 500)
            reply = slow.recv_frame()
            assert (reply["status"], reply["code"]) == (409, "exists")
            assert get_bytes(fast, "/home/data/once.dat") == b"fast"
            fast.quit()
    finally:
        slow.close()
    assert upload_names(resource_env) == ["once.dat"]


def test_dropped_upload_leaves_no_file(resource_env, identities, cas_identity, now):
    assertion = data_assertion(cas_identity, now)
    writer = start_put(resource_env, identities, assertion, "/home/data/gone.dat", b"x" * 5000, 2500)
    writer.close()
    deadline = time.monotonic() + 5
    while upload_names(resource_env):
        assert time.monotonic() < deadline, upload_names(resource_env)
        time.sleep(0.01)


# -- stopping the server -----------------------------------------------------------


def test_server_close_ends_an_idle_session(resource_env, identities, cas_identity, now):
    channel = open_channel(resource_env, identities, ORWELL, data_assertion(cas_identity, now))
    try:
        channel._sock.settimeout(1.0)
        resource_env.server.shutdown()
        started = time.monotonic()
        resource_env.server.server_close()
        with pytest.raises(wire.ConnectionClosedError):
            channel.recv_frame()
        assert time.monotonic() - started < 1.0
    finally:
        channel.close()


def test_idle_connections_hold_no_thread(resource_env, identities, monkeypatch):
    monkeypatch.setattr(wire.Server, "max_sessions_per_peer", 64)
    before = threading.active_count()
    idle = [wire.connect(resource_env.address, timeout=5.0) for _ in range(40)]
    try:
        for channel in idle:
            assert channel.recv_frame()["type"] == "challenge"
        assert threading.active_count() <= before + 1
        # A fresh session is still served at once.
        started = time.monotonic()
        with ResourceSession(resource_env.address, identities.bundle(TULL)) as session:
            assert session.ls("/public") == ["readme.txt"]
        assert time.monotonic() - started < 1.0
        resource_env.server.shutdown()
        started = time.monotonic()
        resource_env.server.server_close()
        for channel in idle:
            channel._sock.settimeout(1.0)
            with pytest.raises(wire.ConnectionClosedError):
                channel.recv_frame()
        assert time.monotonic() - started < 1.0
    finally:
        for channel in idle:
            channel.close()


def test_server_close_mid_put_discards_the_upload_and_ends_every_worker(
    resource_env, identities, cas_identity, now
):
    before = server_threads()
    assertion = data_assertion(cas_identity, now)
    writer = start_put(resource_env, identities, assertion, "/home/data/cut.dat", b"x" * 5000, 2500)
    try:
        resource_env.server.shutdown()
        resource_env.server.server_close()
        assert upload_names(resource_env) == []
        assert server_threads() - before == set()
    finally:
        writer.close()


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_stopped_server_process_discards_the_put_in_flight(tmp_path, trust_root, signum):
    # The process runs on real time, so the credentials are made for now.
    identities = IdentityFactory(trust_root[0], utc_now())
    cas_cred, cas_key = identities.identity(CAS_DN)
    config = write_file_service_config(tmp_path, trust_root[1], {"cas.json": identity_to_doc(cas_cred)})
    data_dir = tmp_path / "export/home/data"
    # Development mode makes an unclosed file a warning on stderr.
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDEVMODE="1")
    command = [sys.executable, "-m", "vo_authz.file_server", "--config", config]
    with subprocess.Popen(
        command, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as server:
        try:
            banner = server.stdout.readline()
            assert " listening on " in banner, server.stderr.read()
            port = int(banner.rstrip().rpartition(":")[2])
            assertion = make_assertion(cas_cred, cas_key, ORWELL, (DATA_ROLE,), utc_now())
            with ResourceSession(("127.0.0.1", port), identities.bundle(ORWELL), assertion) as session:
                session._channel.send_frame(
                    {"type": "command", "op": "PUT", "path": "/home/data/cut.dat", "size": 5000}
                )
                session._channel.send_bytes(b"x" * 2500)
                deadline = time.monotonic() + 5
                while not os.listdir(data_dir):
                    assert time.monotonic() < deadline, "the upload never created a file"
                    time.sleep(0.01)
                server.send_signal(signum)
                assert server.wait(timeout=2) == 0
            assert os.listdir(data_dir) == []
            assert server.stderr.read() == ""
        finally:
            if server.poll() is None:
                server.kill()
