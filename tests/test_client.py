from __future__ import annotations

import base64
import io
import json
import os
import socket
import struct
import threading
from datetime import timedelta
from types import SimpleNamespace

import pytest

from vo_authz import ca, cli, wire
from vo_authz.ca import issue_identity_keypair, write_owner_only
from vo_authz.cas_server import CasServer, CasService
from vo_authz.client import (
    ClientError,
    ResourceSession,
    ServiceError,
    admin_load,
    credential_dir,
    identity_init,
    issue_assertion,
    list_tags,
    load_session,
    load_tag,
    load_unexpired_tag,
    store_tag,
)
from vo_authz.credentials import format_timestamp, generate_keypair, utc_now
from vo_authz.policy import PolicyStore, RightsTuple, apply_command_file

from .conftest import (
    ADMIN,
    CAS_DN,
    DEMO_POLICY,
    RUN1_BYTES,
    SERVER_NAME,
    TULL,
    IdentityFactory,
    ResourceEnv,
    make_assertion,
)

DATA_ROLE = RightsTuple("group", "member", "atlas/data")


# -- credential directory ----------------------------------------------------------


def test_credential_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("VO_AUTHZ_DIR", str(tmp_path / "from-env"))
    assert credential_dir(str(tmp_path / "explicit")) == str(tmp_path / "explicit")
    assert credential_dir() == str(tmp_path / "from-env")
    monkeypatch.delenv("VO_AUTHZ_DIR")
    assert credential_dir().endswith(".vo-authz")


# -- local credential store --------------------------------------------------------


@pytest.fixture
def home(tmp_path):
    """A credential directory with a year-long identity in it."""
    root_private, root_public = generate_keypair()
    now = utc_now()
    doc = issue_identity_keypair(
        root_private, TULL, now - timedelta(days=1), now + timedelta(days=365)
    )
    directory = tmp_path / "cred"
    directory.mkdir()
    write_owner_only(
        str(directory / "identity.json"), json.dumps(doc).encode("utf-8")
    )
    return SimpleNamespace(
        dir=str(directory), root_private=root_private, root_public=root_public, now=now
    )


def test_identity_init_requires_identity_file(tmp_path):
    with pytest.raises(ClientError) as exc:
        identity_init(str(tmp_path))
    assert "vo-ca issue-identity" in str(exc.value)


def test_identity_init_round_trip(home):
    bundle = identity_init(home.dir, lifetime_seconds=600)
    assert bundle.subject == TULL
    loaded = load_session(home.dir)
    assert loaded.subject == TULL
    assert loaded.session.not_after == bundle.session.not_after
    mode = os.stat(os.path.join(home.dir, "session.json")).st_mode & 0o777
    assert mode == 0o600


def test_private_files_are_owner_only_even_over_a_wider_file(home, tmp_path, monkeypatch):
    root_dir = tmp_path / "root"
    root_dir.mkdir()
    identity_out = tmp_path / "new-user.json"
    targets = [root_dir / ca.ROOT_KEY_FILE, identity_out, tmp_path / "cred" / "session.json"]
    for path in targets:
        path.write_text("left over\n")
        path.chmod(0o644)
    ca.init_root(str(root_dir))
    monkeypatch.setenv("VO_TEST_PASSPHRASE", "hunter2")
    assert ca.main([
        "issue-identity", "--dir", str(root_dir), "--subject", "/O=doesciencegrid.org/CN=New User 1",
        "--out", str(identity_out), "--passphrase-env", "VO_TEST_PASSPHRASE",
    ]) == 0
    identity_init(home.dir)
    for path in targets:
        assert path.stat().st_mode & 0o777 == 0o600, path


def test_write_atomically_ignores_a_leftover_temporary_file(tmp_path):
    path = tmp_path / "key.pem"
    leftover = tmp_path / ("key.pem.tmp.%d" % os.getpid())
    leftover.write_text("left over\n")
    leftover.chmod(0o644)
    ca.write_atomically(str(path), b"secret\n")
    assert path.read_bytes() == b"secret\n"
    assert path.stat().st_mode & 0o777 == 0o600


def test_concurrent_writers_of_one_path_both_succeed(tmp_path, monkeypatch):
    # Both writers have written and synced their data before either renames it.
    barrier = threading.Barrier(2, timeout=5)
    fsync = os.fsync

    def fsync_then_wait(fd):
        fsync(fd)
        barrier.wait()

    monkeypatch.setattr(os, "fsync", fsync_then_wait)
    path = str(tmp_path / "policy.snapshot")
    contents = [b"a" * 5000, b"b" * 3000]
    errors = []

    def write(data):
        try:
            ca.write_atomically(path, data)
        except Exception as exc:
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(data,)) for data in contents]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert errors == []
    with open(path, "rb") as handle:
        assert handle.read() in contents
    assert os.listdir(tmp_path) == ["policy.snapshot"]


def test_identity_init_rejects_expired_identity(home, tmp_path):
    doc = issue_identity_keypair(
        home.root_private, TULL, home.now - timedelta(days=8), home.now - timedelta(days=1)
    )
    directory = tmp_path / "stale"
    directory.mkdir()
    write_owner_only(str(directory / "identity.json"), json.dumps(doc).encode("utf-8"))
    with pytest.raises(ClientError) as exc:
        identity_init(str(directory))
    assert "identity expired" in str(exc.value)


def test_load_session_requires_init(home):
    with pytest.raises(ClientError) as exc:
        load_session(home.dir)
    assert "identity-init" in str(exc.value)


def test_load_session_rejects_expired(home):
    identity_init(home.dir, lifetime_seconds=600)
    with pytest.raises(ClientError) as exc:
        load_session(home.dir, clock=lambda: home.now + timedelta(seconds=601))
    assert "session expired" in str(exc.value)


def test_load_session_rejects_garbage(home):
    identity_init(home.dir)
    with open(os.path.join(home.dir, "session.json"), "w") as handle:
        handle.write("{not json")
    with pytest.raises(ClientError):
        load_session(home.dir)


# -- tag files -------------------------------------------------------------------


@pytest.fixture
def tag_world(home):
    factory = IdentityFactory(home.root_private, home.now)
    cas_cred, cas_key = factory.identity(CAS_DN)
    return SimpleNamespace(
        home=home,
        cas_cred=cas_cred,
        cas_key=cas_key,
        assertion=lambda subject=TULL, rights=(DATA_ROLE,), **kw: make_assertion(
            cas_cred, cas_key, subject, rights, home.now, **kw
        ),
    )


def test_store_and_load_tag(tag_world):
    home = tag_world.home
    assertion = tag_world.assertion()
    assert store_tag(home.dir, "data", assertion) is False
    assert load_tag(home.dir, "data").body.serial == assertion.body.serial
    replacement = tag_world.assertion()
    assert store_tag(home.dir, "data", replacement) is True
    assert load_tag(home.dir, "data").body.serial == replacement.body.serial
    mode = os.stat(os.path.join(home.dir, "tags", "data.json")).st_mode & 0o777
    assert mode == 0o600


@pytest.mark.parametrize("name", ["", "9lead", "../up", "has space", "dot.dot"])
def test_bad_tag_names_rejected(tag_world, name):
    with pytest.raises(ClientError):
        store_tag(tag_world.home.dir, name, tag_world.assertion())


def test_missing_tag_message(home):
    with pytest.raises(ClientError) as exc:
        load_tag(home.dir, "ghost")
    assert str(exc.value) == "no such tag: ghost"


def test_expired_tag_refused_with_hint(tag_world):
    home = tag_world.home
    stale = make_assertion(
        tag_world.cas_cred,
        tag_world.cas_key,
        TULL,
        (DATA_ROLE,),
        home.now - timedelta(hours=2),
        lifetime_seconds=3600,
    )
    store_tag(home.dir, "old", stale)
    with pytest.raises(ClientError) as exc:
        load_unexpired_tag(home.dir, "old", clock=lambda: home.now)
    assert "vo cas-init old" in str(exc.value)


def test_list_tags(tag_world):
    home = tag_world.home
    assert list_tags(home.dir) == []
    store_tag(home.dir, "data", tag_world.assertion())
    stale = make_assertion(
        tag_world.cas_cred,
        tag_world.cas_key,
        TULL,
        (DATA_ROLE,),
        home.now - timedelta(hours=2),
        lifetime_seconds=3600,
    )
    store_tag(home.dir, "attic", stale)
    with open(os.path.join(home.dir, "tags", "notes.txt"), "w") as handle:
        handle.write("not a tag")
    infos = list_tags(home.dir, clock=lambda: home.now)
    assert [i.tag for i in infos] == ["attic", "data"]
    assert infos[0].expired and not infos[1].expired
    assert infos[1].roles == ("atlas/data",)
    assert infos[1].subject == TULL


def test_unreadable_tag_skipped_in_listing(tag_world):
    home = tag_world.home
    store_tag(home.dir, "data", tag_world.assertion())
    with open(os.path.join(home.dir, "tags", "broken.json"), "w") as handle:
        handle.write("{")
    assert [i.tag for i in list_tags(home.dir)] == ["data"]


def test_non_utf8_tag_and_session_files_are_client_errors(tag_world):
    home = tag_world.home
    identity_init(home.dir)
    store_tag(home.dir, "data", tag_world.assertion())
    for name in ("tags/garbage.json", "session.json"):
        with open(os.path.join(home.dir, name), "wb") as handle:
            handle.write(b'{"kind": "\xff\xfe"}')
    with pytest.raises(ClientError):
        load_tag(home.dir, "garbage")
    assert [i.tag for i in list_tags(home.dir)] == ["data"]
    with pytest.raises(ClientError):
        load_session(home.dir)


# -- the vo command end to end -------------------------------------------------------


@pytest.fixture
def world(tmp_path, monkeypatch):
    """Identity dir plus live issuance and file services on real time."""
    now = utc_now()
    root_private, root_public = generate_keypair()
    factory = IdentityFactory(root_private, now)

    directory = tmp_path / "cred"
    directory.mkdir()
    doc = issue_identity_keypair(
        root_private, TULL, now - timedelta(days=1), now + timedelta(days=365)
    )
    write_owner_only(str(directory / "identity.json"), json.dumps(doc).encode("utf-8"))
    monkeypatch.setenv("VO_AUTHZ_DIR", str(directory))

    cas_cred, cas_key = factory.identity(CAS_DN)
    store, _ = apply_command_file(PolicyStore(), DEMO_POLICY)
    cas = CasServer(
        ("127.0.0.1", 0),
        CasService(
            cas_cred, cas_key, root_public, store=store, admin_dns=(ADMIN,)
        ),
    )
    cas_thread = threading.Thread(target=cas.serve_forever, daemon=True)
    cas_thread.start()

    files = ResourceEnv(
        tmp_path, root_public, {CAS_DN: cas_cred.public_key}, utc_now
    )

    yield SimpleNamespace(
        dir=str(directory),
        now=now,
        factory=factory,
        cas_cred=cas_cred,
        cas_key=cas_key,
        cas_address="127.0.0.1:%d" % cas.address[1],
        files_address="127.0.0.1:%d" % files.address[1],
        files=files,
        root_private=root_private,
    )

    cas.shutdown()
    cas.server_close()
    cas_thread.join(timeout=5)
    files.close()


def frame_types(data: bytes) -> list[str]:
    """The ``type`` of each frame in one write of whole frames."""
    types = []
    while data:
        (length,) = struct.unpack(">I", data[:4])
        types.append(json.loads(data[4 : 4 + length])["type"])
        data = data[4 + length :]
    return types


@pytest.mark.parametrize("first", ["issue_request", "admin_load", "present_assertion"])
def test_auth_frame_and_first_request_are_one_write(world, monkeypatch, first):
    cas_address = ("127.0.0.1", int(world.cas_address.rpartition(":")[2]))
    assertion = issue_assertion(cas_address, world.factory.bundle(TULL))
    client_thread = threading.get_ident()
    writes = []
    send = wire.Channel._send

    def counting(channel, data):
        if threading.get_ident() == client_thread:
            writes.append(frame_types(data))
        send(channel, data)

    monkeypatch.setattr(wire.Channel, "_send", counting)
    if first == "issue_request":
        issue_assertion(cas_address, world.factory.bundle(TULL))
    elif first == "admin_load":
        assert admin_load(cas_address, world.factory.bundle(ADMIN), "") == 0
    else:
        with ResourceSession(world.files.address, world.factory.bundle(TULL), assertion):
            pass
    assert writes == [["auth", first]]


def test_identity_init_command(world, capsys):
    assert cli.main(["identity-init"]) == 0
    out = capsys.readouterr().out
    assert "Your identity: %s" % TULL in out
    assert "Session valid until " in out


def test_identity_init_with_passphrase(world, monkeypatch, capsys):
    doc = issue_identity_keypair(
        world.root_private,
        TULL,
        world.now - timedelta(days=1),
        world.now + timedelta(days=365),
        passphrase=b"sesame",
    )
    write_owner_only(
        os.path.join(world.dir, "identity.json"), json.dumps(doc).encode("utf-8")
    )
    monkeypatch.setenv("VO_AUTHZ_PASSPHRASE", "wrong")
    assert cli.main(["identity-init"]) == 1
    assert "error:" in capsys.readouterr().err
    monkeypatch.setenv("VO_AUTHZ_PASSPHRASE", "sesame")
    assert cli.main(["identity-init"]) == 0
    assert "Your identity:" in capsys.readouterr().out


def test_cas_init_stores_and_replaces_tag(world, capsys):
    cli.main(["identity-init"])
    assert cli.main(["cas-init", "all", "--server", world.cas_address]) == 0
    captured = capsys.readouterr()
    assert "tag all stored; expires " in captured.out
    assert "warning" not in captured.err
    roles = load_tag(world.dir, "all").body.rights
    assert RightsTuple("group", "member", "atlas/admin") in roles
    assert DATA_ROLE in roles

    assert cli.main(["cas-init", "all", "--server", world.cas_address]) == 0
    assert "warning: replaced existing tag 'all'" in capsys.readouterr().err


def test_cas_init_with_filter(world, tmp_path, capsys):
    cli.main(["identity-init"])
    filter_file = tmp_path / "data-only.filter"
    filter_file.write_text("group member atlas/data exact\n")
    assert (
        cli.main(
            ["cas-init", "data", "--filter", str(filter_file), "--server", world.cas_address]
        )
        == 0
    )
    capsys.readouterr()
    assert load_tag(world.dir, "data").body.rights == (DATA_ROLE,)


def test_cas_init_uncovered_filter_lists_what_was_refused(world, tmp_path, capsys):
    cli.main(["identity-init"])
    filter_file = tmp_path / "greedy.filter"
    filter_file.write_text("group member cms/prod exact\n")
    assert (
        cli.main(
            ["cas-init", "nope", "--filter", str(filter_file), "--server", world.cas_address]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "error: 403 rights-not-granted" in err
    assert "not granted: group member cms/prod exact" in err
    with pytest.raises(ClientError):
        load_tag(world.dir, "nope")


def data_tag(world, tmp_path, capsys):
    """A tag narrowed to the data role, so it maps to the data account."""
    filter_file = tmp_path / "data.filter"
    filter_file.write_text("group member atlas/data exact\n")
    cli.main(["cas-init", "data", "--filter", str(filter_file), "--server", world.cas_address])
    capsys.readouterr()


def test_run_ls_get_put(world, tmp_path, capsys):
    cli.main(["identity-init"])
    data_tag(world, tmp_path, capsys)

    assert cli.main(["run", "data", "ls", "/home/data", "--server", world.files_address]) == 0
    assert capsys.readouterr().out.splitlines() == ["run1.dat"]

    local = tmp_path / "run1.local"
    assert (
        cli.main(
            ["run", "data", "get", "/home/data/run1.dat", str(local), "--server", world.files_address]
        )
        == 0
    )
    assert local.read_bytes() == RUN1_BYTES

    upload = tmp_path / "upload.dat"
    upload.write_bytes(b"fresh results")
    assert (
        cli.main(
            ["run", "data", "put", str(upload), "/home/data/upload.dat", "--server", world.files_address]
        )
        == 0
    )
    exported = os.path.join(world.files.export_root, "home/data/upload.dat")
    with open(exported, "rb") as handle:
        assert handle.read() == b"fresh results"


def test_run_unknown_tag(world, capsys):
    cli.main(["identity-init"])
    capsys.readouterr()
    assert cli.main(["run", "ghost", "ls", "/home/data", "--server", world.files_address]) == 1
    assert "no such tag: ghost" in capsys.readouterr().err


def test_run_arity_errors(world, tmp_path, capsys):
    cli.main(["identity-init"])
    data_tag(world, tmp_path, capsys)
    assert cli.main(["run", "data", "get", "/only-remote", "--server", world.files_address]) == 1
    assert "usage: get <remote> <local>" in capsys.readouterr().err


def test_run_ls_without_a_path_is_a_usage_error(world, tmp_path, capsys):
    cli.main(["identity-init"])
    data_tag(world, tmp_path, capsys)
    assert cli.main(["run", "data", "ls", "--server", world.files_address]) == 1
    assert "usage: ls <remote-path>" in capsys.readouterr().err


def test_failed_get_leaves_no_local_file(world, tmp_path, capsys):
    cli.main(["identity-init"])
    data_tag(world, tmp_path, capsys)
    local = tmp_path / "never.dat"
    rc = cli.main(
        ["run", "data", "get", "/home/data/absent.dat", str(local), "--server", world.files_address]
    )
    assert rc == 1
    assert "404" in capsys.readouterr().err
    assert not local.exists()


def test_denial_shows_checked_url_with_server_name(world, capsys):
    cli.main(["identity-init"])
    capsys.readouterr()
    narrow = RightsTuple(
        "file", "read", "ftp://%s/home/data/*" % SERVER_NAME, match_mode="wildcard"
    )
    assertion = make_assertion(
        world.cas_cred, world.cas_key, TULL, (DATA_ROLE, narrow), utc_now()
    )
    store_tag(world.dir, "narrow", assertion)
    rc = cli.main(["run", "narrow", "ls", "/public", "--server", world.files_address])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: 403 cas-rights: no file right covers ftp://%s/public" % SERVER_NAME in err


@pytest.mark.parametrize("header", [{}, {"size": "12"}, {"size": -5}, {"size": True}, {"size": 1.5}])
def test_get_refuses_a_data_header_without_a_valid_size(identities, header):
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_file_service():
        sock, _ = listener.accept()
        channel = wire.Channel(sock, timeout=5.0)
        try:
            channel.send_frame({"type": "challenge", "nonce": base64.b64encode(bytes(32)).decode()})
            assert channel.recv_frame()["type"] == "auth"
            assert channel.recv_frame()["op"] == "GET"
            channel.send_frame({"type": "response", "status": 200})
            channel.send_frame(dict(header, type="data_header"))
        finally:
            channel.close()

    server = threading.Thread(target=fake_file_service, daemon=True)
    server.start()
    try:
        with ResourceSession(listener.getsockname(), identities.bundle(TULL)) as session:
            with pytest.raises(ServiceError) as exc:
                session.get("/home/tull/f", io.BytesIO())
        assert (exc.value.status, exc.value.code) == (500, "protocol-error")
    finally:
        server.join(timeout=5)
        listener.close()
    assert not server.is_alive()


def test_tags_command(world, capsys):
    cli.main(["identity-init"])
    cli.main(["cas-init", "all", "--server", world.cas_address])
    stale = make_assertion(
        world.cas_cred,
        world.cas_key,
        TULL,
        (DATA_ROLE,),
        utc_now() - timedelta(hours=2),
        lifetime_seconds=3600,
    )
    store_tag(world.dir, "attic", stale)
    capsys.readouterr()
    assert cli.main(["tags"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    all_tag, attic = lines
    assert attic.startswith("attic\t%s\t" % TULL)
    assert attic.endswith("\texpired")
    assert all_tag.startswith("all\t%s\tatlas/admin,atlas/data\t" % TULL)
    assert format_timestamp(stale.body.not_after) in attic


def test_admin_load_command(world, tmp_path, monkeypatch, capsys):
    admin_dir = tmp_path / "admin-cred"
    admin_dir.mkdir()
    doc = issue_identity_keypair(
        world.root_private, ADMIN, world.now - timedelta(days=1), world.now + timedelta(days=365)
    )
    write_owner_only(str(admin_dir / "identity.json"), json.dumps(doc).encode("utf-8"))
    commands = tmp_path / "new.policy"
    commands.write_text('object group atlas/mc\ngrant "%s" member atlas/mc\n' % TULL)

    assert cli.main(["--dir", str(admin_dir), "identity-init"]) == 0
    assert (
        cli.main(
            ["--dir", str(admin_dir), "admin-load", str(commands), "--server", world.cas_address]
        )
        == 0
    )
    assert "applied 2 commands" in capsys.readouterr().out


def test_non_admin_load_refused(world, tmp_path, capsys):
    cli.main(["identity-init"])
    commands = tmp_path / "evil.policy"
    commands.write_text("servicetype net join\n")
    capsys.readouterr()
    assert cli.main(["admin-load", str(commands), "--server", world.cas_address]) == 1
    assert "not-admin" in capsys.readouterr().err


def test_connection_refused_is_a_plain_error(world, capsys):
    cli.main(["identity-init"])
    capsys.readouterr()
    assert cli.main(["cas-init", "x", "--server", "127.0.0.1:1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
