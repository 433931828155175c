"""Every issuance-service refusal, end to end: the real client over TCP.

Each case drives ``issue_assertion`` or ``admin_load`` against a running
issuance service and checks both what the client raises and the exact
reply frame the service sent.
"""

from __future__ import annotations

import re
import struct
import threading

import pytest

from vo_authz import wire
from vo_authz.cas_server import CasServer, CasService
from vo_authz.client import ServiceError, admin_load, issue_assertion
from vo_authz.credentials import SessionBundle, generate_keypair
from vo_authz.policy import RightsTuple, apply_command_file

from .conftest import ADMIN, ORWELL, TULL, WELLS

NEWTON = "/O=doesciencegrid.org/OU=People/CN=Isaac Newton 1727"  # member, no grants
ADMIN_RIGHT = RightsTuple("group", "member", "atlas/admin")


@pytest.fixture
def cas(cas_identity, trust_root, demo_store, clock, tmp_path):
    store, _ = apply_command_file(demo_store, 'user "%s"\n' % NEWTON)
    service = CasService(
        issuer=cas_identity[0],
        issuer_private_key=cas_identity[1],
        trust_root=trust_root[1],
        store=store,
        admin_dns=(ADMIN,),
        snapshot_path=str(tmp_path / "policy.snapshot"),
        clock=clock,
    )
    server = CasServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def replies(monkeypatch):
    """Every reply frame (a frame with a ``status``) read in this process."""
    seen: list[dict] = []
    recv_frame = wire.Channel.recv_frame

    def recording(channel):
        frame = recv_frame(channel)
        if "status" in frame:
            seen.append(frame)
        return frame

    monkeypatch.setattr(wire.Channel, "recv_frame", recording)
    return seen


def rewrite_request(monkeypatch, rewrite):
    """Have the client send ``rewrite(frame)`` (raw bytes) for its request.

    The encoder is replaced, so the rewrite holds however the client
    groups its frames into writes.
    """
    encode_frame = wire.encode_frame

    def encoding(message):
        if message["type"] in ("issue_request", "admin_load"):
            return rewrite(message)
        return encode_frame(message)

    monkeypatch.setattr(wire, "encode_frame", encoding)


def raw_frame(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def refused(call, status: int, code: str) -> ServiceError:
    with pytest.raises(ServiceError) as exc:
        call()
    assert (exc.value.status, exc.value.code) == (status, code)
    return exc.value


def test_no_vo_membership(cas, identities, replies):
    refused(lambda: issue_assertion(cas.address, identities.bundle(WELLS)), 403, "no-vo-membership")
    assert replies == [{
        "type": "response", "status": 403, "code": "no-vo-membership",
        "message": "subject %r is not a member of this VO" % WELLS,
    }]


def test_no_rights(cas, identities, replies):
    refused(lambda: issue_assertion(cas.address, identities.bundle(NEWTON)), 403, "no-rights")
    assert replies == [{
        "type": "response", "status": 403, "code": "no-rights",
        "message": "subject %r holds no rights" % NEWTON,
    }]


def test_rights_not_granted_lists_uncovered(cas, identities, replies):
    error = refused(
        lambda: issue_assertion(cas.address, identities.bundle(ORWELL), [ADMIN_RIGHT]),
        403, "rights-not-granted",
    )
    assert error.uncovered == [ADMIN_RIGHT.as_dict()]
    assert replies == [{
        "type": "response", "status": 403, "code": "rights-not-granted",
        "message": "requested rights not granted: group member atlas/admin exact",
        "uncovered": [ADMIN_RIGHT.as_dict()],
    }]


def test_bad_issue_request(cas, identities, replies):
    refused(
        lambda: issue_assertion(cas.address, identities.bundle(TULL), lifetime_seconds=0),
        400, "bad-request",
    )
    assert replies == [{
        "type": "response", "status": 400, "code": "bad-request",
        "message": "'lifetime_seconds' must be a positive integer",
    }]


def test_bad_admin_request(cas, identities, replies):
    refused(lambda: admin_load(cas.address, identities.bundle(ADMIN), 7), 400, "bad-request")
    assert replies == [{
        "type": "response", "status": 400, "code": "bad-request",
        "message": "admin_load needs a string 'commands' field",
    }]


def test_unknown_request(cas, identities, replies, monkeypatch):
    rewrite_request(monkeypatch, lambda frame: wire.encode_frame(dict(frame, type="command")))
    refused(lambda: issue_assertion(cas.address, identities.bundle(TULL)), 400, "unknown-request")
    assert replies == [{
        "type": "response", "status": 400, "code": "unknown-request",
        "message": "unsupported request type 'command'",
    }]


def test_not_admin(cas, identities, replies):
    refused(lambda: admin_load(cas.address, identities.bundle(TULL), ""), 403, "not-admin")
    assert replies == [{
        "type": "response", "status": 403, "code": "not-admin",
        "message": "subject %r may not load policy" % TULL,
    }]


def test_command_file_error_names_the_line(cas, identities, replies):
    commands = "object group atlas/new\nbogus line\n"
    refused(
        lambda: admin_load(cas.address, identities.bundle(ADMIN), commands),
        400, "command-file-error",
    )
    assert replies == [{
        "type": "response", "status": 400, "code": "command-file-error",
        "message": "line 2: unknown command 'bogus'", "line": 2,
    }]


def test_snapshot_failed(cas, identities, replies, tmp_path):
    snapshot = str(tmp_path / "gone" / "policy.snapshot")
    cas.service.snapshot_path = snapshot
    refused(
        lambda: admin_load(cas.address, identities.bundle(ADMIN), ""),
        500, "snapshot-failed",
    )
    # The temporary file the write failed on has a random suffix.
    [reply] = replies
    message = reply.pop("message")
    assert reply == {"type": "response", "status": 500, "code": "snapshot-failed"}
    assert re.fullmatch(
        re.escape("cannot write the policy snapshot: [Errno 2] No such file or directory: '%s.tmp."
                  % snapshot) + r"\w+'",
        message,
    )


def test_handshake_refusal(cas, identities, replies):
    genuine = identities.bundle(TULL)
    forged = SessionBundle(genuine.session, generate_keypair()[0])
    refused(lambda: issue_assertion(cas.address, forged), 401, "nonce-mismatch")
    assert replies == [{
        "type": "response", "status": 401, "code": "nonce-mismatch",
        "message": "nonce-mismatch: nonce signature does not verify",
    }]


def test_protocol_error(cas, identities, replies, monkeypatch):
    rewrite_request(monkeypatch, lambda frame: raw_frame(b"[]"))
    refused(lambda: issue_assertion(cas.address, identities.bundle(TULL)), 400, "protocol-error")
    assert replies == [{
        "type": "response", "status": 400, "code": "protocol-error",
        "message": "frame lacks a string 'type' field",
    }]
