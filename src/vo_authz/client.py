"""Client-side workflow: sessions, tagged assertions, file commands.

The credential directory (default ``~/.vo-authz``, overridable with
``VO_AUTHZ_DIR``) holds the long-term identity keypair, one active
session credential, and one file per tagged assertion. A tag names
which assertion a command runs under, so a user can hold several
narrowed assertions side by side and pick per invocation.
Both services answer with ``response`` frames, read by :func:`_reply`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional, Sequence

from . import wire
from .ca import load_identity_keypair, write_atomically
from .credentials import (
    DEFAULT_LIFETIME_SECONDS,
    Assertion,
    Clock,
    CredentialError,
    MalformedCredential,
    SessionBundle,
    answer_challenge,
    assertion_from_doc,
    assertion_to_doc,
    delegate_session,
    format_timestamp,
    generate_keypair,
    private_key_from_pem,
    private_key_to_pem,
    session_from_doc,
    session_to_doc,
    utc_now,
)
from .engine import roles_in
from .policy import RightsTuple

TAG_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_-]*\Z")

ENV_DIR = "VO_AUTHZ_DIR"
DEFAULT_DIR = "~/.vo-authz"

IDENTITY_FILE = "identity.json"
SESSION_FILE = "session.json"
TAGS_DIR = "tags"


class ClientError(Exception):
    """A local precondition failed; nothing was sent."""


class ServiceError(Exception):
    """A server answered with a non-200 status."""

    def __init__(self, status: int, code: str, message: str, uncovered=None):
        super().__init__("%d %s: %s" % (status, code, message))
        self.status = status
        self.code = code
        self.uncovered = uncovered or []


def credential_dir(explicit: Optional[str] = None) -> str:
    path = explicit or os.environ.get(ENV_DIR) or os.path.expanduser(DEFAULT_DIR)
    return os.path.abspath(path)


def identity_path(directory: str) -> str:
    return os.path.join(directory, IDENTITY_FILE)


def _session_path(directory: str) -> str:
    return os.path.join(directory, SESSION_FILE)


def _tag_path(directory: str, tag: str) -> str:
    if not TAG_RE.match(tag):
        raise ClientError("bad tag name %r" % tag)
    return os.path.join(directory, TAGS_DIR, "%s.json" % tag)


# -- session lifecycle ---------------------------------------------------------


def identity_init(
    directory: str,
    passphrase: Optional[bytes] = None,
    lifetime_seconds: int = DEFAULT_LIFETIME_SECONDS,
    clock: Clock = utc_now,
) -> SessionBundle:
    """Mint and store a fresh session credential from the identity key."""
    path = identity_path(directory)
    if not os.path.exists(path):
        raise ClientError(
            "no identity at %s; create one with 'vo-ca issue-identity'" % path
        )
    identity, identity_key = load_identity_keypair(path, passphrase)
    now = clock()
    if now >= identity.not_after:
        raise ClientError(
            "identity expired at %s" % format_timestamp(identity.not_after)
        )
    session_private, session_public = generate_keypair()
    session = delegate_session(
        identity, identity_key, session_public, now + timedelta(seconds=lifetime_seconds)
    )
    bundle = SessionBundle(session, session_private)
    doc = {
        "kind": "session-bundle",
        "session": session_to_doc(session),
        "private_key_pem": private_key_to_pem(session_private),
    }
    write_atomically(_session_path(directory), json.dumps(doc, indent=1).encode("utf-8"))
    return bundle


def load_session(directory: str, clock: Clock = utc_now) -> SessionBundle:
    path = _session_path(directory)
    if not os.path.exists(path):
        raise ClientError("no session credential; run 'vo identity-init' first")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or doc.get("kind") != "session-bundle":
            raise MalformedCredential("not a session bundle")
        session = session_from_doc(doc["session"])
        private_key = private_key_from_pem(doc["private_key_pem"])
    except (KeyError, TypeError, ValueError, CredentialError) as exc:
        raise ClientError("unreadable session file %s: %s" % (path, exc))
    if clock() >= session.not_after:
        raise ClientError(
            "session expired at %s; run 'vo identity-init'"
            % format_timestamp(session.not_after)
        )
    return SessionBundle(session, private_key)


# -- tagged assertions -----------------------------------------------------------


@dataclass(frozen=True)
class TagInfo:
    tag: str
    subject: str
    roles: tuple[str, ...]
    not_after: datetime
    expired: bool


def store_tag(directory: str, tag: str, assertion: Assertion, clock: Clock = utc_now) -> bool:
    """Write a tag file atomically; returns whether a tag was replaced."""
    path = _tag_path(directory, tag)
    os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
    existed = os.path.exists(path)
    doc = {
        "created_at": format_timestamp(clock()),
        "assertion": assertion_to_doc(assertion),
    }
    write_atomically(path, json.dumps(doc, indent=1).encode("utf-8"))
    return existed


def load_tag(directory: str, tag: str) -> Assertion:
    path = _tag_path(directory, tag)
    if not os.path.exists(path):
        raise ClientError("no such tag: %s" % tag)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return assertion_from_doc(doc["assertion"])
    except (KeyError, TypeError, ValueError, CredentialError) as exc:
        raise ClientError("unreadable tag %r: %s" % (tag, exc))


def load_unexpired_tag(directory: str, tag: str, clock: Clock = utc_now) -> Assertion:
    """Tag lookup with the friendly client-side expiry check."""
    assertion = load_tag(directory, tag)
    if clock() >= assertion.body.not_after:
        raise ClientError(
            "tag %r expired at %s; run 'vo cas-init %s' again"
            % (tag, format_timestamp(assertion.body.not_after), tag)
        )
    return assertion


def list_tags(directory: str, clock: Clock = utc_now) -> list[TagInfo]:
    tags_dir = os.path.join(directory, TAGS_DIR)
    if not os.path.isdir(tags_dir):
        return []
    now = clock()
    infos = []
    for name in sorted(os.listdir(tags_dir)):
        if not name.endswith(".json"):
            continue
        tag = name[: -len(".json")]
        try:
            assertion = load_tag(directory, tag)
        except ClientError:
            continue
        body = assertion.body
        infos.append(
            TagInfo(
                tag=tag,
                subject=body.subject,
                roles=tuple(roles_in(body.rights)),
                not_after=body.not_after,
                expired=now >= body.not_after,
            )
        )
    return infos


# -- issuance protocol client ------------------------------------------------------


def _reply(channel: wire.Channel) -> dict:
    """Read a service's reply; any status but 200 raises :class:`ServiceError`."""
    frame = channel.recv_frame()
    if frame["type"] != "response":
        raise ServiceError(500, "protocol-error", "unexpected frame %r" % frame["type"])
    if frame.get("status") != 200:
        raise ServiceError(
            frame.get("status", 500),
            frame.get("code", "error"),
            frame.get("message", "unspecified error"),
            uncovered=frame.get("uncovered"),
        )
    return frame


def _open(
    address: tuple[str, int], bundle: SessionBundle, timeout: float, request: Optional[dict] = None
) -> wire.Channel:
    """Connect and answer the service's challenge, sending ``request`` with the answer."""
    channel = wire.connect(address, timeout=timeout)
    try:
        answer_challenge(channel, bundle, request)
    except BaseException:
        channel.close()
        raise
    return channel


def _call(address: tuple[str, int], bundle: SessionBundle, request: dict, timeout: float) -> dict:
    """One request on its own connection: the issuance service's protocol."""
    channel = _open(address, bundle, timeout, request)
    try:
        return _reply(channel)
    finally:
        channel.close()


def issue_assertion(
    address: tuple[str, int],
    bundle: SessionBundle,
    requested: Sequence[RightsTuple] = (),
    lifetime_seconds: Optional[int] = None,
    timeout: float = 10.0,
) -> Assertion:
    """Authenticate to the issuance service and obtain an assertion."""
    request: dict = {"type": "issue_request"}
    if requested:
        request["rights"] = [t.as_dict() for t in requested]
    if lifetime_seconds is not None:
        request["lifetime_seconds"] = lifetime_seconds
    return assertion_from_doc(_call(address, bundle, request, timeout).get("assertion"))


def admin_load(
    address: tuple[str, int],
    bundle: SessionBundle,
    commands: str,
    timeout: float = 10.0,
) -> int:
    """Send a policy command file to the issuance service; returns count."""
    request = {"type": "admin_load", "commands": commands}
    return _call(address, bundle, request, timeout).get("applied", 0)


# -- resource protocol client -------------------------------------------------------


class ResourceSession:
    """One authenticated connection to the file service."""

    def __init__(
        self,
        address: tuple[str, int],
        bundle: SessionBundle,
        assertion: Optional[Assertion] = None,
        timeout: float = 10.0,
    ):
        self.account: Optional[str] = None
        self.via: Optional[str] = None
        request = None
        if assertion is not None:
            request = {"type": "present_assertion", "assertion": assertion_to_doc(assertion)}
        self._channel = _open(address, bundle, timeout, request)
        if request is not None:
            try:
                frame = _reply(self._channel)
            except BaseException:
                self.close()
                raise
            self.account, self.via = frame.get("account"), frame.get("via")

    def __enter__(self) -> "ResourceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ask(self, request: dict) -> dict:
        self._channel.send_frame(request)
        return _reply(self._channel)

    def ls(self, path: str) -> list[str]:
        frame = self._ask({"type": "command", "op": "LIST", "path": path})
        return list(frame.get("entries", []))

    def get(self, path: str, writer) -> int:
        """Download into ``writer.write``; returns the byte count."""
        self._ask({"type": "command", "op": "GET", "path": path})
        header = self._channel.recv_frame()
        size = header.get("size")
        if header["type"] != "data_header" or not wire.is_size(size):
            raise ServiceError(500, "protocol-error", "expected a data_header with a size")
        self._channel.recv_bytes_to(size, writer)
        return size

    def put(self, path: str, data: bytes) -> None:
        command = {"type": "command", "op": "PUT", "path": path, "size": len(data)}
        self._channel.send_frames(command, payload=data)
        _reply(self._channel)

    def quit(self) -> None:
        self._ask({"type": "command", "op": "QUIT"})

    def close(self) -> None:
        self._channel.close()
