"""File service that honors VO role assertions.

A session is: challenge-response handshake, an optional
``present_assertion`` frame, then a command loop (LIST, GET, PUT,
QUIT). The presented assertion is verified against the server's
trusted issuer set, its roles are mapped to a local account by walking
the role map in file order, and the grid map must authorize the
issuing service for the chosen account. Sessions without an assertion
fall back to the subject's personal grid-map account.

Accounts are simulated: a table maps each account to a home directory
and a writable flag under one export root; enforcement is the same
two-layer check the real service would make, without OS account
switching.

An authorized path is resolved one component at a time from the export
root, each directory opened relative to the one before it with
``O_NOFOLLOW``, and the file is then opened relative to that last
directory. So a symlink anywhere on the path is refused, and what was
checked is what is served: a directory swapped for a symlink meanwhile
cannot lead outside the root. A PUT writes a hidden temporary file
(names starting with :data:`UPLOAD_PREFIX`, which LIST hides and client
paths may not use) and publishes it with a hard link, so a GET sees the
whole upload or none of it, and an existing name is never replaced.

Every check raises :class:`Refusal`, and one step per session turns it
into the audit line and the failure reply. So every LIST, GET and PUT,
allowed or refused, and every failed mapping writes one audit line
before its response, naming the individual DN that acted under the
role; audit failures fail closed. A handshake failure, a protocol
error and an audit failure end the session, and :class:`wire.Server`
answers them.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import posixpath
import re
import secrets
import stat
import sys
import threading
from dataclasses import dataclass
from typing import Mapping, Optional

from . import wire
from .credentials import (
    AuthenticatedPeer,
    Clock,
    CredentialError,
    MalformedCredential,
    VerifiedRights,
    assertion_from_doc,
    authenticate_peer,
    format_timestamp,
    identity_from_doc,
    public_key_from_pem,
    utc_now,
    verify_assertion,
)
from .engine import (
    FILE_SERVICE_TYPE,
    READ_ACTION,
    WRITE_ACTION,
    Decision,
    check_right,
    roles_in,
)
from .lineformat import for_each_line, parse_kv_config, split_quoted_list
from .policy import RightsTuple, validate_role_name, validate_subject_dn

ACCOUNT_RE = re.compile(r"[a-z_][a-z0-9_-]*\Z")
_CONTROL_CHAR = re.compile(r"[\x00-\x1f]")
IO_TIMEOUT_SECONDS = 30.0
MAX_PUT_BYTES = 64 * 1024 * 1024
DEFAULT_PORT = 2813

_NO_VALUE = "-"  # audit column placeholder

UPLOAD_PREFIX = ".vo-upload-"  # reserved for PUT's temporary files
_DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW | os.O_CLOEXEC
# O_NONBLOCK keeps a FIFO from stalling the open; reads of a regular
# file are unaffected.
_FILE_FLAGS = os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC
_UPLOAD_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC
_SYMLINK_MESSAGE = "symlinks are not served"
# How each operation answers a name that is missing on the way.
_MISSING = {
    "LIST": (404, "not-found", "no such path"),
    "GET": (404, "not-found", "no such file"),
    "PUT": (404, "missing-parent", "no such directory"),
}


class MappingError(Exception):
    """No account mapping exists for this session."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class PathError(ValueError):
    """A client-supplied path is unusable (shape or confinement)."""


class AuditError(Exception):
    """The audit log could not be written; commands must fail closed."""


class Refusal(wire.Refusal):
    """An operation refused: audited, then answered with its reply.

    ``path`` is the audited path once the client's path is canonical;
    before that the raw path is audited.
    """

    def __init__(self, status: int, code: str, message: str, path: Optional[str] = None):
        super().__init__(status, code, message)
        self.path = path


# -- mapping tables ----------------------------------------------------------


def _validate_account(token: str) -> str:
    if not ACCOUNT_RE.match(token):
        raise ValueError("bad account token %r" % token)
    return token


def parse_role_map(text: str) -> tuple[tuple[str, str], ...]:
    """Parse ``<vo>/<role> <account>`` lines; order is significant."""
    entries: list[tuple[str, str]] = []

    def parse(fields: list[str]) -> None:
        if len(fields) != 2:
            raise ValueError("expected <vo>/<role> <account>")
        entries.append((validate_role_name(fields[0]), _validate_account(fields[1])))

    for_each_line(text, parse)
    return tuple(entries)


def parse_grid_map(text: str) -> dict[str, tuple[str, ...]]:
    """Parse ``"<DN>" <account>[,<account>...]`` lines."""
    entries: dict[str, tuple[str, ...]] = {}

    def parse(fields: list[str]) -> None:
        if len(fields) != 2:
            raise ValueError('expected "<DN>" <account>[,<account>...]')
        dn = validate_subject_dn(fields[0])
        accounts = [_validate_account(a) for a in split_quoted_list(fields[1])]
        if not accounts:
            raise ValueError("empty account list")
        merged = entries.get(dn, ()) + tuple(accounts)
        entries[dn] = tuple(dict.fromkeys(merged))

    for_each_line(text, parse)
    return entries


@dataclass(frozen=True)
class AccountInfo:
    home: str
    writable: bool


def parse_account_table(text: str) -> dict[str, AccountInfo]:
    """Parse ``<account> <home-path> <ro|rw>`` lines."""
    table: dict[str, AccountInfo] = {}

    def parse(fields: list[str]) -> None:
        if len(fields) != 3:
            raise ValueError("expected <account> <home-path> <ro|rw>")
        account = _validate_account(fields[0])
        if account in table:
            raise ValueError("duplicate account %r" % account)
        if fields[2] not in ("ro", "rw"):
            raise ValueError("mode must be 'ro' or 'rw', got %r" % fields[2])
        table[account] = AccountInfo(
            home=canonical_path(fields[1]), writable=fields[2] == "rw"
        )

    for_each_line(text, parse)
    return table


# -- account mapping -----------------------------------------------------------


@dataclass(frozen=True)
class AccountDecision:
    """Which local account a session runs as, and why."""

    account: str
    via: str  # "role:<vo>/<name>" or "personal"


def map_to_account(
    verified: VerifiedRights,
    role_map: tuple[tuple[str, str], ...],
    grid_map: Mapping[str, tuple[str, ...]],
) -> AccountDecision:
    """Map verified rights to a local account.

    The role map is walked in file order and the first role the rights
    confer wins. The winning account must appear in the issuer's
    grid-map entry: that is the cross-VO check, and failing it is a
    hard error rather than a fallthrough. Only when no role matches at
    all does the subject's personal grid-map entry apply
    (lexicographically first account).
    """
    roles = set(roles_in(verified.rights))
    for role, account in role_map:
        if role not in roles:
            continue
        if account not in grid_map.get(verified.issuer, ()):
            raise MappingError(
                "issuer-not-authorized-for-account",
                "issuer %r may not map role %s to account %r"
                % (verified.issuer, role, account),
            )
        return AccountDecision(account=account, via="role:%s" % role)
    personal = grid_map.get(verified.subject, ())
    if not personal:
        raise MappingError(
            "no-role-and-no-personal-mapping",
            "no role matched and %r has no personal account" % verified.subject,
        )
    return AccountDecision(account=sorted(personal)[0], via="personal")


# -- path handling -------------------------------------------------------------


def canonical_path(path) -> str:
    """Normalize a client-supplied virtual path to an absolute form."""
    if not isinstance(path, str) or not path.startswith("/"):
        raise PathError("path must be an absolute string")
    if _CONTROL_CHAR.search(path):
        raise PathError("path contains control characters")
    # POSIX normpath keeps exactly two leading slashes; one file, one name.
    return "/" + posixpath.normpath(path).lstrip("/")


def file_url(server_name: str, path: str) -> str:
    """The URL that file rights are checked against."""
    return "ftp://%s%s" % (server_name, path)


def _under(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix.rstrip("/") + "/")


# -- the two-layer authorization check ------------------------------------------


def authorize_file_op(
    rights: tuple[RightsTuple, ...],
    decision: AccountDecision,
    op: str,
    path: str,
    account_table: Mapping[str, AccountInfo],
    server_name: str,
    public_root: Optional[str] = None,
) -> Decision:
    """Authorize one LIST/GET/PUT against a canonical virtual path.

    Layer 1 applies the assertion's ``file`` tuples to the operation's
    URL, and passes vacuously when the assertion carries none
    (role-only sessions defer wholly to account permissions). Layer 2
    is the account's local permissions: reads under the home or the
    public root, writes under a writable home. Both must allow.
    """
    action = WRITE_ACTION if op == "PUT" else READ_ACTION
    file_tuples = [r for r in rights if r.service_type == FILE_SERVICE_TYPE]
    matched = None
    if file_tuples:
        layer1 = check_right(file_tuples, FILE_SERVICE_TYPE, action, file_url(server_name, path))
        if not layer1.allowed:
            return Decision(False, None, "cas-rights")
        matched = layer1.matched_tuple
    info = account_table[decision.account]
    if action == READ_ACTION:
        local_ok = _under(path, info.home) or (
            public_root is not None and _under(path, public_root)
        )
    else:
        local_ok = _under(path, info.home) and info.writable
    if not local_ok:
        return Decision(False, None, "local-perms")
    return Decision(True, matched, "ok")


# -- audit log -------------------------------------------------------------------


class AuditLog:
    """Append-only, serialized, flushed before each response."""

    def __init__(self, path: str):
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, *columns: str) -> None:
        """Append one tab-separated line of the given columns."""
        line = "\t".join(map(_audit_field, columns)) + "\n"
        try:
            with self._lock:
                self._handle.write(line)
                self._handle.flush()
        except (OSError, ValueError) as exc:
            raise AuditError("audit log unavailable: %s" % exc) from exc

    def close(self) -> None:
        with self._lock:
            self._handle.close()


# -- the service -------------------------------------------------------------------


class ResourceService:
    """Session state machine plus the immutable maps it consults.

    The service opens its own audit log at ``audit_path``; whoever made
    the service closes it with ``audit_log.close()``.
    """

    io_timeout = IO_TIMEOUT_SECONDS

    def __init__(
        self,
        server_name: str,
        export_root: str,
        role_map: tuple[tuple[str, str], ...],
        grid_map: Mapping[str, tuple[str, ...]],
        account_table: Mapping[str, AccountInfo],
        trusted_issuers: Mapping[str, bytes],
        trust_root: bytes,
        audit_path: str,
        public_root: Optional[str] = None,
        clock: Clock = utc_now,
    ):
        for role, account in role_map:
            if account not in account_table:
                raise ValueError("role %s maps to unknown account %r" % (role, account))
        for dn, accounts in grid_map.items():
            for account in accounts:
                if account not in account_table:
                    raise ValueError("grid map names unknown account %r" % account)
        self.server_name = server_name
        self.export_root = os.path.realpath(export_root)
        if not os.path.isdir(self.export_root):
            raise ValueError("export root %r is not a directory" % export_root)
        self.role_map = tuple(role_map)
        self.grid_map = dict(grid_map)
        self.account_table = dict(account_table)
        self.trusted_issuers = dict(trusted_issuers)
        self.trust_root = trust_root
        self.public_root = canonical_path(public_root) if public_root else None
        self.clock = clock
        # Opened last, so that a failed check above leaves nothing open.
        self.audit_log = AuditLog(audit_path)

    # -- filesystem ----------------------------------------------------------

    def fs_path(self, virtual: str) -> tuple[int, str]:
        """Open the directory that holds a canonical virtual path: ``(parent_fd, leaf)``.

        Walks from the export root, opening each directory component
        relative to the one before it with ``O_NOFOLLOW``; ``"/"`` is
        the root itself, leaf ``"."``. The caller opens ``leaf``
        relative to ``parent_fd`` and closes ``parent_fd``. Raises
        :class:`PathError` for a symlink on the way or a reserved
        name, and ``OSError`` for a missing or non-directory component.
        """
        if "/" + UPLOAD_PREFIX in virtual:
            raise PathError("names starting with %s are reserved" % UPLOAD_PREFIX)
        *dirs, leaf = virtual[1:].split("/")
        fd = os.open(self.export_root, _DIR_FLAGS)
        for name in dirs:
            try:
                child = _open_at(fd, name, _DIR_FLAGS)
            finally:
                os.close(fd)
            fd = child
        return fd, leaf or "."

    # -- session driving -------------------------------------------------------

    def handle_session(self, channel: wire.Channel) -> None:
        peer = authenticate_peer(channel, self.trust_root, self.clock())
        try:
            _Session(self, peer).run(channel)
        except AuditError as exc:
            message = "cannot record the operation, refusing to serve it"
            raise wire.Refusal(500, "audit-unavailable", message) from exc


class _Session:
    """One authenticated connection's state and command loop."""

    def __init__(self, service: ResourceService, peer: AuthenticatedPeer):
        self.service = service
        self.peer = peer
        self.rights: tuple[RightsTuple, ...] = ()
        self.issuer: Optional[str] = None  # set once an assertion parses
        self.decision: Optional[AccountDecision] = None

    def run(self, channel: wire.Channel) -> None:
        frame = channel.recv_frame()
        if frame["type"] == "present_assertion":
            if not self._serve(channel, "MAP", _NO_VALUE, self._present_assertion, frame):
                return
            frame = channel.recv_frame()
        while self._command(channel, frame):
            frame = channel.recv_frame()

    def _serve(self, channel: wire.Channel, op: str, path, handler, frame: dict) -> bool:
        """Run ``handler(channel, frame)``; returns whether the session goes on.

        This is the one place a :class:`Refusal` is audited and answered.
        A refused mapping and a failed write (500) end the session.
        """
        try:
            return handler(channel, frame)
        except Refusal as refusal:
            self._audit(op, refusal.path or str(path), refusal.code)
            channel.send_frame(refusal.reply())
            return op != "MAP" and refusal.status != 500

    def _audit(self, op: str, path: str, reason: str) -> None:
        decision = self.decision
        self.service.audit_log.write(
            format_timestamp(self.service.clock()),
            self.peer.subject,
            self.issuer or _NO_VALUE,
            decision.account if decision else _NO_VALUE,
            decision.via if decision else _NO_VALUE,
            op,
            path,
            "allow" if reason == "ok" else "deny",
            reason,
        )

    # -- account mapping -----------------------------------------------------------

    def _present_assertion(self, channel: wire.Channel, frame: dict) -> bool:
        service = self.service
        try:
            assertion = assertion_from_doc(frame.get("assertion"))
            self.issuer = assertion.body.issuer
            verified = verify_assertion(assertion, service.trusted_issuers, service.clock())
        except CredentialError as exc:
            status = 400 if isinstance(exc, MalformedCredential) else 401
            raise Refusal(status, exc.code, str(exc)) from exc
        if verified.subject != self.peer.subject:
            raise Refusal(
                401,
                "subject-mismatch",
                "assertion subject %r does not match the authenticated peer"
                % verified.subject,
            )
        self.decision = self._map(verified)
        self.rights = verified.rights
        channel.send_frame(
            wire.reply(200, account=self.decision.account, via=self.decision.via)
        )
        return True

    def _map_personal(self, channel: wire.Channel, frame: dict) -> bool:
        """Sessions without an assertion map on first use, personally."""
        subject = self.peer.subject
        self.decision = self._map(VerifiedRights(issuer=subject, subject=subject, rights=()))
        return True

    def _map(self, verified: VerifiedRights) -> AccountDecision:
        try:
            return map_to_account(verified, self.service.role_map, self.service.grid_map)
        except MappingError as exc:
            raise Refusal(403, exc.code, str(exc)) from exc

    # -- commands ----------------------------------------------------------------

    def _command(self, channel: wire.Channel, frame: dict) -> bool:
        kind = frame["type"]
        op = frame.get("op")
        if kind != "command" or op not in ("LIST", "GET", "PUT", "QUIT"):
            if kind == "present_assertion":
                message = "present_assertion must be the first frame"
            elif kind != "command":
                message = "unsupported frame type %r" % kind
            else:
                message = "unknown op %r" % op
            raise wire.ProtocolError(message)
        if op == "QUIT":
            channel.send_frame(wire.reply(200, message="bye"))
            return False
        if self.decision is None and not self._serve(
            channel, "MAP", _NO_VALUE, self._map_personal, frame
        ):
            return False
        handler = {"LIST": self._list, "GET": self._get, "PUT": self._put}[op]
        return self._serve(channel, op, frame.get("path"), handler, frame)

    def _authorize(self, op: str, raw_path) -> tuple[str, int, str]:
        """Canonicalize, authorize and resolve a client path: ``(path, parent_fd, leaf)``.

        The caller closes ``parent_fd``.
        """
        service = self.service
        path = None  # a path that fails canonicalization is audited raw
        try:
            path = canonical_path(raw_path)
            verdict = authorize_file_op(
                self.rights,
                self.decision,
                op,
                path,
                service.account_table,
                service.server_name,
                service.public_root,
            )
            if verdict.allowed:
                return (path, *service.fs_path(path))
        except PathError as exc:
            raise Refusal(400, "bad-path", str(exc), path) from exc
        except OSError:
            raise Refusal(*_MISSING[op], path) from None
        if verdict.reason == "cas-rights":
            message = "no file right covers %s" % file_url(service.server_name, path)
        else:
            message = "denied by %s" % verdict.reason
        raise Refusal(403, verdict.reason, message, path)

    def _open(self, op: str, raw_path, flags: int) -> tuple[str, int]:
        """Authorize a client path and open it with ``flags``: ``(path, fd)``."""
        path, parent, leaf = self._authorize(op, raw_path)
        try:
            return path, _open_at(parent, leaf, flags)
        except PathError as exc:
            raise Refusal(400, "bad-path", str(exc), path) from exc
        except NotADirectoryError:  # only LIST opens with O_DIRECTORY
            raise Refusal(404, "not-a-directory", "not a directory", path) from None
        except OSError:
            raise Refusal(*_MISSING[op], path) from None
        finally:
            os.close(parent)

    def _list(self, channel: wire.Channel, frame: dict) -> bool:
        path, fd = self._open("LIST", frame.get("path"), _DIR_FLAGS)
        try:
            names = os.listdir(fd)
        finally:
            os.close(fd)
        entries = sorted(name for name in names if not name.startswith(UPLOAD_PREFIX))
        self._audit("LIST", path, "ok")
        channel.send_frame(wire.reply(200, entries=entries))
        return True

    def _get(self, channel: wire.Channel, frame: dict) -> bool:
        path, fd = self._open("GET", frame.get("path"), _FILE_FLAGS)
        try:
            size = _regular_file_size(fd)
            if size is None:
                raise Refusal(404, "not-found", "no such file", path)
            self._audit("GET", path, "ok")
            # Exactly the declared size goes out, however the file changes
            # meanwhile; if it yields fewer bytes, the session ends.
            want = min(size, wire.CHUNK_BYTES)
            first = os.read(fd, want)
            if len(first) < want:
                return False
            # A reply of up to one chunk leaves in a single write.
            channel.send_frames(
                wire.reply(200), {"type": "data_header", "size": size}, payload=first
            )
            remaining = size - len(first)
            while remaining:
                chunk = os.read(fd, min(remaining, wire.CHUNK_BYTES))
                if not chunk:
                    return False
                channel.send_bytes(chunk)
                remaining -= len(chunk)
        finally:
            os.close(fd)
        return True

    def _put(self, channel: wire.Channel, frame: dict) -> bool:
        size = frame.get("size")
        if not wire.is_size(size):
            raise wire.ProtocolError("PUT needs a non-negative integer size")
        if size > MAX_PUT_BYTES:
            raise wire.ProtocolError("PUT payload exceeds %d bytes" % MAX_PUT_BYTES)
        parent = None
        try:
            path, parent, leaf = self._authorize("PUT", frame.get("path"))
            _refuse_existing(parent, leaf, path)
            temporary = UPLOAD_PREFIX + secrets.token_hex(8)
            try:
                fd = os.open(temporary, _UPLOAD_FLAGS, 0o644, dir_fd=parent)
            except OSError:
                raise Refusal(*_MISSING["PUT"], path) from None
        except Refusal:
            if parent is not None:
                os.close(parent)
            # The payload bytes follow the command frame unconditionally, so
            # a refusal must still drain them to keep the stream aligned.
            channel.recv_bytes_to(size, _NullSink())
            raise
        try:
            channel.recv_bytes_to(size, _FileWriter(fd))
            # The name appears only once the whole upload is in place, and
            # a link, unlike a rename, never replaces an existing name.
            os.link(temporary, leaf, src_dir_fd=parent, dst_dir_fd=parent)
        except FileExistsError:
            raise Refusal(409, "exists", "refusing to overwrite", path) from None
        except OSError as exc:
            # A failed local write loses stream alignment; close after
            # reporting rather than guess how much payload remains.
            raise Refusal(500, "internal", "write failed: %s" % exc, path) from exc
        finally:
            os.close(fd)
            _unlink_quietly(parent, temporary)
            os.close(parent)
        self._audit("PUT", path, "ok")
        channel.send_frame(wire.reply(200, size=size))
        return True


class _NullSink:
    def write(self, data: bytes) -> None:
        pass


class _FileWriter:
    """``write`` straight to a file descriptor, with no buffer in between."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]


def _open_at(dir_fd: int, name: str, flags: int) -> int:
    """``os.open(name, flags)`` relative to ``dir_fd``; flags include ``O_NOFOLLOW``.

    Only when the open fails the way a symlink makes it fail (``ELOOP``,
    or ``ENOTDIR`` under ``O_DIRECTORY``) is ``name`` looked at again,
    to refuse a symlink with :class:`PathError` rather than report it
    missing or not a directory.
    """
    try:
        return os.open(name, flags, dir_fd=dir_fd)
    except OSError as exc:
        if exc.errno in (errno.ELOOP, errno.ENOTDIR) and _is_symlink(dir_fd, name):
            raise PathError(_SYMLINK_MESSAGE) from None
        raise


def _is_symlink(dir_fd: int, name: str) -> bool:
    try:
        return stat.S_ISLNK(os.lstat(name, dir_fd=dir_fd).st_mode)
    except OSError:
        return False


def _refuse_existing(dir_fd: int, name: str, path: str) -> None:
    """Refuse a PUT to a name that exists, before any payload is read."""
    try:
        mode = os.stat(name, dir_fd=dir_fd, follow_symlinks=False).st_mode
    except OSError:
        return  # creating the upload reports what is wrong
    if stat.S_ISLNK(mode):
        raise Refusal(400, "bad-path", _SYMLINK_MESSAGE, path)
    raise Refusal(409, "exists", "refusing to overwrite", path)


def _regular_file_size(fd: int) -> Optional[int]:
    """The size of the file open at ``fd``, or None unless it is a regular file.

    The size comes from the open descriptor, so it describes the file
    that is read. ``fd`` was opened relative to its directory with
    ``O_NOFOLLOW``, so it is the file the path walk reached and not
    the target of a symlink.
    """
    try:
        info = os.fstat(fd)
    except OSError:
        return None
    return info.st_size if stat.S_ISREG(info.st_mode) else None


def _audit_field(value: str) -> str:
    # Column integrity: the path is the one client-chosen audit field
    # that may reach here unvalidated (bad-path refusals).
    return _CONTROL_CHAR.sub("?", value)


def _unlink_quietly(dir_fd: int, name: str) -> None:
    try:
        os.unlink(name, dir_fd=dir_fd)
    except OSError:
        pass


# -- server plumbing and configuration ------------------------------------------


FileServer = wire.Server


@dataclass(frozen=True)
class FileServiceConfig:
    listen: str
    server_name: str
    trust_root_file: str
    issuer_files: tuple[str, ...]
    role_map_file: str
    grid_map_file: str
    account_file: str
    export_root: str
    audit_file: str
    public_root: Optional[str]


def load_file_config(path: str) -> FileServiceConfig:
    with open(path, "r", encoding="utf-8") as handle:
        raw = parse_kv_config(handle.read())
    base = os.path.dirname(os.path.abspath(path))

    def resolve(value: str) -> str:
        return os.path.join(base, value)

    required = (
        "server_name",
        "trust_root_file",
        "issuer_files",
        "role_map_file",
        "grid_map_file",
        "account_file",
        "export_root",
        "audit_file",
    )
    for key in required:
        if not raw.get(key):
            raise ValueError("config is missing %r" % key)
    return FileServiceConfig(
        listen=raw.get("listen", ":%d" % DEFAULT_PORT),
        server_name=raw["server_name"],
        trust_root_file=resolve(raw["trust_root_file"]),
        issuer_files=tuple(resolve(p) for p in split_quoted_list(raw["issuer_files"])),
        role_map_file=resolve(raw["role_map_file"]),
        grid_map_file=resolve(raw["grid_map_file"]),
        account_file=resolve(raw["account_file"]),
        export_root=resolve(raw["export_root"]),
        audit_file=resolve(raw["audit_file"]),
        public_root=raw.get("public_root") or None,
    )


def service_from_config(config: FileServiceConfig, clock: Clock = utc_now) -> ResourceService:
    with open(config.trust_root_file, "r", encoding="utf-8") as handle:
        trust_root = public_key_from_pem(handle.read())
    trusted: dict[str, bytes] = {}
    for issuer_file in config.issuer_files:
        with open(issuer_file, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if isinstance(doc, dict):
            # Tolerate a full keypair file; only the public part matters here.
            doc.pop("private_key_pem", None)
        credential = identity_from_doc(doc)
        trusted[credential.subject] = credential.public_key
    with open(config.role_map_file, "r", encoding="utf-8") as handle:
        role_map = parse_role_map(handle.read())
    with open(config.grid_map_file, "r", encoding="utf-8") as handle:
        grid_map = parse_grid_map(handle.read())
    with open(config.account_file, "r", encoding="utf-8") as handle:
        account_table = parse_account_table(handle.read())
    return ResourceService(
        server_name=config.server_name,
        export_root=config.export_root,
        role_map=role_map,
        grid_map=grid_map,
        account_table=account_table,
        trusted_issuers=trusted,
        trust_root=trust_root,
        audit_path=config.audit_file,
        public_root=config.public_root,
        clock=clock,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vo-file-server", description="VO role-aware file service"
    )
    parser.add_argument("--config", required=True, help="key=value config file")
    args = parser.parse_args(argv)

    try:
        config = load_file_config(args.config)
        service = service_from_config(config)
        server = FileServer(wire.parse_address(config.listen), service)
    except (ValueError, OSError, CredentialError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    server.run("file service %s" % service.server_name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
