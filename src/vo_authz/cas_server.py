"""Issuance service: turns stored grants into signed assertions.

Each connection carries exactly one request. The server authenticates
the peer with the challenge-response handshake, then answers either an
``issue_request`` (mint an assertion for the peer's granted rights,
optionally narrowed by a requested filter) or an ``admin_load`` (apply
a policy command file, admins only). The handlers raise
:class:`wire.Refusal`; :meth:`CasService.handle_request` is the one
place that turns a refusal into its reply. The policy store is an
immutable value, so concurrent issuance always sees either the
pre-load or the post-load store, never a mix; a lock serializes the
writers.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from dataclasses import dataclass, fields
from datetime import timedelta
from typing import Optional

from . import wire
from .ca import load_identity_keypair, write_atomically
from .credentials import (
    DEFAULT_LIFETIME_SECONDS,
    AssertionBody,
    Clock,
    CredentialError,
    IdentityCredential,
    assertion_to_doc,
    authenticate_peer,
    fresh_serial,
    public_key_from_pem,
    send_challenge,
    sign_assertion,
    utc_now,
)
from .engine import FilterDenied, filter_rights
from .lineformat import LineError, parse_kv_config, split_quoted_list
from .policy import (
    PolicyStore,
    RightsTuple,
    apply_command_file,
    load_snapshot,
    save_snapshot,
)

IO_TIMEOUT_SECONDS = 10.0


@dataclass(frozen=True)
class CasConfig:
    listen: str
    key_file: str
    trust_root_file: str
    snapshot_file: Optional[str]
    admin_dns: tuple[str, ...]
    max_lifetime_seconds: int
    key_passphrase_env: Optional[str] = None


def load_cas_config(path: str) -> CasConfig:
    """Load a key=value config file; relative paths resolve against it."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = parse_kv_config(handle.read(), [f.name for f in fields(CasConfig)])
    base = os.path.dirname(os.path.abspath(path))

    def resolve(name: str) -> Optional[str]:
        value = raw.get(name)
        return os.path.join(base, value) if value else None

    for required in ("listen", "key_file", "trust_root_file"):
        if not raw.get(required):
            raise ValueError("config is missing %r" % required)
    return CasConfig(
        listen=raw["listen"],
        key_file=resolve("key_file"),
        trust_root_file=resolve("trust_root_file"),
        snapshot_file=resolve("snapshot_file"),
        admin_dns=tuple(split_quoted_list(raw.get("admin_dns", ""))),
        max_lifetime_seconds=int(raw.get("max_lifetime_seconds", DEFAULT_LIFETIME_SECONDS)),
        key_passphrase_env=raw.get("key_passphrase_env") or None,
    )


class CasService:
    """Request handlers plus the mutable store slot they share."""

    io_timeout = IO_TIMEOUT_SECONDS

    def __init__(
        self,
        issuer: IdentityCredential,
        issuer_private_key,
        trust_root: bytes,
        store: PolicyStore = PolicyStore(),
        admin_dns: tuple[str, ...] = (),
        max_lifetime_seconds: int = DEFAULT_LIFETIME_SECONDS,
        snapshot_path: Optional[str] = None,
        clock: Clock = utc_now,
    ):
        if max_lifetime_seconds <= 0:
            raise ValueError("max_lifetime_seconds must be positive")
        self.issuer = issuer
        self._issuer_private_key = issuer_private_key
        self.trust_root = trust_root
        self.admin_dns = tuple(admin_dns)
        self.max_lifetime_seconds = max_lifetime_seconds
        self.snapshot_path = snapshot_path
        self.clock = clock
        self._store = store
        self._write_lock = threading.Lock()

    @property
    def store(self) -> PolicyStore:
        return self._store

    def handle_session(self, channel: wire.ServerChannel):
        """Authenticate the peer, then answer its one request: a :class:`wire.Server` session.

        A policy load runs off the server's loop: its snapshot write and
        fsync would stall every other session.
        """
        nonce = send_challenge(channel)
        yield from channel.wait_frame()
        subject = authenticate_peer(channel, self.trust_root, self.clock(), nonce).identity.subject
        frame = yield from channel.next_frame()
        if frame["type"] == "admin_load":
            reply = yield lambda: self.handle_request(subject, frame)
        else:
            reply = self.handle_request(subject, frame)
        channel.send_frame(reply)

    def handle_request(self, subject: str, frame: dict) -> dict:
        """Answer one request: its success reply, or its refusal's reply."""
        try:
            if frame["type"] == "issue_request":
                return self.handle_issue(subject, frame)
            if frame["type"] == "admin_load":
                return self.handle_admin_load(subject, frame)
            raise wire.Refusal(400, "unknown-request", "unsupported request type %r" % frame["type"])
        except wire.Refusal as refusal:
            return refusal.reply()

    # -- issuance -----------------------------------------------------------

    def handle_issue(self, subject: str, frame: dict) -> dict:
        requested = _parse_requested_rights(frame.get("rights"))
        lifetime = _parse_lifetime(frame.get("lifetime_seconds"))
        store = self._store
        if subject not in store.subjects:
            raise wire.Refusal(
                403, "no-vo-membership", "subject %r is not a member of this VO" % subject
            )
        granted = store.rights_of(subject)
        if not granted:
            raise wire.Refusal(403, "no-rights", "subject %r holds no rights" % subject)
        try:
            rights = filter_rights(granted, requested)
        except FilterDenied as exc:
            uncovered = [t.as_dict() for t in exc.uncovered]
            raise wire.Refusal(403, "rights-not-granted", str(exc), uncovered=uncovered) from exc

        now = self.clock()
        seconds = min(lifetime or self.max_lifetime_seconds, self.max_lifetime_seconds)
        body = AssertionBody(
            issuer=self.issuer.subject,
            subject=subject,
            serial=fresh_serial(),
            issued_at=now,
            not_after=now + timedelta(seconds=seconds),
            rights=rights,
        )
        assertion = sign_assertion(body, self._issuer_private_key)
        return wire.reply(200, assertion=assertion_to_doc(assertion))

    # -- administration -----------------------------------------------------

    def handle_admin_load(self, subject: str, frame: dict) -> dict:
        if subject not in self.admin_dns:
            raise wire.Refusal(403, "not-admin", "subject %r may not load policy" % subject)
        commands = frame.get("commands")
        if not isinstance(commands, str):
            raise wire.Refusal(400, "bad-request", "admin_load needs a string 'commands' field")
        with self._write_lock:
            try:
                new_store, applied = apply_command_file(self._store, commands)
            except LineError as exc:
                raise wire.Refusal(400, "command-file-error", str(exc), line=exc.line) from exc
            if self.snapshot_path is not None:
                # Persist first: a store the snapshot does not hold would
                # be lost on restart, so a failed write keeps the old one.
                try:
                    write_atomically(self.snapshot_path, save_snapshot(new_store))
                except OSError as exc:
                    raise wire.Refusal(
                        500, "snapshot-failed", "cannot write the policy snapshot: %s" % exc
                    ) from exc
            self._store = new_store
        return wire.reply(200, applied=applied)


def _parse_requested_rights(value) -> list[RightsTuple]:
    if value is None:
        return []
    if not isinstance(value, list):
        raise wire.Refusal(400, "bad-request", "'rights' must be a list of rights tuples")
    try:
        return [RightsTuple.from_dict(item) for item in value]
    except ValueError as exc:
        raise wire.Refusal(400, "bad-request", "bad requested right: %s" % exc) from exc


def _parse_lifetime(value) -> Optional[int]:
    if value is not None and not (wire.is_size(value) and value > 0):
        raise wire.Refusal(400, "bad-request", "'lifetime_seconds' must be a positive integer")
    return value


# -- network plumbing --------------------------------------------------------


CasServer = wire.Server


def service_from_config(config: CasConfig, clock: Clock = utc_now) -> CasService:
    passphrase = None
    if config.key_passphrase_env:
        value = os.environ.get(config.key_passphrase_env)
        passphrase = value.encode("utf-8") if value else None
    issuer, private_key = load_identity_keypair(config.key_file, passphrase)
    with open(config.trust_root_file, "r", encoding="utf-8") as handle:
        trust_root = public_key_from_pem(handle.read())
    store = PolicyStore()
    if config.snapshot_file and os.path.exists(config.snapshot_file):
        with open(config.snapshot_file, "rb") as handle:
            store = load_snapshot(handle.read())
    return CasService(
        issuer=issuer,
        issuer_private_key=private_key,
        trust_root=trust_root,
        store=store,
        admin_dns=config.admin_dns,
        max_lifetime_seconds=config.max_lifetime_seconds,
        snapshot_path=config.snapshot_file,
        clock=clock,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vo-cas-server", description="VO rights issuance service"
    )
    parser.add_argument("--config", required=True, help="key=value config file")
    args = parser.parse_args(argv)

    try:
        config = load_cas_config(args.config)
        address = wire.parse_address(config.listen)
        service = service_from_config(config)
        server = CasServer(address, service)
    except (ValueError, OSError, CredentialError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    server.run("issuance service for %s" % service.issuer.subject)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
