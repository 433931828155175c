from __future__ import annotations

import io
import threading
import time
import traceback
from datetime import datetime, timedelta, timezone

import pytest

from vo_authz import credentials, wire
from vo_authz.ca import make_identity
from vo_authz.credentials import (
    AssertionBody,
    fresh_serial,
    sign_assertion,
)
from vo_authz.file_server import (
    AccountInfo,
    FileServer,
    ResourceService,
)
from vo_authz.policy import PolicyStore, apply_command_file

TULL = "/O=doesciencegrid.org/OU=People/CN=Craig E. Tull 49565"
ORWELL = "/O=doesciencegrid.org/OU=People/CN=George Orwell 1984"
WELLS = "/O=doesciencegrid.org/OU=People/CN=Herbert G. Wells 1946"
ADMIN = "/O=doesciencegrid.org/OU=People/CN=VO Admin 7"
CAS_DN = "/O=doesciencegrid.org/CN=atlas-cas"
OTHER_CAS_DN = "/O=doesciencegrid.org/CN=cms-cas"

# Two-role demo policy: one group service type, two role objects, two
# members; exactly eight commands.
DEMO_POLICY = """\
# demo VO policy
servicetype group member
object group atlas/admin
object group atlas/data
user "%(tull)s"
user "%(orwell)s"
grant "%(tull)s" member atlas/admin
grant "%(tull)s" member atlas/data
grant "%(orwell)s" member atlas/data
""" % {"tull": TULL, "orwell": ORWELL}

NOW = datetime(2003, 3, 19, 8, 30, 53, tzinfo=timezone.utc)

# wire.Server names its helper thread with this prefix; a server's loop
# runs on the thread that calls serve_forever, which the tests start as
# threading.Thread(target=server.serve_forever), named "... (serve_forever)".
SERVER_THREAD_PREFIX = "vo-"
SERVER_THREAD_EXIT_SECONDS = 2.0


def server_threads() -> set[threading.Thread]:
    """Every live thread that runs a server's loop or its helper."""
    return {
        t for t in threading.enumerate()
        if t.name.startswith(SERVER_THREAD_PREFIX) or t.name.endswith("(serve_forever)")
    }


# Every traceback a server printed through wire.Server.handle_error, the
# hook that the loop calls for an exception no session step handled.
SERVER_TRACEBACKS = pytest.StashKey[list]()


def pytest_configure(config):
    tracebacks = config.stash[SERVER_TRACEBACKS] = []
    print_error = wire.Server.handle_error

    def record(server, request, client_address):
        tracebacks.append(traceback.format_exc())
        print_error(server, request, client_address)

    wire.Server.handle_error = record


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a server printed a traceback, or if a server thread outlives the tests.

    A server that meets an exception no session step handles prints its
    traceback and carries on, so no test fails on its own. Every test
    closes the servers it starts: ``server_close`` stops the loop, so
    ``serve_forever`` returns, and joins the helper thread. So a loop
    or helper thread still alive after a short grace period belongs to
    a server that was never closed, or did not stop.
    """
    deadline = time.monotonic() + SERVER_THREAD_EXIT_SECONDS
    while True:
        alive = sorted(t.name for t in server_threads())
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    messages = []
    tracebacks = session.config.stash[SERVER_TRACEBACKS]
    if tracebacks:
        messages.append("a server printed %d traceback(s):" % len(tracebacks))
        messages.extend(tracebacks)
    if alive:
        messages.append("server threads still alive after the run: %s" % ", ".join(alive))
    if messages:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.line("")  # the progress line may still be open
            for message in messages:
                reporter.write_line(message, red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def get_bytes(session, path: str) -> bytes:
    """Download one file over a ``ResourceSession`` into memory."""
    sink = io.BytesIO()
    session.get(path, sink)
    return sink.getvalue()


@pytest.fixture
def now():
    return NOW


@pytest.fixture
def clock(now):
    return lambda: now


@pytest.fixture(scope="session")
def trust_root():
    """(root private key, raw trust-root public key)."""
    return credentials.generate_keypair()


class IdentityFactory:
    def __init__(self, root_private, now):
        self._root_private = root_private
        self._now = now

    def identity(self, subject, not_before=None, not_after=None):
        private, public = credentials.generate_keypair()
        cred = make_identity(
            self._root_private,
            subject,
            public,
            not_before or self._now - timedelta(days=1),
            not_after or self._now + timedelta(days=365),
        )
        return cred, private

    def bundle(self, subject, session_lifetime=timedelta(hours=12), **kw):
        cred, private = self.identity(subject, **kw)
        session_private, session_public = credentials.generate_keypair()
        session = credentials.delegate_session(
            cred, private, session_public, self._now + session_lifetime
        )
        return credentials.SessionBundle(session, session_private)


@pytest.fixture
def identities(trust_root, now):
    return IdentityFactory(trust_root[0], now)


@pytest.fixture
def demo_store() -> PolicyStore:
    store, applied = apply_command_file(PolicyStore(), DEMO_POLICY)
    assert applied == 8
    return store


def make_assertion(
    issuer_cred,
    issuer_key,
    subject,
    rights,
    now,
    lifetime_seconds=3600,
):
    body = AssertionBody(
        issuer=issuer_cred.subject,
        subject=subject,
        serial=fresh_serial(),
        issued_at=now,
        not_after=now + timedelta(seconds=lifetime_seconds),
        rights=tuple(rights),
    )
    return sign_assertion(body, issuer_key)


SERVER_NAME = "pdsfgrid3.nersc.gov"

RUN1_BYTES = b"event 4027 / event 4028 / event 4029\n" * 8
CALIB_BYTES = b"calibration table v3\n" * 4
README_BYTES = b"world-readable notes\n"


class ResourceEnv:
    """A running file service over a freshly seeded export tree."""

    def __init__(
        self,
        tmp_path,
        trust_root_public: bytes,
        trusted_issuers: dict[str, bytes],
        clock,
        role_map=None,
        grid_map=None,
        account_table=None,
        public_root="/public",
        server_name=SERVER_NAME,
    ):
        export = tmp_path / "export"
        for sub in ("home/admin", "home/data", "home/tull", "public"):
            (export / sub).mkdir(parents=True)
        (export / "home/data/run1.dat").write_bytes(RUN1_BYTES)
        (export / "home/admin/calib.db").write_bytes(CALIB_BYTES)
        (export / "public/readme.txt").write_bytes(README_BYTES)
        self.export_root = str(export)
        self.audit_path = str(tmp_path / "audit.log")
        self.service = ResourceService(
            server_name=server_name,
            export_root=self.export_root,
            role_map=role_map
            if role_map is not None
            else (("atlas/admin", "admin"), ("atlas/data", "data")),
            grid_map=grid_map
            if grid_map is not None
            else {CAS_DN: ("admin", "data"), TULL: ("tull",)},
            account_table=account_table
            if account_table is not None
            else {
                "admin": AccountInfo("/home/admin", True),
                "data": AccountInfo("/home/data", True),
                "tull": AccountInfo("/home/tull", True),
            },
            trusted_issuers=trusted_issuers,
            trust_root=trust_root_public,
            audit_path=self.audit_path,
            public_root=public_root,
            clock=clock,
        )
        self.server = FileServer(("127.0.0.1", 0), self.service)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def audit_lines(self) -> list[list[str]]:
        with open(self.audit_path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n").split("\t") for line in handle if line.strip()]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)
        self.service.audit_log.close()


@pytest.fixture
def cas_identity(identities):
    """The issuance service's identity credential and private key."""
    return identities.identity(CAS_DN)


@pytest.fixture
def resource_env(tmp_path, trust_root, cas_identity, clock):
    env = ResourceEnv(
        tmp_path,
        trust_root[1],
        {cas_identity[0].subject: cas_identity[0].public_key},
        clock,
    )
    yield env
    env.close()
