"""Seeded inputs for the benchmark: the VO, its policy, and the op streams.

Everything the servers see is generated here from the workload seed:
the same seed gives the same VO, the same request order and the same
file payloads. Key material is the exception. Ed25519 keys come from
the OS, and only the structure built around them is seeded.

The module also holds the generator's own policy model, which the
output checks compare every issued assertion against.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from vo_authz import ca, credentials

ROLE_COUNT = 20
ROLES_PER_MEMBER = 3
SESSIONS_PER_MEMBER = 10  # issuance draws from members x 10 session credentials
FILE_POOL = 16  # members whose repeated sessions drive file_session
CHURN_PAIRS = 50  # per admin batch: 50 rescinds + 50 grants

ROLES = tuple("vo/r%02d" % i for i in range(ROLE_COUNT))
MAPPED_ROLE = ROLES[0]  # the one role the file service maps (to account "data")
SERVER_NAME = "fs"
CAS_DN = "/O=vo/CN=cas"
ADMIN_DN = "/O=vo/CN=admin"

# Every member also holds these wildcard file rights, so layer 1 of the
# file service's check runs on every command.
FILE_RIGHTS = frozenset(
    {
        ("file", "read", "ftp://fs/home/*", "wildcard"),
        ("file", "read", "ftp://fs/public/*", "wildcard"),
        ("file", "write", "ftp://fs/home/data/*", "wildcard"),
    }
)

LIST_DIR = "/home/data/list"
LIST_ENTRIES = tuple("e%02d.dat" % i for i in range(24))
SMALL_FILES = tuple("/home/data/small/f%02d.bin" % i for i in range(16))
SMALL_BYTES = 1024
LARGE_FILE = "/home/data/large/big.bin"
LARGE_BYTES = 1024 * 1024
PUT_DIR = "/home/data/put"  # never LISTed, so piling PUTs cause no drift
PUT_BYTES = 4096
DENIED_FILE = "/home/admin/secret.bin"  # layer 1 allows it, local-perms denies it


def member_dn(index: int) -> str:
    return "/O=vo/CN=m%05d" % index


def role_right(role: str) -> tuple[str, str, str, str]:
    return ("group", "member", role, "exact")


def rights_for(roles) -> frozenset:
    """The rights tuples a member holding ``roles`` is granted."""
    return frozenset(role_right(r) for r in roles) | FILE_RIGHTS


class Vo:
    """The VO: members and the roles each one holds at policy version 0."""

    def __init__(self, seed: int, members: int):
        if members < 4:
            raise ValueError("the VO needs at least 4 members")
        rng = random.Random("vo:%d" % seed)
        self.members = [member_dn(i) for i in range(members)]
        self.file_pool = list(range(min(FILE_POOL, members)))
        self.roles: list[frozenset[str]] = []
        for index in range(members):
            if index < len(self.file_pool):
                roles = {MAPPED_ROLE, *rng.sample(ROLES[1:], ROLES_PER_MEMBER - 1)}
            else:
                roles = set(rng.sample(ROLES, ROLES_PER_MEMBER))
            self.roles.append(frozenset(roles))

    def initial_commands(self) -> str:
        lines = ["servicetype group member", "servicetype file read,write"]
        lines += ["object group %s" % role for role in ROLES]
        lines += ['user "%s"' % dn for dn in self.members]
        for dn, roles in zip(self.members, self.roles):
            for _, action, target, mode in sorted(rights_for(roles)):
                lines.append('grant "%s" %s %s %s' % (dn, action, target, mode))
        return "\n".join(lines) + "\n"

    def initial_command_count(self) -> int:
        return 2 + len(ROLES) + len(self.members) * (1 + ROLES_PER_MEMBER + len(FILE_RIGHTS))


class PolicyModel:
    """Each member's roles by policy version, as the generator predicts them.

    Version 0 is the initial load; version k is the store after the k-th
    admin batch has been applied.
    """

    def __init__(self, vo: Vo):
        self._history = [[(0, roles)] for roles in vo.roles]
        self.version = 0

    def current(self, member: int) -> frozenset[str]:
        return self._history[member][-1][1]

    def commit(self, changes) -> None:
        self.version += 1
        for member, roles in changes:
            self._history[member].append((self.version, roles))

    def rights_between(self, member: int, low: int, high: int) -> set[frozenset]:
        """Every rights set the member held at some version in [low, high]."""
        history = self._history[member]
        first = bisect.bisect_right([v for v, _ in history], low) - 1
        return {rights_for(roles) for v, roles in history[first:] if v <= high}

    def grant_count(self) -> int:
        return sum(len(h[-1][1]) + len(FILE_RIGHTS) for h in self._history)


# -- credentials ----------------------------------------------------------------


class Credentials:
    """Trust root, service identities, and member session credentials.

    Identities are minted with the ``ca`` module, which is off the hot
    path; this runs before any timing starts.
    """

    def __init__(self, directory: str):
        self.ca_dir = directory + "/ca"
        ca.init_root(self.ca_dir)
        self.trust_root_file = self.ca_dir + "/" + ca.TRUST_ROOT_FILE
        self._root = ca.load_root_key(self.ca_dir)
        now = datetime.now(timezone.utc)
        self._not_before = now - timedelta(days=1)
        self._not_after = now + timedelta(days=1)
        self._session_end = now + timedelta(hours=12)
        doc = ca.issue_identity_keypair(self._root, CAS_DN, self._not_before, self._not_after)
        self.cas_key_file = directory + "/cas.json"
        self.cas_public_file = directory + "/cas-public.json"
        ca.write_owner_only(self.cas_key_file, _json_bytes(doc))
        del doc["private_key_pem"]
        ca.write_owner_only(self.cas_public_file, _json_bytes(doc))
        self.cas_public_key = credentials.identity_from_doc(doc).public_key
        self.admin = self.bundles([ADMIN_DN], 1)[0]

    def bundles(self, subjects, per_subject: int) -> list[credentials.SessionBundle]:
        """``per_subject`` session credentials each; slot k is subject k mod n."""
        identities = []
        for subject in subjects:
            private, public = credentials.generate_keypair()
            identity = ca.make_identity(
                self._root, subject, public, self._not_before, self._not_after
            )
            identities.append((identity, private))
        out = []
        for slot in range(len(identities) * per_subject):
            identity, private = identities[slot % len(identities)]
            session_private, session_public = credentials.generate_keypair()
            session = credentials.delegate_session(
                identity, private, session_public, self._session_end
            )
            out.append(credentials.SessionBundle(session, session_private))
        return out


def _json_bytes(doc: dict) -> bytes:
    return json.dumps(doc, indent=1).encode("utf-8")


# -- issuance requests ------------------------------------------------------------

ALL, NARROW, UNHELD = "all", "narrow", "unheld"


@dataclass(frozen=True)
class IssueRequest:
    index: int
    slot: int  # session credential slot; the member is slot mod members
    member: int
    kind: str  # ALL: empty request; NARROW: one held role; UNHELD: one role not held
    role: str | None


class IssueStream:
    """Issuance requests in one seeded order, shared by the client threads.

    Slots are visited in a shuffled cycle over the session pool, so a
    credential repeats only once the whole pool has been used.
    """

    def __init__(self, seed: int, vo: Vo, slots: int, mixed: bool):
        self._rng = random.Random("issue:%d" % seed)
        self._order = list(range(slots))
        self._rng.shuffle(self._order)
        self._vo = vo
        self._mixed = mixed
        self._next = 0
        self._lock = threading.Lock()

    def next(self) -> IssueRequest:
        with self._lock:
            index = self._next
            self._next += 1
            slot = self._order[index % len(self._order)]
            member = slot % len(self._vo.members)
            kind, role = ALL, None
            if self._mixed:
                draw = self._rng.random()
                held = self._vo.roles[member]
                if 0.5 <= draw < 5 / 6:
                    kind, role = NARROW, self._rng.choice(sorted(held))
                elif draw >= 5 / 6:
                    kind, role = UNHELD, self._rng.choice(sorted(set(ROLES) - held))
            return IssueRequest(index, slot, member, kind, role)


# -- admin churn --------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnBatch:
    text: str
    commands: int
    changes: tuple  # (member, roles after the batch)


class ChurnStream:
    """Admin batches that rescind and grant roles in equal numbers.

    Each batch moves one role of each of ``CHURN_PAIRS`` members, so the
    store size holds steady. Batches are drawn from the model's current
    state, which the admin thread commits after each acknowledged batch.
    """

    def __init__(self, seed: int, vo: Vo, model: PolicyModel):
        self._rng = random.Random("churn:%d" % seed)
        self._vo = vo
        self._model = model

    def next(self) -> ChurnBatch:
        count = min(CHURN_PAIRS, len(self._vo.members))
        lines, changes = [], []
        for member in self._rng.sample(range(len(self._vo.members)), count):
            held = self._model.current(member)
            drop = self._rng.choice(sorted(held))
            add = self._rng.choice(sorted(set(ROLES) - held))
            dn = self._vo.members[member]
            lines.append('rescind "%s" member %s' % (dn, drop))
            lines.append('grant "%s" member %s' % (dn, add))
            changes.append((member, (held - {drop}) | {add}))
        return ChurnBatch("\n".join(lines) + "\n", len(lines), tuple(changes))


# -- file sessions -------------------------------------------------------------------

LIST, GET, LARGE_GET, PUT, DENY = "LIST", "GET", "LARGE_GET", "PUT", "DENY"


@dataclass(frozen=True)
class FileCommand:
    kind: str
    path: str
    payload: int = -1  # index into FileTree.put_payloads, for PUT


@dataclass(frozen=True)
class FileSession:
    member: int
    commands: tuple[FileCommand, ...]


class FileTree:
    """The seeded export tree and PUT payloads."""

    def __init__(self, seed: int):
        rng = random.Random("files:%d" % seed)
        self.contents = {LIST_DIR + "/" + name: rng.randbytes(64) for name in LIST_ENTRIES}
        for path in SMALL_FILES:
            self.contents[path] = rng.randbytes(SMALL_BYTES)
        self.contents[LARGE_FILE] = rng.randbytes(LARGE_BYTES)
        self.contents[DENIED_FILE] = rng.randbytes(SMALL_BYTES)
        self.contents["/public/readme.txt"] = b"benchmark export\n"
        self.put_payloads = [rng.randbytes(PUT_BYTES) for _ in range(16)]

    def materialize(self, export_root: str) -> None:
        os.makedirs(export_root + PUT_DIR)
        for path, data in self.contents.items():
            os.makedirs(os.path.dirname(export_root + path), exist_ok=True)
            with open(export_root + path, "wb") as handle:
                handle.write(data)


class FileStream:
    """File sessions in one seeded order, shared by the client threads.

    Every session runs two LISTs, two 1 KiB GETs and two 4 KiB PUTs,
    plus a 1 MiB GET one time in three and a local-perms denial one time
    in four, in a shuffled order.
    """

    def __init__(self, seed: int, vo: Vo, tree: FileTree):
        self._rng = random.Random("sessions:%d" % seed)
        self._vo = vo
        self._payloads = len(tree.put_payloads)
        self._next = 0
        self._lock = threading.Lock()

    def next(self) -> FileSession:
        with self._lock:
            index = self._next
            self._next += 1
            rng = self._rng
            member = rng.choice(self._vo.file_pool)
            kinds = [LIST, LIST, GET, GET, PUT, PUT]
            if rng.random() < 1 / 3:
                kinds.append(LARGE_GET)
            if rng.random() < 1 / 4:
                kinds.append(DENY)
            rng.shuffle(kinds)
            commands = []
            for position, kind in enumerate(kinds):
                if kind == LIST:
                    commands.append(FileCommand(LIST, LIST_DIR))
                elif kind == GET:
                    commands.append(FileCommand(GET, rng.choice(SMALL_FILES)))
                elif kind == LARGE_GET:
                    commands.append(FileCommand(LARGE_GET, LARGE_FILE))
                elif kind == DENY:
                    commands.append(FileCommand(DENY, DENIED_FILE))
                else:
                    path = "%s/s%06d-%d.bin" % (PUT_DIR, index, position)
                    commands.append(FileCommand(PUT, path, rng.randrange(self._payloads)))
            return FileSession(member, tuple(commands))


def probe_session(vo: Vo) -> FileSession:
    """The warm-up session: one of each command, run before timing starts."""
    commands = (
        FileCommand(LIST, LIST_DIR),
        FileCommand(GET, SMALL_FILES[0]),
        FileCommand(LARGE_GET, LARGE_FILE),
        FileCommand(PUT, PUT_DIR + "/warmup.bin", 0),
        FileCommand(DENY, DENIED_FILE),
    )
    return FileSession(vo.file_pool[0], commands)
