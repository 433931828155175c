"""End-to-end acceptance checks, one per shipping criterion.

Each test exercises a whole scenario and finishes by printing a PASS
line, so a verbose run reads as a checklist. The scenarios lean on the
same fixtures as the unit suites but drive the system only through its
public services and clients.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import threading
import time
from datetime import timedelta

import pytest

from vo_authz.cas_server import CasServer, CasService
from vo_authz.client import ResourceSession, ServiceError, admin_load, issue_assertion
from vo_authz.credentials import (
    CredentialError,
    Expired,
    NotYetValid,
    assertion_from_doc,
    assertion_to_doc,
    verify_assertion,
)
from vo_authz.engine import check_right, match_target
from vo_authz.file_server import (
    AccountInfo,
    Refusal,
    authorize_file_op,
    map_to_account,
)
from vo_authz.lineformat import LineError
from vo_authz.policy import (
    PolicyStore,
    RightsTuple,
    apply_command_file,
    save_snapshot,
)

from . import oracles
from .conftest import (
    ADMIN,
    CAS_DN,
    CALIB_BYTES,
    DEMO_POLICY,
    ORWELL,
    OTHER_CAS_DN,
    RUN1_BYTES,
    SERVER_NAME,
    TULL,
    WELLS,
    ResourceEnv,
    get_bytes,
    make_assertion,
)

DATA_ROLE = RightsTuple("group", "member", "atlas/data")
ADMIN_ROLE = RightsTuple("group", "member", "atlas/admin")


def ok(criterion: int, detail: str) -> None:
    print("PASS criterion %d: %s" % (criterion, detail))


@pytest.fixture
def cas_server(cas_identity, trust_root, clock):
    cred, private = cas_identity
    service = CasService(
        issuer=cred,
        issuer_private_key=private,
        trust_root=trust_root[1],
        admin_dns=(ADMIN,),
        clock=clock,
    )
    server = CasServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_criterion_1_role_lifecycle(cas_server, resource_env, identities):
    started = time.monotonic()
    admin_bundle = identities.bundle(ADMIN)
    bundle_a = identities.bundle(ORWELL)
    bundle_b = identities.bundle(WELLS)
    data_filter = [DATA_ROLE]

    applied = admin_load(
        cas_server.address,
        admin_bundle,
        DEMO_POLICY + 'user "%s"\n' % WELLS,
    )
    assert applied == 9

    # A holds the role: issuance succeeds and the GET comes back whole.
    assertion_a = issue_assertion(cas_server.address, bundle_a, data_filter)
    with ResourceSession(resource_env.address, bundle_a, assertion_a) as session:
        assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
        session.quit()

    applied = admin_load(
        cas_server.address,
        admin_bundle,
        'rescind "%s" member atlas/data\ngrant "%s" member atlas/data\n' % (ORWELL, WELLS),
    )
    assert applied == 2

    # A's filtered re-issuance is refused at the issuing service. With
    # no other grants left the refusal is the blanket no-rights one.
    with pytest.raises(ServiceError) as refused:
        issue_assertion(cas_server.address, bundle_a, data_filter)
    assert refused.value.status == 403
    assert refused.value.code in ("rights-not-granted", "no-rights")

    # A without any role is denied by the resource server.
    with ResourceSession(resource_env.address, bundle_a) as session:
        with pytest.raises(ServiceError) as denied:
            get_bytes(session, "/home/data/run1.dat")
        assert denied.value.status == 403

    # B now holds the role and succeeds.
    assertion_b = issue_assertion(cas_server.address, bundle_b, data_filter)
    with ResourceSession(resource_env.address, bundle_b, assertion_b) as session:
        assert get_bytes(session, "/home/data/run1.dat") == RUN1_BYTES
        session.quit()

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    ok(1, "grant/use/rescind/regrant lifecycle in %.2fs" % elapsed)


def test_criterion_2_group_members_are_equal(cas_server, resource_env, identities):
    admin_bundle = identities.bundle(ADMIN)
    admin_load(
        cas_server.address,
        admin_bundle,
        DEMO_POLICY + 'user "%s"\ngrant "%s" member atlas/data\n' % (WELLS, WELLS),
    )

    transcripts = []
    for subject in (TULL, ORWELL, WELLS):
        bundle = identities.bundle(subject)
        assertion = issue_assertion(cas_server.address, bundle, [DATA_ROLE])
        with ResourceSession(resource_env.address, bundle, assertion) as session:
            transcript = [
                ("MAP", 200, session.account, session.via),
                ("LIST", 200, tuple(session.ls("/home/data"))),
                ("GET", 200, get_bytes(session, "/home/data/run1.dat")),
            ]
            session.quit()
        transcripts.append(transcript)

    assert transcripts[0] == transcripts[1] == transcripts[2]
    ok(2, "three members produced identical LIST/GET transcripts")


def test_criterion_3_cross_vo_isolation(tmp_path, trust_root, identities, cas_identity, clock):
    # A second issuing service, trusted for authentication but not
    # cleared in the grid map for the admin account.
    other_cred, other_key = identities.identity(OTHER_CAS_DN)
    env = ResourceEnv(
        tmp_path,
        trust_root[1],
        {cas_identity[0].subject: cas_identity[0].public_key,
         other_cred.subject: other_cred.public_key},
        clock,
        grid_map={CAS_DN: ("admin", "data"), OTHER_CAS_DN: ("data",)},
    )
    try:
        now = clock()
        assertion = make_assertion(other_cred, other_key, ORWELL, (ADMIN_ROLE,), now)
        with pytest.raises(ServiceError) as exc:
            ResourceSession(env.address, identities.bundle(ORWELL), assertion)
        assert exc.value.status == 403
        assert exc.value.code == "issuer-not-authorized-for-account"
        lines = env.audit_lines()
        assert lines[-1][2] == OTHER_CAS_DN
        assert lines[-1][5:] == ["MAP", "-", "deny", "issuer-not-authorized-for-account"]
        assert not any(line[7] == "allow" for line in lines)
    finally:
        env.close()

    # Property: whenever the winning role maps to an account the issuer
    # is not cleared for, mapping must fail, whatever the config.
    rng = random.Random(422)
    roles = ["atlas/admin", "atlas/data", "atlas/mc", "cms/prod", "cms/calib"]
    accounts = ["alpha", "bravo", "charlie", "delta"]
    rejected = 0
    for _ in range(100):
        role_map = tuple(
            (role, rng.choice(accounts))
            for role in rng.sample(roles, rng.randint(1, len(roles)))
        )
        held_roles = [role for role, _ in role_map if rng.random() < 0.7]
        if not held_roles:
            held_roles = [role_map[0][0]]
        winner_account = next(a for r, a in role_map if r in held_roles)
        issuer_accounts = tuple(a for a in accounts if a != winner_account)
        grid_map = {OTHER_CAS_DN: tuple(rng.sample(issuer_accounts, rng.randint(0, 3)))}
        rights = tuple(RightsTuple("group", "member", r) for r in held_roles)
        with pytest.raises(Refusal) as exc:
            map_to_account(ORWELL, OTHER_CAS_DN, rights, role_map, grid_map)
        assert (exc.value.status, exc.value.code) == (403, "issuer-not-authorized-for-account")
        rejected += 1
    assert rejected == 100
    ok(3, "unauthorized issuer rejected in the live scenario and 100/100 random configs")


def test_criterion_4_personal_fallback_and_truth_table(resource_env, identities, cas_identity, now):
    # An assertion with no role tuples maps to the personal account.
    cred, key = cas_identity
    roleless = make_assertion(
        cred,
        key,
        TULL,
        (RightsTuple("file", "read", "ftp://%s/*" % SERVER_NAME, match_mode="wildcard"),),
        now,
    )
    with ResourceSession(resource_env.address, identities.bundle(TULL), roleless) as session:
        assert session.account == "tull"
        assert session.via == "personal"
        assert session.ls("/home/tull") == []
        with pytest.raises(ServiceError) as exc:
            get_bytes(session, "/home/data/run1.dat")
        assert exc.value.code == "local-perms"
        session.quit()

    # Truth table: allowed == local_ok AND (no file tuples OR they match).
    table = {"data": AccountInfo("/home/data", True)}
    matching = RightsTuple("file", "read", "ftp://%s/*" % SERVER_NAME, match_mode="wildcard")
    never = RightsTuple(
        "file", "read", "ftp://%s/never/*" % SERVER_NAME, match_mode="wildcard"
    )
    cases = 0
    for has_file, matches, local_ok in itertools.product((False, True), repeat=3):
        rights = () if not has_file else ((matching,) if matches else (never,))
        path = "/home/data/f" if local_ok else "/stray/f"
        verdict = authorize_file_op(
            rights, "data", "GET", path, table, SERVER_NAME, public_root=None
        )
        expected = local_ok and (not has_file or matches)
        assert verdict.allowed == expected, (has_file, matches, local_ok)
        if has_file and not matches:
            assert verdict.reason == "cas-rights"
        elif not local_ok:
            assert verdict.reason == "local-perms"
        else:
            assert verdict.reason == "ok"
        cases += 1
    assert cases == 8
    ok(4, "personal mapping live and 8/8 truth-table cases exact")


def test_criterion_5_matcher_agrees_with_oracles():
    rng = random.Random(49565)
    pattern_chars = "ab*/"
    target_chars = "ab/"
    disagreements = 0
    for _ in range(100_000):
        pattern = "".join(rng.choice(pattern_chars) for _ in range(rng.randint(0, 8)))
        target = "".join(rng.choice(target_chars) for _ in range(rng.randint(0, 8)))
        if match_target(pattern, "wildcard", target) != oracles.glob_match(pattern, target):
            disagreements += 1
    assert disagreements == 0

    # Exhaustive: every rights subset of a small universe, every query.
    service_types = ("s", "t")
    actions = ("a", "b")
    targets = (("x/y", "exact"), ("x/*", "wildcard"), ("*", "wildcard"), ("q", "exact"))
    universe = [
        RightsTuple(st, action, target, match_mode=mode)
        for st in service_types
        for action in actions
        for target, mode in targets
    ]
    assert len(universe) == 16
    queries = [
        (st, action, target)
        for st in service_types
        for action in actions
        for target in ("x/y", "x/z", "q", "x", "deep/a/b", "")
    ]

    def brute_force(rights, st, action, target):
        for right in rights:
            if right.service_type != st or right.action != action:
                continue
            if right.match_mode == "exact":
                if right.target == target:
                    return True
            elif oracles.glob_match(right.target, target):
                return True
        return False

    checked = 0
    for size in range(0, 5):
        for subset in itertools.combinations(universe, size):
            for st, action, target in queries:
                got = check_right(subset, st, action, target)
                want = brute_force(subset, st, action, target)
                assert (got is not None) == want, (subset, st, action, target)
                if got is not None:
                    assert got in subset
                checked += 1
    ok(
        5,
        "match oracle agreed on 100000 pairs; check_right exhaustive on %d cases" % checked,
    )


def test_criterion_6_credential_integrity(cas_identity, now):
    cred, key = cas_identity
    trusted = {cred.subject: cred.public_key}
    assertion = make_assertion(
        cred, key, TULL, (DATA_ROLE, ADMIN_ROLE), now, lifetime_seconds=3600
    )
    assert verify_assertion(assertion, trusted, now).subject == TULL

    serialized = json.dumps(assertion_to_doc(assertion), separators=(",", ":")).encode("utf-8")
    rng = random.Random(1984)
    rejected = 0
    for _ in range(1000):
        corrupted = bytearray(serialized)
        bit = rng.randrange(len(corrupted) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        try:
            doc = json.loads(bytes(corrupted).decode("utf-8"))
            tampered = assertion_from_doc(doc)
            verify_assertion(tampered, trusted, now)
        except (CredentialError, ValueError, KeyError, TypeError, UnicodeDecodeError):
            rejected += 1
    assert rejected == 1000

    # Window edges: expiry is exclusive, issuance (with skew) inclusive.
    body = assertion.body
    with pytest.raises(Expired):
        verify_assertion(assertion, trusted, body.not_after)
    assert verify_assertion(assertion, trusted, body.issued_at).subject == TULL
    assert verify_assertion(
        assertion, trusted, body.issued_at - timedelta(seconds=300)
    ).subject == TULL
    with pytest.raises(NotYetValid):
        verify_assertion(assertion, trusted, body.issued_at - timedelta(seconds=301))
    ok(6, "1000/1000 bit flips rejected; window boundaries exact")


def _tag_script(session: ResourceSession, home: str, other_home: str, stamp: str):
    """The fixed per-tag command list; returns outcome tuples."""
    outcomes = []

    def record(fn):
        try:
            outcomes.append(("ok", fn()))
        except ServiceError as exc:
            outcomes.append(("err", exc.status, exc.code))

    record(lambda: tuple(session.ls(home)))
    record(lambda: get_bytes(session, "%s/seed.dat" % home))
    record(lambda: session.put("%s/out-%s.dat" % (home, stamp), b"payload " + stamp.encode()))
    record(lambda: get_bytes(session, "%s/seed.dat" % other_home))
    return outcomes


def _seeded_env(tmp_path, trust_root, cas_identity, clock, name):
    base = tmp_path / name
    base.mkdir()
    env = ResourceEnv(
        base,
        trust_root[1],
        {cas_identity[0].subject: cas_identity[0].public_key},
        clock,
    )
    for account in ("admin", "data"):
        seed = os.path.join(env.export_root, "home", account, "seed.dat")
        with open(seed, "wb") as handle:
            handle.write(b"seed for " + account.encode())
    return env


def test_criterion_7_multi_tag_interleaving(tmp_path, trust_root, identities, cas_identity, clock, now):
    cred, key = cas_identity
    tags = {
        "admin": make_assertion(cred, key, TULL, (ADMIN_ROLE,), now),
        "data": make_assertion(cred, key, TULL, (DATA_ROLE,), now),
    }
    homes = {"admin": "/home/admin", "data": "/home/data"}
    other = {"admin": "/home/data", "data": "/home/admin"}

    # Sequential baseline: one tag at a time, each in a fresh tree.
    sequential = {}
    env = _seeded_env(tmp_path, trust_root, cas_identity, clock, "sequential")
    try:
        for tag in ("admin", "data"):
            bundle = identities.bundle(TULL)
            with ResourceSession(env.address, bundle, tags[tag]) as session:
                sequential[tag] = _tag_script(session, homes[tag], other[tag], tag)
                session.quit()
    finally:
        env.close()

    # Interleaved: both sessions open at once, commands alternating.
    env = _seeded_env(tmp_path, trust_root, cas_identity, clock, "interleaved")
    try:
        sessions = {
            tag: ResourceSession(env.address, identities.bundle(TULL), tags[tag])
            for tag in ("admin", "data")
        }
        interleaved = {"admin": [], "data": []}
        steps = [
            lambda s, tag: ("ok", tuple(s.ls(homes[tag]))),
            lambda s, tag: ("ok", get_bytes(s, "%s/seed.dat" % homes[tag])),
            lambda s, tag: ("ok", s.put("%s/out-%s.dat" % (homes[tag], tag), b"payload " + tag.encode())),
            lambda s, tag: ("ok", get_bytes(s, "%s/seed.dat" % other[tag])),
        ]
        for step in steps:
            for tag in ("admin", "data"):
                try:
                    interleaved[tag].append(step(sessions[tag], tag))
                except ServiceError as exc:
                    interleaved[tag].append(("err", exc.status, exc.code))
        for session in sessions.values():
            session.quit()
            session.close()
        assert interleaved["admin"] == sequential["admin"]
        assert interleaved["data"] == sequential["data"]

        lines = env.audit_lines()
        assert len(lines) == 8  # four commands per tag, QUITs unaudited
        for line in lines:
            assert line[1] == TULL
            assert line[2] == CAS_DN
            account = line[3]
            assert line[4] == "role:atlas/%s" % account
        by_account = {"admin": 0, "data": 0}
        for line in lines:
            by_account[line[3]] += 1
        assert by_account == {"admin": 4, "data": 4}
    finally:
        env.close()
    ok(7, "interleaved tag outcomes match sequential; 8/8 audit lines attributed")


def test_criterion_8_store_determinism(demo_store):
    # Extend the demo store so the snapshot covers quoting and wildcards.
    extra = (
        'user "%s"\n' % WELLS
        + "object group atlas/mc-*\n"
        + 'grant "%s" member atlas/mc-* wildcard\n' % WELLS
    )
    store, _ = apply_command_file(demo_store, extra)
    snapshot = save_snapshot(store)
    replayed, _ = apply_command_file(PolicyStore(), snapshot.decode("utf-8"))
    assert replayed == store
    assert save_snapshot(replayed) == snapshot

    # An error anywhere in a script must leave the target store's
    # snapshot hash untouched, however many lines applied before it.
    base_hash = hashlib.sha256(save_snapshot(store)).hexdigest()
    lines = DEMO_POLICY.strip().splitlines()
    injections = 0
    for position in range(len(lines) + 1):
        script = lines[:position] + ["grant nobody member atlas/data"] + lines[position:]
        with pytest.raises(LineError) as exc:
            apply_command_file(PolicyStore(), "\n".join(script) + "\n")
        assert exc.value.line == position + 1
        with pytest.raises(LineError):
            apply_command_file(store, "\n".join(script) + "\n")
        assert hashlib.sha256(save_snapshot(store)).hexdigest() == base_hash
        injections += 1
    assert injections == len(lines) + 1
    ok(8, "snapshot replay is a fixed point; %d error injections left the store unchanged" % injections)
