from __future__ import annotations

import base64
import copy
import dataclasses
import json
import random
import socket
import threading
from datetime import datetime, timedelta, timezone

import pytest

from vo_authz import credentials as creds
from vo_authz import wire
from vo_authz.ca import make_identity
from vo_authz.policy import WILDCARD, RightsTuple

from . import oracles
from .conftest import CAS_DN, TULL
from .oracles import canonical_assertion_bytes

UTC = timezone.utc

SAMPLE_ISSUED_AT = datetime(2003, 3, 19, 8, 30, 53, tzinfo=UTC)
SAMPLE_NOT_AFTER = datetime(2003, 3, 19, 20, 30, 53, tzinfo=UTC)
SAMPLE_SERIAL = "00112233445566778899aabbccddeeff"
SAMPLE_RIGHTS = (
    RightsTuple("file", "read", "ftp://pdsfgrid3.nersc.gov/*", WILDCARD),
    RightsTuple("group", "member", "atlas/admin"),
)

# Byte-for-byte expected canonical encoding of the sample body, frozen
# from the independent string-concatenation encoder in oracles.py.
FROZEN_CANONICAL = (
    b'{"issued_at":"2003-03-19T08:30:53Z",'
    b'"issuer":"/O=doesciencegrid.org/CN=atlas-cas",'
    b'"not_after":"2003-03-19T20:30:53Z",'
    b'"rights":[{"action":"read","match_mode":"wildcard","service_type":"file",'
    b'"target":"ftp://pdsfgrid3.nersc.gov/*"},'
    b'{"action":"member","match_mode":"exact","service_type":"group",'
    b'"target":"atlas/admin"}],'
    b'"serial":"00112233445566778899aabbccddeeff",'
    b'"subject":"/O=doesciencegrid.org/OU=People/CN=Craig E. Tull 49565",'
    b'"version":1}'
)


def sample_body(**overrides) -> creds.AssertionBody:
    kwargs = dict(
        issuer=CAS_DN,
        subject=TULL,
        serial=SAMPLE_SERIAL,
        issued_at=SAMPLE_ISSUED_AT,
        not_after=SAMPLE_NOT_AFTER,
        rights=SAMPLE_RIGHTS,
    )
    kwargs.update(overrides)
    return creds.AssertionBody(**kwargs)


# -- canonical encoding --------------------------------------------------------


def test_canonical_bytes_matches_frozen_vector():
    assert sample_body().signed_payload() == FROZEN_CANONICAL


def test_oracle_encoder_matches_frozen_vector():
    got = canonical_assertion_bytes(
        issuer=CAS_DN,
        subject=TULL,
        serial=SAMPLE_SERIAL,
        issued_at=SAMPLE_ISSUED_AT,
        not_after=SAMPLE_NOT_AFTER,
        rights=[
            ("file", "read", "ftp://pdsfgrid3.nersc.gov/*", "wildcard"),
            ("group", "member", "atlas/admin", "exact"),
        ],
    )
    assert got == FROZEN_CANONICAL


def test_canonical_bytes_independent_of_rights_input_order():
    shuffled = sample_body(rights=tuple(reversed(SAMPLE_RIGHTS)))
    assert shuffled.signed_payload() == FROZEN_CANONICAL


def test_body_normalizes_duplicate_rights():
    body = sample_body(rights=SAMPLE_RIGHTS + SAMPLE_RIGHTS)
    assert body.rights == tuple(sorted(SAMPLE_RIGHTS))


def test_canonical_bytes_keeps_non_ascii_as_utf8():
    body = sample_body(subject="/O=doesciencegrid.org/CN=Grå 1")
    assert "Grå".encode("utf-8") in body.signed_payload()


def test_equal_bodies_encode_identically():
    assert sample_body().signed_payload() == sample_body().signed_payload()


# -- timestamps ----------------------------------------------------------------


def test_timestamp_round_trip():
    assert creds.parse_timestamp("2003-03-19T08:30:53Z") == SAMPLE_ISSUED_AT
    assert creds.format_timestamp(SAMPLE_ISSUED_AT) == "2003-03-19T08:30:53Z"


def test_format_timestamp_converts_to_utc():
    offset = timezone(timedelta(hours=-8))
    local = SAMPLE_ISSUED_AT.astimezone(offset)
    assert creds.format_timestamp(local) == "2003-03-19T08:30:53Z"


def test_format_timestamp_rejects_naive_and_subsecond():
    with pytest.raises(ValueError):
        creds.format_timestamp(datetime(2003, 3, 19, 8, 30, 53))
    with pytest.raises(ValueError):
        creds.format_timestamp(SAMPLE_ISSUED_AT.replace(microsecond=1))


def test_format_timestamp_pads_years_before_1000():
    early = datetime(999, 1, 2, 3, 4, 5, tzinfo=UTC)
    assert creds.format_timestamp(early) == "0999-01-02T03:04:05Z"
    assert creds.parse_timestamp(creds.format_timestamp(early)) == early


# A constructor names the field it refuses; format_timestamp says "timestamps".
@pytest.mark.parametrize(
    "ts,problem",
    [(datetime(2003, 3, 19, 8, 30, 53), "timezone-aware"), (SAMPLE_ISSUED_AT.replace(microsecond=1), "whole seconds")],
)
@pytest.mark.parametrize(
    "built,field",
    [("identity", "not_before"), ("identity", "not_after"), ("session", "not_after"),
     ("body", "issued_at"), ("body", "not_after")],
)
def test_constructors_refuse_what_format_timestamp_refuses(identities, ts, problem, built, field):
    with pytest.raises(ValueError, match="^timestamps must be %s$" % problem):
        creds.format_timestamp(ts)
    obj = {
        "identity": lambda: identities.identity(TULL)[0],
        "session": lambda: identities.bundle(TULL).session,
        "body": sample_body,
    }[built]()
    with pytest.raises(ValueError, match="^%s must be %s$" % (field, problem)):
        dataclasses.replace(obj, **{field: ts})


@pytest.mark.parametrize(
    "text",
    [
        "2003-03-19T08:30:53",
        "2003-03-19T08:30:53+00:00",
        "2003-3-19T08:30:53Z",
        "2003-03-19 08:30:53Z",
        "2003-03-19T08:30:53.000Z",
        "",
    ],
)
def test_parse_timestamp_rejects_non_canonical(text):
    with pytest.raises(ValueError):
        creds.parse_timestamp(text)


# -- key material ----------------------------------------------------------------


def test_private_key_pem_round_trip():
    private, public = creds.generate_keypair()
    pem = creds.private_key_to_pem(private)
    again = creds.private_key_from_pem(pem)
    assert creds.raw_public_key(again.public_key()) == public


def test_private_key_passphrase():
    private, public = creds.generate_keypair()
    pem = creds.private_key_to_pem(private, passphrase=b"hunter2")
    again = creds.private_key_from_pem(pem, passphrase=b"hunter2")
    assert creds.raw_public_key(again.public_key()) == public
    with pytest.raises(creds.CredentialError):
        creds.private_key_from_pem(pem, passphrase=b"wrong")
    with pytest.raises(creds.CredentialError):
        creds.private_key_from_pem(pem)


def test_public_key_pem_round_trip():
    _, public = creds.generate_keypair()
    assert creds.public_key_from_pem(creds.public_key_to_pem(public)) == public


def test_public_key_from_raw_rejects_wrong_length():
    with pytest.raises(creds.MalformedCredential):
        creds.public_key_from_raw(b"short")


# -- identity and session chain ---------------------------------------------------


def test_verify_identity_happy_path(trust_root, identities, now):
    cred, _ = identities.identity(TULL)
    creds.verify_identity(cred, trust_root[1], now)


def test_verify_identity_rejects_foreign_root(identities, now):
    cred, _ = identities.identity(TULL)
    _, other_root = creds.generate_keypair()
    with pytest.raises(creds.BadSignature):
        creds.verify_identity(cred, other_root, now)


def test_identity_window_edges(trust_root, identities):
    nb = datetime(2003, 3, 19, 12, 0, 0, tzinfo=UTC)
    na = datetime(2003, 3, 20, 12, 0, 0, tzinfo=UTC)
    cred, _ = identities.identity(TULL, not_before=nb, not_after=na)
    root = trust_root[1]
    # Opening edge stretches by the skew allowance; closing edge does not.
    creds.verify_identity(cred, root, nb - timedelta(seconds=300))
    with pytest.raises(creds.NotYetValid):
        creds.verify_identity(cred, root, nb - timedelta(seconds=301))
    creds.verify_identity(cred, root, na - timedelta(seconds=1))
    with pytest.raises(creds.Expired):
        creds.verify_identity(cred, root, na)


def test_session_cannot_outlive_identity(identities, now):
    cred, private = identities.identity(TULL, not_after=now + timedelta(hours=1))
    _, session_public = creds.generate_keypair()
    with pytest.raises(creds.CredentialError) as exc:
        creds.delegate_session(cred, private, session_public, now + timedelta(hours=2))
    assert "identity" in str(exc.value)


def test_delegate_session_refuses_a_naive_lifetime(identities, now):
    cred, private = identities.identity(TULL)
    naive = (now + timedelta(hours=1)).replace(tzinfo=None)
    with pytest.raises(creds.CredentialError, match="not_after must be timezone-aware"):
        creds.delegate_session(cred, private, creds.generate_keypair()[1], naive)


def test_session_constructor_enforces_identity_bound(identities, now):
    cred, private = identities.identity(TULL, not_after=now + timedelta(hours=1))
    bundle = creds.SessionBundle
    session_private, session_public = creds.generate_keypair()
    session = creds.delegate_session(cred, private, session_public, now + timedelta(minutes=30))
    with pytest.raises(ValueError):
        creds.SessionCredential(
            identity=cred,
            session_public_key=session.session_public_key,
            not_after=now + timedelta(hours=2),
            delegation_signature=session.delegation_signature,
        )
    assert bundle(session, session_private).subject == TULL


def test_verify_session_chain(trust_root, identities, now):
    bundle = identities.bundle(TULL)
    creds.verify_session_chain(bundle.session, trust_root[1], now)
    with pytest.raises(creds.Expired):
        creds.verify_session_chain(
            bundle.session, trust_root[1], bundle.session.not_after
        )


def test_session_chain_rejects_tampered_delegation(trust_root, identities, now):
    bundle = identities.bundle(TULL)
    session = bundle.session
    forged = creds.SessionCredential(
        identity=session.identity,
        session_public_key=session.session_public_key,
        not_after=session.not_after - timedelta(seconds=1),
        delegation_signature=session.delegation_signature,
    )
    with pytest.raises(creds.BadSignature):
        creds.verify_session_chain(forged, trust_root[1], now)


def test_identity_doc_round_trip(identities):
    cred, _ = identities.identity(TULL)
    assert creds.identity_from_doc(creds.identity_to_doc(cred)) == cred


def test_identity_doc_rejects_extra_field(identities):
    cred, _ = identities.identity(TULL)
    doc = creds.identity_to_doc(cred)
    doc["comment"] = "hi"
    with pytest.raises(creds.MalformedCredential):
        creds.identity_from_doc(doc)


def test_session_doc_round_trip(identities):
    bundle = identities.bundle(TULL)
    doc = creds.session_to_doc(bundle.session)
    assert creds.session_from_doc(doc) == bundle.session


def test_session_doc_rejects_missing_field(identities):
    doc = creds.session_to_doc(identities.bundle(TULL).session)
    del doc["delegation_signature"]
    with pytest.raises(creds.MalformedCredential):
        creds.session_from_doc(doc)


# -- assertions ------------------------------------------------------------------


@pytest.fixture
def issuer_key(trust_root, identities):
    cred, private = identities.identity(CAS_DN)
    return cred, private


def make_assertion(issuer_private, **overrides) -> creds.Assertion:
    return creds.sign_assertion(sample_body(**overrides), issuer_private)


def trusted(issuer_cred) -> dict[str, bytes]:
    return {issuer_cred.subject: issuer_cred.public_key}


def test_sign_and_verify_assertion(issuer_key):
    cred, private = issuer_key
    assertion = make_assertion(private)
    verified = creds.verify_assertion(assertion, trusted(cred), SAMPLE_ISSUED_AT)
    assert verified.subject == TULL
    assert verified.issuer == CAS_DN
    assert verified.rights == tuple(sorted(SAMPLE_RIGHTS))
    assert verified == assertion.body  # the serial included


def test_verify_rejects_untrusted_issuer(issuer_key):
    _, private = issuer_key
    assertion = make_assertion(private)
    with pytest.raises(creds.UntrustedIssuer):
        creds.verify_assertion(assertion, {}, SAMPLE_ISSUED_AT)


def test_untrusted_issuer_takes_precedence_over_expiry(issuer_key):
    _, private = issuer_key
    assertion = make_assertion(private)
    with pytest.raises(creds.UntrustedIssuer):
        creds.verify_assertion(assertion, {}, SAMPLE_NOT_AFTER + timedelta(days=1))


def test_verify_rejects_wrong_issuer_key(issuer_key, identities):
    cred, private = issuer_key
    assertion = make_assertion(private)
    other_cred, _ = identities.identity(CAS_DN)
    with pytest.raises(creds.BadSignature):
        creds.verify_assertion(assertion, trusted(other_cred), SAMPLE_ISSUED_AT)


def test_assertion_window_edges(issuer_key):
    cred, private = issuer_key
    assertion = make_assertion(private)
    trust = trusted(cred)
    # now == issued_at is valid; skew stretches the opening edge only.
    creds.verify_assertion(assertion, trust, SAMPLE_ISSUED_AT)
    creds.verify_assertion(assertion, trust, SAMPLE_ISSUED_AT - timedelta(seconds=300))
    with pytest.raises(creds.NotYetValid):
        creds.verify_assertion(
            assertion, trust, SAMPLE_ISSUED_AT - timedelta(seconds=301)
        )
    creds.verify_assertion(assertion, trust, SAMPLE_NOT_AFTER - timedelta(seconds=1))
    with pytest.raises(creds.Expired):
        creds.verify_assertion(assertion, trust, SAMPLE_NOT_AFTER)
    with pytest.raises(creds.Expired):
        creds.verify_assertion(assertion, trust, SAMPLE_NOT_AFTER + timedelta(seconds=300))


def test_assertion_doc_round_trip(issuer_key):
    cred, private = issuer_key
    assertion = make_assertion(private)
    doc = json.loads(json.dumps(creds.assertion_to_doc(assertion)))
    again = creds.assertion_from_doc(doc)
    assert again == assertion
    creds.verify_assertion(again, trusted(cred), SAMPLE_ISSUED_AT)


def test_documents_survive_a_read_and_a_write_unchanged(issuer_key, identities):
    _, private = issuer_key
    session = identities.bundle(TULL).session
    assertion_doc = creds.assertion_to_doc(make_assertion(private))
    cases = [
        (creds.identity_to_doc(session.identity), creds.identity_from_doc, creds.identity_to_doc),
        (creds.session_to_doc(session), creds.session_from_doc, creds.session_to_doc),
        (assertion_doc, creds.assertion_from_doc, creds.assertion_to_doc),
    ]
    for doc, read, write in cases:
        doc = json.loads(json.dumps(doc))
        assert list(write(read(doc)).items()) == list(doc.items())
    assert creds.assertion_from_doc(assertion_doc).body.signed_payload() == FROZEN_CANONICAL


def test_assertion_doc_rejects_unsorted_rights(issuer_key):
    _, private = issuer_key
    doc = creds.assertion_to_doc(make_assertion(private))
    doc["rights"].reverse()
    with pytest.raises(creds.MalformedCredential):
        creds.assertion_from_doc(doc)


def test_assertion_doc_rejects_extra_field(issuer_key):
    _, private = issuer_key
    doc = creds.assertion_to_doc(make_assertion(private))
    doc["note"] = "x"
    with pytest.raises(creds.MalformedCredential):
        creds.assertion_from_doc(doc)


def test_assertion_doc_rejects_bad_version(issuer_key):
    _, private = issuer_key
    doc = creds.assertion_to_doc(make_assertion(private))
    doc["version"] = 2
    with pytest.raises(creds.MalformedCredential):
        creds.assertion_from_doc(doc)


def test_assertion_doc_rejects_noncanonical_base64(issuer_key):
    # Same signature bytes, different encoding of the final character's
    # slack bits: one value must have exactly one accepted encoding.
    _, private = issuer_key
    doc = creds.assertion_to_doc(make_assertion(private))
    sig = doc["signature"]
    assert sig.endswith("==")
    last = sig[85]
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    variant = alphabet[alphabet.index(last) | 0x1]
    if variant == last:
        variant = alphabet[alphabet.index(last) ^ 0x1]
    doc["signature"] = sig[:85] + variant + "=="
    assert base64.b64decode(doc["signature"], validate=True) == base64.b64decode(
        sig, validate=True
    )
    with pytest.raises(creds.MalformedCredential):
        creds.assertion_from_doc(doc)


def test_assertion_from_doc_rejects_garbage():
    for doc in ("not json", [1, 2, 3], None, 7):
        with pytest.raises(creds.MalformedCredential):
            creds.assertion_from_doc(doc)


@pytest.mark.parametrize(
    "serial",
    ["", "00112233445566778899AABBCCDDEEFF", "0011", "z" * 32],
)
def test_bad_serial_rejected(serial):
    with pytest.raises(ValueError):
        sample_body(serial=serial)


def test_fresh_serial_shape_and_uniqueness():
    serials = {creds.fresh_serial() for _ in range(64)}
    assert len(serials) == 64
    for s in serials:
        assert creds._SERIAL_RE.match(s)


def test_body_rejects_inverted_window():
    with pytest.raises(ValueError):
        sample_body(not_after=SAMPLE_ISSUED_AT)


# -- handshake -------------------------------------------------------------------


def handshake_pair():
    a, b = socket.socketpair()
    return wire.Channel(a, timeout=5.0), wire.Channel(b, timeout=5.0)


def authenticate(server, trust_root, now):
    """The verifier side of a handshake on a blocking channel."""
    return creds.authenticate_peer(server, trust_root, now, creds.send_challenge(server))


def run_prover(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def test_handshake_happy_path(trust_root, identities, now):
    server, client = handshake_pair()
    bundle = identities.bundle(TULL)
    thread = run_prover(creds.answer_challenge, client, bundle)
    session = authenticate(server, trust_root[1], now)
    thread.join(timeout=5)
    assert session == bundle.session
    server.close()
    client.close()


def test_handshake_rejects_wrong_session_key(trust_root, identities, now):
    server, client = handshake_pair()
    bundle = identities.bundle(TULL)
    imposter_key, _ = creds.generate_keypair()

    def prover():
        frame = client.recv_frame()
        nonce = creds._unb64(frame["nonce"], "nonce")
        client.send_frame({
            "type": "auth",
            "session": creds.session_to_doc(bundle.session),
            "nonce_signature": creds._b64(imposter_key.sign(nonce + creds.AUTH_CONTEXT)),
        })

    thread = run_prover(prover)
    with pytest.raises(creds.HandshakeError) as exc:
        authenticate(server, trust_root[1], now)
    thread.join(timeout=5)
    assert exc.value.code == "nonce-mismatch"
    server.close()
    client.close()


def test_handshake_rejects_replayed_nonce_signature(trust_root, identities, now):
    # A signature captured from one handshake fails a later handshake
    # because each challenge carries a fresh nonce.
    bundle = identities.bundle(TULL)
    first_sig = {}

    server, client = handshake_pair()

    def first_prover():
        frame = client.recv_frame()
        nonce = creds._unb64(frame["nonce"], "nonce")
        sig = bundle.private_key.sign(nonce + creds.AUTH_CONTEXT)
        first_sig["value"] = sig
        client.send_frame({
            "type": "auth",
            "session": creds.session_to_doc(bundle.session),
            "nonce_signature": creds._b64(sig),
        })

    thread = run_prover(first_prover)
    authenticate(server, trust_root[1], now)
    thread.join(timeout=5)
    server.close()
    client.close()

    server, client = handshake_pair()

    def replaying_prover():
        client.recv_frame()
        client.send_frame({
            "type": "auth",
            "session": creds.session_to_doc(bundle.session),
            "nonce_signature": creds._b64(first_sig["value"]),
        })

    thread = run_prover(replaying_prover)
    with pytest.raises(creds.HandshakeError) as exc:
        authenticate(server, trust_root[1], now)
    thread.join(timeout=5)
    assert exc.value.code == "nonce-mismatch"
    server.close()
    client.close()


def test_handshake_rejects_expired_session(trust_root, identities, now):
    server, client = handshake_pair()
    bundle = identities.bundle(TULL, session_lifetime=timedelta(hours=1))
    thread = run_prover(creds.answer_challenge, client, bundle)
    with pytest.raises(creds.HandshakeError) as exc:
        authenticate(server, trust_root[1], now + timedelta(hours=2))
    thread.join(timeout=5)
    assert exc.value.code == "expired"
    server.close()
    client.close()


def test_handshake_rejects_foreign_trust_root(identities, now):
    server, client = handshake_pair()
    bundle = identities.bundle(TULL)
    _, other_root = creds.generate_keypair()
    thread = run_prover(creds.answer_challenge, client, bundle)
    with pytest.raises(creds.HandshakeError) as exc:
        authenticate(server, other_root, now)
    thread.join(timeout=5)
    assert exc.value.code == "chain-invalid"
    server.close()
    client.close()


def test_handshake_rejects_wrong_frame_type(trust_root, now):
    server, client = handshake_pair()

    def prover():
        client.recv_frame()
        client.send_frame({"type": "issue_request"})

    thread = run_prover(prover)
    with pytest.raises(creds.HandshakeError) as exc:
        authenticate(server, trust_root[1], now)
    thread.join(timeout=5)
    assert exc.value.code == "protocol"
    server.close()
    client.close()


# -- verified-signature cache ------------------------------------------------------


def handshake(bundle, root, now, nonce_key=None):
    """Run one handshake; ``nonce_key`` signs the nonce instead of the session key."""
    server, client = handshake_pair()
    signer = nonce_key or bundle.private_key

    def prover():
        frame = client.recv_frame()
        nonce = creds._unb64(frame["nonce"], "nonce")
        client.send_frame({
            "type": "auth",
            "session": creds.session_to_doc(bundle.session),
            "nonce_signature": creds._b64(signer.sign(nonce + creds.AUTH_CONTEXT)),
        })

    thread = run_prover(prover)
    try:
        return authenticate(server, root, now)
    finally:
        thread.join(timeout=5)
        server.close()
        client.close()


@pytest.fixture
def uncached_checks(monkeypatch):
    """Count the signature checks that reach Ed25519 itself."""
    calls = []
    real = creds._check_signature

    def counting(raw_key, signature, payload):
        calls.append(payload)
        real(raw_key, signature, payload)

    monkeypatch.setattr(creds, "_check_signature", counting)
    return calls


def flip_first_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


def test_repeat_handshake_verifies_only_the_nonce(trust_root, identities, now, uncached_checks):
    bundle = identities.bundle(TULL)
    handshake(bundle, trust_root[1], now)
    assert len(uncached_checks) == 3
    del uncached_checks[:]
    size = creds._check_signature_cached.cache_info().currsize
    assert handshake(bundle, trust_root[1], now).identity.subject == TULL
    assert len(uncached_checks) == 1
    assert uncached_checks[0].endswith(creds.AUTH_CONTEXT)
    # The nonce signature is never stored either.
    assert creds._check_signature_cached.cache_info().currsize == size


def test_repeat_assertion_verify_does_no_signature_check(issuer_key, uncached_checks):
    cred, private = issuer_key
    assertion = make_assertion(private, serial=creds.fresh_serial())
    creds.verify_assertion(assertion, trusted(cred), SAMPLE_ISSUED_AT)
    assert len(uncached_checks) == 1
    verified = creds.verify_assertion(assertion, trusted(cred), SAMPLE_ISSUED_AT)
    assert len(uncached_checks) == 1
    assert verified.subject == TULL


def test_cached_identity_still_rejects_flipped_bytes(trust_root, identities, now):
    cred, _ = identities.identity(TULL)
    creds.verify_identity(cred, trust_root[1], now)
    forged_signature = dataclasses.replace(cred, signature=flip_first_byte(cred.signature))
    with pytest.raises(creds.BadSignature):
        creds.verify_identity(forged_signature, trust_root[1], now)
    forged_key = dataclasses.replace(cred, public_key=flip_first_byte(cred.public_key))
    with pytest.raises(creds.BadSignature):
        creds.verify_identity(forged_key, trust_root[1], now)


@pytest.mark.parametrize("field", ["delegation_signature", "session_public_key"])
def test_cached_chain_still_rejects_flipped_bytes(trust_root, identities, now, field):
    bundle = identities.bundle(TULL)
    handshake(bundle, trust_root[1], now)
    session = bundle.session
    forged = dataclasses.replace(session, **{field: flip_first_byte(getattr(session, field))})
    with pytest.raises(creds.HandshakeError) as exc:
        handshake(creds.SessionBundle(forged, bundle.private_key), trust_root[1], now)
    assert exc.value.code == "chain-invalid"


@pytest.mark.parametrize(
    "change",
    [
        lambda a: dataclasses.replace(a, signature=flip_first_byte(a.signature)),
        lambda a: dataclasses.replace(
            a, body=dataclasses.replace(a.body, serial=flip_first_byte(a.body.serial.encode()).decode())
        ),
        lambda a: dataclasses.replace(
            a, body=dataclasses.replace(a.body, not_after=a.body.not_after + timedelta(seconds=1))
        ),
    ],
    ids=["signature", "serial", "not_after"],
)
def test_cached_assertion_still_rejects_flipped_bytes(issuer_key, change):
    cred, private = issuer_key
    assertion = make_assertion(private)
    creds.verify_assertion(assertion, trusted(cred), SAMPLE_ISSUED_AT)
    with pytest.raises(creds.BadSignature):
        creds.verify_assertion(change(assertion), trusted(cred), SAMPLE_ISSUED_AT)


def test_cached_chain_with_foreign_nonce_signature_fails(trust_root, identities, now):
    bundle = identities.bundle(TULL)
    handshake(bundle, trust_root[1], now)
    imposter_key, _ = creds.generate_keypair()
    with pytest.raises(creds.HandshakeError) as exc:
        handshake(bundle, trust_root[1], now, nonce_key=imposter_key)
    assert exc.value.code == "nonce-mismatch"


def test_cached_chain_still_checks_its_windows(trust_root, identities, now):
    bundle = identities.bundle(TULL, session_lifetime=timedelta(hours=1))
    handshake(bundle, trust_root[1], now)
    for late in (bundle.session.not_after, now + timedelta(days=400)):
        with pytest.raises(creds.HandshakeError) as exc:
            handshake(bundle, trust_root[1], late)
        assert exc.value.code == "expired"
    with pytest.raises(creds.Expired):
        creds.verify_session_chain(bundle.session, trust_root[1], bundle.session.not_after)
    early = bundle.session.identity.not_before - timedelta(seconds=301)
    with pytest.raises(creds.NotYetValid):
        creds.verify_session_chain(bundle.session, trust_root[1], early)


def test_cached_assertion_still_checks_its_window_and_issuer(issuer_key):
    cred, private = issuer_key
    assertion = make_assertion(private)
    trust = trusted(cred)
    creds.verify_assertion(assertion, trust, SAMPLE_ISSUED_AT)
    with pytest.raises(creds.Expired):
        creds.verify_assertion(assertion, trust, SAMPLE_NOT_AFTER)
    with pytest.raises(creds.NotYetValid):
        creds.verify_assertion(assertion, trust, SAMPLE_ISSUED_AT - timedelta(seconds=301))
    with pytest.raises(creds.UntrustedIssuer):
        creds.verify_assertion(assertion, {}, SAMPLE_ISSUED_AT)


def test_cached_assertion_fails_under_another_key_for_the_same_issuer(issuer_key, identities):
    cred, private = issuer_key
    assertion = make_assertion(private)
    creds.verify_assertion(assertion, trusted(cred), SAMPLE_ISSUED_AT)
    other_cred, _ = identities.identity(CAS_DN)
    with pytest.raises(creds.BadSignature):
        creds.verify_assertion(assertion, trusted(other_cred), SAMPLE_ISSUED_AT)


def test_failed_verification_is_not_cached(issuer_key, uncached_checks):
    cred, private = issuer_key
    forged = dataclasses.replace(
        make_assertion(private, serial=creds.fresh_serial()),
        signature=bytes(64),
    )
    size = creds._check_signature_cached.cache_info().currsize
    for _ in range(2):
        with pytest.raises(creds.BadSignature):
            creds.verify_assertion(forged, trusted(cred), SAMPLE_ISSUED_AT)
    assert creds._check_signature_cached.cache_info().currsize == size
    assert len(uncached_checks) == 2


def test_cache_stays_within_its_bound(monkeypatch):
    # Every check succeeds here, so each distinct triple is a new entry.
    monkeypatch.setattr(creds, "_check_signature", lambda *args: None)
    creds._check_signature_cached.cache_clear()
    try:
        bound = creds.VERIFIED_CACHE_ENTRIES
        for i in range(bound + 100):
            assert creds._verify(bytes(32), bytes(64), b"%d" % i)
        assert creds._check_signature_cached.cache_info().currsize == bound
        # A payload over the size limit is checked but never stored.
        creds._check_signature_cached.cache_clear()
        big = bytes(creds.VERIFIED_CACHE_PAYLOAD_BYTES + 1)
        assert creds._verify(bytes(32), bytes(64), big)
        assert creds._check_signature_cached.cache_info().currsize == 0
    finally:
        creds._check_signature_cached.cache_clear()


def test_utc_now_is_aware_whole_seconds():
    ts = creds.utc_now()
    assert ts.tzinfo is not None
    assert ts.microsecond == 0


# -- differential: field-table parsers against the frozen ones ----------------------
#
# Seeded mutations of valid documents go through both the package's parsers
# and the earlier ones frozen in oracles.py. Both must return equal objects or
# both raise MalformedCredential, with three deliberate differences, each a
# refusal where the old parser did otherwise:
#
# * a bool ``version``: the old parser let ``true`` pass as 1;
# * a rights entry that is not a JSON object: the old parser crashed on it;
# * a timestamp with a digit that is not ASCII: ``strptime`` takes any
#   Unicode digit in the year and in some other places, so the old parser
#   accepted a second spelling of a signed document.

JSON_VALUES = (None, True, False, 0, 1, -1, 2**70, 1.0, 0.5, "", "x", "1", [], [1], ["x"], {}, {"a": 1})
BAD_TIMESTAMPS = (
    "٢٠٠٣-٠٣-١٩T٠٨:٣٠:٥٣Z",  # Arabic-Indic digits
    "２００３-03-19T08:30:53Z",  # fullwidth digits in the year
    "2003-03-1९T08:30:53Z",  # one Devanagari digit
    "2003-02-30T08:30:53Z",
    "2003-02-29T08:30:53Z",
    "2003-13-01T08:30:53Z",
    "2003-00-10T08:30:53Z",
    "2003-03-00T08:30:53Z",
    "2003-03-19T24:00:00Z",
    "2003-03-19T08:60:00Z",
    "2003-03-19T08:30:60Z",
    "2003-03-19T08:30:61Z",
    "0000-03-19T08:30:53Z",
    "2003-03-19T08:30:53z",
    "2003-03-19t08:30:53Z",
    "2003-03-19T08:30:53Z\n",
    " 2003-03-19T08:30:53Z",
    "2003-03-19T08:30:53",
)
GOOD_TIMESTAMPS = ("2004-02-29T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "1999-12-31T23:59:59Z")
SUBJECTS = (TULL, CAS_DN, "/O=doesciencegrid.org/CN=Grå 1", "/DC=org/DC=x/CN=a=b")
RIGHTS_POOL = (
    RightsTuple("file", "read", "ftp://pdsfgrid3.nersc.gov/*", WILDCARD),
    RightsTuple("file", "write", "ftp://pdsfgrid3.nersc.gov/home/data/*", WILDCARD),
    RightsTuple("file", "read", "ftp://pdsfgrid3.nersc.gov/public/readme.txt"),
    RightsTuple("group", "member", "atlas/admin"),
    RightsTuple("group", "member", "atlas/data"),
    RightsTuple("group", "member", "cms/data"),
)


def outcome(parse, doc):
    """``("ok", result)``, ``("malformed",)`` or ``("crash", exception type)``."""
    try:
        return ("ok", parse(copy.deepcopy(doc)))
    except creds.MalformedCredential:
        return ("malformed",)
    except Exception as exc:  # the frozen parsers crash on some shapes
        return ("crash", type(exc).__name__)


def noncanonical_base64(text: str) -> list[str]:
    """Encodings of the same bytes that a strict parser must refuse."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    out = [text.rstrip("="), text + "\n", " " + text, text.replace("+", "-").replace("/", "_")]
    if text.endswith("="):
        index = len(text.rstrip("=")) - 1
        slack = alphabet[alphabet.index(text[index]) ^ 0x1]
        out.append(text[:index] + slack + text[index + 1:])
    return [variant for variant in out if variant != text]


def value_mutations(doc: dict, rng: random.Random):
    """Dropped, added, retyped and reshaped fields of one document level."""
    for name in doc:
        yield {k: v for k, v in doc.items() if k != name}
        for value in JSON_VALUES:
            yield dict(doc, **{name: value})
        if isinstance(doc[name], str):
            yield dict(doc, **{name: doc[name] + rng.choice(("x", " ", "=", "é"))})
    yield dict(doc, extra=rng.choice(JSON_VALUES))
    for name in ("not_before", "not_after", "issued_at"):
        if name in doc:
            for text in BAD_TIMESTAMPS + GOOD_TIMESTAMPS:
                yield dict(doc, **{name: text})
    for name in ("signature", "public_key", "session_public_key", "delegation_signature"):
        if name in doc:
            for text in noncanonical_base64(doc[name]):
                yield dict(doc, **{name: text})
    if "kind" in doc:
        for kind in ("identity", "session", "session-bundle", "assertion", "Identity", ""):
            yield dict(doc, kind=kind)


def rights_mutations(doc: dict, rng: random.Random):
    rights = doc["rights"]
    yield dict(doc, rights=rights[::-1])
    yield dict(doc, rights=rights + rights)
    yield dict(doc, rights=rights[:1] * 2 + rights[1:])
    yield dict(doc, rights=[])
    exact = [r for r in rights if r["match_mode"] == "exact"]
    if exact:
        # A wildcard with no ``*`` normalizes to exact, so it is not canonical.
        yield dict(doc, rights=[dict(r, match_mode="wildcard") if r is exact[0] else r for r in rights])
    for index in range(len(rights)):
        for value in JSON_VALUES + (list(rights[index]), list(rights[index].values())):
            changed = list(rights)
            changed[index] = value
            yield dict(doc, rights=changed)
        for name in rights[index]:
            for value in JSON_VALUES + ("WILDCARD", "a b", "*"):
                changed = list(rights)
                changed[index] = dict(rights[index], **{name: value})
                yield dict(doc, rights=changed)
            changed = list(rights)
            changed[index] = {k: v for k, v in rights[index].items() if k != name}
            yield dict(doc, rights=changed)


def has_non_ascii_timestamp(doc) -> bool:
    if not isinstance(doc, dict):
        return False
    stamps = [doc.get(name) for name in ("not_before", "not_after", "issued_at")]
    return any(isinstance(t, str) and not t.isascii() for t in stamps) or has_non_ascii_timestamp(
        doc.get("identity")
    )


def assert_agrees(parse, frozen, doc):
    new, old = outcome(parse, doc), outcome(frozen, doc)
    if old[0] == "crash":
        assert new == ("malformed",), (doc, new, old)
    elif isinstance(doc, dict) and type(doc.get("version")) is bool:
        assert new == ("malformed",), (doc, new, old)
        assert old[0] == "malformed" or doc["version"] is True, (doc, old)
    elif has_non_ascii_timestamp(doc):
        assert new == ("malformed",), (doc, new, old)
    else:
        assert new == old, (doc, new, old)
    return new[0]


def random_window(rng: random.Random) -> tuple[datetime, datetime]:
    start = datetime(2003, 3, 19, tzinfo=UTC) + timedelta(seconds=rng.randrange(10**8))
    return start, start + timedelta(seconds=rng.randrange(1, 10**7))


@pytest.mark.parametrize("seed", range(6))
def test_parsers_agree_with_the_frozen_parsers(trust_root, seed):
    rng = random.Random(seed)
    root_private = trust_root[0]
    not_before, not_after = random_window(rng)
    identity_private, identity_public = creds.generate_keypair()
    identity = make_identity(root_private, rng.choice(SUBJECTS), identity_public, not_before, not_after)
    session = creds.delegate_session(
        identity, identity_private, creds.generate_keypair()[1], not_after - timedelta(seconds=rng.randrange(2))
    )
    body = creds.AssertionBody(
        issuer=rng.choice(SUBJECTS),
        subject=rng.choice(SUBJECTS),
        serial=creds.fresh_serial(),
        issued_at=not_before,
        not_after=not_after,
        rights=tuple(rng.sample(RIGHTS_POOL, rng.randint(1, len(RIGHTS_POOL)))),
    )
    assertion = creds.sign_assertion(body, identity_private)

    identity_doc = creds.identity_to_doc(identity)
    session_doc = creds.session_to_doc(session)
    assertion_doc = creds.assertion_to_doc(assertion)
    assert creds.identity_from_doc(identity_doc) == identity
    assert creds.session_from_doc(session_doc) == session
    assert creds.assertion_from_doc(assertion_doc) == assertion

    results = []
    for doc in [identity_doc, *value_mutations(identity_doc, rng), session_doc]:
        results.append(assert_agrees(creds.identity_from_doc, oracles.identity_from_doc, doc))
    for doc in value_mutations(session_doc, rng):
        results.append(assert_agrees(creds.session_from_doc, oracles.session_from_doc, doc))
    for inner in value_mutations(identity_doc, rng):
        doc = dict(session_doc, identity=inner)
        results.append(assert_agrees(creds.session_from_doc, oracles.session_from_doc, doc))
    for doc in [*value_mutations(assertion_doc, rng), *rights_mutations(assertion_doc, rng)]:
        results.append(assert_agrees(creds.assertion_from_doc, oracles.assertion_from_doc, doc))
    for doc in (None, [], "x", 7, [assertion_doc], {}):
        for parse, frozen in (
            (creds.identity_from_doc, oracles.identity_from_doc),
            (creds.session_from_doc, oracles.session_from_doc),
            (creds.assertion_from_doc, oracles.assertion_from_doc),
        ):
            results.append(assert_agrees(parse, frozen, doc))
    # The mutations reach both outcomes, not only refusals.
    assert results.count("ok") > 10 and results.count("malformed") > 500


def random_timestamp_text(rng: random.Random) -> str:
    # Each field ranges a little past its valid values.
    fields = tuple(rng.randrange(limit) for limit in (10000, 15, 33, 26, 62, 62))
    text = "%04d-%02d-%02dT%02d:%02d:%02dZ" % fields
    if rng.random() < 0.2:
        index = rng.randrange(len(text))
        text = text[:index] + rng.choice("0٣９x: Z") + text[index + 1:]
    return text


@pytest.mark.parametrize("seed", range(4))
def test_parse_timestamp_agrees_with_strptime(seed):
    rng = random.Random(seed)
    texts = [random_timestamp_text(rng) for _ in range(2000)] + list(BAD_TIMESTAMPS + GOOD_TIMESTAMPS)
    texts += [None, 20030319, b"2003-03-19T08:30:53Z"]
    for text in texts:
        got = outcome(creds.parse_timestamp, text)
        want = outcome(oracles.parse_timestamp, text)
        # A refusal is a ValueError, which outcome() reports as a crash.
        if isinstance(text, str) and not text.isascii():
            assert got == ("crash", "ValueError"), (text, got)
        else:
            assert got == want, (text, got, want)
