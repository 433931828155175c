"""Credentials and signed assertions.

Three signed objects make up the trust chain:

* an identity credential: a subject DN and public key, signed by the
  flat trust root (the artifact's stand-in for a CA hierarchy);
* a session credential: a short-lived keypair delegated from an
  identity, signed by the identity key (the proxy in proxy-credential
  parlance);
* an assertion: an issuer's time-bounded statement binding a subject
  to a list of rights tuples, signed by the issuer's identity key.

All signatures are Ed25519 over a canonical encoding: key-sorted
compact JSON, UTF-8, timestamps as RFC 3339 UTC at seconds precision.
Public keys travel as raw 32-byte values (base64 in JSON); private
keys only ever live in PEM files owned by their component.
"""

from __future__ import annotations

import base64
import json
import re
import secrets
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from typing import Callable, Mapping, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import wire
from .policy import RightsTuple, sort_rights, validate_subject_dn

AUTH_CONTEXT = b"vo-authz-auth-v1"
CLOCK_SKEW = timedelta(seconds=300)  # how early a validity window may be entered
DEFAULT_LIFETIME_SECONDS = 43200  # 12 hours, for sessions and assertions alike

_SERIAL_RE = re.compile(r"[0-9a-f]{32}\Z")
# ASCII digits only: ``\d`` would also match other scripts' digits,
# which ``int`` accepts.
_TIMESTAMP_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z\Z")


class CredentialError(Exception):
    """Base class for credential and assertion failures."""

    code = "bad-assertion"  # what a service answers and audits


class MalformedCredential(CredentialError):
    """A serialized credential or assertion did not parse."""


class UntrustedIssuer(CredentialError):
    """The assertion's issuer is not in the trust set."""

    code = "untrusted-issuer"


class BadSignature(CredentialError):
    """A signature did not verify."""

    code = "bad-signature"


class NotYetValid(CredentialError):
    """The validity window has not opened (beyond clock skew)."""

    code = "not-yet-valid"


class Expired(CredentialError):
    """The validity window has closed."""

    code = "expired"


class HandshakeError(wire.Refusal, CredentialError):
    """Challenge-response authentication failed; a service answers 401."""

    def __init__(self, code: str, message: str):
        super().__init__(401, code, "%s: %s" % (code, message))


# -- canonical encoding ------------------------------------------------------


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def format_timestamp(ts: datetime) -> str:
    if ts.tzinfo is None:
        raise ValueError("timestamps must be timezone-aware")
    ts = ts.astimezone(timezone.utc)
    if ts.microsecond:
        raise ValueError("timestamps must be whole seconds")
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_timestamp(text: str) -> datetime:
    match = _TIMESTAMP_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError("bad timestamp %r" % (text,))
    # The constructor rejects out-of-range fields (02-30, 24:00:00, :60, year 0).
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


def floor_to_second(ts: datetime) -> datetime:
    return ts.replace(microsecond=0)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text, what: str) -> bytes:
    if not isinstance(text, str):
        raise MalformedCredential("%s must be base64 text" % what)
    try:
        decoded = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise MalformedCredential("%s is not valid base64" % what) from exc
    # Canonical form only: otherwise unused slack bits in the final
    # character give one value several encodings.
    if _b64(decoded) != text:
        raise MalformedCredential("%s is not canonical base64" % what)
    return decoded


# -- key material ------------------------------------------------------------


def generate_keypair() -> tuple[Ed25519PrivateKey, bytes]:
    """Return a fresh private key and its raw 32-byte public key."""
    private = Ed25519PrivateKey.generate()
    return private, raw_public_key(private.public_key())


def raw_public_key(key: Ed25519PublicKey) -> bytes:
    return key.public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


def public_key_from_raw(raw: bytes) -> Ed25519PublicKey:
    if not isinstance(raw, bytes) or len(raw) != 32:
        raise MalformedCredential("public key must be 32 raw bytes")
    return Ed25519PublicKey.from_public_bytes(raw)


def private_key_to_pem(key: Ed25519PrivateKey, passphrase: Optional[bytes] = None) -> str:
    if passphrase:
        algo = serialization.BestAvailableEncryption(passphrase)
    else:
        algo = serialization.NoEncryption()
    return key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8, algo
    ).decode("ascii")


def private_key_from_pem(pem: str, passphrase: Optional[bytes] = None) -> Ed25519PrivateKey:
    try:
        key = serialization.load_pem_private_key(pem.encode("ascii"), password=passphrase)
    except (ValueError, TypeError) as exc:
        raise CredentialError("cannot decrypt private key: %s" % exc) from exc
    if not isinstance(key, Ed25519PrivateKey):
        raise CredentialError("private key is not Ed25519")
    return key


def public_key_to_pem(raw: bytes) -> str:
    return public_key_from_raw(raw).public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    ).decode("ascii")


def public_key_from_pem(pem: str) -> bytes:
    try:
        key = serialization.load_pem_public_key(pem.encode("ascii"))
    except (ValueError, TypeError) as exc:
        raise CredentialError("bad public key PEM: %s" % exc) from exc
    if not isinstance(key, Ed25519PublicKey):
        raise CredentialError("public key is not Ed25519")
    return raw_public_key(key)


def _check_signature(raw_key: bytes, signature: bytes, payload: bytes) -> None:
    """Verify one Ed25519 signature; raise ``InvalidSignature`` if it fails."""
    public_key_from_raw(raw_key).verify(signature, payload)


VERIFIED_CACHE_ENTRIES = 8192
VERIFIED_CACHE_PAYLOAD_BYTES = 4096


@lru_cache(maxsize=VERIFIED_CACHE_ENTRIES)
def _check_signature_cached(raw_key: bytes, signature: bytes, payload: bytes) -> None:
    _check_signature(raw_key, signature, payload)


def _verify(raw_key: bytes, signature: bytes, payload: bytes) -> bool:
    """Verify a credential signature through the verified-signature cache.

    Ed25519 verification is a pure function of (public key, signature,
    payload), so one success stands for every later check of the same
    bytes. The three credential signatures (identity, delegation,
    assertion) come through here; the handshake's nonce signature never
    does. A failure raises inside the cached helper, and ``lru_cache``
    stores no exception, so forgeries cannot grow the cache. Callers
    still run their validity-window, subject and issuer checks on every
    call, hit or miss.

    Bound: at most ``VERIFIED_CACHE_ENTRIES`` (8192) successes, least
    recently used out first, and only payloads of up to
    ``VERIFIED_CACHE_PAYLOAD_BYTES`` (4 KiB) are cached; larger ones
    always verify afresh. An entry holds a 32-byte key, a 64-byte
    signature, its payload and about 250 bytes of object overhead, so a
    full cache takes at most about 8192 * 4.4 KiB, or 36 MB (measured
    with tracemalloc). Identity and delegation payloads are about 200
    bytes, and 8192 entries of that size take 4.5 MB.
    """
    if len(payload) <= VERIFIED_CACHE_PAYLOAD_BYTES:
        check = _check_signature_cached
    else:
        check = _check_signature
    try:
        check(raw_key, signature, payload)
        return True
    except InvalidSignature:
        return False


def _validate_window_field(ts: datetime, name: str) -> datetime:
    if ts.tzinfo is None or ts.utcoffset() is None:
        raise ValueError("%s must be timezone-aware" % name)
    if ts.astimezone(timezone.utc).microsecond:
        raise ValueError("%s must be whole seconds" % name)
    return ts.astimezone(timezone.utc)


def _check_window(what: str, now: datetime, not_after: datetime, not_before: Optional[datetime] = None) -> None:
    """Raise unless ``now`` is inside ``[not_before - CLOCK_SKEW, not_after)``."""
    if not_before is not None and now < not_before - CLOCK_SKEW:
        raise NotYetValid("%s not valid before %s" % (what, format_timestamp(not_before)))
    if now >= not_after:
        raise Expired("%s expired at %s" % (what, format_timestamp(not_after)))


# -- identity and session credentials ---------------------------------------


@dataclass(frozen=True)
class IdentityCredential:
    """Long-term identity: subject DN and public key, trust-root signed."""

    subject: str
    public_key: bytes
    not_before: datetime
    not_after: datetime
    signature: bytes

    def __post_init__(self):
        validate_subject_dn(self.subject)
        if len(self.public_key) != 32:
            raise ValueError("public key must be 32 raw bytes")
        object.__setattr__(self, "not_before", _validate_window_field(self.not_before, "not_before"))
        object.__setattr__(self, "not_after", _validate_window_field(self.not_after, "not_after"))
        if not self.not_before < self.not_after:
            raise ValueError("not_before must precede not_after")

    def signed_payload(self) -> bytes:
        doc = identity_to_doc(self)
        del doc["signature"]
        return canonical_json(doc)


@dataclass(frozen=True)
class SessionCredential:
    """Short-lived delegated keypair; cannot outlive its identity."""

    identity: IdentityCredential
    session_public_key: bytes
    not_after: datetime
    delegation_signature: bytes

    def __post_init__(self):
        if len(self.session_public_key) != 32:
            raise ValueError("session public key must be 32 raw bytes")
        object.__setattr__(self, "not_after", _validate_window_field(self.not_after, "not_after"))
        if self.not_after > self.identity.not_after:
            raise ValueError(
                "session may not outlive its identity (identity expires %s)"
                % format_timestamp(self.identity.not_after)
            )

    def signed_payload(self) -> bytes:
        """The delegation, which names the identity by its subject alone."""
        return canonical_json({
            "kind": "session-delegation",
            "not_after": format_timestamp(self.not_after),
            "session_public_key": _b64(self.session_public_key),
            "subject": self.identity.subject,
        })


def delegate_session(
    identity: IdentityCredential,
    identity_private_key: Ed25519PrivateKey,
    session_public_key: bytes,
    not_after: datetime,
) -> SessionCredential:
    """Sign a session credential with the identity key."""
    not_after = floor_to_second(not_after)
    if not_after > identity.not_after:
        raise CredentialError(
            "requested lifetime exceeds the identity window (identity expires %s)"
            % format_timestamp(identity.not_after)
        )
    unsigned = SessionCredential(identity, session_public_key, not_after, delegation_signature=b"")
    return replace(unsigned, delegation_signature=identity_private_key.sign(unsigned.signed_payload()))


def verify_identity(credential: IdentityCredential, trust_root: bytes, now: datetime) -> None:
    """Check an identity credential against the trust root at time ``now``."""
    if not _verify(trust_root, credential.signature, credential.signed_payload()):
        raise BadSignature("identity credential signature does not verify")
    _check_window("identity", now, credential.not_after, credential.not_before)


def verify_session_chain(session: SessionCredential, trust_root: bytes, now: datetime) -> None:
    """Check the identity-to-session chain down from the trust root."""
    verify_identity(session.identity, trust_root, now)
    if not _verify(session.identity.public_key, session.delegation_signature, session.signed_payload()):
        raise BadSignature("session delegation signature does not verify")
    _check_window("session", now, session.not_after)


@dataclass(frozen=True)
class SessionBundle:
    """A session credential together with its private key."""

    session: SessionCredential
    private_key: Ed25519PrivateKey

    @property
    def subject(self) -> str:
        return self.session.identity.subject


# -- assertions --------------------------------------------------------------


@dataclass(frozen=True)
class AssertionBody:
    """The signed statement: issuer says subject holds these rights."""

    issuer: str
    subject: str
    serial: str
    issued_at: datetime
    not_after: datetime
    rights: tuple[RightsTuple, ...]
    version: int = 1

    def __post_init__(self):
        if self.version != 1:
            raise ValueError("unsupported assertion version %r" % self.version)
        validate_subject_dn(self.issuer)
        validate_subject_dn(self.subject)
        if not _SERIAL_RE.match(self.serial):
            raise ValueError("serial must be 32 lowercase hex digits")
        object.__setattr__(self, "issued_at", _validate_window_field(self.issued_at, "issued_at"))
        object.__setattr__(self, "not_after", _validate_window_field(self.not_after, "not_after"))
        if not self.issued_at < self.not_after:
            raise ValueError("issued_at must precede not_after")
        object.__setattr__(self, "rights", sort_rights(self.rights))

    def signed_payload(self) -> bytes:
        """Deterministic bytes: equal bodies encode identically."""
        return canonical_json(_body_dict(self))


def fresh_serial() -> str:
    return secrets.token_hex(16)


def _body_dict(body: AssertionBody) -> dict:
    return {
        "issued_at": format_timestamp(body.issued_at),
        "issuer": body.issuer,
        "not_after": format_timestamp(body.not_after),
        "rights": [r.as_dict() for r in body.rights],
        "serial": body.serial,
        "subject": body.subject,
        "version": body.version,
    }


@dataclass(frozen=True)
class Assertion:
    body: AssertionBody
    signature: bytes


@dataclass(frozen=True)
class VerifiedRights:
    """What a successfully verified assertion establishes."""

    issuer: str
    subject: str
    rights: tuple[RightsTuple, ...]


def sign_assertion(body: AssertionBody, issuer_private_key: Ed25519PrivateKey) -> Assertion:
    return Assertion(body=body, signature=issuer_private_key.sign(body.signed_payload()))


def verify_assertion(
    assertion: Assertion,
    trusted_issuers: Mapping[str, bytes],
    now: datetime,
) -> VerifiedRights:
    """Verify issuer trust, signature, and validity window.

    The window is half-open: ``now == issued_at`` is valid (and clock
    skew stretches the opening edge), ``now == not_after`` is expired.
    """
    body = assertion.body
    issuer_key = trusted_issuers.get(body.issuer)
    if issuer_key is None:
        raise UntrustedIssuer("issuer %r is not trusted" % body.issuer)
    if not _verify(issuer_key, assertion.signature, body.signed_payload()):
        raise BadSignature("assertion signature does not verify")
    _check_window("assertion", now, body.not_after, body.issued_at)
    return VerifiedRights(issuer=body.issuer, subject=body.subject, rights=body.rights)


# -- serialized documents ----------------------------------------------------
#
# A signed object is stored and transmitted as one JSON document: the
# canonical body fields plus a base64 signature field. Each document has
# one field table naming every field and its JSON type, and its parser
# checks the table once: unknown, missing or mistyped fields reject the
# document, and a ``kind`` must be the table's string. Each rights entry
# goes through ``RightsTuple.from_dict``, as a requested right does at
# the issuance service. For an identity and an assertion the signed
# payload is the document without its signature, encoded canonically; a
# session's delegation signs its own payload
# (``SessionCredential.signed_payload``).

_ASSERTION_FIELDS = {"issued_at": str, "issuer": str, "not_after": str, "rights": list,
                     "serial": str, "subject": str, "version": int, "signature": str}
_IDENTITY_FIELDS = {"kind": "identity", "subject": str, "public_key": str,
                    "not_before": str, "not_after": str, "signature": str}
_SESSION_FIELDS = {"kind": "session", "identity": dict, "session_public_key": str,
                   "not_after": str, "delegation_signature": str}


def _fields(doc, schema: Mapping[str, object], what: str) -> dict:
    """Return ``doc`` if it has exactly ``schema``'s fields, each as typed.

    A schema value is a type, which the field's value must have exactly
    (so ``true`` is no ``int``), or a string the value must equal.
    """
    if not isinstance(doc, dict):
        raise MalformedCredential("%s document must be a JSON object" % what)
    if doc.keys() != schema.keys():
        raise MalformedCredential("%s document has wrong fields: %r" % (what, sorted(doc)))
    for name, want in schema.items():
        value = doc[name]
        if isinstance(want, str):
            if value != want:
                raise MalformedCredential("%s field %r must be %r" % (what, name, want))
        elif type(value) is not want:
            raise MalformedCredential("%s field %r must be %s" % (what, name, want.__name__))
    return doc


def assertion_to_doc(assertion: Assertion) -> dict:
    doc = _body_dict(assertion.body)
    doc["signature"] = _b64(assertion.signature)
    return doc


def assertion_from_doc(doc) -> Assertion:
    doc = _fields(doc, _ASSERTION_FIELDS, "assertion")
    signature = _unb64(doc["signature"], "signature")
    try:
        body = AssertionBody(
            issuer=doc["issuer"],
            subject=doc["subject"],
            serial=doc["serial"],
            issued_at=parse_timestamp(doc["issued_at"]),
            not_after=parse_timestamp(doc["not_after"]),
            rights=tuple(RightsTuple.from_dict(r) for r in doc["rights"]),
            version=doc["version"],
        )
    except ValueError as exc:
        raise MalformedCredential("bad assertion body: %s" % exc) from exc
    if [r.as_dict() for r in body.rights] != doc["rights"]:
        raise MalformedCredential("assertion rights are not in canonical order")
    return Assertion(body=body, signature=signature)


def identity_to_doc(credential: IdentityCredential) -> dict:
    return {
        "kind": "identity",
        "subject": credential.subject,
        "public_key": _b64(credential.public_key),
        "not_before": format_timestamp(credential.not_before),
        "not_after": format_timestamp(credential.not_after),
        "signature": _b64(credential.signature),
    }


def identity_from_doc(doc) -> IdentityCredential:
    doc = _fields(doc, _IDENTITY_FIELDS, "identity")
    try:
        return IdentityCredential(
            subject=doc["subject"],
            public_key=_unb64(doc["public_key"], "public_key"),
            not_before=parse_timestamp(doc["not_before"]),
            not_after=parse_timestamp(doc["not_after"]),
            signature=_unb64(doc["signature"], "signature"),
        )
    except ValueError as exc:
        raise MalformedCredential("bad identity credential: %s" % exc) from exc


def session_to_doc(session: SessionCredential) -> dict:
    return {
        "kind": "session",
        "identity": identity_to_doc(session.identity),
        "session_public_key": _b64(session.session_public_key),
        "not_after": format_timestamp(session.not_after),
        "delegation_signature": _b64(session.delegation_signature),
    }


def session_from_doc(doc) -> SessionCredential:
    doc = _fields(doc, _SESSION_FIELDS, "session")
    try:
        return SessionCredential(
            identity=identity_from_doc(doc["identity"]),
            session_public_key=_unb64(doc["session_public_key"], "session_public_key"),
            not_after=parse_timestamp(doc["not_after"]),
            delegation_signature=_unb64(doc["delegation_signature"], "delegation_signature"),
        )
    except ValueError as exc:
        raise MalformedCredential("bad session credential: %s" % exc) from exc


# -- challenge-response handshake --------------------------------------------
#
# The verifier sends a fresh 32-byte nonce; the prover answers with its
# credential chain and an Ed25519 signature over nonce || AUTH_CONTEXT
# made with the session key. One direction only: clients prove their
# identity to services.


@dataclass(frozen=True)
class AuthenticatedPeer:
    subject: str
    session_public_key: bytes


def authenticate_peer(channel, trust_root: bytes, now: datetime) -> AuthenticatedPeer:
    """Run the verifier side of the handshake on a framed channel."""
    nonce = secrets.token_bytes(32)
    channel.send_frame({"type": "challenge", "nonce": _b64(nonce)})
    try:
        frame = channel.recv_frame()
    except wire.ChannelTimeout as exc:
        raise HandshakeError("timeout", str(exc)) from exc
    if frame["type"] != "auth":
        raise HandshakeError("protocol", "expected auth frame, got %r" % frame["type"])
    try:
        session = session_from_doc(frame.get("session"))
        nonce_signature = _unb64(frame.get("nonce_signature"), "nonce_signature")
    except MalformedCredential as exc:
        raise HandshakeError("chain-invalid", str(exc)) from exc
    try:
        verify_session_chain(session, trust_root, now)
    except (NotYetValid, Expired) as exc:
        raise HandshakeError("expired", str(exc)) from exc
    except CredentialError as exc:
        raise HandshakeError("chain-invalid", str(exc)) from exc
    # The nonce is fresh, so its signature is checked afresh: never cached.
    try:
        _check_signature(session.session_public_key, nonce_signature, nonce + AUTH_CONTEXT)
    except InvalidSignature:
        raise HandshakeError("nonce-mismatch", "nonce signature does not verify") from None
    return AuthenticatedPeer(
        subject=session.identity.subject,
        session_public_key=session.session_public_key,
    )


def answer_challenge(channel, bundle: SessionBundle, request: Optional[dict] = None) -> None:
    """Run the prover side: consume the challenge, send the auth frame.

    A first ``request``, if given, leaves in the same write as the auth
    frame.
    """
    frame = channel.recv_frame()
    if frame["type"] == "response":  # refused before the challenge, as 503 busy is
        raise HandshakeError(str(frame.get("code")), str(frame.get("message")))
    if frame["type"] != "challenge":
        raise HandshakeError("protocol", "expected challenge frame, got %r" % frame["type"])
    nonce = _unb64(frame.get("nonce"), "nonce")
    auth = {
        "type": "auth",
        "session": session_to_doc(bundle.session),
        "nonce_signature": _b64(bundle.private_key.sign(nonce + AUTH_CONTEXT)),
    }
    frames = [auth] if request is None else [auth, request]
    channel.send_frames(*frames)


Clock = Callable[[], datetime]


def utc_now() -> datetime:
    """Default clock: timezone-aware UTC now, floored to whole seconds."""
    return floor_to_second(datetime.now(timezone.utc))
