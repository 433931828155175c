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
from typing import Callable, Mapping, NamedTuple, Optional

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

    def __init__(self, code: str, message: str, status: int = 401):
        super().__init__(status, code, "%s: %s" % (code, message))


# -- canonical encoding ------------------------------------------------------


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _utc_seconds(ts: datetime, name: str) -> datetime:
    """``ts`` in UTC; a naive or fractional-second ``ts`` is refused, named ``name``."""
    if ts.utcoffset() is None:
        raise ValueError("%s must be timezone-aware" % name)
    ts = ts.astimezone(timezone.utc)
    if ts.microsecond:
        raise ValueError("%s must be whole seconds" % name)
    return ts


def format_timestamp(ts: datetime) -> str:
    return _TIMESTAMP.write(_utc_seconds(ts, "timestamps"))


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
    if not isinstance(pem, str):
        raise CredentialError("private key PEM must be text")
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
        object.__setattr__(self, "not_before", _utc_seconds(self.not_before, "not_before"))
        object.__setattr__(self, "not_after", _utc_seconds(self.not_after, "not_after"))
        if not self.not_before < self.not_after:
            raise ValueError("not_before must precede not_after")

    def signed_payload(self) -> bytes:
        return canonical_json(_to_doc(vars(self), _IDENTITY_BODY_FIELDS))


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
        object.__setattr__(self, "not_after", _utc_seconds(self.not_after, "not_after"))
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
    try:
        unsigned = SessionCredential(identity, session_public_key, floor_to_second(not_after), b"")
    except ValueError as exc:
        raise CredentialError(str(exc)) from exc
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
        object.__setattr__(self, "issued_at", _utc_seconds(self.issued_at, "issued_at"))
        object.__setattr__(self, "not_after", _utc_seconds(self.not_after, "not_after"))
        if not self.issued_at < self.not_after:
            raise ValueError("issued_at must precede not_after")
        object.__setattr__(self, "rights", sort_rights(self.rights))

    def signed_payload(self) -> bytes:
        """Deterministic bytes: equal bodies encode identically."""
        return canonical_json(_to_doc(vars(self), _BODY_FIELDS))


def fresh_serial() -> str:
    return secrets.token_hex(16)


@dataclass(frozen=True)
class Assertion:
    body: AssertionBody
    signature: bytes


def sign_assertion(body: AssertionBody, issuer_private_key: Ed25519PrivateKey) -> Assertion:
    return Assertion(body=body, signature=issuer_private_key.sign(body.signed_payload()))


def verify_assertion(
    assertion: Assertion,
    trusted_issuers: Mapping[str, bytes],
    now: datetime,
) -> AssertionBody:
    """Verify issuer trust, signature, and validity window; return the body.

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
    return body


# -- serialized documents ----------------------------------------------------
#
# A signed object is stored and transmitted as one JSON document. Each
# document's field table is the only description of its format: it names
# every field, in document order, with one of
#
# * a JSON type (``str``, ``int``): the value is taken as it is;
# * a ``_Codec``: the JSON type, and how the value is read and written
#   (timestamps, base64 bytes, the rights list, the nested identity);
# * a string: the value a ``kind`` field must equal.
#
# ``_from_doc`` reads every document and ``_to_doc`` writes every one. A
# document with unknown, missing or mistyped fields is refused, and each
# rights entry goes through ``RightsTuple.from_dict``, as a requested right
# does at the issuance service. An identity and an assertion sign their
# body table's document, the document without its signature, encoded
# canonically; a session's delegation signs its own payload
# (``SessionCredential.signed_payload``).


class _Codec(NamedTuple):
    """A field's JSON type, and how its value is read and written."""

    json_type: type
    read: Callable  # (JSON value, field name) -> value; may raise ValueError
    write: Callable  # a built object's value -> JSON value


# A built object's timestamps are UTC whole seconds already, so writing one checks
# nothing. ``isoformat`` pads the year to four digits, as ``strftime`` may not.
_TIMESTAMP = _Codec(str, lambda text, name: parse_timestamp(text), lambda ts: ts.isoformat()[:19] + "Z")
_BYTES = _Codec(str, _unb64, _b64)
_RIGHTS = _Codec(list, lambda entries, name: tuple(map(RightsTuple.from_dict, entries)),
                 lambda rights: [r.as_dict() for r in rights])
_IDENTITY = _Codec(dict, lambda doc, name: identity_from_doc(doc), lambda cred: identity_to_doc(cred))

_BODY_FIELDS = {"issued_at": _TIMESTAMP, "issuer": str, "not_after": _TIMESTAMP, "rights": _RIGHTS,
                "serial": str, "subject": str, "version": int}
_ASSERTION_FIELDS = {**_BODY_FIELDS, "signature": _BYTES}
_IDENTITY_BODY_FIELDS = {"kind": "identity", "subject": str, "public_key": _BYTES,
                         "not_before": _TIMESTAMP, "not_after": _TIMESTAMP}
_IDENTITY_FIELDS = {**_IDENTITY_BODY_FIELDS, "signature": _BYTES}
_SESSION_FIELDS = {"kind": "session", "identity": _IDENTITY, "session_public_key": _BYTES,
                   "not_after": _TIMESTAMP, "delegation_signature": _BYTES}


def _malformed(what: str, message: str) -> MalformedCredential:
    """The refusal of a document, named by the first word of ``what``."""
    return MalformedCredential("%s %s" % (what.partition(" ")[0], message))


def _from_doc(doc, table: Mapping[str, object], what: str, build):
    """``build(**values)``, the values read from a document with exactly ``table``'s fields.

    Each value must have its field's JSON type exactly (so ``true`` is no
    ``int``). ``what`` names the built object in messages ("identity
    credential"), and its first word names the document. A ``ValueError``
    from a codec or from ``build`` becomes :class:`MalformedCredential`.
    """
    if not isinstance(doc, dict):
        raise _malformed(what, "document must be a JSON object")
    if doc.keys() != table.keys():
        raise _malformed(what, "document has wrong fields: %r" % sorted(doc))
    values = {}
    try:
        for name, want in table.items():
            value = doc[name]
            if want.__class__ is str:
                if value != want:
                    raise _malformed(what, "field %r must be %r" % (name, want))
                continue
            json_type = want if want.__class__ is type else want.json_type
            if type(value) is not json_type:
                raise _malformed(what, "field %r must be %s" % (name, json_type.__name__))
            values[name] = value if json_type is want else want.read(value, name)
        return build(**values)
    except ValueError as exc:
        raise MalformedCredential("bad %s: %s" % (what, exc)) from exc


def _to_doc(values: Mapping[str, object], table: Mapping[str, object]) -> dict:
    """The document ``table`` describes, from a built object's field ``values``."""
    doc = {}
    for name, want in table.items():
        if want.__class__ is _Codec:
            doc[name] = want.write(values[name])
        elif want.__class__ is str:
            doc[name] = want
        else:
            doc[name] = values[name]
    return doc


def assertion_to_doc(assertion: Assertion) -> dict:
    return _to_doc(vars(assertion.body) | {"signature": assertion.signature}, _ASSERTION_FIELDS)


def assertion_from_doc(doc) -> Assertion:
    assertion = _from_doc(doc, _ASSERTION_FIELDS, "assertion body",
                          lambda signature, **body: Assertion(AssertionBody(**body), signature))
    if _RIGHTS.write(assertion.body.rights) != doc["rights"]:
        raise MalformedCredential("assertion rights are not in canonical order")
    return assertion


def identity_to_doc(credential: IdentityCredential) -> dict:
    return _to_doc(vars(credential), _IDENTITY_FIELDS)


def identity_from_doc(doc) -> IdentityCredential:
    return _from_doc(doc, _IDENTITY_FIELDS, "identity credential", IdentityCredential)


def session_to_doc(session: SessionCredential) -> dict:
    return _to_doc(vars(session), _SESSION_FIELDS)


def session_from_doc(doc) -> SessionCredential:
    return _from_doc(doc, _SESSION_FIELDS, "session credential", SessionCredential)


def read_identity_file(path: str) -> tuple[IdentityCredential, Optional[str]]:
    """Read an identity file: ``(credential, private_key_pem)``.

    An identity file is an identity document plus an optional
    ``private_key_pem`` field; the PEM is None when the file holds only
    the public part.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MalformedCredential("identity file is not JSON: %s" % exc) from exc
    pem = doc.pop("private_key_pem", None) if isinstance(doc, dict) else None
    return identity_from_doc(doc), pem


# -- challenge-response handshake --------------------------------------------
#
# The verifier sends a fresh 32-byte nonce; the prover answers with its
# credential chain and an Ed25519 signature over nonce || AUTH_CONTEXT
# made with the session key. One direction only: clients prove their
# identity to services, and a service learns the peer's subject DN.


def send_challenge(channel) -> bytes:
    """Start the verifier side of the handshake: send a fresh nonce, and return it."""
    nonce = secrets.token_bytes(32)
    channel.send_frame({"type": "challenge", "nonce": _b64(nonce)})
    return nonce


def authenticate_peer(channel, trust_root: bytes, now: datetime, nonce: bytes) -> SessionCredential:
    """Check the auth frame that answers ``nonce``; return the peer's verified session.

    A server's channel has the frame buffered already; a read that
    failed because the peer sent nothing in time is refused ``timeout``.
    """
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
    return session


def answer_challenge(channel, bundle: SessionBundle, request: Optional[dict] = None) -> None:
    """Run the prover side: consume the challenge, send the auth frame.

    A first ``request``, if given, leaves in the same write as the auth
    frame.
    """
    frame = channel.recv_frame()
    if frame["type"] == "response":  # refused before the challenge, as 503 busy is
        status = frame.get("status") if type(frame.get("status")) is int else 401
        raise HandshakeError(str(frame.get("code")), str(frame.get("message")), status)
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
