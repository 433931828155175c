"""Independent reference implementations used only as test oracles.

Everything here is deliberately written without looking at the package
code paths it checks: the glob matcher is a plain recursive backtracker
(no regex), the canonical encoder builds its JSON by string concatenation,
the grant/rescind model is a bare set of pairs, and the field and list
splitters are character-by-character scanners.

The signed-document parsers at the end are the other kind of oracle: the
package's earlier parsers (one field check per parser, rights entries
checked by set and ``isinstance``, timestamps through ``strptime``),
frozen as they were, so that a differential test can show the single
field-table parser accepts the same documents.
"""

from __future__ import annotations

import base64
import re
from datetime import datetime, timezone

from vo_authz.credentials import (
    Assertion,
    AssertionBody,
    IdentityCredential,
    MalformedCredential,
    SessionCredential,
)
from vo_authz.lineformat import LineFormatError
from vo_authz.policy import RightsTuple


def glob_match(pattern: str, target: str) -> bool:
    """Backtracking wildcard match: '*' matches any run of characters."""
    memo: dict[tuple[int, int], bool] = {}

    def go(i: int, j: int) -> bool:
        key = (i, j)
        if key in memo:
            return memo[key]
        if i == len(pattern):
            result = j == len(target)
        elif pattern[i] == "*":
            result = any(go(i + 1, k) for k in range(j, len(target) + 1))
        else:
            result = j < len(target) and pattern[i] == target[j] and go(i + 1, j + 1)
        memo[key] = result
        return result

    return go(0, 0)


def _json_string(s: str) -> str:
    # Minimal JSON string encoder: escape the two mandatory characters and
    # control characters; everything else passes through as UTF-8 text.
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _rfc3339(ts: datetime) -> str:
    ts = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second,
    )


def canonical_assertion_bytes(
    issuer: str,
    subject: str,
    serial: str,
    issued_at: datetime,
    not_after: datetime,
    rights: list[tuple[str, str, str, str]],
) -> bytes:
    """Reference canonical encoding of an assertion body.

    ``rights`` is a list of (service_type, action, target, match_mode)
    in the order they should appear.  Keys are emitted in hand-sorted
    order with no insignificant whitespace.
    """
    parts = ["{"]
    parts.append('"issued_at":' + _json_string(_rfc3339(issued_at)) + ",")
    parts.append('"issuer":' + _json_string(issuer) + ",")
    parts.append('"not_after":' + _json_string(_rfc3339(not_after)) + ",")
    encoded_rights = []
    for service_type, action, target, match_mode in rights:
        encoded_rights.append(
            "{"
            + '"action":' + _json_string(action) + ","
            + '"match_mode":' + _json_string(match_mode) + ","
            + '"service_type":' + _json_string(service_type) + ","
            + '"target":' + _json_string(target)
            + "}"
        )
    parts.append('"rights":[' + ",".join(encoded_rights) + "],")
    parts.append('"serial":' + _json_string(serial) + ",")
    parts.append('"subject":' + _json_string(subject) + ",")
    parts.append('"version":1')
    parts.append("}")
    return "".join(parts).encode("utf-8")


class GrantModel:
    """Naive model of a policy store's grant set: a bare set of pairs."""

    def __init__(self) -> None:
        self.pairs: set[tuple[str, tuple[str, str, str, str]]] = set()

    def grant(self, subject: str, tup: tuple[str, str, str, str]) -> None:
        self.pairs.add((subject, tup))

    def rescind(self, subject: str, tup: tuple[str, str, str, str]) -> None:
        self.pairs.discard((subject, tup))

    def rights_of(self, subject: str) -> list[tuple[str, str, str, str]]:
        return sorted(t for s, t in self.pairs if s == subject)


def split_fields(line: str) -> list[str]:
    """Character-by-character field splitter: quotes, ``#`` comments, ``str.isspace``."""
    fields: list[str] = []
    i, n = 0, len(line)
    while i < n:
        while i < n and line[i].isspace():
            i += 1
        if i >= n or line[i] == "#":
            break
        if line[i] == '"':
            end = line.find('"', i + 1)
            if end < 0:
                raise LineFormatError("unterminated quote")
            fields.append(line[i + 1:end])
            i = end + 1
            if i < n and not line[i].isspace() and line[i] != "#":
                raise LineFormatError("text abuts closing quote")
        else:
            start = i
            while i < n and not line[i].isspace() and line[i] != "#":
                i += 1
            fields.append(line[start:i])
    return fields


def split_quoted_list(value: str) -> list[str]:
    """Character-by-character splitter of a comma-separated list whose items may be quoted."""
    items: list[str] = []
    i, n = 0, len(value)
    while i < n:
        while i < n and (value[i].isspace() or value[i] == ","):
            i += 1
        if i >= n:
            break
        if value[i] == '"':
            end = value.find('"', i + 1)
            if end < 0:
                raise LineFormatError("unterminated quote in list")
            items.append(value[i + 1:end])
            i = end + 1
        else:
            start = i
            while i < n and value[i] != ",":
                i += 1
            items.append(value[start:i].strip())
    return [item for item in items if item]


# -- frozen signed-document parsers ----------------------------------------------

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z\Z")


def parse_timestamp(text: str) -> datetime:
    if not isinstance(text, str) or not _TIMESTAMP_RE.match(text):
        raise ValueError("bad timestamp %r" % (text,))
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def _unb64(text, what: str) -> bytes:
    if not isinstance(text, str):
        raise MalformedCredential("%s must be base64 text" % what)
    try:
        decoded = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise MalformedCredential("%s is not valid base64" % what) from exc
    if base64.b64encode(decoded).decode("ascii") != text:
        raise MalformedCredential("%s is not canonical base64" % what)
    return decoded


def _right_from_dict(data) -> RightsTuple:
    if set(data) != {"service_type", "action", "target", "match_mode"}:
        raise ValueError("bad rights tuple fields: %r" % sorted(data))
    if not all(isinstance(v, str) for v in data.values()):
        raise ValueError("rights tuple fields must be strings")
    return RightsTuple(data["service_type"], data["action"], data["target"], data["match_mode"])


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedCredential("%s must be a string" % what)
    return value


def _require_list(value) -> list:
    if not isinstance(value, list):
        raise MalformedCredential("rights must be a list")
    return value


def assertion_from_doc(doc) -> Assertion:
    if not isinstance(doc, dict):
        raise MalformedCredential("assertion document must be a JSON object")
    expected = {"issued_at", "issuer", "not_after", "rights", "serial", "subject", "version", "signature"}
    if set(doc) != expected:
        raise MalformedCredential("assertion document has wrong fields: %r" % sorted(doc))
    signature = _unb64(doc["signature"], "signature")
    try:
        rights = tuple(_right_from_dict(r) for r in _require_list(doc["rights"]))
        body = AssertionBody(
            issuer=_require_str(doc["issuer"], "issuer"),
            subject=_require_str(doc["subject"], "subject"),
            serial=_require_str(doc["serial"], "serial"),
            issued_at=parse_timestamp(doc["issued_at"]),
            not_after=parse_timestamp(doc["not_after"]),
            rights=rights,
            version=doc["version"] if isinstance(doc["version"], int) else -1,
        )
    except ValueError as exc:
        raise MalformedCredential("bad assertion body: %s" % exc) from exc
    if [r.as_dict() for r in body.rights] != doc["rights"]:
        raise MalformedCredential("assertion rights are not in canonical order")
    return Assertion(body=body, signature=signature)


def identity_from_doc(doc) -> IdentityCredential:
    if not isinstance(doc, dict) or doc.get("kind") != "identity":
        raise MalformedCredential("not an identity credential document")
    expected = {"kind", "subject", "public_key", "not_before", "not_after", "signature"}
    if set(doc) != expected:
        raise MalformedCredential("identity document has wrong fields: %r" % sorted(doc))
    try:
        return IdentityCredential(
            subject=_require_str(doc["subject"], "subject"),
            public_key=_unb64(doc["public_key"], "public_key"),
            not_before=parse_timestamp(doc["not_before"]),
            not_after=parse_timestamp(doc["not_after"]),
            signature=_unb64(doc["signature"], "signature"),
        )
    except ValueError as exc:
        raise MalformedCredential("bad identity credential: %s" % exc) from exc


def session_from_doc(doc) -> SessionCredential:
    if not isinstance(doc, dict) or doc.get("kind") != "session":
        raise MalformedCredential("not a session credential document")
    expected = {"kind", "identity", "session_public_key", "not_after", "delegation_signature"}
    if set(doc) != expected:
        raise MalformedCredential("session document has wrong fields: %r" % sorted(doc))
    try:
        return SessionCredential(
            identity=identity_from_doc(doc["identity"]),
            session_public_key=_unb64(doc["session_public_key"], "session_public_key"),
            not_after=parse_timestamp(doc["not_after"]),
            delegation_signature=_unb64(doc["delegation_signature"], "delegation_signature"),
        )
    except ValueError as exc:
        raise MalformedCredential("bad session credential: %s" % exc) from exc
