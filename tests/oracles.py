"""Independent reference implementations used only as test oracles.

Everything here is deliberately written without looking at the package
code paths it checks: the glob matcher is a plain recursive backtracker
(no regex), the canonical encoder builds its JSON by string concatenation,
the grant/rescind model is a bare set of pairs, and the field splitter
is a character-by-character scanner.
"""

from __future__ import annotations

from datetime import datetime, timezone

from vo_authz.lineformat import LineFormatError


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
