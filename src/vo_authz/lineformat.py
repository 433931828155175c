"""Shared tokenizer for the line-oriented config and command formats.

All the artifact's text formats follow the same conventions: UTF-8,
newline-delimited, ``#`` starts a comment, blank lines are ignored,
fields are whitespace-separated, and a field may be double-quoted when
it contains spaces (distinguished names do). No escape sequences exist
inside quotes; a literal ``"`` is not representable and is rejected by
the field validators upstream.
"""

from __future__ import annotations

import re


class LineFormatError(ValueError):
    """A line could not be tokenized (unterminated quote, stray text)."""


class LineError(ValueError):
    """A line of a config, map, filter or command file failed to parse."""

    def __init__(self, line: int, reason: str):
        super().__init__("line %d: %s" % (line, reason))
        self.line = line


# One field per match, scanning left to right; whitespace between fields
# matches nothing and is skipped. ``\s`` is exactly ``str.isspace``. A
# quoted field must end at whitespace, ``#`` or the end of the line; a
# bare field runs up to whitespace or ``#`` and may hold ``"`` after its
# first character.
_FIELD_RE = re.compile(
    r'"([^"]*)"(?![^\s#])'  # quoted field
    r'|([^\s#"][^\s#]*)'  # bare field
    r'|("[^"]*")'  # quoted field with text abutting its closing quote
    r'|(")'  # unterminated quote
    r"|(#)"  # comment: ends the line
)
# One item of a comma-separated list per match; whitespace and commas
# between items match nothing and are skipped. A bare item runs to the
# next comma, and may hold ``"`` after its first character.
_LIST_ITEM_RE = re.compile(
    r'"([^"]*)"'  # quoted item
    r'|([^\s,"][^,]*)'  # bare item
    r'|(")'  # unterminated quote
)
_NEEDS_QUOTES = re.compile(r"[\s#]")
# A config value, with one space put before it: it runs up to a ``#``
# that is outside double quotes and follows whitespace, so a ``#`` that
# begins the value starts a comment too. An unterminated quote runs to
# the end of the line, for the caller's list parser to refuse.
_KV_VALUE_RE = re.compile(r'(?:"[^"]*(?:"|$)|[^\s"]|\s(?!#))*')


def split_fields(line: str) -> list[str]:
    """Split one line into fields, honoring quotes and ``#`` comments."""
    if "#" not in line:
        # The common case takes no regex: every quote pair encloses a
        # whole field. With the pairs' texts taken out, the line splits at
        # whitespace (``str.split`` cuts at ``str.isspace``, as ``\s``
        # does), and each such pair is left as a ``""`` field of its own;
        # a pair that abuts text or another pair is not. An unterminated
        # quote leaves one enclosed text more than there are pairs.
        parts = line.split('"')
        enclosed = parts[1::2]
        fields = '""'.join(parts[::2]).split()
        if fields.count('""') == len(enclosed):
            at = 0
            for value in enclosed:
                at = fields.index('""', at)
                fields[at] = value
            return fields
    fields = []
    for quoted, bare, abutting, unterminated, comment in _FIELD_RE.findall(line):
        if comment:
            break
        if abutting:
            raise LineFormatError("text abuts closing quote")
        if unterminated:
            raise LineFormatError("unterminated quote")
        fields.append(bare or quoted)
    return fields


def quote_field(value: str) -> str:
    """Quote a field for writing if the tokenizer would split or eat it."""
    if value == "" or _NEEDS_QUOTES.search(value):
        return '"%s"' % value
    return value


def parse_lines(text: str, usage: str | None, build, catch=ValueError) -> list:
    """``build(*fields)`` for every non-empty, non-comment line, in order.

    A line must have as many fields as ``usage`` names, or it fails
    with ``expected <usage>``; with ``usage`` None, ``build`` checks the
    count itself. A tokenizer error, a wrong count, or a ``catch``
    exception from ``build`` is re-raised as :class:`LineError` (line
    numbers from 1), caused by it.
    """
    arity = usage and len(usage.split())
    results = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            fields = split_fields(raw)
            if not fields:
                continue
            if arity and len(fields) != arity:
                raise ValueError("expected " + usage)
            results.append(build(*fields))
        except catch as exc:
            raise LineError(lineno, str(exc)) from exc
    return results


def parse_kv_config(text: str, keys) -> dict[str, str]:
    """Parse ``key = value`` configuration text whose keys are among ``keys``.

    Values keep everything after the first ``=`` up to a comment
    (trimmed); double quotes are preserved so list-valued keys can be
    re-tokenized by the caller. An unknown key and a repeated key are
    errors that name the key and its line.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise LineFormatError("line %d: expected key=value" % lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise LineFormatError("line %d: empty key" % lineno)
        if key not in keys:
            raise LineFormatError("line %d: unknown key %r" % (lineno, key))
        if key in out:
            raise LineFormatError("line %d: repeated key %r" % (lineno, key))
        out[key] = _KV_VALUE_RE.match(" " + value).group().strip()
    return out


def split_quoted_list(value: str) -> list[str]:
    """Split a comma-separated list whose items may be double-quoted.

    Bare items are trimmed, quoted ones kept as they are, and empty items
    dropped.
    """
    matches = _LIST_ITEM_RE.findall(value)
    if any(unterminated for _, _, unterminated in matches):
        raise LineFormatError("unterminated quote in list")
    return [quoted or bare.strip() for quoted, bare, _ in matches if quoted or bare]
