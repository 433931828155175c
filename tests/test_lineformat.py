from __future__ import annotations

import collections
import random

import pytest

from vo_authz import file_server, lineformat, policy

from vo_authz.engine import parse_filter_file
from vo_authz.file_server import (
    parse_account_table,
    parse_grid_map,
    parse_role_map,
)
from vo_authz.lineformat import (
    LineError,
    LineFormatError,
    parse_kv_config,
    quote_field,
    split_fields,
    split_quoted_list,
)
from vo_authz.policy import PolicyStore, apply_command_file

from . import oracles


@pytest.mark.parametrize(
    "line,expected",
    [
        ("", []),
        ("   ", []),
        ("# all comment", []),
        ("a b c", ["a", "b", "c"]),
        ("  a\tb  ", ["a", "b"]),
        ('user "/O=x/CN=A B" rest', ["user", "/O=x/CN=A B", "rest"]),
        ('a "" b', ["a", "", "b"]),
        ("a b # trailing", ["a", "b"]),
        ('"quoted#nothash" x', ["quoted#nothash", "x"]),
        ('grant "/O=x/CN=A" member atlas/admin', ["grant", "/O=x/CN=A", "member", "atlas/admin"]),
    ],
)
def test_split_fields(line, expected):
    assert split_fields(line) == expected


def test_split_fields_unterminated_quote():
    with pytest.raises(LineFormatError):
        split_fields('user "/O=x/CN=A')


def test_split_fields_text_abutting_quote():
    with pytest.raises(LineFormatError):
        split_fields('"a"b')


# Every code point, surrogates included.
ALL_CODE_POINTS = "".join(map(chr, range(0x110000)))


def test_split_fields_cuts_at_exactly_the_isspace_code_points():
    # Each code point but the two syntax characters, followed by "x".
    line = "".join(c + "x" for c in ALL_CODE_POINTS if c not in '#"')
    fields = split_fields(line)
    assert fields == oracles.split_fields(line)
    assert len(fields) == sum(c.isspace() for c in ALL_CODE_POINTS) + 1


def test_character_classes_match_isspace_and_control_over_every_code_point():
    def chars(predicate):
        return [c for c in ALL_CODE_POINTS if predicate(c)]

    assert lineformat._NEEDS_QUOTES.findall(ALL_CODE_POINTS) == chars(
        lambda c: c.isspace() or c == "#"
    )
    assert policy._UNREPRESENTABLE_IN_TARGET.findall(ALL_CODE_POINTS) == chars(
        lambda c: c.isspace() or c == '"'
    )
    assert policy._UNREPRESENTABLE_IN_DN.findall(ALL_CODE_POINTS) == chars(
        lambda c: ord(c) < 0x20 or c == '"'
    )
    assert file_server._CONTROL_CHAR.findall(ALL_CODE_POINTS) == chars(lambda c: ord(c) < 0x20)
    assert file_server._audit_field(ALL_CODE_POINTS) == "".join(
        "?" if ord(c) < 0x20 else c for c in ALL_CODE_POINTS
    )


def test_validators_accept_every_code_point_but_their_excluded_ones():
    printable = "".join(c for c in ALL_CODE_POINTS if ord(c) >= 0x20 and c != '"')
    dn = "/CN=x" + printable + "x"
    assert policy.validate_subject_dn(dn) == dn
    file_server.canonical_path("/" + printable)
    for c in map(chr, range(0x20)):
        with pytest.raises(ValueError):
            policy.validate_subject_dn("/CN=a%sb" % c)
        with pytest.raises(file_server.PathError):
            file_server.canonical_path("/a%sb" % c)


# Quotes, comments, ASCII and Unicode whitespace (tab, NBSP, NEL, the
# information separators U+001C-U+001F, em space, ideographic space),
# ASCII and non-ASCII text.
FIELD_ALPHABET = ['"', '"', "#", " ", " ", "\t", "\xa0", "\x85", "\x1c", "\x1f",
                  "\u2003", "\u3000", "a", "b", "/", "=", "\u00e9", "\u4e2d", "\x01"]


def outcome(split, line):
    try:
        return split(line)
    except LineFormatError as exc:
        return ("error", str(exc))


def test_split_fields_agrees_with_the_character_scanner():
    rng = random.Random(20031)
    kinds = collections.Counter()
    for _ in range(20000):
        line = "".join(rng.choice(FIELD_ALPHABET) for _ in range(rng.randrange(24)))
        expected = outcome(oracles.split_fields, line)
        assert outcome(split_fields, line) == expected, repr(line)
        kinds[expected[1] if isinstance(expected, tuple) else "fields"] += 1
    # Good lines and both error kinds each occur often.
    assert min(kinds.values()) > 1000, kinds
    assert len(kinds) == 3, kinds


# Command-line pieces: verbs, bare fields, quoted DNs with spaces, a
# "#" inside a quoted field and comments after one, a bare field with an
# inner quote, abutting quotes, and an unterminated quote.
COMMAND_PIECES = [
    "grant", "rescind", "user", "object", "servicetype", "member", "read,write",
    "vo/r01", "ftp://fs/home/*", "exact", "wildcard", "/O=vo/CN=m00001",
    '"/O=vo/OU=People/CN=Member 12"', '"/O=x/CN=Has # hash"', '""', '"vo/r02"',
    "# a comment", "#", 'a"b', 'x"y z"', '"a"b', '"x""y"', '"/O=vo/CN=open', '"',
]
COMMAND_SEPARATORS = [" ", " ", " ", "  ", "\t", "\u3000", ""]


def test_split_fields_agrees_with_the_character_scanner_on_command_lines():
    rng = random.Random(20033)
    kinds = collections.Counter()
    for _ in range(20000):
        line = rng.choice(["", " ", "\t"]) + rng.choice(COMMAND_PIECES[:5])
        for _ in range(rng.randrange(6)):
            line += rng.choice(COMMAND_SEPARATORS) + rng.choice(COMMAND_PIECES)
        line += rng.choice(["", " ", "\t"])
        expected = outcome(oracles.split_fields, line)
        assert outcome(split_fields, line) == expected, repr(line)
        if isinstance(expected, tuple):
            kinds[expected[1]] += 1
        else:
            kinds["fields, %s quotes" % ("with" if '"' in line else "no")] += 1
    # Good lines with and without quotes and both error kinds each occur often.
    assert min(kinds.values()) > 1000, kinds
    assert len(kinds) == 4, kinds


def test_command_files_of_quoted_dns_split_without_the_regex(monkeypatch):
    calls = collections.Counter()

    class CountingPattern:
        def findall(self, line):
            calls[line] += 1
            return field_re.findall(line)

    field_re = lineformat._FIELD_RE
    monkeypatch.setattr(lineformat, "_FIELD_RE", CountingPattern())
    dns = ["/O=vo/OU=People/CN=Member %d" % i for i in range(200)]
    lines = ["servicetype group member", "servicetype file read,write", "object group vo/r01"]
    lines += ['user "%s"' % dn for dn in dns]
    lines += ['grant "%s" member vo/r01 exact' % dn for dn in dns]
    lines += ['grant "%s" read "ftp://fs/home/*" wildcard' % dn for dn in dns]
    lines += ['grant "%s" write ftp://fs/%d/* wildcard' % (dn, i) for i, dn in enumerate(dns)]
    lines += ['rescind "%s" member vo/r01' % dn for dn in dns[:197]]
    assert len(lines) == 1000
    store, applied = apply_command_file(PolicyStore(), "\n".join(lines) + "\n")
    assert applied == 1000 and len(store.grants) == 403
    assert not calls
    # A line with a comment still takes the regex.
    assert split_fields('grant "%s" # comment' % dns[0]) == ["grant", dns[0]]
    assert sum(calls.values()) == 1


def test_quote_field_round_trips_through_split():
    for value in ["plain", "has space", "", "a#b", "/O=x/CN=A B"]:
        line = "verb %s tail" % quote_field(value)
        assert split_fields(line) == ["verb", value, "tail"]


@pytest.mark.parametrize(
    "parse,bad_line",
    [
        (parse_role_map, '"demo/admin admin'),
        (parse_grid_map, '"/O=x/CN=A"'),
        (parse_account_table, "admin /home"),
        (parse_filter_file, "group member demo/data"),
        (
            lambda text: apply_command_file(PolicyStore(), text),
            "grant /O=x/CN=A member demo/data",
        ),
    ],
    ids=["role_map", "grid_map", "account_table", "filter_file", "command_file"],
)
def test_line_file_error_names_the_line(parse, bad_line):
    # Comment and blank lines are skipped but still counted.
    with pytest.raises(LineError) as exc:
        parse("# comment\n\n%s\n" % bad_line)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: ")


KV_KEYS = ("listen", "key_file", "max", "admin_dns", "k", "snapshot_file")


def test_parse_kv_config():
    text = "# cas config\nlisten = :9000\nkey_file= cas_key.pem\nmax = 43200\n"
    assert parse_kv_config(text, KV_KEYS) == {
        "listen": ":9000",
        "key_file": "cas_key.pem",
        "max": "43200",
    }


def test_parse_kv_config_keeps_value_quotes():
    text = 'admin_dns = "/O=x/CN=A", "/O=x/CN=B"\n'
    value = parse_kv_config(text, KV_KEYS)["admin_dns"]
    assert split_quoted_list(value) == ["/O=x/CN=A", "/O=x/CN=B"]


def test_parse_kv_config_value_may_contain_equals():
    assert parse_kv_config("k = a=b\n", KV_KEYS) == {"k": "a=b"}


def test_parse_kv_config_rejects_bare_word():
    with pytest.raises(LineFormatError):
        parse_kv_config("not a kv line\n", KV_KEYS)


@pytest.mark.parametrize(
    "line, value",
    [
        ("snapshot_file = policy.snapshot  # kept across restarts", "policy.snapshot"),
        ("snapshot_file = policy.snapshot\t# tab", "policy.snapshot"),
        ("snapshot_file = # nothing", ""),
        ("snapshot_file =#nothing", ""),
        ("snapshot_file = a#b", "a#b"),
        ('admin_dns = "/O=x/CN=A", "/O=x/CN=B"  # two admins', '"/O=x/CN=A", "/O=x/CN=B"'),
        ('admin_dns = "/O=x/CN=A #1" # one admin', '"/O=x/CN=A #1"'),
        ('admin_dns = "/O=x/CN=A # open', '"/O=x/CN=A # open'),
    ],
)
def test_parse_kv_config_comment_starts_at_a_hash_after_whitespace_outside_quotes(
    line, value
):
    key = line.partition(" ")[0]
    assert parse_kv_config(line + "\n", KV_KEYS) == {key: value}


@pytest.mark.parametrize(
    "value,expected",
    [
        ("", []),
        ("a", ["a"]),
        ("a, b ,c", ["a", "b", "c"]),
        ('"x, y", z', ["x, y", "z"]),
        ('"only"', ["only"]),
        (" , ,", []),
    ],
)
def test_split_quoted_list(value, expected):
    assert split_quoted_list(value) == expected


def test_split_quoted_list_unterminated():
    with pytest.raises(LineFormatError):
        split_quoted_list('"a, b')


# Quotes, commas, ASCII and Unicode whitespace, and text.
LIST_ALPHABET = ['"', '"', ",", ",", " ", " ", "\t", "\xa0", "\x1c", "a", "b", "/", "="]


def test_split_quoted_list_agrees_with_the_character_scanner():
    rng = random.Random(20032)
    kinds = collections.Counter()
    for _ in range(20000):
        value = "".join(rng.choice(LIST_ALPHABET) for _ in range(rng.randrange(24)))
        expected = outcome(oracles.split_quoted_list, value)
        assert outcome(split_quoted_list, value) == expected, repr(value)
        kinds[expected[1] if isinstance(expected, tuple) else "items"] += 1
    # Good lists and the unterminated-quote error each occur often.
    assert min(kinds.values()) > 1000, kinds
    assert len(kinds) == 2, kinds
