from __future__ import annotations

import random

import pytest

from vo_authz.engine import (
    Decision,
    FilterDenied,
    check_right,
    covers,
    filter_rights,
    match_target,
    parse_filter_file,
    roles_in,
)
from vo_authz.lineformat import LineError
from vo_authz.policy import EXACT, WILDCARD, RightsTuple

from .oracles import glob_match


# -- target matching ---------------------------------------------------------


@pytest.mark.parametrize(
    "pattern,target,expected",
    [
        ("ftp://h/*", "ftp://h/", True),
        ("ftp://h/*", "ftp://h/a/b/c", True),  # '*' crosses '/'
        ("ftp://h/*", "ftp://h", False),
        ("*", "", True),
        ("*", "anything", True),
        ("a*b*c", "abc", True),
        ("a*b*c", "aXbYc", True),
        ("a*b*c", "acb", False),
        ("a*a", "aa", True),
        ("a*a", "a", False),
        ("ftp://H/*", "ftp://h/x", False),  # case-sensitive
        ("a.b", "aXb", False),  # '.' is literal, not a metacharacter
        ("a?b", "aXb", False),  # '?' is literal
    ],
)
def test_wildcard_match_cases(pattern, target, expected):
    assert match_target(pattern, WILDCARD, target) is expected


def test_exact_mode_treats_star_as_literal():
    assert match_target("ftp://h/*", EXACT, "ftp://h/*") is True
    assert match_target("ftp://h/*", EXACT, "ftp://h/x") is False


def test_wildcard_handles_newlines_in_target():
    assert match_target("a*b", WILDCARD, "a\nb") is True


def test_match_agrees_with_backtracking_oracle():
    rng = random.Random(49565)
    alphabet = "ab*/"
    for _ in range(2000):
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
        target = "".join(rng.choice("ab/") for _ in range(rng.randrange(0, 10)))
        if not pattern or "*" not in pattern:
            continue
        assert match_target(pattern, WILDCARD, target) == glob_match(pattern, target), (
            pattern,
            target,
        )


# -- check_right -------------------------------------------------------------


def rights_fixture():
    return [
        RightsTuple("file", "read", "ftp://h/*", WILDCARD),
        RightsTuple("file", "write", "ftp://h/data/out.txt"),
        RightsTuple("group", "member", "atlas/admin"),
    ]


def test_check_right_allows_with_matching_tuple():
    matched = check_right(rights_fixture(), "file", "read", "ftp://h/a/b")
    assert matched == RightsTuple("file", "read", "ftp://h/*", WILDCARD)


def test_check_right_denies_without_match():
    assert check_right(rights_fixture(), "file", "write", "ftp://h/other") is None


def test_check_right_requires_action_and_type_to_match():
    rights = rights_fixture()
    assert check_right(rights, "file", "write", "ftp://h/a") is None
    assert check_right(rights, "group", "read", "ftp://h/a") is None


def test_check_right_invariant_allowed_implies_match():
    rng = random.Random(7)
    universe = [
        RightsTuple("file", "read", "ftp://h/*", WILDCARD),
        RightsTuple("file", "read", "ftp://h/a"),
        RightsTuple("group", "member", "atlas/admin"),
    ]
    for _ in range(200):
        rights = [t for t in universe if rng.random() < 0.5]
        target = rng.choice(["ftp://h/a", "x"])
        matched = check_right(rights, "file", "read", target)
        covering = [
            t
            for t in rights
            if (t.service_type, t.action) == ("file", "read")
            and match_target(t.target, t.match_mode, target)
        ]
        # The first covering right in the given order, or None if none covers.
        assert matched == (covering[0] if covering else None)


def test_decision_is_plain_value():
    assert Decision(False, None, "r") == Decision(False, None, "r")


# -- roles_in ----------------------------------------------------------------


def test_roles_in_extracts_sorted_roles():
    rights = [
        RightsTuple("group", "member", "atlas/data"),
        RightsTuple("group", "member", "atlas/admin"),
        RightsTuple("file", "read", "ftp://h/*", WILDCARD),
    ]
    assert roles_in(rights) == ["atlas/admin", "atlas/data"]


def test_roles_in_skips_wildcard_membership():
    assert roles_in([RightsTuple("group", "member", "atlas/*", WILDCARD)]) == []


def test_roles_in_skips_malformed_targets():
    rights = [
        RightsTuple("group", "member", "not-a-role"),
        RightsTuple("group", "member", "atlas/data"),
    ]
    assert roles_in(rights) == ["atlas/data"]


def test_roles_in_ignores_other_service_types():
    assert roles_in([RightsTuple("file", "read", "atlas/admin")]) == []


# -- covers / filter_rights --------------------------------------------------


def test_covers_wildcard_grant_covers_narrower():
    g = RightsTuple("file", "read", "ftp://h/*", WILDCARD)
    assert covers(g, RightsTuple("file", "read", "ftp://h/x"))
    assert covers(g, RightsTuple("file", "read", "ftp://h/*", WILDCARD))
    assert not covers(g, RightsTuple("file", "write", "ftp://h/x"))


def test_covers_exact_grant_requires_equality():
    g = RightsTuple("group", "member", "atlas/admin")
    assert covers(g, RightsTuple("group", "member", "atlas/admin"))
    assert not covers(g, RightsTuple("group", "member", "atlas/data"))


def test_covers_wildcard_request_not_covered_by_narrower_wildcard():
    g = RightsTuple("file", "read", "ftp://h/data/*", WILDCARD)
    # The requested pattern reaches targets outside the grant.
    assert not covers(g, RightsTuple("file", "read", "ftp://h/*", WILDCARD))


def test_filter_empty_request_returns_all_granted():
    granted = rights_fixture()
    assert filter_rights(granted, []) == tuple(sorted(granted))


def test_filter_narrows_to_request():
    granted = rights_fixture()
    want = [RightsTuple("group", "member", "atlas/admin")]
    assert filter_rights(granted, want) == tuple(want)


def test_filter_rejects_uncovered_request():
    granted = [RightsTuple("group", "member", "atlas/data")]
    want = [
        RightsTuple("group", "member", "atlas/data"),
        RightsTuple("group", "member", "atlas/admin"),
    ]
    with pytest.raises(FilterDenied) as exc:
        filter_rights(granted, want)
    assert exc.value.uncovered == (RightsTuple("group", "member", "atlas/admin"),)


def test_filter_denial_is_all_or_nothing():
    granted = [RightsTuple("file", "read", "ftp://h/*", WILDCARD)]
    want = [
        RightsTuple("file", "read", "ftp://h/a"),
        RightsTuple("file", "write", "ftp://h/a"),
    ]
    with pytest.raises(FilterDenied):
        filter_rights(granted, want)


def test_filter_request_of_starless_wildcard_matches_exact_grant():
    # "wildcard" with no '*' normalizes to exact, so this request is
    # covered by the exact membership grant.
    granted = [RightsTuple("group", "member", "atlas/admin")]
    want = [RightsTuple("group", "member", "atlas/admin", WILDCARD)]
    assert filter_rights(granted, want) == tuple(granted)


# -- filter files ------------------------------------------------------------


def test_parse_filter_file():
    text = (
        "# keep only the admin role\n"
        "group member atlas/admin wildcard\n"
        "file read ftp://h/* wildcard\n"
    )
    tuples = parse_filter_file(text)
    assert tuples == [
        RightsTuple("group", "member", "atlas/admin"),
        RightsTuple("file", "read", "ftp://h/*", WILDCARD),
    ]


def test_parse_filter_file_rejects_wrong_arity():
    with pytest.raises(LineError) as exc:
        parse_filter_file("group member atlas/admin\n")
    assert exc.value.line == 1


def test_parse_filter_file_rejects_bad_mode():
    with pytest.raises(LineError):
        parse_filter_file("group member atlas/admin glob\n")


def test_parse_filter_file_rejects_bad_tuple():
    with pytest.raises(LineError):
        parse_filter_file("Group member atlas/admin exact\n")
