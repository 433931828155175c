"""Pure authorization decisions over rights tuples.

This is the pluggable decision library: no I/O, no clocks, no state.
It answers three questions — does a pattern cover a target, does a
rights set allow an <action, target> query, and which roles does a
rights set confer — plus the request-vs-granted filtering the issuance
service applies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .lineformat import parse_lines
from .policy import (
    EXACT,
    WILDCARD,
    MatchMode,
    RightsTuple,
    sort_rights,
    validate_role_name,
)

GROUP_SERVICE_TYPE = "group"
MEMBER_ACTION = "member"

READ_ACTION = "read"
WRITE_ACTION = "write"
FILE_SERVICE_TYPE = "file"


class FilterDenied(Exception):
    """A requested right is not covered by any granted right."""

    def __init__(self, uncovered: Sequence[RightsTuple]):
        self.uncovered = tuple(uncovered)
        listing = "; ".join(
            "%s %s %s %s" % (t.service_type, t.action, t.target, t.match_mode)
            for t in self.uncovered
        )
        super().__init__("requested rights not granted: %s" % listing)


@dataclass(frozen=True)
class Decision:
    """Outcome of a layered authorization check, such as ``file_server.authorize_file_op``."""

    allowed: bool
    matched_tuple: Optional[RightsTuple]
    reason: str


@lru_cache(maxsize=1024)
def _wildcard_regex(pattern: str) -> re.Pattern[str]:
    # '*' matches any run of characters, '/' included; everything else
    # is literal and case-sensitive.
    return re.compile("(?s:%s)\\Z" % ".*".join(re.escape(p) for p in pattern.split("*")))


def match_target(pattern: str, match_mode: MatchMode, target: str) -> bool:
    """Does ``pattern`` cover ``target`` under the given mode?"""
    if match_mode == EXACT or "*" not in pattern:
        return pattern == target
    return _wildcard_regex(pattern).match(target) is not None


def check_right(
    rights: Iterable[RightsTuple], service_type: str, action: str, target: str
) -> Optional[RightsTuple]:
    """First-match query: the right that allows <service_type, action, target>, or None.

    ``rights`` must already be in canonical order (as
    ``AssertionBody.rights`` is), so the first match is the canonical
    one; they are checked in the order given.
    """
    for right in rights:
        if (
            right.service_type == service_type
            and right.action == action
            and match_target(right.target, right.match_mode, target)
        ):
            return right
    return None


def roles_in(rights: Iterable[RightsTuple]) -> list[str]:
    """Roles conferred by a rights set, sorted.

    Only exact-mode ``group member`` tuples count; a wildcard
    membership has no defined account mapping. Tuples whose target is
    not a two-level role name are skipped.
    """
    roles = set()
    for right in rights:
        if (
            right.service_type != GROUP_SERVICE_TYPE
            or right.action != MEMBER_ACTION
            or right.match_mode != EXACT
        ):
            continue
        try:
            roles.add(validate_role_name(right.target))
        except ValueError:
            pass
    return sorted(roles)


def covers(granted: RightsTuple, requested: RightsTuple) -> bool:
    """Does one granted tuple cover one requested tuple?"""
    if granted.service_type != requested.service_type or granted.action != requested.action:
        return False
    if granted.match_mode == WILDCARD:
        return match_target(granted.target, WILDCARD, requested.target)
    return granted == requested


def filter_rights(
    granted: Sequence[RightsTuple], requested: Iterable[RightsTuple]
) -> tuple[RightsTuple, ...]:
    """Restrict an issuance to the requested rights.

    ``granted`` must already be canonical: sorted with no duplicates,
    as ``PolicyStore.rights_of`` returns it. ``requested`` comes from
    the client and is sorted here. An empty request means "all my
    rights". Otherwise every requested tuple must be covered by some
    granted tuple; any uncovered tuple fails the whole request (no
    partial result).
    """
    requested_set = sort_rights(requested)
    if not requested_set:
        return tuple(granted)
    uncovered = [
        req for req in requested_set if not any(covers(g, req) for g in granted)
    ]
    if uncovered:
        raise FilterDenied(uncovered)
    return requested_set


def parse_filter_file(text: str) -> list[RightsTuple]:
    """Parse a rights-filter file: one ``<servicetype> <action> <target>
    <exact|wildcard>`` tuple per line, ``#`` comments allowed."""
    return parse_lines(text, "<servicetype> <action> <target> <exact|wildcard>", RightsTuple)

