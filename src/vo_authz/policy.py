"""Policy database for a virtual organization.

The database knows four kinds of things: service types (a named set of
actions, e.g. ``group`` with action ``member``), target objects, member
subjects (distinguished names), and grants. A grant binds a subject to
one rights tuple <service_type, action, target, match_mode>. Roles and
groups are not special-cased anywhere in here: a role is simply an
object of service type ``group`` that subjects hold the ``member``
action on.

A store keeps its grants in one map, subject to rights in canonical
order, so a lookup touches one subject. Stores are immutable values,
and a command file is the only way to write one: its commands edit one
private working copy, frozen into a new store once at the end. That
gives a batch its atomicity for free, lets concurrent readers hold a
consistent snapshot, and rebuilds only the subjects the batch names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Iterable, Literal, Mapping

from .lineformat import LineError, parse_lines, quote_field

TOKEN_RE = re.compile(r"[a-z][a-z0-9_-]*\Z")
ROLE_PART_RE = re.compile(r"[a-zA-Z0-9][a-zA-Z0-9._-]*\Z")

MatchMode = Literal["exact", "wildcard"]
EXACT: MatchMode = "exact"
WILDCARD: MatchMode = "wildcard"


class PolicyError(Exception):
    """Base class for policy database errors."""


class UnregisteredError(PolicyError):
    """A grant referenced a subject, service type, action, or object
    that the store does not know."""


_UNREPRESENTABLE_IN_DN = re.compile(r'["\x00-\x1f]')  # a quote or a control character
_UNREPRESENTABLE_IN_TARGET = re.compile(r'[\s"]')  # whitespace (str.isspace) or a quote


def validate_subject_dn(value: str) -> str:
    """Validate a slash-delimited distinguished name and return it."""
    if not value or value != value.strip():
        raise ValueError("DN must be non-empty with no surrounding whitespace")
    if not value.startswith("/"):
        raise ValueError("DN must begin with '/': %r" % value)
    if "=" not in value:
        raise ValueError("DN must contain at least one '=': %r" % value)
    if _UNREPRESENTABLE_IN_DN.search(value):
        raise ValueError("DN contains unrepresentable characters: %r" % value)
    return value


def validate_role_name(value: str) -> str:
    """Validate a two-level role name of the form ``vo/name``."""
    parts = value.split("/")
    if len(parts) != 2 or not all(ROLE_PART_RE.match(p) for p in parts):
        raise ValueError("role name must be '<vo>/<name>': %r" % value)
    return value


def _validate_target(target: str) -> str:
    if not target:
        raise ValueError("target must be non-empty")
    if _UNREPRESENTABLE_IN_TARGET.search(target):
        raise ValueError("target may not contain whitespace or quotes: %r" % target)
    return target


@dataclass(frozen=True, order=True)
class RightsTuple:
    """One authorization right: <service_type, action, target, match_mode>.

    A wildcard-mode tuple whose target contains no ``*`` is normalized
    to exact mode at construction; the two are indistinguishable to the
    matcher, and normalizing keeps role extraction and request
    filtering consistent.
    """

    service_type: str
    action: str
    target: str
    match_mode: MatchMode = EXACT

    def __post_init__(self):
        for tok in (self.service_type, self.action):
            if not TOKEN_RE.match(tok):
                raise ValueError("bad token %r" % tok)
        _validate_target(self.target)
        if self.match_mode not in (EXACT, WILDCARD):
            raise ValueError("bad match mode %r" % self.match_mode)
        if self.match_mode == WILDCARD and "*" not in self.target:
            object.__setattr__(self, "match_mode", EXACT)

    def as_dict(self) -> dict[str, object]:
        return {
            "service_type": self.service_type,
            "action": self.action,
            "target": self.target,
            "match_mode": self.match_mode,
        }

    @classmethod
    def from_dict(cls, data) -> "RightsTuple":
        """Parse a JSON rights entry: an object of exactly the four string fields."""
        if not isinstance(data, dict):
            raise ValueError("a rights tuple must be a JSON object")
        if data.keys() != {"service_type", "action", "target", "match_mode"}:
            raise ValueError("bad rights tuple fields: %r" % sorted(data))
        if not all(type(v) is str for v in data.values()):
            raise ValueError("rights tuple fields must be strings")
        return cls(**data)


# A right's fields in declaration order: sorting by them gives the
# dataclass order, with no Python-level comparison.
_CANONICAL = attrgetter("service_type", "action", "target", "match_mode")


@dataclass(frozen=True)
class PolicyStore:
    """Immutable policy database value; writes build a new store.

    ``service_types`` maps each service type's name to its actions.
    ``rights`` is the only record of grants: it maps each subject that
    holds at least one right to its rights in canonical sorted order.
    Every write goes through :func:`apply_command_file`.
    """

    service_types: Mapping[str, frozenset[str]] = field(default_factory=dict)
    objects: frozenset[tuple[str, str]] = frozenset()
    subjects: frozenset[str] = frozenset()
    rights: Mapping[str, tuple[RightsTuple, ...]] = field(default_factory=dict)

    @property
    def grants(self) -> frozenset[tuple[str, RightsTuple]]:
        """Every (subject, right) pair, derived from ``rights``."""
        return frozenset((s, r) for s, held in self.rights.items() for r in held)

    def rights_of(self, subject: str) -> list[RightsTuple]:
        """All rights granted to a subject, deterministically ordered."""
        return list(self.rights.get(subject, ()))


class _Builder:
    """Mutable working copy of a store, holding every write rule.

    It never writes to the store it copies, so a failed batch leaves
    that store untouched. Only the subjects a batch grants to or
    rescinds from get a mutable set, and :meth:`freeze` re-sorts those
    alone; every other subject keeps its tuple. Each distinct right a
    batch names is built once, however many lines name it.
    """

    def __init__(self, store: PolicyStore):
        self.service_types = dict(store.service_types)
        self.action_types = {
            action: name for name, actions in self.service_types.items() for action in actions
        }
        self.objects = set(store.objects)
        self.subjects = set(store.subjects)
        self.rights = dict(store.rights)
        self.touched: dict[str, set[RightsTuple]] = {}
        self.built: dict[tuple[str, ...], RightsTuple] = {}

    def freeze(self) -> PolicyStore:
        for subject, held in self.touched.items():
            if held:
                self.rights[subject] = tuple(sorted(held, key=_CANONICAL))
            else:
                self.rights.pop(subject, None)
        return PolicyStore(
            service_types=self.service_types,
            objects=frozenset(self.objects),
            subjects=frozenset(self.subjects),
            rights=self.rights,
        )

    def _held(self, subject: str) -> set[RightsTuple]:
        held = self.touched.get(subject)
        if held is None:
            held = self.touched[subject] = set(self.rights.get(subject, ()))
        return held

    def right(self, action: str, target: str, match_mode: MatchMode = EXACT) -> RightsTuple:
        """The rights tuple a command line names by its action; the mode defaults to exact.

        A registered action keeps its service type to the end of the
        batch, so the tuple is built the first time its fields are named.
        """
        key = (action, target, match_mode)
        right = self.built.get(key)
        if right is None:
            service_type = self.action_types.get(action)
            if service_type is None:
                raise UnregisteredError("no registered service type has action %r" % action)
            right = self.built[key] = RightsTuple(service_type, action, target, match_mode)
        return right

    def register_service_type(self, name: str, actions: frozenset[str]) -> None:
        if not TOKEN_RE.match(name):
            raise ValueError("bad service type name %r" % name)
        if not actions:
            raise ValueError("service type %r has no actions" % name)
        for action in actions:
            if not TOKEN_RE.match(action):
                raise ValueError("bad action %r" % action)
        if name in self.service_types:
            raise PolicyError("duplicate service type %r" % name)
        for other, held in self.service_types.items():
            clash = held & actions
            if clash:
                # Grant lines name only the action, so an action must
                # resolve to exactly one service type store-wide.
                raise PolicyError(
                    "action %r already belongs to service type %r" % (sorted(clash)[0], other)
                )
        self.service_types[name] = actions
        for action in actions:
            self.action_types[action] = name

    def register_subject(self, subject: str) -> None:
        self.subjects.add(validate_subject_dn(subject))

    def register_object(self, service_type: str, target: str) -> None:
        if service_type not in self.service_types:
            raise UnregisteredError("unknown service type %r" % service_type)
        self.objects.add((service_type, _validate_target(target)))

    def grant(self, subject: str, right: RightsTuple) -> None:
        """Grant ``right``, built by :meth:`right` from registered types."""
        if subject not in self.subjects:
            raise UnregisteredError("unregistered subject %r" % subject)
        if right.match_mode == EXACT and (right.service_type, right.target) not in self.objects:
            raise UnregisteredError(
                "unregistered object %r of service type %r"
                % (right.target, right.service_type)
            )
        self._held(subject).add(right)

    def rescind(self, subject: str, right: RightsTuple) -> None:
        self._held(subject).discard(right)


# -- command files ---------------------------------------------------------
#
# servicetype <name> <action>[,<action>...]
# user <subject-dn>
# object <servicetype> <target>
# grant <subject-dn> <action> <target> [exact|wildcard]     (default exact)
# rescind <subject-dn> <action> <target> [exact|wildcard]


def apply_command_file(store: PolicyStore, text: str) -> tuple[PolicyStore, int]:
    """Apply a command file atomically.

    Returns the new store and the number of commands applied. Any error
    raises :class:`LineError` naming the offending line, and the
    caller's store is untouched: the commands edit one private working
    copy, frozen into a new store once at the end.
    """
    builder = _Builder(store)
    build = partial(_apply_command, builder)
    commands = parse_lines(text, None, build, catch=(PolicyError, ValueError))
    return builder.freeze(), len(commands)


def _apply_command(builder: _Builder, *fields: str) -> None:
    verb = fields[0]
    if verb in ("grant", "rescind"):
        if len(fields) not in (4, 5):
            raise ValueError("%s takes <subject-dn> <action> <target> [exact|wildcard]" % verb)
        subject = fields[1]
        if subject not in builder.subjects:  # each registered DN was checked once, by ``user``
            validate_subject_dn(subject)
        right = builder.right(*fields[2:])
        if verb == "grant":
            builder.grant(subject, right)
        else:
            builder.rescind(subject, right)
    elif verb == "servicetype":
        if len(fields) != 3:
            raise ValueError("servicetype takes <name> <action>[,<action>...]")
        actions = [a for a in fields[2].split(",") if a]
        if len(actions) != len(set(actions)):
            raise ValueError("duplicate action in %r" % fields[2])
        builder.register_service_type(fields[1], frozenset(actions))
    elif verb == "user":
        if len(fields) != 2:
            raise ValueError("user takes <subject-dn>")
        builder.register_subject(fields[1])
    elif verb == "object":
        if len(fields) != 3:
            raise ValueError("object takes <servicetype> <target>")
        builder.register_object(fields[1], fields[2])
    else:
        raise ValueError("unknown command %r" % verb)


def save_snapshot(store: PolicyStore) -> bytes:
    """Serialize a store as a replayable command file."""
    lines = ["# policy snapshot (replayable command file)"]
    for name, actions in sorted(store.service_types.items()):
        lines.append("servicetype %s %s" % (name, ",".join(sorted(actions))))
    for subject in sorted(store.subjects):
        lines.append("user %s" % quote_field(subject))
    for service_type, target in sorted(store.objects):
        lines.append("object %s %s" % (service_type, target))
    for subject in sorted(store.rights):
        quoted = quote_field(subject)
        for right in store.rights[subject]:
            lines.append(
                "grant %s %s %s %s" % (quoted, right.action, right.target, right.match_mode)
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_snapshot(data: bytes) -> PolicyStore:
    """Rebuild a store from :func:`save_snapshot` output."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LineError(0, "snapshot is not UTF-8") from exc
    store, _ = apply_command_file(PolicyStore(), text)
    return store


def sort_rights(rights: Iterable[RightsTuple]) -> tuple[RightsTuple, ...]:
    """Deduplicate and sort rights into the canonical order."""
    return tuple(sorted(dict.fromkeys(rights)))
