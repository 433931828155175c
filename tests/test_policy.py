from __future__ import annotations

import random

import pytest

from vo_authz.cas_server import CasService
from vo_authz.engine import parse_filter_file
from vo_authz.lineformat import LineError
from vo_authz.policy import (
    EXACT,
    WILDCARD,
    PolicyError,
    PolicyStore,
    RightsTuple,
    UnregisteredError,
    apply_command_file,
    load_snapshot,
    save_snapshot,
    sort_rights,
    validate_role_name,
    validate_subject_dn,
)
from vo_authz.lineformat import quote_field

from .conftest import DEMO_POLICY, ORWELL, TULL
from .oracles import GrantModel


def admin_right():
    return RightsTuple("group", "member", "atlas/admin")


def run(store: PolicyStore, *lines: str) -> PolicyStore:
    """Apply ``lines`` as one command file, which must succeed."""
    store, applied = apply_command_file(store, "".join(line + "\n" for line in lines))
    assert applied == len(lines)
    return store


def rule_error(store: PolicyStore, *lines: str) -> Exception:
    """The rule error that fails ``lines`` as one command file."""
    with pytest.raises(LineError) as exc:
        apply_command_file(store, "".join(line + "\n" for line in lines))
    return exc.value.__cause__


def right_line(verb: str, subject: str, right: RightsTuple) -> str:
    return '%s "%s" %s %s %s' % (verb, subject, right.action, right.target, right.match_mode)


def base_store() -> PolicyStore:
    return run(
        PolicyStore(), "servicetype group member", "object group atlas/admin", 'user "%s"' % TULL
    )


# -- rights tuples -----------------------------------------------------------


def test_rights_tuple_normalizes_starless_wildcard():
    right = RightsTuple("group", "member", "atlas/admin", WILDCARD)
    assert right.match_mode == EXACT
    assert right == admin_right()


def test_rights_tuple_keeps_wildcard_with_star():
    right = RightsTuple("file", "read", "ftp://h/*", WILDCARD)
    assert right.match_mode == WILDCARD


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(service_type="Group", action="member", target="t"),
        dict(service_type="group", action="Mem ber", target="t"),
        dict(service_type="group", action="member", target=""),
        dict(service_type="group", action="member", target="a b"),
        dict(service_type="group", action="member", target='a"b'),
        dict(service_type="group", action="member", target="t", match_mode="glob"),
    ],
)
def test_rights_tuple_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        RightsTuple(**kwargs)


def test_rights_tuple_dict_round_trip():
    right = RightsTuple("file", "read", "ftp://h/*", WILDCARD)
    assert RightsTuple.from_dict(right.as_dict()) == right
    with pytest.raises(ValueError):
        RightsTuple.from_dict({"service_type": "file", "action": "read"})
    with pytest.raises(ValueError):
        RightsTuple.from_dict(dict(right.as_dict(), extra="x"))


def test_sort_rights_dedupes_and_orders():
    a = RightsTuple("file", "read", "ftp://h/a")
    b = RightsTuple("group", "member", "atlas/admin")
    assert sort_rights([b, a, b, a]) == (a, b)


def test_sort_rights_compares_sorted_rights_once_each(monkeypatch):
    rights = [RightsTuple("file", "read", "ftp://h/%d" % i) for i in range(6)]
    compared = []
    less = RightsTuple.__lt__

    def counting_less(self, other):
        compared.append((self, other))
        return less(self, other)

    monkeypatch.setattr(RightsTuple, "__lt__", counting_less)
    assert sort_rights(rights + rights[:2]) == tuple(rights)
    assert len(compared) == 5


# -- validators --------------------------------------------------------------


def test_validate_subject_dn_accepts_spaces_inside():
    assert validate_subject_dn(TULL) == TULL


@pytest.mark.parametrize(
    "dn",
    ["", "O=x/CN=A", "/CNnoequals", " /O=x/CN=A", '/O=x/CN="A"', "/O=x/CN=A\n"],
)
def test_validate_subject_dn_rejects(dn):
    with pytest.raises(ValueError):
        validate_subject_dn(dn)


@pytest.mark.parametrize("name", ["atlas/admin", "cms/prod-2.1", "a/b"])
def test_validate_role_name_accepts(name):
    assert validate_role_name(name) == name


@pytest.mark.parametrize("name", ["atlas", "atlas/a/b", "/admin", "atlas/", "at las/x"])
def test_validate_role_name_rejects(name):
    with pytest.raises(ValueError):
        validate_role_name(name)


# -- store mutations ---------------------------------------------------------


def test_grant_requires_registered_subject():
    store = run(PolicyStore(), "servicetype group member", "object group atlas/admin")
    error = rule_error(store, right_line("grant", TULL, admin_right()))
    assert isinstance(error, UnregisteredError)


def test_grant_requires_registered_object_for_exact():
    store = run(PolicyStore(), "servicetype group member", 'user "%s"' % TULL)
    error = rule_error(store, right_line("grant", TULL, admin_right()))
    assert isinstance(error, UnregisteredError)


def test_wildcard_grant_needs_no_object():
    store = run(PolicyStore(), "servicetype file read,write", 'user "%s"' % TULL)
    right = RightsTuple("file", "read", "ftp://h/*", WILDCARD)
    assert run(store, right_line("grant", TULL, right)).rights_of(TULL) == [right]


def test_grant_requires_registered_action():
    error = rule_error(base_store(), 'grant "%s" admin atlas/admin' % TULL)
    assert isinstance(error, UnregisteredError)


def test_grant_is_idempotent():
    store = run(base_store(), right_line("grant", TULL, admin_right()))
    assert run(store, right_line("grant", TULL, admin_right())) == store


def test_rescind_removes_only_that_grant():
    other = RightsTuple("group", "member", "atlas/data")
    store = run(base_store(), "object group atlas/data")
    store = run(store, right_line("grant", TULL, admin_right()), right_line("grant", TULL, other))
    store = run(store, right_line("rescind", TULL, admin_right()))
    assert store.rights_of(TULL) == [other]


def test_rescind_of_absent_grant_is_noop():
    store = base_store()
    assert run(store, right_line("rescind", TULL, admin_right())) == store


def test_mutations_leave_original_store_untouched():
    store = base_store()
    run(store, right_line("grant", TULL, admin_right()))
    assert store.rights_of(TULL) == []


def test_duplicate_service_type_rejected():
    error = rule_error(base_store(), "servicetype group join")
    assert isinstance(error, PolicyError)


def test_action_must_be_unambiguous_across_service_types():
    # Grant lines name only the action, so a second service type may not
    # reuse one.
    error = rule_error(base_store(), "servicetype club member")
    assert isinstance(error, PolicyError)


def test_object_requires_known_service_type():
    error = rule_error(PolicyStore(), "object group atlas/admin")
    assert isinstance(error, UnregisteredError)


# -- randomized grant/rescind against the set model --------------------------


def test_grant_rescind_matches_set_model():
    rng = random.Random(20030319)
    subjects = [TULL, ORWELL]
    tuples = [
        ("group", "member", "atlas/admin", EXACT),
        ("group", "member", "atlas/data", EXACT),
        ("file", "read", "ftp://h/*", WILDCARD),
        ("file", "write", "ftp://h/data/*", WILDCARD),
    ]
    store = run(
        PolicyStore(),
        "servicetype group member",
        "servicetype file read,write",
        "object group atlas/admin",
        "object group atlas/data",
        *('user "%s"' % s for s in subjects),
    )

    model = GrantModel()
    for _ in range(500):
        subject = rng.choice(subjects)
        tup = rng.choice(tuples)
        right = RightsTuple(*tup)
        if rng.random() < 0.5:
            store = run(store, right_line("grant", subject, right))
            model.grant(subject, tup)
        else:
            store = run(store, right_line("rescind", subject, right))
            model.rescind(subject, tup)
        for s in subjects:
            got = [
                (r.service_type, r.action, r.target, r.match_mode)
                for r in store.rights_of(s)
            ]
            assert got == model.rights_of(s)


# -- command files -----------------------------------------------------------


def test_apply_demo_policy(demo_store):
    assert demo_store.rights_of(TULL) == [
        RightsTuple("group", "member", "atlas/admin"),
        RightsTuple("group", "member", "atlas/data"),
    ]
    assert demo_store.rights_of(ORWELL) == [RightsTuple("group", "member", "atlas/data")]


def test_apply_counts_only_commands():
    text = "# comment\n\nservicetype group member\n"
    _, applied = apply_command_file(PolicyStore(), text)
    assert applied == 1


def test_apply_empty_text():
    store, applied = apply_command_file(PolicyStore(), "")
    assert applied == 0
    assert store == PolicyStore()


def test_unknown_action_names_line_one():
    store = base_store()
    with pytest.raises(LineError) as exc:
        apply_command_file(store, 'grant "%s" fly atlas/admin exact\n' % TULL)
    assert exc.value.line == 1


def test_error_line_number_counts_comments_and_blanks():
    text = "# header\n\nservicetype group member\nbogus verb here\n"
    with pytest.raises(LineError) as exc:
        apply_command_file(PolicyStore(), text)
    assert exc.value.line == 4


def test_failed_apply_is_atomic():
    store = base_store()
    text = (
        "object group atlas/data\n"
        'grant "%s" member atlas/data\n'
        'grant "%s" member atlas/data\n'  # unregistered subject: error
    ) % (TULL, ORWELL)
    with pytest.raises(LineError) as exc:
        apply_command_file(store, text)
    assert exc.value.line == 3
    # The caller's store is a value; the partial progress is unreachable.
    assert store.rights_of(TULL) == []
    assert ("group", "atlas/data") not in store.objects


def test_unterminated_quote_is_an_error():
    with pytest.raises(LineError) as exc:
        apply_command_file(PolicyStore(), 'user "/O=x/CN=A\n')
    assert exc.value.line == 1


def test_grant_default_mode_is_exact():
    store = base_store()
    store, _ = apply_command_file(store, 'grant "%s" member atlas/admin\n' % TULL)
    assert store.rights_of(TULL) == [admin_right()]


def test_grant_rejects_bad_mode_token():
    store = base_store()
    with pytest.raises(LineError):
        apply_command_file(store, 'grant "%s" member atlas/admin glob\n' % TULL)


def test_an_unknown_action_is_reported_before_a_bad_mode():
    error = rule_error(base_store(), 'grant "%s" fly atlas/admin glob' % TULL)
    assert str(error) == "no registered service type has action 'fly'"


def _filter_file_error(demo_store, cas_identity, trust_root) -> str:
    with pytest.raises(LineError) as exc:
        parse_filter_file("group member atlas/admin exactly\n")
    return str(exc.value)


def _command_file_error(demo_store, cas_identity, trust_root) -> str:
    return str(rule_error(demo_store, 'grant "%s" member atlas/admin exactly' % TULL))


def _issue_request_error(demo_store, cas_identity, trust_root) -> str:
    service = CasService(cas_identity[0], cas_identity[1], trust_root[1], demo_store)
    right = {"service_type": "group", "action": "member", "target": "atlas/admin",
             "match_mode": "exactly"}
    reply = service.handle_request(TULL, {"type": "issue_request", "rights": [right]})
    assert (reply["status"], reply["code"]) == (400, "bad-request")
    return reply["message"]


@pytest.mark.parametrize(
    "error", [_filter_file_error, _command_file_error, _issue_request_error],
    ids=["filter-file", "command-file", "issue-request"],
)
def test_one_match_mode_message_from_every_entry_point(error, demo_store, cas_identity, trust_root):
    assert "bad match mode 'exactly'" in error(demo_store, cas_identity, trust_root)


# A batch that names one right and one DN on many lines builds the right
# and checks the DN once; a bad line among them still fails as its own.
REUSED_LINES = [
    'grant "%s" member atlas/admin' % TULL,
    'grant "%s" member atlas/admin exact' % TULL,
    'rescind "%s" member atlas/admin' % TULL,
    'grant "%s" member atlas/admin wildcard' % TULL,  # no "*": exact
] * 50


@pytest.mark.parametrize(
    "bad_line,message",
    [
        ('grant "O=x/CN=Not Registered" member atlas/admin',
         "DN must begin with '/': 'O=x/CN=Not Registered'"),
        ('grant "%s" fly atlas/admin' % TULL, "no registered service type has action 'fly'"),
        ('grant "%s" member atlas/admin glob' % TULL, "bad match mode 'glob'"),
        ('grant "%s" member atlas/nothere' % TULL,
         "unregistered object 'atlas/nothere' of service type 'group'"),
    ],
    ids=["malformed-unregistered-dn", "unknown-action", "bad-mode", "unregistered-object"],
)
def test_a_bad_line_among_reused_rights_and_dns_keeps_its_number_and_message(bad_line, message):
    store = base_store()
    assert run(store, *REUSED_LINES).rights_of(TULL) == [admin_right()]
    # The bad line comes after every use of the reused right and DN, and
    # fails the same way each time the batch is applied.
    lines = REUSED_LINES + [bad_line] + REUSED_LINES
    bad_lineno = len(REUSED_LINES) + 1
    for _ in range(2):
        with pytest.raises(LineError) as exc:
            apply_command_file(store, "".join(line + "\n" for line in lines))
        assert exc.value.line == bad_lineno
        assert str(exc.value) == "line %d: %s" % (bad_lineno, message)


def test_servicetype_rejects_duplicate_action_list():
    with pytest.raises(LineError):
        apply_command_file(PolicyStore(), "servicetype file read,read\n")


def test_rescind_via_command_file():
    store, _ = apply_command_file(PolicyStore(), DEMO_POLICY)
    store, _ = apply_command_file(store, 'rescind "%s" member atlas/admin\n' % TULL)
    assert store.rights_of(TULL) == [RightsTuple("group", "member", "atlas/data")]


# -- snapshots ---------------------------------------------------------------


def test_snapshot_round_trip(demo_store):
    assert load_snapshot(save_snapshot(demo_store)) == demo_store


def test_snapshot_is_deterministic(demo_store):
    assert save_snapshot(demo_store) == save_snapshot(demo_store)
    # Replaying the snapshot and snapshotting again is a fixed point.
    assert save_snapshot(load_snapshot(save_snapshot(demo_store))) == save_snapshot(
        demo_store
    )


def test_snapshot_of_empty_store():
    assert load_snapshot(save_snapshot(PolicyStore())) == PolicyStore()


def test_snapshot_quotes_dns_with_spaces(demo_store):
    text = save_snapshot(demo_store).decode("utf-8")
    assert ('user "%s"' % TULL) in text


def test_truncated_snapshot_errors(demo_store):
    data = save_snapshot(demo_store)
    cut = data.rfind(b'"')
    assert cut > 0
    with pytest.raises(LineError):
        load_snapshot(data[:cut])


def test_non_utf8_snapshot_errors():
    with pytest.raises(LineError):
        load_snapshot(b"\xff\xfe")


def test_snapshot_preserves_wildcard_grants():
    right = RightsTuple("file", "read", "ftp://h/*", WILDCARD)
    store = run(
        PolicyStore(), "servicetype file read", 'user "%s"' % TULL, right_line("grant", TULL, right)
    )
    assert load_snapshot(save_snapshot(store)).rights_of(TULL) == [right]


# -- the store against the model -------------------------------------------------
#
# Each action belongs to one service type, and each (action, target, mode)
# below is one rights tuple the random edits draw from.
SERVICE_TYPES = {"group": "member", "file": "read,write"}
RANDOM_TUPLES = [
    ("group", "member", "atlas/admin", EXACT),
    ("group", "member", "atlas/data", EXACT),
    ("file", "read", "ftp://h/*", WILDCARD),
    ("file", "write", "ftp://h/data/*", WILDCARD),
]
RANDOM_OBJECTS = [("group", "atlas/admin"), ("group", "atlas/data"), ("file", "ftp://h/x")]
RANDOM_SUBJECTS = [TULL, ORWELL, "/O=x/CN=Short", "/O=x/CN=Has # hash"]


class StoreModel:
    """Registrations plus :class:`GrantModel`, with the rules spelled out."""

    def __init__(self):
        self.types: set[str] = set()
        self.subjects: set[str] = set()
        self.objects: set[tuple[str, str]] = set()
        self.grants = GrantModel()

    def copy(self) -> "StoreModel":
        other = StoreModel()
        other.types, other.subjects = set(self.types), set(self.subjects)
        other.objects = set(self.objects)
        other.grants.pairs = set(self.grants.pairs)
        return other

    def apply(self, op: tuple) -> bool:
        """Apply one command line; return False, changing nothing, if it must fail.

        A grant or rescind line names only the action, so either fails
        while the action's service type is unregistered.
        """
        verb, *args = op
        if verb == "servicetype":
            if args[0] in self.types:
                return False
            self.types.add(args[0])
        elif verb == "user":
            self.subjects.add(args[0])
        elif verb == "object":
            if args[0] not in self.types:
                return False
            self.objects.add(tuple(args))
        else:
            subject, tup = args
            if tup[0] not in self.types:
                return False
            if verb == "rescind":
                self.grants.rescind(subject, tup)
                return True
            if subject not in self.subjects:
                return False
            if tup[3] == EXACT and (tup[0], tup[2]) not in self.objects:
                return False
            self.grants.grant(subject, tup)
        return True

    def store(self) -> PolicyStore:
        """The store this model describes, built without a command file."""
        held = {subject for subject, _ in self.grants.pairs}
        return PolicyStore(
            service_types={
                t: frozenset(SERVICE_TYPES[t].split(",")) for t in self.types
            },
            objects=frozenset(self.objects),
            subjects=frozenset(self.subjects),
            rights={
                s: tuple(RightsTuple(*t) for t in self.grants.rights_of(s)) for s in held
            },
        )


def random_op(rng: random.Random) -> tuple:
    verb = rng.choice(["servicetype", "user", "object", "grant", "grant", "rescind"])
    if verb == "servicetype":
        return (verb, rng.choice(sorted(SERVICE_TYPES)))
    if verb == "user":
        return (verb, rng.choice(RANDOM_SUBJECTS))
    if verb == "object":
        return (verb,) + rng.choice(RANDOM_OBJECTS)
    return (verb, rng.choice(RANDOM_SUBJECTS), rng.choice(RANDOM_TUPLES))


def op_line(op: tuple) -> str:
    verb, *args = op
    if verb == "servicetype":
        return "servicetype %s %s" % (args[0], SERVICE_TYPES[args[0]])
    if verb == "user":
        return 'user "%s"' % args[0]
    if verb == "object":
        return "object %s %s" % tuple(args)
    subject, tup = args
    return right_line(verb, subject, RightsTuple(*tup))


def assert_matches_model(store: PolicyStore, model: StoreModel) -> None:
    for subject in RANDOM_SUBJECTS:
        got = [(r.service_type, r.action, r.target, r.match_mode) for r in store.rights_of(subject)]
        assert got == model.grants.rights_of(subject)
    assert len(store.grants) == len(model.grants.pairs)
    assert store == model.store()


@pytest.mark.parametrize("seed", range(4))
def test_random_edits_and_command_files_agree_with_model(seed):
    rng = random.Random(seed)
    store, model = PolicyStore(), StoreModel()
    for _ in range(150):
        ops = [random_op(rng) for _ in range(rng.randint(1, 8))]
        trial, bad_line = model.copy(), None
        for lineno, op in enumerate(ops, start=1):
            if not trial.apply(op):
                bad_line = lineno
                break
        text = "".join(op_line(op) + "\n" for op in ops)
        if bad_line is None:
            store, applied = apply_command_file(store, text)
            assert applied == len(ops)
            model = trial
        else:
            with pytest.raises(LineError) as exc:
                apply_command_file(store, text)
            assert exc.value.line == bad_line
        assert_matches_model(store, model)


@pytest.mark.parametrize("seed", range(4))
def test_batches_rebuild_only_the_subjects_they_name(seed):
    rng = random.Random(seed)
    setup = [("servicetype", t) for t in SERVICE_TYPES]
    setup += [("object",) + o for o in RANDOM_OBJECTS]
    setup += [("user", s) for s in RANDOM_SUBJECTS]
    model = StoreModel()
    for op in setup:
        assert model.apply(op)
    store = run(PolicyStore(), *map(op_line, setup))
    emptied = 0
    for _ in range(120):
        ops = [
            (verb, rng.choice(RANDOM_SUBJECTS), rng.choice(RANDOM_TUPLES))
            for verb in rng.choices(["grant", "grant", "rescind"], k=rng.randint(0, 3))
        ]
        held = sorted({s for s, _ in model.grants.pairs})
        if held and rng.random() < 0.3:
            # Rescind every right one subject holds.
            subject = rng.choice(held)
            ops += [("rescind", subject, t) for t in model.grants.rights_of(subject)]
            emptied += 1
        text = "".join(op_line(op) + "\n" for op in ops)

        old, old_rights = store, dict(store.rights)
        with pytest.raises(LineError):
            apply_command_file(old, text + "bogus verb\n")
        assert old.rights == old_rights

        for op in ops:
            assert model.apply(op)
        store = run(old, *map(op_line, ops))
        assert old.rights == old_rights
        named = {op[1] for op in ops}
        for subject, rights in old.rights.items():
            if subject not in named:
                assert store.rights[subject] is rights
        assert_matches_model(store, model)
        assert all(store.rights.values())
        assert load_snapshot(save_snapshot(store)) == store
    assert emptied > 10


def test_failed_command_file_leaves_indexes_and_service_types_untouched(demo_store):
    before_types = dict(demo_store.service_types)
    before_rights = {s: demo_store.rights_of(s) for s in (TULL, ORWELL)}
    text = (
        "servicetype file read,write\n"
        'user "/O=x/CN=New"\n'
        'grant "/O=x/CN=New" read ftp://h/* wildcard\n'
        'rescind "%s" member atlas/admin\n'
        "object file ftp://h/x\n"
        "bogus verb here\n"
    ) % TULL
    with pytest.raises(LineError) as exc:
        apply_command_file(demo_store, text)
    assert exc.value.line == 6
    assert dict(demo_store.service_types) == before_types
    assert "file" not in demo_store.service_types
    error = rule_error(demo_store, 'rescind "%s" read ftp://h/* wildcard' % TULL)
    assert isinstance(error, UnregisteredError)
    assert {s: demo_store.rights_of(s) for s in (TULL, ORWELL)} == before_rights
    assert demo_store.rights_of("/O=x/CN=New") == []
    assert "/O=x/CN=New" not in demo_store.subjects
    assert ("file", "ftp://h/x") not in demo_store.objects
    assert demo_store == apply_command_file(PolicyStore(), DEMO_POLICY)[0]


def test_rights_of_hands_out_a_fresh_list(demo_store):
    demo_store.rights_of(TULL).clear()
    assert len(demo_store.rights_of(TULL)) == 2


def reference_snapshot(store: PolicyStore) -> bytes:
    """The snapshot format as first defined: one sort over the whole store."""
    lines = ["# policy snapshot (replayable command file)"]
    for name in sorted(store.service_types):
        actions = ",".join(sorted(store.service_types[name]))
        lines.append("servicetype %s %s" % (name, actions))
    lines += ["user %s" % quote_field(s) for s in sorted(store.subjects)]
    lines += ["object %s %s" % o for o in sorted(store.objects)]
    for subject, r in sorted(
        store.grants, key=lambda g: (g[0], g[1].service_type, g[1].action, g[1].target, g[1].match_mode)
    ):
        lines.append("grant %s %s %s %s" % (quote_field(subject), r.action, r.target, r.match_mode))
    return ("\n".join(lines) + "\n").encode("utf-8")


def random_store(rng: random.Random) -> PolicyStore:
    roles = ["vo%d/role-%d" % (rng.randrange(3), i) for i in range(12)]
    subjects = ["/O=vo/OU=People/CN=Member %d" % rng.randrange(10**6) for _ in range(40)]
    commands = ["servicetype group member", "servicetype file read,write"]
    commands += ["object group %s" % role for role in roles]
    commands += ['user "%s"' % s for s in subjects]
    grants = []
    for subject in subjects:
        for role in rng.sample(roles, rng.randint(0, 4)):
            grants.append('grant "%s" member %s' % (subject, role))
        for action in rng.sample(["read", "write"], rng.randint(0, 2)):
            grants.append('grant "%s" %s ftp://fs/%d/* wildcard' % (subject, action, rng.randrange(3)))
    rng.shuffle(grants)
    return run(PolicyStore(), *commands, *grants)


def test_snapshot_bytes_match_the_whole_store_sort(demo_store):
    assert save_snapshot(demo_store) == reference_snapshot(demo_store)
    store = random_store(random.Random(11))
    assert len(store.grants) > 100
    assert save_snapshot(store) == reference_snapshot(store)
    assert load_snapshot(save_snapshot(store)) == store
