"""Output checks: every result the servers gave, against the generator.

Each function returns a list of error strings; an empty list means the
outputs were correct.
"""

from __future__ import annotations

import os
from collections import Counter

from vo_authz import client, credentials

import workload


def rights_set(assertion: credentials.Assertion) -> frozenset:
    return frozenset(
        (r.service_type, r.action, r.target, r.match_mode) for r in assertion.body.rights
    )


def check_issued(
    assertion,
    subject: str,
    expected_options,
    trusted: dict[str, bytes],
) -> list[str]:
    """The assertion verifies under the CAS key and carries exactly the
    rights of one of ``expected_options``."""
    if not isinstance(assertion, credentials.Assertion):
        return ["expected an assertion for %s, got %r" % (subject, assertion)]
    try:
        verified = credentials.verify_assertion(assertion, trusted, credentials.utc_now())
    except credentials.CredentialError as exc:
        return ["assertion for %s does not verify: %s" % (subject, exc)]
    errors = []
    if verified.subject != subject:
        errors.append("assertion names %r, expected %r" % (verified.subject, subject))
    rights = rights_set(assertion)
    if len(rights) != len(assertion.body.rights) or rights not in expected_options:
        errors.append(
            "assertion for %s carries %s, expected one of %s"
            % (subject, sorted(rights), [sorted(o) for o in expected_options])
        )
    return errors


def check_denied(outcome, status: int, code: str, what: str) -> list[str]:
    if isinstance(outcome, client.ServiceError) and (outcome.status, outcome.code) == (
        status,
        code,
    ):
        return []
    return ["%s: expected %d %s, got %r" % (what, status, code, outcome)]


def check_readback(export_root: str, puts, payloads) -> list[str]:
    """Every acknowledged PUT left the exact payload on disk."""
    errors = []
    for path, payload in puts:
        try:
            with open(export_root + path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            errors.append("PUT %s: cannot read back: %s" % (path, exc))
            continue
        if data != payloads[payload]:
            errors.append("PUT %s: read back %d bytes that differ" % (path, len(data)))
    return errors


def check_audit(audit_path: str, expected: Counter) -> list[str]:
    """One audit line per file command attempted, with matching outcome.

    ``expected`` counts (subject, op, path, decision, reason) tuples, as
    the client saw them.
    """
    seen: Counter = Counter()
    if os.path.exists(audit_path):
        with open(audit_path, "r", encoding="utf-8") as handle:
            for line in handle:
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 9:
                    return ["malformed audit line %r" % line]
                _, subject, issuer, account, via, op, path, decision, reason = fields
                if (issuer, account, via) != (workload.CAS_DN, "data", "role:" + workload.MAPPED_ROLE):
                    return ["audit line names the wrong issuer or account: %r" % line]
                seen[(subject, op, path, decision, reason)] += 1
    if seen == expected:
        return []
    missing = expected - seen
    extra = seen - expected
    return [
        "audit differs from the commands sent: %d missing (e.g. %s), %d unexpected (e.g. %s)"
        % (
            sum(missing.values()),
            next(iter(missing), None),
            sum(extra.values()),
            next(iter(extra), None),
        )
    ]
