"""Time the signed-document reads and writes of the ``vo_authz`` package.

Every handshake reads a session document, and every issuance writes an
assertion; a file session also reads one. For each of the five calls
below, this prints the least time per call, in microseconds, over 7
rounds of 2,000 calls each. Pass another checkout's package directory
to time that one, for a before/after comparison on one host; alternate
the two a few times, as the host's speed drifts.

Usage: python tools/time_documents.py [package-directory]
"""

from __future__ import annotations

import os
import sys
import timeit
from datetime import datetime, timedelta, timezone

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "vo_authz")
ROUNDS = 7
CALLS = 2000


def sample_calls(credentials, ca, policy) -> dict:
    """The five timed calls, each bound to one realistic document or object."""
    start = datetime(2003, 3, 19, 8, 30, 53, tzinfo=timezone.utc)
    root_private, _ = credentials.generate_keypair()
    identity_private, identity_public = credentials.generate_keypair()
    identity = ca.make_identity(root_private, "/O=vo/CN=m00001", identity_public,
                                start, start + timedelta(days=365))
    session = credentials.delegate_session(identity, identity_private, credentials.generate_keypair()[1],
                                           start + timedelta(hours=12))
    # A member's share of the benchmark's rights: three roles and three file rights.
    rights = tuple(policy.RightsTuple("group", "member", "vo/r%02d" % i) for i in range(3)) + (
        policy.RightsTuple("file", "read", "ftp://fs/home/*", policy.WILDCARD),
        policy.RightsTuple("file", "read", "ftp://fs/public/*", policy.WILDCARD),
        policy.RightsTuple("file", "write", "ftp://fs/home/data/*", policy.WILDCARD),
    )
    body = credentials.AssertionBody(
        issuer="/O=vo/CN=cas", subject=identity.subject, serial=credentials.fresh_serial(),
        issued_at=start, not_after=start + timedelta(hours=12), rights=rights,
    )
    assertion = credentials.sign_assertion(body, identity_private)
    session_doc = credentials.session_to_doc(session)
    assertion_doc = credentials.assertion_to_doc(assertion)
    return {
        "session_from_doc": lambda: credentials.session_from_doc(session_doc),
        "session_to_doc": lambda: credentials.session_to_doc(session),
        "assertion_from_doc": lambda: credentials.assertion_from_doc(assertion_doc),
        "assertion_to_doc": lambda: credentials.assertion_to_doc(assertion),
        "AssertionBody.signed_payload": body.signed_payload,
    }


def main(argv: list[str]) -> int:
    package = os.path.abspath(argv[1] if len(argv) > 1 else PACKAGE)
    sys.path.insert(0, os.path.dirname(package))
    from vo_authz import ca, credentials, policy

    for name, call in sample_calls(credentials, ca, policy).items():
        call()  # fill lazy caches before timing
        best = min(timeit.repeat(call, number=CALLS, repeat=ROUNDS)) / CALLS
        print("%-30s %7.2f us" % (name, best * 1e6))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
