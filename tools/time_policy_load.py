"""Time the policy command-file load of the ``vo_authz`` package.

A CAS applies a command file for its initial load, for every admin
load, and to replay its snapshot at each restart. For a generated VO of
20 roles, whose members each hold three roles and three wildcard file
rights, with every DN quoted, this prints the least time over 5 rounds
of two calls at 3k, 12k and 48k grants: ``apply_command_file`` of the
VO's initial load, and ``load_snapshot`` of the store it builds. Each
is also given per command line, in microseconds, so a cost that grows
faster than the file shows as a rising column. Pass another checkout's
package directory to time that one, for a before/after comparison on
one host; alternate the two a few times, as the host's speed drifts.

Usage: python tools/time_policy_load.py [package-directory]
"""

from __future__ import annotations

import os
import random
import sys
import timeit

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "vo_authz")
ROUNDS = 5
GRANT_COUNTS = (3000, 12000, 48000)
ROLES = tuple("vo/r%02d" % i for i in range(20))
ROLES_PER_MEMBER = 3
FILE_RIGHTS = (
    "read ftp://fs/home/* wildcard",
    "read ftp://fs/public/* wildcard",
    "write ftp://fs/home/data/* wildcard",
)


def initial_load(grants: int) -> str:
    """A VO's first command file, holding ``grants`` grant lines."""
    rng = random.Random(grants)
    members = ["/O=vo/CN=m%05d" % i for i in range(grants // (ROLES_PER_MEMBER + len(FILE_RIGHTS)))]
    lines = ["servicetype group member", "servicetype file read,write"]
    lines += ["object group %s" % role for role in ROLES]
    lines += ['user "%s"' % dn for dn in members]
    for dn in members:
        lines += ['grant "%s" member %s exact' % (dn, role)
                  for role in sorted(rng.sample(ROLES, ROLES_PER_MEMBER))]
        lines += ['grant "%s" %s' % (dn, right) for right in FILE_RIGHTS]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    package = os.path.abspath(argv[1] if len(argv) > 1 else PACKAGE)
    sys.path.insert(0, os.path.dirname(package))
    from vo_authz import policy

    print("%-7s %-20s %9s %12s" % ("grants", "call", "ms", "us/line"))
    for grants in GRANT_COUNTS:
        text = initial_load(grants)
        store, applied = policy.apply_command_file(policy.PolicyStore(), text)
        snapshot = policy.save_snapshot(store)
        calls = {
            "apply_command_file": (lambda: policy.apply_command_file(policy.PolicyStore(), text),
                                   applied),
            "load_snapshot": (lambda: policy.load_snapshot(snapshot), snapshot.count(b"\n") - 1),
        }
        for name, (call, lines) in calls.items():
            best = min(timeit.repeat(call, number=1, repeat=ROUNDS))
            print("%-7d %-20s %9.1f %12.2f" % (grants, name, best * 1e3, best * 1e6 / lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
