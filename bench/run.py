"""The vo-authz benchmark: one command per workload run.

    python3 bench/run.py --workload issue --seed 1 --seconds 20 --trace 0

Workloads: ``issue``, ``file_session`` and ``policy_churn`` (see
bench/README.md). With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. Every output the servers
give is checked, and the command exits 1 if any check fails.

Run it from the root of a checkout: it builds nothing, but it serves
the checkout's own ``src/vo_authz`` and writes only under
``.bench_run/`` there.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOADS = ("issue", "file_session", "policy_churn")


def _stop_on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--members", type=int, default=2000, help="VO size (smaller only for smoke tests)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "vo_authz", "__init__.py")):
        print("error: no vo_authz sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, _stop_on_term)

    import harness

    try:
        return harness.execute(args)
    except harness.BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
