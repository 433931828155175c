"""Smoke test of the benchmark at tiny sizes.

    python -m pytest -q bench/test_smoke.py

Runs every workload for a couple of seconds over a 24-member VO, with
and without tracing, and checks that every metric BENCHMARK.json and
bench/README.md name is printed with its unit and that the output
checks pass. It also checks that the output checks catch wrong output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from datetime import timedelta

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import verify  # noqa: E402
import workload  # noqa: E402
from vo_authz import ca, client, credentials  # noqa: E402
from vo_authz.policy import RightsTuple  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

COMMON = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "server_cpu_ms_per_op", "failed_frac")
REPORTED = {
    "issue": COMMON + ("issue_p50_ms", "issue_p90_ms"),
    "file_session": COMMON
    + ("session_open_p50_ms", "small_get_p50_ms", "put_p50_ms", "list_p50_ms", "large_get_MBps"),
    "policy_churn": COMMON
    + ("issue_p50_ms", "issue_p90_ms", "admin_load_p50_ms", "admin_commands_per_s"),
}
INPUTS = (
    "seed", "grants", "repeat_session_share", "repeat_assertion_share",
    "small_get_share", "large_get_share",
)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", ["issue", "file_session", "policy_churn"])
def test_every_metric_is_printed_and_checks_pass(name, trace):
    done = _bench(
        ROOT, "--workload", name, "--seed", "3", "--seconds", "2", "--trace", trace,
        "--members", "24",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    assert set(report) == set(REPORTED[name])
    for metric in REPORTED[name]:
        assert report[metric]["unit"] and report[metric]["value"] is not None, metric
    assert report["failed_frac"]["value"] == 0
    inputs = json.loads(next(l for l in lines if l.startswith("inputs "))[len("inputs "):])
    assert set(INPUTS) <= set(inputs) and inputs["seed"] == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(str(tmp_path), "--workload", "issue", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture
def issued():
    root, _ = credentials.generate_keypair()
    now = credentials.utc_now()
    cas_private, cas_public = credentials.generate_keypair()
    cas = ca.make_identity(root, workload.CAS_DN, cas_public, now, now + timedelta(days=1))
    rights = tuple(RightsTuple(*r) for r in workload.rights_for({workload.MAPPED_ROLE}))
    body = credentials.AssertionBody(
        issuer=cas.subject,
        subject=workload.member_dn(0),
        serial=credentials.fresh_serial(),
        issued_at=now,
        not_after=now + timedelta(hours=1),
        rights=rights,
    )
    return credentials.sign_assertion(body, cas_private), {cas.subject: cas.public_key}


def test_checks_accept_the_expected_assertion(issued):
    assertion, trusted = issued
    expected = {workload.rights_for({workload.MAPPED_ROLE})}
    assert verify.check_issued(assertion, workload.member_dn(0), expected, trusted) == []


def test_checks_catch_wrong_rights_subject_and_signature(issued):
    assertion, trusted = issued
    subject = workload.member_dn(0)
    other = {workload.rights_for({workload.ROLES[1]})}
    assert verify.check_issued(assertion, subject, other, trusted)
    right = {workload.rights_for({workload.MAPPED_ROLE})}
    assert verify.check_issued(assertion, workload.member_dn(1), right, trusted)
    forged = credentials.Assertion(assertion.body, bytes(64))
    assert verify.check_issued(forged, subject, right, trusted)


def test_checks_catch_a_wrong_denial_and_a_wrong_audit(tmp_path):
    denied = client.ServiceError(403, "local-perms", "denied")
    assert verify.check_denied(denied, 403, "local-perms", "GET") == []
    assert verify.check_denied(denied, 403, "rights-not-granted", "issue")
    assert verify.check_denied(None, 403, "local-perms", "GET")

    line = "\t".join(
        ("2003-03-19T08:30:53Z", "/O=vo/CN=m00000", workload.CAS_DN, "data",
         "role:" + workload.MAPPED_ROLE, "LIST", "/home/data/list", "allow", "ok")
    ) + "\n"
    audit = tmp_path / "audit.log"
    audit.write_text(line)
    entry = ("/O=vo/CN=m00000", "LIST", "/home/data/list", "allow", "ok")
    assert verify.check_audit(str(audit), Counter({entry: 1})) == []
    assert verify.check_audit(str(audit), Counter({entry: 2}))
    denied_entry = entry[:3] + ("deny", "local-perms")
    assert verify.check_audit(str(audit), Counter({denied_entry: 1}))


def test_checks_catch_a_put_that_reads_back_wrong(tmp_path):
    (tmp_path / "put").mkdir()
    (tmp_path / "put" / "a.bin").write_bytes(b"abc")
    assert verify.check_readback(str(tmp_path), [("/put/a.bin", 0)], [b"abc"]) == []
    assert verify.check_readback(str(tmp_path), [("/put/a.bin", 0)], [b"abd"])
    assert verify.check_readback(str(tmp_path), [("/put/b.bin", 0)], [b"abc"])
