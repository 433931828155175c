"""Benchmark orchestration: set-up, the three workloads, checks, metrics.

Both servers run in their own processes (``serve.py``); the load comes
from this process through the public ``vo_authz.client`` API over
loopback, as a closed loop: each client thread sends its next request
only after the previous reply.
"""

from __future__ import annotations

import io
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from collections import Counter

from vo_authz import client, policy, wire

import spans
import verify
import workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3  # set-ups per run; setup_s is their median
CLIENT_THREADS = 2
IO_TIMEOUT = 30.0
ADMIN_TIMEOUT = 120.0
LOCAL = "127.0.0.1"

TRANSPORT_ERRORS = (wire.WireError, OSError)

# The end-to-end metrics BENCHMARK.json bounds: every workload has them.
# The rest, server CPU per op included (too noisy on a shared host to
# bound), are printed on the "report" line.
BOUNDED_METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")


class BenchError(Exception):
    """The benchmark could not run to the end."""


# -- server processes ------------------------------------------------------------------


class ServerProcess:
    """One server launched through ``serve.py`` and driven over its stdin."""

    def __init__(self, kind: str, config: str, spans_path: str | None):
        command = [sys.executable, os.path.join(BENCH_DIR, "serve.py"), kind, config]
        if spans_path:
            command += ["--spans", spans_path]
        self.kind = kind
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def reply(self) -> dict:
        ready, _, _ = select.select([self._proc.stdout], [], [], ADMIN_TIMEOUT)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("%s server did not answer" % self.kind)
        return json.loads(line)

    def send(self, command: str) -> None:
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()

    def ask(self, command: str) -> dict:
        self.send(command)
        return self.reply()

    def finish(self) -> dict:
        """Wait for the answer to ``stop`` and for the process to exit."""
        answer = self.reply()
        self._proc.wait(timeout=ADMIN_TIMEOUT)
        return answer

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            if not stream.closed:
                stream.close()


class Env:
    """Both servers of one set-up, with their own config, export and audit."""

    def __init__(self, directory: str, creds: workload.Credentials, tree, traced: bool):
        os.makedirs(directory)
        self.directory = directory
        self.export_root = os.path.join(directory, "export")
        self.audit_path = os.path.join(directory, "audit.log")
        self.traced = traced
        self.servers: list[ServerProcess] = []
        tree.materialize(self.export_root)
        self._write(
            "cas.conf",
            "listen = %s:0\nkey_file = %s\ntrust_root_file = %s\n"
            "snapshot_file = policy.snapshot\nadmin_dns = \"%s\"\n"
            % (LOCAL, creds.cas_key_file, creds.trust_root_file, workload.ADMIN_DN),
        )
        self._write("roles.map", "%s data\n" % workload.MAPPED_ROLE)
        self._write("grid.map", '"%s" data,admin\n' % workload.CAS_DN)
        self._write("accounts.map", "data /home/data rw\nadmin /home/admin rw\n")
        self._write(
            "files.conf",
            "listen = %s:0\nserver_name = %s\ntrust_root_file = %s\n"
            "issuer_files = \"%s\"\nrole_map_file = roles.map\ngrid_map_file = grid.map\n"
            "account_file = accounts.map\nexport_root = export\naudit_file = audit.log\n"
            "public_root = /public\n"
            % (LOCAL, workload.SERVER_NAME, creds.trust_root_file, creds.cas_public_file),
        )

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)

    def _spans_path(self, kind: str) -> str | None:
        return os.path.join(self.directory, kind + ".spans") if self.traced else None

    def start(self, admin, commands: str, expected_applied: int) -> float:
        """Launch both servers and load the initial policy; returns setup_s."""
        started = time.perf_counter()
        for kind, config in (("cas", "cas.conf"), ("file", "files.conf")):
            config = os.path.join(self.directory, config)
            self.servers.append(ServerProcess(kind, config, self._spans_path(kind)))
        cas, files = self.servers
        self.cas_addr = (LOCAL, cas.reply()["port"])
        self.file_addr = (LOCAL, files.reply()["port"])
        applied = client.admin_load(self.cas_addr, admin, commands, timeout=ADMIN_TIMEOUT)
        setup_s = time.perf_counter() - started
        if applied != expected_applied:
            raise BenchError("initial load applied %d of %d commands" % (applied, expected_applied))
        return setup_s

    def cpu_s(self) -> float:
        return sum(server.ask("cpu")["cpu_s"] for server in self.servers)

    def stop(self) -> int:
        """Stop both servers; returns the size of the CAS's store."""
        for server in self.servers:
            server.send("stop")
        cas, files = self.servers
        grants = cas.finish()["grants"]
        files.finish()
        self.kill()
        return grants

    def kill(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers = []

    def spans(self) -> tuple[dict[str, list], list[str]]:
        processes, missing = {}, []
        for kind in ("cas", "file"):
            with open(self._spans_path(kind), "r", encoding="utf-8") as handle:
                dumped = json.load(handle)
            processes[kind] = [tuple(span) for span in dumped["spans"]]
            missing += dumped["missing"]
        return processes, missing


# -- what one client thread records ------------------------------------------------------


class Log:
    """One thread's record of its calls; merged after the window."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.issued: list[tuple] = []  # (request, t0, t1, outcome)
        self.commands = 0  # admin commands applied
        self.puts: list[tuple[str, int]] = []
        self.audit: Counter = Counter()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def outcome(self, what: str, result, errors: list[str]) -> None:
        """Count one attempted call and file its failure or wrong output."""
        self.attempted += 1
        if isinstance(result, TRANSPORT_ERRORS):
            self.failed += 1
            self.errors.append("%s failed: %r" % (what, result))
        else:
            self.errors.extend(errors)

    def merge(self, other: "Log") -> None:
        for kind, values in other.samples.items():
            self.samples.setdefault(kind, []).extend(values)
        self.issued += other.issued
        self.commands += other.commands
        self.puts += other.puts
        self.audit += other.audit
        self.errors += other.errors
        self.attempted += other.attempted
        self.failed += other.failed


def _call(function, *args, **kwargs):
    """Run one client call; returns (result or exception, seconds)."""
    started = time.perf_counter()
    try:
        result = function(*args, **kwargs)
    except Exception as exc:  # recorded and judged by the output checks
        result = exc
    return result, time.perf_counter() - started


# -- the run context ------------------------------------------------------------------------


class Run:
    """Inputs, credentials and model shared by every phase of one run."""

    def __init__(self, args, directory: str):
        self.name = args.workload
        self.seed = args.seed
        self.directory = directory
        self.vo = workload.Vo(args.seed, args.members)
        self.commands = self.vo.initial_commands()
        if len(json.dumps({"type": "admin_load", "commands": self.commands})) > wire.MAX_FRAME_BYTES:
            raise BenchError("initial policy does not fit in one frame; use fewer members")
        self.tree = workload.FileTree(args.seed)
        self.creds = workload.Credentials(directory)
        self.trusted = {workload.CAS_DN: self.creds.cas_public_key}
        pool_dns = [self.vo.members[m] for m in self.vo.file_pool]
        self.file_bundles = self.creds.bundles(pool_dns, 1)
        self.pool = []
        if self.name != "file_session":
            self.pool = self.creds.bundles(self.vo.members, workload.SESSIONS_PER_MEMBER)
        self._setups = 0

    def env(self, traced: bool) -> Env:
        self._setups += 1
        return Env(
            os.path.join(self.directory, "setup%d" % self._setups), self.creds, self.tree, traced
        )


class Phase:
    """One set of live servers: warm-up, the measured window, the checks."""

    def __init__(self, run: Run, env: Env):
        self.run = run
        self.env = env
        self.model = workload.PolicyModel(run.vo)
        self.versions: list[tuple[float, float]] = []  # (sent, done) per admin batch
        self.assertions = {}
        self.warmup = Log()
        self.log = Log()
        # Input properties: credentials presented in the window, and how
        # many of them this set-up's servers had already seen.
        self._seen: set[int] = set()
        self._seen_lock = threading.Lock()
        self.sessions = [0, 0]  # (session credentials presented, repeats)
        self.presented = [0, 0]  # (assertions presented, repeats)

    # -- warm-up --------------------------------------------------------------------------

    def warm_up(self) -> None:
        """Issue the file pool's assertions and run one probe session.

        This checks both servers answer before timing starts and makes
        every layer run at least once, in every workload.
        """
        run = self.run
        for member in run.vo.file_pool:
            request = workload.IssueRequest(-1, -1, member, workload.ALL, None)
            bundle = run.file_bundles[member]
            self._note(bundle, None)
            started = time.perf_counter()
            result, seconds = _call(
                client.issue_assertion, self.env.cas_addr, bundle, timeout=IO_TIMEOUT
            )
            self.warmup.issued.append((request, started, started + seconds, result))
            self.assertions[member] = result
        self.check_issued(self.warmup)
        if self.warmup.errors:
            raise BenchError("warm-up issuance failed: %s" % self.warmup.errors[0])
        self.file_session(workload.probe_session(run.vo), None, self.warmup)

    def _note(self, credential, counter: list[int] | None) -> None:
        with self._seen_lock:
            if counter is not None:
                counter[0] += 1
                counter[1] += id(credential) in self._seen
            self._seen.add(id(credential))

    # -- workers --------------------------------------------------------------------------

    def issue_worker(self, stream: workload.IssueStream, deadline: float, log: Log) -> None:
        while time.perf_counter() < deadline:
            request = stream.next()
            requested = ()
            if request.role is not None:
                requested = (policy.RightsTuple("group", "member", request.role, "exact"),)
            bundle = self.run.pool[request.slot]
            self._note(bundle, self.sessions)
            started = time.perf_counter()
            result, seconds = _call(
                client.issue_assertion, self.env.cas_addr, bundle, requested, timeout=IO_TIMEOUT
            )
            log.sample("issue", seconds)
            log.issued.append((request, started, started + seconds, result))

    def file_worker(self, stream: workload.FileStream, deadline: float, log: Log) -> None:
        while time.perf_counter() < deadline:
            self.file_session(stream.next(), deadline, log)

    def admin_worker(self, churn: workload.ChurnStream, deadline: float, log: Log) -> None:
        while time.perf_counter() < deadline:
            batch = churn.next()
            sent = time.perf_counter()
            result, seconds = _call(
                client.admin_load, self.env.cas_addr, self.run.creds.admin, batch.text,
                timeout=ADMIN_TIMEOUT,
            )
            errors = []
            if result != batch.commands:
                errors.append("admin batch: expected %d applied, got %r" % (batch.commands, result))
            log.outcome("admin batch", result, errors)
            if errors:
                return  # the model no longer knows the store; stop churning
            self.model.commit(batch.changes)
            self.versions.append((sent, sent + seconds))
            log.sample("batch", seconds)
            log.commands += batch.commands

    def file_session(self, session: workload.FileSession, deadline, log: Log) -> None:
        """Open a session, run its commands until the deadline, then QUIT."""
        run = self.run
        subject = run.vo.members[session.member]
        bundle = run.file_bundles[session.member]
        assertion = self.assertions[session.member]
        counted = deadline is not None
        self._note(bundle, self.sessions if counted else None)
        self._note(assertion, self.presented if counted else None)
        opened, seconds = _call(
            client.ResourceSession, self.env.file_addr, bundle, assertion, timeout=IO_TIMEOUT
        )
        errors = []
        if isinstance(opened, client.ResourceSession):
            if (opened.account, opened.via) != ("data", "role:" + workload.MAPPED_ROLE):
                errors.append("session mapped to %r via %r" % (opened.account, opened.via))
        else:
            errors.append("session open for %s: %r" % (subject, opened))
        log.outcome("session open", opened, errors)
        if errors:
            if isinstance(opened, client.ResourceSession):
                opened.close()
            return
        log.sample("open", seconds)
        with opened as live:
            for command in session.commands:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if not self._file_command(live, subject, command, log):
                    return
            result, _ = _call(live.quit)
            log.outcome("QUIT", result, [] if result is None else ["QUIT: %r" % result])

    def _file_command(self, live, subject: str, command: workload.FileCommand, log: Log) -> bool:
        tree = self.run.tree
        path = command.path
        kind = command.kind
        errors = []
        if kind == workload.LIST:
            result, seconds = _call(live.ls, path)
            if result != sorted(workload.LIST_ENTRIES):
                errors.append("LIST %s returned %r" % (path, result))
            audit = (subject, "LIST", path, "allow", "ok")
        elif kind in (workload.GET, workload.LARGE_GET):
            sink = io.BytesIO()
            result, seconds = _call(live.get, path, sink)
            if sink.getvalue() != tree.contents[path]:
                errors.append("GET %s returned wrong bytes (%r)" % (path, result))
            audit = (subject, "GET", path, "allow", "ok")
        elif kind == workload.PUT:
            result, seconds = _call(live.put, path, tree.put_payloads[command.payload])
            if result is None:
                log.puts.append((path, command.payload))
            else:
                errors.append("PUT %s: %r" % (path, result))
            audit = (subject, "PUT", path, "allow", "ok")
        else:
            sink = io.BytesIO()
            result, seconds = _call(live.get, path, sink)
            errors = verify.check_denied(result, 403, "local-perms", "GET %s" % path)
            audit = (subject, "GET", path, "deny", "local-perms")
        log.audit[audit] += 1
        log.outcome("%s %s" % (kind, path), result, errors)
        log.sample(kind, seconds)
        # A refusal leaves the stream aligned; any other error may not.
        return not errors or isinstance(result, client.ServiceError)

    # -- the window --------------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Drive the workload for ``seconds``; returns the window's figures."""
        run = self.run
        deadline = time.perf_counter() + seconds
        workers = []
        if run.name == "issue":
            stream = workload.IssueStream(run.seed, run.vo, len(run.pool), mixed=True)
            workers = [(self.issue_worker, stream)] * CLIENT_THREADS
        elif run.name == "file_session":
            stream = workload.FileStream(run.seed, run.vo, run.tree)
            workers = [(self.file_worker, stream)] * CLIENT_THREADS
        else:
            stream = workload.IssueStream(run.seed, run.vo, len(run.pool), mixed=False)
            churn = workload.ChurnStream(run.seed, run.vo, self.model)
            workers = [(self.admin_worker, churn), (self.issue_worker, stream)]
        logs = [Log() for _ in workers]
        threads = [
            threading.Thread(target=work, args=(source, deadline, log), daemon=True)
            for (work, source), log in zip(workers, logs)
        ]
        cpu_before = self.env.cpu_s()
        start_ns = time.perf_counter_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end_ns = time.perf_counter_ns()
        cpu = self.env.cpu_s() - cpu_before
        for log in logs:
            self.log.merge(log)
        return {"elapsed": (end_ns - start_ns) / 1e9, "cpu_s": cpu, "window": (start_ns, end_ns)}

    # -- checks --------------------------------------------------------------------------------

    def check_issued(self, log: Log) -> None:
        sent = [s for s, _ in self.versions]
        done = [d for _, d in self.versions]
        for request, started, ended, result in log.issued:
            subject = self.run.vo.members[request.member]
            what = "issuance %d for %s" % (request.index, subject)
            if request.kind == workload.UNHELD:
                errors = verify.check_denied(result, 403, "rights-not-granted", what)
            elif request.kind == workload.NARROW:
                options = {frozenset({workload.role_right(request.role)})}
                errors = verify.check_issued(result, subject, options, self.run.trusted)
            else:
                low, high = bisect_left(done, started), bisect_left(sent, ended)
                options = self.model.rights_between(request.member, low, high)
                errors = verify.check_issued(result, subject, options, self.run.trusted)
            log.outcome(what, result, errors)

    def finish(self) -> tuple[int, list[str]]:
        """Stop the servers and check every output.

        Returns the CAS's final store size and every check that failed.
        """
        grants = self.env.stop()
        both = Log()
        both.merge(self.warmup)
        both.merge(self.log)
        self.check_issued(self.log)
        errors = self.warmup.errors + self.log.errors
        errors += verify.check_readback(self.env.export_root, both.puts, self.run.tree.put_payloads)
        errors += verify.check_audit(self.env.audit_path, both.audit)
        if grants != self.model.grant_count():
            errors.append("CAS store holds %r grants, the model %d" % (grants, self.model.grant_count()))
        return grants, errors


# -- metrics ----------------------------------------------------------------------------------


def _median_ms(values) -> float | None:
    return statistics.median(values) * 1e3 if values else None


def _p90_ms(values) -> float | None:
    if len(values) < 2:
        return _median_ms(values)
    return statistics.quantiles(values, n=10)[8] * 1e3


def op_samples(name: str, samples: dict) -> list[float]:
    """The latencies of the ops the workload counts: issuances, file
    commands, or admin batches."""
    if name == "issue":
        return samples.get("issue", [])
    if name == "file_session":
        kinds = (workload.LIST, workload.GET, workload.LARGE_GET, workload.PUT, workload.DENY)
        return [value for kind in kinds for value in samples.get(kind, [])]
    return samples.get("batch", [])


def end_to_end(name: str, phase: Phase, window: dict, setups: list[float]) -> dict:
    """Every end-to-end metric that applies to the workload, with its unit
    and the number of samples behind it."""
    samples = phase.log.samples
    ops = op_samples(name, samples)
    if not ops:
        raise BenchError("no op completed in the window")
    elapsed = window["elapsed"]
    log = phase.log
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (len(ops) / elapsed, "1/s", len(ops)),
        "op_p50_ms": (_median_ms(ops), "ms", len(ops)),
        "op_p90_ms": (_p90_ms(ops), "ms", len(ops)),
        "server_cpu_ms_per_op": (window["cpu_s"] * 1e3 / len(ops), "ms", len(ops)),
        "failed_frac": (log.failed / max(log.attempted, 1), "frac", log.attempted),
    }

    def latency(key: str, kind: str, p90: bool = False) -> None:
        values = samples.get(kind, [])
        metrics[key] = ((_p90_ms if p90 else _median_ms)(values), "ms", len(values))

    if name in ("issue", "policy_churn"):
        latency("issue_p50_ms", "issue")
        latency("issue_p90_ms", "issue", p90=True)
    if name == "file_session":
        latency("session_open_p50_ms", "open")
        latency("small_get_p50_ms", "GET")
        latency("put_p50_ms", "PUT")
        latency("list_p50_ms", "LIST")
        rates = [workload.LARGE_BYTES / s / 1e6 for s in samples.get("LARGE_GET", [])]
        metrics["large_get_MBps"] = (statistics.median(rates) if rates else None, "MB/s", len(rates))
    if name == "policy_churn":
        latency("admin_load_p50_ms", "batch")
        batches = len(samples.get("batch", []))
        metrics["admin_commands_per_s"] = (log.commands / elapsed, "1/s", batches)
    return {
        key: {"value": value, "unit": unit, "samples": count}
        for key, (value, unit, count) in metrics.items()
    }


def input_properties(run: Run, phase: Phase) -> dict:
    """The input properties an optimisation may depend on, as run."""
    samples = phase.log.samples
    small, large = len(samples.get("GET", ())), len(samples.get("LARGE_GET", ()))
    sessions, repeats = phase.sessions
    presented, repeated = phase.presented
    return {
        "workload": run.name,
        "seed": run.seed,
        "members": len(run.vo.members),
        "grants": phase.model.grant_count(),
        "session_credentials": len(run.pool) or len(run.file_bundles),
        "repeat_session_share": repeats / sessions if sessions else 0.0,
        "repeat_assertion_share": repeated / presented if presented else 0.0,
        "small_get_share": small / (small + large) if small + large else 0.0,
        "large_get_share": large / (small + large) if small + large else 0.0,
    }


# -- one run ------------------------------------------------------------------------------------


def _phase(run: Run, traced: bool, seconds: float, setups: int = 1):
    """Set up ``setups`` times, measure on the last set-up, check it."""
    setup_times = []
    for index in range(setups):
        env = run.env(traced)
        try:
            setup_times.append(
                env.start(run.creds.admin, run.commands, run.vo.initial_command_count())
            )
            if index == setups - 1:
                phase = Phase(run, env)
                phase.warm_up()
                window = phase.measure(seconds)
                grants, errors = phase.finish()
                return phase, window, setup_times, grants, errors
            env.stop()
        finally:
            env.kill()


def execute(args) -> int:
    root = os.path.dirname(BENCH_DIR)
    directory = os.path.join(root, ".bench_run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        return _execute(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _execute(args, directory: str) -> int:
    run = Run(args, directory)
    if not args.trace:
        phase, window, setups, _, errors = _phase(run, False, args.seconds, SETUPS)
        report = end_to_end(run.name, phase, window, setups)
        log = phase.log
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in report.items()
                   if k in BOUNDED_METRICS}
        inputs = input_properties(run, phase)
    else:
        plain, plain_window, plain_setups, _, plain_errors = _phase(run, False, args.seconds / 2)
        report = end_to_end(run.name, plain, plain_window, plain_setups)
        tracer = spans.Tracer(per_thread_requests=False)
        spans.trace_client(tracer)
        phase, window, _, grants, errors = _phase(run, True, args.seconds / 2)
        processes, missing = phase.env.spans()
        processes["client"] = list(tracer.spans)
        if missing or tracer.missing:
            print("warning: not traced: %s" % ", ".join(missing + tracer.missing), file=sys.stderr)
        ops = op_samples(run.name, phase.log.samples)
        plain_ops = op_samples(run.name, plain.log.samples)
        if not ops:
            raise BenchError("no op completed in the traced window")
        overhead = (statistics.median(ops) / statistics.median(plain_ops) - 1) * 100
        inputs = input_properties(run, phase)
        values = spans.layer_metrics(
            spans.LayerStats(processes, window["window"]),
            ops=len(ops),
            grants=grants,
            repeat_session_share=inputs["repeat_session_share"],
            repeat_assertion_share=inputs["repeat_assertion_share"],
            overhead_pct=overhead,
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS}
        errors = plain_errors + errors
        log = Log()
        log.merge(plain.log)
        log.merge(phase.log)
    print("inputs " + json.dumps(inputs))
    print("report " + json.dumps(report))
    for error in errors[:20]:
        print("check failed: %s" % error, file=sys.stderr)
    correct = not errors
    print(
        json.dumps(
            {"correct": correct, "attempted": log.attempted, "failed": log.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1

