"""Span tracing for the traced benchmark run, and the per-layer metrics.

A :class:`Tracer` replaces functions and methods of the ``vo_authz``
layers with wrappers that record one span per call: name, start, end,
the span that caused it, the request id and an optional value taken
from the call. Spans stay in memory and are written out when the run
ends. Nothing here is installed in an untraced run.

Modules that import a function by name keep their own reference to it,
so a wrapper replaces the name in the calling module: the issuance
service's ``filter_rights`` is ``cas_server.filter_rights``, not
``engine.filter_rights``. Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# Span tuple fields.
NAME, START, END, SPAN_ID, PARENT, REQUEST, VALUE, ERROR = range(8)


class Tracer:
    """Records spans from every thread of one process.

    Servers handle each connection on its own thread, so with
    ``per_thread_requests`` a thread's spans share one request id. In
    the load process the client threads are long-lived, and each
    top-level span starts a new request.
    """

    def __init__(self, per_thread_requests: bool):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._per_thread = per_thread_requests
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``value(args, result)`` may pick a number or label out of each
        call for the span. A name the code no longer has is listed in
        ``missing`` and its metrics read zero.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not hasattr(local, "request") or (not stack and not tracer._per_thread):
                local.request = next(tracer._request_ids)
            span_id = next(tracer._span_ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                picked = value(args, result) if value is not None and error is None else None
                tracer.spans.append(
                    (name, start, end, span_id, parent, local.request, picked, error)
                )

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "missing": self.missing}, handle)


def _wrap_wire(tracer: Tracer, wire) -> None:
    tracer.wrap(wire.Channel, "send_frame", "wire.send_frame")
    tracer.wrap(wire.Channel, "recv_frame", "wire.recv_frame")
    tracer.wrap(wire.Channel, "send_bytes", "wire.send_bytes", lambda a, r: len(a[1]))
    tracer.wrap(wire.Channel, "recv_bytes_to", "wire.recv_bytes_to", lambda a, r: a[1])


def trace_cas_server(tracer: Tracer) -> None:
    from vo_authz import cas_server, credentials, policy, wire

    _wrap_wire(tracer, wire)
    tracer.wrap(cas_server, "authenticate_peer", "credentials.authenticate_peer")
    tracer.wrap(credentials, "verify_session_chain", "credentials.verify_session_chain")
    tracer.wrap(cas_server, "sign_assertion", "credentials.sign_assertion")
    tracer.wrap(cas_server, "assertion_to_doc", "credentials.assertion_to_doc")
    tracer.wrap(policy.PolicyStore, "rights_of", "policy.rights_of")
    tracer.wrap(cas_server, "apply_command_file", "policy.apply_command_file",
                lambda a, r: r[1])
    tracer.wrap(cas_server, "save_snapshot", "policy.save_snapshot")
    tracer.wrap(cas_server, "filter_rights", "engine.filter_rights")
    tracer.wrap(cas_server.CasService, "handle_request", "cas_server.handle_request",
                lambda a, r: r.get("status"))
    tracer.wrap(cas_server.CasService, "handle_issue", "cas_server.handle_issue")
    tracer.wrap(cas_server.CasService, "handle_admin_load", "cas_server.handle_admin_load")


def trace_file_server(tracer: Tracer) -> None:
    from vo_authz import credentials, file_server, wire

    _wrap_wire(tracer, wire)
    tracer.wrap(file_server, "authenticate_peer", "credentials.authenticate_peer")
    tracer.wrap(credentials, "verify_session_chain", "credentials.verify_session_chain")
    tracer.wrap(file_server, "assertion_from_doc", "credentials.assertion_from_doc")
    tracer.wrap(file_server, "verify_assertion", "credentials.verify_assertion")
    tracer.wrap(file_server, "map_to_account", "file_server.map_to_account")
    tracer.wrap(file_server, "roles_in", "engine.roles_in")
    tracer.wrap(file_server, "authorize_file_op", "file_server.authorize_file_op",
                lambda a, r: r.allowed)
    tracer.wrap(file_server, "check_right", "engine.check_right")
    tracer.wrap(file_server.ResourceService, "fs_path", "file_server.fs_path")
    tracer.wrap(file_server.AuditLog, "write", "file_server.audit_write")
    tracer.wrap(file_server.ResourceService, "handle_session", "file_server.handle_session")


def trace_client(tracer: Tracer) -> None:
    from vo_authz import client, wire

    _wrap_wire(tracer, wire)
    tracer.wrap(client, "issue_assertion", "client.issue_assertion")
    tracer.wrap(client, "admin_load", "client.admin_load")
    tracer.wrap(client.ResourceSession, "__init__", "client.session_open")
    tracer.wrap(client.ResourceSession, "get", "client.get")
    tracer.wrap(client.ResourceSession, "put", "client.put")
    tracer.wrap(client.ResourceSession, "ls", "client.ls")


# -- per-layer metrics --------------------------------------------------------------

# (metric, unit, better) in the order they are reported; BENCHMARK.json lists
# the same. Input properties (grants, repeat shares) carry a nominal direction.
LAYER_METRICS = (
    ("wire.sends_per_op", "1/op", "lower"),
    ("wire.frames_per_op", "1/op", "lower"),
    ("wire.send_frame_us", "us", "lower"),
    ("wire.recv_wait_ms", "ms/op", "lower"),
    ("wire.stream_MBps", "MB/s", "higher"),
    ("credentials.authenticate_peer_us", "us", "lower"),
    ("credentials.verify_session_chain_us", "us", "lower"),
    ("credentials.verify_session_chain_calls", "1/op", "lower"),
    ("credentials.repeat_session_share", "frac", "higher"),
    ("credentials.sign_assertion_us", "us", "lower"),
    ("credentials.assertion_to_doc_us", "us", "lower"),
    ("credentials.verify_assertion_us", "us", "lower"),
    ("credentials.assertion_from_doc_us", "us", "lower"),
    ("credentials.repeat_assertion_share", "frac", "higher"),
    ("policy.grants", "count", "lower"),
    ("policy.rights_of_us", "us", "lower"),
    ("policy.rights_of_calls", "1/op", "lower"),
    ("policy.apply_command_file_ms", "ms", "lower"),
    ("policy.us_per_command", "us", "lower"),
    ("policy.save_snapshot_ms", "ms", "lower"),
    ("engine.filter_rights_us", "us", "lower"),
    ("engine.filter_denied", "1/op", "lower"),
    ("engine.check_right_us", "us", "lower"),
    ("engine.check_right_calls", "1/op", "lower"),
    ("engine.roles_in_us", "us", "lower"),
    ("cas_server.handle_issue_self_us", "us", "lower"),
    ("cas_server.handle_admin_load_self_ms", "ms", "lower"),
    ("cas_server.status_200", "count", "higher"),
    ("cas_server.status_403", "count", "lower"),
    ("file_server.map_to_account_us", "us", "lower"),
    ("file_server.authorize_file_op_us", "us", "lower"),
    ("file_server.fs_path_us", "us", "lower"),
    ("file_server.audit_write_us", "us", "lower"),
    ("file_server.audit_records", "count", "higher"),
    ("file_server.denied_ops", "count", "lower"),
    ("client.issue_assertion_ms", "ms", "lower"),
    ("client.session_open_ms", "ms", "lower"),
    ("client.get_ms", "ms", "lower"),
    ("client.put_ms", "ms", "lower"),
    ("client.ls_ms", "ms", "lower"),
    ("client.admin_load_ms", "ms", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def with_self_time(spans: list) -> list[tuple]:
    """(span, self ns) for one process's spans.

    A span's children run on its own thread one after another, so the
    time they cover is the sum of their durations.
    """
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT]:
            covered[span[PARENT]] += span[END] - span[START]
    return [(span, span[END] - span[START] - covered[span[SPAN_ID]]) for span in spans]


class LayerStats:
    """Per-name views over the spans of every process in a traced run.

    ``window`` is (start ns, end ns) of the measured window. Counts and
    per-op ratios use the spans that started inside it. Per-call times
    use every span, so layers reached only during set-up and warm-up
    (such as the initial policy load) still report a time.
    """

    def __init__(self, processes: dict[str, list], window: tuple[int, int]):
        self._window = window
        self._by_name: dict[str, list[tuple]] = defaultdict(list)
        for process, spans in processes.items():
            for span, self_ns in with_self_time(spans):
                self._by_name[span[NAME]].append((process, span, self_ns))

    def spans(self, name: str, process: str | None = None, window: bool = True) -> list:
        low, high = self._window
        return [
            span
            for owner, span, _ in self._by_name.get(name, ())
            if (process is None or owner == process)
            and (not window or low <= span[START] < high)
        ]

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def self_us(self, name: str) -> float:
        values = [self_ns for _, _, self_ns in self._by_name.get(name, ())]
        return statistics.median(values) / 1e3 if values else 0.0

    def self_ns_total(self, name: str) -> int:
        return sum(self_ns for _, _, self_ns in self._by_name.get(name, ()))

    def duration_ms(self, name: str) -> float:
        values = [span[END] - span[START] for _, span, _ in self._by_name.get(name, ())]
        return statistics.median(values) / 1e6 if values else 0.0


def _duration_ns(spans) -> int:
    return sum(span[END] - span[START] for span in spans)


def layer_metrics(
    stats: LayerStats,
    ops: int,
    grants: int,
    repeat_session_share: float,
    repeat_assertion_share: float,
    overhead_pct: float,
) -> dict[str, float]:
    """Every metric in :data:`LAYER_METRICS`, by name.

    Per-op ratios divide by ``ops``, the ops completed in the window.
    """
    per_op = 1.0 / ops if ops else 0.0
    frames = stats.count("wire.send_frame")
    sends = frames + stats.count("wire.send_bytes")
    waits = stats.spans("wire.recv_frame", process="client")
    streamed = stats.spans("wire.recv_bytes_to", process="client", window=False)
    stream_ns = _duration_ns(streamed)
    stream_bytes = sum(span[VALUE] or 0 for span in streamed)
    applied = sum(span[VALUE] or 0 for span in stats.spans("policy.apply_command_file", window=False))
    statuses = [span[VALUE] for span in stats.spans("cas_server.handle_request")]
    return {
        "wire.sends_per_op": sends * per_op,
        "wire.frames_per_op": frames * per_op,
        "wire.send_frame_us": stats.self_us("wire.send_frame"),
        "wire.recv_wait_ms": _duration_ns(waits) / 1e6 * per_op,
        "wire.stream_MBps": stream_bytes / stream_ns * 1e3 if stream_ns else 0.0,
        "credentials.authenticate_peer_us": stats.self_us("credentials.authenticate_peer"),
        "credentials.verify_session_chain_us": stats.self_us("credentials.verify_session_chain"),
        "credentials.verify_session_chain_calls": stats.count("credentials.verify_session_chain")
        * per_op,
        "credentials.repeat_session_share": repeat_session_share,
        "credentials.sign_assertion_us": stats.self_us("credentials.sign_assertion"),
        "credentials.assertion_to_doc_us": stats.self_us("credentials.assertion_to_doc"),
        "credentials.verify_assertion_us": stats.self_us("credentials.verify_assertion"),
        "credentials.assertion_from_doc_us": stats.self_us("credentials.assertion_from_doc"),
        "credentials.repeat_assertion_share": repeat_assertion_share,
        "policy.grants": grants,
        "policy.rights_of_us": stats.self_us("policy.rights_of"),
        "policy.rights_of_calls": stats.count("policy.rights_of") * per_op,
        "policy.apply_command_file_ms": stats.self_us("policy.apply_command_file") / 1e3,
        "policy.us_per_command": (
            stats.self_ns_total("policy.apply_command_file") / 1e3 / applied if applied else 0.0
        ),
        "policy.save_snapshot_ms": stats.self_us("policy.save_snapshot") / 1e3,
        "engine.filter_rights_us": stats.self_us("engine.filter_rights"),
        "engine.filter_denied": sum(
            span[ERROR] == "FilterDenied" for span in stats.spans("engine.filter_rights")
        )
        * per_op,
        "engine.check_right_us": stats.self_us("engine.check_right"),
        "engine.check_right_calls": stats.count("engine.check_right") * per_op,
        "engine.roles_in_us": stats.self_us("engine.roles_in"),
        "cas_server.handle_issue_self_us": stats.self_us("cas_server.handle_issue"),
        "cas_server.handle_admin_load_self_ms": stats.self_us("cas_server.handle_admin_load") / 1e3,
        "cas_server.status_200": statuses.count(200),
        "cas_server.status_403": statuses.count(403),
        "file_server.map_to_account_us": stats.self_us("file_server.map_to_account"),
        "file_server.authorize_file_op_us": stats.self_us("file_server.authorize_file_op"),
        "file_server.fs_path_us": stats.self_us("file_server.fs_path"),
        "file_server.audit_write_us": stats.self_us("file_server.audit_write"),
        "file_server.audit_records": stats.count("file_server.audit_write"),
        "file_server.denied_ops": sum(
            span[VALUE] is False for span in stats.spans("file_server.authorize_file_op")
        ),
        "client.issue_assertion_ms": stats.duration_ms("client.issue_assertion"),
        "client.session_open_ms": stats.duration_ms("client.session_open"),
        "client.get_ms": stats.duration_ms("client.get"),
        "client.put_ms": stats.duration_ms("client.put"),
        "client.ls_ms": stats.duration_ms("client.ls"),
        "client.admin_load_ms": stats.duration_ms("client.admin_load"),
        "trace.ops": ops,
        "trace.overhead_pct": overhead_pct,
    }

