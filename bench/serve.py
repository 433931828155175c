"""Run one vo-authz server in its own process, for the benchmark.

    python3 bench/serve.py cas|file CONFIG [--spans OUT]

The server is built through the same config path its console script
uses (``load_*_config`` -> ``service_from_config`` -> server class) and
listens on the port the config names (0 picks a free one). The process
prints one JSON line with the bound port, then answers commands on
stdin, one JSON line each:

    cpu    {"cpu_s": <this process's CPU seconds so far>}
    stop   shuts the server down; the CAS replies {"grants": <store size>}

End of input also stops it. With ``--spans`` the layers are traced and
the spans are written to OUT on stop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("cas", "file"))
    parser.add_argument("config")
    parser.add_argument("--spans", help="trace the layers and write spans here")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)

    from vo_authz import cas_server, file_server, wire

    import spans

    tracer = None
    if args.spans:
        tracer = spans.Tracer(per_thread_requests=True)
        if args.kind == "cas":
            spans.trace_cas_server(tracer)
        else:
            spans.trace_file_server(tracer)

    if args.kind == "cas":
        config = cas_server.load_cas_config(args.config)
        service = cas_server.service_from_config(config)
        server = cas_server.CasServer(wire.parse_address(config.listen), service)
    else:
        config = file_server.load_file_config(args.config)
        service = file_server.service_from_config(config)
        server = file_server.FileServer(wire.parse_address(config.listen), service)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    _reply({"port": server.address[1]})

    for line in sys.stdin:
        if line.strip() == "cpu":
            _reply({"cpu_s": time.process_time()})
        elif line.strip() == "stop":
            break
    server.shutdown()
    server.server_close()
    serving.join(timeout=10)
    final = {}
    if args.kind == "cas":
        final["grants"] = len(service.store.grants)
    else:
        service.audit_log.close()
    if tracer is not None:
        tracer.dump(args.spans)
    _reply(final)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
