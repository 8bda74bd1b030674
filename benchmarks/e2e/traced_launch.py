"""Run ``repro.cli.main(argv)`` with the outside-in tracer installed.

    python benchmarks/e2e/traced_launch.py SPANS.jsonl -- <repro argv>

Used by the benchmark's traced runs in place of ``python -m repro``, so
CLI campaigns, the server and dist nodes keep the process layout of the
untraced run.  The spans are written to ``SPANS.jsonl`` when the process
ends: when ``main`` returns (the server returns from its SIGTERM drain),
raises, or the process receives SIGTERM.

The parent passes the monotonic time at which it spawned this process in
``E2E_SPAWN_MONOTONIC``, so interpreter start-up is a span of its own.
"""

import time

T_LAUNCH = time.monotonic()

import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace as e2e_trace  # noqa: E402  (benchmarks/e2e/trace.py)


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_launch.py SPANS.jsonl -- ARGV...")
    spawned = float(os.environ.get("E2E_SPAWN_MONOTONIC", T_LAUNCH))
    tracer = e2e_trace.Tracer()
    root = tracer.open("proc", t0=spawned)
    tracer.record("proc.startup", spawned, T_LAUNCH)
    status = {}
    # SIGTERM unwinds through the finally below; `repro serve` installs
    # its own drain handler on top of this one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    rc = 1
    try:
        rec = tracer.open("proc.import")
        try:
            import repro.cli
            status = e2e_trace.install(tracer)
        finally:
            tracer.close(rec)
        rec = tracer.open("cli.main")
        try:
            rc = repro.cli.main(argv)
        finally:
            tracer.close(rec)
    finally:
        tracer.close(root)
        tracer.dump(spans_path, {"argv": argv, "targets": status})
    return rc


if __name__ == "__main__":
    sys.exit(main())
