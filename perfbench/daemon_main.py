"""Run the routing service daemon in its own process for the benchmark.

    python3 perfbench/daemon_main.py [--state-dir DIR] [--trace-out FILE]

Prints ``port <n>`` once the daemon accepts connections, serves until
the ``shutdown`` verb, and exits 0 after the graceful drain.  With
``--trace-out`` the daemon's layers are wrapped in spans (see
``layers.instrument_daemon``) and the spans are written to FILE after
the drain, so the drain's final snapshot is part of the trace.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.service import RoutingServiceDaemon  # noqa: E402

from layers import instrument_daemon  # noqa: E402
from spans import Tracer  # noqa: E402


async def _serve(daemon: RoutingServiceDaemon, tracer) -> None:
    if tracer is not None:
        tracer.run_in_executor_with_context(asyncio.get_running_loop())
    await daemon.start()
    print(f"port {daemon.port}", flush=True)
    try:
        await daemon.serve_forever()
    finally:
        await daemon.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--state-dir", default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        instrument_daemon(tracer)
    daemon = RoutingServiceDaemon("127.0.0.1", 0, state_dir=args.state_dir)
    asyncio.run(_serve(daemon, tracer))
    if tracer is not None:
        tracer.unpatch()
        tracer.dump(args.trace_out)
        with open(f"{args.trace_out}.counters.json", "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.counters, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
