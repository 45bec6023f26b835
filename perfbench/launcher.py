"""The server under test, in its own process.

Started by ``run.py`` (never by hand).  It reads a length-prefixed pickle
from stdin: the long-lived server keys, which schemes to serve and whether
to trace.  It serves a default :class:`repro.serve.server.ServeServer` on
the ``plain`` backend with those keys installed as ``preset_keys``, prints
``{"ready": [host, port]}``, then answers line commands on stdin:

* ``stats`` prints a JSON snapshot of the server's counters;
* ``stop`` (or end of input) stops the server, writes the spans when
  tracing, prints the final snapshot and exits.

``python -m repro.serve serve`` is not used because it has no seed for the
server keys.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pickle
import struct
import sys
import time
from pathlib import Path


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _snapshot(server) -> dict:
    stats = server.scheduler.stats
    return {
        "cpu": time.process_time(),
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "served": stats.served,
        "errors": stats.errors,
        "batches": stats.batches,
        "channels": dataclasses.asdict(server.channels.stats),
        "protocol_errors": server.protocol_errors,
    }


async def _serve(spec: dict, keys: dict, tracer) -> None:
    from repro.serve.server import ServeServer

    server = ServeServer(
        host="127.0.0.1",
        port=0,
        schemes=spec["schemes"],
        backend="plain",
        preset_keys=keys,
    )
    host, port = await server.start()
    _emit({"ready": [host, port]})
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.buffer.readline)
            command = line.strip()
            if command == b"stats":
                _emit({"stats": _snapshot(server)})
            else:  # "stop", or end of input: the benchmark went away
                break
    finally:
        await server.stop()
    final = _snapshot(server)
    if tracer is not None:
        final["spans"] = tracer.dump(spec["spans_path"])
    _emit({"final": final})


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    (length,) = struct.unpack(">Q", sys.stdin.buffer.read(8))
    blob = sys.stdin.buffer.read(length)
    spec = json.loads(sys.stdin.buffer.readline())
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        # Before the keys are unpickled: unpickling builds curve and field
        # objects, and every wrapper must be in place before that.
        tracer = tracing.install()
    keys = pickle.loads(blob)  # written by run.py, the parent of this process
    asyncio.run(_serve(spec, keys, tracer))


if __name__ == "__main__":
    main()
