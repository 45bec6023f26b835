"""The load generator: one process, one thread, a fixed set of connections.

The timed loops only write prebuilt frames and compare the reply bytes with
prebuilt expectations (``inputs.py``); no cryptography runs here while a
window is open.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.serve.protocol import OP_SIGNATURE

now = time.perf_counter


def new_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose sleeps wake within microseconds.

    ``select()`` takes a float timeout; the default epoll selector rounds
    every timeout up to a whole millisecond, which would show as up to 1 ms
    of generator lateness on each paced channel frame.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


class Connection:
    """One client connection speaking raw frames."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def roundtrip(self, frame: bytes) -> bytes:
        """Write one frame; return the whole reply frame (header included)."""
        self.writer.write(frame)
        header = await self.reader.readexactly(4)
        body = await self.reader.readexactly(int.from_bytes(header, "big"))
        return header + body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Tally:
    """What one timed window saw, across its connections."""

    start: float = 0.0
    end: float = 0.0
    #: ``(reply time, latency, kind)`` of each request sent inside the window.
    samples: list = field(default_factory=list)
    #: Verified replies that arrived inside the window.
    responses: int = 0
    #: Requests sent inside the window (replies arriving after it included).
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Generator turnaround/lateness samples (seconds).
    lags: List[float] = field(default_factory=list)
    #: ``(message, reply frame)`` of SIGN requests, verified after the window.
    signed: list = field(default_factory=list)
    #: True when a closed loop ran out of prepared inputs before the end.
    exhausted: bool = False
    #: Per-kind counts of verified replies inside the window.
    kinds: dict = field(default_factory=dict)

    def record(self, kind: str, sent: float, latency: float, done: float) -> None:
        if sent < self.start:
            return
        self.attempted += 1
        self.samples.append((done, latency, kind))
        if done <= self.end:
            self.responses += 1
            self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def reply_ok(reply: bytes, expected: Optional[bytes]) -> bool:
    if expected is None:  # SIGN: randomized, checked after the window
        return reply[5] == OP_SIGNATURE
    return reply == expected


async def closed_loop(conn: Connection, pool, kind: str, tally: Tally) -> None:
    """Send ``pool`` requests back to back until the window ends."""
    last_reply: Optional[float] = None
    for frame, expected, payload in pool:
        sent = now()
        if sent >= tally.end:
            return
        if last_reply is not None and sent >= tally.start:
            tally.lags.append(sent - last_reply)
        reply = await conn.roundtrip(frame)
        done = last_reply = now()
        if not reply_ok(reply, expected):
            tally.fail(f"{kind}: reply {reply[:24].hex()}... does not match")
            return
        if expected is None:
            tally.signed.append((payload, reply))
        tally.record(kind, sent, done - sent, done)
    tally.exhausted = True


async def paced_loop(
    conn: Connection, script, first_due: float, rate: float, tally: Tally
) -> None:
    """Send ``script`` frames on a fixed schedule, one in flight at a time.

    Frame ``i`` is due at ``first_due + i / rate``; it is sent then, or as
    soon as the previous reply arrives if that is later, and its latency is
    counted from the due time.  Lag is how late the generator itself was.
    """
    ready = first_due
    for index, (kind, frame, expected) in enumerate(script):
        due = first_due + index / rate
        if due >= tally.end:
            return
        sent = now()
        if sent < due:
            await asyncio.sleep(due - sent)
            sent = now()
        ready = max(due, ready)
        reply = await conn.roundtrip(frame)
        done = now()
        if reply != expected:
            tally.fail(f"{kind}: reply {reply[:24].hex()}... does not match")
            return
        if due >= tally.start:
            tally.lags.append(sent - ready)
        tally.record(kind, due, done - due, done)
        ready = done
