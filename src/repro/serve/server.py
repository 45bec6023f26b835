"""The asyncio TCP server: connections in the loop, arithmetic on one crypto thread.

One :class:`ServeServer` binds a host/port, accepts any number of
connections, and keeps a :class:`~repro.serve.session.ConnectionSession`
per connection.  The handler is IO-only: it reads frames, enforces the
handshake state machine (version check → ``HELLO`` negotiation → operation
requests), checks the negotiated scheme's capabilities, and submits every
operation to the shared :class:`~repro.serve.scheduler.BatchScheduler`,
whose one crypto thread runs every request's group arithmetic — requests from
*different connections* to the same scheme therefore merge into the same
server-side batches, which is the whole point of terminating many small
clients on one process.

Error discipline, per connection:

* a **version mismatch** or **framing violation** (truncated frame,
  oversized length) answers with ``OP_ERROR`` where possible and closes
  that connection; the server and every other connection keep running;
* every other frame is answered on one path: a typed refusal or an
  **application error** (unknown scheme, missing capability, malformed
  scheme payload) answers with its ``OP_ERROR`` code
  (:data:`~repro.serve.protocol.REFUSAL_CODES`) and keeps the connection
  open; a request arriving while ``queue_size`` accepted requests are still
  unanswered gets ``OP_OVERLOADED`` at once — the admission bound made
  visible to the peer, so no accepted request waits behind more than
  ``queue_size`` others; a draining server answers ``ERR_UNAVAILABLE`` and
  closes.

**The server refuses before it does any work or changes any state.**  Drain,
overload, the token bucket and the channel caps are all decided before a
request reaches the crypto thread and before a channel record is opened, so
a refused ``CHAN_REKEY`` consumes no sequence number, a ``CHAN_OPEN``
refused at a cap costs no key agreement, and the client may resend the same
bytes.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import (
    OverloadedError,
    ParameterError,
    ProtocolError,
    ReproError,
    UnavailableError,
    UnsupportedOperationError,
)
from repro.serve import protocol
from repro.serve.channel import ChannelPolicy, ChannelTable
from repro.serve.protocol import (
    ERR_IDLE_TIMEOUT,
    ERR_NO_SESSION,
    ERR_UNAVAILABLE,
    ERR_UNKNOWN_OPCODE,
    ERR_UNKNOWN_SCHEME,
    ERR_VERSION,
    OP_CHAN_ACCEPT,
    OP_CHAN_CLOSE,
    OP_CHAN_CLOSED,
    OP_CHAN_MSG,
    OP_CHAN_OPEN,
    OP_CHAN_REKEY,
    OP_CHAN_REKEYED,
    OP_CHAN_REPLY,
    OP_ERROR,
    OP_HELLO,
    OP_OVERLOADED,
    OP_WELCOME,
    PROTOCOL_VERSION,
    CHANNEL_OPS,
    Frame,
    classify_error,
    pack_channel,
    pack_error,
    pack_welcome,
    parse_channel,
    read_frame,
    write_frame,
)
from repro.serve.scheduler import BatchScheduler, SchemeHost
from repro.serve.session import (
    CAPABILITY_BY_KIND,
    CHANNEL_SECRET_KIND,
    KIND_BY_OPCODE,
    ConnectionSession,
)

__all__ = ["ServeServer"]

#: The opcodes that run a public-key operation on the crypto thread, whose
#: admission is decided before anything else about the frame.
_SUBMITTING = frozenset(KIND_BY_OPCODE) | {OP_CHAN_OPEN, OP_CHAN_REKEY}


def _error(code: int, detail: str) -> Tuple[int, bytes]:
    return OP_ERROR, pack_error(code, detail)


class ServeServer:
    """A multi-scheme PKC server over the framed wire protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        schemes: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        max_batch: int = 32,
        queue_size: int = 256,
        rng=None,
        reuse_port: bool = False,
        preset_keys=None,
        idle_timeout: Optional[float] = None,
        channel_policy: Optional[ChannelPolicy] = None,
    ):
        self.bind_host = host
        self.bind_port = port
        self.reuse_port = reuse_port
        self.scheme_host = SchemeHost(
            schemes=schemes, backend=backend, rng=rng, preset_keys=preset_keys
        )
        self.scheduler = BatchScheduler(
            self.scheme_host, max_batch=max_batch, queue_size=queue_size
        )
        #: Seconds a connection may sit without a frame before the server
        #: answers an explicit ``ERR_IDLE_TIMEOUT`` and closes it — without
        #: this, abandoned connections hold ConnectionSession (and channel)
        #: state forever.  ``None`` disables the timeout.
        self.idle_timeout = idle_timeout
        #: Every open stateful channel, with quota/rekey/idle policy.
        self.channels = ChannelTable(channel_policy)
        self._server: Optional["asyncio.base_events.Server"] = None
        self._connection_tasks: set = set()
        self._draining = False
        #: Frames between being read and being answered — what a graceful
        #: drain must wait out before closing.
        self._inflight = 0
        self.connections = 0
        self.protocol_errors = 0
        self.idle_closes = 0

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (port 0 resolves at start)."""
        if self._server is None:
            raise ParameterError("server is not running")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Start the scheduler and bind the listening socket."""
        await self.scheduler.start()
        self._draining = False
        kwargs = {}
        if self.reuse_port:
            # SO_REUSEPORT lets N worker processes share one listen port
            # with kernel connection balancing — the cluster's shared-
            # nothing scale-out path.  Only passed when requested so
            # platforms without the option keep working.
            kwargs["reuse_port"] = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.bind_host, self.bind_port, **kwargs
        )
        return self.address

    async def stop(self, drain: bool = False) -> None:
        """Stop serving.  ``drain=True`` is the graceful path: stop
        accepting, answer every request already submitted (explicit
        ``ERR_UNAVAILABLE`` frames for anything arriving afterwards), flush
        the responses, then close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            self._draining = True
            await self.scheduler.stop(drain=True)
            # The scheduler resolved every accepted future; wait until the
            # connection handlers have written those responses out.
            while self._inflight:
                await asyncio.sleep(0.005)
        # Handler tasks may still be parked on reads whose EOF the loop has
        # not processed yet; cancel and await them so shutdown is silent.
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        if not drain:
            await self.scheduler.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "ServeServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- per-connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        peername = writer.get_extra_info("peername")
        self.connections += 1
        session = ConnectionSession(client_id=f"{peername}#{self.connections}")
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while True:
                try:
                    if self.idle_timeout is not None:
                        frame = await asyncio.wait_for(
                            read_frame(reader), timeout=self.idle_timeout
                        )
                    else:
                        frame = await read_frame(reader)
                except asyncio.TimeoutError:
                    # An abandoned connection must not hold session and
                    # channel state forever: answer with an explicit error
                    # frame — never a silent close — and let the ``finally``
                    # below reclaim everything this connection owned.
                    self.idle_closes += 1
                    await self._best_effort_error(
                        writer,
                        ERR_IDLE_TIMEOUT,
                        f"no frame for {self.idle_timeout:g}s; closing",
                    )
                    return
                except ProtocolError as exc:
                    # Framing violation (oversized length, drop mid-frame):
                    # fatal for this connection only.
                    self.protocol_errors += 1
                    await self._best_effort_error(
                        writer, protocol.ERR_BAD_REQUEST, str(exc)
                    )
                    return
                if frame is None:  # clean EOF at a frame boundary
                    return
                if not await self._handle_frame(session, writer, frame):
                    return
        except (ConnectionResetError, BrokenPipeError):  # peer vanished
            pass
        except asyncio.CancelledError:  # server shutdown; close below
            pass
        finally:
            if task is not None:
                self._connection_tasks.discard(task)
            self.channels.drop_client(session.client_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_frame(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        frame: Frame,
    ) -> bool:
        """Answer one frame; return False when the connection must close.

        The one answer path: every reply and every refusal is written
        here.  A typed refusal or malformed payload raised anywhere below
        answers with its :func:`~repro.serve.protocol.classify_error` code
        and keeps the connection; overload answers ``OP_OVERLOADED`` and
        keeps it; a drain refusal answers ``ERR_UNAVAILABLE`` and closes.
        """
        if frame.version != PROTOCOL_VERSION:
            self.protocol_errors += 1
            await self._best_effort_error(
                writer,
                ERR_VERSION,
                f"server speaks version {PROTOCOL_VERSION}, got {frame.version}",
            )
            return False  # nothing after a version mismatch can be trusted
        self._inflight += 1
        try:
            try:
                opcode, payload = await self._respond(session, frame)
            except OverloadedError as exc:
                opcode, payload = OP_OVERLOADED, str(exc).encode("utf-8")
            except UnavailableError as exc:
                # Not accepted: say so explicitly, so the peer reconnects to
                # a live worker, then close this connection.
                await self._best_effort_error(writer, ERR_UNAVAILABLE, str(exc))
                return False
            except ReproError as exc:
                opcode, payload = OP_ERROR, pack_error(*classify_error(exc))
            await write_frame(writer, opcode, payload)
            return True
        finally:
            self._inflight -= 1

    async def _respond(
        self, session: ConnectionSession, frame: Frame
    ) -> Tuple[int, bytes]:
        """The ``(opcode, payload)`` that answers one frame; refusals raise.

        Drain and overload are decided before anything else, and each
        handler decides its own refusals (token bucket, channel caps) before
        it opens a record or submits work.
        """
        if self._draining:
            # Stopped accepting: everything already submitted still gets its
            # response, but new work — handshakes included — is refused.
            raise UnavailableError("server is draining; reconnect")
        if frame.opcode in _SUBMITTING:
            self.scheduler.check_admission()
        if frame.opcode == OP_HELLO:
            return await self._handle_hello(session, frame)
        kind = KIND_BY_OPCODE.get(frame.opcode)
        if kind is None and frame.opcode not in CHANNEL_OPS:
            return _error(ERR_UNKNOWN_OPCODE, f"opcode 0x{frame.opcode:02x}")
        if not session.negotiated:
            return _error(ERR_NO_SESSION, "HELLO first")
        if kind is None:
            channel_id, blob = parse_channel(frame.payload)
            handler = self._CHANNEL_HANDLERS[frame.opcode]
            return await handler(self, session, channel_id, blob)
        scheme = self.scheme_host.scheme(session.scheme_name)
        if CAPABILITY_BY_KIND[kind] not in scheme.capabilities:
            raise UnsupportedOperationError(f"{scheme.name} does not implement {kind}")
        return await self._submit(session, kind, frame.payload)

    async def _submit(
        self,
        session: ConnectionSession,
        kind: str,
        payload: bytes,
        reply: Optional[Callable[[bytes], Tuple[int, bytes]]] = None,
    ) -> Tuple[int, bytes]:
        """Run one admitted request on the crypto thread; return its answer.

        The one way work reaches the scheduler, for one-shot requests and
        channel handshakes alike.  ``reply`` turns a handshake's secret into
        its answer; a request that failed to execute answers its error code.
        """
        ok, code, result = await self.scheduler.submit(
            session.scheme_name, kind, payload
        )
        if not ok:
            return _error(code, result.decode("utf-8", "replace"))
        return reply(result) if reply is not None else (code, result)

    async def _handle_hello(
        self, session: ConnectionSession, frame: Frame
    ) -> Tuple[int, bytes]:
        name = frame.payload.decode("utf-8", errors="replace")
        if not self.scheme_host.allowed(name):
            return _error(  # the peer may retry with a served scheme
                ERR_UNKNOWN_SCHEME,
                f"unknown scheme {name!r}; serving: "
                f"{', '.join(self.scheme_host.scheme_names())}",
            )
        # The long-lived key may not exist yet; creating it is the one
        # potentially slow step of the handshake (e.g. lazy RSA keygen), so
        # it runs in the loop's default executor, not on the loop.
        try:
            key = await asyncio.get_running_loop().run_in_executor(
                None, self.scheme_host.server_key, name
            )
        except ParameterError as exc:
            # Allowlisted but unknown to the registry (a configuration
            # typo): still an explicit error frame, never a dropped
            # connection.
            return _error(ERR_UNKNOWN_SCHEME, str(exc))
        session.scheme_name = name
        return OP_WELCOME, pack_welcome(name, key.public_wire)

    # -- stateful channels --------------------------------------------------------
    #
    # The channel layer's split of labour: the *handshake* (a full public-key
    # operation) rides the scheduler through _submit — concurrent CHAN_OPENs
    # for one scheme coalesce into the same key_agreement_many batches as
    # one-shot KA_INIT requests — while *records* (XOR keystream + HMAC tag,
    # microseconds) execute inline on the loop.  Each refusal is a typed
    # error _handle_frame answers; a tampered or replayed record also tears
    # its channel down (ChannelTable.open_record).

    async def _handle_channel_open(
        self, session: ConnectionSession, channel_id: bytes, kex: bytes
    ) -> Tuple[int, bytes]:
        scheme = self.scheme_host.scheme(session.scheme_name)
        if not {"key-agreement", "encryption"} & set(scheme.capabilities):
            raise UnsupportedOperationError(
                f"{scheme.name} can bootstrap no channel (needs "
                f"key agreement or encryption)"
            )
        client = session.client_id

        def accept(secret: bytes) -> Tuple[int, bytes]:
            self.channels.admit(client, channel_id, session.scheme_name, secret)
            return OP_CHAN_ACCEPT, pack_channel(
                channel_id, protocol.confirmation_tag(secret)
            )

        # Caps and quota before the expensive public-key operation: an
        # over-quota client must not be able to spend server exponentiations.
        self.channels.claim(client, channel_id)
        try:
            self.channels.take_token(client)
            return await self._submit(session, CHANNEL_SECRET_KIND, kex, accept)
        finally:
            self.channels.release(client, channel_id)

    async def _handle_channel_msg(
        self, session: ConnectionSession, channel_id: bytes, record: bytes
    ) -> Tuple[int, bytes]:
        channel = self.channels.get(session.client_id, channel_id)
        self.channels.take_token(session.client_id)
        self.channels.require_key_budget(channel)
        plaintext = self.channels.open_record(channel, record)
        channel.record_message(len(plaintext), self.channels.now())
        self.channels.stats.messages += 1
        reply = channel.crypto.seal(protocol.plaintext_digest(plaintext))
        return OP_CHAN_REPLY, pack_channel(channel_id, reply)

    async def _handle_channel_rekey(
        self, session: ConnectionSession, channel_id: bytes, record: bytes
    ) -> Tuple[int, bytes]:
        channel = self.channels.get(session.client_id, channel_id)
        self.channels.take_token(session.client_id)
        # The fresh key-exchange material arrives *inside* the channel — a
        # sealed record under the current epoch, so only the peer that owns
        # the channel can rotate its keys.  Opening it consumes a receive
        # sequence number, so it comes after every refusal: a refused rekey
        # may be resent byte for byte.
        kex = self.channels.open_record(channel, record)

        def rekeyed(secret: bytes) -> Tuple[int, bytes]:
            # Acknowledge under the *old* epoch (consuming a send sequence),
            # then switch: the client opens the ack with the keys it still
            # holds, checks the confirmation tag, and switches too.
            ack = channel.crypto.seal(protocol.confirmation_tag(secret))
            channel.rekeyed(secret, self.channels.now())
            self.channels.stats.rekeys += 1
            return OP_CHAN_REKEYED, pack_channel(channel_id, ack)

        return await self._submit(session, CHANNEL_SECRET_KIND, kex, rekeyed)

    async def _handle_channel_close(
        self, session: ConnectionSession, channel_id: bytes, record: bytes
    ) -> Tuple[int, bytes]:
        channel = self.channels.get(session.client_id, channel_id)
        self.channels.open_record(channel, record)  # authenticated close; empty body
        self.channels.close(session.client_id, channel_id)
        return OP_CHAN_CLOSED, pack_channel(channel_id)

    #: Channel opcode -> handler, built once with the class.
    _CHANNEL_HANDLERS = {
        OP_CHAN_OPEN: _handle_channel_open,
        OP_CHAN_MSG: _handle_channel_msg,
        OP_CHAN_REKEY: _handle_channel_rekey,
        OP_CHAN_CLOSE: _handle_channel_close,
    }

    async def _best_effort_error(
        self, writer: "asyncio.StreamWriter", code: int, detail: str
    ) -> None:
        try:
            await write_frame(writer, OP_ERROR, pack_error(code, detail))
        except (ConnectionResetError, BrokenPipeError, OSError):  # peer gone
            pass
