"""The asyncio TCP server: connections in the loop, arithmetic in the pool.

One :class:`ServeServer` binds a host/port, accepts any number of
connections, and keeps a :class:`~repro.serve.session.ConnectionSession`
per connection.  The handler is IO-only: it reads frames, enforces the
handshake state machine (version check → ``HELLO`` negotiation → operation
requests), checks the negotiated scheme's capabilities, and submits every
operation to the shared :class:`~repro.serve.scheduler.BatchScheduler` —
requests from *different connections* to the same scheme therefore merge
into the same server-side batches, which is the whole point of terminating
many small clients on one process.

Error discipline, per connection:

* a **version mismatch** or **framing violation** (truncated frame,
  oversized length) answers with ``OP_ERROR`` where possible and closes
  that connection; the server and every other connection keep running;
* an **application error** (unknown scheme, missing capability, malformed
  scheme payload) answers with ``OP_ERROR`` and keeps the connection open;
* a **full queue** answers with ``OP_OVERLOADED`` — the bounded-queue
  backpressure made visible to the peer.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence, Tuple

from repro.errors import (
    OverloadedError,
    ParameterError,
    ProtocolError,
    QuotaError,
    RekeyRequiredError,
    ReplayError,
    TamperedRecordError,
    UnavailableError,
    UnknownChannelError,
)
from repro.serve import protocol
from repro.serve.channel import ChannelPolicy, ChannelTable
from repro.serve.protocol import (
    ERR_IDLE_TIMEOUT,
    ERR_NO_CHANNEL,
    ERR_NO_SESSION,
    ERR_OVER_QUOTA,
    ERR_REKEY_REQUIRED,
    ERR_REPLAY,
    ERR_TAMPERED,
    ERR_UNAVAILABLE,
    ERR_UNKNOWN_OPCODE,
    ERR_UNKNOWN_SCHEME,
    ERR_UNSUPPORTED,
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


class ServeServer:
    """A multi-scheme PKC server over the framed wire protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        schemes: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
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
            self.scheme_host,
            workers=workers,
            max_batch=max_batch,
            queue_size=queue_size,
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
        #: Requests currently between scheduler submission and the response
        #: write — what a graceful drain must wait out before closing.
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
        session = ConnectionSession(
            peer=str(peername),
            backend=self.scheme_host.backend,
            client_id=f"{peername}#{self.connections}",
        )
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
                    session.errors += 1
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
                    session.errors += 1
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
        """Process one frame; return False when the connection must close."""
        session.requests += 1
        if frame.version != PROTOCOL_VERSION:
            self.protocol_errors += 1
            session.errors += 1
            await self._best_effort_error(
                writer,
                ERR_VERSION,
                f"server speaks version {PROTOCOL_VERSION}, got {frame.version}",
            )
            return False  # nothing after a version mismatch can be trusted

        if self._draining:
            # Stopped accepting: everything already submitted still gets its
            # response, but new work — handshakes included — is refused with
            # an explicit frame, never a silently closed connection.
            session.errors += 1
            await self._best_effort_error(
                writer, ERR_UNAVAILABLE, "server is draining; reconnect"
            )
            return False

        if frame.opcode == OP_HELLO:
            return await self._handle_hello(session, writer, frame)

        if frame.opcode in CHANNEL_OPS:
            return await self._handle_channel_frame(session, writer, frame)

        kind = KIND_BY_OPCODE.get(frame.opcode)
        if kind is None:
            session.errors += 1
            await write_frame(
                writer,
                OP_ERROR,
                pack_error(ERR_UNKNOWN_OPCODE, f"opcode 0x{frame.opcode:02x}"),
            )
            return True
        if not session.negotiated:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_NO_SESSION, "HELLO first")
            )
            return True

        scheme = self.scheme_host.scheme(session.scheme_name)
        if CAPABILITY_BY_KIND[kind] not in scheme.capabilities:
            session.errors += 1
            await write_frame(
                writer,
                OP_ERROR,
                pack_error(
                    ERR_UNSUPPORTED, f"{scheme.name} does not implement {kind}"
                ),
            )
            return True

        self._inflight += 1
        try:
            try:
                ok, code, payload = await self.scheduler.submit(
                    session.scheme_name, kind, frame.payload
                )
            except OverloadedError as exc:
                session.errors += 1
                await write_frame(writer, OP_OVERLOADED, str(exc).encode("utf-8"))
                return True
            except UnavailableError as exc:
                # Graceful drain: the request was *not* accepted; tell the
                # peer explicitly so it reconnects to a live worker, then
                # close this connection.
                session.errors += 1
                await self._best_effort_error(writer, ERR_UNAVAILABLE, str(exc))
                return False
            if ok:
                session.responses += 1
                await write_frame(writer, code, payload)
            else:
                session.errors += 1
                await write_frame(
                    writer, OP_ERROR, pack_error(code, payload.decode("utf-8", "replace"))
                )
            return True
        finally:
            self._inflight -= 1

    async def _handle_hello(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        frame: Frame,
    ) -> bool:
        name = frame.payload.decode("utf-8", errors="replace")
        if not self.scheme_host.allowed(name):
            session.errors += 1
            await write_frame(
                writer,
                OP_ERROR,
                pack_error(
                    ERR_UNKNOWN_SCHEME,
                    f"unknown scheme {name!r}; serving: "
                    f"{', '.join(self.scheme_host.scheme_names())}",
                ),
            )
            return True  # the peer may retry with a served scheme
        # The long-lived key may not exist yet; creating it is the one
        # potentially slow step of the handshake (e.g. lazy RSA keygen), so
        # it runs in the pool, not on the loop.
        try:
            key = await asyncio.get_running_loop().run_in_executor(
                None, self.scheme_host.server_key, name
            )
        except ParameterError as exc:
            # Allowlisted but unknown to the registry (a configuration
            # typo): still an explicit error frame, never a dropped
            # connection.
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_UNKNOWN_SCHEME, str(exc))
            )
            return True
        session.scheme_name = name
        await write_frame(writer, OP_WELCOME, pack_welcome(name, key.public_wire))
        return True

    # -- stateful channels --------------------------------------------------------
    #
    # The channel layer's split of labour: the *handshake* (a full public-key
    # operation) rides the scheduler — concurrent CHAN_OPENs for one scheme
    # coalesce into the same key_agreement_many batches as one-shot KA_INIT
    # requests — while *records* (XOR keystream + HMAC tag, microseconds)
    # execute inline on the loop.  Every refusal is an explicit typed error
    # frame: quota and admission -> ERR_OVER_QUOTA, exhausted key budget ->
    # ERR_REKEY_REQUIRED, replay/tamper -> ERR_REPLAY/ERR_TAMPERED (and the
    # channel is torn down), unknown or idle-evicted id -> ERR_NO_CHANNEL.

    async def _handle_channel_frame(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        frame: Frame,
    ) -> bool:
        if not session.negotiated:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_NO_SESSION, "HELLO first")
            )
            return True
        try:
            channel_id, blob = parse_channel(frame.payload)
        except ProtocolError as exc:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(protocol.ERR_BAD_REQUEST, str(exc))
            )
            return True
        handler = self._CHANNEL_HANDLERS[frame.opcode]
        try:
            return await handler(self, session, writer, channel_id, blob)
        except QuotaError as exc:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_OVER_QUOTA, str(exc))
            )
            return True
        except UnknownChannelError as exc:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_NO_CHANNEL, str(exc))
            )
            return True
        except RekeyRequiredError as exc:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_REKEY_REQUIRED, str(exc))
            )
            return True
        except TamperedRecordError as exc:
            session.errors += 1
            self.channels.evict_hostile(session.client_id, channel_id)
            await write_frame(
                writer, OP_ERROR, pack_error(ERR_TAMPERED, str(exc))
            )
            return True
        except ReplayError as exc:
            session.errors += 1
            self.channels.evict_hostile(session.client_id, channel_id)
            await write_frame(writer, OP_ERROR, pack_error(ERR_REPLAY, str(exc)))
            return True
        except ProtocolError as exc:
            session.errors += 1
            await write_frame(
                writer, OP_ERROR, pack_error(protocol.ERR_BAD_REQUEST, str(exc))
            )
            return True

    async def _channel_secret(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        kex: bytes,
    ) -> Optional[bytes]:
        """Run the handshake's public-key half through the scheduler.

        Returns the raw bootstrap secret, or ``None`` after an error frame
        has already been written (the caller just returns ``True``).
        Overload and drain keep their one-shot semantics: an explicit
        ``OP_OVERLOADED`` / ``ERR_UNAVAILABLE`` frame, never a silent drop.
        """
        self._inflight += 1
        try:
            try:
                ok, code, payload = await self.scheduler.submit(
                    session.scheme_name, CHANNEL_SECRET_KIND, kex
                )
            except OverloadedError as exc:
                session.errors += 1
                await write_frame(writer, OP_OVERLOADED, str(exc).encode("utf-8"))
                return None
            except UnavailableError as exc:
                session.errors += 1
                await self._best_effort_error(writer, ERR_UNAVAILABLE, str(exc))
                return None
            if not ok:
                session.errors += 1
                await write_frame(
                    writer,
                    OP_ERROR,
                    pack_error(code, payload.decode("utf-8", "replace")),
                )
                return None
            return payload
        finally:
            self._inflight -= 1

    async def _handle_channel_open(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        channel_id: bytes,
        kex: bytes,
    ) -> bool:
        scheme = self.scheme_host.scheme(session.scheme_name)
        if not {"key-agreement", "encryption"} & set(scheme.capabilities):
            session.errors += 1
            await write_frame(
                writer,
                OP_ERROR,
                pack_error(
                    ERR_UNSUPPORTED,
                    f"{scheme.name} can bootstrap no channel (needs "
                    f"key agreement or encryption)",
                ),
            )
            return True
        # Admission control *before* the expensive public-key operation: an
        # over-quota client must not be able to spend server exponentiations.
        self.channels.take_token(session.client_id)
        secret = await self._channel_secret(session, writer, kex)
        if secret is None:
            return True
        self.channels.admit(
            session.client_id, channel_id, session.scheme_name, secret
        )
        session.responses += 1
        await write_frame(
            writer,
            OP_CHAN_ACCEPT,
            pack_channel(channel_id, protocol.confirmation_tag(secret)),
        )
        return True

    async def _handle_channel_msg(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        channel_id: bytes,
        record: bytes,
    ) -> bool:
        channel = self.channels.get(session.client_id, channel_id)
        self.channels.take_token(session.client_id)
        self.channels.require_key_budget(channel)
        plaintext = channel.crypto.open(record)
        channel.record_message(len(plaintext), self.channels.now())
        self.channels.stats.messages += 1
        session.responses += 1
        reply = channel.crypto.seal(protocol.plaintext_digest(plaintext))
        await write_frame(writer, OP_CHAN_REPLY, pack_channel(channel_id, reply))
        return True

    async def _handle_channel_rekey(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        channel_id: bytes,
        record: bytes,
    ) -> bool:
        channel = self.channels.get(session.client_id, channel_id)
        self.channels.take_token(session.client_id)
        # The fresh key-exchange material arrives *inside* the channel — a
        # sealed record under the current epoch, so only the peer that owns
        # the channel can rotate its keys.
        kex = channel.crypto.open(record)
        secret = await self._channel_secret(session, writer, kex)
        if secret is None:
            return True
        # Acknowledge under the *old* epoch (consuming a send sequence),
        # then switch: the client opens the ack with the keys it still
        # holds, checks the confirmation tag, and switches too.
        ack = channel.crypto.seal(protocol.confirmation_tag(secret))
        channel.rekeyed(secret, self.channels.now())
        self.channels.stats.rekeys += 1
        session.responses += 1
        await write_frame(writer, OP_CHAN_REKEYED, pack_channel(channel_id, ack))
        return True

    async def _handle_channel_close(
        self,
        session: ConnectionSession,
        writer: "asyncio.StreamWriter",
        channel_id: bytes,
        record: bytes,
    ) -> bool:
        channel = self.channels.get(session.client_id, channel_id)
        channel.crypto.open(record)  # authenticated close; empty body
        self.channels.close(session.client_id, channel_id)
        session.responses += 1
        await write_frame(writer, OP_CHAN_CLOSED, pack_channel(channel_id))
        return True

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
