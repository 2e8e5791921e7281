"""Asyncio TCP transport: one listening server plus dial-out peer links.

Connections are **unidirectional** for protocol traffic: a node dials
one outbound link per peer site and only ever writes ``msg`` frames on
it; its server socket only ever reads them.  The single exception is
the handshake — the dialer opens with a JSON ``hello`` naming the wire
formats it speaks (and its payload-schema fingerprint), the server
answers with one JSON ``welcome`` naming the format it picked (see
:func:`~repro.realnet.codec_bin.choose_format`), and everything after
that travels in the negotiated format.  A JSON-only peer and a
binary-capable peer therefore interoperate without configuration.

Both ends are plain :class:`asyncio.Protocol` callbacks; no coroutine
or task sits on the per-frame path.

**Send side.**  Each :class:`PeerLink` is the protocol of its own
outbound connection and owns a bounded pending list.  The first
:meth:`PeerLink.offer` in a loop turn schedules one ``call_soon``
flush; by the time it runs, the rest of that turn's fan-out or
protocol round has landed behind it.  The flush packs every pending
frame — bounded per write by :data:`BATCH_BYTES` — into a fresh
``bytearray`` with ``frame_msg_into`` and hands it to
``transport.write()``.  Each message is encoded in the link's
negotiated format (payload bytes are encoded once per format and
shared across a multicast's links via :class:`OutMessage`).  A
stalled peer pauses the transport (``pause_writing``); frames then
wait in the pending list until ``resume_writing``, and frames offered
while it holds :data:`SEND_QUEUE_CAP` are dropped.  The group
protocols above are built to tolerate message loss, so a dead or
wedged peer costs bounded memory, never backpressure into protocol
code.  Off the data path, one dial task per link connects
(re-resolving the peer's address each attempt, so a peer that
recovered on a fresh port is found) and reconnects with exponential
backoff (:data:`BACKOFF_BASE` doubling to :data:`BACKOFF_CAP`).

**Receive side.**  The server accepts any number of connections, each
with its own :class:`_InboundConnection` protocol.  The first frame
must be the ``hello``, answered with the ``welcome``; every later
frame is walked in ``data_received`` at its offset in the received
chunk (``parse_msg_at``) and handed synchronously to the node's
receive callback.  Only a partial frame at the end of a chunk is
copied, into a carry buffer that the next chunk extends.  A connection
whose framing breaks is logged and closed; a well-framed garbage body
is counted and skipped.  The node keeps serving either way.

Diagnostics go through the ``repro.realnet.*`` :mod:`logging` loggers
(silent by default; :func:`enable_stderr_logging` restores the old
``quiet=False`` stderr behavior).
"""

from __future__ import annotations

import asyncio
import logging
import random
from typing import Any, Awaitable, Callable

from repro.errors import CodecError
from repro.realnet.codec import (
    MAX_FRAME_BYTES,
    _LEN,
    decode_frame_body,
    encode_frame,
)
from repro.realnet.codec_bin import (
    FORMAT_JSON,
    ParsedMsg,
    WIRE_FORMATS,
    choose_format,
    schema_fingerprint,
)

logger = logging.getLogger("repro.realnet.transport")

#: Reconnect backoff: first retry after BACKOFF_BASE seconds, doubling
#: (with jitter) up to BACKOFF_CAP.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: Outbound messages held per peer while (re)connecting or paused.
SEND_QUEUE_CAP = 2048

#: Byte bound per write: a flush starts a new batch buffer once the
#: current one reaches this size (``0``: one frame per write).
BATCH_BYTES = 256 * 1024

#: How long the dialer waits for the server's ``welcome`` before
#: assuming a pre-negotiation peer and falling back to JSON.
WELCOME_TIMEOUT = 2.0

Resolver = Callable[[], "tuple[str, int] | None"]


def enable_stderr_logging(level: int = logging.INFO) -> logging.Logger:
    """Attach one stderr handler to the ``repro.realnet`` logger tree.

    Idempotent.  Called by the CLI and by ``quiet=False`` entry points;
    library use stays silent unless the application configures logging.
    """
    root = logging.getLogger("repro.realnet")
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("[realnet] %(message)s"))
        root.addHandler(handler)
    root.setLevel(level)
    return root


def _close_transport(transport: asyncio.BaseTransport) -> None:
    """Close promptly: flush what is buffered unless the peer stalled."""
    if transport.get_write_buffer_size():  # type: ignore[attr-defined]
        transport.abort()  # type: ignore[attr-defined]
    else:
        transport.close()


class OutMessage:
    """One queued outbound protocol message, encoded lazily per format.

    ``cell`` is shared across every :class:`OutMessage` of one
    multicast fan-out: the payload is encoded at most once per wire
    format no matter how many links (or which formats they negotiated)
    carry it.  The sender pre-fills its preferred format's entry so
    encoding errors surface in the caller, like the simulator.
    """

    __slots__ = ("dst_inc", "payload", "cell")

    def __init__(self, dst_inc: int | None, payload: Any, cell: dict[str, Any]) -> None:
        self.dst_inc = dst_inc
        self.payload = payload
        self.cell = cell

    def encoded(self, fmt: Any) -> Any:
        enc = self.cell.get(fmt.name)
        if enc is None:
            enc = self.cell[fmt.name] = fmt.encode_payload(self.payload)
        return enc


class PeerLink(asyncio.Protocol):
    """Outbound message pipe to one peer site: reconnect, negotiate, batch.

    The link is the protocol of its (at most one) live connection.
    Frames offered before the ``welcome`` arrives wait in the pending
    list and go out in order once the format is known.
    """

    def __init__(
        self,
        name: str,
        src: tuple[int, int],
        dst_site: Any,
        resolve: Resolver,
        offer_formats: tuple[str, ...] = (FORMAT_JSON,),
        queue_cap: int = SEND_QUEUE_CAP,
        batch_bytes: int = BATCH_BYTES,
    ) -> None:
        self.name = name
        self._src = src
        self._dst_site = dst_site
        self._resolve = resolve
        self._offer = offer_formats
        self._cap = queue_cap
        self._batch_bytes = batch_bytes
        self._pending: list[OutMessage] = []
        self._task: asyncio.Task | None = None
        self._transport: asyncio.Transport | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Negotiated format object; None until the welcome (or its
        #: timeout) — frames are only packed once it is known.
        self._fmt: Any = None
        self._rx = bytearray()  # welcome bytes received so far
        self._welcome_timer: asyncio.TimerHandle | None = None
        self._flush_handle: asyncio.Handle | None = None
        self._paused = False
        self._closed: asyncio.Future | None = None
        #: Wire-format name negotiated on the current connection.
        self.wire_format: str | None = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.encode_errors = 0
        self.connects = 0
        self.flushes = 0
        self.bytes_sent = 0
        self.max_batch = 0

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"peerlink-{self.name}"
            )

    def rebind_src(self, src: tuple[int, int]) -> None:
        """Stamp subsequent frames with a new local incarnation.

        The in-place recover path boots a fresh stack on an existing
        transport; its cached links must not keep framing messages as
        the dead incarnation (receivers identify senders per *frame*,
        so the connection and its original hello can stay up).
        """
        self._src = src

    def offer(self, msg: OutMessage) -> bool:
        """Queue a message for the next flush; False (dropped) when full."""
        pending = self._pending
        if len(pending) >= self._cap:
            self.frames_dropped += 1
            return False
        pending.append(msg)
        if self._flush_handle is None:
            self._schedule_flush()
        return True

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        transport = self._transport
        if transport is not None:
            _close_transport(transport)
        self._reset()

    # -- data path -----------------------------------------------------

    def _flush(self) -> None:
        """Pack and write everything pending (one call per loop turn)."""
        self._flush_handle = None
        fmt = self._fmt
        transport = self._transport
        pending = self._pending
        count = len(pending)
        # Re-read per flush: rebind_src may have moved the link to a
        # fresh local incarnation mid-connection.
        src = self._src
        dst_site = self._dst_site
        batch_bytes = self._batch_bytes
        frame_into = fmt.frame_msg_into
        # The batch buffer must be *fresh* per write: the transport may
        # keep a reference to the object it was handed (uvloop does),
        # so reusing it would corrupt in-flight data.
        batch = bytearray()
        frames = 0
        done = 0
        while done < count:
            msg = pending[done]
            done += 1
            try:
                frame_into(batch, src, dst_site, msg.dst_inc, msg.encoded(fmt))
            except CodecError as exc:
                self.encode_errors += 1
                logger.warning("link %s: cannot encode frame: %s", self.name, exc)
            else:
                frames += 1
            if frames and (len(batch) >= batch_bytes or done == count):
                transport.write(batch)
                self.frames_sent += frames
                self.bytes_sent += len(batch)
                self.flushes += 1
                if frames > self.max_batch:
                    self.max_batch = frames
                batch = bytearray()
                frames = 0
                if self._paused:
                    # write() crossed the high-water mark: the rest
                    # waits for resume_writing.
                    break
        del pending[:done]

    def _schedule_flush(self) -> None:
        """Arrange one flush after this loop turn, if the link can write."""
        if (
            self._flush_handle is None
            and self._fmt is not None
            and not self._paused
            and self._pending
        ):
            self._flush_handle = self._loop.call_soon(self._flush)  # type: ignore[union-attr]

    def _reset(self) -> None:
        """Forget the current connection's state (it closed or is closing).

        Cancelling the scheduled flush keeps the invariant ``_flush``
        relies on: it only runs on a live, negotiated connection.
        """
        for handle in (self._welcome_timer, self._flush_handle):
            if handle is not None:
                handle.cancel()
        self._welcome_timer = self._flush_handle = None
        self._transport = None
        self._fmt = None
        self.wire_format = None
        self._paused = False
        self._rx = bytearray()

    # -- protocol callbacks --------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._loop = asyncio.get_running_loop()
        transport.write(  # type: ignore[attr-defined]
            encode_frame(
                {
                    "k": "hello",
                    "src": [self._src[0], self._src[1]],
                    "codecs": list(self._offer),
                    "schema": schema_fingerprint(),
                }
            )
        )
        self._welcome_timer = self._loop.call_later(
            WELCOME_TIMEOUT, self._no_welcome
        )

    def data_received(self, data: bytes) -> None:
        if self._fmt is not None:
            return  # nothing but the welcome ever travels this way
        rx = self._rx
        rx += data
        if len(rx) < _LEN.size:
            return
        (length,) = _LEN.unpack_from(rx, 0)
        if length <= MAX_FRAME_BYTES and len(rx) < _LEN.size + length:
            return  # welcome still incomplete
        welcome: dict[str, Any] = {}
        if length <= MAX_FRAME_BYTES:
            try:
                welcome = decode_frame_body(bytes(rx[_LEN.size : _LEN.size + length]))
            except CodecError:
                pass
        name = welcome.get("codec") if welcome.get("k") == "welcome" else None
        if name not in self._offer or name not in WIRE_FORMATS:
            logger.debug("link %s: no usable welcome; assuming JSON peer", self.name)
            name = FORMAT_JSON
        self._ready(name)

    def _no_welcome(self) -> None:
        self._welcome_timer = None
        logger.debug("link %s: no welcome; assuming JSON peer", self.name)
        self._ready(FORMAT_JSON)

    def _ready(self, name: str) -> None:
        if self._welcome_timer is not None:
            self._welcome_timer.cancel()
            self._welcome_timer = None
        self._rx = bytearray()
        self.wire_format = name
        self._fmt = WIRE_FORMATS[name]
        self._schedule_flush()

    def connection_lost(self, exc: Exception | None) -> None:
        self._reset()
        closed = self._closed
        if closed is not None and not closed.done():
            closed.set_result(None)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._schedule_flush()

    # -- dialing (off the data path) -----------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        rng = random.Random()
        backoff = BACKOFF_BASE
        while True:
            address = self._resolve()
            if address is None:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            self._closed = loop.create_future()
            try:
                await loop.create_connection(lambda: self, *address)
            except OSError:
                await asyncio.sleep(backoff * (0.5 + rng.random()))
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            self.connects += 1
            await self._closed
            # The dial succeeded: the next one starts from the base
            # backoff again.
            backoff = BACKOFF_BASE
            logger.info("link %s: peer went away; reconnecting", self.name)


class FrameServer:
    """Listening side: accepts peer connections and forwards messages.

    ``on_msg(parsed)`` is called synchronously on the event loop for
    every inbound :class:`~repro.realnet.codec_bin.ParsedMsg`;
    validation beyond frame shape is the receiver's business
    (incarnation and connectivity checks live in
    :class:`~repro.realnet.network.RealNetwork`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_msg: Callable[[ParsedMsg], None],
        accept_formats: tuple[str, ...] = (FORMAT_JSON,),
        on_control: Callable[[Any, bytes, Callable[[bytes], None]], "bytes | None"]
        | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._on_msg = on_msg
        self._accept = accept_formats
        #: Optional handler for non-``msg`` frame bodies: called with
        #: (negotiated format, body, send) where ``send(data)`` writes
        #: framed bytes back on the originating connection at any later
        #: time (the client service's deferred put replies); a bytes
        #: return is written back immediately (the obs snapshot
        #: service), None ignores the frame as before.
        self._on_control = on_control
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[_InboundConnection] = set()
        self.frames_received = 0
        self.bytes_received = 0
        self.reads = 0
        self.max_frames_per_read = 0
        self.bad_connections = 0
        #: Well-framed bodies that failed to parse, logged and dropped
        #: without killing the connection (frame *lengths* are still
        #: trusted once negotiated; a cap violation closes the link).
        self.bad_frames = 0
        #: Connections by negotiated format name (lifetime counts).
        self.format_counts: dict[str, int] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.get_running_loop().create_server(
            self.connection, self._host, self._port
        )
        return self.address

    def connection(self) -> "_InboundConnection":
        """Protocol factory: one :class:`_InboundConnection` per accept."""
        return _InboundConnection(self)

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Close live connections before waiting on the server: newer
        # asyncio's wait_closed also waits for every accepted connection.
        for conn in list(self._conns):
            conn.close()
        self._conns.clear()
        if server is not None:
            await server.wait_closed()

    def _split_frames(self, buf: bytearray) -> list[bytes]:
        """Carve every complete ``length + body`` frame off ``buf``.

        Retained as the copying reference implementation for the
        framing tests; the live receive path
        (:meth:`_InboundConnection.data_received`) walks frame extents
        in place instead.
        """
        bodies: list[bytes] = []
        pos = 0
        end = len(buf)
        while end - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                raise CodecError(
                    f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                )
            if end - pos - _LEN.size < length:
                break
            start = pos + _LEN.size
            bodies.append(bytes(buf[start : start + length]))
            pos = start + length
        if pos:
            del buf[:pos]
        return bodies


class _InboundConnection(asyncio.Protocol):
    """One accepted connection: hello/welcome, then frame dispatch."""

    def __init__(self, server: FrameServer) -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._fmt: Any = None  # negotiated after the hello
        #: Partial frame carried over from the previous chunk.
        self._carry = bytearray()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._server._conns.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._conns.discard(self)
        self._carry = bytearray()

    def close(self) -> None:
        if self._transport is not None:
            _close_transport(self._transport)

    def send(self, data: bytes) -> None:
        """Per-connection reply channel handed to the control hook; safe
        to call after the dispatching frame (deferred client replies), a
        no-op once the peer is gone."""
        transport = self._transport
        if transport is not None and not transport.is_closing():
            transport.write(data)

    # A client that does not read its replies must not grow our write
    # buffer without bound: stop reading its requests until it catches up.
    def pause_writing(self) -> None:
        self._transport.pause_reading()  # type: ignore[union-attr]

    def resume_writing(self) -> None:
        self._transport.resume_reading()  # type: ignore[union-attr]

    def eof_received(self) -> bool:
        if self._carry:
            server = self._server
            server.bad_connections += 1
            logger.info("server %s:%s: connection closed mid-frame",
                        server._host, server._port)
        return False

    def _reject(self, reason: str) -> None:
        server = self._server
        server.bad_connections += 1
        logger.info("server %s:%s: bad peer frame: %s",
                    server._host, server._port, reason)
        self._carry = bytearray()
        self.close()

    def data_received(self, data: bytes) -> None:
        server = self._server
        server.bytes_received += len(data)
        carry = self._carry
        if carry:
            carry += data
            buf: Any = carry
        else:
            buf = data  # no partial frame pending: parse the chunk itself
        pos = 0
        end = len(buf)
        if self._fmt is None:
            pos = self._hello(buf)
            if pos is None:
                return
            if not pos:
                if buf is data:
                    carry += data
                return
        fmt = self._fmt
        on_msg = server._on_msg
        unpack = _LEN.unpack_from
        walked = 0
        msgs = 0
        # Walk complete frames in place: each body is parsed at its
        # (start, end) extent, no per-frame slice.  Dispatch is
        # synchronous, so every payload thunk is consumed before the
        # carry buffer is compacted below.  Control frames (obs polls,
        # client requests) copy their body out.
        while end - pos >= 4:
            (length,) = unpack(buf, pos)
            if length > MAX_FRAME_BYTES:
                self._reject(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
                pos = -1
                break
            body_start = pos + 4
            frame_end = body_start + length
            if frame_end > end:
                break
            walked += 1
            try:
                parsed = fmt.parse_msg_at(buf, body_start, frame_end)
                if parsed is None:
                    # Not a msg frame: offer it to the control hook;
                    # unknown kinds stay ignored so future frames don't
                    # kill the link.
                    on_control = server._on_control
                    if on_control is not None:
                        reply = on_control(fmt, bytes(buf[body_start:frame_end]), self.send)
                        if reply is not None:
                            self.send(reply)
                else:
                    msgs += 1
                    on_msg(parsed)
            except CodecError as exc:
                # The framing is intact (the length prefix was sane),
                # only this body is garbage: drop the one frame and keep
                # the link — a single bad payload must not sever an
                # otherwise healthy peer.
                server.bad_frames += 1
                logger.info("server %s:%s: dropped bad frame: %s",
                            server._host, server._port, exc)
            pos = frame_end
        if walked:
            server.reads += 1
            server.frames_received += msgs
            if walked > server.max_frames_per_read:
                server.max_frames_per_read = walked
        if pos < 0:
            return
        if buf is carry:
            del carry[:pos]
        elif pos < end:
            carry += memoryview(data)[pos:]

    def _hello(self, buf: Any) -> int | None:
        """Answer the opening hello; returns the offset after it, 0 while
        it is incomplete, None when the connection was rejected."""
        if len(buf) < _LEN.size:
            return 0
        (length,) = _LEN.unpack_from(buf, 0)
        if length > MAX_FRAME_BYTES:
            self._reject(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
            return None
        frame_end = _LEN.size + length
        if frame_end > len(buf):
            return 0
        try:
            hello = decode_frame_body(bytes(buf[_LEN.size : frame_end]))
        except CodecError as exc:
            self._reject(str(exc))
            return None
        if hello.get("k") != "hello":
            self._reject("first frame is not a hello")
            return None
        server = self._server
        chosen = choose_format(hello.get("codecs"), hello.get("schema"), server._accept)
        self.send(encode_frame({"k": "welcome", "codec": chosen}))
        self._fmt = WIRE_FORMATS[chosen]
        server.format_counts[chosen] = server.format_counts.get(chosen, 0) + 1
        return frame_end


async def wait_for_condition(
    predicate: Callable[[], Any],
    timeout: float,
    poll: float = 0.02,
) -> bool:
    """Poll ``predicate`` on the wall clock until truthy or ``timeout``.

    The realnet analogue of the simulator's ``run_until``; used by the
    orchestrator's ``settle`` and by the smoke tests.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        if predicate():
            return True
        if loop.time() >= deadline:
            return bool(predicate())
        await asyncio.sleep(poll)


async def run_with_timeout(coro: Awaitable[Any], timeout: float) -> Any:
    """``asyncio.wait_for`` wrapper: every realnet entry point takes a
    hard wall-clock budget so a wedged cluster can never hang CI."""
    return await asyncio.wait_for(coro, timeout=timeout)
