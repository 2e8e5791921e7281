"""Socket-free tests of the realnet transport protocols.

Both ends of a link are driven through a fake transport: the inbound
side (:class:`~repro.realnet.transport.FrameServer` connections) gets
byte streams in arbitrary chunkings, the outbound side
(:class:`~repro.realnet.transport.PeerLink`) is paused, resumed and
flushed by hand.  Dispatch is compared against the copying reference
splitter ``FrameServer._split_frames``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import CodecError
from repro.realnet import transport as transport_mod
from repro.realnet.codec import MAX_FRAME_BYTES, _LEN, decode_frame_body, encode_frame
from repro.realnet.codec_bin import (
    FORMAT_BIN,
    FORMAT_JSON,
    WIRE_FORMATS,
    schema_fingerprint,
    supported_formats,
)
from repro.realnet.transport import FrameServer, OutMessage, PeerLink


class FakeTransport:
    """Records writes; ``high_water`` makes a write pause the protocol."""

    def __init__(self, protocol=None, high_water: int | None = None) -> None:
        self.protocol = protocol
        self.high_water = high_water
        self.writes: list[bytes] = []
        self.closed = False
        self.reading = True

    def write(self, data) -> None:
        self.writes.append(bytes(data))
        if self.high_water is not None and len(self.writes) >= self.high_water:
            self.protocol.pause_writing()

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def abort(self) -> None:
        self.closed = True

    def get_write_buffer_size(self) -> int:
        return 0

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def hello(codecs) -> bytes:
    return encode_frame(
        {"k": "hello", "src": [0, 1], "codecs": list(codecs), "schema": schema_fingerprint()}
    )


def msg_frame(fmt_name: str, src, dst_site, dst_inc, payload) -> bytes:
    fmt = WIRE_FORMATS[fmt_name]
    return fmt.frame_msg(src, dst_site, dst_inc, fmt.encode_payload(payload))


def control_frame(fmt_name: str, body: bytes) -> bytes:
    if fmt_name == FORMAT_JSON:
        return encode_frame({"k": "obs_req", "tag": body.decode()})
    return _LEN.pack(len(body)) + body


def sample_stream(fmt_name: str) -> bytes:
    """A hello, then msg frames (one far larger than the rest) with a
    control frame in the middle."""
    frames = [hello(supported_formats("bin" if fmt_name == FORMAT_BIN else "json"))]
    frames.append(msg_frame(fmt_name, (0, 1), 2, 3, ("heartbeat", 7)))
    frames.append(msg_frame(fmt_name, (0, 1), 2, None, "x" * 300))
    frames.append(control_frame(fmt_name, b"\x02ctl"))
    frames.append(msg_frame(fmt_name, (4, 5), 2, 3, {"k": [1, 2.5, None]}))
    frames.append(msg_frame(fmt_name, (0, 2), 2, 3, ""))
    return b"".join(frames)


class Recorder:
    """A FrameServer plus everything it dispatched, in order."""

    def __init__(self, accept=supported_formats("bin")) -> None:
        self.events: list[tuple] = []
        self.server = FrameServer(
            "127.0.0.1", 0, self._on_msg, accept_formats=accept,
            on_control=self._on_control,
        )

    def _on_msg(self, msg) -> None:
        # Payloads must decode during dispatch: the buffer may be reused.
        self.events.append(
            ("msg", msg.src_site, msg.src_inc, msg.dst_site, msg.dst_inc, msg.payload())
        )

    def _on_control(self, fmt, body, send):
        self.events.append(("ctl", bytes(body)))
        return None

    def connect(self):
        conn = self.server.connection()
        transport = FakeTransport(conn)
        conn.connection_made(transport)
        return conn, transport


def reference_dispatch(stream: bytes, fmt_name: str) -> list[tuple]:
    server = FrameServer("127.0.0.1", 0, lambda msg: None)
    bodies = server._split_frames(bytearray(stream))
    assert decode_frame_body(bodies[0])["k"] == "hello"
    fmt = WIRE_FORMATS[fmt_name]
    events = []
    for body in bodies[1:]:
        msg = fmt.parse_msg(body)
        if msg is None:
            events.append(("ctl", body))
        else:
            events.append(
                ("msg", msg.src_site, msg.src_inc, msg.dst_site, msg.dst_inc, msg.payload())
            )
    return events


def feed(stream: bytes, cuts, accept=supported_formats("bin")) -> Recorder:
    rec = Recorder(accept)
    conn, _ = rec.connect()
    prev = 0
    for cut in list(cuts) + [len(stream)]:
        if cut > prev:
            conn.data_received(stream[prev:cut])
            prev = cut
    return rec


@pytest.mark.parametrize("fmt_name", [FORMAT_BIN, FORMAT_JSON])
def test_split_at_every_byte_boundary_matches_reference(fmt_name):
    stream = sample_stream(fmt_name)
    expected = reference_dispatch(stream, fmt_name)
    assert len(expected) == 5
    for cut in range(1, len(stream)):
        rec = feed(stream, [cut])
        assert rec.events == expected, f"split at byte {cut}"
        assert rec.server.bad_connections == rec.server.bad_frames == 0


@pytest.mark.parametrize("fmt_name", [FORMAT_BIN, FORMAT_JSON])
def test_random_chunkings_match_reference(fmt_name):
    stream = sample_stream(fmt_name) + b"".join(
        msg_frame(fmt_name, (1, 1), 2, i, i) for i in range(20)
    )
    expected = reference_dispatch(stream, fmt_name)
    rng = random.Random(1234)
    for _ in range(200):
        cuts = sorted(rng.sample(range(1, len(stream)), rng.randint(1, 12)))
        assert feed(stream, cuts).events == expected, cuts
    # One byte at a time is the most fragmented chunking there is.
    assert feed(stream, range(1, len(stream))).events == expected


def test_hello_and_first_frames_in_one_chunk_are_all_handled():
    stream = sample_stream(FORMAT_BIN)
    rec = Recorder()
    conn, transport = rec.connect()
    conn.data_received(stream)
    welcome = rec.server._split_frames(bytearray(transport.writes[0]))
    assert decode_frame_body(welcome[0]) == {"k": "welcome", "codec": FORMAT_BIN}
    assert rec.events == reference_dispatch(stream, FORMAT_BIN)
    assert rec.server.format_counts == {FORMAT_BIN: 1}
    assert rec.server.frames_received == 4
    assert rec.server.reads == 1
    assert rec.server.max_frames_per_read == 5
    assert rec.server.bytes_received == len(stream)
    assert not transport.closed


def test_json_only_peer_is_answered_in_json():
    rec = Recorder()
    conn, transport = rec.connect()
    conn.data_received(hello([FORMAT_JSON]))
    assert decode_frame_body(transport.writes[0][4:])["codec"] == FORMAT_JSON
    conn.data_received(msg_frame(FORMAT_JSON, (1, 1), 0, None, [1, 2]))
    assert rec.events == [("msg", 1, 1, 0, None, [1, 2])]


def test_oversized_length_prefix_closes_only_that_connection():
    rec = Recorder()
    bad, bad_transport = rec.connect()
    good, good_transport = rec.connect()
    bad.data_received(hello(supported_formats("bin")))
    bad.data_received(_LEN.pack(MAX_FRAME_BYTES + 1) + b"x")
    assert bad_transport.closed
    assert rec.server.bad_connections == 1
    good.data_received(sample_stream(FORMAT_BIN))
    assert not good_transport.closed
    assert len(rec.events) == 5


def test_oversized_or_foreign_hello_is_a_bad_connection():
    rec = Recorder()
    conn, transport = rec.connect()
    conn.data_received(_LEN.pack(MAX_FRAME_BYTES + 1))
    assert transport.closed and rec.server.bad_connections == 1
    conn2, transport2 = rec.connect()
    conn2.data_received(encode_frame({"k": "msg"}))
    assert transport2.closed and rec.server.bad_connections == 2
    assert rec.events == []


def test_garbage_body_counts_and_later_frames_still_dispatch():
    rec = Recorder()
    conn, transport = rec.connect()
    good = msg_frame(FORMAT_BIN, (0, 1), 2, 3, "after")
    garbage = _LEN.pack(1) + b"\x01"  # a msg kind byte and nothing else
    conn.data_received(hello(supported_formats("bin")) + garbage + good)
    assert rec.server.bad_frames == 1
    assert rec.events == [("msg", 0, 1, 2, 3, "after")]
    assert not transport.closed
    # The garbage frame alone in a later chunk is skipped the same way.
    conn.data_received(garbage)
    conn.data_received(good)
    assert rec.server.bad_frames == 2
    assert len(rec.events) == 2


def test_eof_mid_frame_is_a_bad_connection():
    rec = Recorder()
    conn, _ = rec.connect()
    frame = msg_frame(FORMAT_BIN, (0, 1), 2, 3, "cut")
    conn.data_received(hello(supported_formats("bin")) + frame[:-2])
    assert not conn.eof_received()  # close our side too
    assert rec.server.bad_connections == 1
    assert rec.events == []


def test_eof_at_frame_boundary_is_clean():
    rec = Recorder()
    conn, _ = rec.connect()
    conn.data_received(hello(supported_formats("bin")))
    conn.data_received(msg_frame(FORMAT_BIN, (0, 1), 2, 3, "whole"))
    conn.eof_received()
    conn.connection_lost(None)
    assert rec.server.bad_connections == 0
    assert rec.server._conns == set()


def test_control_reply_is_written_back_and_backpressure_pauses_reading():
    rec = Recorder()
    rec.server._on_control = lambda fmt, body, send: b"reply:" + bytes(body)
    conn, transport = rec.connect()
    conn.data_received(hello(supported_formats("bin")) + control_frame(FORMAT_BIN, b"\x02q"))
    assert transport.writes[-1] == b"reply:\x02q"
    conn.pause_writing()
    assert not transport.reading
    conn.resume_writing()
    assert transport.reading


# ---------------------------------------------------------------------------
# Send side: PeerLink over a fake transport
# ---------------------------------------------------------------------------


def make_link(**kwargs) -> PeerLink:
    return PeerLink(
        "0->1", (0, 1), 1, resolve=lambda: None,
        offer_formats=supported_formats("bin"), **kwargs,
    )


def out(payload) -> OutMessage:
    return OutMessage(None, payload, {})


def sent_payloads(writes: list[bytes], fmt_name: str = FORMAT_BIN) -> list:
    fmt = WIRE_FORMATS[fmt_name]
    server = FrameServer("127.0.0.1", 0, lambda msg: None)
    bodies = server._split_frames(bytearray(b"".join(writes)))
    return [fmt.parse_msg(body).payload() for body in bodies]


def connect_link(link: PeerLink, codec: str = FORMAT_BIN, **kwargs) -> FakeTransport:
    transport = FakeTransport(link, **kwargs)
    link.connection_made(transport)
    hello_frame = decode_frame_body(transport.writes.pop(0)[4:])
    assert hello_frame["k"] == "hello" and hello_frame["codecs"] == list(supported_formats("bin"))
    link.data_received(encode_frame({"k": "welcome", "codec": codec}))
    return transport


def test_link_flushes_once_per_loop_turn_in_order():
    async def scenario():
        link = make_link()
        transport = connect_link(link)
        for i in range(5):
            assert link.offer(out(i))
        assert transport.writes == []  # nothing before the turn ends
        await asyncio.sleep(0)
        assert len(transport.writes) == 1
        assert sent_payloads(transport.writes) == [0, 1, 2, 3, 4]
        assert (link.flushes, link.frames_sent, link.max_batch) == (1, 5, 5)
        assert link.bytes_sent == len(transport.writes[0])

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_frames_offered_before_welcome_go_out_after_it():
    async def scenario():
        link = make_link()
        transport = FakeTransport(link)
        link.offer(out("early"))
        link.connection_made(transport)
        link.offer(out("during"))
        await asyncio.sleep(0)
        assert len(transport.writes) == 1  # only the hello
        welcome = encode_frame({"k": "welcome", "codec": FORMAT_BIN})
        link.data_received(welcome[:3])  # the welcome may arrive split
        await asyncio.sleep(0)
        assert link.wire_format is None
        link.data_received(welcome[3:])
        assert link.wire_format == FORMAT_BIN
        await asyncio.sleep(0)
        assert sent_payloads(transport.writes[1:]) == ["early", "during"]

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_missing_welcome_falls_back_to_json(monkeypatch):
    monkeypatch.setattr(transport_mod, "WELCOME_TIMEOUT", 0.01)

    async def scenario():
        link = make_link()
        transport = FakeTransport(link)
        link.connection_made(transport)
        link.offer(out("late"))
        await asyncio.sleep(0.05)
        assert link.wire_format == FORMAT_JSON
        assert sent_payloads(transport.writes[1:], FORMAT_JSON) == ["late"]

    asyncio.run(asyncio.wait_for(scenario(), 5))


@pytest.mark.parametrize(
    "reply",
    [
        _LEN.pack(3) + b"\xff\xfe!",  # undecodable body
        encode_frame({"k": "hello", "codec": FORMAT_BIN}),  # not a welcome
        encode_frame({"k": "welcome", "codec": "bin9"}),  # never offered
        _LEN.pack(MAX_FRAME_BYTES + 1),  # oversized length prefix
    ],
)
def test_unusable_welcome_falls_back_to_json(reply):
    async def scenario():
        link = make_link()
        transport = FakeTransport(link)
        link.connection_made(transport)
        link.data_received(reply)
        assert link.wire_format == FORMAT_JSON
        link.offer(out("json"))
        await asyncio.sleep(0)
        assert sent_payloads(transport.writes[1:], FORMAT_JSON) == ["json"]

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_batch_bytes_zero_writes_one_frame_per_write():
    async def scenario():
        link = make_link(batch_bytes=0)
        transport = connect_link(link)
        for i in range(3):
            link.offer(out(i))
        await asyncio.sleep(0)
        assert len(transport.writes) == 3
        assert (link.flushes, link.max_batch) == (3, 1)
        assert sent_payloads(transport.writes) == [0, 1, 2]

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_paused_link_holds_at_most_the_cap_and_resume_flushes_in_order():
    async def scenario():
        link = make_link(queue_cap=8)
        transport = connect_link(link)
        link.pause_writing()
        accepted = [link.offer(out(i)) for i in range(11)]
        assert accepted == [True] * 8 + [False] * 3
        assert link.frames_dropped == 3
        await asyncio.sleep(0)
        assert transport.writes == []
        link.resume_writing()
        await asyncio.sleep(0)
        assert sent_payloads(transport.writes) == list(range(8))
        assert link._pending == []
        assert link.offer(out("again"))  # room again after the backlog left

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_pause_during_flush_keeps_the_rest_pending():
    async def scenario():
        # batch_bytes=0: one write per frame; the second write pauses.
        link = make_link(batch_bytes=0)
        transport = connect_link(link, high_water=2)
        for i in range(5):
            link.offer(out(i))
        await asyncio.sleep(0)
        assert sent_payloads(transport.writes) == [0, 1]
        assert len(link._pending) == 3
        transport.high_water = None
        link.resume_writing()
        await asyncio.sleep(0)
        assert sent_payloads(transport.writes) == [0, 1, 2, 3, 4]

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_rebind_src_is_read_at_flush_time():
    async def scenario():
        link = make_link()
        transport = connect_link(link)
        link.offer(out("x"))
        link.rebind_src((0, 9))
        await asyncio.sleep(0)
        body = transport.writes[0][4:]
        msg = WIRE_FORMATS[FORMAT_BIN].parse_msg(body)
        assert (msg.src_site, msg.src_inc) == (0, 9)

    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_unencodable_message_is_counted_and_skipped():
    async def scenario():
        link = make_link()
        transport = connect_link(link)
        link.offer(out(1))
        link.offer(out(object()))
        link.offer(out(2))
        await asyncio.sleep(0)
        assert link.encode_errors == 1
        assert sent_payloads(transport.writes) == [1, 2]

    with pytest.raises(CodecError):
        WIRE_FORMATS[FORMAT_BIN].encode_payload(object())
    asyncio.run(asyncio.wait_for(scenario(), 5))


def test_lost_connection_keeps_unsent_frames_for_the_next_one():
    async def scenario():
        link = make_link()
        transport = connect_link(link)
        link.pause_writing()
        link.offer(out("kept"))
        link.connection_lost(ConnectionResetError())
        assert link.wire_format is None
        await asyncio.sleep(0)
        transport2 = connect_link(link)
        await asyncio.sleep(0)
        assert transport.writes == []
        assert sent_payloads(transport2.writes) == ["kept"]

    asyncio.run(asyncio.wait_for(scenario(), 5))
