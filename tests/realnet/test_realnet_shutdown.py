"""Transport shutdown over real loopback sockets.

``RealNetwork.stop()`` must return promptly while it still has live
inbound and outbound connections — including an outbound link whose
peer stopped reading (paused transport, full socket buffers) and an
inbound connection parked mid-frame.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.realnet.codec import encode_frame
from repro.realnet.network import RealNetwork
from repro.realnet.transport import wait_for_condition
from repro.realnet.wallclock import WallClockScheduler
from repro.types import ProcessId

pytestmark = pytest.mark.realnet

HARD_TIMEOUT = 30.0
#: What "promptly" means for stop() on a loaded loopback box.
STOP_BUDGET = 1.0


class Sink:
    """The least a network needs from a registered process."""

    alive = True

    def __init__(self, site: int) -> None:
        self.pid = ProcessId(site, 1)
        self.got: list = []

    def attach(self, network) -> None:
        pass

    def deliver_network(self, src, payload) -> None:
        self.got.append(payload)


async def stalled_peer(
    release: asyncio.Event,
) -> tuple[asyncio.AbstractServer, tuple[str, int]]:
    """A peer that answers the hello, then reads nothing until released."""

    async def handle(reader, writer):
        await reader.read(4096)  # the hello
        writer.write(encode_frame({"k": "welcome", "codec": "bin1"}))
        await writer.drain()
        await release.wait()
        writer.close()

    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.bind(("127.0.0.1", 0))
    server = await asyncio.start_server(handle, sock=sock)
    return server, sock.getsockname()[:2]


def test_stop_returns_promptly_with_live_and_stalled_connections():
    async def scenario():
        loop = asyncio.get_running_loop()
        book: dict = {}
        nets, sinks = [], []
        for site in (0, 1):
            net = RealNetwork(WallClockScheduler(), site, book)
            await net.start()
            sink = Sink(site)
            net.register(sink)
            nets.append(net)
            sinks.append(sink)
        a, b = nets
        release = asyncio.Event()
        stalled, book[2] = await stalled_peer(release)
        # Live traffic both ways: each side has inbound and outbound links.
        a.send_to_site(sinks[0].pid, 1, "a->b")
        b.send_to_site(sinks[1].pid, 0, "b->a")
        assert await wait_for_condition(
            lambda: sinks[0].got and sinks[1].got, timeout=10.0
        )
        # Fill the stalled peer's link until its transport pauses.
        big = "x" * 65536
        for _ in range(400):
            a.send_to_site(sinks[0].pid, 2, big)
            await asyncio.sleep(0)
            if a._links[2]._paused:
                break
        assert a._links[2]._paused
        # An inbound connection parked mid-frame.
        host, port = a.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame({"k": "hello", "codecs": ["json"]}) + b"\x00\x00\x01")
        await writer.drain()
        await asyncio.sleep(0.05)

        t0 = loop.time()
        await asyncio.wait_for(a.stop(), STOP_BUDGET)
        assert loop.time() - t0 < STOP_BUDGET
        # The parked inbound connection was closed, not abandoned.
        await asyncio.wait_for(reader.read(), 5.0)
        writer.close()

        await asyncio.wait_for(b.stop(), STOP_BUDGET)
        await a.stop()  # idempotent
        release.set()
        stalled.close()
        await asyncio.wait_for(stalled.wait_closed(), 5.0)

    asyncio.run(asyncio.wait_for(scenario(), HARD_TIMEOUT))
