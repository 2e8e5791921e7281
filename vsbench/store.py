"""The ``store_read`` and ``store_write`` workloads.

The store runs in a child process (:mod:`server`); this process is the
client side: one asyncio loop on the main thread, two pipelined
:class:`~repro.client.client.AsyncStoreClient` connections to two
different sites, and an open-loop schedule fixed up front from the
seed.  Every operation is timed from the moment it was *due*, so a
stall on the server also charges the operations queued behind it.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.client.client import AsyncStoreClient

HERE = Path(__file__).resolve().parent

#: Keys written during set-up; every key the load touches is one of them.
N_KEYS = 1000
#: Zipf skew of the key popularity (YCSB's default).
THETA = 0.99
#: Both connections; at most two, to two different sites.
SITES = (0, 1)
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Puts in flight while preloading.
PRELOAD_WINDOW = 64
#: A send more than one inter-arrival gap behind its due time is late;
#: a run whose median window has more than this fraction late is invalid.
#: Host noise alone (vCPU steal on a 2-CPU VM) was seen to make up to
#: 11% of sends late; a generator that cannot keep up makes most of
#: them late.
LATE_BOUND = 0.25
#: Wall seconds to wait for stragglers once the last op was sent.
DRAIN_S = 8.0
#: Read-back budget, and attempts per history read: a replica that
#: keeps settling is given up on, the others still answer.
READ_BACK_S = 6.0
READ_ATTEMPTS = 5

WORKLOADS = {
    # name: (offered ops/s, fraction of gets, measured windows)
    # store_read measures each set-up for a third of the run and reports
    # medians over the three, so one stalled window cannot move them;
    # store_write needs the whole run in one window to reach compaction.
    "store_read": (250.0, 0.9, 3),
    "store_write": (200.0, 0.0, 1),
}

_attempts: contextvars.ContextVar[list] = contextvars.ContextVar("attempts")


class CountingClient(AsyncStoreClient):
    """Counts attempts per operation (retries and redials included)."""

    async def request(self, request):
        box = _attempts.get(None)
        if box is not None:
            box[0] += 1
        return await super().request(request)


class ZipfKeys:
    """YCSB zipfian ranks, scrambled over ``k0 .. k{n-1}``."""

    def __init__(self, n: int, rng: random.Random, theta: float = THETA) -> None:
        self.n, self.rng, self.theta = n, rng, theta
        self.zetan = sum(1.0 / i**theta for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5**theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self.zetan)

    def sample(self) -> str:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5**self.theta:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return f"k{(min(rank, self.n - 1) * 2654435761) % self.n}"


@dataclass
class Op:
    index: int
    op: str
    key: str
    value: str | None
    due: float = 0.0
    status: str = "pending"
    latency: float = math.inf
    lag: float = 0.0
    attempts: int = 0
    prov: tuple | None = None
    client: str = ""


def make_plan(seed: int, rate: float, seconds: float, read_fraction: float,
              tag: str) -> list[Op]:
    rng = random.Random(seed)
    keys = ZipfKeys(N_KEYS, rng)
    plan = []
    for k in range(int(rate * seconds)):
        is_get = rng.random() < read_fraction
        key = keys.sample()
        plan.append(Op(k, "get" if is_get else "put", key,
                       None if is_get else f"{tag}:{k}"))
    return plan


# -- the server child ------------------------------------------------------


class Server:
    """The store child process, driven by JSON lines over pipes."""

    def __init__(self, root: Path, seed: int, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--seed", str(seed),
             "--trace", str(int(trace))],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            hello = self._read(60.0)
            if not hello.get("ready"):
                raise RuntimeError("store cluster did not form a view")
        except BaseException:
            self.close()
            raise
        self.book = {int(s): tuple(a) for s, a in hello["book"].items()}

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("store server did not answer")
        return json.loads(line)

    def call(self, op: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(json.dumps({"op": op}).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"op": "stop"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# -- client side -----------------------------------------------------------


async def _connect(book: dict, tag: str) -> list[CountingClient]:
    clients = [
        CountingClient(addresses=book, site=site, client_id=f"{tag}-c{site}")
        for site in SITES
    ]
    for client in clients:
        await client.connect()
    return clients


async def _close(clients: list[CountingClient]) -> None:
    for client in clients:
        await client.close()


async def _send(client: CountingClient, op: Op) -> None:
    box = [0]
    _attempts.set(box)
    loop = asyncio.get_running_loop()
    op.client = client.client_id
    try:
        reply = await client.call(op.op, op.key, op.value)
        op.status = reply.status
        op.prov = reply.prov
    except (OSError, EOFError, ConnectionError, asyncio.TimeoutError) as exc:
        op.status = type(exc).__name__
    op.latency = loop.time() - op.due
    op.attempts = box[0]


async def preload(book: dict, tag: str) -> list[Op]:
    """Write every key once, ``PRELOAD_WINDOW`` puts in flight."""
    clients = await _connect(book, tag)
    ops = [Op(k, "put", f"k{k}", f"{tag}:{k}") for k in range(N_KEYS)]
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(PRELOAD_WINDOW)

    async def one(op: Op) -> None:
        async with gate:
            op.due = loop.time()
            await _send(clients[op.index % len(clients)], op)

    try:
        await asyncio.gather(*(one(op) for op in ops))
    finally:
        await _close(clients)
    return ops


async def open_loop(book: dict, plan: list[Op], rate: float, tag: str) -> None:
    """Offer ``plan`` at ``rate``, then wait up to ``DRAIN_S`` for replies."""
    clients = await _connect(book, tag)
    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []
    t0 = loop.time() + 0.05
    try:
        for op in plan:
            op.due = t0 + op.index / rate
            delay = op.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            op.lag = loop.time() - op.due
            client = clients[op.index % len(clients)]
            tasks.append(asyncio.ensure_future(_send(client, op)))
        _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for op in plan:
            if op.status == "pending":
                op.status = "timeout"
    finally:
        await _close(clients)


async def read_back(book: dict, acked: list[Op], tag: str) -> tuple[list[str], int]:
    """Every acked put must be held, exactly once, by some replica.

    Replicas are read in site order through ``history``, each for the
    keys whose puts no earlier replica held: the store accepts writes
    in every view, so while the group is split one replica can
    legitimately lack writes acked in another partition.  A replica
    holding a put must hold it once, with the version it was acked
    with, under a ``(client, client_seq)`` that occurs once in the
    chain.  A put is *missing* when every replica answered for its key
    and none held it; it is *unverified* when some replica kept
    settling past the read-back budget.  Returns the violations and the
    number of unverified puts.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + READ_BACK_S
    by_key: dict[str, list[Op]] = {}
    for op in acked:
        by_key.setdefault(op.key, []).append(op)
    found: set[int] = set()
    silent: set[str] = set()  # keys some replica did not answer for
    errors: list[str] = []
    gate = asyncio.Semaphore(PRELOAD_WINDOW)

    async def check(client: CountingClient, key: str) -> None:
        async with gate:
            reply = await client.call("history", key)
        if reply.status != "ok":
            silent.add(key)
            return
        seqs: dict[tuple, int] = {}
        for _value, _prov, writer, seq in reply.chain:
            seqs[(writer, seq)] = seqs.get((writer, seq), 0) + 1
        for op in by_key[key]:
            hits = [e for e in reply.chain if e[0] == op.value]
            if not hits:
                continue
            if len(hits) > 1:
                errors.append(f"{key}: put {op.value} present {len(hits)} times")
            elif tuple(hits[0][1]) != tuple(op.prov) or hits[0][2] != op.client:
                errors.append(f"{key}: put {op.value} has the wrong version")
            elif seqs[(hits[0][2], hits[0][3])] != 1:
                errors.append(f"{key}: ({hits[0][2]}, {hits[0][3]}) not exactly once")
            else:
                found.add(id(op))

    for site in sorted(book):
        keys = sorted({op.key for op in acked if id(op) not in found})
        if not keys:
            break
        client = CountingClient(addresses=book, site=site, client_id=f"{tag}-r{site}",
                                max_attempts=READ_ATTEMPTS)
        checks: list[asyncio.Task] = []
        try:
            await client.connect()
            checks = [asyncio.ensure_future(check(client, key)) for key in keys]
            _, late = await asyncio.wait(checks, timeout=max(0.1, deadline - loop.time()))
            silent.update(keys[i] for i, task in enumerate(checks) if task in late)
        except OSError:
            silent.update(keys)
        finally:
            for task in checks:
                task.cancel()
            await asyncio.gather(*checks, return_exceptions=True)
            await client.close()
    unverified = 0
    for op in acked:
        if id(op) in found:
            continue
        if op.key in silent:
            unverified += 1
        else:
            errors.append(f"{op.key}: acked put {op.value} held by no replica")
    return errors, unverified


@dataclass
class Window:
    """One set-up plus one measured open-loop window on it."""

    plan: list[Op] = field(default_factory=list)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    ledger: dict | None = None
    reformed: bool = False
    unverified: int = 0
    errors: list[str] = field(default_factory=list)


def run_store(root: Path, workload: str, seed: int, seconds: float,
              setups: int = SETUPS, trace: bool = False) -> tuple[list[float], list[Window]]:
    """Set up ``setups`` times; measure the last ``windows`` set-ups.

    The run's ``seconds`` are split evenly over the measured windows,
    each on a cluster of its own, so one window's collapse cannot leak
    into the next.  Returns every set-up time and the windows.
    """
    rate, reads, windows = WORKLOADS[workload]
    windows = min(windows, setups)
    # Fresh client identities per set-up and per phase: a reused
    # (client, client_seq) would be acked by the exactly-once index
    # without any replication work.
    nonce = f"{seed}.{time.time_ns() % 10**9}"
    setup_times: list[float] = []
    results = []
    for index in range(setups):
        tag = f"{index}.{nonce}"
        start = time.perf_counter()
        server = Server(root, seed, trace)
        try:
            preloaded = asyncio.run(preload(server.book, f"p{tag}"))
            setup_times.append(time.perf_counter() - start)
            if index < setups - windows:
                continue
            window = Window()
            failed = [op for op in preloaded if op.status != "ok"]
            if failed:
                window.errors.append(f"{len(failed)} preload puts failed")
            window.plan = make_plan(seed * 100 + index, rate, seconds / windows,
                                    reads, f"w{tag}")
            window.before = server.call("mark")
            if trace:
                server.call("trace_on")
            asyncio.run(open_loop(server.book, window.plan, rate, f"w{tag}"))
            if trace:
                window.ledger = server.call("trace_off", timeout=120.0)
            window.after = server.call("mark")
            window.reformed = server.call("settle")["ok"]
            acked = [op for op in preloaded + window.plan
                     if op.op == "put" and op.status == "ok"]
            errors, window.unverified = asyncio.run(
                read_back(server.book, acked, f"r{tag}"))
            window.errors += errors
            results.append(window)
        finally:
            server.close()
    return setup_times, results
