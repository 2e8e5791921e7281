"""Process-spawning cluster driver: one OS process (and core) per site.

:class:`ProcRealClusterDriver` is the multi-core sibling of
:class:`~repro.realnet.driver.RealClusterDriver`: it satisfies the same
blocking :class:`~repro.ports.ClusterPort`, but instead of co-locating
every node on one event loop it spawns one ``repro realnet node
--supervised`` child per site, so an n-node cluster escapes the GIL and
uses n cores.  All steering goes over each child's normal listening
socket via the control protocol in :mod:`repro.realnet.procnode`:

* **lifecycle** — ``boot`` / ``crash`` / ``recover`` ops; ``join``
  spawns a fresh process and teaches the others its address;
* **connectivity** — the driver's :class:`_MirrorTopology` broadcasts
  every mutation (partition / heal / isolate / one-way cuts) to all
  children, so an armed :class:`~repro.net.faults.FaultSchedule`
  written in scenario units applies across process boundaries
  unchanged;
* **observability** — ``gather_trace`` pulls every child's recorders as
  JSON-lines and shifts event times by the child↔parent wall-epoch
  difference onto one comparable time base before merging;
  ``metrics_snapshot`` polls each child's obs frame kind (the same
  service ``repro obs watch`` uses) and merges the per-process
  registries.

A background poller refreshes a per-site status cache (~20 Hz), which
backs the synchronous introspection surface (``live_stacks`` /
``is_settled`` / ``views``); waiting methods refresh it explicitly, so
a ``settle()`` that returns True reflects fresh child state.

Applications are named, not passed: a closure cannot cross an OS
process boundary, so ``config.app`` selects from
:mod:`repro.apps.factories` and ``app_at`` raises — workloads on this
runtime drive the cluster through :class:`~repro.workload.clients.
MulticastClient` (which only touches stacks), exactly what the checked
figure-2 workload needs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.net.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot, merge_snapshots
from repro.obs.watch import (
    _read_raw_frame,
    obs_request_body,
    parse_obs_reply,
)
from repro.realnet.codec import _LEN, decode_frame_body, encode_frame
from repro.realnet.codec_bin import (
    FORMAT_JSON,
    WIRE_FORMATS,
    schema_fingerprint,
    supported_formats,
)
from repro.realnet.procnode import ctl_request_frame, parse_ctl_reply
from repro.realnet.wallclock import WallClockScheduler, new_event_loop
from repro.trace.export import event_from_json
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId

#: Hard timeout for individual control round trips (seconds).
ACTION_TIMEOUT = 30.0

#: Status-cache refresh period (seconds of wall time).
POLL_INTERVAL = 0.05


@dataclass
class ProcClusterConfig:
    """Knobs for a process-per-site cluster.

    Mirrors :class:`~repro.realnet.cluster.RealClusterConfig` where the
    concepts carry over; ``app`` names a factory from
    :mod:`repro.apps.factories` (closures cannot cross the process
    boundary).  ``startup_timeout`` bounds the whole spawn + connect +
    boot sequence — Python process startup dominates it.
    """

    seed: int = 0
    loss_prob: float = 0.0
    scale: float = 1.0
    host: str = "127.0.0.1"
    codec: str = "bin"
    app: str = "none"
    trace_level: str = "full"
    quiet: bool = True
    startup_timeout: float = 60.0
    tracing: bool = False


def _free_port(host: str) -> int:
    """Ask the kernel for a currently-free port (best effort: the child
    re-binds it a moment later; localhost collisions are rare and
    surface as a failed startup, never silent corruption)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class _CtlClient:
    """One control connection to a supervised child, on the driver loop.

    Requests are serialized by a lock (the reply stream is FIFO per
    connection); a dropped connection is re-dialed once per request.
    """

    def __init__(self, name: str, host: str, port: int, codec: str) -> None:
        self.name = name
        self._host = host
        self._port = port
        self._codec = codec
        self._lock = asyncio.Lock()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self.fmt: Any = None

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self._host, self._port)
        writer.write(
            encode_frame(
                {
                    "k": "hello",
                    "src": [-1, 0],  # not a site: a controller
                    "codecs": list(supported_formats(self._codec)),
                    "schema": schema_fingerprint(),
                }
            )
        )
        await writer.drain()
        welcome = decode_frame_body(await _read_raw_frame(reader))
        name = welcome.get("codec") if welcome.get("k") == "welcome" else None
        self.fmt = WIRE_FORMATS[name if name in WIRE_FORMATS else FORMAT_JSON]
        self._reader, self._writer = reader, writer

    async def aclose(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def request(
        self, op: str, arg: Any = None, timeout: float = ACTION_TIMEOUT
    ) -> Any:
        async with self._lock:
            return await asyncio.wait_for(self._request(op, arg), timeout)

    async def _request(self, op: str, arg: Any) -> Any:
        for attempt in (0, 1):
            try:
                if self._reader is None:
                    await self.connect()
                assert self._writer is not None and self._reader is not None
                self._writer.write(ctl_request_frame(self.fmt, op, arg))
                await self._writer.drain()
                while True:
                    body = await _read_raw_frame(self._reader)
                    parsed = parse_ctl_reply(self.fmt, body)
                    if parsed is None:
                        continue  # interleaved non-ctl reply kinds
                    ok, result = parsed
                    if not ok:
                        raise SimulationError(
                            f"control op {op!r} failed on {self.name}: {result}"
                        )
                    return result
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                await self.aclose()
                if attempt:
                    raise

    async def fetch_metrics(self) -> MetricsSnapshot | None:
        """One obs snapshot poll over this connection (PR-5 frame kind)."""
        async with self._lock:
            if self._reader is None:
                await self.connect()
            assert self._writer is not None and self._reader is not None
            body = obs_request_body(self.fmt)
            self._writer.write(_LEN.pack(len(body)) + body)
            await self._writer.drain()
            while True:
                reply = parse_obs_reply(self.fmt, await _read_raw_frame(self._reader))
                if reply is not None:
                    return reply


class _MirrorTopology(Topology):
    """Parent-side topology whose mutations broadcast to every child.

    Fault schedules mutate ``target.topology`` directly (one-way cuts)
    or via the driver's partition/heal/isolate; either way the change
    must reach the children, so every mutator notifies the driver after
    applying locally.
    """

    def __init__(self, sites: Any) -> None:
        super().__init__(sites)
        self._on_change: Callable[[], None] | None = None

    def _notify(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def partition(self, groups: Any) -> None:
        super().partition(groups)
        self._notify()

    def heal(self) -> None:
        super().heal()
        self._notify()

    def isolate(self, site: SiteId) -> None:
        super().isolate(site)
        self._notify()

    def add_site(self, site: SiteId) -> None:
        super().add_site(site)
        self._notify()

    def cut_oneway(self, src: SiteId, dst: SiteId) -> None:
        super().cut_oneway(src, dst)
        self._notify()

    def heal_oneway(self, src: SiteId, dst: SiteId) -> None:
        super().heal_oneway(src, dst)
        self._notify()


class _ProcStackProxy:
    """The slice of a remote stack the workload surface touches.

    Reads come from the driver's status cache; ``multicast`` ships the
    payload to the child as a control op (fire-and-forget from the loop
    thread — workload ticks must not block the loop on a round trip).
    """

    def __init__(self, driver: "ProcRealClusterDriver", site: SiteId) -> None:
        self._driver = driver
        self.site = site

    @property
    def _status(self) -> dict[str, Any]:
        return self._driver._status.get(self.site) or {}

    @property
    def pid(self) -> ProcessId:
        status = self._status
        return ProcessId(self.site, status.get("inc", 0))

    @property
    def alive(self) -> bool:
        return bool(self._status.get("alive"))

    @property
    def is_flushing(self) -> bool:
        return bool(self._status.get("flushing"))

    @property
    def view(self) -> Any:
        return self._status.get("view")

    def current_view_id(self) -> Any:
        return self._status.get("view")

    def multicast(self, payload: Any) -> None:
        self._driver._fire_ctl(self.site, "mcast", payload)


class ProcRealClusterDriver:
    """Blocking :class:`~repro.ports.ClusterPort` over child processes."""

    #: ClusterPort runtime tag (client/workload code branches on it).
    runtime = "realnet-proc"

    def __init__(
        self, n_sites: int, config: ProcClusterConfig | None = None
    ) -> None:
        if n_sites < 1:
            raise SimulationError("cluster needs at least one site")
        self.config = config or ProcClusterConfig()
        self.n_sites = n_sites
        self.topology = _MirrorTopology(range(n_sites))
        self.address_book: dict[SiteId, tuple[str, int]] = {}
        self._procs: dict[SiteId, subprocess.Popen] = {}
        self._ctl: dict[SiteId, _CtlClient] = {}
        self._status: dict[SiteId, dict[str, Any]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.scheduler: WallClockScheduler | None = None
        self._poller: asyncio.Task | None = None
        self._bg: set[asyncio.Task] = set()
        self._log_dir: str | None = None
        self._closed = False
        self.metrics = MetricsRegistry(
            clock=lambda: self.now, runtime="realnet-proc"
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ProcRealClusterDriver":
        if self._loop is not None:
            raise SimulationError("driver already started")
        self._loop = new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="realnet-proc-driver", daemon=True
        )
        self._thread.start()
        self._log_dir = tempfile.mkdtemp(prefix="repro-proc-")
        try:
            self._submit(self._start_async(), timeout=self.config.startup_timeout)
        except BaseException:
            self.close()
            raise
        self.topology._on_change = self._topology_changed
        return self

    async def _start_async(self) -> None:
        self.scheduler = WallClockScheduler()
        cfg = self.config
        for site in sorted(self.topology.sites):
            self.address_book[site] = (cfg.host, _free_port(cfg.host))
        for site in sorted(self.topology.sites):
            self._spawn_proc(site)
        await asyncio.gather(
            *(self._connect_ctl(site) for site in sorted(self.topology.sites))
        )
        await asyncio.gather(
            *(self._ctl[site].request("boot") for site in sorted(self.topology.sites))
        )
        await self._refresh_statuses()
        self._poller = asyncio.get_running_loop().create_task(self._poll_loop())

    def _spawn_proc(self, site: SiteId) -> None:
        cfg = self.config
        book = ",".join(
            f"{s}:{host}:{port}"
            for s, (host, port) in sorted(self.address_book.items())
        )
        cmd = [
            sys.executable, "-m", "repro", "realnet", "node",
            "--supervised",
            "--site", str(site),
            "--book", book,
            "--app", cfg.app,
            "--seed", str(cfg.seed),
            "--scale", str(cfg.scale),
            "--codec", cfg.codec,
            "--loss", str(cfg.loss_prob),
            "--trace-level", cfg.trace_level,
        ]
        if cfg.tracing:
            cmd.append("--tracing")
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        assert self._log_dir is not None
        log_path = Path(self._log_dir) / f"site{site}.log"
        log = open(log_path, "w", encoding="utf-8")
        try:
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()
        self._procs[site] = proc

    async def _connect_ctl(self, site: SiteId) -> _CtlClient:
        host, port = self.address_book[site]
        client = _CtlClient(f"site{site}", host, port, self.config.codec)
        deadline = asyncio.get_running_loop().time() + self.config.startup_timeout
        while True:
            proc = self._procs.get(site)
            if proc is not None and proc.poll() is not None:
                raise SimulationError(
                    f"site {site} process exited with {proc.returncode} during "
                    f"startup (log: {self._log_dir}/site{site}.log)"
                )
            try:
                await client.connect()
                await client.request("ping", timeout=5.0)
                break
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                await client.aclose()
                if asyncio.get_running_loop().time() >= deadline:
                    raise SimulationError(
                        f"site {site} did not come up within "
                        f"{self.config.startup_timeout}s"
                    ) from None
                await asyncio.sleep(0.1)
        self._ctl[site] = client
        return client

    def close(self) -> None:
        if self._closed or self._loop is None:
            self._closed = True
            return
        self._closed = True
        try:
            self._submit(self._close_async(), timeout=ACTION_TIMEOUT)
        except Exception:
            pass
        finally:
            for proc in self._procs.values():
                if proc.poll() is None:
                    proc.terminate()
            deadline = time.time() + 5.0
            for proc in self._procs.values():
                remaining = deadline - time.time()
                try:
                    proc.wait(timeout=max(0.1, remaining))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=ACTION_TIMEOUT)
            self._loop.close()
            if self._log_dir is not None:
                shutil.rmtree(self._log_dir, ignore_errors=True)

    async def _close_async(self) -> None:
        if self._poller is not None:
            self._poller.cancel()
        for task in list(self._bg):
            task.cancel()
        for site, client in list(self._ctl.items()):
            try:
                await client.request("shutdown", timeout=5.0)
            except Exception:
                pass
            await client.aclose()

    def __enter__(self) -> "ProcRealClusterDriver":
        return self.start() if self._loop is None else self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------

    def _on_loop(self) -> bool:
        return (
            self._loop is not None
            and threading.current_thread() is self._thread
        )

    def _submit(self, coro: Any, timeout: float | None = None) -> Any:
        if self._loop is None or self._on_loop():
            coro.close()  # never scheduled: close it so it is not leaked
        if self._loop is None:
            raise SimulationError("driver is not running")
        if self._on_loop():
            raise SimulationError(
                "blocking driver call from the loop thread"
            )
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise SimulationError(
                f"realnet-proc action did not complete within {timeout}s"
            ) from None

    def _invoke_or_spawn(self, coro: Any, timeout: float = ACTION_TIMEOUT) -> Any:
        """Run ``coro`` to completion from a foreign thread, or schedule
        it as a tracked task when already on the loop (fault-schedule
        actions and workload ticks must not block the loop on a control
        round trip)."""
        if self._on_loop():
            task = asyncio.get_running_loop().create_task(coro)
            self._bg.add(task)
            task.add_done_callback(self._bg.discard)
            return None
        return self._submit(coro, timeout=timeout)

    def _fire_ctl(self, site: SiteId, op: str, arg: Any = None) -> None:
        self._invoke_or_spawn(self._ctl_request(site, op, arg))

    async def _ctl_request(self, site: SiteId, op: str, arg: Any = None) -> Any:
        client = self._ctl.get(site)
        if client is None:
            raise SimulationError(f"no control connection to site {site}")
        return await client.request(op, arg)

    async def _refresh_statuses(self) -> None:
        sites = sorted(self._ctl)

        async def one(site: SiteId) -> None:
            try:
                self._status[site] = await self._ctl[site].request(
                    "status", timeout=5.0
                )
            except Exception:
                pass  # keep the stale entry; the next poll retries

        await asyncio.gather(*(one(site) for site in sites))

    async def _poll_loop(self) -> None:
        while True:
            await asyncio.sleep(POLL_INTERVAL)
            await self._refresh_statuses()

    # -- connectivity broadcast ----------------------------------------

    def _topology_changed(self) -> None:
        self._invoke_or_spawn(self._push_topology())

    async def _push_topology(self) -> None:
        components = tuple(
            tuple(sorted(group)) for group in self.topology.components()
        )
        oneway = tuple(sorted(self.topology._oneway_cuts))
        sites = tuple(sorted(self.topology.sites))
        arg = (components, oneway, sites)
        await asyncio.gather(
            *(
                client.request("topology", arg)
                for client in self._ctl.values()
            ),
            return_exceptions=True,
        )

    # -- time / waiting ------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now if self.scheduler is not None else 0.0

    @property
    def time_scale(self) -> float:
        return 0.01 * self.config.scale

    def run_for(self, duration: float) -> float:
        time.sleep(max(0.0, duration))
        return self.now

    def settle(self, timeout: float = 10.0, poll: float = 0.05) -> bool:
        return self._submit(
            self._wait_async(self._settled_from_cache, timeout, poll),
            timeout=timeout + ACTION_TIMEOUT,
        )

    def wait_until(
        self,
        predicate: Callable[[Any], Any],
        timeout: float = 10.0,
        poll: float = 0.05,
    ) -> bool:
        if self._on_loop():
            # Blocking here would wait on the loop we are running on.
            raise SimulationError("blocking driver call from the loop thread")
        # Off-loop callers get the predicate evaluated on *their* thread,
        # so it may itself make blocking driver calls (delivered_total,
        # metrics_snapshot, ...) without deadlocking the loop thread.
        deadline = time.monotonic() + timeout
        while True:
            self._submit(self._refresh_statuses(), timeout=ACTION_TIMEOUT)
            if predicate(self):
                return True
            if time.monotonic() >= deadline:
                return bool(predicate(self))
            time.sleep(poll)

    async def _wait_async(
        self, predicate: Callable[[], Any], timeout: float, poll: float
    ) -> bool:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            await self._refresh_statuses()
            if predicate():
                return True
            if loop.time() >= deadline:
                return bool(predicate())
            await asyncio.sleep(poll)

    def is_settled(self) -> bool:
        return self._settled_from_cache()

    def _settled_from_cache(self) -> bool:
        """The in-process cluster's convergence definition, computed
        over the status cache and the mirror topology."""
        live = {
            site: status
            for site, status in self._status.items()
            if status.get("alive")
        }
        live_pids = {
            ProcessId(status["site"], status["inc"]) for status in live.values()
        }
        for site, status in live.items():
            if status.get("view") is None or status.get("flushing"):
                return False
            component = self.topology.component_of(site)
            expected = {pid for pid in live_pids if pid.site in component}
            if set(status.get("members", ())) != expected:
                return False
            for other_site, other in live.items():
                if other_site in component and other.get("view") != status.get("view"):
                    return False
        return True

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> Any:
        if self.scheduler is None:
            raise SimulationError("driver is not running")
        if self._on_loop():
            return self.scheduler.after(delay, callback, *args)

        async def arm() -> Any:
            return self.scheduler.after(delay, callback, *args)

        handle = self._submit(arm(), timeout=ACTION_TIMEOUT)

        class _Event:
            def __init__(self, driver: "ProcRealClusterDriver", h: Any) -> None:
                self._driver = driver
                self._h = h

            def cancel(self) -> None:
                if self._driver._on_loop():
                    self._h.cancel()
                else:
                    async def do() -> None:
                        self._h.cancel()

                    self._driver._submit(do(), timeout=ACTION_TIMEOUT)

        return _Event(self, handle)

    # -- lifecycle / environment actions -------------------------------

    def crash(self, site: SiteId) -> None:
        self._fire_ctl(site, "crash")
        status = self._status.get(site)
        if status is not None:
            status["alive"] = False

    def recover(self, site: SiteId) -> _ProcStackProxy:
        status = self._status.get(site)
        if status is not None and status.get("alive"):
            raise SimulationError(f"site {site} is up; cannot recover")
        self._invoke_or_spawn(self._recover_async(site))
        return _ProcStackProxy(self, site)

    async def _recover_async(self, site: SiteId) -> None:
        await self._ctl_request(site, "boot")
        await self._refresh_statuses()

    def join(self, site: SiteId) -> _ProcStackProxy:
        self.topology.add_site(site)  # broadcasts the grown universe
        self._invoke_or_spawn(
            self._join_async(site), timeout=self.config.startup_timeout
        )
        return _ProcStackProxy(self, site)

    async def _join_async(self, site: SiteId) -> None:
        cfg = self.config
        self.address_book[site] = (cfg.host, _free_port(cfg.host))
        host, port = self.address_book[site]
        await asyncio.gather(
            *(
                client.request("add_site", (site, host, port))
                for s, client in self._ctl.items()
                if s != site
            ),
            return_exceptions=True,
        )
        self._spawn_proc(site)
        await self._connect_ctl(site)
        await self._push_topology()
        await self._ctl[site].request("boot")
        await self._refresh_statuses()

    def partition(self, groups: Sequence[Sequence[SiteId]]) -> None:
        self.topology.partition(groups)

    def heal(self) -> None:
        self.topology.heal()

    def isolate(self, site: SiteId) -> None:
        self.topology.isolate(site)

    def arm(self, schedule: Any) -> None:
        if self.scheduler is None:
            raise SimulationError("driver is not running; cannot arm")
        scaled = schedule.scaled(self.time_scale)

        def do() -> None:
            assert self.scheduler is not None
            scaled.shifted(self.scheduler.now).arm(self.scheduler, self)

        if self._on_loop():
            do()
        else:
            async def arm_async() -> None:
                do()

            self._submit(arm_async(), timeout=ACTION_TIMEOUT)

    # -- introspection -------------------------------------------------

    def stack_at(self, site: SiteId) -> _ProcStackProxy:
        if site not in self._status:
            raise SimulationError(f"no process was ever started at site {site}")
        return _ProcStackProxy(self, site)

    def app_at(self, site: SiteId) -> Any:
        raise SimulationError(
            "applications live in child processes on the realnet-proc "
            "runtime; drive them through multicast workloads instead"
        )

    def live_stacks(self) -> list[_ProcStackProxy]:
        return [
            _ProcStackProxy(self, site)
            for site, status in sorted(self._status.items())
            if status.get("alive")
        ]

    def live_pids(self) -> set[ProcessId]:
        return {
            ProcessId(status["site"], status["inc"])
            for status in self._status.values()
            if status.get("alive")
        }

    def views(self) -> dict[SiteId, str]:
        return {
            site: status.get("view_str", "")
            for site, status in sorted(self._status.items())
            if status.get("alive")
        }

    def mcast_many(self, site: SiteId, count: int, payload: Any) -> int:
        """Blocking bulk multicast injection at one site (bench workloads).

        Returns how many multicasts the child's stack accepted; it stops
        at the first rejection (stack flushing a view change), so the
        caller retries the remainder.
        """
        return self._submit(
            self._ctl_request(site, "mcast_many", (count, payload)),
            timeout=ACTION_TIMEOUT,
        )

    def delivered_total(self) -> int:
        """Cluster-wide app deliveries (control-polled; bench barrier)."""
        counts = self._submit(self._counts_async(), timeout=ACTION_TIMEOUT)
        return sum(delivered for _mcast, delivered in counts)

    async def _counts_async(self) -> list[tuple[int, int]]:
        results = await asyncio.gather(
            *(client.request("counts") for client in self._ctl.values()),
            return_exceptions=True,
        )
        return [r for r in results if isinstance(r, tuple)]

    def flight_recorders(self) -> list[Any]:
        """Pull each child's flight-recorder ring and rehydrate locally.

        Children own the live recorders; the ``flight`` control op ships
        their rings as :class:`~repro.obs.tracing.TraceDump` values (the
        dataclass is codec-registered), which rebuild into local
        recorders so :func:`~repro.obs.tracing.dump_on_violations`
        works uniformly across backends.  Empty when tracing is off.
        """
        if not self.config.tracing:
            return []
        from repro.obs.tracing import FlightRecorder, TraceDump

        dumps = self._submit(self._flight_async(), timeout=ACTION_TIMEOUT * 2)
        return [
            FlightRecorder.from_dump(dump)
            for dump in dumps
            if isinstance(dump, TraceDump)
        ]

    async def _flight_async(self) -> list[Any]:
        return list(
            await asyncio.gather(
                *(
                    client.request("flight", timeout=ACTION_TIMEOUT)
                    for _site, client in sorted(self._ctl.items())
                ),
                return_exceptions=True,
            )
        )

    def gather_trace(self) -> TraceRecorder:
        """Pull every child's recorders and merge on one time base.

        Child event times are local to each child's scheduler; the wall
        epoch each child reports places its t=0 on the shared wall
        clock, and shifting by the epoch difference re-expresses every
        event in the *parent's* scheduler time before the merge sort.
        """
        dumps = self._submit(self._trace_async(), timeout=ACTION_TIMEOUT * 2)
        parent_epoch = time.time() - self.now
        recorders: list[TraceRecorder] = []
        for child_epoch, recs in dumps:
            shift = child_epoch - parent_epoch
            for label, lines in recs:
                recorder = TraceRecorder(level="full", label=label)
                for line in lines:
                    event = event_from_json(line)
                    recorder.record(
                        dataclasses.replace(event, time=event.time + shift)
                    )
                recorders.append(recorder)
        return TraceRecorder.merge(*recorders)

    async def _trace_async(self) -> list[tuple[float, tuple]]:
        results = await asyncio.gather(
            *(
                client.request("trace", timeout=ACTION_TIMEOUT)
                for _site, client in sorted(self._ctl.items())
            )
        )
        return list(results)

    def network_stats(self) -> Any:
        from repro.net.network import NetworkStats

        stats_list = self._submit(self._net_stats_async(), timeout=ACTION_TIMEOUT)
        total = NetworkStats(detailed=True)
        for stats in stats_list:
            total.sent += stats["sent"]
            total.delivered += stats["delivered"]
            total.dropped_partition += stats["dropped_partition"]
            total.dropped_loss += stats["dropped_loss"]
            total.dropped_dead += stats["dropped_dead"]
            for name, count in stats.get("by_type", {}).items():
                total.by_type[name] = total.by_type.get(name, 0) + count
        return total

    def transport_stats(self) -> dict[str, Any]:
        stats_list = self._submit(self._net_stats_async(), timeout=ACTION_TIMEOUT)
        total: dict[str, Any] = {}
        codecs: dict[str, int] = {}
        for stats in stats_list:
            transport = dict(stats.get("transport", {}))
            for name, count in transport.pop("codecs", {}).items():
                codecs[name] = codecs.get(name, 0) + count
            for key, value in transport.items():
                if key in ("max_batch", "max_frames_per_read"):
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        total["codecs"] = codecs
        return total

    async def _net_stats_async(self) -> list[dict[str, Any]]:
        results = await asyncio.gather(
            *(client.request("net_stats") for client in self._ctl.values()),
            return_exceptions=True,
        )
        return [r for r in results if isinstance(r, dict)]

    def metrics_snapshot(self, source: str = "cluster") -> MetricsSnapshot:
        """Merged per-child registry snapshots (one registry per OS
        process, polled over the obs frame kind)."""
        snaps = self._submit(self._snapshots_async(), timeout=ACTION_TIMEOUT)
        snaps = [s for s in snaps if s is not None]
        if not snaps:
            return self.metrics.snapshot(source)
        return merge_snapshots(*snaps)

    async def _snapshots_async(self) -> list[MetricsSnapshot | None]:
        async def one(client: _CtlClient) -> MetricsSnapshot | None:
            try:
                return await asyncio.wait_for(client.fetch_metrics(), 10.0)
            except Exception:
                return None

        return list(
            await asyncio.gather(*(one(c) for c in self._ctl.values()))
        )
