"""Blocking :class:`~repro.ports.ClusterPort` adapter for the realnet.

The simulator's :class:`~repro.runtime.cluster.Cluster` is synchronous —
``settle()`` returns when membership converged, ``recover()`` returns
the fresh stack — while :class:`~repro.realnet.cluster.RealCluster` is
asyncio-native: its waiting methods are coroutines and its lifecycle
actions return tasks.  :class:`RealClusterDriver` erases that skew so
synchronous harness code (workload clients, the CLI, plain tests) can
drive either runtime through the same port:

* it owns a dedicated event-loop thread and boots a
  :class:`RealCluster` on it;
* waiting methods (``settle`` / ``wait_until`` / ``run_for``) block the
  calling thread while the loop keeps running the protocols;
* lifecycle actions submit to the loop and wait for the effect —
  ``recover`` / ``join`` resolve the underlying startup task and return
  the :class:`~repro.vsync.stack.GroupStack`, exactly like the
  simulator;
* ``after`` arms timers on the loop from any thread, so workload
  drivers tick on the cluster's own scheduler (their callbacks run on
  the loop thread, where touching stacks is safe).

Threading rules, kept deliberately simple: every *mutating* call is
routed to the loop thread (directly when already on it — e.g. an armed
fault schedule's action or a workload tick — otherwise via a submitted
coroutine the caller blocks on).  Read-only introspection delegates
without a hop; the GIL makes those dictionary reads safe, and callers
that need a consistent snapshot take it after a blocking wait returns.

``close()`` tears down sockets, stops the loop and joins the thread; it
is idempotent and also runs on context-manager exit and interpreter
exit (daemon thread), so a crashed test cannot leak a loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.realnet.cluster import AppFactory, RealCluster, RealClusterConfig
from repro.realnet.wallclock import new_event_loop
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId
from repro.vsync.stack import GroupStack

#: Default hard timeout for individual submitted actions (seconds).
#: Generous — actions are local socket operations; a hang is a bug.
ACTION_TIMEOUT = 30.0


class _LoopEvent:
    """Cancellable-event proxy whose ``cancel`` hops to the loop thread."""

    __slots__ = ("_driver", "_handle")

    def __init__(self, driver: "RealClusterDriver", handle: Any) -> None:
        self._driver = driver
        self._handle = handle

    def cancel(self) -> None:
        self._driver._invoke(self._handle.cancel)


class RealClusterDriver:
    """Synchronous facade over a :class:`RealCluster` on its own loop.

    Satisfies :class:`repro.ports.ClusterPort`.  Build one directly and
    call :meth:`start`, use it as a context manager, or get one already
    started from :func:`repro.ports.make_cluster`::

        with RealClusterDriver(3, config=RealClusterConfig(seed=7)) as cluster:
            assert cluster.settle(timeout=10.0)
            cluster.partition([[0, 1], [2]])
            ...

    All times on this surface are **wall seconds** (the backend time of
    the realnet runtime); scenario-unit quantities must be multiplied by
    :attr:`time_scale` first — :meth:`arm` and the workload drivers do
    that internally.
    """

    #: ClusterPort runtime tag (client/workload code branches on it).
    runtime = "realnet"

    def __init__(
        self,
        n_sites: int,
        app_factory: AppFactory | None = None,
        config: RealClusterConfig | None = None,
    ) -> None:
        self.cluster = RealCluster(n_sites, app_factory=app_factory, config=config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "RealClusterDriver":
        """Spin up the loop thread and boot the cluster; idempotent-safe
        to call once.  Returns ``self`` for chaining."""
        if self._loop is not None:
            raise SimulationError("driver already started")
        self._loop = new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="realnet-driver", daemon=True
        )
        self._thread.start()
        self._submit(self.cluster.start(), timeout=ACTION_TIMEOUT)
        return self

    def close(self) -> None:
        """Stop the cluster, the loop and the thread; idempotent."""
        if self._closed or self._loop is None:
            self._closed = True
            return
        self._closed = True
        try:
            self._submit(self.cluster.stop(), timeout=ACTION_TIMEOUT)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=ACTION_TIMEOUT)
            self._loop.close()

    def __enter__(self) -> "RealClusterDriver":
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
        """Run ``coro`` on the loop thread, block until its result."""
        if self._loop is None or self._on_loop():
            coro.close()  # never scheduled: close it so it is not leaked
        if self._loop is None:
            raise SimulationError("driver is not running")
        if self._on_loop():  # would deadlock waiting on ourselves
            raise SimulationError(
                "blocking driver call from the loop thread; use the "
                "underlying RealCluster's async surface instead"
            )
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise SimulationError(
                f"realnet action did not complete within {timeout}s"
            ) from None

    def _invoke(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` on the loop thread and return its result.

        Direct when already there (fault-schedule actions, workload
        ticks); a blocking round-trip otherwise.
        """
        if self._on_loop():
            return fn(*args)

        async def call() -> Any:
            return fn(*args)

        return self._submit(call(), timeout=ACTION_TIMEOUT)

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall seconds since the cluster's scheduler was created."""
        scheduler = self.cluster.scheduler
        return scheduler.now if scheduler is not None else 0.0

    @property
    def time_scale(self) -> float:
        return self.cluster.time_scale

    def run_for(self, duration: float) -> float:
        """Let ``duration`` wall seconds elapse.

        The loop thread keeps running protocols, armed fault schedules
        and workload timers the whole while; the *caller* simply waits.
        Returns the new ``now``.
        """
        time.sleep(max(0.0, duration))
        return self.now

    def settle(self, timeout: float = 10.0, poll: float = 0.02) -> bool:
        """Block until membership converges (or ``timeout`` wall seconds)."""
        return self._submit(
            self.cluster.settle(timeout=timeout, poll=poll),
            timeout=timeout + ACTION_TIMEOUT,
        )

    def wait_until(
        self,
        predicate: Callable[[Any], Any],
        timeout: float = 10.0,
        poll: float = 0.02,
    ) -> bool:
        """Block until ``predicate(driver)`` is truthy (polled on the
        loop thread, so the predicate may touch cluster state freely)."""
        return self._submit(
            self.cluster.wait_until(lambda _c: predicate(self), timeout, poll),
            timeout=timeout + ACTION_TIMEOUT,
        )

    def is_settled(self) -> bool:
        return self.cluster.is_settled()

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> _LoopEvent:
        """Arm ``callback`` on the cluster's wall-clock scheduler after
        ``delay`` wall seconds; callable from any thread.  The callback
        runs on the loop thread."""
        handle = self._invoke(
            lambda: self.cluster.scheduler.after(delay, callback, *args)
        )
        return _LoopEvent(self, handle)

    # -- lifecycle / environment actions -------------------------------

    def crash(self, site: SiteId) -> None:
        self._invoke(self.cluster.crash, site)

    def recover(self, site: SiteId) -> GroupStack:
        """Restart ``site`` and return the fresh stack once it is up —
        the simulator's synchronous contract, resolved over real
        sockets."""

        async def recover_and_wait() -> GroupStack:
            return await self.cluster.recover(site)

        return self._submit(recover_and_wait(), timeout=ACTION_TIMEOUT)

    def join(self, site: SiteId) -> GroupStack:
        """Grow the universe by ``site`` and return its stack once up."""

        async def join_and_wait() -> GroupStack:
            return await self.cluster.join(site)

        return self._submit(join_and_wait(), timeout=ACTION_TIMEOUT)

    def partition(self, groups: Sequence[Sequence[SiteId]]) -> None:
        self._invoke(self.cluster.partition, groups)

    def heal(self) -> None:
        self._invoke(self.cluster.heal)

    def isolate(self, site: SiteId) -> None:
        self._invoke(self.cluster.isolate, site)

    def arm(self, schedule: Any) -> None:
        """Arm a scenario-unit :class:`~repro.net.faults.FaultSchedule`
        (scaled/shifted by the cluster; see :meth:`RealCluster.arm`)."""
        self._invoke(self.cluster.arm, schedule)

    # -- introspection -------------------------------------------------

    def stack_at(self, site: SiteId) -> GroupStack:
        return self.cluster.stack_at(site)

    def app_at(self, site: SiteId) -> Any:
        return self.cluster.app_at(site)

    def live_stacks(self) -> list[GroupStack]:
        return self.cluster.live_stacks()

    def live_pids(self) -> set[ProcessId]:
        return self.cluster.live_pids()

    def views(self) -> dict[SiteId, str]:
        return self.cluster.views()

    def flight_recorders(self) -> list[Any]:
        """The cluster's live flight recorders (reads are GIL-safe)."""
        return self.cluster.flight_recorders()

    def gather_trace(self) -> TraceRecorder:
        """Merge the per-node recorders on the loop thread (a paused
        instant of the run), returning the global trace."""
        return self._invoke(self.cluster.gather_trace)

    def network_stats(self) -> Any:
        return self._invoke(self.cluster.network_stats)

    def transport_stats(self) -> dict[str, Any]:
        return self._invoke(self.cluster.transport_stats)

    @property
    def metrics(self) -> Any:
        """The cluster's metrics registry (reads are GIL-safe)."""
        return self.cluster.metrics

    def metrics_snapshot(self, source: str = "cluster") -> Any:
        """Snapshot the registry on the loop thread (a paused instant
        of the run, like :meth:`gather_trace`)."""
        return self._invoke(self.cluster.metrics_snapshot, source)
