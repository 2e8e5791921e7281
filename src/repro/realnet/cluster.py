"""In-process orchestration of a multi-node real-network cluster.

:class:`RealCluster` is the wall-clock sibling of
:class:`repro.runtime.cluster.Cluster`: it owns one shared
:class:`~repro.realnet.wallclock.WallClockScheduler`, one shared trace
recorder and stable store, and one :class:`~repro.realnet.node.RealNode`
per site, each with its own server socket on an ephemeral localhost
port.  Every node runs the unmodified fd/gms/vsync/evs stack; all
inter-node traffic crosses real TCP connections.

The same environment-action surface the simulator exposes is available
here — and because the orchestrator satisfies
:class:`repro.net.faults.FaultTarget` and carries a live
:class:`~repro.net.topology.Topology`, a declarative
:class:`~repro.net.faults.FaultSchedule` can be armed on the wall-clock
scheduler against real sockets unchanged:

* :meth:`crash` kills a stack and closes its sockets;
* :meth:`recover` boots a fresh incarnation at the same site (new
  ephemeral port; peers re-resolve it through the shared address book);
* :meth:`partition` / :meth:`heal` / :meth:`isolate` *firewall* site
  groups: the topology predicate is enforced on both the send and the
  receive side of every node, so frames across a cut are destroyed even
  when the TCP connections stay up;
* :meth:`join` grows the universe by a brand-new site.

``settle()`` is the wall-clock analogue of the simulator's: it polls
(on real time) until every live stack has installed the view its
network component prescribes.  All waiting entry points take hard
timeouts — a wedged cluster reports failure, it cannot hang the caller.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.net.network import NetworkStats
from repro.net.topology import Topology
from repro.obs.instrument import ClusterObs
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracing import FlightRecorder, Tracer
from repro.realnet.node import AppFactory, RealNode, realnet_stack_config
from repro.realnet.transport import wait_for_condition
from repro.realnet.wallclock import WallClockScheduler
from repro.sim.rng import RngStreams
from repro.sim.stable_storage import StableStore
from repro.trace.events import CrashEvent, RecoverEvent
from repro.trace.recorder import TraceRecorder
from repro.types import ProcessId, SiteId
from repro.vsync.stack import GroupStack, StackConfig


@dataclass
class RealClusterConfig:
    """Knobs for a real-network cluster.

    ``scale`` stretches the default timer profile (see
    :func:`~repro.realnet.node.realnet_stack_config`); ``stack``
    overrides it wholesale.  ``loss_prob`` and ``latency`` are the
    injected chaos knobs, applied at every sender on top of whatever
    the kernel's loopback actually does.  ``codec`` picks the wire
    format every node *prefers* (``"bin"`` — the compact default — or
    ``"json"`` as a debug/compat mode; the actual format is negotiated
    per connection, so mixed clusters interoperate).  ``batch_bytes``
    overrides the links' per-write byte cap (``0`` means one frame per
    write — the unbatched data path, kept as a benchmark baseline;
    ``None`` keeps the transport default).
    """

    seed: int = 0
    loss_prob: float = 0.0
    latency: Any = None
    scale: float = 1.0
    stack: StackConfig | None = None
    host: str = "127.0.0.1"
    detailed_stats: bool = True
    codec: str = "bin"
    batch_bytes: int | None = None
    trace_level: str = "full"
    trace_capacity: int | None = None
    quiet: bool = True
    #: Gate the in-stack observability hooks (the registry and its
    #: callback gauges always exist; see ClusterConfig.metrics).
    metrics: bool = True
    #: Attach a causal tracer + flight recorder to the hooks (implies
    #: the hooks are live even with ``metrics=False``); see
    #: ClusterConfig.tracing.
    tracing: bool = False
    flight_budget: int = 256 * 1024
    #: 1-in-N sampling gate for uncaused root spans (workload
    #: multicasts); caused spans are always traced.
    trace_sample: int = 16
    #: Failure-detection plane override: ``"heartbeat"`` / ``"gossip"``
    #: (``None`` keeps the stack profile's choice).  Same surface as
    #: the simulator's ClusterConfig, so a scale profile moves between
    #: runtimes unchanged; with gossip remember ``fd_timeout`` must
    #: cover an epidemic round, not one hop (docs/scaling.md).
    fd_mode: str | None = None
    gossip_fanout: int | None = None

    def stack_config(self) -> StackConfig:
        cfg = self.stack if self.stack is not None else realnet_stack_config(self.scale)
        if self.fd_mode is not None:
            cfg = replace(cfg, fd_mode=self.fd_mode)
        if self.gossip_fanout is not None:
            cfg = replace(cfg, gossip_fanout=self.gossip_fanout)
        return cfg


class RealCluster:
    """A set of localhost sites running group stacks over real TCP."""

    def __init__(
        self,
        n_sites: int,
        app_factory: AppFactory | None = None,
        config: RealClusterConfig | None = None,
    ) -> None:
        if n_sites < 1:
            raise SimulationError("cluster needs at least one site")
        self.config = config or RealClusterConfig()
        self.app_factory = app_factory
        self.topology = Topology(range(n_sites))
        self.address_book: dict[SiteId, tuple[str, int]] = {}
        self.nodes: dict[SiteId, RealNode] = {}
        self.scheduler: WallClockScheduler | None = None
        # Each node records its own history (as a real deployment
        # would); the orchestrator keeps one recorder for environment
        # events (crash/recover) and retains the recorders of replaced
        # incarnations so gather_trace() can merge the full execution.
        self._env_recorder = TraceRecorder(
            level=self.config.trace_level,
            capacity=self.config.trace_capacity,
            label="env",
        )
        self._retired_recorders: list[TraceRecorder] = []
        self.store = StableStore()
        self.rng = RngStreams(self.config.seed)
        self._incarnation: dict[SiteId, int] = {}
        self._bg: set[asyncio.Task] = set()
        self._started = False
        # One registry shared by every co-located node: the nodes share
        # one wall-clock scheduler, so cross-node spans (multicast on
        # one node, delivery on another) are measurable on one clock.
        self.metrics = MetricsRegistry(
            clock=lambda: self.now, runtime="realnet"
        )
        # One flight recorder and tracer for all co-located nodes: they
        # share one wall-clock scheduler (one time base), exactly like
        # the shared metrics registry above.  The wall epoch is pinned
        # in start(), when the scheduler's t=0 is established.
        self.flight: FlightRecorder | None = None
        tracer = None
        if self.config.tracing:
            self.flight = FlightRecorder(
                "cluster", "realnet",
                budget=self.config.flight_budget,
                epoch=time.time(),
            )
            tracer = Tracer(
                self.flight,
                lambda: self.now,
                root_sample=self.config.trace_sample,
            )
        self.obs = (
            ClusterObs(self.metrics, tracer)
            if (self.config.metrics or tracer is not None)
            else None
        )
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Callback gauges over counters the transport already keeps.

        Same ``net_*`` metric names as the simulator's collectors, so
        sim and realnet snapshots of one workload compare row by row;
        the ``transport_*`` series are realnet-only (sockets/frames
        have no simulator analogue).
        """
        reg = self.metrics
        for name, help_text, key in (
            ("net_messages_sent_total", "Messages offered to the network", "sent"),
            ("net_messages_delivered_total", "Messages delivered by the network",
             "delivered"),
        ):
            reg.gauge_callback(
                name, help_text,
                (lambda k: lambda: float(getattr(self.network_stats(), k)))(key),
            )
        for reason, key in (
            ("partition", "dropped_partition"),
            ("loss", "dropped_loss"),
            ("dead", "dropped_dead"),
        ):
            reg.gauge_callback(
                "net_messages_dropped_total", "Messages dropped, by reason",
                (lambda k: lambda: float(getattr(self.network_stats(), k)))(key),
                ("reason",), (reason,),
            )
        for key in ("frames_sent", "bytes_sent", "frames_received",
                    "bytes_received", "frames_dropped"):
            reg.gauge_callback(
                f"transport_{key}_total", f"Transport {key.replace('_', ' ')}",
                (lambda k: lambda: float(self.transport_stats().get(k, 0)))(key),
            )

    def metrics_snapshot(self, source: str = "cluster") -> MetricsSnapshot:
        """Point-in-time metrics copy (the ClusterPort accessor)."""
        return self.metrics.snapshot(source)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "RealCluster":
        """Bring every transport up, then boot every stack."""
        if self._started:
            raise SimulationError("cluster already started")
        self._started = True
        self.scheduler = WallClockScheduler()
        if self.flight is not None:
            # Wall time of the scheduler's t=0: lets `repro obs trace`
            # merge this cluster's dump with other nodes' on one clock.
            self.flight.epoch = time.time() - self.scheduler.now
        for site in sorted(self.topology.sites):
            node = self._make_node(site)
            await node.start_transport()
        for site in sorted(self.nodes):
            self.nodes[site].start_stack()
        return self

    async def stop(self) -> None:
        """Tear everything down; idempotent."""
        for task in list(self._bg):
            task.cancel()
        for task in list(self._bg):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._bg.clear()
        for node in list(self.nodes.values()):
            await node.stop()

    async def __aenter__(self) -> "RealCluster":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    def _make_node(self, site: SiteId) -> RealNode:
        incarnation = self._incarnation.get(site, -1) + 1
        self._incarnation[site] = incarnation
        cfg = self.config
        old = self.nodes.get(site)
        if old is not None:
            self._retired_recorders.append(old.recorder)
        node = RealNode(
            ProcessId(site, incarnation),
            self.address_book,
            scheduler=self.scheduler,
            storage=self.store.site(site),
            recorder=TraceRecorder(
                level=cfg.trace_level,
                capacity=cfg.trace_capacity,
                label=f"site{site}/inc{incarnation}",
            ),
            app_factory=self.app_factory,
            stack_config=cfg.stack_config(),
            universe=lambda: set(self.topology.sites),
            connectivity=self.topology.allows,
            loss_prob=cfg.loss_prob,
            latency=cfg.latency,
            rng=self.rng,
            host=cfg.host,
            port=0,
            detailed_stats=cfg.detailed_stats,
            codec=cfg.codec,
            batch_bytes=cfg.batch_bytes,
            quiet=cfg.quiet,
            obs=self.obs,
            metrics=self.metrics,
            metrics_source="cluster",
            flight=self.flight,
        )
        self.nodes[site] = node
        return node

    def _spawn(self, coro: Any) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._bg.add(task)
        task.add_done_callback(self._bg.discard)
        return task

    # -- environment actions (FaultTarget) -----------------------------

    def crash(self, site: SiteId) -> None:
        """Kill the process at ``site`` and close its sockets."""
        node = self.nodes.get(site)
        if node is None or node.stack is None or not node.stack.alive:
            return
        node.stack.crash()
        if self.scheduler is not None:
            self._env_recorder.record(
                CrashEvent(time=self.scheduler.now, pid=node.stack.pid)
            )
            if self.obs is not None:
                self.obs.process_crashed(node.stack.pid, self.scheduler.now)
        self._spawn(node.network.stop())

    def recover(self, site: SiteId) -> "asyncio.Task[GroupStack]":
        """Restart ``site`` under a fresh incarnation on a fresh port.

        Returns the startup task; **awaiting it yields the fresh**
        :class:`~repro.vsync.stack.GroupStack` — the realnet analogue of
        the simulator's synchronous ``recover`` return value, and what
        the blocking :class:`~repro.realnet.driver.RealClusterDriver`
        resolves before returning.  Environment-action callers (armed
        fault schedules) may ignore the task; it is tracked and
        cancelled by :meth:`stop`.
        """
        node = self.nodes.get(site)
        if node is not None and node.alive:
            raise SimulationError(f"site {site} is up; cannot recover")
        return self._spawn(self._recover(site))

    async def _recover(self, site: SiteId) -> GroupStack:
        old = self.nodes.get(site)
        if old is not None:
            await old.network.stop()
        node = self._make_node(site)
        await node.start_transport()
        stack = node.start_stack()
        self._env_recorder.record(
            RecoverEvent(time=self.now, pid=stack.pid, site=site)
        )
        return stack

    def join(self, site: SiteId) -> "asyncio.Task[GroupStack]":
        """Add a brand-new site to the universe and boot it.

        Like :meth:`recover`, returns the startup task, which resolves
        to the new site's :class:`~repro.vsync.stack.GroupStack` once
        its transport is up and its stack is registered.
        """
        self.topology.add_site(site)
        return self._spawn(self._join(site))

    async def _join(self, site: SiteId) -> GroupStack:
        node = self._make_node(site)
        await node.start_transport()
        return node.start_stack()

    # -- connectivity (firewalling) ------------------------------------

    def partition(self, groups: Sequence[Sequence[SiteId]]) -> None:
        """Firewall the universe into the given site groups."""
        self.topology.partition(groups)

    def heal(self) -> None:
        self.topology.heal()

    def isolate(self, site: SiteId) -> None:
        self.topology.isolate(site)

    # -- waiting -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now if self.scheduler is not None else 0.0

    @property
    def time_scale(self) -> float:
        """Wall seconds per scenario unit.

        The realnet timer profile (:func:`~repro.realnet.node.
        realnet_stack_config`) maps the simulator's canonical ratios
        onto loopback at ~0.01 s per simulated unit at ``scale=1.0``
        (fd-interval 5 units ↔ 50 ms); fault schedules and workload
        intervals written in scenario units are scaled by the same
        factor so faults land at the same point of protocol time on
        both backends.
        """
        return 0.01 * self.config.scale

    def arm(self, schedule: Any) -> None:
        """Arm a :class:`~repro.net.faults.FaultSchedule` against real
        sockets.

        Scenario-unit action times are scaled by :attr:`time_scale` and
        shifted to be relative to ``now`` — a schedule authored for the
        simulator runs unchanged here.
        """
        if self.scheduler is None:
            raise SimulationError("cluster is not started; cannot arm")
        schedule.scaled(self.time_scale).shifted(self.now).arm(self.scheduler, self)

    async def settle(self, timeout: float = 10.0, poll: float = 0.02) -> bool:
        """Wait (on the wall clock) for membership to converge."""
        return await wait_for_condition(self.is_settled, timeout, poll)

    async def wait_until(
        self,
        predicate: Callable[["RealCluster"], Any],
        timeout: float = 10.0,
        poll: float = 0.02,
    ) -> bool:
        return await wait_for_condition(lambda: predicate(self), timeout, poll)

    def is_settled(self) -> bool:
        """Same convergence definition as the simulator's cluster."""
        live = self.live_stacks()
        for stack in live:
            if stack.view is None or stack.is_flushing:
                return False
            component = self.topology.component_of(stack.pid.site)
            expected = {s.pid for s in live if s.pid.site in component}
            if stack.view.members != expected:
                return False
            for other in live:
                if (
                    other.pid in expected
                    and other.current_view_id() != stack.current_view_id()
                ):
                    return False
        return True

    # -- queries -------------------------------------------------------

    def stack_at(self, site: SiteId) -> GroupStack:
        node = self.nodes.get(site)
        if node is None or node.stack is None:
            raise SimulationError(f"no process was ever started at site {site}")
        return node.stack

    def live_stacks(self) -> list[GroupStack]:
        return [
            n.stack
            for n in self.nodes.values()
            if n.stack is not None and n.stack.alive
        ]

    def live_pids(self) -> set[ProcessId]:
        return {s.pid for s in self.live_stacks()}

    def views(self) -> dict[SiteId, str]:
        return {
            site: str(node.stack.view)
            for site, node in sorted(self.nodes.items())
            if node.stack is not None and node.stack.alive
        }

    def app_at(self, site: SiteId) -> Any:
        """The application object of the current incarnation at ``site``."""
        node = self.nodes.get(site)
        if node is None or node.app is None:
            raise SimulationError(f"no process was ever started at site {site}")
        return node.app

    def flight_recorders(self) -> list[FlightRecorder]:
        """Live flight recorders (one, shared by the co-located nodes)."""
        return [self.flight] if self.flight is not None else []

    def node_recorders(self) -> list[TraceRecorder]:
        """Every per-node recorder: live incarnations plus retired ones."""
        return self._retired_recorders + [
            node.recorder for _, node in sorted(self.nodes.items())
        ]

    def gather_trace(self) -> TraceRecorder:
        """Merge every node's locally recorded history (plus the
        orchestrator's crash/recover events) into one globally ordered
        trace — the input the property checkers expect.  All recorders
        share this cluster's wall-clock scheduler, so their timestamps
        are directly comparable; ordering is
        :meth:`~repro.trace.recorder.TraceRecorder.merge`'s
        ``(time, pid, seq)``.
        """
        return TraceRecorder.merge(self._env_recorder, *self.node_recorders())

    @property
    def recorder(self) -> TraceRecorder:
        """The merged execution history (see :meth:`gather_trace`).

        Kept as a property for source compatibility with the era of one
        shared recorder; each access re-merges, so grab it once after
        the run quiesces rather than inside a hot loop.
        """
        return self.gather_trace()

    def network_stats(self) -> NetworkStats:
        """Aggregate wire counters over every node (live and dead)."""
        total = NetworkStats(detailed=self.config.detailed_stats)
        for node in self.nodes.values():
            stats = node.network.stats
            total.sent += stats.sent
            total.delivered += stats.delivered
            total.dropped_partition += stats.dropped_partition
            total.dropped_loss += stats.dropped_loss
            total.dropped_dead += stats.dropped_dead
            for name, count in stats.by_type.items():
                total.by_type[name] = total.by_type.get(name, 0) + count
        return total

    def transport_stats(self) -> dict[str, Any]:
        """Aggregate link/server counters over every node (live and dead).

        Sums frame, flush, byte and connection counters; ``max_batch`` /
        ``max_frames_per_read`` are cluster-wide maxima and ``codecs``
        counts live links by negotiated wire format.
        """
        total: dict[str, Any] = {}
        codecs: dict[str, int] = {}
        for node in self.nodes.values():
            stats = node.network.transport_stats()
            for name, count in stats.pop("codecs").items():
                codecs[name] = codecs.get(name, 0) + count
            for key, value in stats.items():
                if key in ("max_batch", "max_frames_per_read"):
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        total["codecs"] = codecs
        return total
