"""The ``sim_churn`` workload: checked simulator runs over consecutive seeds.

One run is the flow of ``repro run --sites 16 --client-rate R``: a
16-site store on the simulator, a :class:`RandomFaultGenerator`
schedule, open-loop :class:`SimStoreClient` load, then the paper's
property checks plus ``AckedWriteLoss`` (all inside
:func:`run_client_load`).  View-change latency is read off the run's
trace in virtual time.  Its timings are CPU-bound, so they are scaled
by :func:`host_probe` to a reference host speed.
"""

from __future__ import annotations

import cProfile
import math
import time
from dataclasses import dataclass, field

import repro.fuzz.checkers as fuzz_checkers
import repro.workload.runner as runner
from repro.apps.factories import app_factory
from repro.net.faults import Crash, Heal, Partition, Recover
from repro.ports import make_cluster
from repro.trace.events import CrashEvent, RecoverEvent, ViewInstallEvent
from repro.workload.generator import RandomFaultGenerator
from repro.workload.openloop import LoadSpec

from ledger import layer_times

SITES = 16
#: Schedule length and load window, scenario units (the CLI default).
DURATION = 400.0
#: Offered store ops per scenario unit, spread over ``CLIENTS`` identities.
RATE = 1.0
CLIENTS = 8
#: Keyspace of the zipfian load (not preloaded: gets may miss).
N_KEYS = 2000
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUPS = 25
#: :func:`host_probe` CPU seconds that scaled timings are expressed at.
REFERENCE_S = 0.015


@dataclass
class ChurnRun:
    seed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    events: int = 0
    msgs: int = 0
    violations: list[str] = field(default_factory=list)
    settled: bool = False
    #: Per fault action: virtual time until every live member's view
    #: matched its component, or ``inf`` when the next action cut it off.
    view_changes: list[float] = field(default_factory=list)
    check_s: float = 0.0
    checkers_s: float = 0.0
    view_installs: float = 0.0
    settlements: float = 0.0


def host_probe() -> float:
    """CPU seconds of a fixed interpreter-bound loop (list indexing,
    dict lookups, integer adds).

    On a shared virtual machine the CPU throughput a process gets drifts
    by up to 2x over minutes, which moves every CPU-bound timing with it.
    The loop runs no program code, so a change to the program cannot
    move it; only the host's speed does.  Timings are scaled by
    ``REFERENCE_S / probe`` so a slow host is not read as a slow program.
    """
    table = [0, 1, 2, 3]
    rows = {1: (1, "1")}
    start = time.process_time()
    total = 0
    for _ in range(150_000):
        total += table[2]
    for _ in range(150_000):
        total += rows[1][0]
    return time.process_time() - start


def _generator(seed: int) -> RandomFaultGenerator:
    return RandomFaultGenerator(n_sites=SITES, seed=seed, duration=DURATION)


def _cluster(seed: int):
    return make_cluster("sim", SITES, app_factory=app_factory("store", SITES), seed=seed)


def setup_once(seed: int) -> float:
    """Build a cluster and its schedule, and let the group form."""
    start = time.perf_counter()
    _generator(seed).generate()
    _cluster(seed).settle()
    return time.perf_counter() - start


def one_run(seed: int) -> ChurnRun:
    """Execute, gather and check one run; the wall time covers all three."""
    run = ChurnRun(seed)
    check, checkers = runner.check_cluster, fuzz_checkers.run_checkers

    def timed_check(*args, **kwargs):
        start = time.perf_counter()
        try:
            return check(*args, **kwargs)
        finally:
            run.check_s += time.perf_counter() - start

    def timed_checkers(*args, **kwargs):
        start = time.perf_counter()
        try:
            return checkers(*args, **kwargs)
        finally:
            run.checkers_s += time.perf_counter() - start

    runner.check_cluster, fuzz_checkers.run_checkers = timed_check, timed_checkers
    try:
        start, cpu = time.perf_counter(), time.process_time()
        generator = _generator(seed)
        schedule = generator.generate()
        cluster = _cluster(seed)
        armed: list[float] = []
        arm = cluster.arm
        cluster.arm = lambda sched: (armed.append(cluster.now), arm(sched))
        spec = LoadSpec(rate=RATE, duration=DURATION, clients=CLIENTS,
                        n_keys=N_KEYS, seed=seed)
        result = runner.run_client_load(
            cluster, spec, schedule, tail=generator.settle_tail
        )
        run.wall_s = time.perf_counter() - start
        run.cpu_s = time.process_time() - cpu
    finally:
        runner.check_cluster, fuzz_checkers.run_checkers = check, checkers
    report = result.workload
    run.violations = report.violations
    run.settled = report.settled
    run.events = cluster.scheduler.events_run
    run.msgs = cluster.network_stats().sent
    snap = cluster.metrics_snapshot()
    run.view_installs = snap.total("view_changes_total")
    run.settlements = snap.total("settlement_sessions_total")
    run.view_changes = view_change_times(report.trace, schedule, armed[0], SITES)
    return run


def profiled_run(seed: int) -> tuple[ChurnRun, dict[str, float]]:
    """:func:`one_run` under cProfile: the run and self time by module."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run = one_run(seed)
    finally:
        profile.disable()
    return run, layer_times(profile)[0]


def view_change_times(trace, schedule, start: float, n_sites: int) -> list[float]:
    """Virtual time from each fault action until the group matches it.

    After an action the target is: every live process has installed a
    view whose members are exactly the live processes of its connected
    component.  The wait ends at the first trace event after which that
    holds; a wait still open when the next action fires is ``inf``.
    """
    actions = sorted(schedule.actions, key=lambda a: a.time)
    events = [e for e in trace.events
              if isinstance(e, (ViewInstallEvent, CrashEvent, RecoverEvent))]
    booting = object()  # a recovered site whose new process is not up yet
    live: dict[int, object] = {}  # site -> live pid
    views: dict[object, frozenset] = {}  # pid -> installed members
    groups = [frozenset(range(n_sites))]
    waits: list[float] = []
    cursor = 0

    def apply(event) -> None:
        site = event.pid.site
        if isinstance(event, CrashEvent):
            if live.get(site) == event.pid:
                del live[site]
        elif isinstance(event, RecoverEvent):
            live[site] = event.pid
        else:
            live.setdefault(site, event.pid)
            views[event.pid] = event.members

    def matched() -> bool:
        for site, pid in live.items():
            if pid is booting:
                return False
            component = next(g for g in groups if site in g)
            if views.get(pid) != {p for s, p in live.items() if s in component}:
                return False
        return True

    for index, action in enumerate(actions):
        begin = start + action.time
        end = start + actions[index + 1].time if index + 1 < len(actions) else math.inf
        while cursor < len(events) and events[cursor].time < begin:
            apply(events[cursor])
            cursor += 1
        if isinstance(action, Partition):
            covered = {s for g in action.groups for s in g}
            groups = [frozenset(g) for g in action.groups]
            groups += [frozenset({s}) for s in range(n_sites) if s not in covered]
        elif isinstance(action, Heal):
            groups = [frozenset(range(n_sites))]
        elif isinstance(action, Crash):
            live.pop(action.site, None)
        elif isinstance(action, Recover):
            live[action.site] = booting
        else:
            raise ValueError(f"unexpected fault action {action!r}")
        done = 0.0 if matched() else math.inf
        while math.isinf(done) and cursor < len(events) and events[cursor].time < end:
            apply(events[cursor])
            if matched():
                done = events[cursor].time - begin
            cursor += 1
        waits.append(done)
    return waits
