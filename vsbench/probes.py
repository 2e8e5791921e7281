"""Counting wrappers around public entry points, and the traced window.

Installed by the benchmark before a cluster boots; nothing under
``src/`` is modified.  Always on (cheap): stable-storage write/append
counts, from which store compactions are recognised.  Traced runs add
service busy time, failure-detector suspicions, cProfile on the thread
that runs the protocols, and a loop-lag probe on a realnet event loop.
"""

from __future__ import annotations

import cProfile
import time

from common import quantile
from ledger import layer_times

from repro.apps.versioned_store import _COMPACT_EVERY, _LOG_KEY
from repro.client.service import StoreService
from repro.fd.heartbeat import DetectorBase
from repro.sim.stable_storage import SiteStorage

#: Period of the loop-lag probe (wall seconds).
LAG_PERIOD = 0.005


class Probes:
    """Counters wrapped around public entry points, shared by all sites."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.appends: dict[int, int] = {}  # id(storage) -> log appends
        self.compactions = 0
        self.write_calls = 0
        self.write_max_s = 0.0
        self.suspicions = 0
        self.service_s = 0.0
        self.lags: list[float] = []
        self._lag_on = False
        self.profile: cProfile.Profile | None = None

    def install(self) -> None:
        probes = self
        write, append = SiteStorage.write, SiteStorage.append

        def counted_write(storage, key, value):
            if key == _LOG_KEY and not value:
                # A log reset: a compaction when the log had grown to
                # the threshold, otherwise an adoption's full rewrite.
                if probes.appends.get(id(storage), 0) >= _COMPACT_EVERY:
                    probes.compactions += 1
                probes.appends[id(storage)] = 0
            start = time.perf_counter()
            write(storage, key, value)
            spent = time.perf_counter() - start
            probes.write_calls += 1
            if spent > probes.write_max_s:
                probes.write_max_s = spent

        def counted_append(storage, key, item):
            if key == _LOG_KEY:
                probes.appends[id(storage)] = probes.appends.get(id(storage), 0) + 1
            append(storage, key, item)

        SiteStorage.write = counted_write
        SiteStorage.append = counted_append
        if not self.trace:
            return
        handle, refresh = StoreService.handle_request, DetectorBase._refresh

        def timed_handle(service, request, reply_cb):
            start = time.perf_counter()
            try:
                handle(service, request, reply_cb)
            finally:
                probes.service_s += time.perf_counter() - start

        def counted_refresh(detector):
            before = detector.reachable()
            refresh(detector)
            if before - detector.reachable():
                probes.suspicions += 1

        StoreService.handle_request = timed_handle
        DetectorBase._refresh = counted_refresh

    # -- traced window (runs on the loop thread) -----------------------

    def start(self, loop) -> None:
        self.lags = []
        self._lag_on = True
        self.profile = cProfile.Profile()
        self.profile.enable()
        self._arm_lag(loop)

    def _arm_lag(self, loop) -> None:
        due = loop.time() + LAG_PERIOD

        def tick() -> None:
            self.lags.append(loop.time() - due)
            if self._lag_on:
                self._arm_lag(loop)

        loop.call_at(due, tick)

    def stop(self) -> dict:
        self._lag_on = False
        self.profile.disable()
        by_module, idle, total = layer_times(self.profile)
        lags = self.lags
        return {
            "modules": by_module,
            "idle_s": idle,
            "profiled_s": total,
            "lag_p99_ms": 1e3 * quantile(lags, 0.99) if lags else 0.0,
            "lag_max_ms": 1e3 * max(lags) if lags else 0.0,
            "lag_samples": len(lags),
        }
