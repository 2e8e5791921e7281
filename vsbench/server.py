"""Store server child for the ``store_*`` workloads.

Boots a 5-site ``realnet`` versioned-store cluster with the settings
``repro serve`` uses (store app, seed, scale 1.0, bin codec), all sites
on one event loop in this process, then answers JSON-line commands on
stdin with one JSON line each on stdout:

``mark``        counters and CPU time now (the parent diffs two marks)
``trace_on``    start cProfile and the loop-lag probe on the loop thread
``trace_off``   stop them and return the per-module ledger
``settle``      wait for every replica to share its component's view
``stop``        shut the cluster down and exit

The counters come from public surfaces: ``network_stats()``,
``transport_stats()``, ``metrics_snapshot()``, plus thin counting
wrappers around ``SiteStorage.write``/``append`` (compactions and
persistence stalls) installed before boot.  With ``--trace 1`` it also
wraps ``StoreService.handle_request`` (service busy time) and the
failure detector's estimate refresh (suspicions).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import cpu_seconds, peak_rss_mb  # noqa: E402
from probes import Probes  # noqa: E402

from repro.apps.factories import app_factory  # noqa: E402
from repro.core.modes import Mode  # noqa: E402
from repro.ports import make_cluster  # noqa: E402

SITES = 5
#: Wall seconds a ``settle`` command waits for the group to re-form.
SETTLE_S = 2.0


def all_normal(cluster) -> bool:
    return cluster.is_settled() and all(
        stack.app.mode is Mode.NORMAL for stack in cluster.live_stacks()
    )


def mark(cluster, probes: Probes) -> dict:
    snap = cluster.metrics_snapshot()
    transport = cluster.transport_stats()
    return {
        "cpu_s": cpu_seconds(),
        "rss_mb": peak_rss_mb(),
        "net_sent": cluster.network_stats().sent,
        "frames_sent": transport.get("frames_sent", 0),
        "flushes": transport.get("flushes", 0),
        "bytes_sent": transport.get("bytes_sent", 0),
        "view_changes": snap.total("view_changes_total"),
        "settlements": snap.total("settlement_sessions_total"),
        "compactions": probes.compactions,
        "write_calls": probes.write_calls,
        "write_max_ms": 1e3 * probes.write_max_s,
        "suspicions": probes.suspicions,
        "service_s": probes.service_s,
        "log_max": max(probes.appends.values(), default=0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    def reply(obj: dict) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    probes = Probes(trace=bool(args.trace))
    probes.install()
    cluster = make_cluster(
        "realnet", SITES, app_factory=app_factory("store", SITES),
        seed=args.seed, scale=1.0, codec="bin",
    )
    try:
        ready = cluster.wait_until(all_normal, timeout=30.0)
        book = cluster.cluster.address_book
        reply({"ready": ready, "book": {str(s): list(a) for s, a in book.items()}})
        loop = cluster._loop
        for line in sys.stdin:
            op = json.loads(line)["op"]
            if op == "mark":
                reply(cluster._invoke(mark, cluster, probes))
            elif op == "trace_on":
                cluster._invoke(probes.start, loop)
                reply({"ok": True})
            elif op == "trace_off":
                reply(cluster._invoke(probes.stop))
            elif op == "settle":
                reply({"ok": cluster.wait_until(all_normal, timeout=SETTLE_S)})
            elif op == "stop":
                break
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
