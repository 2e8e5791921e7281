"""Benchmark of the versioned store and the simulator, end to end.

    python3 vsbench/run.py --workload store_read --seed 1 --seconds 30 --trace 0

Workloads:

``store_read``   5-site realnet store in a child process, open-loop
                 250 ops/s, 90% gets / 10% puts, zipfian over a
                 preloaded keyspace; stays below one store compaction
``store_write``  the same cluster under put-only open-loop 200 ops/s;
                 the window crosses at least one compaction.  The store
                 collapses there at a random point (view-change storm,
                 the group does not re-form), so its numbers vary from
                 run to run and BENCHMARK.json does not gate it
``sim_churn``    checked n=16 simulator runs over consecutive seeds:
                 random faults, open-loop store load, property checks
                 plus AckedWriteLoss

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once under cProfile and the counting
wrappers, and reports the per-module ledger plus the tracing overhead.
Run it from the root of a checkout: the program is imported from
``src/``.  The last line of stdout is the JSON result; the exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("store_read", "store_write", "sim_churn")

#: Gated end-to-end metrics, reported on every workload (BENCHMARK.json).
#: Each workload has its own unit of work, an "op": a client operation
#: on the store workloads, a simulator event on ``sim_churn``.
#:   p50_ms            store: get (store_read) or put (store_write)
#:                     latency from due time; sim: one checked run
#: The sim's timings (setup_s, p50_ms, cpu_us_per_op, throughput_per_s)
#: are scaled to reference host speed by ``churn.host_probe``.
#:   cpu_us_per_op     store: server CPU per completed op; sim: CPU per
#:                     scheduler event of a checked run (checks included)
#:   ok_frac           store: ops whose final status is ok; sim: runs
#:                     with no violation
#:   throughput_per_s  store: ok ops per second; sim: scheduler events
#:                     of checked runs per wall second
E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "cpu_us_per_op": "us",
    "ok_frac": "ratio",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-module ledger, reported by ``--trace 1`` on every workload (0
#: where a layer does not run, e.g. the codec on the simulator).
LAYER_UNITS = {
    "realnet.codec_bin.self_us_per_op": "us",
    "realnet.transport.self_us_per_op": "us",
    "realnet.network.self_us_per_op": "us",
    "realnet.transport.frames_per_flush": "count",
    "realnet.transport.bytes_per_op": "B",
    "net.msgs_per_op": "count",
    "vsync.self_us_per_op": "us",
    "apps.versioned_store.self_us_per_op": "us",
    "client.service.busy_us_per_op": "us",
    "client.attempts_per_op": "count",
    "sim.stable_storage.write_calls": "count",
    "sim.stable_storage.write_max_ms": "ms",
    "realnet.wallclock.loop_lag_p99_ms": "ms",
    "realnet.wallclock.loop_lag_max_ms": "ms",
    "fd.suspicions": "count",
    "gms.view_changes": "count",
    "core.settlements": "count",
    "store.compactions": "count",
    "fd.self_s": "s",
    "trace.recorder.self_s": "s",
    "sim.stable_storage.self_s": "s",
    "sim.scheduler.self_s": "s",
    "net.self_s": "s",
    "trace.checks.wall_s": "s",
    "fuzz.checkers.wall_s": "s",
    "gms.self_s": "s",
    "evs.self_s": "s",
    "core.self_s": "s",
    "obs.self_s": "s",
    "sim.scheduler.events": "count",
    "net.msgs_sent": "count",
    "idle_frac": "ratio",
    "trace.overhead_pct": "%",
}

#: ``<layer>.self_s`` metrics and the module or package each sums.
SELF_S = ("fd", "trace.recorder", "sim.stable_storage", "sim.scheduler",
          "net", "gms", "evs", "core", "obs")
#: ``<layer>.self_us_per_op`` metrics.
SELF_US = ("realnet.codec_bin", "realnet.transport", "realnet.network",
           "vsync", "apps.versioned_store")


class Report:
    """Metrics of one run plus the human-readable lines printed with them."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.lines: list[tuple[str, str, str]] = []  # name, value, note
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def show(self, name: str, value: float | str, unit: str = "", note: str = "") -> None:
        if isinstance(value, float):
            value = f"{value:.4g}"
        self.lines.append((name, f"{value} {unit}".strip(), note))


# -- store workloads --------------------------------------------------------


def _latencies(ops: list, kind: str) -> list[float]:
    """Per-op latency in ms; an op that did not succeed counts as inf."""
    return [1e3 * op.latency if op.status == "ok" else math.inf
            for op in ops if op.op == kind]


def window_metrics(workload: str, window, rate: float) -> dict[str, float]:
    """Everything one store window measured; quantiles are None when
    fewer than ten samples lie beyond them."""
    from common import quantile, tail_ok

    plan, before, after = window.plan, window.before, window.after
    done = [op for op in plan if op.status != "timeout"]
    ok = [op for op in plan if op.status == "ok"]
    end = max((op.due + op.latency for op in ok), default=math.inf)
    row: dict[str, float] = {}
    for kind in ("get", "put"):
        values = _latencies(plan, kind)
        row[f"{kind}_n"] = len(values)
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            good = values and (q == 0.5 or tail_ok(len(values), q))
            row[f"{kind}_{label}_ms"] = quantile(values, q) if good else None
    main = "get" if workload == "store_read" else "put"
    row.update({
        "p50_ms": row[f"{main}_p50_ms"],
        "cpu_us_per_op": 1e6 * (after["cpu_s"] - before["cpu_s"]) / max(1, len(done)),
        "ok_frac": len(ok) / len(plan),
        "throughput_per_s": len(ok) / (end - plan[0].due),
        "peak_rss_mb": after["rss_mb"],
        "late_frac": sum(op.lag > 1.0 / rate for op in plan) / len(plan),
        "compactions": after["compactions"] - before["compactions"],
        "view_installs": after["view_changes"] - before["view_changes"],
        "write_max_ms": after["write_max_ms"],
        "reformed": float(window.reformed),
        "unverified": window.unverified,
        "attempts": sum(op.attempts for op in plan) / len(plan),
    })
    return row


def _window_errors(workload: str, window, row: dict) -> list[str]:
    from store import N_KEYS

    from repro.apps.versioned_store import _COMPACT_EVERY

    errors = list(window.errors)
    if workload == "store_read" and row["compactions"]:
        errors.append(f"store_read crossed {row['compactions']:g} compactions; "
                      "it must cross none")
    if workload == "store_write" and N_KEYS + len(window.plan) < _COMPACT_EVERY:
        errors.append(f"store_write offers {len(window.plan)} puts on {N_KEYS} preloaded "
                      f"keys: too few to reach compaction at {_COMPACT_EVERY}")
    return errors


def _store_report(workload: str, windows: list, rate: float,
                  check_late: bool = True) -> tuple[Report, list[dict]]:
    from common import median
    from store import LATE_BOUND

    report = Report()
    rows = [window_metrics(workload, w, rate) for w in windows]
    for window, row in zip(windows, rows):
        report.attempted += len(window.plan)
        report.failed += sum(op.status != "ok" for op in window.plan)
        report.errors += _window_errors(workload, window, row)
    late = median([row["late_frac"] for row in rows])
    if check_late and late > LATE_BOUND:
        report.errors.append(f"generator late on {late:.1%} of sends (bound {LATE_BOUND:.0%})")
    return report, rows


#: Printed store metrics: name, row key, unit, note.
_STORE_LINES = (
    ("get_p50_ms", "get_p50_ms", "ms", "from due time"),
    ("get_p99_ms", "get_p99_ms", "ms", "from due time"),
    ("put_p50_ms", "put_p50_ms", "ms", "from due time"),
    ("put_p99_ms", "put_p99_ms", "ms", "from due time"),
    ("achieved_ops_s", "throughput_per_s", "1/s", "ok ops / due of first to last reply"),
    ("failed_frac", "failed_frac", "ratio", "final status other than ok"),
    ("server_cpu_ms_per_op", "cpu_ms_per_op", "ms", "server utime+stime / ops"),
    ("peak_rss_mb", "peak_rss_mb", "MB", "server child"),
    ("late_send_frac", "late_frac", "ratio", "sends more than 1/rate behind due"),
    ("compactions", "compactions", "count", "replica log compactions in the window"),
    ("view_installs", "view_installs", "count", "summed over replicas"),
    ("storage_write_max_ms", "write_max_ms", "ms", "slowest stable-storage write"),
    ("group_reformed", "reformed", "", "1 = one view again within 2 s of the window"),
    ("unverified_puts", "unverified", "count", "read back: replicas kept settling"),
)


def store_e2e(workload: str, seed: int, seconds: float) -> Report:
    from common import median
    from store import N_KEYS, WORKLOADS as RATES, run_store

    rate = RATES[workload][0]
    setups, windows = run_store(ROOT, workload, seed, seconds)
    report, rows = _store_report(workload, windows, rate)
    each = " ".join(f"{v:.4g}" for v in setups)
    report.show("setup_s", median(setups), "s",
                f"median of [{each}]; boot, settle, preload {N_KEYS} keys")
    for row in rows:
        row["failed_frac"] = 1.0 - row["ok_frac"]
        row["cpu_ms_per_op"] = row["cpu_us_per_op"] / 1e3
    for name, key, unit, note in _STORE_LINES:
        values = [row[key] for row in rows]
        if any(v is None for v in values):
            samples = min(row[name[:3] + "_n"] for row in rows)
            why = "fewer than 10 samples beyond" if samples else "no such ops"
            report.show(name, "n/a", note=f"{why} in a window (n={samples})")
            continue
        count = ""
        if name.startswith(("get_", "put_")):
            count = f", n={min(row[name[:3] + '_n'] for row in rows)}+ per window"
        each = " ".join(f"{v:.4g}" for v in values)
        report.show(name, median(values), unit, f"median of [{each}]{count}; {note}")
    report.metrics["setup_s"] = median(setups)
    for name in E2E_UNITS:
        if name != "setup_s":
            values = [row[name] for row in rows]
            report.metrics[name] = median([math.inf if v is None else v for v in values])
    return report


def store_layers(workload: str, seed: int, seconds: float) -> Report:
    from ledger import self_seconds
    from store import WORKLOADS as RATES, run_store

    rate = RATES[workload][0]
    plain, plain_rows = _store_report(
        workload, run_store(ROOT, workload, seed, seconds, 1)[1], rate)
    windows = run_store(ROOT, workload, seed, seconds, 1, trace=True)[1]
    # The traced window is for the ledger: cProfile slows the server,
    # so its lateness is reported, not held against the run.
    report, rows = _store_report(workload, windows, rate, check_late=False)
    report.errors += plain.errors
    report.attempted += plain.attempted
    report.failed += plain.failed
    window, row = windows[0], rows[0]
    ops = max(1, len([op for op in window.plan if op.status != "timeout"]))
    before, after, ledger = window.before, window.after, window.ledger
    modules = ledger["modules"]
    layers = {name: 0.0 for name in LAYER_UNITS}
    for name in SELF_US:
        layers[f"{name}.self_us_per_op"] = 1e6 * self_seconds(modules, name) / ops
    for name in SELF_S:
        layers[f"{name}.self_s"] = self_seconds(modules, name)

    def delta(key: str) -> float:
        return after[key] - before[key]

    traced_cpu, plain_cpu = row["cpu_us_per_op"], plain_rows[0]["cpu_us_per_op"]
    layers.update({
        "realnet.transport.frames_per_flush": delta("frames_sent") / max(1, delta("flushes")),
        "realnet.transport.bytes_per_op": delta("bytes_sent") / ops,
        "net.msgs_per_op": delta("net_sent") / ops,
        "net.msgs_sent": delta("net_sent"),
        "client.service.busy_us_per_op": 1e6 * delta("service_s") / ops,
        "client.attempts_per_op": row["attempts"],
        "sim.stable_storage.write_calls": delta("write_calls"),
        "sim.stable_storage.write_max_ms": after["write_max_ms"],
        "realnet.wallclock.loop_lag_p99_ms": ledger["lag_p99_ms"],
        "realnet.wallclock.loop_lag_max_ms": ledger["lag_max_ms"],
        "fd.suspicions": delta("suspicions"),
        "gms.view_changes": delta("view_changes"),
        "core.settlements": delta("settlements"),
        "store.compactions": delta("compactions"),
        "idle_frac": ledger["idle_s"] / max(1e-9, ledger["profiled_s"]),
        "trace.overhead_pct": 100.0 * (traced_cpu / plain_cpu - 1.0),
    })
    report.metrics = layers
    report.show("traced window", seconds, "s",
                f"{ledger['lag_samples']} loop-lag probes, late sends {row['late_frac']:.3f}")
    report.show("overhead basis", "server cpu_us_per_op", "",
                f"traced {traced_cpu:.4g} vs untraced {plain_cpu:.4g}")
    return report


# -- sim_churn ----------------------------------------------------------------


def _churn_runs(seed: int, seconds: float, probes: list | None = None) -> list:
    """Checked runs over consecutive seeds until ``seconds`` elapsed;
    ``probes`` collects a host probe before each run and after the last."""
    from churn import host_probe, one_run

    runs = []
    start = time.perf_counter()
    next_seed = 1000 * seed
    while not runs or time.perf_counter() - start < seconds:
        if probes is not None:
            probes.append(host_probe())
        runs.append(one_run(next_seed))
        next_seed += 1
    if probes is not None:
        probes.append(host_probe())
    return runs


def _churn_common(runs: list) -> Report:
    report = Report()
    report.attempted = len(runs)
    bad = [r for r in runs if r.violations or not r.settled]
    report.failed = len(bad)
    for r in bad:
        report.errors.append(f"seed {r.seed}: settled={r.settled} {r.violations[:3]}")
    return report


def churn_e2e(seed: int, seconds: float) -> Report:
    from churn import REFERENCE_S, SETUPS, host_probe, setup_once
    from common import median, peak_rss_mb, quantile

    probes = [host_probe()]
    setups = [setup_once(1000 * seed) for _ in range(SETUPS)]
    runs = _churn_runs(seed, seconds, probes)
    report = _churn_common(runs)
    walls = [r.wall_s for r in runs]
    # CPU-bound timings at reference host speed (see churn.host_probe).
    scale = REFERENCE_S / median(probes)
    m = report.metrics
    m["setup_s"] = median(setups) * scale
    m["p50_ms"] = 1e3 * median(walls) * scale
    m["cpu_us_per_op"] = 1e6 * median([r.cpu_s / r.events for r in runs]) * scale
    m["ok_frac"] = 1.0 - report.failed / len(runs)
    m["throughput_per_s"] = sum(r.events for r in runs) / sum(walls) / scale
    m["peak_rss_mb"] = peak_rss_mb()
    waits = [w for r in runs for w in r.view_changes]
    cut = sum(math.isinf(w) for w in waits)
    report.show("host_probe_ms", 1e3 * median(probes), "ms",
                f"median of {len(probes)}; reference {1e3 * REFERENCE_S:g} ms; "
                "timings below are as measured")
    report.show("setup_s", median(setups), "s",
                f"median of {SETUPS}: build n=16 cluster + schedule, form the group")
    report.show("run_wall_s", median(walls), "s",
                f"median of {len(runs)} checked runs, seeds {runs[0].seed}..{runs[-1].seed}")
    report.show("failed_frac", report.failed / len(runs), "ratio", "runs with violations")
    for name, q in (("view_change_p50_u", 0.5), ("view_change_p90_u", 0.9)):
        value = quantile(waits, q) if waits else math.nan
        report.show(name, value if math.isfinite(value) else "cut off", "u",
                    f"n={len(waits)}, {cut} cut off by the next action")
    report.show("peak_rss_mb", m["peak_rss_mb"], "MB")
    report.show("events_per_run", median([r.events for r in runs]), "count", "median")
    return report


def churn_layers(seed: int, seconds: float) -> Report:
    from churn import CLIENTS, DURATION, RATE, profiled_run
    from ledger import self_seconds
    from probes import Probes

    plain_runs = _churn_runs(seed, seconds)
    plain = _churn_common(plain_runs)
    probes = Probes(trace=True)
    probes.install()
    # Profile the same seeds for about as long again; cProfile slows the
    # runs down, so this covers a prefix of them.
    traced = []
    modules: dict[str, float] = {}
    start = time.perf_counter()
    for r in plain_runs:
        if traced and time.perf_counter() - start >= seconds:
            break
        run, by_module = profiled_run(r.seed)
        traced.append(run)
        for key, value in by_module.items():
            modules[key] = modules.get(key, 0.0) + value
    plain_runs = plain_runs[:len(traced)]
    report = _churn_common(traced)
    report.errors += plain.errors
    report.attempted += plain.attempted
    report.failed += plain.failed
    n = len(traced)
    ops = sum(r.events for r in traced)  # the simulator's op is an event
    layers = {name: 0.0 for name in LAYER_UNITS}
    for name in SELF_US:
        layers[f"{name}.self_us_per_op"] = 1e6 * self_seconds(modules, name) / ops
    for name in SELF_S:
        layers[f"{name}.self_s"] = self_seconds(modules, name) / n
    plain_wall = sum(r.wall_s for r in plain_runs)
    traced_wall = sum(r.wall_s for r in traced)
    layers.update({
        "net.msgs_per_op": sum(r.msgs for r in traced) / ops,
        "net.msgs_sent": sum(r.msgs for r in traced) / n,
        "sim.scheduler.events": sum(r.events for r in traced) / n,
        "trace.checks.wall_s": sum(r.check_s for r in traced) / n,
        "fuzz.checkers.wall_s": sum(r.checkers_s for r in traced) / n,
        "gms.view_changes": sum(r.view_installs for r in traced) / n,
        "core.settlements": sum(r.settlements for r in traced) / n,
        "sim.stable_storage.write_calls": probes.write_calls / n,
        "sim.stable_storage.write_max_ms": 1e3 * probes.write_max_s,
        "fd.suspicions": probes.suspicions / n,
        "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
    })
    for a, b in zip(plain_runs, traced):
        if (a.events, a.msgs) != (b.events, b.msgs):
            report.errors.append(f"seed {a.seed}: event/message counts did not repeat")
    report.metrics = layers
    report.show("runs", n, "", f"{CLIENTS} clients, {RATE:g} ops/u over {DURATION:g} u each")
    report.show("overhead basis", "run_wall_s", "",
                f"traced {traced_wall / n:.4g} s vs untraced {plain_wall / n:.4g} s per run")
    return report


# -- entry point ----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time; the store workloads split it "
                             "over three windows")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import fingerprint

    if args.workload == "sim_churn":
        measure = churn_layers if args.trace else churn_e2e
        report = measure(args.seed, args.seconds)
    else:
        measure = store_layers if args.trace else store_e2e
        report = measure(args.workload, args.seed, args.seconds)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {}
    for name, unit in units.items():
        value = float(report.metrics[name])
        if not math.isfinite(value):
            report.errors.append(f"{name} was not measured: no operation succeeded")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    kind = "per-layer ledger" if args.trace else "end to end"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} ({kind})")
    for name, value, note in report.lines:
        print(f"  {name:<24} {value:>16}  {note}")
    if not args.trace:
        print("  result metrics (BENCHMARK.json end_to_end):")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for error in report.errors[:20]:
        print(f"  CHECK FAILED: {error}")
    if len(report.errors) > 20:
        print(f"  ... {len(report.errors) - 20} more failed checks")
    print("env " + json.dumps(fingerprint(ROOT), sort_keys=True))
    correct = not report.errors
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
