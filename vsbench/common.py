"""Shared helpers: quantiles over raw samples, memory, environment."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import platform
import resource
from pathlib import Path

#: Fewest samples that must lie beyond a quantile for it to be reported.
TAIL_SAMPLES = 10


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of raw samples (``inf`` sorts last)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_ok(count: int, q: float) -> bool:
    """True when at least :data:`TAIL_SAMPLES` samples lie beyond ``q``."""
    return count * (1.0 - q) >= TAIL_SAMPLES


def median(values: list[float]) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def peak_rss_mb() -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _commit(root: Path) -> str:
    """The checkout's commit, or a digest of ``src/`` outside git."""
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()
        else:
            return ref
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(root: Path) -> dict[str, object]:
    """What the numbers were measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "uvloop": importlib.util.find_spec("uvloop") is not None,
        "commit": _commit(root),
        "cpu": _cpu_model(),
    }
