"""Per-module self time from cProfile, grouped by ``repro/<package>/<module>``.

A built-in function (C code: dict operations, ``struct``, socket sends)
has no module of its own, so its self time is charged to the modules
that called it, in proportion to the calls each made.  Python code
outside the program (the standard library, the benchmark) is ``other``.
The selector wait of an event loop is not a layer: it is reported as
idle time.
"""

from __future__ import annotations

import cProfile
import pstats

#: The built-in whose self time is the event loop waiting for I/O.
_IDLE = "<method 'poll' of 'select.epoll' objects>"


def _module_of(filename: str) -> str | None:
    """``.../repro/realnet/codec_bin.py`` -> ``realnet.codec_bin``."""
    path = filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut < 0 or not path.endswith(".py"):
        return None
    return path[cut + len("/repro/"):-3].replace("/", ".")


def layer_times(profile: cProfile.Profile) -> tuple[dict[str, float], float, float]:
    """Self seconds by module, idle seconds, total seconds profiled."""
    stats = pstats.Stats(profile).stats
    by_module: dict[str, float] = {}
    idle = 0.0
    total = 0.0

    def owner(func: tuple) -> str:
        filename = func[0]
        if filename == "~":
            return ""
        return _module_of(filename) or "other"

    for func, (_cc, _nc, self_s, _cum, callers) in stats.items():
        total += self_s
        if func[0] == "~" and func[2] == _IDLE:
            idle += self_s
            continue
        name = owner(func)
        if name:
            by_module[name] = by_module.get(name, 0.0) + self_s
            continue
        # A built-in: charge its callers by their share of the calls.
        calls: dict[str, int] = {}
        for caller, stat in callers.items():
            key = owner(caller) or "other"
            calls[key] = calls.get(key, 0) + stat[1]
        ncalls = sum(calls.values())
        if not ncalls:
            calls, ncalls = {"other": 1}, 1
        for key, n in calls.items():
            by_module[key] = by_module.get(key, 0.0) + self_s * n / ncalls
    return by_module, idle, total


def self_seconds(by_module: dict[str, float], name: str) -> float:
    """Self time of a module (``realnet.codec_bin``) or a whole package
    (``vsync``: every ``vsync.*`` module)."""
    if name in by_module:
        return by_module[name]
    prefix = name + "."
    return sum(v for k, v in by_module.items() if k.startswith(prefix))
