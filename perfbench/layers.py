"""Per-layer self time from a cProfile of one run, measured from outside.

Each profiled function's self time is charged to the layer that owns
its module (``LAYERS``, keyed by module path under ``src/repro``), so a
refactor that moves code between modules moves its self time with it.
Builtin and C calls have no module; their self time is charged to the
layer of the function that called them, split by caller.  What is left,
standard-library and third-party Python, the benchmark's own code and
repository modules outside the map, is ``unattributed``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

#: layer -> module paths (a directory prefix ends in "/")
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("sim/kernel.py",),
    "sim.model": ("sim/host.py", "sim/site.py", "sim/topology.py",
                  "sim/workload.py", "sim/failures.py", "sim/chaos.py"),
    "sim.network": ("sim/network.py",),
    "scheduler.host_selection": ("scheduler/host_selection.py",),
    "scheduler.prediction": ("scheduler/prediction.py",),
    "scheduler.site_scheduler": ("scheduler/site_scheduler.py",
                                 "scheduler/allocation.py",
                                 "scheduler/federation.py"),
    "repository": ("repository/",),
    "runtime.site_manager": ("runtime/site_manager.py",
                             "runtime/vdce_runtime.py",
                             "runtime/membership.py", "runtime/services.py",
                             "runtime/stats.py"),
    "runtime.execution": ("runtime/execution.py",),
    "runtime.app_controller": ("runtime/app_controller.py",),
    "runtime.monitor": ("runtime/monitor.py", "runtime/group_manager.py"),
    "net.rpc": ("net/",),
    "runtime.admission": ("runtime/admission.py",),
    "runtime.integrity": ("runtime/integrity.py",),
    "runtime.straggler": ("runtime/straggler.py",),
    "runtime.overload": ("runtime/overload.py",),
    "afg": ("afg/",),
    "tasklib": ("tasklib/",),
    "telemetry": ("obs/", "trace/", "metrics/"),
}

UNATTRIBUTED = "unattributed"

#: (module path, function name) of the public entry points whose call
#: counts the benchmark reads off the profile
COUNTED = {
    "bids": ("scheduler/host_selection.py", "bid_for_task"),
    "predicts": ("scheduler/prediction.py", "predict"),
    # the watchdog generator: one profiled call per load check
    "checks": ("runtime/app_controller.py", "loop"),
}

_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep


def _module(filename: str) -> Optional[str]:
    """Module path under src/repro, or None outside the package."""
    at = filename.rfind(_PACKAGE)
    if at < 0:
        return None
    return filename[at + len(_PACKAGE):].replace(os.sep, "/")


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None for code outside the map."""
    module = _module(filename)
    if module is None:
        return None
    for layer, paths in LAYERS.items():
        for path in paths:
            if module == path or (path.endswith("/")
                                  and module.startswith(path)):
                return layer
    return None


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def attribute(stats: pstats.Stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds per layer (plus ``unattributed``) and entry counts."""
    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[UNATTRIBUTED] = 0.0
    counts = {name: 0 for name in COUNTED}
    for func, (_cc, calls, tottime, _ct, callers) in stats.stats.items():
        filename, _line, name = func
        for counted, (path, fn) in COUNTED.items():
            if name == fn and _module(filename) == path:
                counts[counted] += calls
        if not _is_builtin(func):
            self_s[layer_of(filename) or UNATTRIBUTED] += tottime
            continue
        # a builtin: split its self time by caller
        charged = 0.0
        for caller, (_ccc, _cn, caller_tt, _cct) in callers.items():
            layer = None if _is_builtin(caller) else layer_of(caller[0])
            if layer is not None:
                self_s[layer] += caller_tt
                charged += caller_tt
        self_s[UNATTRIBUTED] += max(0.0, tottime - charged)
    return self_s, counts
