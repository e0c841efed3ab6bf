"""Performance prediction: ``Predict(task, R)``.

Paper §3: "The core of the given built-in scheduling algorithms is the
performance prediction [6] phase, which is provided by separate
function evaluations of each task on each resource."

Reference [6] (Yan & Zhang) predicts execution time on non-dedicated
heterogeneous workstations from the task's computation size and the
machine's speed and recent load.  Our model has the same inputs — all
drawn from the site repository, never from live hosts, because the
scheduler only sees the databases:

``time = span_work x (1 + load) / speed x calibration [x mem_penalty]``

where ``span_work`` is the task's base-processor time divided by the
parallel speedup (for parallel tasks), ``load`` is the host's last
reported run-queue length, ``calibration`` is the learned
measured/expected ratio for this (task, host) pair, and ``mem_penalty``
applies when the task's memory requirement exceeds the host's reported
available memory.

The optional ``noise`` knob perturbs predictions multiplicatively for
the sensitivity experiment (E10); noise is deterministic per
(task, host, seed) so experiments are reproducible.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.repository.resources import HostRecord
from repro.repository.taskperf import TaskPerformanceDB

__all__ = ["PredictionModel"]


@dataclass(frozen=True)
class PredictionModel:
    """Tunable ``Predict(task, R)`` evaluator.

    Parameters
    ----------
    memory_penalty:
        Multiplier applied when the task's memory requirement exceeds
        the host's reported available memory (models thrashing).
    noise:
        Relative half-width of a uniform multiplicative perturbation,
        e.g. ``0.3`` draws factors in [0.7, 1.3].  Zero (default) is
        the oracle-parameter model.
    noise_seed:
        Seed mixed into the per-(task, host) noise hash.
    use_calibration:
        Whether to apply the task-performance DB's learned (task, host)
        ratio (paper §4.1's post-execution refinement loop).
    ignore_load:
        Predict as if every host were idle — the "load-blind" ablation
        of experiment E3.
    """

    memory_penalty: float = 4.0
    noise: float = 0.0
    noise_seed: int = 0
    use_calibration: bool = True
    ignore_load: bool = False

    def __post_init__(self) -> None:
        if self.memory_penalty < 1.0:
            raise ValueError("memory_penalty must be >= 1")
        if not (0.0 <= self.noise < 1.0):
            raise ValueError("noise must be in [0, 1)")

    # -- single host -------------------------------------------------------

    def predict(
        self,
        task_type: str,
        scale: float,
        n_nodes: int,
        host: HostRecord,
        task_perf: TaskPerformanceDB,
        memory_mb: Optional[int] = None,
        extra_load: float = 0.0,
    ) -> float:
        """Predicted execution time of one task slice on ``host``.

        :meth:`predict_hosts` for a one-host list: the formula lives
        there, once.
        """
        return self.predict_hosts(
            task_type, scale, n_nodes, (host,), task_perf, memory_mb,
            (extra_load,),
        )[0]

    # -- every candidate of one bid ------------------------------------------

    def predict_hosts(
        self,
        task_type: str,
        scale: float,
        n_nodes: int,
        hosts: Sequence[HostRecord],
        task_perf: TaskPerformanceDB,
        memory_mb: Optional[int] = None,
        extra_loads: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Predicted execution time of one task slice on each of ``hosts``.

        One bid asks the same task question of every candidate host, so
        the per-task work — the task-performance record, the span work
        under the parallel speedup, the memory requirement and the model
        flags — is done once here, and only the per-host arithmetic runs
        in the loop.  Each host's value is computed in the single-host
        order: ``span_work x (1 + load + extra) / speed``, then the
        memory penalty, the (task, host) calibration and the noise
        factor, so a value does not depend on which other hosts share
        the call.

        For a parallel task (``n_nodes > 1``) the values are per-node
        slice times under the library's speedup model; the caller
        combines slices across the chosen host group via
        :meth:`predict_group`.

        ``extra_loads`` (parallel to ``hosts``; default all zero) is
        *scheduling-round* load: run-queue entries the caller has
        already committed to each host while placing the same
        application (see :mod:`repro.scheduler.host_selection`).  It is
        deliberately unaffected by ``ignore_load``, which only blinds
        the model to the *measured background* load.
        """
        record = task_perf.get(task_type)
        total_work = record.computation_size * scale
        if n_nodes > 1:
            if record.parallel is None:
                raise ValueError(
                    f"task {task_type!r} is not parallelizable but n_nodes={n_nodes}"
                )
            span_work = total_work / record.parallel.speedup(n_nodes)
        else:
            span_work = total_work
        required_mb = memory_mb if memory_mb is not None else math.ceil(
            record.required_memory_mb * scale
        )
        if extra_loads is None:
            extra_loads = repeat(0.0)
        ignore_load = self.ignore_load
        penalty = self.memory_penalty
        calibration = (
            task_perf.host_calibration if self.use_calibration else None
        )
        noisy = self.noise > 0.0
        times: List[float] = []
        for host, extra_load in zip(hosts, extra_loads):
            if extra_load < 0:
                raise ValueError("extra_load must be non-negative")
            spec = host.spec
            # ``max(0.0, load)``, spelled out: NaN and -0.0 become 0.0
            load = host.load
            if ignore_load or not load > 0.0:
                load = 0.0
            time = span_work * (1.0 + load + extra_load) / spec.speed
            if required_mb > host.available_memory_mb:
                time *= penalty
            if calibration is not None:
                time *= calibration(task_type, spec.name)
            if noisy:
                time *= self._noise_factor(task_type, spec.name)
            times.append(time)
        return times

    # -- host group (parallel tasks) ------------------------------------------

    def predict_group(
        self,
        task_type: str,
        scale: float,
        hosts: Sequence[HostRecord],
        task_perf: TaskPerformanceDB,
        memory_mb: Optional[int] = None,
    ) -> float:
        """Predicted span of a parallel task on a specific host group.

        Every node executes the per-node slice concurrently, so the
        group's time is the slowest member's predicted slice time.
        """
        if not hosts:
            raise ValueError("host group must be non-empty")
        n = len(hosts)
        return max(
            self.predict(task_type, scale, n, h, task_perf, memory_mb=memory_mb)
            for h in hosts
        )

    # -- internals ---------------------------------------------------------------

    def _noise_factor(self, task_type: str, host_name: str) -> float:
        """Deterministic multiplicative noise in [1-noise, 1+noise]."""
        key = f"{self.noise_seed}:{task_type}:{host_name}".encode("utf-8")
        rng = np.random.default_rng(zlib.crc32(key))
        return 1.0 + self.noise * float(rng.uniform(-1.0, 1.0))
