"""Application Controllers — one per machine (paper §4.1).

"The Application Controller sets up the execution environment and
manages the services provided by interacting with the Data Manager. ...
The Application Controller monitors the application execution on the
assigned machines.  If the current load on any of these machines is
more than a predefined threshold value, the Application Controller
terminates the task execution on the machine and sends a task
rescheduling request to the Group Manager."

In this codebase the controller watches its host's load while task
slices run; crossing ``load_threshold`` cancels the slice and raises a
reschedule request toward the coordinator (which consults the Site
Manager for a replacement placement).  The check period matches the
monitor daemon's period — the controller reads the same measurement
stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set

from repro.sim.host import Host, TaskExecution
from repro.sim.kernel import Process, Simulator, Timeout
from repro.runtime.stats import RuntimeStats
from repro.trace.events import EventKind

__all__ = ["AppController"]

#: reschedule callback: (task_id, host_name, reason) -> None
RescheduleRequest = Callable[[str, str, str], None]


class AppController:
    """Per-host execution agent."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        stats: RuntimeStats,
        load_threshold: float = 4.0,
        check_period_s: float = 2.0,
    ):
        if load_threshold <= 0:
            raise ValueError("load_threshold must be positive")
        if check_period_s <= 0:
            raise ValueError("check_period_s must be positive")
        self.sim = sim
        self.host = host
        self.stats = stats
        self.load_threshold = float(load_threshold)
        self.check_period_s = float(check_period_s)
        #: applications whose execution request has arrived
        self.active_applications: Set[str] = set()
        self.requests_received = 0

    def receive_execution_request(self, application: str) -> None:
        """Group Manager delivery of the allocation-table portion."""
        self.active_applications.add(application)
        self.requests_received += 1

    def release(self, application: str) -> None:
        self.active_applications.discard(application)

    # -- guarded execution ---------------------------------------------------

    def start_slice(self, work: float, memory_mb: int, label: str) -> TaskExecution:
        """Begin one task slice on this controller's host."""
        return self.host.execute(work=work, memory_mb=memory_mb, label=label)

    def watch(
        self,
        execution: TaskExecution,
        task_id: str,
        on_reschedule: RescheduleRequest,
    ) -> Process:
        """Spawn the load watchdog for a running slice.

        Checks the host's load every ``check_period_s`` while the slice
        runs.  The *background* load is what triggers rescheduling — a
        busy VDCE task itself must not count against its own host, so
        the controller subtracts resident VDCE slices from the measured
        run-queue length.
        """

        def loop():
            while not execution.done.triggered:
                yield Timeout(self.check_period_s)
                if execution.done.triggered:
                    return
                background = self.host.bg_load
                if background > self.load_threshold:
                    if self.sim.tracer.enabled:
                        self.sim.tracer.emit(
                            EventKind.LOAD_CANCEL, source=f"ac:{self.host.name}",
                            task=task_id, host=self.host.name, load=background,
                            threshold=self.load_threshold,
                        )
                    self.host.cancel(execution, cause=f"load>{self.load_threshold}")
                    on_reschedule(task_id, self.host.name,
                                  f"load {background:.2f} over threshold")
                    return

        return self.sim.process(loop(), name=f"watch:{self.host.name}:{task_id}")
