"""The benchmark's three workloads: inputs, deployment, runner, checks.

Every workload is generated from one integer seed.  The generator
builds the application flow graphs and the arrival schedule; the
program under test receives only those inputs, through its public API
(``VDCERuntime.schedule_process`` / ``execute_process``,
``AdmissionQueue.submit`` and the deployment shape of
``benchmarks._common.fresh_runtime``, which wraps ``TopologyBuilder``).

* ``sweep`` - a Nimrod/G-style parameter sweep: one bag of independent
  tasks with heterogeneous costs, submitted at once.  One huge ready
  set makes host selection, ``Predict``, the per-task application
  controller watchdogs and the kernel's timers do the work; almost no
  data moves.
* ``dataflow`` - a deep, narrow, communication-heavy random DAG.  Many
  small ready sets and one LAN/WAN transfer per edge load the site
  scheduler, the execution coordinator, the network model and the AFG
  graph queries.
* ``multitenant`` - an open loop in virtual time: mixed applications
  from users of different priority arrive on a Poisson schedule into
  one admission queue, on hosts carrying background load, with
  monitoring, echo and every off-by-default protection armed.  Over the
  long virtual horizon the monitor/echo loop, repository writes, the
  load generators and the kernel dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from benchmarks._common import fresh_runtime
from repro.metrics.registry import NULL_METRICS, MetricsRegistry
from repro.net.rpc import BreakerPolicy
from repro.runtime import (
    AdmissionQueue,
    ApplicationResult,
    HealthPolicy,
    OverloadPolicy,
    RuntimeConfig,
    SpeculationPolicy,
    VDCERuntime,
)
from repro.runtime.integrity import IntegrityPolicy
from repro.scheduler import SiteScheduler
from repro.sim.kernel import Timeout
from repro.sim.workload import OrnsteinUhlenbeckLoad, attach_generators
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.workloads import (
    RandomDAGConfig,
    bag_of_tasks,
    linear_solver_afg,
    random_dag,
    surveillance_afg,
)

WORKLOADS = ("sweep", "dataflow", "multitenant")

#: the site every workload submits at
SUBMIT_SITE = "site-0"

#: multitenant: applications, arrival window (virtual s), users
TENANT_APPS = 120
TENANT_WINDOW_S = 1800.0
TENANT_USERS = (("batch", 1), ("analyst", 3), ("operator", 5), ("command", 9))


@dataclass(frozen=True)
class Shape:
    """Everything about a workload that is fixed, not drawn from the seed."""

    sites: int
    hosts_per_site: int
    k: int
    monitoring: bool
    payloads: bool
    config: RuntimeConfig
    background_load: bool = False
    admission: bool = False


SHAPES: Dict[str, Shape] = {
    "sweep": Shape(sites=8, hosts_per_site=8, k=7, monitoring=True,
                   payloads=False, config=RuntimeConfig()),
    "dataflow": Shape(sites=4, hosts_per_site=4, k=3, monitoring=False,
                      payloads=False, config=RuntimeConfig()),
    "multitenant": Shape(
        sites=6, hosts_per_site=8, k=3, monitoring=True, payloads=True,
        config=RuntimeConfig(
            speculation=SpeculationPolicy(),
            health=HealthPolicy(),
            overload=OverloadPolicy(),
            breaker=BreakerPolicy(),
            data_integrity=IntegrityPolicy(),
        ),
        background_load=True, admission=True,
    ),
}


@dataclass
class Submission:
    """One application the benchmark submits."""

    at: float
    afg: object
    user: str = "admin"


def input_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct input seeds derived from one workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def make_inputs(workload: str, seed: int) -> List[Submission]:
    """The seed's application flow graphs and arrival schedule."""
    if workload == "sweep":
        afg = bag_of_tasks(n=2000, cost=4.0, heterogeneity=0.5, seed=seed)
        return [Submission(0.0, afg)]
    if workload == "dataflow":
        afg = random_dag(RandomDAGConfig(n_tasks=2000, width=4, ccr=2.0,
                                         seed=seed))
        return [Submission(0.0, afg)]
    if workload == "multitenant":
        rng = np.random.default_rng(seed)
        # A Poisson process conditioned on its count: 120 arrivals placed
        # uniformly in a fixed window (mean gap 15 virtual s).  Fixing
        # the window keeps the horizon, and so the monitoring volume,
        # comparable across seeds.
        arrivals = np.sort(rng.uniform(0.0, TENANT_WINDOW_S, TENANT_APPS))
        # an equal share of each application kind, in seeded order
        kinds = rng.permutation(np.arange(TENANT_APPS) % 3)
        users = rng.integers(0, len(TENANT_USERS), TENANT_APPS)
        dag_seeds = rng.integers(0, 2**31, TENANT_APPS)
        submissions = []
        for i in range(TENANT_APPS):
            if kinds[i] == 0:
                afg = linear_solver_afg(scale=0.15, parallel_lu_nodes=2)
            elif kinds[i] == 1:
                afg = surveillance_afg(n_sensors=3, scale=0.5)
            else:
                afg = random_dag(RandomDAGConfig(
                    n_tasks=16, width=4, mean_cost=2.0, ccr=0.5,
                    seed=int(dag_seeds[i]),
                ))
            afg.name = f"app{i:03d}:{afg.name}"
            submissions.append(Submission(
                float(arrivals[i]), afg, TENANT_USERS[int(users[i])][0]
            ))
        return submissions
    raise ValueError(f"unknown workload {workload!r}")


class PhaseClock:
    """Host time during which at least one application is scheduling.

    Wraps ``schedule_process`` from outside; the rest of a run's host
    time is the execution phase.  Delegating with ``yield from`` adds
    no simulator events, so timed runs behave exactly as untimed ones.
    """

    def __init__(self) -> None:
        self.schedule_s = 0.0
        self._open = 0
        self._since = 0.0

    def schedule(self, runtime: VDCERuntime, *args, **kwargs):
        if self._open == 0:
            self._since = time.perf_counter()
        self._open += 1
        try:
            return (yield from runtime.schedule_process(*args, **kwargs))
        finally:
            self._open -= 1
            if self._open == 0:
                self.schedule_s += time.perf_counter() - self._since


class _PhasedRuntime:
    """The runtime as an ``AdmissionQueue`` sees it, scheduling timed."""

    def __init__(self, runtime: VDCERuntime, clock: PhaseClock):
        self._runtime = runtime
        self._clock = clock

    def __getattr__(self, name):
        return getattr(self._runtime, name)

    def schedule_process(self, *args, **kwargs):
        return self._clock.schedule(self._runtime, *args, **kwargs)


@dataclass
class Deployment:
    """A deployment with its inputs, ready to run."""

    workload: str
    runtime: VDCERuntime
    submissions: List[Submission]
    clock: PhaseClock
    queue: Optional[AdmissionQueue] = None


def deploy(workload: str, seed: int, tracer: Tracer = NULL_TRACER,
           metrics: MetricsRegistry = NULL_METRICS) -> Deployment:
    """Build the federation, repositories, users and inputs for a run.

    With a tracer, causal spans are switched on as well; spans are
    documented not to change behaviour, which the run checks by digest.
    """
    shape = SHAPES[workload]
    submissions = make_inputs(workload, seed)
    config = shape.config
    runtime = fresh_runtime(n_sites=shape.sites,
                            hosts_per_site=shape.hosts_per_site,
                            seed=seed, config=config)
    if tracer.enabled:
        # fresh_runtime takes no telemetry handles: re-wire its
        # still-unused topology into an instrumented runtime
        runtime = VDCERuntime(
            runtime.topology, tracer=tracer, metrics=metrics,
            config=dataclasses.replace(config, causal_spans=True),
        )
    clock = PhaseClock()
    queue = None
    if shape.admission:
        users = runtime.repositories[SUBMIT_SITE].users
        for user, priority in TENANT_USERS:
            users.add_user(user, "bench", priority=priority)
        queue = AdmissionQueue(_PhasedRuntime(runtime, clock),
                               max_concurrent=4, site=SUBMIT_SITE)
    if shape.background_load:
        attach_generators(
            runtime.sim, runtime.topology.all_hosts,
            lambda: OrnsteinUhlenbeckLoad(mean=0.8, sigma=0.3, period_s=1.0),
        )
    if shape.monitoring:
        runtime.start_monitoring()
    return Deployment(workload, runtime, submissions, clock, queue)


#: per application: scheduled arrival and its result or the error it raised
Outcomes = Dict[str, Tuple[float, Union[ApplicationResult, Exception]]]


def execute(dep: Deployment) -> Outcomes:
    """Drive every submission to completion; return each outcome.

    Arrivals are an open loop: each application is submitted at its
    scheduled virtual time whether or not earlier ones have finished.
    """
    shape = SHAPES[dep.workload]
    rt = dep.runtime
    sim = rt.sim

    def pipeline(afg):
        table, _ = yield from dep.clock.schedule(
            rt, afg, SiteScheduler(k=shape.k, model=rt.model),
            local_site=SUBMIT_SITE,
        )
        result = yield rt.execute_process(
            afg, table, submit_site=SUBMIT_SITE,
            execute_payloads=shape.payloads,
        )
        return result

    def arrivals():
        pending = []
        for sub in dep.submissions:
            if sub.at > sim.now:
                yield Timeout(sub.at - sim.now)
            if dep.queue is not None:
                done = dep.queue.submit(
                    sub.afg, sub.user,
                    scheduler=SiteScheduler(k=shape.k, model=rt.model),
                    execute_payloads=shape.payloads,
                )
            else:
                done = sim.process(pipeline(sub.afg), name="bench:pipeline")
            pending.append((sub, done))
        outcomes: Outcomes = {}
        for sub, done in pending:
            try:
                outcomes[sub.afg.name] = (sub.at, (yield done))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                outcomes[sub.afg.name] = (sub.at, exc)
        return outcomes

    return sim.run_until_complete(
        sim.process(arrivals(), name="bench:arrivals"))


@dataclass
class Checked:
    """What the output checks found in one run."""

    digest: str
    attempted: int
    failed: int
    makespan_vs: float
    turnarounds_vs: List[float]
    problems: List[str] = field(default_factory=list)


def check(dep: Deployment, outcomes: Outcomes) -> Checked:
    """Check a run's outputs without pinning its behaviour.

    * every submitted task completes exactly once, or its application
      failed and all of its tasks count as failed;
    * no task starts before all of its parents have finished;
    * every assignment names a host of the deployment.

    Returns those findings with the run's result digest: sha256 over
    sorted application/task -> hosts/start/finish.
    """
    hosts = {h.name for h in dep.runtime.topology.all_hosts}
    problems: List[str] = []
    lines: List[str] = []
    attempted = failed = 0
    finishes: List[float] = []
    turnarounds: List[float] = []
    first_arrival = min(sub.at for sub in dep.submissions)
    for sub in dep.submissions:
        afg = sub.afg
        task_ids = set(afg.tasks)
        attempted += len(task_ids)
        at, outcome = outcomes[afg.name]
        if isinstance(outcome, Exception):
            failed += len(task_ids)
            lines.append(f"{afg.name} failed {type(outcome).__name__}")
            continue
        records = outcome.records
        if set(records) != task_ids:
            problems.append(
                f"{afg.name}: {len(task_ids - set(records))} task(s) never "
                f"completed, {len(set(records) - task_ids)} unknown"
            )
            continue
        for task_id in sorted(records):
            rec = records[task_id]
            if rec.attempts < 1 or rec.finished_at < rec.started_at:
                problems.append(f"{afg.name}/{task_id}: no completed attempt")
            if not rec.hosts or not set(rec.hosts) <= hosts:
                problems.append(
                    f"{afg.name}/{task_id}: assigned to {rec.hosts!r}, "
                    "not a host of the deployment"
                )
            for parent in afg.parents(task_id):
                if rec.started_at < records[parent].finished_at:
                    problems.append(
                        f"{afg.name}/{task_id} started at {rec.started_at!r}"
                        f" before parent {parent} finished at "
                        f"{records[parent].finished_at!r}"
                    )
            lines.append(
                f"{afg.name}/{task_id} {','.join(rec.hosts)} "
                f"{rec.started_at!r} {rec.finished_at!r}"
            )
        finish = max(r.finished_at for r in records.values())
        finishes.append(finish)
        if len(dep.submissions) > 1:
            turnarounds.append(finish - at)
        else:
            # one application: each task is a result the user waits for
            turnarounds.extend(r.finished_at - at for r in records.values())
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    makespan = (max(finishes) - first_arrival) if finishes else 0.0
    return Checked(digest, attempted, failed, makespan, turnarounds, problems)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
