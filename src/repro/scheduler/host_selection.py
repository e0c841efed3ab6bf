"""The Host Selection Algorithm — paper Figure 3, step for step.

    1. Retrieve task-specific parameters of AFG tasks from the
       task-performance database.
    2. Retrieve resource-specific parameters of a set of resources,
       Rset = {R1, R2, ..., Rm}, from the resource-performance database.
    3. Set task-queue = {task_i | task_i in AFG}.
    4. For each task_i in task-queue:
         - Evaluate the performance prediction time of task_i,
           Predict(task_i, Rj), for all Rj in Rset.
         - Assign task_i to Rj, which minimizes the performance
           prediction time Predict(task_i, Rj).

Each site runs this independently on the multicast AFG and reports
"the mapping information of each task, i.e., machine name and predicted
execution time, to the local site" — that report is the
:class:`HostSelectionResult` returned here.

The paper's parallel-task extension ("the host selection algorithm is
updated to select the number of machines required within the site") is
implemented by choosing the ``n_nodes`` hosts with the smallest
predicted slice times; the bid's time is the slowest chosen slice.

**One documented deviation (schedule-aware load accounting).**  Read
literally, step 4 predicts every task against the *same* repository
load values, so all comparable tasks collapse onto the single
fastest host — for a bag of independent tasks this is catastrophically
worse than random placement, which cannot be the algorithm behind a
scheduler whose stated objective is "to minimize the schedule length".
The refs the paper builds on ([2, 4], and the federated model of [5])
all account for the processor's committed work.  We therefore walk the
task queue in level-priority order and, when predicting ``task_i`` on
host ``R``, add one run-queue entry for every task *already assigned to
``R`` in this round that can execute concurrently with ``task_i``*
(i.e. is neither its ancestor nor descendant in the AFG).  Chains keep
preferring the fastest host (their stages never overlap); independent
bags spread.  DESIGN.md §5 records this as the reproduction's only
algorithmic interpolation.

Candidate filtering honours, in order: host up-status, the
task-constraints database (executable present), the user's preferred
machine, and the preferred machine type (matched against the host's
``arch``/``os`` attributes).  A task with no feasible candidate at this
site (including tasks absent from the site's task-performance DB) is
simply absent from the result — the site declines to bid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.afg.graph import ApplicationFlowGraph
from repro.afg.task import TaskNode
from repro.metrics.registry import MetricsRegistry, NULL_METRICS
from repro.repository.resources import HostRecord
from repro.repository.store import SiteRepository
from repro.scheduler.prediction import PredictionModel
from repro.trace.events import EventKind
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "CommitmentLedger",
    "HostSelectionResult",
    "PredictMemo",
    "bid_for_task",
    "candidate_hosts",
    "select_hosts",
]


@dataclass(frozen=True)
class HostSelectionResult:
    """One site's bid for one task: machine name(s) + predicted time."""

    task_id: str
    site: str
    hosts: Tuple[str, ...]
    predicted_time: float

    @property
    def primary_host(self) -> str:
        return self.hosts[0]


def _matches_machine_type(record: HostRecord, machine_type: str) -> bool:
    """Case-insensitive match against the host's arch/OS attributes.

    Figure 1 writes types like ``<SUN solaris>``; we accept any
    whitespace-separated tokens all matching the host's arch or OS.
    """
    tokens = machine_type.lower().split()
    attrs = {record.spec.arch.lower(), record.spec.os.lower()}
    # vendor aliases seen in the paper's examples ("SUN solaris")
    aliases = {"sun": "sparc"}
    normalized = {aliases.get(t, t) for t in tokens}
    return normalized <= attrs


def candidate_hosts(task: TaskNode, repo: SiteRepository) -> List[HostRecord]:
    """Feasible hosts for ``task`` at this site, in stable name order.

    The sorted order is a repository invariant the rest of host
    selection depends on (bids are built positionally from it).  The
    host index hands out its name-sorted table, and the preference
    filters preserve relative order, so no re-sort is needed.  The
    result may be the index's cached table itself: callers that filter
    it further build new lists.
    """
    records = repo.host_index.runnable_up_hosts(task.task_type)
    props = task.properties
    if props.preferred_machine is not None:
        records = [r for r in records if r.name == props.preferred_machine]
    if props.preferred_machine_type is not None:
        records = [
            r for r in records if _matches_machine_type(r, props.preferred_machine_type)
        ]
    return records


def _reachability(
    afg: ApplicationFlowGraph,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Each task's bit and related mask, as ``(index, related)``.

    ``index[t]`` is ``t``'s position in the topological order, so its
    bit is ``1 << index[t]``; ``related[t]`` is the int whose set bits
    are the tasks ordered with ``t`` (its ancestors and descendants),
    built with int OR in one forward and one backward pass.

    Memoized on the graph object against its ``structure_version``:
    every participating site computes reachability for the *same*
    multicast AFG, and the masks depend only on graph structure.  The
    cached dicts are shared read-only by all callers.
    """
    cached = getattr(afg, "_reachability_cache", None)
    version = afg.structure_version
    if cached is not None and cached[0] == version:
        return cached[1]
    order = afg.topological_order()
    index = {task_id: i for i, task_id in enumerate(order)}
    ancestors: Dict[str, int] = {}
    for task_id in order:
        acc = 0
        for parent in afg.parents(task_id):
            acc |= (1 << index[parent]) | ancestors[parent]
        ancestors[task_id] = acc
    related: Dict[str, int] = {}
    descendants: Dict[str, int] = {}
    for task_id in reversed(order):
        acc = 0
        for child in afg.children(task_id):
            acc |= (1 << index[child]) | descendants[child]
        descendants[task_id] = acc
        related[task_id] = acc | ancestors[task_id]
    afg._reachability_cache = (version, (index, related))
    return index, related


class CommitmentLedger:
    """In-round commitment accounting on task bitsets.

    The question is "how many tasks already placed on host ``R`` this
    round can run concurrently with ``task_i``?" — the placements on
    ``R`` that are neither ancestors nor descendants of ``task_i``.
    Rescanning every commitment on ``R`` for every (task, host)
    prediction costs O(total commitments) per pair, quadratic over a
    large bag.  The ledger keeps, per host, the number of placements
    and the mask of placed tasks (bits from :func:`_reachability`); the
    concurrent count is then ``total[R] - popcount(related & placed[R])``,
    one AND and one popcount over n bits per query, with no per-task
    walk.

    Exactness: every committed task appears at most once per host (bid
    host groups are duplicate-free), and relatedness is symmetric, so
    subtracting the related placements from the total counts exactly
    the unrelated ones — pinned against a naive rescan by
    ``tests/scheduler/test_commitment_ledger.py``.
    """

    def __init__(self, reachability: Tuple[Dict[str, int], Dict[str, int]]):
        self._index, self._related = reachability
        self._total: Dict[str, int] = {}
        #: host -> mask of the tasks placed on it this round
        self._placed: Dict[str, int] = {}

    def commit(self, task_id: str, hosts: Tuple[str, ...]) -> None:
        """Record ``task_id`` as placed on ``hosts`` this round."""
        bit = 1 << self._index[task_id]
        total = self._total
        placed = self._placed
        for host in hosts:
            total[host] = total.get(host, 0) + 1
            placed[host] = placed.get(host, 0) | bit

    def extra_load_fn(self, task_id: str):
        """A one-argument ``extra_load_of`` bound to ``task_id``.

        Returns a flat closure — one call per host query instead of a
        closure -> method trampoline, which the profile showed costing
        as much as the arithmetic it wrapped.
        """
        total_get = self._total.get
        related = self._related[task_id]
        if not related:
            # bag-of-tasks common case: no task is ordered with this
            # one, the count is the raw total (an int — exact under IEEE
            # promotion, and int and float loads hash to the same memo
            # key)
            def extra_load_of(host_name: str) -> float:
                return total_get(host_name, 0)

            return extra_load_of
        placed_get = self._placed.get

        def extra_load_of(host_name: str) -> float:
            return float(
                total_get(host_name, 0)
                - (related & placed_get(host_name, 0)).bit_count()
            )

        return extra_load_of


def _no_extra_load(host_name: str) -> float:
    """No in-round load: the E13 ablation, and rescheduling one task."""
    return 0.0


def _context(task: TaskNode) -> Tuple[str, float, int, Optional[int]]:
    """The per-task inputs of ``Predict``: ``(task_type, workload_scale,
    n_nodes, memory_mb)``, ``memory_mb`` None when the task leaves it to
    the task-performance DB.  (``TaskProperties`` guarantees
    ``n_nodes == 1`` for sequential tasks.)"""
    props = task.properties
    return (
        task.task_type, props.workload_scale, props.n_nodes,
        props.memory_mb or None,
    )


class PredictMemo:
    """``Predict`` values memoized for one scheduling round.

    A round is one :func:`select_hosts` call or one
    :meth:`~repro.scheduler.site_scheduler.SiteScheduler.
    schedule_with_trace` call.  It runs synchronously with one model and
    nothing writes the repository during it, so a host's load, memory,
    speed and calibration are fixed for the round: within one site and
    one task context (see :func:`_context`), the host name and the
    in-round extra load determine the prediction exactly.  The memo
    therefore needs no version check and no invalidation — it is simply
    dropped with the round.

    Only contexts that two or more tasks of the AFG share are memoized
    (counted once, up front): a bag of identical tasks asks the same
    question at every site for every task, while a sweep whose tasks
    all differ in scale would only pay for inserts that never hit.
    """

    def __init__(self, afg: ApplicationFlowGraph):
        counts = Counter(map(_context, afg))
        self._shared = {context for context, n in counts.items() if n > 1}
        #: (site, context) -> {(host name, extra load): prediction}
        self._tables: Dict[Tuple[str, Tuple], Dict[Tuple[str, float], float]] = {}

    def table(
        self, site: str, context: Tuple
    ) -> Optional[Dict[Tuple[str, float], float]]:
        """The memo table for ``context`` at ``site``; None if unshared."""
        key = (site, context)
        table = self._tables.get(key)
        if table is None and context in self._shared:
            table = self._tables[key] = {}
        return table

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


def bid_for_task(
    task: TaskNode,
    repo: SiteRepository,
    model: PredictionModel,
    extra_load_of,
    health_of=None,
    exclude_hosts: frozenset = frozenset(),
    memo: Optional[PredictMemo] = None,
) -> Optional[HostSelectionResult]:
    """Figure 3's inner step for one task at one site.

    Evaluates ``Predict(task, Rj)`` over every feasible host (with the
    caller-supplied in-round load ``extra_load_of(host_name)`` added;
    ``None`` adds none) and returns the minimising host group, or
    ``None`` when the site cannot run the task (no feasible hosts, task
    unknown to its DBs).

    ``health_of`` (optional, from :class:`~repro.runtime.straggler.
    HostHealth`) maps a host name to a multiplicative prediction
    penalty, or ``None`` for a quarantined host, which is excluded from
    the candidate set entirely.  ``exclude_hosts`` are dropped from the
    candidates too (rescheduling away from failed hosts).  ``memo`` is
    the round's :class:`PredictMemo`, if any.
    """
    candidates = candidate_hosts(task, repo)
    if not repo.task_perf.has(task.task_type):
        return None
    # filters rebuild rather than remove in place: candidate lists may
    # be the host index's cached table, which is shared and read-only
    if exclude_hosts:
        candidates = [r for r in candidates if r.name not in exclude_hosts]
    factors: Optional[List[float]] = None
    if health_of is not None:
        kept = []
        factors = []
        for record in candidates:
            factor = health_of(record.name)
            if factor is not None:  # None = quarantined, excluded
                factors.append(factor)
                kept.append(record)
        candidates = kept
    context = _context(task)
    task_type, scale, n_nodes, memory_mb = context
    if len(candidates) < n_nodes:
        return None
    if extra_load_of is None:
        extra_load_of = _no_extra_load
    # Score every candidate in one model pass — or, when the round memo
    # covers this context, look each host up and make one pass over the
    # misses only.
    table = memo.table(repo.site_name, context) if memo is not None else None
    if table is None:
        names = [record.spec.name for record in candidates]
        times = model.predict_hosts(
            task_type, scale, n_nodes, candidates, repo.task_perf,
            memory_mb, list(map(extra_load_of, names)),
        )
    else:
        # one explicit loop: measurably cheaper per bid than separate
        # name/key/lookup comprehensions on identical-task bags, where
        # this path runs for every bid
        table_get = table.get
        names = []
        times = []
        missing = []  # indices into times, and their hosts and loads
        miss_hosts = []
        miss_extras = []
        for record in candidates:
            name = record.spec.name
            extra = extra_load_of(name)
            t = table_get((name, extra))
            if t is None:
                missing.append(len(times))
                miss_hosts.append(record)
                miss_extras.append(extra)
            names.append(name)
            times.append(t)
        if missing:
            fresh = model.predict_hosts(
                task_type, scale, n_nodes, miss_hosts, repo.task_perf,
                memory_mb, miss_extras,
            )
            for i, extra, t in zip(missing, miss_extras, fresh):
                times[i] = table[names[i], extra] = t
    # Health penalties multiply after scoring, so they never reach the
    # memo.
    if factors is not None:
        times = [t * f for t, f in zip(times, factors)]
    # Candidates are name-sorted, so the first minimum is the minimum of
    # ``(time, name)``: the smallest time wins and a time tie breaks to
    # the smaller name.  A parallel task takes the ``n_nodes`` smallest
    # ``(time, name)`` pairs.
    if n_nodes == 1:
        predicted_time = min(times)
        chosen_hosts: Tuple[str, ...] = (names[times.index(predicted_time)],)
    else:
        chosen = sorted(zip(times, names))[:n_nodes]
        chosen_hosts = tuple(name for _, name in chosen)
        # parallel slices run concurrently; the group finishes with its
        # slowest member (the largest selected prediction)
        predicted_time = chosen[-1][0]
    # positional: keyword construction of a frozen dataclass costs a
    # measurable share of a bid
    return HostSelectionResult(
        task.id, repo.site_name, chosen_hosts, predicted_time
    )


def select_hosts(
    afg: ApplicationFlowGraph,
    repo: SiteRepository,
    model: Optional[PredictionModel] = None,
    order: Optional[List[str]] = None,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    health_of=None,
) -> Dict[str, HostSelectionResult]:
    """Run Figure 3 at one site; return this site's bids, keyed by task id.

    ``order`` overrides the queue order (default: level priority); the
    E9 ablation passes a FIFO/topological order here.  ``tracer``
    records one :data:`~repro.trace.events.EventKind.HOST_BID` event
    per bid produced; ``metrics`` counts bids and declines per site.
    ``health_of`` is the optional host-health penalty/quarantine hook
    (see :func:`bid_for_task`).
    """
    model = model or PredictionModel()
    results: Dict[str, HostSelectionResult] = {}

    # Step 3: every AFG task goes in the queue.  The queue is walked in
    # level-priority order (§3: levels are computed before scheduling);
    # tasks whose type the site's task-performance DB lacks cost 0 for
    # ordering purposes and will produce no bid below.
    def base_cost(task_id: str) -> float:
        node = afg.task(task_id)
        try:
            return repo.task_perf.base_cost(
                node.task_type, node.properties.workload_scale
            )
        except KeyError:
            return 0.0

    if order is None:
        from repro.afg.levels import compute_levels

        levels = compute_levels(afg, base_cost)
        queue = sorted(levels, key=lambda t: (-levels[t], t))
    else:
        if sorted(order) != sorted(t.id for t in afg):
            raise ValueError("order must be a permutation of the AFG's tasks")
        queue = list(order)

    ledger = CommitmentLedger(_reachability(afg))
    #: Predict values this round's bids share, dropped with the round
    memo = PredictMemo(afg)

    for task_id in queue:
        task = afg.task(task_id)
        # Step 4: Predict(task, Rj) for every feasible Rj, with the
        # in-round load of concurrent commitments added.
        bid = bid_for_task(
            task, repo, model, ledger.extra_load_fn(task_id), health_of,
            memo=memo,
        )
        if bid is None:
            if metrics.enabled:
                metrics.counter(
                    "vdce_host_bid_declines_total",
                    "tasks a site could not bid on (no feasible host)",
                ).inc(site=repo.site_name)
            continue  # site cannot run this task; no bid
        if metrics.enabled:
            metrics.counter(
                "vdce_host_bids_total",
                "host-selection bids produced, per site",
            ).inc(site=repo.site_name)
        if tracer.enabled:
            tracer.emit(
                EventKind.HOST_BID, source=f"hostsel:{repo.site_name}",
                task=task.id, site=bid.site, hosts=bid.hosts,
                predicted_time=bid.predicted_time,
            )
        ledger.commit(task_id, bid.hosts)
        results[task.id] = bid
    return results
