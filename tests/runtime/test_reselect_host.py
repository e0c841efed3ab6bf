"""``SiteManager.reselect_host`` is one ``bid_for_task`` over the site's
hosts minus the excluded ones.

It used to be two steps: run host selection on a one-task AFG, and when
the winner touched an excluded host, re-score the remaining hosts by
hand.  That algorithm is kept below as the oracle.  The single bid must
match it for every subset of excluded hosts of a 4-host site, for a
sequential and an ``n_nodes=2`` task, with and without a quarantined
host (plus a penalized one, so health factors are in play).
"""

from itertools import combinations

import pytest

from repro.afg import ApplicationFlowGraph, ComputationMode, TaskNode, TaskProperties
from repro.runtime.straggler import HostHealth
from repro.scheduler.host_selection import (
    HostSelectionResult,
    candidate_hosts,
    select_hosts,
)
from repro.scheduler.prediction import PredictionModel

from tests.runtime.conftest import build_runtime

HOSTS = ("a1", "a2", "a3", "a4")
#: a3 and a4 tie on speed so name tie-breaks matter
SITE = {"alpha": [("a1", 1.0, 256), ("a2", 3.0, 256),
                  ("a3", 2.0, 256), ("a4", 2.0, 256)]}


def _two_step_reselect(sm, afg, task_id, exclude_hosts, model):
    """The former algorithm: unrestricted bid, then a manual fallback."""
    if not sm.alive:
        return None
    single = ApplicationFlowGraph(f"resched:{task_id}")
    node = afg.task(task_id)
    single.add_task(node)
    bid = select_hosts(single, sm.repository, model,
                       health_of=sm._health_of).get(task_id)
    if bid is None or not set(bid.hosts) & exclude_hosts:
        return bid
    props = node.properties
    n_nodes = props.n_nodes if props.is_parallel else 1
    records = [r for r in candidate_hosts(node, sm.repository)
               if r.name not in exclude_hosts]
    factors = {}
    if sm.health is not None:
        for r in list(records):
            factor = sm.health.factor_of(r.name)
            if factor is None:
                records.remove(r)  # quarantined
            else:
                factors[r.name] = factor
    if len(records) < n_nodes:
        return None
    memory_mb = props.memory_mb if props.memory_mb > 0 else None
    predictions = sorted(
        (model.predict(node.task_type, props.workload_scale, n_nodes, r,
                       sm.repository.task_perf, memory_mb=memory_mb)
         * factors.get(r.name, 1.0), r.name)
        for r in records
    )
    chosen = predictions[:n_nodes]
    return HostSelectionResult(
        task_id=task_id, site=sm.name,
        hosts=tuple(n for _, n in chosen), predicted_time=chosen[-1][0],
    )


def _afg(parallel):
    afg = ApplicationFlowGraph("resched")
    if parallel:
        props = TaskProperties(mode=ComputationMode.PARALLEL, n_nodes=2,
                               workload_scale=1.5)
        task_type = "matrix.lu_decomposition"
    else:
        props = TaskProperties(workload_scale=1.5)
        task_type = "generic.source"
    afg.add_task(TaskNode(id="t0", task_type=task_type, n_out_ports=1,
                          properties=props))
    return afg


def _site(health):
    rt = build_runtime(site_hosts=SITE)
    sm = rt.site_managers["alpha"]
    # uneven reported loads, so the fastest host is not the best bid
    for name, load in (("a2", 1.5), ("a3", 0.25)):
        memory = sm.repository.resources.get(name).available_memory_mb
        sm.repository.resources.update_workload(
            name, load=load, available_memory_mb=memory, time=0.0)
    if health:
        sm.health = HostHealth(rt.sim)
        sm.health.penalize("a4", 0.5)                           # penalized
        sm.health.penalize("a3", sm.health.policy.quarantine_threshold)
    return rt, sm


@pytest.mark.parametrize("health", (False, True),
                         ids=("healthy", "quarantine"))
@pytest.mark.parametrize("parallel", (False, True),
                         ids=("sequential", "n_nodes=2"))
def test_single_bid_matches_two_step_reselect(parallel, health):
    rt, sm = _site(health)
    afg = _afg(parallel)
    model = PredictionModel()
    subsets = [frozenset(c) for k in range(len(HOSTS) + 1)
               for c in combinations(HOSTS, k)]
    assert len(subsets) == 16
    outcomes = set()
    for exclude in subsets:
        expected = _two_step_reselect(sm, afg, "t0", exclude, model)
        got = sm.reselect_host(afg, "t0", exclude, model)
        assert got == expected, sorted(exclude)
        outcomes.add(None if got is None else got.hosts)
    # the subsets genuinely exercise both branches and the no-bid case
    assert None in outcomes
    assert len(outcomes) >= 3
