"""In-round commitment accounting and the ready queue, against naive oracles.

:class:`~repro.scheduler.host_selection.CommitmentLedger` answers "how
many tasks placed on host ``h`` this round can run concurrently with
task ``t``?" from per-host counts and task bitsets.  The oracle below
answers the same question the plain way — walk the graph's parent and
child links for the tasks ordered with ``t``, rescan every placement on
``h`` and count the ones outside that set — and the two must agree for
any DAG and any commit sequence.  The oracle never reads
:func:`~repro.scheduler.host_selection._reachability`, so a wrong mask
cannot pass both; the masks are also checked against the walk directly.

The site scheduler walks its ready set through a heap; the oracle
re-scans the ready set for ``max((level, id))`` on every step, and the
placement orders must be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg.levels import compute_levels
from repro.scheduler import SiteScheduler
from repro.scheduler.host_selection import CommitmentLedger, _reachability
from repro.workloads import RandomDAGConfig, random_dag

from tests.scheduler.conftest import build_federation

HOSTS = ("h0", "h1", "h2", "h3")

dags = st.builds(
    RandomDAGConfig,
    n_tasks=st.integers(min_value=1, max_value=20),
    width=st.integers(min_value=1, max_value=5),
    max_fan_in=st.integers(min_value=1, max_value=3),
    cost_heterogeneity=st.sampled_from((0.0, 0.5)),
    seed=st.integers(min_value=0, max_value=10_000),
)

#: deep, narrow DAGs: masks of 64-200 bits span several int digits
large_dags = st.builds(
    RandomDAGConfig,
    n_tasks=st.integers(min_value=64, max_value=200),
    width=st.integers(min_value=1, max_value=4),
    max_fan_in=st.integers(min_value=1, max_value=3),
    cost_heterogeneity=st.sampled_from((0.0, 0.5)),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _walk(afg, task_id, step):
    """Every task reachable from ``task_id`` by repeated ``step`` links."""
    seen = set()
    stack = list(step(task_id))
    while stack:
        other = stack.pop()
        if other not in seen:
            seen.add(other)
            stack.extend(step(other))
    return seen


def _ordered_with(afg, task_id):
    """Ancestors and descendants of ``task_id``, by graph walk."""
    return _walk(afg, task_id, afg.parents) | _walk(afg, task_id, afg.children)


def _naive_extra_load(afg, placements, task_id, host):
    """Placements on ``host`` not ordered with ``task_id``, by rescan."""
    related = _ordered_with(afg, task_id)
    return float(sum(
        1 for other, hosts in placements
        if host in hosts and other not in related
    ))


def _check_ledger(afg, data):
    tasks = sorted(t.id for t in afg)
    # each task placed at most once, on a duplicate-free host group —
    # the shape every scheduler commit has
    order = data.draw(st.permutations(tasks))
    n_commits = data.draw(st.integers(min_value=0, max_value=len(order)))
    ledger = CommitmentLedger(_reachability(afg))
    placements = []
    for task_id in order[:n_commits]:
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            probe = data.draw(st.sampled_from(tasks))
            extra_load_of = ledger.extra_load_fn(probe)
            for host in HOSTS:
                assert extra_load_of(host) == _naive_extra_load(
                    afg, placements, probe, host)
        hosts = tuple(data.draw(st.lists(
            st.sampled_from(HOSTS), min_size=1, max_size=3, unique=True)))
        ledger.commit(task_id, hosts)
        placements.append((task_id, hosts))
    for probe in tasks:
        extra_load_of = ledger.extra_load_fn(probe)
        for host in HOSTS:
            assert extra_load_of(host) == _naive_extra_load(
                afg, placements, probe, host)


@settings(max_examples=60, deadline=None)
@given(config=dags, data=st.data())
def test_ledger_matches_a_naive_rescan(config, data):
    _check_ledger(random_dag(config), data)


@settings(max_examples=15, deadline=None)
@given(config=large_dags, data=st.data())
def test_ledger_matches_a_naive_rescan_on_multi_digit_masks(config, data):
    _check_ledger(random_dag(config), data)


@settings(max_examples=40, deadline=None)
@given(config=st.one_of(dags, large_dags))
def test_reachability_masks_equal_the_graph_walk(config):
    afg = random_dag(config)
    index, related = _reachability(afg)
    by_bit = {i: task_id for task_id, i in index.items()}
    assert sorted(by_bit) == list(range(len(afg)))
    for task in afg:
        mask = related[task.id]
        members = {by_bit[i] for i in range(mask.bit_length()) if mask >> i & 1}
        assert members == _ordered_with(afg, task.id)


def _scan_order(afg, levels):
    """Figure 2's ready-set walk with an O(n) max scan per step."""
    scheduled = set()
    ready = sorted(afg.entry_tasks())
    order = []
    while ready:
        task_id = max(ready, key=lambda t: (levels[t], t))
        ready.remove(task_id)
        order.append(task_id)
        scheduled.add(task_id)
        for child in afg.children(task_id):
            if (
                child not in scheduled
                and child not in ready
                and all(p in scheduled for p in afg.parents(child))
            ):
                ready.append(child)
    return order


@settings(max_examples=40, deadline=None)
@given(config=dags, account=st.booleans())
def test_heap_pops_in_max_level_then_id_order(config, account):
    afg = random_dag(config)
    _topo, repos, view = build_federation()
    task_perf = repos[view.local_site].task_perf

    def cost(task_id):
        node = afg.task(task_id)
        return task_perf.base_cost(node.task_type,
                                   node.properties.workload_scale)

    levels = compute_levels(afg, cost)
    scheduler = SiteScheduler(k=1, account_commitments=account)
    _table, order = scheduler.schedule_with_trace(afg, view)
    assert order == _scan_order(afg, levels)
