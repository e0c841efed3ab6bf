"""One-pass bid scoring and the per-round ``Predict`` memo.

``PredictionModel.predict_hosts`` scores every candidate of a bid in one
call, and ``bid_for_task`` serves the contexts an AFG's tasks share from
a :class:`~repro.scheduler.host_selection.PredictMemo` that lives for one
scheduling round.  These tests pin what that must never change:

* each host's value is the single-host formula, bit for bit, and
  ``predict`` is ``predict_hosts`` on a one-host list;
* bids with and without the round memo are equal;
* repository writes between two rounds (load report, calibration
  refinement, rejoin with a new speed) reach the next round;
* health penalties and quarantine apply after scoring, never inside the
  memo; a parallel bid takes the ``n_nodes`` fastest slices; model
  variants and int/float in-round loads behave as exact keys.

Model calls are observed from outside: a spy on ``predict_hosts``
records the host names it was asked to score.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg import ApplicationFlowGraph, ComputationMode, TaskNode, TaskProperties
from repro.repository import SiteRepository
from repro.repository.resources import HostRecord
from repro.repository.taskperf import TaskPerfRecord, TaskPerformanceDB
from repro.scheduler.host_selection import (
    PredictMemo,
    bid_for_task,
    select_hosts,
)
from repro.scheduler.prediction import PredictionModel
from repro.sim.host import HostSpec
from repro.tasklib.base import ParallelModel

TASK = "math.lu_decompose"
HOSTS = ("c0", "c1", "c2")

#: the unpatched model, for oracles
_PREDICT_HOSTS = PredictionModel.predict_hosts


def _record():
    return TaskPerfRecord(
        task_type=TASK, computation_size=2.0, communication_size_mb=0.1,
        required_memory_mb=16, parallel=ParallelModel(overhead=0.1))


def _repo():
    repo = SiteRepository("score-site")
    for i, name in enumerate(HOSTS):
        repo.resources.register_host(
            HostSpec(name=name, speed=1.0 + i, memory_mb=256))
        repo.constraints.register(TASK, name, f"/bin/{name}")
    repo.task_perf.register(_record())
    return repo


def _node(task_id="t0", **props):
    return TaskNode(id=task_id, task_type=TASK, n_in_ports=0, n_out_ports=1,
                    properties=TaskProperties(**props))


def _bag(n, scales=None):
    """``n`` independent TASK nodes; identical unless ``scales`` given."""
    afg = ApplicationFlowGraph(f"bag-{n}")
    for i in range(n):
        scale = 1.0 if scales is None else scales[i % len(scales)]
        afg.add_task(_node(f"t{i:02d}", workload_scale=scale))
    return afg


@pytest.fixture
def scored(monkeypatch):
    """Host names passed to ``predict_hosts``, in call order."""
    calls = []

    def spy(self, task_type, scale, n_nodes, hosts, *args, **kwargs):
        calls.extend(host.name for host in hosts)
        return _PREDICT_HOSTS(self, task_type, scale, n_nodes, hosts,
                              *args, **kwargs)

    monkeypatch.setattr(PredictionModel, "predict_hosts", spy)
    return calls


def _without_memo(monkeypatch, fn):
    """Run ``fn()`` with every round memo disabled (all contexts miss)."""
    with monkeypatch.context() as patch:
        patch.setattr(PredictMemo, "table", lambda self, site, context: None)
        return fn()


def _oracle(model, repo, n_nodes=1, extra_load=0.0, health=None):
    """The bid's oracle: (time, name) for every host, one model call per
    host, health factors applied, quarantined hosts dropped, sorted."""
    pairs = []
    for name in HOSTS:
        factor = 1.0 if health is None else health[name]
        if factor is None:
            continue
        time = _PREDICT_HOSTS(
            model, TASK, 1.0, n_nodes, [repo.resources.get(name)],
            repo.task_perf, None, [extra_load])[0]
        pairs.append((time * factor, name))
    return sorted(pairs)


def _agrees(bid, oracle, n_nodes=1):
    chosen = oracle[:n_nodes]
    return (bid.hosts == tuple(name for _, name in chosen)
            and bid.predicted_time == chosen[-1][0])


# -- predict_hosts is the single-host formula, bit for bit ------------------

def _formula(model, record, scale, n_nodes, host, db, memory_mb, extra):
    """``Predict(task, R)`` for one host, written out independently."""
    work = record.computation_size * scale
    if n_nodes > 1:
        work = work / record.parallel.speedup(n_nodes)
    load = 0.0 if model.ignore_load else max(0.0, host.load)
    time = work * (1.0 + load + extra) / host.spec.speed
    need = memory_mb if memory_mb is not None else int(
        np.ceil(record.required_memory_mb * scale))
    if need > host.available_memory_mb:
        time *= model.memory_penalty
    if model.use_calibration:
        time *= db.host_calibration(record.task_type, host.name)
    if model.noise > 0.0:
        key = f"{model.noise_seed}:{record.task_type}:{host.name}"
        rng = np.random.default_rng(zlib.crc32(key.encode("utf-8")))
        time *= 1.0 + model.noise * float(rng.uniform(-1.0, 1.0))
    return time


_hosts = st.lists(
    st.tuples(
        st.floats(0.25, 8.0),                      # speed
        st.floats(-3.0, 6.0),                      # reported load (may be < 0)
        st.integers(0, 64),                        # available memory (tight)
        st.one_of(st.none(), st.floats(0.2, 5.0)),  # calibration ratio
        st.one_of(st.integers(0, 6), st.floats(0.0, 6.0)),  # extra load
    ),
    min_size=1, max_size=6,
)
_models = st.builds(
    PredictionModel,
    memory_penalty=st.floats(1.0, 8.0),
    noise=st.sampled_from([0.0, 0.3]),
    noise_seed=st.integers(0, 5),
    use_calibration=st.booleans(),
    ignore_load=st.booleans(),
)


@given(hosts=_hosts, model=_models, n_nodes=st.sampled_from([1, 2, 4]),
       scale=st.floats(0.1, 4.0),
       memory_mb=st.one_of(st.none(), st.integers(1, 64)))
@settings(max_examples=150, deadline=None)
def test_predict_hosts_is_the_per_host_formula(hosts, model, n_nodes, scale,
                                               memory_mb):
    db = TaskPerformanceDB("s")
    record = db.register(_record())
    records, extras = [], []
    for i, (speed, load, avail, ratio, extra) in enumerate(hosts):
        name = f"h{i}"
        records.append(HostRecord(
            spec=HostSpec(name=name, speed=speed, memory_mb=64), site="s",
            load=load, available_memory_mb=avail))
        extras.append(extra)
        if ratio is not None:
            # a first measurement sets the ratio to measured/expected
            db.record_execution(TASK, name, expected_s=1.0, measured_s=ratio)
    times = model.predict_hosts(TASK, scale, n_nodes, records, db,
                                memory_mb, extras)
    assert times == [
        _formula(model, record, scale, n_nodes, host, db, memory_mb, extra)
        for host, extra in zip(records, extras)
    ]
    for host, extra, time in zip(records, extras, times):
        assert model.predict(TASK, scale, n_nodes, host, db,
                             memory_mb=memory_mb, extra_load=extra) == time


def test_negative_extra_load_is_rejected():
    db = TaskPerformanceDB("s")
    db.register(_record())
    host = HostRecord(spec=HostSpec(name="h", speed=1.0, memory_mb=64),
                      site="s", available_memory_mb=64)
    with pytest.raises(ValueError, match="extra_load"):
        PredictionModel().predict_hosts(TASK, 1.0, 1, [host, host], db,
                                        None, [0.0, -1.0])


# -- the round memo never changes a bid -------------------------------------

@pytest.mark.parametrize("scales", (None, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
                         ids=("identical", "heterogeneous"))
def test_memo_and_no_memo_rounds_agree(monkeypatch, scored, scales):
    repo = _repo()
    repo.resources.update_workload("c2", load=1.5, available_memory_mb=8,
                                   time=1.0)
    afg = _bag(12) if scales is None else _bag(6, scales)
    model = PredictionModel()
    with_memo = select_hosts(afg, repo, model)
    memo_scores = len(scored)
    del scored[:]
    without = _without_memo(monkeypatch,
                            lambda: select_hosts(afg, repo, model))
    assert with_memo == without
    assert set(with_memo) == {t.id for t in afg}
    if scales is None:
        assert memo_scores < len(scored)  # the memo served some scores
    else:
        assert memo_scores == len(scored)  # nothing shared, nothing served


def test_int_and_float_extra_load_share_one_entry(scored):
    """The commit ledger's fast path hands out raw ints; int and float
    loads hash equal and promote exactly, so both forms map to the same
    memo entry with the same float."""
    repo = _repo()
    model = PredictionModel()
    memo = PredictMemo(_bag(2))
    as_int = bid_for_task(_node(), repo, model, lambda _h: 2, memo=memo)
    as_float = bid_for_task(_node(), repo, model, lambda _h: 2.0, memo=memo)
    assert scored == list(HOSTS)  # the float bid was served whole
    assert len(memo) == len(HOSTS)
    assert as_int == as_float
    assert _agrees(as_float, _oracle(model, repo, extra_load=2.0))


def test_unshared_contexts_are_not_memoized(scored):
    repo = _repo()
    model = PredictionModel()
    memo = PredictMemo(_bag(2, scales=(1.0, 2.0)))
    first = bid_for_task(_node(), repo, model, None, memo=memo)
    second = bid_for_task(_node(), repo, model, None, memo=memo)
    assert first == second
    assert len(memo) == 0
    assert scored == 2 * list(HOSTS)


def test_sites_never_share_entries(scored):
    """Host names are only unique within a site: a round spanning two
    sites that reuse names keeps a memo table per site."""
    here, there = _repo(), _repo()
    for name in HOSTS:
        memory = there.resources.get(name).available_memory_mb
        there.resources.update_workload(name, load=2.0,
                                         available_memory_mb=memory, time=1.0)
    there.site_name = "other-site"
    model = PredictionModel()
    memo = PredictMemo(_bag(2))
    near = bid_for_task(_node(), here, model, None, memo=memo)
    far = bid_for_task(_node(), there, model, None, memo=memo)
    assert scored == 2 * list(HOSTS)
    assert _agrees(near, _oracle(model, here))
    assert far.site == "other-site"
    assert _agrees(far, _oracle(model, there))
    assert far.predicted_time == 3.0 * near.predicted_time


# -- writes between rounds reach the next round -----------------------------

def _next_round_sees(monkeypatch, repo, mutate):
    """Round, write, round: the second round must equal a memo-less
    round on the written repository, and differ from the first."""
    afg = _bag(6)
    model = PredictionModel()
    before = select_hosts(afg, repo, model)
    mutate(repo, before)
    after = select_hosts(afg, repo, model)
    assert after == _without_memo(monkeypatch,
                                  lambda: select_hosts(afg, repo, model))
    assert after != before
    return before, after


def test_load_report_between_rounds_is_seen(monkeypatch):
    def report(repo, _before):
        memory = repo.resources.get("c2").available_memory_mb
        repo.resources.update_workload("c2", load=5.0,
                                       available_memory_mb=memory, time=1.0)

    before, after = _next_round_sees(monkeypatch, _repo(), report)
    assert before["t00"].primary_host == "c2"  # the fastest host
    assert after["t00"].primary_host != "c2"   # the load moved it


def test_calibration_refinement_between_rounds_is_seen(monkeypatch):
    def refine(repo, before):
        # the winner ran 4x slower than predicted (a slowdown fault)
        first = before["t00"]
        repo.task_perf.record_execution(
            TASK, first.primary_host, expected_s=first.predicted_time,
            measured_s=4.0 * first.predicted_time)

    _next_round_sees(monkeypatch, _repo(), refine)


def test_rejoin_with_new_speed_between_rounds_is_seen(monkeypatch):
    def rejoin(repo, _before):
        repo.resources.begin_draining("c0", time=1.0)
        repo.deregister_host("c0")
        repo.resources.rejoin_host(
            HostSpec(name="c0", speed=12.0, memory_mb=256), time=2.0)
        repo.constraints.register(TASK, "c0", "/bin/c0")
        repo.resources.activate_host("c0", time=3.0)

    before, after = _next_round_sees(monkeypatch, _repo(), rejoin)
    assert before["t00"].primary_host == "c2"
    # the rejoined spec's speed, not the departed one's, is scored
    assert after["t00"].primary_host == "c0"
    assert after["t00"].predicted_time == 2.0 / 12.0


# -- health, parallel bids, model variants ----------------------------------

def test_health_penalties_and_quarantine_apply_after_scoring(scored):
    """Health factors multiply after scoring, so within one round a
    penalty or a quarantine changes the bid without a model call: every
    bid equals the one-call-per-host oracle with the factors applied."""
    repo = _repo()
    model = PredictionModel()
    memo = PredictMemo(_bag(2))
    health = {name: 1.0 for name in HOSTS}

    def bid():
        return bid_for_task(_node(), repo, model, None,
                            health_of=health.__getitem__, memo=memo)

    first = bid()
    assert _agrees(first, _oracle(model, repo, health=health))
    fastest = first.primary_host
    warm = len(scored)
    health[fastest] = 10.0
    penalized = bid()
    assert _agrees(penalized, _oracle(model, repo, health=health))
    assert penalized.primary_host != fastest
    health[fastest] = None  # quarantined outright
    quarantined = bid()
    assert _agrees(quarantined, _oracle(model, repo, health=health))
    assert fastest not in quarantined.hosts
    assert len(scored) == warm
    assert len(memo) == len(HOSTS)  # unpenalized predictions only


@pytest.mark.parametrize("extra_load", (0.0, 1))
def test_parallel_bid_takes_the_n_fastest_slices(scored, extra_load):
    """A parallel task's context carries its node count, and its bid is
    the n smallest slice times; a sequential task of the same type and
    scale in the same round gets its own entries."""
    repo = _repo()
    model = PredictionModel()
    node = _node(mode=ComputationMode.PARALLEL, n_nodes=2)
    afg = _bag(2)
    afg.add_task(_node("p0", mode=ComputationMode.PARALLEL, n_nodes=2))
    afg.add_task(_node("p1", mode=ComputationMode.PARALLEL, n_nodes=2))
    memo = PredictMemo(afg)
    bid = bid_for_task(node, repo, model, lambda _h: extra_load, memo=memo)
    assert _agrees(bid, _oracle(model, repo, n_nodes=2,
                                extra_load=extra_load), n_nodes=2)
    assert bid.hosts == ("c2", "c1")
    bid_for_task(_node(), repo, model, lambda _h: extra_load, memo=memo)
    assert len(scored) == 2 * len(HOSTS)  # no cross-talk
    assert bid_for_task(node, repo, model, lambda _h: extra_load,
                        memo=memo) == bid
    assert len(scored) == 2 * len(HOSTS)


def test_model_variants_never_share_entries(scored):
    """One round runs one model; a round with another model starts from
    its own memo and scores every host afresh."""
    repo = _repo()
    afg = _bag(4)
    exact = PredictionModel()
    noisy = PredictionModel(noise=0.3, noise_seed=7)
    a = select_hosts(afg, repo, exact)
    exact_scores = len(scored)
    b = select_hosts(afg, repo, noisy)
    assert len(scored) == 2 * exact_scores
    assert a["t00"].predicted_time != b["t00"].predicted_time
    first = bid_for_task(_node(), repo, noisy, None)
    assert _agrees(first, _oracle(noisy, repo))
    assert _agrees(bid_for_task(_node(), repo, exact, None),
                   _oracle(exact, repo))
