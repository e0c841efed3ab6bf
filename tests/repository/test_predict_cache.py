"""PredictCache invalidation: a hit is always the model's own float.

The cache's correctness story has two halves: every dynamic input is
either part of the exact key (host name, reported load, available
memory, in-round extra load) or covered by the task-performance DB's
version counter (registration, calibration refinement).  These tests
drive each half — workload churn, slowdown-fault calibration updates,
quarantine/health changes — through ``bid_for_task``, the cache's one
reader, and require every warm-cache bid to equal an uncached minimum
over ``PredictionModel.predict``.  Hits and misses are observed from
outside: a miss is a call into the model, ``len(cache)`` counts
entries.
"""

import pytest

from repro.afg import ComputationMode, TaskNode, TaskProperties
from repro.repository import SiteRepository
from repro.repository.taskperf import TaskPerfRecord
from repro.scheduler.host_selection import bid_for_task
from repro.scheduler.prediction import PredictionModel
from repro.sim.host import HostSpec
from repro.tasklib.base import ParallelModel

TASK = "math.lu_decompose"
HOSTS = ("c0", "c1", "c2")

#: the unpatched model, for the oracle
_PREDICT = PredictionModel.predict


def _repo():
    repo = SiteRepository("cache-site")
    for i, name in enumerate(HOSTS):
        repo.resources.register_host(
            HostSpec(name=name, speed=1.0 + i, memory_mb=256))
        repo.constraints.register(TASK, name, f"/bin/{name}")
    repo.task_perf.register(TaskPerfRecord(
        task_type=TASK, computation_size=2.0,
        communication_size_mb=0.1, required_memory_mb=16,
        parallel=ParallelModel(overhead=0.1)))
    return repo


def _node(**props):
    return TaskNode(id="t0", task_type=TASK, n_in_ports=0, n_out_ports=1,
                    properties=TaskProperties(**props))


@pytest.fixture
def model_calls(monkeypatch):
    """Host names passed to PredictionModel.predict, in call order."""
    calls = []

    def counted(self, task_type, scale, n_nodes, host, *args, **kwargs):
        calls.append(host.name)
        return _PREDICT(self, task_type, scale, n_nodes, host, *args, **kwargs)

    monkeypatch.setattr(PredictionModel, "predict", counted)
    return calls


def _uncached(model, repo, n_nodes=1, extra_load=0.0, health=None):
    """The bid's oracle: (time, name) for every host, straight from the
    model, health factors applied, quarantined hosts dropped, sorted."""
    pairs = []
    for name in HOSTS:
        factor = 1.0 if health is None else health[name]
        if factor is None:
            continue
        time = _PREDICT(
            model, TASK, 1.0, n_nodes, repo.resources.get(name),
            repo.task_perf, memory_mb=None, extra_load=extra_load)
        pairs.append((time * factor, name))
    return sorted(pairs)


def _bid(repo, model, node=None, extra_load=0.0, health=None):
    return bid_for_task(
        node or _node(), repo, model, lambda _h: extra_load,
        health_of=None if health is None else health.__getitem__,
    )


def _agrees(bid, oracle, n_nodes=1):
    chosen = oracle[:n_nodes]
    return (bid.hosts == tuple(name for _, name in chosen)
            and bid.predicted_time == chosen[-1][0])


def test_hit_is_bit_identical_and_counted(model_calls):
    repo = _repo()
    model = PredictionModel()
    first = _bid(repo, model)
    assert sorted(model_calls) == list(HOSTS)
    assert len(repo.predict_cache) == len(HOSTS)
    second = _bid(repo, model)
    assert len(model_calls) == len(HOSTS)  # every lookup hit
    assert second == first
    assert _agrees(second, _uncached(model, repo))


def test_load_change_is_a_new_key_never_a_stale_hit(model_calls):
    repo = _repo()
    model = PredictionModel()
    before = _bid(repo, model)
    assert before.primary_host == "c2"  # the fastest host
    memory = repo.resources.get("c2").available_memory_mb
    repo.resources.update_workload("c2", load=3.0,
                                   available_memory_mb=memory, time=1.0)
    del model_calls[:]
    after = _bid(repo, model)
    assert model_calls == ["c2"]  # only the changed host missed
    assert len(repo.predict_cache) == len(HOSTS) + 1  # old key kept
    assert _agrees(after, _uncached(model, repo))
    assert after.primary_host != "c2"  # the load genuinely moved it
    # available memory is in the key too
    repo.resources.update_workload("c2", load=3.0,
                                   available_memory_mb=memory // 2, time=2.0)
    del model_calls[:]
    assert _agrees(_bid(repo, model), _uncached(model, repo))
    assert model_calls == ["c2"]


def test_calibration_refinement_invalidates_the_whole_cache(model_calls):
    """A slowdown fault shows up as measured >> expected; the resulting
    record_execution bumps the version and must flush every entry."""
    repo = _repo()
    model = PredictionModel()
    before = _bid(repo, model)
    # the winner ran 4x slower than predicted (a slowdown fault)
    repo.task_perf.record_execution(
        TASK, before.primary_host, expected_s=before.predicted_time,
        measured_s=4.0 * before.predicted_time)
    del model_calls[:]
    after = _bid(repo, model)
    # same keys, but the flush forced a recompute on every host
    assert sorted(model_calls) == list(HOSTS)
    assert len(repo.predict_cache) == len(HOSTS)
    assert _agrees(after, _uncached(model, repo))
    assert after != before


def test_registration_invalidates(model_calls):
    repo = _repo()
    model = PredictionModel()
    _bid(repo, model)
    assert len(repo.predict_cache) == len(HOSTS)
    repo.task_perf.register(TaskPerfRecord(
        task_type="signal.spectrum", computation_size=1.0,
        communication_size_mb=0.1, required_memory_mb=8))
    del model_calls[:]
    _bid(repo, model)
    assert sorted(model_calls) == list(HOSTS)
    # the pre-registration entries were flushed, not kept beside these
    assert len(repo.predict_cache) == len(HOSTS)


def test_quarantine_and_health_updates_need_no_invalidation(model_calls):
    """Health penalties multiply *after* prediction, so score updates
    must flow through a warm cache: the warm-cache bid equals the
    uncached minimum before, during, and after a quarantine, and no
    update costs a single model call."""
    repo = _repo()
    model = PredictionModel()
    health = {name: 1.0 for name in HOSTS}
    bid = _bid(repo, model, health=health)
    assert _agrees(bid, _uncached(model, repo, health=health))
    fastest = bid.primary_host
    warm = len(model_calls)
    # penalize then quarantine the winner; the warm cache must follow
    health[fastest] = 10.0
    bid = _bid(repo, model, health=health)
    assert _agrees(bid, _uncached(model, repo, health=health))
    assert bid.primary_host != fastest
    health[fastest] = None  # quarantined outright
    bid = _bid(repo, model, health=health)
    assert _agrees(bid, _uncached(model, repo, health=health))
    assert fastest not in bid.hosts
    assert len(model_calls) == warm


def test_int_and_float_extra_load_share_one_entry(model_calls):
    """The commit ledger's fast path hands out raw ints; int and float
    loads hash equal and promote exactly, so both forms must map to the
    same memo entry with the same float."""
    repo = _repo()
    model = PredictionModel()
    as_int = _bid(repo, model, extra_load=2)
    as_float = _bid(repo, model, extra_load=2.0)
    assert len(model_calls) == len(HOSTS)
    assert len(repo.predict_cache) == len(HOSTS)
    assert as_int == as_float
    assert _agrees(as_float, _uncached(model, repo, extra_load=2.0))


def test_model_variants_never_collide(model_calls):
    repo = _repo()
    cache = repo.predict_cache
    exact = PredictionModel()
    noisy = PredictionModel(noise=0.3, noise_seed=7)
    assert (cache.table(exact, TASK, 1.0, 1, None)
            is not cache.table(noisy, TASK, 1.0, 1, None))
    a = _bid(repo, exact)
    b = _bid(repo, noisy)
    assert len(model_calls) == 2 * len(HOSTS)
    assert a.predicted_time != b.predicted_time
    assert _agrees(a, _uncached(exact, repo))
    assert _agrees(b, _uncached(noisy, repo))
    # switching back re-hits the first model's table
    assert _bid(repo, exact) == a
    assert len(model_calls) == 2 * len(HOSTS)


@pytest.mark.parametrize("extra_load", (0.0, 1))
def test_parallel_bid_takes_the_n_fastest_slices(model_calls, extra_load):
    """A parallel task shares the memo with its own node count in the
    context, and its bid is the n smallest uncached slice times."""
    repo = _repo()
    model = PredictionModel()
    node = _node(mode=ComputationMode.PARALLEL, n_nodes=2)
    bid = _bid(repo, model, node=node, extra_load=extra_load)
    assert _agrees(bid, _uncached(model, repo, n_nodes=2,
                                  extra_load=extra_load), n_nodes=2)
    assert bid.hosts == ("c2", "c1")
    _bid(repo, model, extra_load=extra_load)
    assert len(model_calls) == 2 * len(HOSTS)  # no cross-talk
    assert _bid(repo, model, node=node, extra_load=extra_load) == bid
    assert len(model_calls) == 2 * len(HOSTS)
