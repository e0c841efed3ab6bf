"""How many host scores the model computes and how many the round memo
serves, pinned.

Every bid scores each feasible host of its site.  A score comes either
from the model (``PredictionModel.predict_hosts``) or, for a context two
or more of the AFG's tasks share, from the round's
:class:`~repro.scheduler.host_selection.PredictMemo`.  The counts below
are exact for a fixed deployment and workload: the Fig. 2 exchange over
2 sites x 4 hosts with ``k=1`` (the remote site's host-selection round,
then the local scheduling round over both sites).

A bag of 64 identical tasks is the memo's case — deleting the memo
would make the model score every host of every bid.  A bag of 64 tasks
that all differ in scale is the one-pass case: nothing is shared, so
the memo must stay empty and the model scores everything.
"""

import pytest

from benchmarks.harness import _runtime
from repro.metrics.registry import NULL_METRICS
from repro.scheduler import SiteScheduler
from repro.scheduler import host_selection, site_scheduler
from repro.scheduler.prediction import PredictionModel
from repro.trace.tracer import NULL_TRACER
from repro.workloads import bag_of_tasks

#: heterogeneity -> (host scores, scored by the model, served by the memo)
EXPECTED = {
    0.0: (768, 138, 630),
    0.5: (768, 768, 0),
}


@pytest.mark.parametrize("heterogeneity", sorted(EXPECTED),
                         ids=("identical", "heterogeneous"))
def test_model_and_memo_score_counts(monkeypatch, heterogeneity):
    counts = {"scores": 0, "model": 0}
    memos = []
    bid_for_task = host_selection.bid_for_task
    predict_hosts = PredictionModel.predict_hosts
    memo_init = host_selection.PredictMemo.__init__

    def counted_bid(task, repo, *args, **kwargs):
        counts["scores"] += len(host_selection.candidate_hosts(task, repo))
        return bid_for_task(task, repo, *args, **kwargs)

    def counted_predict(self, task_type, scale, n_nodes, hosts, *args,
                        **kwargs):
        counts["model"] += len(hosts)
        return predict_hosts(self, task_type, scale, n_nodes, hosts,
                             *args, **kwargs)

    def kept_memo(self, afg):
        memo_init(self, afg)
        memos.append(self)

    monkeypatch.setattr(host_selection, "bid_for_task", counted_bid)
    monkeypatch.setattr(site_scheduler, "bid_for_task", counted_bid)
    monkeypatch.setattr(PredictionModel, "predict_hosts", counted_predict)
    monkeypatch.setattr(host_selection.PredictMemo, "__init__", kept_memo)

    rt = _runtime(n_sites=2, hosts_per_site=4, seed=0,
                  tracer=NULL_TRACER, metrics=NULL_METRICS)
    afg = bag_of_tasks(n=64, cost=2.0, heterogeneity=heterogeneity, seed=0)

    def schedule():
        table, _ = yield from rt.schedule_process(
            afg, SiteScheduler(k=1, model=rt.model), local_site="site-0")
        return table

    table = rt.sim.run_until_complete(rt.sim.process(schedule()))
    assert len(table) == 64
    assert len(memos) == 2  # one select_hosts round, one scheduling round

    scores, model, memo = EXPECTED[heterogeneity]
    assert counts["scores"] == scores
    assert counts["model"] == model
    assert counts["scores"] - counts["model"] == memo
    if heterogeneity:
        assert [len(m) for m in memos] == [0, 0]
    else:
        # every model score of a shared context is kept for the round
        assert sum(len(m) for m in memos) == model
