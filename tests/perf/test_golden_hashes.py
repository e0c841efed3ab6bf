"""Golden behaviour hashes for the scheduler and monitor hot paths.

Host lookup (:class:`~repro.repository.host_index.HostIndex`), one-pass
``Predict`` scoring with a per-round memo
(:meth:`~repro.scheduler.prediction.PredictionModel.predict_hosts`,
:class:`~repro.scheduler.host_selection.PredictMemo`), in-round
commitment accounting
(:class:`~repro.scheduler.host_selection.CommitmentLedger` and the site
scheduler's heap ready queue) and batched monitor/echo bookkeeping each
replaced a straightforward scan.  The pinned ``(trace_hash, metrics
snapshot_hash)`` pairs below were produced by that straightforward
implementation and by the optimized one alike, so a run of the current
code matching them proves the hot paths still behave exactly as the
plain reading of Figures 2-4 does.

Each pipeline is a full deterministic run — monitoring, the distributed
Fig. 2 message exchange, Fig. 3 bids and simulated execution — chosen so
that every rewritten branch is on the path:

``random_dag``
    24 sequential tasks over two 3-host sites: host index, Predict memo,
    commitment ledger, heap ready queue, monitor/echo bookkeeping.
``parallel_task``
    the linear solver, whose LU step runs on ``n_nodes=2`` hosts: the
    parallel branch of :func:`~repro.scheduler.host_selection.bid_for_task`.
    Pinned for seed 0 only — no load generator runs, so the topology
    seed does not reach this run and every seed hashes the same.
``no_accounting``
    ``SiteScheduler(account_commitments=False)``, the E13 ablation:
    every bid sees zero in-round load.
``fifo``
    ``SiteScheduler(use_level_priority=False)``, the E9 ablation: the
    ready set is walked in insertion order.
"""

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler
from repro.sim import TopologyBuilder
from repro.trace.serialize import trace_hash
from repro.trace.tracer import Tracer
from repro.workloads import RandomDAGConfig, linear_solver_afg, random_dag


def _random_dag(seed: int):
    return random_dag(RandomDAGConfig(n_tasks=24, width=4, mean_cost=2.0,
                                      ccr=0.4, seed=seed))


#: pipeline name -> (AFG factory by seed, SiteScheduler overrides)
PIPELINES = {
    "random_dag": (_random_dag, {}),
    "parallel_task": (lambda seed: linear_solver_afg(), {}),
    "no_accounting": (_random_dag, {"account_commitments": False}),
    "fifo": (_random_dag, {"use_level_priority": False}),
}

#: (pipeline, seed) -> (trace_hash, metrics snapshot_hash)
GOLDEN = {
    ("fifo", 0): (
        "899b1110578820c81f7898cad0d4286bd6d9f210dd87f00a8021b263514cbc2d",
        "0834e8d6de59e6d97f38d31739c26dd34808d376b82afc5ddfec2238ca4c5b8e",
    ),
    ("fifo", 1): (
        "c097703798db65cca0d728cdf34d9a12a67a76a4f7ea204b84240c65e6237b50",
        "32ce5ea5aa18858f64b7a56267690ff0fc586f31e0f180f96cc57bffeefd7b90",
    ),
    ("fifo", 2): (
        "660f990ed35984c632a8fadcbf0a5871223daec2905070fdf0c9637145aa4da6",
        "0132c5128b944a1378b077fc957910f6a1df47d0d82c206b66a024431fe7c964",
    ),
    ("no_accounting", 0): (
        "9e66265a846394ad07c5195832f809abeddd45e6a9198e79d6cd629b8e7d42da",
        "dca1acb6cce99771a0e4dcce3c479241e3a01c3434a83b3be26294cf7ef1036b",
    ),
    ("no_accounting", 1): (
        "62711dad001549bfe8625073d5b23e0ff72bedab16430c5b3135866b374ad3ef",
        "eb95e97332c7f50fc8ab5d986bffb864f26e15a2a8a4a2e1451a9d887c67938e",
    ),
    ("no_accounting", 2): (
        "45ccfa9cb7dd5940289ed75101b7bfce5a61e1f0ca2eaec4b48830d5892cefed",
        "99deb17aa050e9e9a11022e5359169f5d7eb5c7f0e31e0c0a63576c6a7fca3a5",
    ),
    ("parallel_task", 0): (
        "f22140603fa3844e719fae364babc4d04f5dcf711afd39ea61cff7e243041741",
        "6ac17711ba20d5ea1332ed8515529ca0a055441582401eeb1cf83361300ab467",
    ),
    ("random_dag", 0): (
        "fe43219b28991f5fa3b9da0cac01491aebf5e89cda77f0cbe464e691189e0314",
        "45a85d2e4a8c91a36a61e8f37b6aa049c3647113e8862783d79d4549ac402428",
    ),
    ("random_dag", 1): (
        "eea2957cbb3d375ffdc5ff7ca6ca3ffee2ef0b4992dde25d8c1d2ae26817a55d",
        "0a93d9ada2f687c75bc6ecf175d9b88df947da822ecea20c5fab42540013638e",
    ),
    ("random_dag", 2): (
        "628c81bf2541fed026cb4d432d777350d8df699500df9cdbaba83e99f138a61e",
        "d570533e243f849e618bcb01507e785ebba665bc09b4b6a33623c0cdf89ff8c9",
    ),
}


def _run_pipeline(name: str, seed: int):
    """One deterministic end-to-end run; returns (trace_hash, metrics_hash)."""
    make_afg, overrides = PIPELINES[name]
    tracer = Tracer()
    metrics = MetricsRegistry()
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    speeds = (1.0, 2.0, 4.0)
    for s in range(2):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h}", speeds[(s + h) % len(speeds)], 256)
            for h in range(3)
        ])
    rt = VDCERuntime(builder.build(), config=RuntimeConfig(),
                     tracer=tracer, metrics=metrics)
    rt.start_monitoring()
    afg = make_afg(seed)
    scheduler = SiteScheduler(k=1, model=rt.model, **overrides)

    def pipeline():
        table, _sched = yield from rt.schedule_process(
            afg, scheduler, local_site="site-0"
        )
        result = yield rt.execute_process(
            afg, table, submit_site="site-0", execute_payloads=False
        )
        return result

    rt.sim.run_until_complete(rt.sim.process(pipeline()))
    rt.export_metrics()
    return trace_hash(tracer.events()), metrics.snapshot_hash()


@pytest.mark.parametrize("pipeline,seed", sorted(GOLDEN))
def test_pipeline_matches_golden(pipeline, seed):
    assert _run_pipeline(pipeline, seed) == GOLDEN[(pipeline, seed)]
