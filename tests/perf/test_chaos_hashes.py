"""Golden hashes for the five chaos presets with causal spans on.

The hot-path pipelines and the BENCH_6 scenarios run with spans off, so
they say nothing about the span tree a fault family produces.  Each
preset here runs once at seed 0 with ``causal_spans=True``; the pinned
``(trace_hash, metrics_hash, campaign_hash)`` triple covers the spans
in the trace, the fault counters and the campaign record (outcomes,
invariant checks, recovery log) of every fault family: control-plane
kills and partitions, slowdowns, overload storms, data corruption and
membership churn.
"""

from dataclasses import replace

import pytest

from repro.sim.chaos import (
    churn_smoke_config,
    corruption_smoke_config,
    run_campaign,
    slowdown_smoke_config,
    smoke_config,
    storm_config,
)

#: preset -> (trace_hash, metrics_hash, campaign_hash) at seed 0, spans on
GOLDEN = {
    smoke_config: (
        "5ccbde7c84028e3845c468bea8e5971ce9f671a67f5d3d589bb84eff27a5af24",
        "e9baf96517a005c3d1cb7b125ad6f9bcbe6adc4302d3cf029d66a2594ad9910b",
        "427d1f586d8172a6a13142cc2d89568fe861bff834b2b63522ce762a2109ce4b",
    ),
    slowdown_smoke_config: (
        "2aef969fd9d23d37ea35c3108242afbb35ebd2a539493da4b0c4b537bdfaafe6",
        "d231eccf6f41c026c4e6e2329ff9de2fd5792bfcb9176a5e1f4ee1fbf57f9389",
        "8591ba4e0c94f70939f50569f11ede1672ff41bcad5b989fc226b9956905e00d",
    ),
    storm_config: (
        "247fd705db515c53825c3544c960775ae76e6606edc0cc9ac43815eb01184861",
        "6d1b26abe7dab49c7d8ebef4c578aac687f5f8fb1da24eb3487833db9464c69f",
        "46ae3d1217f974ccac2e9e9ca88ac4d0e61095f338c48437977a96e9ccbdabc4",
    ),
    corruption_smoke_config: (
        "03f2e6c229b061bdf01ad0efd3b13072e6980940eda8145a1546c40efd6bab97",
        "6610257787a6c571975036baa2854405308536fce14abde574a90f4d0c560a7f",
        "390181c9d673cb54203c15db7d84c8cd158a1c6e8632c23f92e55de0e9780cb7",
    ),
    churn_smoke_config: (
        "67b0344fbdeb3fc07d3bf661ca3b9b4008b43de2ed056ede805c461102dd12dc",
        "428a31b2d05ea148c9c52fcbff7eae9eb1c7b8aceef2a91eb0e3704d39bfe7e0",
        "3de747e7c97882fee1bced14ff65eb46f210856bea5784564efd446958359aaf",
    ),
}


@pytest.mark.parametrize("preset", list(GOLDEN), ids=lambda p: p.__name__)
def test_preset_with_spans_matches_golden(preset):
    result = run_campaign(replace(preset(seed=0), causal_spans=True))
    got = (result.trace_hash, result.metrics_hash, result.campaign_hash())
    assert got == GOLDEN[preset]
