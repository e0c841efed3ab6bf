"""The committed trajectory point's behaviour hashes, checked in tier-1.

``BENCH_6.json`` records each canonical scenario's ``trace_hash`` and
``metrics_hash``.  ``repro bench --compare BENCH_6.json --hash-only``
checks them too, but only where that command runs; this test makes any
tier-1 run fail the moment a scenario's behaviour drifts from the
committed document.
"""

import json
import os

import pytest

from benchmarks import harness

_BENCH_6 = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCH_6.json",
)


@pytest.mark.parametrize("name", harness.SCENARIO_ORDER)
def test_scenario_matches_bench_6(name):
    with open(_BENCH_6, encoding="utf-8") as fh:
        committed = json.load(fh)["scenarios"][name]
    result = harness.run_scenario(name, repeats=1)
    assert result["trace_hash"] == committed["trace_hash"]
    assert result["metrics_hash"] == committed["metrics_hash"]
