"""Benchmark trajectory harness — the committed ``BENCH_*.json`` files.

Every PR that touches a hot path runs this harness (``python -m repro
bench`` or ``python benchmarks/harness.py``) and commits the canonical
JSON it emits at the repo root.  The file is the perf trajectory: each
scenario records wall seconds, simulated kernel events per wall-second,
tasks scheduled per wall-second, **and the run's trace/metrics hashes**
— so a speedup that changes behaviour is caught by the same artifact
that celebrates it.

Design rules:

* **Fixed workloads, fixed seeds.**  A scenario's simulated workload is
  identical in ``--quick`` and full mode (quick only reduces timing
  repetitions), so the oracle hashes are comparable across modes,
  machines, and PRs.
* **Timing and oracles are separate runs.**  The timed repetitions run
  with tracing and metrics disabled (the production configuration); one
  additional instrumented run produces ``trace_hash`` and
  ``metrics_hash``.
* **Regression gate.**  ``compare(prev, cur)`` fails on a >20% drop in
  any scenario's throughput and on *any* trace-hash change.  Across
  machines (CI vs the committing developer's box) use ``hash_only`` —
  wall-clock numbers are not comparable between hosts, behaviour is.
* **Baselines are older code.**  ``embed_baseline`` attaches a
  document measured on an earlier commit.  (``BENCH_6.json`` also
  carries ``flags``/``reference``/``speedup`` sections from a
  since-deleted flag-off pass; they are historical and :func:`compare`
  never reads them.)
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from repro.metrics.registry import NULL_METRICS, MetricsRegistry
from repro.obs.spans import SpanKind
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler
from repro.scheduler.host_selection import select_hosts
from repro.sim import TopologyBuilder
from repro.trace.serialize import trace_hash
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag

__all__ = [
    "SCENARIOS",
    "compare",
    "embed_baseline",
    "format_document",
    "run_all",
    "run_scenario",
    "run_traced",
]

#: schema version of the emitted document
SCHEMA = 1

#: canonical scenario order (subset of benchmarks/ the trajectory tracks)
SCENARIO_ORDER = ("end_to_end", "scalability", "host_selection")

#: RuntimeConfig override for scenario deployments.  None (always, for
#: the timed and hashed passes) means the stock ``RuntimeConfig()``;
#: :func:`run_traced` sets it temporarily for span-enabled passes so the
#: canonical workloads can be explained/profiled without touching the
#: committed hashes.
_SCENARIO_CONFIG: Optional[RuntimeConfig] = None


def _runtime(n_sites: int, hosts_per_site: int, seed: int,
             tracer: Tracer, metrics: MetricsRegistry) -> VDCERuntime:
    """A heterogeneous multi-site deployment (bench_scalability's shape)."""
    speeds = (1.0, 1.5, 2.0, 2.5)
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(n_sites):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h:02d}", float(speeds[(s + h) % len(speeds)]), 256)
            for h in range(hosts_per_site)
        ])
    return VDCERuntime(builder.build(),
                       config=_SCENARIO_CONFIG or RuntimeConfig(),
                       tracer=tracer, metrics=metrics)


def _schedule_and_execute(rt: VDCERuntime, afg, k: int) -> int:
    """Fig. 2 message exchange + placement, then simulated execution."""
    def run():
        table, _virtual = yield from rt.schedule_process(
            afg, SiteScheduler(k=k, model=rt.model), local_site="site-0"
        )
        result = yield rt.execute_process(
            afg, table, submit_site="site-0", execute_payloads=False
        )
        return result

    result = rt.sim.run_until_complete(rt.sim.process(run()))
    return len(result.records)


# -- scenarios ------------------------------------------------------------
#
# Each scenario builds a fresh deployment, runs a fixed-seed workload to
# completion, and returns the number of tasks it scheduled.  The harness
# reads wall time around the call and kernel event counts off rt.sim.

def _scenario_end_to_end(tracer: Tracer, metrics: MetricsRegistry) -> Dict:
    """bench_end_to_end's shape: full pipeline on a 4-site federation."""
    rt = _runtime(n_sites=4, hosts_per_site=4, seed=0,
                  tracer=tracer, metrics=metrics)
    rt.start_monitoring()
    afg = random_dag(RandomDAGConfig(n_tasks=120, width=6, mean_cost=3.0,
                                     ccr=0.3, seed=7))
    tasks = _schedule_and_execute(rt, afg, k=3)
    return {"tasks": tasks, "rt": rt}


def _scenario_scalability(tracer: Tracer, metrics: MetricsRegistry) -> Dict:
    """bench_scalability's shape, at production scale: a parameter-sweep
    style bag (384 identical tasks) over 8 sites x 8 hosts, scheduled
    through the distributed message exchange and executed under
    monitoring.  This is the headline hot path: host selection, Predict,
    in-round load accounting, and the event kernel all at full load."""
    rt = _runtime(n_sites=8, hosts_per_site=8, seed=0,
                  tracer=tracer, metrics=metrics)
    rt.start_monitoring()
    afg = bag_of_tasks(n=384, cost=4.0, heterogeneity=0.0, seed=0)
    tasks = _schedule_and_execute(rt, afg, k=7)
    return {"tasks": tasks, "rt": rt}


def _scenario_host_selection(tracer: Tracer, metrics: MetricsRegistry) -> Dict:
    """bench_fig3_host_selection's shape: pure Figure-3 placement of a
    300-task DAG at one 64-host site (no simulation — placement only)."""
    rt = _runtime(n_sites=1, hosts_per_site=64, seed=1,
                  tracer=tracer, metrics=metrics)
    repo = rt.repositories["site-0"]
    afg = random_dag(RandomDAGConfig(n_tasks=300, width=10, mean_cost=2.0,
                                     ccr=0.4, seed=1))
    # placement-only scenario: wrap the selection in a manual root +
    # schedule span so a span-enabled pass still yields an explainable
    # window (dead branches on the default, spans-off passes)
    spans = rt.sim.spans
    sched_span = None
    if spans.enabled:
        root = spans.root_of(afg.name, source="bench:host_selection")
        sched_span = spans.open(
            SpanKind.SCHEDULE, afg.name, parent=root,
            source="bench:host_selection", site="site-0",
        )
    results = select_hosts(afg, repo, model=rt.model,
                           tracer=tracer, metrics=metrics)
    if sched_span is not None:
        spans.close(sched_span, source="bench:host_selection",
                    tasks=len(results))
        spans.close_root(afg.name, source="bench:host_selection")
    return {"tasks": len(results), "rt": rt}


SCENARIOS: Dict[str, Callable[[Tracer, MetricsRegistry], Dict]] = {
    "end_to_end": _scenario_end_to_end,
    "scalability": _scenario_scalability,
    "host_selection": _scenario_host_selection,
}


# -- measurement ----------------------------------------------------------

def run_scenario(name: str, repeats: int = 3) -> Dict:
    """Time one scenario and produce its oracle hashes.

    ``repeats`` timed runs (tracing/metrics off — the production
    configuration) take the minimum wall time; one further instrumented
    run produces the trace/metrics hashes.  Workload and seeds are
    fixed, so the instrumented run re-simulates the same events.
    """
    fn = SCENARIOS[name]
    wall_s = float("inf")
    sim_events = 0
    tasks = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        out = fn(NULL_TRACER, NULL_METRICS)
        elapsed = time.perf_counter() - start
        wall_s = min(wall_s, elapsed)
        sim_events = out["rt"].sim.events_processed
        tasks = out["tasks"]

    tracer = Tracer()
    metrics = MetricsRegistry()
    out = fn(tracer, metrics)
    out["rt"].export_metrics()

    events_per_s = sim_events / wall_s if wall_s > 0 else 0.0
    tasks_per_s = tasks / wall_s if wall_s > 0 else 0.0
    return {
        "wall_s": round(wall_s, 6),
        "sim_events": sim_events,
        "events_per_s": round(events_per_s, 2),
        "tasks_scheduled": tasks,
        "tasks_per_s": round(tasks_per_s, 2),
        # regression gate input: kernel throughput when the scenario
        # simulates, placement throughput when it is scheduler-only
        "throughput": round(events_per_s if sim_events else tasks_per_s, 2),
        "trace_hash": trace_hash(tracer.events()),
        "metrics_hash": metrics.snapshot_hash(),
    }


def run_traced(name: str, causal_spans: bool = False):
    """One instrumented pass of a canonical scenario; returns its events.

    With ``causal_spans`` the deployment runs under
    ``RuntimeConfig(causal_spans=True)`` so the trace carries the full
    span tree — the input for ``repro explain --scenario`` and the
    ``repro bench --profile`` folded stacks.  This pass is separate from
    (and never replaces) the hashed oracle pass: the committed
    ``trace_hash``/``metrics_hash`` always come from the stock config.
    """
    global _SCENARIO_CONFIG
    tracer = Tracer()
    metrics = MetricsRegistry()
    if causal_spans:
        _SCENARIO_CONFIG = RuntimeConfig(causal_spans=True)
    try:
        SCENARIOS[name](tracer, metrics)
    finally:
        _SCENARIO_CONFIG = None
    return tracer.events()


def run_all(quick: bool = False, label: str = "BENCH_6") -> Dict:
    """Run every scenario; return the canonical bench document."""
    repeats = 1 if quick else 3
    return {
        "schema": SCHEMA,
        "label": label,
        "quick": bool(quick),
        "scenarios": {
            name: run_scenario(name, repeats=repeats)
            for name in SCENARIO_ORDER
        },
    }


def embed_baseline(document: Dict, baseline: Dict,
                   note: str = "pre-optimization measurement on the "
                               "committing machine") -> Dict:
    """Attach an older bench document as this one's fixed baseline.

    A baseline is a measurement of **older code** — typically the parent
    commit, before an optimization landed.  The baseline throughputs are
    copied verbatim; ``speedup_vs_baseline`` is this document's
    throughput over the baseline's, per scenario.
    """
    scenarios = baseline.get("scenarios", {})
    document["baseline"] = {
        "note": note,
        "scenarios": {
            name: {
                "throughput": s["throughput"],
                "wall_s": s["wall_s"],
                "trace_hash": s["trace_hash"],
            }
            for name, s in scenarios.items()
        },
    }
    document["speedup_vs_baseline"] = {
        name: round(document["scenarios"][name]["throughput"]
                    / s["throughput"], 2)
        for name, s in scenarios.items()
        if name in document.get("scenarios", {}) and s["throughput"] > 0
    }
    return document


# -- comparison (the regression + behaviour gate) -------------------------

#: default regression tolerance: fail on a >20% throughput drop
TOLERANCE = 0.20


def compare(previous: Dict, current: Dict, tolerance: float = TOLERANCE,
            hash_only: bool = False) -> List[str]:
    """Problems between two bench documents; empty list means clean.

    * any scenario whose ``trace_hash`` changed — behaviour changed;
    * (unless ``hash_only``) any scenario whose throughput dropped more
      than ``tolerance`` — a perf regression.

    Scenarios present in only one document are reported informationally
    by the caller; they are not failures (the trajectory grows).
    """
    problems: List[str] = []
    for side, document in (("previous", previous), ("current", current)):
        version = document.get("schema", SCHEMA)
        if version != SCHEMA:
            # refuse to compare across incompatible layouts — a silent
            # field mismatch would read as a spurious pass or failure
            return [
                f"{side} document has schema {version!r}; this harness "
                f"compares schema {SCHEMA} documents only"
            ]
    prev_scenarios = previous.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name in (n for n in SCENARIO_ORDER if n in prev_scenarios):
        if name not in cur_scenarios:
            problems.append(f"{name}: scenario missing from current run")
            continue
        prev, cur = prev_scenarios[name], cur_scenarios[name]
        if prev["trace_hash"] != cur["trace_hash"]:
            problems.append(
                f"{name}: trace hash changed "
                f"({prev['trace_hash'][:16]}... -> "
                f"{cur['trace_hash'][:16]}...) — behaviour is not "
                f"identical to the committed reference"
            )
        if prev.get("metrics_hash") != cur.get("metrics_hash"):
            problems.append(
                f"{name}: metrics snapshot hash changed — exported "
                f"aggregates differ from the committed reference"
            )
        if not hash_only:
            floor = prev["throughput"] * (1.0 - tolerance)
            if cur["throughput"] < floor:
                problems.append(
                    f"{name}: throughput regressed "
                    f"{prev['throughput']:.0f} -> {cur['throughput']:.0f} "
                    f"(> {tolerance:.0%} drop)"
                )
    return problems


def format_document(document: Dict) -> str:
    """Human-readable summary table of one bench document."""
    lines = [
        f"benchmark trajectory — {document.get('label', '?')}"
        f"{' (quick)' if document.get('quick') else ''}",
        f"{'scenario':<16} {'wall_s':>9} {'events':>8} {'ev/s':>10} "
        f"{'tasks':>6} {'tasks/s':>9}  trace_hash",
    ]
    for name in SCENARIO_ORDER:
        s = document["scenarios"].get(name)
        if s is None:
            continue
        lines.append(
            f"{name:<16} {s['wall_s']:>9.4f} {s['sim_events']:>8} "
            f"{s['events_per_s']:>10.0f} {s['tasks_scheduled']:>6} "
            f"{s['tasks_per_s']:>9.0f}  {s['trace_hash'][:16]}..."
        )
    if "speedup_vs_baseline" in document:
        rendered = ", ".join(
            f"{name} {ratio:.2f}x"
            for name, ratio in document["speedup_vs_baseline"].items()
        )
        lines.append(f"speedup vs committed baseline: {rendered}")
    return "\n".join(lines)


def to_json(document: Dict) -> str:
    """Canonical JSON serialization (sorted keys, trailing newline)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":  # pragma: no cover - CLI lives in repro.cli
    import sys

    doc = run_all(quick="--quick" in sys.argv)
    print(format_document(doc))
