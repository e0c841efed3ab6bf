"""VDCE benchmark: host time to simulate a federation, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all       # every workload, in turn

``--trace 0`` (the timed pass) repeats the workload on fresh
deployments for ``--seconds`` of host time with tracing off and prints
the end-to-end metrics as medians over the repetitions.  ``--trace 1``
makes a few untraced repetitions as its baseline, then one traced pass
(cProfile plus the program's tracer, metrics registry and causal spans)
and prints the per-layer metrics instead.  Every run checks the
program's outputs; the last line of standard output is one JSON object.
See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

import layers
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: generated inputs per workload seed.  Virtual-time metrics are exact
#: for one input but differ between inputs; the median over several
#: inputs in each run keeps them steady across seeds.  One random DAG's
#: makespan varies most, and its repetitions are the shortest.
INSTANCES = {"sweep": 4, "dataflow": 8, "multitenant": 4}

END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "makespan_vs": "vs",
    "turnaround_p50_vs": "vs",
    "turnaround_p90_vs": "vs",
}


def _import_program():
    """Put the checkout's program first on the path and import it."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"error: no program to measure under {ROOT}/src/repro")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    global workloads
    import workloads  # noqa: F401  (imports the program)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fail(message: str) -> None:
    print(f"CHECK FAILED: {message}")


def timed_rep(workload: str, seed: int):
    """One untraced repetition on a fresh deployment."""
    # the previous deployment is cyclic garbage: collect it before the
    # clock starts, not during the run
    gc.collect()
    t0 = time.perf_counter()
    dep = workloads.deploy(workload, seed)
    t1 = time.perf_counter()
    outcomes = workloads.execute(dep)
    t2 = time.perf_counter()
    checked = workloads.check(dep, outcomes)
    return {
        "seed": seed,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "schedule_s": dep.clock.schedule_s,
        "checked": checked,
    }


def timed_reps(workload: str, seeds, seconds: float):
    """Untraced repetitions over ``seeds`` in turn, filling ``seconds``.

    Every input seed runs at least twice, so each has a digest to
    compare.  The reference kernel runs before and after each
    repetition; the mean of the two gives the repetition's ``speed``
    (reference seconds per host second).
    """
    reps = []
    started = time.perf_counter()
    before = reference.probe()
    while True:
        rep_started = time.perf_counter()
        rep = timed_rep(workload, seeds[len(reps) % len(seeds)])
        after = reference.probe()
        rep["speed"] = reference.REFERENCE_S / ((before + after) / 2)
        before = after
        reps.append(rep)
        print(f"rep {len(reps)}: input {rep['seed']}, "
              f"setup {rep['setup_s']:.4f} s, run {rep['run_s']:.4f} s, "
              f"speed {rep['speed']:.3f}, "
              f"digest {rep['checked'].digest[:16]}")
        # stop unless one more repetition of this length still fits, so
        # a run ends near ``seconds``, not past it
        now = time.perf_counter()
        if (len(reps) >= 2 * len(seeds)
                and now - started + (now - rep_started) > seconds):
            return reps


def end_to_end(reps):
    """The end-to-end metrics; times are in reference seconds."""
    done = [r["checked"].attempted - r["checked"].failed for r in reps]
    # virtual time is exact per input: take each input's first repetition
    per_input = {}
    for r in reps:
        per_input.setdefault(r["seed"], r["checked"])
    inputs = list(per_input.values())

    def virtual(value_of):
        return statistics.median(value_of(c) for c in inputs)

    return {
        "tasks_per_s": statistics.median(
            n / (r["run_s"] * r["speed"]) for n, r in zip(done, reps)),
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in reps),
        "peak_mem_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan_vs": virtual(lambda c: c.makespan_vs),
        "turnaround_p50_vs": virtual(
            lambda c: workloads.percentile(c.turnarounds_vs, 0.5)),
        "turnaround_p90_vs": virtual(
            lambda c: workloads.percentile(c.turnarounds_vs, 0.9)),
    }


def traced_pass(workload: str, seed: int, reps):
    """One profiled, fully instrumented run; returns (metrics, checked)."""
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.attribution import explain
    from repro.trace.tracer import Tracer

    gc.collect()
    tracer = Tracer()
    dep = workloads.deploy(workload, seed, tracer=tracer,
                           metrics=MetricsRegistry())
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    outcomes = workloads.execute(dep)
    profiler.disable()
    wall = time.perf_counter() - t0
    checked = workloads.check(dep, outcomes)
    self_s, calls = layers.attribute(pstats.Stats(profiler))

    rt = dep.runtime
    stats = rt.stats
    events = rt.sim.events_processed
    links = {id(link): link for site in rt.topology.site_names
             for link in rt.topology.network.links_of_site(site)}
    results = [r for _, r in outcomes.values()
               if not isinstance(r, Exception)]
    waits = {}
    for app in explain(tracer.events())["apps"].values():
        for category, value in app["breakdown"].items():
            waits[category] = waits.get(category, 0.0) + value
    queue = dep.queue
    untraced = statistics.median(r["run_s"] for r in reps)
    schedule = statistics.median(r["schedule_s"] for r in reps)

    m = {}
    for layer, seconds in self_s.items():
        m[f"{layer}.self_s"] = _metric(seconds, "s")
    m.update({
        "sim.kernel.events": _metric(events, "count"),
        "sim.kernel.us_per_event": _metric(
            1e6 * self_s["sim.kernel"] / max(1, events), "us"),
        "sim.network.transfers": _metric(
            sum(link.transfer_count for link in links.values()), "count"),
        "sim.network.mb": _metric(
            sum(link.bytes_carried_mb for link in links.values()), "MB"),
        "scheduler.host_selection.bids": _metric(calls["bids"], "count"),
        "scheduler.host_selection.predicts_per_bid": _metric(
            calls["predicts"] / max(1, calls["bids"]), "ratio"),
        "scheduler.site_scheduler.waves": _metric(
            sum(_waves(sub.afg) for sub in dep.submissions), "count"),
        "scheduler.site_scheduler.messages": _metric(
            stats.scheduler_messages, "count"),
        "phase.schedule_s": _metric(schedule, "s"),
        "phase.execute_s": _metric(untraced - schedule, "s"),
        "repository.writes": _metric(stats.workload_forwards, "count"),
        "runtime.execution.attempts": _metric(
            sum(rec.attempts for res in results
                for rec in res.records.values()), "count"),
        "runtime.execution.channel_setups": _metric(
            stats.channel_setups, "count"),
        "runtime.execution.transfer_retries": _metric(
            stats.transfer_retries, "count"),
        "runtime.app_controller.checks": _metric(calls["checks"], "count"),
        "runtime.app_controller.reschedules": _metric(
            stats.reschedule_requests, "count"),
        "runtime.monitor.reports": _metric(stats.monitor_reports, "count"),
        "runtime.monitor.suppressed_ratio": _metric(
            stats.workload_suppressed / max(1, stats.monitor_reports),
            "ratio"),
        "runtime.monitor.echoes": _metric(stats.echo_packets, "count"),
        "net.rpc.retries": _metric(stats.rpc_retries, "count"),
        "net.rpc.timeouts": _metric(stats.rpc_timeouts, "count"),
        "runtime.admission.queue_wait_vs": _metric(stats.queue_wait_s, "vs"),
        "runtime.admission.peak_queued": _metric(
            queue.peak_queued if queue else 0, "count"),
        "runtime.admission.shed": _metric(
            len(queue.shed_log) if queue else 0, "count"),
        "runtime.straggler.backups": _metric(
            stats.speculative_launches, "count"),
        "trace.overhead_x": _metric(wall / untraced, "x"),
    })
    for category in ("queue", "scheduling", "staging", "execution", "retry"):
        m[f"wait.{category}_vs"] = _metric(waits.get(category, 0.0), "vs")
    return m, checked


def _waves(afg) -> int:
    """Ready-set generations the site scheduler walks for ``afg``."""
    generation = {}
    for task_id in afg.topological_order():
        parents = afg.parents(task_id)
        generation[task_id] = 1 + max(
            (generation[p] for p in parents), default=-1)
    return 1 + max(generation.values(), default=-1)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    seeds = workloads.input_seeds(seed, INSTANCES[workload])
    if trace:
        # untraced repetitions of the first input are only the baseline
        reps = timed_reps(workload, seeds[:1], 0.0)
        metrics, traced = traced_pass(workload, seeds[0], reps)
    else:
        reps = timed_reps(workload, seeds, seconds)
        metrics = {name: _metric(value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(reps).items()}

    checks = [(r["seed"], r["checked"]) for r in reps]
    if trace:
        checks.append((seeds[0], traced))
    correct = True
    digests = {}
    for input_seed, checked in checks:
        for problem in checked.problems:
            _fail(f"input {input_seed}: {problem}")
            correct = False
        digests.setdefault(input_seed, set()).add(checked.digest)
    for input_seed, found in digests.items():
        if len(found) != 1:
            _fail(f"input {input_seed}: {len(found)} different result "
                  "digests")
            correct = False
        print(f"input {input_seed}: digest {min(found)}")
    attempted = sum(checked.attempted for _, checked in checks)
    failed = sum(checked.failed for _, checked in checks)
    print(f"workload {workload}, seed {seed}, {len(reps)} timed reps")
    print(f"host speed {statistics.median(r['speed'] for r in reps):.4g} "
          "reference s per host s (median)")
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} tasks)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {workload} printed no result "
                  f"(exit {proc.returncode})")
            return 1
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("sweep", "dataflow", "multitenant", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
