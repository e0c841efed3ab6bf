"""Retry RNG streams are built at the first retry, and draw as before.

``ExecutionCoordinator._transfer_with_retry`` and ``_stage_with_retry``
jitter their backoff from a named stream, ``retry:{app}:{label}``.  A
fault-free run never backs off, so it must never build one of those
streams (each costs a ``SeedSequence`` and a generator, and lives as
long as the simulator).  When a link outage does force a retry, the
first backoff must be exactly the policy's pause for attempt 1 with the
stream's first draw — streams are keyed by name, so when the stream is
built cannot change what it yields.
"""

from repro.afg import (
    ApplicationFlowGraph,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
)
from repro.scheduler.allocation import AllocationTable, TaskAssignment
from repro.sim import FailureInjector, Simulator
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer

from tests.runtime.conftest import build_runtime

SITES = {
    "alpha": [("a1", 1.0, 256)],
    "beta": [("b1", 1.0, 256)],
}
APP = "retry"
FILE = FileSpec("/data/in.dat", 8.0)


def _cross_site_app():
    """``stage`` reads a file from alpha's server onto beta's host, then
    ships its output back to alpha over one dataflow edge."""
    afg = ApplicationFlowGraph(APP)
    afg.add_task(TaskNode(
        id="stage", task_type="generic.compute", n_in_ports=1, n_out_ports=1,
        properties=TaskProperties(inputs=(InputBinding(0, FILE),)),
    ))
    afg.add_task(TaskNode(id="sink", task_type="generic.compute",
                          n_in_ports=1, n_out_ports=1))
    afg.connect("stage", "sink", size_mb=8.0)
    table = AllocationTable(APP, scheduler="manual")
    table.assign(TaskAssignment("stage", "beta", ("b1",), 1.0))
    table.assign(TaskAssignment("sink", "alpha", ("a1",), 1.0))
    return afg, table


#: fault-free timeline: the file stages over [0.08, 4.10] and the edge
#: payload moves over [5.10, 9.12]; a 1 s outage inside either window
#: kills that transfer mid-flight
STAGE_OUTAGE = 1.0
EDGE_OUTAGE = 6.0


def _run(outage_start=None, seed=0):
    """Run the app, with the alpha-beta link down for 1 s from
    ``outage_start`` if given."""
    rt = build_runtime(site_hosts=SITES, seed=seed, tracer=Tracer())
    afg, table = _cross_site_app()
    if outage_start is not None:
        FailureInjector(rt.sim).schedule_link_outage(
            rt.topology.network.wan_link("alpha", "beta"),
            start=outage_start, duration=1.0)
    proc = rt.execute_process(afg, table)
    result = rt.sim.run_until_complete(proc, limit=1e5)
    return rt, result


def _first_retry_and_resume(events, label, resumes):
    """``label``'s first TRANSFER_RETRY event and the first event after
    it that ``resumes`` picks out: the first thing done after the pause."""
    retry = next(e for e in events
                 if e.kind == EventKind.TRANSFER_RETRY
                 and e.data["label"] == label)
    resumed = next(e for e in events if e.seq > retry.seq and resumes(e))
    return retry, resumed


def _expected(rt, seed, label):
    """Attempt 1's pause with the first draw of a freshly built stream."""
    u = float(Simulator(seed).rng(f"retry:{APP}:{label}").uniform())
    return rt.config.data_policy.backoff(1, u)


class TestFaultFreeRunBuildsNoRetryStream:
    def test_payloads_move_without_a_retry_stream(self):
        rt, result = _run()
        assert result.transfer_retries == 0
        # the file was staged across the WAN and the edge payload moved
        assert rt.io_service.staged_count == 1
        assert result.to_dict()["data_transfers"] >= 1
        assert not [s for s in rt.sim._rngs if s.startswith("retry:")]


class TestForcedOutageBacksOffByTheStreamsFirstDraw:
    def test_stage_with_retry(self):
        rt, result = _run(STAGE_OUTAGE)
        label = f"stage:{FILE.path}"
        # after the pause the I/O service starts a fresh staging transfer
        retry, resumed = _first_retry_and_resume(
            rt.sim.tracer.events(), label,
            lambda e: e.kind == EventKind.DATA_TRANSFER and e.source == "io")
        assert retry.data["attempt"] == 1
        assert resumed.time == retry.time + _expected(rt, 0, label)
        assert result.transfer_retries >= 1

    def test_transfer_with_retry(self):
        rt, result = _run(EDGE_OUTAGE)
        events = rt.sim.tracer.events()
        label = next(e for e in events
                     if e.kind == EventKind.TRANSFER_RETRY).data["label"]
        assert not label.startswith("stage:")
        # after the pause the edge's channel is re-established first
        retry, resumed = _first_retry_and_resume(
            events, label,
            lambda e: e.kind == EventKind.CHANNEL_REESTABLISH)
        assert retry.data["attempt"] == 1
        assert resumed.time == retry.time + _expected(rt, 0, label)
        assert result.transfer_retries >= 1

    def test_a_second_seed_draws_from_its_own_stream(self):
        """The expected pause really comes from the seeded stream: a
        different master seed moves it."""
        pauses = []
        for seed in (0, 1):
            rt, _result = _run(STAGE_OUTAGE, seed=seed)
            label = f"stage:{FILE.path}"
            retry, resumed = _first_retry_and_resume(
                rt.sim.tracer.events(), label,
                lambda e: e.kind == EventKind.DATA_TRANSFER
                and e.source == "io")
            assert resumed.time == retry.time + _expected(rt, seed, label)
            pauses.append(resumed.time - retry.time)
        assert pauses[0] != pauses[1]
