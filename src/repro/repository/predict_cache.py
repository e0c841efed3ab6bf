"""Memoized ``Predict(task, R)`` with explicit invalidation.

Host selection evaluates the prediction model for every (task, host)
pair per scheduling round, and the federation runs that round at every
site.  Between monitor reports a host's reported ``load`` and
``available_memory_mb`` are piecewise-constant, and a bag of similar
tasks asks the model the *same question* thousands of times — the
profile shows ``PredictionModel.predict`` as the single hottest frame
on bench_scalability.

:class:`PredictCache` memoizes on the **exact** prediction inputs:

``(model, task_type, scale, n_nodes, host name, reported load,
available memory, memory_mb, extra_load)``

The cache only stores.  Its one reader,
:func:`~repro.scheduler.host_selection.bid_for_task`, fetches the
:meth:`PredictCache.table` for a bid's context once and then looks up
— and on a miss, computes and fills — one entry per candidate host.

Exact keys, never quantized buckets: a hit returns the float the model
itself computed for identical inputs, so results are bit-identical by
construction and the determinism oracles cannot tell the cache was
there.  The model object participates in the key (it is a frozen,
hashable dataclass), so noise/ablation variants never collide.  A
host's static spec cannot change under a fixed name (re-registration
raises), so the name stands in for the spec.

Invalidation is a version check against
:attr:`~repro.repository.taskperf.TaskPerformanceDB.version`, which the
database bumps on registration *and* on every post-execution
calibration refinement — the only prediction inputs not present in the
key.  Slowdown/quarantine penalties from the straggler defense are
applied by the caller *after* prediction, so health-score updates need
no invalidation here (pinned by the predict-cache tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.repository.taskperf import TaskPerformanceDB

if TYPE_CHECKING:  # pragma: no cover - avoid repository -> scheduler cycle
    from repro.scheduler.prediction import PredictionModel

__all__ = ["PredictCache"]


class PredictCache:
    """Exact-key memo over ``PredictionModel.predict``.

    The memo is two-level: an outer table per *model value* (frozen
    dataclass equality), an inner table on the primitive inputs.  The
    outer lookup is short-circuited by an ``is`` check on the last
    model seen — schedulers pass the same model object for thousands of
    consecutive predictions, and hashing a five-field dataclass twice
    per lookup was itself a hot frame in the profile.
    """

    def __init__(self, task_perf: TaskPerformanceDB):
        self._task_perf = task_perf
        self._version = -1
        #: model -> inner memo table (exact model equality)
        self._tables: Dict["PredictionModel", Dict[Tuple, float]] = {}
        self._model: Optional["PredictionModel"] = None
        self._table: Dict[Tuple, float] = {}

    def table(
        self,
        model: "PredictionModel",
        task_type: str,
        scale: float,
        n_nodes: int,
        memory_mb: Optional[int],
    ) -> Dict[Tuple, float]:
        """The memo table for one prediction context, version-checked.

        A *context* is everything constant across one bid's candidate
        scan (model, task type, scale, node count, memory requirement);
        the returned dict maps the per-host remainder of the exact key
        — ``(host name, reported load, available memory, extra_load)``
        — to the model's float.  Callers on the hot path look up and
        fill this dict inline, paying the context hash once per bid
        instead of once per candidate.
        """
        if self._task_perf.version != self._version:
            self._tables.clear()
            self._model = None
            self._version = self._task_perf.version
        if model is self._model:
            outer = self._table
        else:
            outer = self._tables.get(model)
            if outer is None:
                outer = self._tables[model] = {}
            self._model = model
            self._table = outer
        ctx = (task_type, scale, n_nodes, memory_mb)
        inner = outer.get(ctx)
        if inner is None:
            inner = outer[ctx] = {}
        return inner

    def clear(self) -> None:
        self._tables.clear()
        self._model = None
        self._version = -1

    def __len__(self) -> int:
        return sum(
            len(inner)
            for outer in self._tables.values()
            for inner in outer.values()
        )
