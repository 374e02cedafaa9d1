"""Instrumentation the benchmark attaches to the program from outside.

Two layers of hooks, both installed by monkey-patching public entry
points of :mod:`repro` and removed again on exit:

* :class:`Probe` - always on.  A :class:`~refclock.ReferenceClock`
  mark when a trainer's ``run`` starts and one per appended round
  record, so set-up time and per-round time are measured without
  touching ``src/``.  It also remembers every shared-memory segment the
  program creates, so the benchmark can prove it leaves none behind.
  Its cost is a few function calls per round, plus the reference kernel
  when a mark calibrates.
* :class:`Tracer` - only in ``--trace 1`` passes.  It records a span
  (name, start, end, parent) at each layer boundary plus the counts the
  per-layer metrics need.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from multiprocessing import shared_memory

import numpy as np

from repro.availability.churn import ChurnProcess
from repro.availability.deadline import DeadlineArrivals
from repro.clustering.kmeans import KMeans
from repro.core import flips as core_flips
from repro.data.dataset import Dataset
from repro.experiments import runner
from repro.fl.algorithms import ServerOptimizer
from repro.fl.async_engine import AsyncFederatedTrainer
from repro.fl.engine import FederatedTrainer
from repro.fl.evaluation import EvaluationPolicy
from repro.fl.execution import ClientExecutor
from repro.fl.history import TrainingHistory
from repro.fl.party import Party
from repro.fl.planning import RoundPlanner
from repro.fl.updates import UpdateCompressor, UpdateValidator
from repro.ml.cohort import CohortTrainer
from repro.selection.base import SelectionStrategy

from refclock import ReferenceClock

_clock = time.perf_counter


def _hierarchy(base: type) -> "list[type]":
    """``base`` and every subclass of it, depth first."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class _Patches:
    """Monkey-patches that are undone, in reverse order, on exit."""

    def __init__(self) -> None:
        self._undo: list = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(
            make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def wrap_all(self, base: type, attr: str, make_wrapper) -> None:
        """Wrap ``attr`` on every class of ``base``'s hierarchy that
        defines it itself (a subclass may override it)."""
        for cls in _hierarchy(base):
            if attr in cls.__dict__:
                self.wrap(cls, attr, make_wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Probe(_Patches):
    """Round marks and leak bookkeeping for every pass.

    ``begin_job(calibrate)`` starts a job's :class:`ReferenceClock` and
    marks the start; ``end_job()`` marks the end.  In between,
    ``run_entered`` is the mark taken when the trainer's ``run``
    started, ``appended`` the mark after each round record and
    ``trainer`` the trainer that ran.  Party-shard slicing and the data,
    clustering and k-means entry points mark too, so long set-up phases
    are calibrated inside.
    """

    def __init__(self) -> None:
        super().__init__()
        self.created_segments: "list[str]" = []
        self.begin_job(calibrate=False)

    def begin_job(self, calibrate: bool) -> None:
        self.clock = ReferenceClock(calibrate)
        self.started = self.clock.mark(force=True)
        self.ended: "int | None" = None
        self.run_entered: "int | None" = None
        self.appended: "list[int]" = []
        self.trainer = None

    def end_job(self) -> None:
        self.ended = self.clock.mark(force=True)

    def __enter__(self):
        probe = self

        def run_wrapper(original):
            def run(trainer, *args, **kwargs):
                probe.run_entered = probe.clock.mark()
                probe.trainer = trainer
                return original(trainer, *args, **kwargs)
            return run

        def append_wrapper(original):
            def append(history, record):
                original(history, record)
                probe.appended.append(probe.clock.mark())
            return append

        def mark_wrapper(original):
            def marked(*args, **kwargs):
                result = original(*args, **kwargs)
                probe.clock.mark()
                return result
            return marked

        def segment_wrapper(original):
            def __init__(segment, name=None, create=False, size=0,
                         *args, **kwargs):
                original(segment, name, create, size, *args, **kwargs)
                if create:
                    probe.created_segments.append(segment.name)
            return __init__

        self.wrap(FederatedTrainer, "run", run_wrapper)
        self.wrap(AsyncFederatedTrainer, "run", run_wrapper)
        self.wrap(TrainingHistory, "append", append_wrapper)
        self.wrap(Dataset, "subset", mark_wrapper)
        self.wrap(runner, "build_federation", mark_wrapper)
        self.wrap(core_flips, "cluster_label_distributions", mark_wrapper)
        self.wrap(KMeans, "fit", mark_wrapper)
        self.wrap(shared_memory.SharedMemory, "__init__", segment_wrapper)
        return self


class Tracer(_Patches):
    """Spans and counts at the layer boundaries of one traced pass.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``parent`` is
    the index of the enclosing span or -1.  A call that re-enters a
    span of the same name (``super()`` chains) is not recorded twice.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: "list[int]" = []
        self._open: Counter = Counter()
        self._fold: "int | None" = None
        self._in_async = False

    # -- span bookkeeping --------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def close(self, index: int) -> None:
        # Spans a failing call left open end with the span that owned them.
        if index not in self._stack:
            return
        while self._stack:
            top = self._stack.pop()
            span = self.spans[top]
            span[2] = _clock()
            self._open[span[0]] -= 1
            if top == index:
                return

    def close_all(self) -> None:
        """End every open span (a job that raised mid-fold)."""
        if self._stack:
            self.close(self._stack[0])
        self._fold = None

    def __exit__(self, *exc) -> None:
        self.close_all()
        super().__exit__(*exc)

    def span(self, name: str, after=None):
        """Wrapper factory: time each call as span ``name`` and let
        ``after(args, kwargs, result)`` update the counts."""
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                if tracer._open[name]:
                    return original(*args, **kwargs)
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return traced
        return make

    # -- the layer boundaries ----------------------------------------------
    def __enter__(self):
        counts = self.counts
        tracer = self

        def federation_built(args, kwargs, federation):
            counts["data.rows"] += int(federation.party_sizes().sum()) + \
                len(federation.test)

        def clustered(args, kwargs, model):
            counts["clustering.k"] += model.k

        def online_drawn(args, kwargs, mask):
            counts["availability.masks"] += 1
            counts["availability.online"] += (
                1.0 if mask is None else float(np.mean(mask)))

        def planned(args, kwargs, plan):
            if plan is None:
                counts["planning.empty_plans"] += 1
                return
            counts["planning.cohort"] += len(plan.cohort)
            counts["planning.stragglers"] += len(plan.stragglers)

        def executed(args, kwargs, updates):
            plan = args[1] if len(args) > 1 else kwargs["plan"]
            counts["execution.participants"] += len(plan.cohort)
            counts["execution.arrivals"] += len(updates)
            if plan.faults is not None:
                counts["execution.retries"] += plan.faults.n_retried

        def cohort_trained(args, kwargs, result):
            shards = args[1] if len(args) > 1 else kwargs["shards"]
            counts["ml.cohort_parties"] += len(shards)

        def validated(args, kwargs, result):
            counts["updates.quarantined"] += len(result[1])

        def evaluated(args, kwargs, result):
            counts["evaluation.fresh"] += int(bool(result.fresh))

        def async_wrapper(original):
            def run(*args, **kwargs):
                tracer._in_async = True
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._in_async = False
            return run

        def fold_opener(original):
            # A buffered fold has no method of its own: it runs from its
            # first fold-phase call (validate, step or evaluate, all made
            # only while folding) to the aggregation record being logged.
            def opened(*args, **kwargs):
                if tracer._in_async and tracer._fold is None:
                    tracer._fold = tracer.open("aggregation.fold")
                return original(*args, **kwargs)
            return opened

        def event_wrapper(original):
            def append_event(history, event):
                if tracer._fold is not None:
                    tracer.close(tracer._fold)
                    tracer._fold = None
                return original(history, event)
            return append_event

        self.wrap(runner, "build_federation",
                  self.span("data.build", federation_built))
        self.wrap(core_flips, "cluster_label_distributions",
                  self.span("clustering.fit", clustered))
        self.wrap(KMeans, "fit", self.span("clustering.kmeans"))
        self.wrap(SelectionStrategy, "validated_select",
                  self.span("selection.select"))
        self.wrap_all(SelectionStrategy, "report_round",
                      self.span("selection.report"))
        self.wrap(RoundPlanner, "online_mask",
                  self.span("availability.mask", online_drawn))
        self.wrap(ChurnProcess, "departed_mask",
                  self.span("availability.mask"))
        self.wrap(DeadlineArrivals, "draw",
                  self.span("availability.deadline"))
        self.wrap(RoundPlanner, "plan_dispatch",
                  self.span("planning.plan", planned))
        self.wrap_all(ClientExecutor, "execute",
                      self.span("execution.execute", executed))
        self.wrap(Party, "local_train", self.span("ml.local_train"))
        self.wrap(CohortTrainer, "train",
                  self.span("ml.cohort_train", cohort_trained))
        self.wrap(UpdateCompressor, "compress",
                  self.span("updates.compress"))
        self.wrap(UpdateValidator, "partition",
                  self.span("updates.validate", validated))
        self.wrap(UpdateValidator, "partition", fold_opener)
        self.wrap_all(ServerOptimizer, "step", self.span("algorithms.step"))
        self.wrap_all(ServerOptimizer, "step", fold_opener)
        self.wrap(FederatedTrainer, "_aggregate",
                  self.span("aggregation.fold"))
        self.wrap(TrainingHistory, "append_event", event_wrapper)
        self.wrap_all(EvaluationPolicy, "evaluate",
                      self.span("evaluation.evaluate", evaluated))
        self.wrap_all(EvaluationPolicy, "evaluate", fold_opener)
        self.wrap(FederatedTrainer, "run", self.span("engine.run"))
        self.wrap(AsyncFederatedTrainer, "run", self.span("engine.run"))
        self.wrap(AsyncFederatedTrainer, "run", async_wrapper)
        return self

    # -- derived numbers ---------------------------------------------------
    def totals(self) -> "tuple[dict, dict, dict]":
        """Per span name: call count, total seconds and self seconds.

        A span's self time is its duration minus the part its child
        spans cover."""
        calls: Counter = Counter()
        total: "defaultdict[str, float]" = defaultdict(float)
        children: "defaultdict[int, float]" = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            if parent >= 0:
                children[parent] += duration
        own: "defaultdict[str, float]" = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - children[index]
        return calls, total, own
