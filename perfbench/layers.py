"""Outside-in layer tracing for the benchmark's traced mode.

The program is not edited: :func:`install` wraps the public functions
at each layer boundary in memory, from this file, before the verb
runs.  Each wrapper records one span (layer, start, end, parent) and
the exact work counts visible at that boundary.  Spans stay in memory
and each process writes its own file once, at exit; forked sweep
workers start from an empty span list and write theirs when the
worker loop returns.

:func:`rollup` turns the span files of one traced invocation into the
per-layer metrics named in ``BENCHMARK.json``.  A boundary that no
longer exists in the program makes every metric read from it ``None``
(absent), never 0, so a refactor cannot pass off a missing layer as a
free one.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Span layer names, one per wrapped boundary.
EXPERIMENT = "experiments.run"
RESULT = "experiments.result"
REQUEST = "experiments.counters"
CHARACTERIZE = "uarch.counters"
TRACE = "uarch.trace"
BRANCH_GEN = "uarch.branch.gen"
BRANCH_REPLAY = "uarch.branch.replay"
PIPELINE = "uarch.pipeline"
SIMULATOR = "uarch.simulator"
CACHE_RUN = "uarch.cache.run"
EXEC = "exec.run"
JOURNAL = "exec.journal"
SAVE = "obs.registry.save"
RUNNER = "workloads.runner"
HIERARCHY = "platform.make_hierarchy"
TLBS = "platform.make_tlb"

#: Exact counts read from the structures ``Platform.make_*`` hands out.
TOTALS = ("cache_refs", "cache_misses", "tlb_refs")

#: Which boundaries each reported metric is read from.  If any of them
#: is absent from the program, the metric is reported as ``None``.
METRIC_SOURCES = {
    "uarch.counters.s": (CHARACTERIZE,),
    "uarch.counters.calls": (CHARACTERIZE,),
    "uarch.counters.self_s": (CHARACTERIZE, TRACE, BRANCH_GEN,
                              BRANCH_REPLAY, PIPELINE),
    "uarch.counters.ns_per_ref": (CHARACTERIZE, TRACE, BRANCH_GEN,
                                  BRANCH_REPLAY, PIPELINE),
    "uarch.branch.gen_s": (BRANCH_GEN,),
    "uarch.branch.replay_s": (BRANCH_REPLAY,),
    "uarch.branch.events": (BRANCH_REPLAY,),
    "uarch.branch.mispredictions": (BRANCH_REPLAY,),
    "uarch.branch.ns_per_event": (BRANCH_REPLAY,),
    "uarch.simulator.s": (SIMULATOR,),
    "uarch.simulator.cache_run_s": (CACHE_RUN,),
    "uarch.simulator.curves": (SIMULATOR,),
    "uarch.simulator.refs": (CACHE_RUN,),
    "uarch.simulator.ns_per_ref": (CACHE_RUN,),
    "uarch.trace.s": (TRACE,),
    "uarch.trace.refs": (TRACE,),
    "uarch.cache.refs": (HIERARCHY, CHARACTERIZE),
    "uarch.cache.misses": (HIERARCHY, CHARACTERIZE),
    "uarch.tlb.refs": (TLBS, CHARACTERIZE),
    "experiments.self_s": (EXPERIMENT, RESULT, REQUEST, CHARACTERIZE,
                           EXEC, SIMULATOR, RUNNER),
    "experiments.memo_hit_ratio": (REQUEST, CHARACTERIZE),
    "workloads.s": (RUNNER,),
    "workloads.calls": (RUNNER,),
    "exec.s": (EXEC,),
    "exec.cell_s_sum": (EXEC,),
    "exec.efficiency": (EXEC,),
    "exec.cells_run": (EXEC,),
    "exec.cells_retried": (EXEC,),
    "exec.worker_restarts": (EXEC,),
    "exec.queue_wait_s": (EXEC,),
    "exec.journal_s": (JOURNAL,),
    "exec.journal_appends": (JOURNAL,),
    "obs.registry.save_s": (SAVE,),
}

#: Metrics that are exact work counts: two traced runs of the same
#: code and seed must report identical values.
WORK_COUNTS = (
    "uarch.counters.calls",
    "uarch.branch.events",
    "uarch.branch.mispredictions",
    "uarch.simulator.curves",
    "uarch.simulator.refs",
    "uarch.trace.refs",
    "uarch.cache.refs",
    "uarch.cache.misses",
    "uarch.tlb.refs",
    "experiments.memo_hit_ratio",
    "workloads.calls",
    "exec.cells_run",
    "exec.cells_retried",
    "exec.worker_restarts",
    "exec.journal_appends",
)


class SpanRecorder:
    """In-memory spans and counts of one process."""

    def __init__(self):
        #: ``[layer, start, end, parent index or -1, counts or None]``
        self.spans = []
        self.stack = []
        #: Cache hierarchies and TLBs handed out by ``Platform.make_*``
        #: and not yet counted.
        self.hierarchies = []
        self.tlbs = []
        self.totals = dict.fromkeys(TOTALS, 0)

    def reset(self) -> None:
        """Forget the parent's state in a freshly forked child.  The
        lists are cleared in place: the wrappers hold them."""
        for items in (self.spans, self.stack, self.hierarchies, self.tlbs):
            items.clear()
        self.totals.update(dict.fromkeys(TOTALS, 0))

    def wrap(self, layer, fn, count=None, before=None):
        """``fn`` recording a span per call.

        ``count(result, args, token)`` returns the call's work counts,
        where ``token`` is ``before(args)`` taken as the call starts.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span = [layer, time.perf_counter(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result, args, token)
            return result

        return traced

    def harvest(self) -> None:
        """Add the counts of every handed-out hierarchy and TLB."""
        for hierarchy in self.hierarchies:
            for level in hierarchy.stats():
                self.totals["cache_refs"] += level.accesses
                self.totals["cache_misses"] += level.misses
        for tlb in self.tlbs:
            self.totals["tlb_refs"] += tlb.accesses
        self.hierarchies.clear()
        self.tlbs.clear()

    def dump(self, path: str, absent) -> None:
        self.harvest()
        payload = {
            "absent": sorted(absent),
            "totals": self.totals,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(recorder: SpanRecorder, spans_dir: str) -> set:
    """Wrap every boundary; return the names of the absent ones."""
    import importlib
    import multiprocessing.util
    import pkgutil

    importlib.import_module("repro.cli")
    absent = set()

    def resolve(module_name, class_name=None):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        return getattr(owner, class_name, None) if class_name else owner

    def function(module_name, name, layer, count=None, wrapper=None):
        owner = resolve(module_name)
        original = getattr(owner, name, None)
        if not callable(original):
            absent.add(layer)
            return
        traced = recorder.wrap(layer, original, count)
        _rebind(original, wrapper(traced) if wrapper else traced)

    def method(module_name, class_name, name, layer, count=None,
               before=None):
        cls = resolve(module_name, class_name)
        original = getattr(cls, name, None)
        if not callable(original):
            absent.add(layer)
            return
        traced = recorder.wrap(layer, original, count, before)
        if isinstance(inspect.getattr_static(cls, name), staticmethod):
            traced = staticmethod(traced)
        setattr(cls, name, traced)

    # experiments: every experiment module's ``run``, and the context.
    runs = 0
    package = resolve("repro.experiments")
    for info in pkgutil.iter_modules(getattr(package, "__path__", [])):
        module_name = f"repro.experiments.{info.name}"
        if inspect.isfunction(getattr(resolve(module_name), "run", None)):
            function(module_name, "run", EXPERIMENT)
            runs += 1
    if not runs:
        absent.add(EXPERIMENT)
    method("repro.experiments.runner", "ExperimentContext", "result", RESULT)
    method("repro.experiments.runner", "ExperimentContext", "counters",
           REQUEST)

    # uarch: characterize and the stages it calls.  The cache and TLB
    # structures a characterization was handed are counted as it ends.
    def harvesting(traced):
        @functools.wraps(traced)
        def characterize(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                recorder.harvest()

        return characterize

    function("repro.uarch.counters", "characterize", CHARACTERIZE,
             wrapper=harvesting)
    for name in ("generate_fetch_trace", "generate_data_trace"):
        function("repro.uarch.trace", name, TRACE, _trace_refs)
    method("repro.uarch.branch", "BranchStreamGenerator", "generate",
           BRANCH_GEN)
    function("repro.uarch.branch", "simulate_branches", BRANCH_REPLAY,
             _branch_counts)
    function("repro.uarch.pipeline", "model_pipeline", PIPELINE)
    cls = resolve("repro.uarch.platforms", "Platform")
    for name, store, layer in (
            ("make_hierarchy", recorder.hierarchies, HIERARCHY),
            ("make_itlb", recorder.tlbs, TLBS),
            ("make_dtlb", recorder.tlbs, TLBS)):
        if callable(getattr(cls, name, None)):
            setattr(cls, name, _collecting(getattr(cls, name), store))
        else:
            absent.add(layer)

    # uarch.simulator: the capacity sweeps and the cache kernel.  Only
    # the sweeps that simulate (instance methods) count as curves; the
    # static ones combine finished curves.
    cls = resolve("repro.uarch.simulator", "CacheSweepSimulator")
    curves = [name for name in dir(cls) if name.endswith("_curve")]
    if not curves:
        absent.add(SIMULATOR)
    for name in curves:
        simulates = not isinstance(inspect.getattr_static(cls, name),
                                   staticmethod)
        method("repro.uarch.simulator", "CacheSweepSimulator", name,
               SIMULATOR, _one_curve if simulates else None)
    method("repro.uarch.cache", "SetAssociativeCache", "run", CACHE_RUN,
           _cache_refs, before=lambda args: args[0].accesses)

    # exec: the executor and its journal; obs: the record save.
    method("repro.exec.supervisor", "SweepExecutor", "run", EXEC,
           _outcome_counts)
    method("repro.exec.checkpoint", "SweepCheckpoint", "record", JOURNAL)
    method("repro.obs.registry", "RunRegistry", "save", SAVE)

    # workloads: each catalog entry's runner (frozen dataclasses).
    workloads = resolve("repro.workloads")
    definitions = {
        id(definition): definition
        for group in ("ALL_WORKLOADS", "MPI_WORKLOADS")
        for definition in getattr(workloads, group, ())
    }
    if not definitions or not all(callable(getattr(d, "runner", None))
                                  for d in definitions.values()):
        absent.add(RUNNER)
    else:
        for definition in definitions.values():
            object.__setattr__(definition, "runner",
                               recorder.wrap(RUNNER, definition.runner))

    # Each process writes its spans once, as it ends: the main process
    # from traced.py, forked sweep workers when their loop returns.
    # multiprocessing clears inherited finalizers in a new worker and
    # then runs the registered after-fork hooks, so register there.
    def after_fork(recorder):
        recorder.reset()
        multiprocessing.util.Finalize(
            None, recorder.dump,
            args=(os.path.join(spans_dir, f"{os.getpid()}.json"), absent),
            exitpriority=100,
        )

    multiprocessing.util.register_after_fork(recorder, after_fork)
    return absent


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in the program's loaded
    modules, including ``from module import name`` copies."""
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, replacement)


def _collecting(factory, store):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        made = factory(*args, **kwargs)
        store.append(made)
        return made

    return make


def _trace_refs(trace, args, token):
    return {"refs": len(trace)}


def _branch_counts(stats, args, token):
    return {"events": stats.branches, "mispredictions": stats.mispredictions}


def _one_curve(result, args, token):
    return {"curves": 1}


def _cache_refs(misses, args, accesses_before):
    return {"refs": args[0].accesses - accesses_before}


def _outcome_counts(outcome, args, token):
    executor, telemetry = args[0], outcome.telemetry
    return {
        "jobs": executor.jobs,
        "cell_s_sum": sum(r.seconds for r in outcome.results.values()),
        "cells_run": int(telemetry.get("cells_run", 0)),
        "cells_retried": int(telemetry.get("cells_retried", 0)),
        "worker_restarts": int(telemetry.get("worker_restarts", 0)),
        "queue_wait_s": telemetry.get("queue_wait_s", 0.0),
    }


# ---- rollup (runs in run.py) ------------------------------------------------
def load(spans_dir: str) -> list:
    """Every per-process span file of one traced invocation."""
    files = []
    for name in sorted(os.listdir(spans_dir)):
        if name.endswith(".json"):
            with open(os.path.join(spans_dir, name), encoding="utf-8") as f:
                files.append(json.load(f))
    return files


def rollup(processes: list) -> dict:
    """Per-layer metrics from the span files of one traced invocation."""
    absent = set()
    totals = dict.fromkeys(TOTALS, 0)
    seconds, self_seconds, calls, counts = {}, {}, {}, {}
    requests = misses = characterize_refs = 0
    jobs_s = 0.0
    for process in processes:
        absent.update(process["absent"])
        for key in TOTALS:
            totals[key] += process["totals"][key]
        spans = process["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (layer, start, end, parent, work) in enumerate(spans):
            for key, value in (work or {}).items():
                counts[layer, key] = counts.get((layer, key), 0) + value
            if layer == REQUEST:
                requests += 1
            elif layer == CHARACTERIZE and _within(spans, parent, REQUEST):
                misses += 1
            elif layer == TRACE and _within(spans, parent, CHARACTERIZE):
                characterize_refs += work["refs"]
            # A layer's time is that of its outermost spans, so a call
            # nested in another call of the same layer is not counted
            # twice.
            if _within(spans, parent, layer):
                continue
            duration = end - start
            seconds[layer] = seconds.get(layer, 0.0) + duration
            self_seconds[layer] = (self_seconds.get(layer, 0.0)
                                   + duration - children[index])
            calls[layer] = calls.get(layer, 0) + 1
            if layer == EXEC and work:
                jobs_s += work["jobs"] * duration

    def s(layer):
        return seconds.get(layer, 0.0)

    def per(numerator, denominator, scale=1.0):
        """A ratio, or 0 when its base is 0 (the layer did no work)."""
        return scale * numerator / denominator if denominator else 0.0

    events = counts.get((BRANCH_REPLAY, "events"), 0)
    sim_refs = counts.get((CACHE_RUN, "refs"), 0)
    cell_s_sum = counts.get((EXEC, "cell_s_sum"), 0.0)
    metrics = {
        "uarch.counters.s": s(CHARACTERIZE),
        "uarch.counters.calls": calls.get(CHARACTERIZE, 0),
        "uarch.counters.self_s": self_seconds.get(CHARACTERIZE, 0.0),
        "uarch.counters.ns_per_ref": per(
            self_seconds.get(CHARACTERIZE, 0.0), characterize_refs, 1e9),
        "uarch.branch.gen_s": s(BRANCH_GEN),
        "uarch.branch.replay_s": s(BRANCH_REPLAY),
        "uarch.branch.events": events,
        "uarch.branch.mispredictions":
            counts.get((BRANCH_REPLAY, "mispredictions"), 0),
        "uarch.branch.ns_per_event": per(s(BRANCH_REPLAY), events, 1e9),
        "uarch.simulator.s": s(SIMULATOR),
        "uarch.simulator.cache_run_s": s(CACHE_RUN),
        "uarch.simulator.curves": counts.get((SIMULATOR, "curves"), 0),
        "uarch.simulator.refs": sim_refs,
        "uarch.simulator.ns_per_ref": per(s(CACHE_RUN), sim_refs, 1e9),
        "uarch.trace.s": s(TRACE),
        "uarch.trace.refs": counts.get((TRACE, "refs"), 0),
        "uarch.cache.refs": totals["cache_refs"],
        "uarch.cache.misses": totals["cache_misses"],
        "uarch.tlb.refs": totals["tlb_refs"],
        "experiments.self_s": self_seconds.get(EXPERIMENT, 0.0),
        "experiments.memo_hit_ratio": per(requests - misses, requests),
        "workloads.s": s(RUNNER),
        "workloads.calls": calls.get(RUNNER, 0),
        "exec.s": s(EXEC),
        "exec.cell_s_sum": cell_s_sum,
        "exec.efficiency": per(cell_s_sum, jobs_s),
        "exec.cells_run": counts.get((EXEC, "cells_run"), 0),
        "exec.cells_retried": counts.get((EXEC, "cells_retried"), 0),
        "exec.worker_restarts": counts.get((EXEC, "worker_restarts"), 0),
        "exec.queue_wait_s": counts.get((EXEC, "queue_wait_s"), 0.0),
        "exec.journal_s": s(JOURNAL),
        "exec.journal_appends": calls.get(JOURNAL, 0),
        "obs.registry.save_s": s(SAVE),
    }
    for name, sources in METRIC_SOURCES.items():
        if absent.intersection(sources):
            metrics[name] = None
    return metrics


def _within(spans, parent: int, layer: str) -> bool:
    """Whether a span whose parent is ``parent`` runs inside ``layer``."""
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False
