"""Layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of the ``repro.*`` layers
for the duration of a traced run, patching each name where its caller
looks it up (``repro.runtime.program`` imports ``compile_source``,
``analyze_module`` and ``instrument_module`` by name, so those are
patched there; lazily imported names are patched on their package).
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` restores
every original, so untraced runs execute the unmodified code.

Each wrapped call records one span: name, start, end, parent span (the
innermost open span on the same thread) and the operation id of the
campaign, program or job the calling thread is working on.  Very hot
entry points (``Monitor.drain``, once per scheduling quantum) record a
call count and total time instead; that time is charged as child time
of the enclosing span, so self times still add up.  Spans stay in
memory until :meth:`Tracer.dump` writes them when the run ends.

A layer is the first dotted component of a span name; its self time is
the sum over its spans of duration minus the time of child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: The layers reported, in pipeline order.
LAYERS = ("frontend", "analysis", "lint", "instrument", "opt", "runtime",
          "monitor", "faults", "parallel", "store", "serve", "triage")


class _Frame:
    __slots__ = ("span_id", "name", "start", "parent", "op", "child_ns")

    def __init__(self, span_id, name, start, parent, op):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.op = op
        self.child_ns = 0


class _ThreadState:
    """Per-thread span stack and tallies; merged when the run ends, so
    the hot paths take no lock."""

    __slots__ = ("thread", "stack", "op", "spans", "agg", "counts",
                 "golden_steps")

    def __init__(self, thread: str):
        self.thread = thread
        self.golden_steps = 0
        self.stack: List[_Frame] = []
        self.op: Optional[str] = None
        self.spans: List[tuple] = []
        #: name -> [calls, total ns] for aggregated (hot) entry points.
        self.agg: Dict[str, List[int]] = {}
        self.counts: Counter = Counter()


class Tracer:
    """In-memory span recorder plus the patch set of every layer."""

    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self._stores: Dict[int, object] = {}
        #: Client operation id -> server job id (serve spans carry each).
        self.links: Dict[str, str] = {}
        #: Samples for distribution metrics (e.g. injection latency).
        self._samples: Dict[str, List[float]] = {}

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def set_op(self, op: Optional[str]) -> None:
        """Stamp later spans of the calling thread with operation ``op``."""
        self._state().op = op

    def begin(self, name: str) -> _Frame:
        state = self._state()
        stack = state.stack
        parent = stack[-1].span_id if stack else None
        frame = _Frame(next(self._ids), name, time.perf_counter_ns(),
                       parent, state.op)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> int:
        """Close ``frame`` (the innermost open span); returns its
        duration in ns."""
        end = time.perf_counter_ns()
        state = self._state()
        state.stack.pop()
        duration = end - frame.start
        if state.stack:
            state.stack[-1].child_ns += duration
        state.spans.append((frame.span_id, frame.name, frame.start, end,
                            frame.parent, frame.op, state.thread,
                            duration - frame.child_ns))
        return duration

    def record(self, name: str, start: int, end: int,
               parent: Optional[_Frame] = None) -> None:
        """A span measured from outside a call (``watch`` state events),
        as a child of the open ``parent`` frame."""
        state = self._state()
        duration = end - start
        if parent is not None:
            parent.child_ns += duration
        state.spans.append((next(self._ids), name, start, end,
                            parent.span_id if parent else None,
                            state.op, state.thread, duration))

    def count(self, name: str, amount: int = 1) -> None:
        self._state().counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self._samples.setdefault(name, []).append(value)

    def samples(self, name: str) -> List[float]:
        return list(self._samples.get(name, ()))

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Patch ``owner.attr`` to record span ``name`` per call;
        ``after(result, args, kwargs, duration_ns)`` adds counts."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                frame = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    duration = tracer.end(frame)
                if after is not None:
                    after(result, args, kwargs, duration)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _aggregate(self, owner, attr: str, name: str,
                   counter: Optional[str] = None) -> None:
        """Patch a hot method to record calls + total time only; an int
        result is summed into ``counter``."""
        tracer = self
        clock = time.perf_counter_ns

        def make(original):
            def wrapper(*args, **kwargs):
                started = clock()
                result = original(*args, **kwargs)
                elapsed = clock() - started
                state = tracer._state()
                tally = state.agg.get(name)
                if tally is None:
                    tally = state.agg[name] = [0, 0]
                tally[0] += 1
                tally[1] += elapsed
                if counter is not None:
                    state.counts[counter] += result
                if state.stack:
                    state.stack[-1].child_ns += elapsed
                return result
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        import repro.faults.campaign as campaign
        import repro.lint
        import repro.lint.vuln
        import repro.opt
        import repro.runtime.closures as closures
        import repro.runtime.program as program
        import repro.triage
        import repro.triage.report as triage_report
        from repro.monitor.monitor import Monitor
        from repro.serve.scheduler import CampaignScheduler
        from repro.store.artifacts import ArtifactStore
        from repro.store.journal import JournalWriter

        count = self.count

        def instructions(module) -> int:
            return sum(1 for function in module.function_table
                       for _ in function.instructions())

        self._span(program, "compile_source", "frontend.compile_source",
                   lambda module, a, k, d: count("frontend.ir_instructions",
                                                 instructions(module)))
        self._span(program, "analyze_module", "analysis.analyze_module")
        self._span(program, "instrument_module",
                   "instrument.instrument_module",
                   lambda meta, a, k, d: count("analysis.checked_branches",
                                               len(meta.branches)))
        self._span(repro.lint, "lint_module", "lint.lint_module",
                   lambda report, a, k, d: count(
                       "lint.racy_locations", len(report.racy_locations)))
        for owner in (repro.lint.vuln, repro.lint):
            self._span(owner, "analyze_program", "lint.vuln.analyze_program")
        self._span(repro.opt, "optimize_module", "opt.optimize_module",
                   lambda report, a, k, d: count(
                       "opt.ir_instructions_removed",
                       report.instructions_before
                       - report.instructions_after))

        def note_run(result, args, kwargs, duration):
            count("runtime.steps", result.steps)
            stack = self._state().stack
            if stack and stack[-1].name == "faults.injection":
                count("faults.injection_steps", result.steps)

        self._span(program.ParallelProgram, "run", "runtime.run", note_run)

        def note_golden(result, args, kwargs, duration):
            # Later injections of this campaign (same thread) replay
            # against these golden steps: faults.replay_ratio's base.
            self._state().golden_steps = result.steps
            count("faults.golden_runs")
            if result.detected:
                count("faults.golden_detections")

        self._span(campaign, "golden_run", "runtime.golden", note_golden)
        self._span(closures, "get_compiled", "runtime.closure_compile")
        self._aggregate(Monitor, "drain", "monitor.drain",
                        counter="monitor.messages")

        def note_injection(outcomes, args, kwargs, duration):
            self.sample("faults.injection_ms", duration / 1e6)
            count("faults.injections")
            count("faults.replay_base_steps", self._state().golden_steps)
            count("faults.outcome.%s" % outcomes[0].value)

        self._span(campaign, "run_one_injection", "faults.injection",
                   note_injection)
        self._wrap_run_tasks(campaign)

        def remember_store(result, args, kwargs, duration):
            self._stores[id(args[0])] = args[0]

        for attr in ("get_program", "get_golden", "get_triage"):
            self._span(ArtifactStore, attr, "store." + attr, remember_store)

        def note_put(result, args, kwargs, duration):
            store, key = args[0], args[1]
            path = os.path.join(store._entry_dir(key), "data.pkl")
            count("store.puts")
            count("store.bytes_written", os.path.getsize(path))

        self._span(ArtifactStore, "put", "store.put", note_put)
        self._wrap_journal_append(JournalWriter)

        def note_job(result, args, kwargs, duration):
            count("serve.jobs_run")

        self._with_op(CampaignScheduler, "_run_job", "serve.job",
                      lambda args: args[1].job_id, note_job)
        self._with_op(CampaignScheduler, "triage", "serve.triage",
                      lambda args: args[1])

        def note_triage(report, args, kwargs, duration):
            count("triage.reports")
            count("triage.witnesses", report.summary["witnesses"])
            count("triage.clusters", report.summary["clusters"])

        for owner in (repro.triage, triage_report):
            self._span(owner, "triage_campaign", "triage.triage_campaign",
                       note_triage)
        self._span(triage_report, "observe_thread_classes", "triage.observe")

    def store_counters(self) -> Counter:
        """Hit/miss counters of every store a traced lookup touched
        (each :class:`ArtifactStore` keeps exact per-object counts)."""
        total: Counter = Counter()
        for store in self._stores.values():
            total.update(store.counters)
        return total

    def _wrap_run_tasks(self, campaign) -> None:
        """``parallel.run_tasks`` span plus its dispatch overhead: the
        call's wall-clock minus the task time its chunks report, divided
        over the workers that ran them."""
        from repro.parallel import resolve_jobs
        tracer = self

        def make(original):
            def wrapper(task_fn, items, **kwargs):
                timings = kwargs.get("timings")
                if timings is None:
                    timings = kwargs["timings"] = []
                frame = tracer.begin("parallel.run_tasks")
                try:
                    result = original(task_fn, items, **kwargs)
                finally:
                    duration = tracer.end(frame)
                task_ns = int(sum(seconds for _c, _n, seconds in timings)
                              * 1e9)
                workers = max(1, min(resolve_jobs(kwargs.get("jobs")),
                                     len(items)))
                tracer.count("parallel.task_ns", task_ns)
                tracer.count("parallel.dispatch_overhead_ns",
                             duration - task_ns // workers)
                return result
            return wrapper
        self._patch(campaign, "run_tasks", make)

    def _wrap_journal_append(self, writer_cls) -> None:
        tracer = self

        def make(original):
            def wrapper(writer, index, record):
                before = writer._handle.tell()
                frame = tracer.begin("store.journal.append")
                try:
                    original(writer, index, record)
                finally:
                    tracer.end(frame)
                tracer.count("store.journal.appends")
                tracer.count("store.bytes_written",
                             writer._handle.tell() - before)
            return wrapper
        self._patch(writer_cls, "append", make)

    def _with_op(self, owner, attr: str, name: str, op_of: Callable,
                 after: Optional[Callable] = None) -> None:
        """Span ``name`` that also sets the thread's operation id from
        the call's arguments (server threads know the job id only from
        the call itself)."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                state = tracer._state()
                previous = state.op
                state.op = op_of(args)
                frame = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    duration = tracer.end(frame)
                    state.op = previous
                if after is not None:
                    after(result, args, kwargs, duration)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def spans(self) -> List[tuple]:
        return [span for state in self._states for span in state.spans]

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    def aggregates(self) -> Dict[str, List[int]]:
        total: Dict[str, List[int]] = {}
        for state in self._states:
            for name, (calls, ns) in state.agg.items():
                tally = total.setdefault(name, [0, 0])
                tally[0] += calls
                tally[1] += ns
        return total

    def by_name(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns (aggregated
        entry points included, their time being all self time)."""
        table: Dict[str, Dict[str, int]] = {}
        for span in self.spans():
            row = table.setdefault(span[1], {"calls": 0, "ns": 0,
                                             "self_ns": 0})
            row["calls"] += 1
            row["ns"] += span[3] - span[2]
            row["self_ns"] += span[7]
        for name, (calls, ns) in self.aggregates().items():
            table[name] = {"calls": calls, "ns": ns, "self_ns": ns}
        return table

    def layer_self_ns(self) -> Dict[str, int]:
        selfs = {layer: 0 for layer in LAYERS}
        for name, row in self.by_name().items():
            layer = name.split(".", 1)[0]
            selfs[layer] = selfs.get(layer, 0) + row["self_ns"]
        return selfs

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write every span (and the per-name table) as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op",
                       "thread", "self_ns"],
            "spans": sorted(self.spans(), key=lambda span: span[2]),
            "by_name": self.by_name(),
            "counts": dict(sorted(self.counts().items())),
            "links": self.links,
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
