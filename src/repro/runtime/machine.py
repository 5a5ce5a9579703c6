"""The simulated SPMD machine: threads over shared memory.

This is the substrate that replaces the paper's real 32-core machine.
Every worker "thread" has its own frame stack, cycle clock, call-site
stack, and loop-iteration counters; a scheduler interleaves them
deterministically (always advancing the thread with the lowest cycle
clock, plus optional seeded jitter for schedule diversity).  The monitor
drains its queues between scheduling quanta, modeling the paper's
asynchronous monitor thread.

Code runs as compiled block closures (:mod:`repro.runtime.closures`):
each quantum dispatches the largest fused unit that fits its remaining
step budget, else one instruction through its single closure, so
quantum boundaries — and with them every scheduler RNG draw — fall at
the same cumulative step counts however the code was fused or
optimized.

Faults are injected through a :class:`FaultHook` given the chance to
observe/alter the branch decisions it asks for — the simulator's
analogue of the paper's PIN-based injector.

A run given a *recorder* (:class:`repro.runtime.golden.GoldenRecorder`)
hands it the machine between quanta so it can take
:class:`Checkpoint` objects; a run given a checkpoint to *resume* from
restores that state into its freshly built objects and executes only
the rest of the run.  A fault trial given the golden run's checkpoints
(``cut_short``) runs only until its outcome is decided: its monitor
stops checking at the first violation, and the run ends where its state
equals a later checkpoint exactly (see docs/INTERNALS.md, "Trials that
stop early").
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DetectionRaised,
    GuestCrash,
    GuestDeadlock,
    GuestHang,
    SimulationError,
)
from repro.ir import Branch, Constant, FunctionRef, Module, Value
from repro.monitor import Monitor
from repro.runtime.costmodel import CostModel
from repro.runtime.memory import SharedMemory
from repro.runtime.sync import SimBarrier, SimMutex
from repro.runtime.values import exactly_equal
from repro.telemetry import Telemetry, TelemetrySnapshot, active

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.closures import Frame
    from repro.runtime.golden import GoldenRecorder


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked_lock"
    BLOCKED_BARRIER = "blocked_barrier"
    BLOCKED_QUEUE = "blocked_queue"
    DONE = "done"
    CRASHED = "crashed"


class ThreadContext:
    """One simulated worker thread."""

    __slots__ = ("tid", "frames", "status", "cycles", "outputs",
                 "callsite_key", "loop_iters", "branch_count",
                 "pending", "steps", "ghost_skip", "sync_wait",
                 "queue_stall", "hook_at")

    def __init__(self, tid: int, frame: "Frame"):
        self.tid = tid
        self.frames: List["Frame"] = [frame]
        self.status = ThreadStatus.RUNNABLE
        self.cycles: float = 0.0
        self.outputs: List[Any] = []
        #: Simulated cycles this thread spent waiting at locks/barriers
        #: (the per-thread share of Machine.sync_wait_cycles).
        self.sync_wait: float = 0.0
        #: Simulated cycles this thread lost to full-monitor-queue stalls.
        self.queue_stall: float = 0.0
        #: Call-site id path of the current activation, as a ready-made
        #: tuple (it is half of every runtime hash key).
        self.callsite_key: Tuple[int, ...] = ()
        self.loop_iters: Dict[int, int] = {}
        self.branch_count = 0
        #: :meth:`FaultHook.call_at` of the run's hook (a resumed run
        #: brings its own hook, so checkpoints leave it out).
        self.hook_at = -1
        #: Deferred action while blocked on a full monitor queue:
        #: ("send", message) or ("branch", message, target_block).
        self.pending: Optional[Tuple] = None
        self.steps = 0
        #: Optimizer-ghost kinds already charged at the current program
        #: point (a scheduling quantum may end mid-ghost; see
        #: Machine._run_quantum).
        self.ghost_skip = 0

    @property
    def frame(self) -> "Frame":
        return self.frames[-1]

    @property
    def done(self) -> bool:
        return self.status in (ThreadStatus.DONE, ThreadStatus.CRASHED)


class FaultHook:
    """Injection interface; the default hook is a no-op (golden runs)."""

    def call_at(self, tid: int) -> int:
        """Which of thread ``tid``'s branches :meth:`before_branch`
        sees: -1 all, 0 none, k >= 1 the k-th.  By default an override
        of :meth:`before_branch` sees all and the no-op hook none."""
        return 0 if type(self).before_branch is FaultHook.before_branch else -1

    def before_branch(self, machine: "Machine", thread: ThreadContext,
                      branch: Branch, frame: "Frame", taken: bool) -> bool:
        """Observe/modify the decision of a dynamic branch instance."""
        return taken


@dataclass
class Checkpoint:
    """The complete machine state between two scheduling quanta.

    Taken by :meth:`Machine.checkpoint` during a recorded run and
    restored by :meth:`Machine.restore` into a freshly built machine of
    the same program, seed and thread count.  Everything mutable is a
    copy, so one checkpoint serves any number of resumed runs; immutable
    parts (compiled blocks, queued messages, register values) are
    shared.  ``branch_counts`` (per thread) and ``steps`` say where in
    the run it was taken.
    """

    steps: int
    branch_counts: Tuple[int, ...]
    threads: list
    memory: tuple
    mutexes: dict
    barriers: dict
    rng: tuple
    sync_wait_cycles: float
    monitor: Optional[dict]
    #: The monitor's telemetry metrics of the prefix (None when the
    #: recorded run had no collector).
    metrics: Optional[TelemetrySnapshot]


class RunResult:
    """Everything a run produced; consumed by campaigns and benchmarks."""

    def __init__(self):
        self.status = "ok"   # ok | crash | hang | deadlock
        self.failure_message = ""
        self.failing_thread: Optional[int] = None
        self.outputs: Dict[int, List[Any]] = {}
        self.cycles: Dict[int, float] = {}
        self.parallel_time: float = 0.0
        self.branch_counts: Dict[int, int] = {}
        self.violations: List = []
        self.steps = 0
        self.monitor: Optional[Monitor] = None
        self.memory: Optional[SharedMemory] = None
        #: Synchronization census (the duplication model prices its
        #: determinism enforcement off these).
        self.lock_acquisitions = 0
        self.barrier_episodes = 0
        #: Simulated cycles threads spent waiting at barriers/locks.
        self.sync_wait_cycles: float = 0.0
        #: Per-thread shares of the synchronization wait and of the
        #: monitor-queue stall cycles (tid -> cycles); the vectors the
        #: triage performance-anomaly arm compares within a similarity
        #: class.
        self.thread_sync_wait: Dict[int, float] = {}
        self.thread_queue_stall: Dict[int, float] = {}
        #: Metrics snapshot; None unless the run was given a collector.
        self.telemetry: Optional[TelemetrySnapshot] = None
        #: How a ``cut_short`` trial ended early: "" (it did not),
        #: "settled" (its monitor stopped checking at the first
        #: violation; the program ran to its end) or "rejoined" (it
        #: stopped at a golden checkpoint; the fields above hold the
        #: state there, and no final sweep ran).
        self.cut = ""

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    def output_signature(self, output_globals=()) -> Tuple:
        """Canonical value for golden-result comparison: the per-thread
        output streams plus designated result globals."""
        streams = tuple((tid, tuple(self.outputs.get(tid, ())))
                        for tid in sorted(self.outputs))
        arrays = ()
        if self.memory is not None and output_globals:
            snap = self.memory.snapshot(output_globals)
            arrays = tuple((name, tuple(snap[name])) for name in sorted(snap))
        return (self.status, streams, arrays)


class _Rejoined(Exception):
    """A ``cut_short`` trial's state equals a golden checkpoint."""


class Machine:
    """The simulated multi-core machine executing one program run.

    Executes the module's block-closure compile
    (:func:`repro.runtime.closures.get_compiled`, cached on the module),
    built at the module's first run rather than when the program is
    constructed.
    """

    def __init__(self, module: Module, nthreads: int,
                 entry: str = "slave",
                 monitor: Optional[Monitor] = None,
                 cost_model: Optional[CostModel] = None,
                 fault_hook: Optional[FaultHook] = None,
                 seed: int = 0,
                 quantum: int = 32,
                 max_steps: int = 20_000_000,
                 schedule_jitter: float = 2.0,
                 halt_on_detection: bool = False,
                 telemetry: Optional[Telemetry] = None,
                 recorder: Optional["GoldenRecorder"] = None,
                 cut_short: Optional[Sequence[Checkpoint]] = None):
        from repro.runtime import closures  # lazy: closures imports us
        if nthreads < 1:
            raise ValueError("nthreads must be at least 1, got %r"
                             % (nthreads,))
        if quantum < 1:
            raise ValueError("quantum must be at least 1, got %r"
                             % (quantum,))
        if module.bw_metadata is not None and monitor is None:
            raise SimulationError(
                "instrumented module requires a Monitor (MonitorMode.FULL or FEED)")
        self.module = module
        self.nthreads = nthreads
        if recorder is not None:
            if fault_hook is not None:
                raise ValueError("a recorded run takes no fault hook")
            fault_hook = recorder
        if cut_short is not None and (recorder is not None
                                      or telemetry is not None):
            raise ValueError("only a fault trial without telemetry is "
                             "cut short")
        if cut_short is not None and monitor is not None:
            monitor.settle = True
        #: Golden checkpoints this trial may still re-join, in run order.
        self._ahead = list(cut_short) if cut_short is not None else []
        self.monitor = monitor
        self.cost = cost_model if cost_model is not None else CostModel()
        self.hook = fault_hook if fault_hook is not None else FaultHook()
        self.recorder = recorder
        #: Private collector of the monitor's in-loop metrics during a
        #: recorded run with telemetry, so every checkpoint can carry
        #: the prefix's metrics alone (folded into the run's collector
        #: when the loop ends).
        self._loop_telemetry: Optional[Telemetry] = None
        self.quantum = quantum
        self.max_steps = max_steps
        self.halt_on_detection = halt_on_detection
        self.seed = seed
        #: Live collector or None; hot loops never see the disabled case
        #: (repro.telemetry normalizes it away here, once).
        self.telemetry = active(telemetry)
        self.sync_wait_cycles: float = 0.0
        self._rng = random.Random(seed)
        self._jitter = schedule_jitter

        compiled = closures.get_compiled(module, self.cost, nthreads)
        self.memory = SharedMemory(module)
        entry_cf = compiled.by_name[entry]
        self.threads = [ThreadContext(tid, entry_cf.make_frame(()))
                        for tid in range(nthreads)]
        for thread in self.threads:
            thread.hook_at = self.hook.call_at(thread.tid)
        self.mutexes: Dict[str, SimMutex] = {}
        self.barriers: Dict[str, SimBarrier] = {}
        for name, g in module.globals.items():
            if g.type.name == "lock":
                self.mutexes[name] = SimMutex(name)
            elif g.type.name == "barrier":
                self.barriers[name] = SimBarrier(name, nthreads)
        self._func_index = {f.name: i for i, f in enumerate(module.function_table)}
        self.total_steps = 0

        # Pre-derived cost (read by the compiled barrier closure).
        self._barrier_cost = self.cost.barrier_cost(nthreads)

    # ------------------------------------------------------------------
    # Top-level run loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        result = RunResult()
        tel = self.telemetry
        wall_started = time.perf_counter_ns() if tel is not None else 0
        if tel is not None:
            tel.event("run_start", nthreads=self.nthreads, seed=self.seed)
            if self.recorder is not None and self.monitor is not None:
                self._loop_telemetry = Telemetry()
                self.monitor.telemetry = self._loop_telemetry
        rejoined = False
        try:
            self._loop()
        except _Rejoined:
            # The rest of the run is the golden run's: masked, and the
            # golden run's monitor found nothing to sweep.
            rejoined = True
            result.cut = "rejoined"
        except DetectionRaised:
            # halt_on_detection mode: the paper's "raises an exception and
            # stops the program".  The violation itself is collected from
            # the monitor below.
            result.status = "halted"
        except GuestCrash as crash:
            result.status = "crash"
            result.failure_message = str(crash)
            result.failing_thread = crash.thread_id
        except GuestHang as hang:
            result.status = "hang"
            result.failure_message = str(hang)
        except GuestDeadlock as dead:
            result.status = "deadlock"
            result.failure_message = str(dead)
        if self._loop_telemetry is not None:
            self.monitor.telemetry = tel
            tel.absorb(self._loop_telemetry.snapshot())
            self._loop_telemetry = None
        for thread in self.threads:
            result.outputs[thread.tid] = thread.outputs
            result.cycles[thread.tid] = thread.cycles
            result.branch_counts[thread.tid] = thread.branch_count
            result.thread_sync_wait[thread.tid] = thread.sync_wait
            result.thread_queue_stall[thread.tid] = thread.queue_stall
        result.parallel_time = max(
            (t.cycles for t in self.threads), default=0.0)
        result.steps = self.total_steps
        result.memory = self.memory
        result.monitor = self.monitor
        result.lock_acquisitions = sum(
            m.acquisitions for m in self.mutexes.values())
        result.barrier_episodes = sum(
            b.episodes for b in self.barriers.values())
        result.sync_wait_cycles = self.sync_wait_cycles
        if self.monitor is not None and not rejoined:
            result.violations = list(self.monitor.finalize())
            if self.monitor.settle and result.violations:
                result.cut = "settled"
        if tel is not None:
            # End-of-run aggregation: the per-instruction facts come from
            # counters the simulator maintains anyway, so the hot loop
            # carries no telemetry cost even when enabled.
            tel.add_time_ns("interp.wall_ns",
                            time.perf_counter_ns() - wall_started)
            tel.count("interp.runs")
            tel.count("interp.steps", self.total_steps)
            tel.count("interp.branches",
                      sum(result.branch_counts.values()))
            tel.count("sync.lock_acquisitions", result.lock_acquisitions)
            tel.count("sync.barrier_episodes", result.barrier_episodes)
            tel.count("sync.wait_cycles", int(self.sync_wait_cycles))
            tel.gauge_max("interp.parallel_cycles", int(result.parallel_time))
            summary = getattr(self.module, "opt_summary", None)
            if summary is not None:
                for stats in summary.get("passes", ()):
                    tel.count("opt.pass.%s.removed" % stats["name"],
                              stats["removed"])
                tel.count("opt.instructions_saved",
                          summary["instructions_before"]
                          - summary["instructions_after"])
            for thread in self.threads:
                tel.observe("interp.thread_cycles", thread.cycles)
                tel.observe("interp.thread_steps", thread.steps)
                # One event per thread, integer fields only: the runtime
                # vector the triage performance arm clusters within a
                # similarity class.  Deterministic in the seed (simulated
                # cycles, never wall-clock), so jobs=N merges keep the
                # triage report byte-identical.
                tel.event("thread_metrics", tid=thread.tid,
                          cycles=int(thread.cycles),
                          steps=thread.steps,
                          branches=thread.branch_count,
                          sync_wait=int(thread.sync_wait),
                          queue_stall=int(thread.queue_stall))
            tel.event("run_end", status=result.status,
                      steps=self.total_steps,
                      violations=len(result.violations),
                      detected=result.detected)
            result.telemetry = tel.snapshot()
        return result

    def _loop(self) -> None:
        # Scheduler hot loop: every attribute that is invariant across
        # quanta is hoisted to a local (the loop body runs once per
        # scheduling quantum, tens of thousands of times per run).
        threads = self.threads
        run_quantum = self._run_quantum
        rng_random = self._rng.random
        jitter = self._jitter
        runnable_status = ThreadStatus.RUNNABLE
        monitor = self.monitor
        drain = monitor.drain if monitor is not None else None
        batch = (monitor.metadata.config.monitor_batch
                 if monitor is not None else 0)
        halt = self.halt_on_detection
        recorder = self.recorder
        # Step count at which the recorder wants the next checkpoint,
        # or at which a cut-short trial next meets a golden checkpoint.
        if recorder is not None:
            checkpoint_at = recorder.next_at

            def capture():
                return recorder.capture(self)
        else:
            capture = self._rejoin
            checkpoint_at = self._next_rejoin()
        while True:
            # Pick the runnable thread with the lowest jittered clock.
            # One RNG draw per runnable thread in tid order, ties to the
            # lowest tid — exactly `min(runnable, key=cycles+jitter)`,
            # without the per-decision closure and list allocations.
            best = None
            best_key = 0.0
            for t in threads:
                if t.status is runnable_status:
                    key = t.cycles + rng_random() * jitter
                    if best is None or key < best_key:
                        best = t
                        best_key = key
            if best is None:
                if all(t.done for t in threads):
                    return
                if not self._resolve_blocked():
                    raise GuestDeadlock(
                        "no runnable thread: " + ", ".join(
                            "t%d=%s" % (t.tid, t.status.value) for t in threads))
                continue
            run_quantum(best)
            if drain is not None:
                drain(batch)
                if halt and monitor.detected:
                    raise DetectionRaised(monitor.first_violation())
            if self.total_steps >= checkpoint_at:
                checkpoint_at = capture()

    def _resolve_blocked(self) -> bool:
        """Try to unblock queue-stalled producers by draining the monitor."""
        stalled = [t for t in self.threads
                   if t.status is ThreadStatus.BLOCKED_QUEUE]
        if not stalled or self.monitor is None:
            return False
        self.monitor.drain(len(stalled) * 4 + 16)
        progress = False
        for thread in stalled:
            if self._retry_pending(thread):
                progress = True
        return progress

    # ------------------------------------------------------------------
    # Quantum execution
    # ------------------------------------------------------------------

    def _run_quantum(self, thread: ThreadContext) -> None:
        """Run ``thread`` for up to ``quantum`` steps.

        Optimizer ghosts (instructions the optimizer removed, replayed
        for their cost) are charged *one step at a time* against the
        budget, so quantum boundaries fall at exactly the same cumulative
        step counts as the unoptimized run — same scheduler decisions,
        same jitter-RNG draws, bit-identical interleaving.  A quantum
        that ends mid-ghost records its progress in
        ``thread.ghost_skip`` and resumes there next time.
        """
        frames = thread.frames
        runnable = ThreadStatus.RUNNABLE
        executed = 0
        quantum = self.quantum
        while executed < quantum and thread.status is runnable:
            frame = frames[-1]
            cblock = frame.cblock
            index = frame.index
            segments, gcosts = cblock.dispatch[index]
            if gcosts:
                done = thread.ghost_skip
                ng = len(gcosts)
                if done < ng:
                    cycles = thread.cycles
                    while done < ng and executed < quantum:
                        cycles += gcosts[done]
                        done += 1
                        executed += 1
                    thread.cycles = cycles
                    if done < ng or executed >= quantum:
                        thread.ghost_skip = done
                        break
                    thread.ghost_skip = done
            budget = quantum - executed
            for steps, fn in segments:
                if steps <= budget:
                    executed += fn(self, thread, frame)
                    break
            else:
                # No compiled segment fits the remaining budget (or we
                # resumed at an unaligned mid-run index): execute one
                # instruction.
                cblock.singles[index](self, thread, frame)
                executed += 1
            if gcosts:
                thread.ghost_skip = 0
        thread.steps += executed
        self.total_steps += executed
        if self.total_steps > self.max_steps:
            raise GuestHang("exceeded %d interpreted instructions"
                            % self.max_steps)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Copy the machine state; call only between quanta."""
        monitor = self.monitor
        loop_tel = self._loop_telemetry
        mutexes, barriers = self._sync_state()
        return Checkpoint(
            steps=self.total_steps,
            branch_counts=tuple(t.branch_count for t in self.threads),
            threads=self._thread_states(),
            memory=self.memory.save_state(),
            mutexes=mutexes,
            barriers=barriers,
            rng=self._rng.getstate(),
            sync_wait_cycles=self.sync_wait_cycles,
            monitor=monitor.save_state() if monitor is not None else None,
            metrics=loop_tel.snapshot() if loop_tel is not None else None)

    def _thread_states(self) -> list:
        """Every thread's state as a checkpoint holds it."""
        threads = []
        for t in self.threads:
            frames = [(f.function, f.cfunc, f.block, f.cblock, f.index,
                       list(f.regs), f.call_inst) for f in t.frames]
            threads.append((frames, t.status, t.cycles, list(t.outputs),
                            t.callsite_key, dict(t.loop_iters),
                            t.branch_count, t.pending, t.steps,
                            t.ghost_skip, t.sync_wait, t.queue_stall))
        return threads

    def _sync_state(self) -> Tuple[dict, dict]:
        """Every mutex's and barrier's state as a checkpoint holds it."""
        return ({name: (m.owner, list(m.waiters), m.last_release,
                        m.acquisitions, m.contentions)
                 for name, m in self.mutexes.items()},
                {name: (b.generation, dict(b.arrived), b.episodes)
                 for name, b in self.barriers.items()})

    def _next_rejoin(self) -> float:
        ahead = self._ahead
        return ahead[0].steps if ahead else float("inf")

    def _rejoin(self) -> float:
        """At a quantum boundary at or past the next golden checkpoint:
        if it lands exactly on the checkpoint's step count, the fault
        has been applied, the monitor has found nothing, and the state
        is the checkpoint's, end the run (:class:`_Rejoined`).  Returns
        the step count of the next checkpoint ahead."""
        ahead = self._ahead
        steps = self.total_steps
        while ahead and ahead[0].steps < steps:
            del ahead[0]
        if ahead and ahead[0].steps == steps:
            checkpoint = ahead.pop(0)
            monitor = self.monitor
            if (getattr(self.hook, "activated", False)
                    and (monitor is None or not monitor.violations)
                    and self.same_state(checkpoint)):
                raise _Rejoined()
        return self._next_rejoin()

    def same_state(self, checkpoint: Checkpoint) -> bool:
        """Whether this machine's state is exactly ``checkpoint``'s
        (:func:`~repro.runtime.values.exactly_equal`).  Cheap fields
        first: per-thread branch counts and cycles, the scheduler RNG;
        then threads, memory (in place, no array copies), sync objects
        and the monitor."""
        threads = self.threads
        monitor = self.monitor
        return (checkpoint.branch_counts
                == tuple(t.branch_count for t in threads)
                and exactly_equal([t.cycles for t in threads],
                                  [saved[2] for saved in checkpoint.threads])
                and exactly_equal(self._rng.getstate(), checkpoint.rng)
                and exactly_equal(self._thread_states(), checkpoint.threads)
                and self.total_steps == checkpoint.steps
                and exactly_equal(self.sync_wait_cycles,
                                  checkpoint.sync_wait_cycles)
                and self.memory.same_state(checkpoint.memory)
                and exactly_equal(self._sync_state(),
                                  (checkpoint.mutexes, checkpoint.barriers))
                and (checkpoint.monitor is None if monitor is None
                     else monitor.same_state(checkpoint.monitor)))

    def restore(self, checkpoint: Checkpoint) -> None:
        """Assign ``checkpoint``'s state into this freshly built machine
        (and its monitor and telemetry collector); :meth:`run` then
        continues from the quantum boundary the checkpoint was taken at.
        Fresh objects with assigned fields run as fast as a new run's;
        copies of the recorded objects would not."""
        from repro.runtime.closures import Frame  # lazy: closures imports us
        if len(checkpoint.threads) != self.nthreads:
            raise ValueError("checkpoint of %d threads restored into a "
                             "%d-thread machine"
                             % (len(checkpoint.threads), self.nthreads))
        if (checkpoint.monitor is None) != (self.monitor is None):
            raise ValueError("checkpoint and machine disagree on running "
                             "a monitor")
        if self.telemetry is not None and checkpoint.metrics is None:
            raise ValueError("checkpoint was recorded without telemetry")
        for thread, saved in zip(self.threads, checkpoint.threads):
            (frames, thread.status, thread.cycles, outputs,
             thread.callsite_key, loop_iters, thread.branch_count,
             thread.pending, thread.steps, thread.ghost_skip,
             thread.sync_wait, thread.queue_stall) = saved
            restored = []
            for function, cfunc, block, cblock, index, regs, call_inst \
                    in frames:
                frame = Frame(function, cfunc, block, cblock, list(regs),
                              call_inst)
                frame.index = index
                restored.append(frame)
            thread.frames = restored
            thread.outputs = list(outputs)
            thread.loop_iters = dict(loop_iters)
        self.memory.load_state(checkpoint.memory)
        for name, (owner, waiters, last_release, acquisitions,
                   contentions) in checkpoint.mutexes.items():
            mutex = self.mutexes[name]
            mutex.owner = owner
            mutex.waiters = list(waiters)
            mutex.last_release = last_release
            mutex.acquisitions = acquisitions
            mutex.contentions = contentions
        for name, (generation, arrived, episodes) in \
                checkpoint.barriers.items():
            barrier = self.barriers[name]
            barrier.generation = generation
            barrier.arrived = dict(arrived)
            barrier.episodes = episodes
        self._rng.setstate(checkpoint.rng)
        self.total_steps = checkpoint.steps
        self.sync_wait_cycles = checkpoint.sync_wait_cycles
        if self.monitor is not None:
            self.monitor.load_state(checkpoint.monitor)
        if self.telemetry is not None:
            self.telemetry.absorb(checkpoint.metrics)

    # ------------------------------------------------------------------
    # Register access (the fault injector's seam)
    # ------------------------------------------------------------------

    def read_value(self, frame: "Frame", value: Value):
        """Read ``value`` as ``frame`` sees it."""
        if isinstance(value, Constant):
            return value.value
        slot = frame.cfunc.slot_of.get(value)
        if slot is not None:
            held = frame.regs[slot]
            if held is None:
                raise SimulationError("read of undefined value %r" % value)
            return held
        if isinstance(value, FunctionRef):
            return self._func_index[value.function_name]
        raise SimulationError("read of undefined value %r" % value)

    def write_reg(self, frame: "Frame", value: Value, new) -> None:
        """Overwrite the register holding ``value`` in ``frame`` (the
        fault injector's corruption primitive)."""
        frame.regs[frame.cfunc.slot_of[value]] = new

    # ------------------------------------------------------------------
    # The queue-stall retry path
    # ------------------------------------------------------------------

    def _transfer(self, frame: "Frame", target) -> None:
        """Jump ``frame`` to block ``target``, running its phi copies
        (the hot paths use prebound copies; this serves the retry of a
        branch deferred by a full monitor queue)."""
        cblock = frame.cfunc.blocks[target]
        copy = cblock.edge_copy.get(frame.block)
        if copy is not None:
            copy(frame.regs)
        frame.block = target
        frame.cblock = cblock
        frame.index = cblock.nphis

    def _retry_pending(self, thread: ThreadContext) -> bool:
        if thread.pending is None or self.monitor is None:
            return False
        kind = thread.pending[0]
        message = thread.pending[1]
        if not self.monitor.try_send(thread.tid, message):
            thread.cycles += self.cost.stall
            thread.queue_stall += self.cost.stall
            return False
        if kind == "send":
            thread.frames[-1].index += 1
        else:  # branch: complete the deferred transfer
            self._transfer(thread.frames[-1], thread.pending[2])
        thread.pending = None
        thread.status = ThreadStatus.RUNNABLE
        return True
