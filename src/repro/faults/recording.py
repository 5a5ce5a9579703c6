"""Golden-trace branch recording for prediction-aware planning.

The static analyzer (:mod:`repro.lint.vuln`) names fault sites by
*static* branch; campaigns target *dynamic* branch instances ``(thread,
k)`` (the k-th branch thread ``tid`` executes).  The bridge is one
observation run with a :class:`RecordingHook`: a passive
:class:`~repro.runtime.machine.FaultHook` that writes down, per
thread, the static site of every dynamic branch — and never perturbs a
decision, so the recorded run *is* the golden run (same seed, same
schedule, same signature).

The machine drives hooks through
``before_branch(machine, thread, branch, frame, taken)`` with the live :class:`~repro.ir.Branch` objects of the protected
module, which is exactly what :func:`repro.lint.vuln.branch_site_map`
keys on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import Branch
from repro.runtime.machine import FaultHook

#: Site id recorded for a branch the site table does not know (cannot
#: happen for a map built from the same module; kept for robustness).
UNKNOWN_SITE = -1


class RecordingHook(FaultHook):
    """Record the static site id of every dynamic branch, per thread.

    After a run, ``streams[tid][k-1]`` is the static site of thread
    ``tid``'s ``k``-th dynamic branch — the same ``(thread, k)``
    coordinates :class:`~repro.faults.models.FaultSpec` uses.
    """

    def __init__(self, site_map: Dict[Branch, int]):
        self._site_map = dict(site_map)
        self.streams: Dict[int, List[int]] = {}

    def before_branch(self, machine, thread, branch, frame, taken):
        self.streams.setdefault(thread.tid, []).append(
            self._site_map.get(branch, UNKNOWN_SITE))
        return taken


def record_site_streams(program, config, setup=None,
                        report=None, store=None) -> Dict[int, List[int]]:
    """Run the program once (golden-equivalent) and return the
    per-thread static-site streams.

    ``report`` is an existing :class:`~repro.lint.vuln.VulnReport` for
    ``program``; when omitted one is computed (``store`` caches its
    per-function summaries).  Raises if the observation run does not
    behave like a golden run (non-ok status or a detection).
    """
    from repro.lint.vuln import analyze_program, branch_site_map
    from repro.monitor import MonitorMode
    from repro.runtime.program import RunConfig

    if report is None:
        report = analyze_program(program,
                                 output_globals=config.output_globals,
                                 store=store)
    hook = RecordingHook(branch_site_map(program.protected, report))
    result = program.run(
        RunConfig(nthreads=config.nthreads, seed=config.seed,
                  monitor_mode=MonitorMode.FULL, quantum=config.quantum),
        setup=setup, fault_hook=hook)
    if result.status != "ok":
        raise RuntimeError("recording run failed: %s (%s)"
                           % (result.status, result.failure_message))
    if result.detected:
        raise RuntimeError("false positive in recording run: %s"
                           % result.violations[0])
    return hook.streams
