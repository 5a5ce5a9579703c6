"""Shared fixtures: canonical guest programs and compiled kernels.

Kernel compilation is session-scoped — the seven benchmark programs are
compiled/analyzed/instrumented once and shared across every test module.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.runtime import ParallelProgram
from repro.splash2 import all_kernels

#: The paper's Figure 1 (one branch per category), used all over the suite.
FIGURE_1 = """
global int id;
global int im = 24;
global int nprocs;
global int gp[64];
global int result[64];
global lock l;
global barrier b;

func slave() {
  local int private = 0;
  local int procid;
  lock(l);
  procid = id;
  id = id + 1;
  unlock(l);
  if (procid == 0) {
    result[0] = 1000;
  }
  local int i;
  for (i = 0; i <= im - 1; i = i + 1) {
    private = private + 1;
  }
  if (gp[procid] > im - 1) {
    private = 1;
  } else {
    private = -1;
  }
  if (private > 0) {
    result[procid] = result[procid] + 100;
  }
  result[procid] = result[procid] + private * (procid + 1);
  barrier(b);
}
"""


def figure1_setup(nthreads: int):
    def apply(memory):
        memory.set_scalar("nprocs", nthreads)
        memory.set_array("gp", [5, 40, 10, 40] * 16)
    return apply


@pytest.fixture(scope="session")
def figure1_program() -> ParallelProgram:
    return ParallelProgram(FIGURE_1, "figure1")


@pytest.fixture
def spawn_only(monkeypatch):
    """A platform without ``fork``: every pool spawns its workers."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])


@pytest.fixture
def fault_free_runs(monkeypatch):
    """The seeds of every in-process ``ParallelProgram.run`` made
    without an injecting fault hook, in call order."""
    from repro.faults.injector import InjectingHook
    runs = []
    original = ParallelProgram.run

    def counting(self, config, *args, **kwargs):
        if not isinstance(kwargs.get("fault_hook"), InjectingHook):
            runs.append(config.seed)
        return original(self, config, *args, **kwargs)

    monkeypatch.setattr(ParallelProgram, "run", counting)
    return runs


@pytest.fixture(scope="session")
def compiled_kernels():
    """name -> (spec, ParallelProgram) for all seven benchmarks."""
    return {spec.name: (spec, spec.program()) for spec in all_kernels()}
