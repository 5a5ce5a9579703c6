"""The block-closure engine against history, plus its compile caches.

The engine once had a twin: a tree-walking interpreter with the same
semantics.  Its runs are kept as golden-trace fingerprints
(``golden_fingerprints.json``, see :mod:`tests.runtime.fingerprints`),
so "identity across backends" now means: the engine reproduces, fact
for fact, what the interpreter recorded — error-free runs at every
optimization level and at quanta 32 and 1, fault-injected runs, and
short injection campaigns.  Figure 1 and radix run in tier-1; the rest
of the kernel matrix is slow-marked.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.faults import FaultType
from repro.runtime import ParallelProgram, get_compiled
from repro.runtime.closures import _COMPILE_CACHE

from tests.conftest import FIGURE_1, figure1_setup
from tests.opt.helpers import run_signature
from tests.runtime import fingerprints

SLOW_KERNELS = ("fmm", "ocean_contig", "ocean_noncontig", "raytrace")


@pytest.fixture(scope="module")
def history():
    return fingerprints.load()


def test_figure1_identity_across_backends(history):
    assert fingerprints.figure1_runs() == history["figure1_runs"]


def test_figure1_closure_o2_matches_interpreter_o0(history):
    assert (fingerprints.figure1_runs(opt_level=2)
            == history["figure1_runs"])


def _assert_kernel_matches_history(history, name):
    for level in fingerprints.OPT_LEVELS:
        for quantum in fingerprints.QUANTA:
            key = fingerprints.kernel_run_key(name, level, quantum)
            assert (fingerprints.kernel_run(name, level, quantum)
                    == history["kernel_runs"][key]), key


@pytest.mark.parametrize("name", [
    "radix",
    pytest.param("fft", marks=pytest.mark.slow),
    pytest.param("water_nsquared", marks=pytest.mark.slow),
])
def test_kernel_identity_across_backends(history, name):
    _assert_kernel_matches_history(history, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_KERNELS)
def test_kernel_identity_across_backends_slow(history, name):
    _assert_kernel_matches_history(history, name)


@pytest.mark.parametrize("fault_type",
                         [FaultType.BRANCH_FLIP, FaultType.BRANCH_CONDITION])
def test_injected_runs_identical(history, fault_type):
    got = fingerprints.figure1_injections()
    want = history["figure1_injections"]
    keys = [key for key in want if key.startswith(fault_type.value + "/")]
    assert keys
    for key in keys:
        assert got[key] == want[key], key


@pytest.mark.parametrize("name", [
    "radix",
    pytest.param("fft", marks=pytest.mark.slow),
    pytest.param("water_nsquared", marks=pytest.mark.slow),
    pytest.param("fmm", marks=pytest.mark.slow),
    pytest.param("ocean_contig", marks=pytest.mark.slow),
    pytest.param("ocean_noncontig", marks=pytest.mark.slow),
    pytest.param("raytrace", marks=pytest.mark.slow),
])
def test_kernel_campaign_matches_history(history, name):
    """Outcome, baseline outcome, flipped branch and normalized detail
    of every record (crashed runs included; no step counts pinned)."""
    for campaign in fingerprints.CAMPAIGNS:
        key = fingerprints.campaign_key(name, *campaign)
        assert (fingerprints.kernel_campaign(name, *campaign)
                == history["kernel_campaigns"][key]), key


def test_backend_env_knob(monkeypatch):
    """The backend axis is gone: a stale ``$REPRO_BACKEND`` changes
    nothing, the engine's own name is accepted, and any other backend
    fails with a one-line error."""
    monkeypatch.setenv("REPRO_BACKEND", "interpreter")
    program = ParallelProgram(FIGURE_1, "figure1", backend="closure")
    assert program.run_protected(4, setup=figure1_setup(4)).status == "ok"
    with pytest.raises(ValueError) as excinfo:
        ParallelProgram(FIGURE_1, "figure1", backend="interpreter")
    assert "\n" not in str(excinfo.value)


def test_get_compiled_memoizes_per_module(figure1_program):
    module = figure1_program.protected
    assert get_compiled(module, nthreads=4) is get_compiled(module,
                                                            nthreads=4)
    assert get_compiled(module, nthreads=4) is not get_compiled(module,
                                                                nthreads=2)


def test_compile_cache_frees_deleted_program():
    """Compiled code lives on its module, so dropping the program drops
    the module and its closures (a weak-keyed side table whose values
    refer back to their key never could)."""
    program = ParallelProgram(FIGURE_1, "figure1")
    program.run_protected(4, setup=figure1_setup(4))
    program.run_baseline(4, setup=figure1_setup(4))
    assert program.protected.closure_cache
    module_ref = weakref.ref(program.protected)
    del program
    gc.collect()
    assert module_ref() is None


def test_compile_cache_clear_forces_cold_compile(figure1_program):
    module = figure1_program.protected
    before = get_compiled(module, nthreads=4)
    _COMPILE_CACHE.clear()
    assert get_compiled(module, nthreads=4) is not before


def test_compile_cache_is_not_pickled(figure1_program):
    import pickle
    module = figure1_program.protected
    get_compiled(module, nthreads=4)
    assert module.closure_cache
    assert pickle.loads(pickle.dumps(module)).closure_cache == {}


def test_default_store_keeps_no_closures(tmp_path):
    """Closures are generated in process, store or not: a run under an
    installed default store writes only its program and traces like a
    run with no store."""
    from repro.store import ArtifactStore
    from repro.store.runtime import set_default_store
    plain = ParallelProgram(FIGURE_1, "figure1").run_protected(
        4, seed=3, setup=figure1_setup(4))
    store = ArtifactStore(str(tmp_path / "store"))
    set_default_store(store)
    try:
        program = store.get_program(FIGURE_1, "figure1")
        stored = program.run_protected(4, seed=3, setup=figure1_setup(4))
    finally:
        set_default_store(None)
    assert [entry.kind for entry in store.entries()] == ["program"]
    assert run_signature(stored) == run_signature(plain)
