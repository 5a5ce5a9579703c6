"""The pool engine: ordering, chunking, context delivery, fallbacks."""

import multiprocessing

import pytest

from repro.parallel import WorkerPool, available_cpus, resolve_jobs, run_tasks
from repro.parallel.engine import default_chunk_size


def _square(ctx, item):
    return item * item


def _add_context(ctx, item):
    return ctx + item


def _explode(ctx, item):
    if item == 3:
        raise ValueError("item 3 is cursed")
    return item


def _make_offset(base):
    return base + 100


class _Unpicklable:
    """A context ``pickle`` refuses: it holds a lambda."""

    def __init__(self, base):
        self.base = base
        self.hook = lambda: base


def _add_held(ctx, item):
    return ctx.base + item


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == available_cpus()

    def test_malformed_env_var_names_itself(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestChunking:
    def test_four_chunks_per_worker(self):
        assert default_chunk_size(64, 4) == 4
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestSerial:
    def test_order_and_results(self):
        assert run_tasks(_square, range(6), jobs=1) == [0, 1, 4, 9, 16, 25]

    def test_context_passed(self):
        assert run_tasks(_add_context, [1, 2], jobs=1, context=10) == [11, 12]

    def test_factory_needs_a_worker_pool(self):
        with pytest.raises(ValueError, match="WorkerPool"):
            run_tasks(_add_context, [1], jobs=1,
                      context_factory=_make_offset, factory_args=(5,))

    def test_progress_fires_per_item(self):
        seen = []
        run_tasks(_square, range(4), jobs=1,
                  progress=lambda done, total, secs: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_errors_propagate(self):
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(_explode, range(5), jobs=1)


class TestPool:
    def test_results_in_item_order(self):
        assert run_tasks(_square, range(20), jobs=2) == [i * i
                                                         for i in range(20)]

    def test_order_independent_of_chunk_size(self):
        expected = [i * i for i in range(11)]
        for chunk_size in (1, 2, 5, 100):
            assert run_tasks(_square, range(11), jobs=3,
                             chunk_size=chunk_size) == expected

    def test_live_context_reaches_workers(self):
        # fork delivers the parent's context object without pickling
        assert run_tasks(_add_held, range(5), jobs=2,
                         context=_Unpicklable(1000)) == [1000 + i
                                                         for i in range(5)]

    def test_progress_counts_reach_total(self):
        seen = []
        run_tasks(_square, range(12), jobs=2, chunk_size=4,
                  progress=lambda done, total, secs: seen.append((done, total)))
        assert [total for _, total in seen] == [12, 12, 12]
        assert sorted(done for done, _ in seen)[-1] == 12

    def test_errors_propagate_from_workers(self):
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(_explode, range(5), jobs=2, chunk_size=1)

    def test_single_item_stays_serial(self):
        # len(items) <= 1 short-circuits to the in-process loop
        assert run_tasks(_square, [7], jobs=8) == [49]

    def test_empty_items(self):
        assert run_tasks(_square, [], jobs=4) == []


class TestShortLivedPool:
    """A call given no ``pool`` leaves no worker behind, however it
    ends."""

    def test_none_left_after_return(self):
        assert run_tasks(_square, range(8), jobs=2) == [i * i
                                                        for i in range(8)]
        assert multiprocessing.active_children() == []

    def test_none_left_after_raise(self):
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(_explode, range(8), jobs=2, chunk_size=1)
        assert multiprocessing.active_children() == []

    def test_none_left_after_callback_raises(self):
        def stop(_pairs):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_tasks(_square, range(8), jobs=2, chunk_size=1,
                      on_results=stop)
        assert multiprocessing.active_children() == []


def _labelled(base):
    """A context that names the worker process that built it."""
    import os
    return {"base": base, "built_by": os.getpid(), "token": os.urandom(8)}


def _labelled_add(ctx, item):
    return ctx["token"], ctx["base"] + item


class TestWorkerPool:
    @pytest.fixture
    def pool(self):
        pool = WorkerPool(2)
        yield pool
        pool.close()

    def call(self, pool, key, base, items, **kwargs):
        return run_tasks(_labelled_add, items, jobs=2, chunk_size=1,
                         context_factory=_labelled, factory_args=(base,),
                         pool=pool, context_key=key, **kwargs)

    def test_results_in_item_order(self, pool):
        out = self.call(pool, "a", 100, range(9))
        assert [value for _token, value in out] == [100 + i for i in range(9)]

    def test_workers_keep_contexts_across_calls(self, pool):
        first = {token for token, _ in self.call(pool, "a", 0, range(8))}
        again = {token for token, _ in self.call(pool, "a", 0, range(8))}
        # At most one build per worker and key, reused by later calls.
        assert 1 <= len(first | again) <= 2
        other = self.call(pool, "b", 50, range(8))
        assert {token for token, _ in other}.isdisjoint(first)
        assert [value for _token, value in other] == [50 + i
                                                      for i in range(8)]

    def test_one_process_set_for_every_call(self, pool):
        self.call(pool, "a", 0, range(4))
        workers = {p.pid for p in multiprocessing.active_children()}
        self.call(pool, "b", 0, range(4))
        assert {p.pid for p in multiprocessing.active_children()} == workers
        assert len(workers) == 2

    def test_failed_call_leaves_pool_usable(self, pool):
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(_explode, range(5), jobs=2, chunk_size=1,
                      context_factory=_make_offset, factory_args=(1,),
                      pool=pool, context_key="x")
        out = self.call(pool, "a", 7, range(6))
        assert [value for _token, value in out] == [7 + i for i in range(6)]

    def test_serial_calls_use_the_callers_context(self, pool):
        assert run_tasks(_add_context, [1, 2], jobs=1, context=10,
                         context_factory=_make_offset, factory_args=(0,),
                         pool=pool, context_key="k") == [11, 12]
        assert multiprocessing.active_children() == []

    def test_needs_a_key_and_a_factory(self, pool):
        with pytest.raises(ValueError, match="context_key"):
            run_tasks(_square, range(4), jobs=2, pool=pool)

    def test_close_joins_every_worker(self, pool):
        self.call(pool, "a", 0, range(4))
        assert len(multiprocessing.active_children()) == 2
        pool.close()
        assert multiprocessing.active_children() == []
        # A later call forks anew.
        assert [v for _t, v in self.call(pool, "a", 1, range(3))] == [1, 2, 3]


def _start_method_of(ctx, item):
    """The item and how the worker that ran it was started."""
    return item, multiprocessing.get_start_method(allow_none=True)


class TestSpawn:
    def test_results_in_item_order(self, spawn_only):
        assert run_tasks(_start_method_of, range(10), jobs=2) == [
            (i, "spawn") for i in range(10)]
        assert multiprocessing.active_children() == []

    def test_workers_unpickle_the_context(self, spawn_only):
        assert run_tasks(_add_context, range(6), jobs=2,
                         context=100) == [100 + i for i in range(6)]

    def test_worker_pool_keeps_contexts_by_key(self, spawn_only):
        pool = WorkerPool(2)

        def tokens(key, base):
            out = run_tasks(_labelled_add, range(8), jobs=2, chunk_size=1,
                            context_factory=_labelled, factory_args=(base,),
                            pool=pool, context_key=key)
            assert [value for _token, value in out] == [base + i
                                                        for i in range(8)]
            return {token for token, _ in out}

        try:
            first, again = tokens("a", 0), tokens("a", 0)
            assert 1 <= len(first | again) <= 2
            assert tokens("b", 50).isdisjoint(first)
        finally:
            pool.close()
        assert multiprocessing.active_children() == []

    def test_unpicklable_context_runs_serially(self, spawn_only):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = run_tasks(_add_held, range(4), jobs=2,
                            context=_Unpicklable(10))
        assert out == [10, 11, 12, 13]
        assert multiprocessing.active_children() == []
