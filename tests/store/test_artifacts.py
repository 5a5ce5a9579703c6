"""ArtifactStore: cache hits, corruption healing, LRU gc, verify."""

import os
import pickle
import sys
import threading
import time

import pytest

from repro.errors import StoreCorruptError, StoreError, StoreSchemaError
from repro.runtime.program import resolve_opt_level
from repro.store import ARTIFACT_SCHEMA, ArtifactStore, program_key
from repro.telemetry import Telemetry
from tests.conftest import FIGURE_1


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestProgramCache:
    def test_miss_then_hit(self, store):
        first = store.get_program(FIGURE_1, "fig1")
        assert store.counters == {"store.cache.miss": 1}
        second = store.get_program(FIGURE_1, "fig1")
        assert store.counters["store.cache.hit"] == 1
        # The hit deserializes an equivalent, runnable program.
        assert second.name == first.name
        assert second.checked_branch_count() == first.checked_branch_count()

    def test_repeat_in_process_returns_the_loaded_program(self, store):
        """A long-running process gets the program (and the closures it
        compiled) back, instead of unpickling a fresh copy per request;
        each repeat still counts as a hit."""
        first = store.get_program(FIGURE_1, "fig1")
        assert store.get_program(FIGURE_1, "fig1") is first
        assert store.get_program(FIGURE_1, "fig1") is first
        assert store.counters == {"store.cache.miss": 1,
                                  "store.cache.hit": 2}
        # Another store object on the same root starts cold in memory.
        other = ArtifactStore(store.root).get_program(FIGURE_1, "fig1")
        assert other is not first and other.name == first.name

    def test_in_process_programs_are_bounded(self, store):
        from repro.store.artifacts import PROGRAM_LRU_SIZE
        names = ["p%d" % i for i in range(PROGRAM_LRU_SIZE + 1)]
        first = store.get_program(FIGURE_1, names[0])
        for name in names[1:]:
            store.get_program(FIGURE_1, name)
        assert len(store._programs) == PROGRAM_LRU_SIZE
        again = store.get_program(FIGURE_1, names[0])
        assert again is not first  # evicted: reloaded from disk
        assert store.counters["store.cache.hit"] == 1

    def test_hit_lands_on_telemetry(self, store):
        store.get_program(FIGURE_1, "fig1")
        tel = Telemetry()
        store.get_program(FIGURE_1, "fig1", telemetry=tel)
        assert tel.snapshot().counter("store.cache.hit") == 1

    def test_loaded_program_runs(self, store):
        store.get_program(FIGURE_1, "fig1")
        program = store.get_program(FIGURE_1, "fig1")

        def setup(memory):
            memory.set_scalar("nprocs", 2)
            memory.set_array("gp", [5, 40] * 32)

        result = program.run_protected(2, setup=setup)
        assert result.status == "ok"

    def test_loaded_program_answers_analysis_queries_like_a_fresh_one(
            self, store):
        """The analysis keys categories, slopes, loops, lock depths and
        call sites by the IR objects themselves, which pickle with the
        module; a program loaded from disk must answer every query for
        every value, block, instruction and call as the fresh program
        does.  raytrace adds address-taken functions and ``callptr``."""
        from repro.splash2 import kernel

        def answers(program):
            analysis = program.analysis
            return [(analysis.category_of(inst),
                     analysis.slope_of(inst) is None)
                    for function in program.protected.function_table
                    for inst in function.instructions()]

        def structure(program):
            blocks, insts = [], []
            for name in sorted(program.analysis.per_function):
                fa = program.analysis.per_function[name]
                for block in fa.function.blocks:
                    loop = fa.loops.innermost_loop(block)
                    blocks.append((loop.loop_id if loop is not None else None,
                                   fa.loops.nesting_depth(block)))
                    insts.extend(fa.critical.depth_at(inst)
                                 for inst in block.instructions)
            return blocks, insts

        def calls(program):
            graph = program.analysis.call_graph
            sites = {callee: [(site.parent.parent.name, site.callsite_id)
                              for site in sites]
                     for callee, sites in graph.call_sites.items()}
            return (sites, graph.parallel, graph.address_taken,
                    graph.indirect_callers,
                    program.analysis.serialized_functions)

        for name in ("radix", "raytrace"):
            spec = kernel(name)
            fresh = store.get_program(spec.source, spec.name)
            loaded = ArtifactStore(store.root).get_program(spec.source,
                                                           spec.name)
            assert loaded is not fresh
            assert answers(loaded) == answers(fresh)
            assert sum(not none for _, none in answers(fresh)) > 0
            blocks, insts = structure(fresh)
            assert structure(loaded) == (blocks, insts)
            assert sum(depth for _, depth in blocks) > 0
            assert sum(insts) > 0
            assert calls(loaded) == calls(fresh)
            assert calls(fresh)[0]

        graph = fresh.analysis.call_graph
        assert graph.address_taken and graph.indirect_callers

    def test_corrupt_entry_is_a_miss_and_self_heals(self, store):
        store.get_program(FIGURE_1, "fig1")
        # Resolve the env knob exactly as get_program does, so the test
        # holds under a forced REPRO_OPT_LEVEL environment (CI optimizer
        # matrix).
        key = program_key(FIGURE_1, "fig1",
                          opt_level=resolve_opt_level(None))
        data = os.path.join(store._entry_dir(key), "data.pkl")
        with open(data, "wb") as handle:
            handle.write(b"not a pickle")
        program = store.get_program(FIGURE_1, "fig1")
        assert program.name == "fig1"
        assert store.counters["store.cache.miss"] == 2
        # healed: strict load works again
        assert store.load(key, "program").name == "fig1"


class TestGoldenCache:
    def test_specs_differing_only_in_input_seed_do_not_share(self, store):
        from repro.faults import CampaignSpec, run_campaign
        first = CampaignSpec.for_kernel("radix", injections=2, nthreads=2,
                                        seed=5)
        second = first.replace(input_seed=first.input_seed + 1)
        run_campaign(first, store=store)
        cached = run_campaign(second, store=store, keep_records=True)
        assert store.counters["store.golden.miss"] == 2
        assert "store.golden.hit" not in store.counters
        first_summary, second_summary = (
            summary for _, summary, _ in store._goldens.values())
        assert first_summary.signature != second_summary.signature
        # Golden runs stay in memory: nothing of theirs is on disk.
        assert all(entry.kind != "golden" for entry in store.entries())
        # The cached golden is the one the spec's own inputs produce.
        fresh = run_campaign(second, store=None, keep_records=True)
        assert cached.stats.counts == fresh.stats.counts
        assert ([r.outcome for r in cached.records]
                == [r.outcome for r in fresh.records])
        run_campaign(first, store=store)
        assert store.counters["store.golden.hit"] == 1

    def test_in_process_goldens_are_bounded(self, store):
        from repro.store.artifacts import PROGRAM_LRU_SIZE
        program = store.get_program(FIGURE_1, "fig1")
        computed = []

        def get(seed):
            def compute():
                computed.append(seed)
                return "summary %d" % seed, ()
            return store.get_golden(program, 2, seed, 100, ("result",),
                                    compute=compute)

        for seed in range(PROGRAM_LRU_SIZE + 1):
            assert get(seed) == ("summary %d" % seed, ())
        assert len(store._goldens) == PROGRAM_LRU_SIZE
        get(PROGRAM_LRU_SIZE)  # the freshest entry: a hit
        get(0)  # evicted: computed again
        assert computed == list(range(PROGRAM_LRU_SIZE + 1)) + [0]
        assert store.counters["store.golden.hit"] == 1
        assert store.counters["store.golden.miss"] == PROGRAM_LRU_SIZE + 2

    def test_fresh_stores_on_one_root_each_miss_once(self, store):
        from repro.faults import CampaignSpec, run_campaign
        spec = CampaignSpec.for_kernel("radix", injections=2, nthreads=2,
                                       seed=5)
        for each in (store, ArtifactStore(store.root)):
            run_campaign(spec, store=each)
            run_campaign(spec, store=each)
            assert (each.counters["store.golden.miss"],
                    each.counters["store.golden.hit"]) == (1, 1)


class TestOneHandlePerRoot:
    def test_store_for_returns_one_object_per_root(self, tmp_path):
        from repro.store import open_store, store_for
        root = str(tmp_path / "shared")
        store = store_for(root)
        assert store_for(root + "/") is store
        assert open_store(root) is store
        assert store_for(str(tmp_path / "other")) is not store

    def test_spec_store_campaigns_share_one_golden(self, tmp_path):
        from repro.faults import CampaignSpec, run_campaign
        from repro.store import store_for
        root = str(tmp_path / "spec-store")
        spec = CampaignSpec.for_kernel("radix", injections=2, nthreads=2,
                                       seed=5)
        run_campaign(spec.replace(store=root))
        run_campaign(spec.replace(store=root))
        counters = store_for(root).counters
        assert (counters["store.golden.miss"],
                counters["store.golden.hit"]) == (1, 1)

    def test_forked_child_gets_its_own_warm_handle(self, tmp_path):
        import multiprocessing
        from repro.store import default_store, set_default_store, store_for
        root = str(tmp_path / "forked")
        parent = store_for(root)
        program = parent.get_program(FIGURE_1, "figure1")
        set_default_store(parent)
        try:
            with multiprocessing.get_context("fork").Pool(1) as pool:
                child_pid, handles, warm = pool.apply(_handles_in_child,
                                                      (root,))
        finally:
            set_default_store(None)
        assert child_pid != os.getpid()
        # store_for and default_store agree on one object of the child's.
        assert handles == (child_pid, child_pid, True)
        # It serves the program the parent had in memory, and counts
        # only the child's own lookups.
        assert warm == (id(program), {"store.cache.hit": 1})
        assert default_store() is None and store_for(root) is parent


def _handles_in_child(root):
    from repro.store import default_store, store_for
    store = store_for(root)
    program = store.get_program(FIGURE_1, "figure1")
    return os.getpid(), (store.pid, default_store().pid,
                         default_store() is store), (id(program),
                                                     store.counters)


class TestConcurrentWrites:
    def test_threads_put_one_key_at_once(self, store):
        """Each writer has its own temp file, so racing writers of one
        key all succeed and the entry stays loadable."""
        payloads = [bytes([65 + i]) * 200_000 for i in range(4)]
        start = threading.Barrier(len(payloads))
        errors = []

        def writer(payload):
            try:
                start.wait(timeout=30)
                for _ in range(25):
                    store.put("k" * 64, "blob", payload, name="race")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.load("k" * 64, "blob") in payloads
        leftovers = [name for name in os.listdir(store._entry_dir("k" * 64))
                     if ".tmp." in name]
        assert leftovers == []


class TestStrictLoad:
    def test_missing_raises(self, store):
        with pytest.raises(StoreError):
            store.load("0" * 64, "program")

    def test_corrupt_raises(self, store):
        store.put("a" * 64, "program", {"x": 1})
        with open(os.path.join(store._entry_dir("a" * 64), "data.pkl"),
                  "wb") as handle:
            handle.write(b"\x80garbage")
        with pytest.raises(StoreCorruptError):
            store.load("a" * 64, "program")

    def test_schema_mismatch_raises(self, store):
        directory = store._entry_dir("b" * 64)
        os.makedirs(directory)
        with open(os.path.join(directory, "data.pkl"), "wb") as handle:
            pickle.dump({"schema": ARTIFACT_SCHEMA + 1, "kind": "program",
                         "payload": 1}, handle)
        with pytest.raises(StoreSchemaError):
            store.load("b" * 64, "program")

    def test_kind_mismatch_raises(self, store):
        store.put("c" * 64, "blob", {"x": 1})
        with pytest.raises(StoreCorruptError):
            store.load("c" * 64, "program")


class TestMaintenance:
    def fill(self, store, n):
        for i in range(n):
            store.put(("%02x" % i) * 32, "blob", {"i": i}, name="b%d" % i)

    def test_entries_and_total(self, store):
        self.fill(store, 3)
        entries = store.entries()
        assert len(entries) == 3
        assert store.total_bytes() == sum(e.size for e in entries)

    def test_gc_max_entries_evicts_lru(self, store):
        self.fill(store, 4)
        # Touch entry 0 so it is the freshest; 1 is now the oldest.
        time.sleep(0.02)
        store.load("00" * 32, "blob")
        evicted = store.gc(max_entries=3)
        assert len(evicted) == 1
        assert evicted[0].key != "00" * 32
        assert len(store.entries()) == 3

    def test_gc_keeps_the_most_recently_loaded_entry(self, store):
        self.fill(store, 2)
        meta = os.path.join(store._entry_dir("00" * 32), "meta.json")
        before = (os.stat(meta).st_ino, open(meta, "rb").read())
        time.sleep(0.02)
        store.load("00" * 32, "blob")
        # Use bumps the mtime only; meta.json is not rewritten.
        assert (os.stat(meta).st_ino, open(meta, "rb").read()) == before
        evicted = store.gc(max_entries=1)
        assert [entry.key for entry in evicted] == ["01" * 32]
        assert [entry.key for entry in store.entries()] == ["00" * 32]

    def test_gc_max_bytes(self, store):
        self.fill(store, 4)
        per = store.entries()[0].size
        evicted = store.gc(max_bytes=2 * per)
        assert len(evicted) == 2
        assert store.total_bytes() <= 2 * per

    def test_gc_dry_run(self, store):
        self.fill(store, 2)
        assert len(store.gc(max_entries=0, dry_run=True)) == 2
        assert len(store.entries()) == 2

    def test_verify_reports_and_deletes(self, store):
        self.fill(store, 2)
        bad = store.entries()[0]
        with open(os.path.join(bad.path, "data.pkl"), "wb") as handle:
            handle.write(b"junk")
        problems = store.verify()
        assert len(problems) == 1 and problems[0][0].key == bad.key
        assert len(store.entries()) == 2  # report only
        store.verify(delete=True)
        assert len(store.entries()) == 1


class TestVulnKind:
    """Per-function vulnerability summaries share the generic entry
    machinery; pin the behaviors the analyzer relies on."""

    def summarize(self, store, fingerprint, payload):
        from repro.store import vuln_key
        from repro.lint.vuln import VULN_SCHEMA
        key = vuln_key(fingerprint, VULN_SCHEMA)
        return key, store.get_vuln(key, lambda: payload)

    def test_miss_then_hit(self, store):
        key, first = self.summarize(store, "func f", {"function": "f"})
        assert store.counters == {"store.vuln.miss": 1}
        _, second = self.summarize(store, "func f", {"function": "DIFFERENT"})
        assert store.counters["store.vuln.hit"] == 1
        assert second == first  # compute() not called on a hit

    def test_schema_bump_changes_key(self, store):
        from repro.store import vuln_key
        assert vuln_key("func f", 1) != vuln_key("func f", 2)

    def test_corrupt_summary_falls_back_to_cold_analysis(self, store):
        key, _ = self.summarize(store, "func f", {"function": "f"})
        with open(os.path.join(store._entry_dir(key), "data.pkl"),
                  "wb") as handle:
            handle.write(b"not a pickle")
        calls = []

        def compute():
            calls.append(1)
            return {"function": "f", "fresh": True}

        healed = store.get_vuln(key, compute)
        assert calls == [1]
        assert healed["fresh"] is True
        assert store.counters["store.vuln.miss"] == 2
        # healed in place: strict load works again
        assert store.load(key, "vuln")["fresh"] is True

    def test_kind_mismatch_rejected(self, store):
        store.put("d" * 64, "blob", {"x": 1})
        with pytest.raises(StoreCorruptError):
            store.load("d" * 64, "vuln")

    def test_gc_evicts_stale_vuln_entries_first(self, store):
        keys = []
        for i in range(3):
            key, _ = self.summarize(store, "func f%d" % i, {"i": i})
            keys.append(key)
            time.sleep(0.02)
        # Re-read the oldest summary: it becomes the freshest.
        store.get_vuln(keys[0], lambda: pytest.fail("should hit"))
        evicted = store.gc(max_entries=2)
        assert [e.key for e in evicted] == [keys[1]]
        kept = {e.key for e in store.entries()}
        assert kept == {keys[0], keys[2]}

    def test_verify_flags_corrupt_vuln_entry(self, store):
        key, _ = self.summarize(store, "func f", {"function": "f"})
        with open(os.path.join(store._entry_dir(key), "data.pkl"),
                  "wb") as handle:
            handle.write(b"junk")
        problems = store.verify()
        assert [p[0].key for p in problems] == [key]
        store.verify(delete=True)
        assert store.entries() == []

    def test_mixed_kind_gc_is_lru_across_kinds(self, store):
        store.put("e" * 64, "blob", {"x": 1}, name="b")
        time.sleep(0.02)
        key, _ = self.summarize(store, "func f", {"function": "f"})
        evicted = store.gc(max_entries=1)
        assert [e.key for e in evicted] == ["e" * 64]
        assert [e.kind for e in store.entries()] == ["vuln"]
