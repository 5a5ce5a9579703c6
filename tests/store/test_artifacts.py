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
        goldens = [store.load(e.key, "golden") for e in store.entries()
                   if e.kind == "golden"]
        assert len(goldens) == 2
        assert goldens[0].signature != goldens[1].signature
        # The cached golden is the one the spec's own inputs produce.
        fresh = run_campaign(second, store=None, keep_records=True)
        assert cached.stats.counts == fresh.stats.counts
        assert ([r.outcome for r in cached.records]
                == [r.outcome for r in fresh.records])
        run_campaign(first, store=store)
        assert store.counters["store.golden.hit"] == 1


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
        store.put("c" * 64, "golden", {"x": 1})
        with pytest.raises(StoreCorruptError):
            store.load("c" * 64, "program")


class TestMaintenance:
    def fill(self, store, n):
        for i in range(n):
            store.put(("%02x" % i) * 32, "golden", {"i": i}, name="g%d" % i)

    def test_entries_and_total(self, store):
        self.fill(store, 3)
        entries = store.entries()
        assert len(entries) == 3
        assert store.total_bytes() == sum(e.size for e in entries)

    def test_gc_max_entries_evicts_lru(self, store):
        self.fill(store, 4)
        # Touch entry 0 so it is the freshest; 1 is now the oldest.
        time.sleep(0.02)
        store.load("00" * 32, "golden")
        evicted = store.gc(max_entries=3)
        assert len(evicted) == 1
        assert evicted[0].key != "00" * 32
        assert len(store.entries()) == 3

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
        store.put("d" * 64, "golden", {"x": 1})
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
        store.put("e" * 64, "golden", {"x": 1}, name="g")
        time.sleep(0.02)
        key, _ = self.summarize(store, "func f", {"function": "f"})
        evicted = store.gc(max_entries=1)
        assert [e.key for e in evicted] == ["e" * 64]
        assert [e.kind for e in store.entries()] == ["vuln"]
