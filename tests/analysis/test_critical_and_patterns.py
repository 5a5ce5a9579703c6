"""Tests for critical-section analysis and thread-id idiom recognition."""

from repro.analysis import CriticalSections, find_tid_counters
from repro.analysis.critical_sections import functions_only_called_under_lock
from repro.frontend import compile_source
from repro.ir import CFG, Branch, CallGraph

PRELUDE = """
global int g;
global int n = 4;
global lock l;
global lock l2;
"""


def sections_for(body: str, extra: str = "", verify: bool = True):
    module = compile_source(PRELUDE + extra + "\nfunc slave() { %s }" % body,
                            verify=verify)
    f = module.function_named("slave")
    return module, f, CriticalSections(f)


class TestCriticalSections:
    def test_straight_line_depths(self):
        _, f, cs = sections_for("g = 1; lock(l); g = 2; unlock(l); g = 3;")
        stores = [i for i in f.instructions() if i.opcode == "store"]
        assert [cs.depth_at(s) for s in stores] == [0, 1, 0]

    def test_nested_locks(self):
        _, f, cs = sections_for(
            "lock(l); lock(l2); g = 1; unlock(l2); g = 2; unlock(l); g = 3;")
        stores = [i for i in f.instructions() if i.opcode == "store"]
        assert [cs.depth_at(s) for s in stores] == [2, 1, 0]

    def test_branch_inside_critical_section(self):
        _, f, cs = sections_for(
            "lock(l); if (n > 2) { g = 1; } unlock(l);")
        branch = next(i for i in f.instructions() if isinstance(i, Branch))
        assert cs.in_critical_section(branch)

    def test_branch_after_unlock_is_outside(self):
        _, f, cs = sections_for(
            "lock(l); g = 1; unlock(l); if (n > 2) { g = 2; }")
        branch = next(i for i in f.instructions() if isinstance(i, Branch))
        assert not cs.in_critical_section(branch)

    def test_lock_spanning_branches_conservative(self):
        """If only one path locks, the join is treated as locked (max).
        The verifier rejects this unbalanced protocol, so compile
        unverified — the analysis must stay conservative on bad input."""
        _, f, cs = sections_for(
            "if (n > 2) { lock(l); } g = 1; unlock(l);", verify=False)
        store = next(i for i in f.instructions() if i.opcode == "store")
        assert cs.depth_at(store) == 1

    def test_functions_called_only_under_lock(self):
        extra = "func inner() { if (n > 1) { g = 5; } }"
        module, f, cs = sections_for(
            "lock(l); inner(); unlock(l);", extra=extra)
        serialized = functions_only_called_under_lock(
            CallGraph(module, "slave"),
            {"slave": cs, "inner": CriticalSections(module.function_named("inner"))})
        assert serialized == {"inner"}

    def test_mixed_call_sites_not_serialized(self):
        extra = "func inner() { g = 5; }"
        module, f, cs = sections_for(
            "lock(l); inner(); unlock(l); inner();", extra=extra)
        serialized = functions_only_called_under_lock(
            CallGraph(module, "slave"),
            {"slave": cs, "inner": CriticalSections(module.function_named("inner"))})
        assert serialized == set()

    def test_transitive_serialization(self):
        extra = ("func leaf() { g = 1; }\n"
                 "func mid() { leaf(); }")
        module, f, cs = sections_for("lock(l); mid(); unlock(l);", extra=extra)
        names = {"slave", "mid", "leaf"}
        sections = {name: CriticalSections(module.function_named(name))
                    for name in names}
        serialized = functions_only_called_under_lock(
            CallGraph(module, "slave"), sections)
        assert serialized == {"mid", "leaf"}


class TestTidCounterIdiom:
    def analyze(self, body: str):
        module = compile_source(PRELUDE + "\nfunc slave() { %s }" % body)
        names = {"slave"}
        sections = {"slave": CriticalSections(module.function_named("slave"))}
        return find_tid_counters(module, names, sections)

    def test_classic_idiom(self):
        counters = self.analyze(
            "local int p; lock(l); p = g; g = g + 1; unlock(l); output(p);")
        assert counters == {"g"}

    def test_reversed_addition(self):
        counters = self.analyze(
            "local int p; lock(l); p = g; g = 1 + g; unlock(l); output(p);")
        assert counters == {"g"}

    def test_unlocked_access_disqualifies(self):
        counters = self.analyze(
            "local int p = g; lock(l); g = g + 1; unlock(l); output(p);")
        assert counters == set()

    def test_non_increment_store_disqualifies(self):
        counters = self.analyze(
            "lock(l); g = g * 2; unlock(l);")
        assert counters == set()

    def test_never_written_global_is_not_a_counter(self):
        counters = self.analyze(
            "local int p; lock(l); p = g; unlock(l); output(p);")
        assert counters == set()

    def test_variable_increment_disqualifies(self):
        counters = self.analyze(
            "lock(l); g = g + n; unlock(l);")
        assert counters == set()
