"""Tests for barrier-phase and must-lockset analyses."""

from repro.frontend import compile_source
from repro.lint.sync import (
    barrier_token,
    entry_token,
    functions_with_barriers,
    lockset_analysis,
    lockset_at,
    phase_analysis,
    phases_at,
)

PRELUDE = """
global int n = 8;
global int g;
global int out[64];
global lock l;
global lock l2;
global barrier b;
global barrier b2;
"""


def slave_fn(body: str, extra: str = ""):
    module = compile_source(PRELUDE + extra + "\nfunc slave() { %s }" % body)
    return module.function_named("slave")


def stores(function):
    return sorted((i for i in function.instructions() if i.opcode == "store"),
                  key=lambda i: i.value.value)


def barriers(function):
    return [i for i in function.instructions() if i.opcode == "barrier"]


class TestPhases:
    def test_straight_line_phases(self):
        f = slave_fn("g = 1; barrier(b); g = 2; barrier(b2); g = 3;")
        f.number_values()
        res = phase_analysis(f)
        s1, s2, s3 = stores(f)
        bw1, bw2 = barriers(f)
        assert phases_at(res, s1) == {entry_token(f)}
        assert phases_at(res, s2) == {barrier_token(f, bw1)}
        assert phases_at(res, s3) == {barrier_token(f, bw2)}

    def test_barrier_closes_its_own_phase(self):
        f = slave_fn("g = 1; barrier(b);")
        f.number_values()
        res = phase_analysis(f)
        (bw,) = barriers(f)
        # the wait itself still belongs to the phase it closes
        assert phases_at(res, bw) == {entry_token(f)}

    def test_loop_back_edge_merges_phases(self):
        body = """
        local int i;
        for (i = 0; i < n; i = i + 1) {
          g = i;
          barrier(b);
          output(g);
        }
        """
        f = slave_fn(body)
        f.number_values()
        res = phase_analysis(f)
        (bw,) = barriers(f)
        store = next(i for i in f.instructions() if i.opcode == "store")
        load = next(i for i in f.instructions()
                    if i.opcode == "load" and i.global_.name == "g")
        # first iteration comes from entry, later ones from the barrier
        assert phases_at(res, store) == {entry_token(f), barrier_token(f, bw)}
        # the read after the wait sits in the barrier's phase only
        assert phases_at(res, load) == {barrier_token(f, bw)}
        # store and read share the barrier phase: they may run in parallel
        assert phases_at(res, store) & phases_at(res, load)

    def test_trailing_barrier_separates_loop_phases(self):
        body = """
        local int i;
        for (i = 0; i < n; i = i + 1) {
          g = i;
          barrier(b);
          output(g);
          barrier(b2);
        }
        """
        f = slave_fn(body)
        f.number_values()
        res = phase_analysis(f)
        store = next(i for i in f.instructions() if i.opcode == "store")
        load = next(i for i in f.instructions()
                    if i.opcode == "load" and i.global_.name == "g")
        # the second barrier keeps write and read phases disjoint
        assert not (phases_at(res, store) & phases_at(res, load))


class TestLocksets:
    def test_straight_line_lockset(self):
        f = slave_fn("lock(l); g = 1; unlock(l); g = 2;")
        res = lockset_analysis(f)
        s1, s2 = stores(f)
        assert lockset_at(res, s1) == {"l"}
        assert lockset_at(res, s2) == frozenset()

    def test_nested_locks_accumulate(self):
        f = slave_fn("lock(l); lock(l2); g = 1; unlock(l2); g = 2; unlock(l);")
        res = lockset_analysis(f)
        s1, s2 = stores(f)
        assert lockset_at(res, s1) == {"l", "l2"}
        assert lockset_at(res, s2) == {"l"}

    def test_join_intersects(self):
        f = slave_fn(
            "lock(l); if (n > 2) { lock(l2); g = 1; unlock(l2); } "
            "g = 2; unlock(l);")
        res = lockset_analysis(f)
        s1, s2 = stores(f)
        assert lockset_at(res, s1) == {"l", "l2"}
        # only l is held on every path into the merge
        assert lockset_at(res, s2) == {"l"}

    def test_loop_body_keeps_lockset(self):
        body = """
        local int i;
        for (i = 0; i < n; i = i + 1) {
          lock(l); g = i; unlock(l);
        }
        """
        f = slave_fn(body)
        res = lockset_analysis(f)
        (store,) = [i for i in f.instructions() if i.opcode == "store"]
        assert lockset_at(res, store) == {"l"}


class TestFunctionsWithBarriers:
    def test_direct_barriers_only(self):
        extra = "func helper() { barrier(b); }"
        module = compile_source(
            PRELUDE + extra + "\nfunc slave() { helper(); g = 1; }")
        assert functions_with_barriers(module.function_table) == {"helper"}
        # "slave" calls helper but is not listed: transitive barriers are the
        # race detector's call-graph closure, not this helper's job
