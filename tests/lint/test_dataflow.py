"""Tests for the reusable worklist dataflow engine."""

import pytest

from repro.frontend import compile_source
from repro.ir import BarrierWait, Branch, Constant, Function, Jump, Ret
from repro.ir.dataflow import (
    BACKWARD,
    FORWARD,
    TOP,
    IntersectionLattice,
    UnionLattice,
    run_dataflow,
)

PRELUDE = """
global int n = 8;
global int g;
global int out[64];
global lock l;
global barrier b;
"""


def slave_fn(body: str):
    module = compile_source(PRELUDE + "\nfunc slave() { %s }" % body)
    return module.function_named("slave")


def stores(function):
    return [i for i in function.instructions() if i.opcode == "store"]


class _StoreBlocks(UnionLattice):
    """May-set of block names that executed a global store on some path."""


def store_block_transfer(fact, inst):
    if inst.opcode == "store":
        return fact | {inst.parent.name}
    return fact


class TestForward:
    def test_straight_line_accumulates(self):
        f = slave_fn("g = 1; g = 2;")
        res = run_dataflow(f, _StoreBlocks(), store_block_transfer)
        first, second = stores(f)
        assert res.before(first) == frozenset()
        assert res.after(first) == res.before(second)
        assert len(res.after(second)) == 1  # both stores share a block

    def test_branch_join_is_union(self):
        f = slave_fn("if (n > 2) { g = 1; } else { g = 2; } g = 3;")
        res = run_dataflow(f, _StoreBlocks(), store_block_transfer)
        merge_store = next(s for s in stores(f)
                           if s.parent.name == "if.end")
        # both arms' blocks reach the merge point
        assert res.before(merge_store) == {"if.then", "if.else"}

    def test_loop_reaches_fixpoint(self):
        f = slave_fn(
            "local int i; for (i = 0; i < n; i = i + 1) { g = i; } g = 0;")
        res = run_dataflow(f, _StoreBlocks(), store_block_transfer)
        body_store, exit_store = stores(f)
        # the back edge feeds the body store's own block into its input
        assert body_store.parent.name in res.before(body_store)
        assert body_store.parent.name in res.before(exit_store)


class TestMustJoin:
    class _MustStore(IntersectionLattice):
        pass

    @staticmethod
    def transfer(fact, inst):
        if fact is TOP:
            return fact
        if inst.opcode == "store":
            return fact | {"wrote"}
        return fact

    @staticmethod
    def load_of_g(function):
        return next(i for i in function.instructions()
                    if i.opcode == "load" and i.global_.name == "g")

    def test_both_arms_store_is_must(self):
        f = slave_fn("if (n > 2) { g = 1; } else { g = 2; } output(g);")
        res = run_dataflow(f, self._MustStore(), self.transfer)
        assert res.before(self.load_of_g(f)) == frozenset({"wrote"})

    def test_one_arm_store_is_not_must(self):
        f = slave_fn("if (n > 2) { g = 1; } output(g);")
        res = run_dataflow(f, self._MustStore(), self.transfer)
        assert res.before(self.load_of_g(f)) == frozenset()


class TestBackward:
    class _BarrierAhead(UnionLattice):
        pass

    @staticmethod
    def transfer(fact, inst):
        if isinstance(inst, BarrierWait):
            return frozenset({"B"})
        return fact

    def test_barrier_on_some_path_ahead(self):
        f = slave_fn("g = 1; if (n > 2) { barrier(b); } g = 2;")
        res = run_dataflow(f, self._BarrierAhead(), self.transfer,
                           direction=BACKWARD)
        first, last = stores(f)
        # before/after keep program-order meaning for backward problems
        assert res.before(first) == frozenset({"B"})
        assert res.before(last) == frozenset()

    def test_no_barrier_ahead(self):
        f = slave_fn("g = 1; g = 2;")
        res = run_dataflow(f, self._BarrierAhead(), self.transfer,
                           direction=BACKWARD)
        assert res.before(stores(f)[0]) == frozenset()


def block_name_transfer(fact, inst):
    """Tag every block by its terminator (blocks here hold only one)."""
    return fact | {inst.parent.name}


def must_block_name_transfer(fact, inst):
    if fact is TOP:
        return fact
    return fact | {inst.parent.name}


class TestEdgeCases:
    """CFG shapes the frontend never emits but hand-built IR (and future
    passes) can: unreachable blocks, self-loops, minimal functions."""

    @staticmethod
    def orphan_fn():
        """entry -> exit, plus an unreachable 'orphan' also -> exit."""
        f = Function("orphan_holder")
        entry = f.add_block("entry")
        exit_ = f.add_block("exit")
        orphan = f.add_block("orphan")
        entry.append(Jump(exit_))
        orphan.append(Jump(exit_))
        exit_.append(Ret())
        return f

    def test_unreachable_block_keeps_optimistic_fact(self):
        f = self.orphan_fn()
        res = run_dataflow(f, UnionLattice(), block_name_transfer)
        orphan_jump = f.block_named("orphan").terminator
        assert res.before(orphan_jump) == frozenset()

    def test_unreachable_block_may_effects_flow_downstream(self):
        # Unreachable blocks are still analyzed (with the optimistic
        # input), so a may-analysis conservatively sees their effects at
        # the join — dead code can only widen a may-set, never shrink it.
        f = self.orphan_fn()
        res = run_dataflow(f, UnionLattice(), block_name_transfer)
        ret = f.block_named("exit").terminator
        assert res.before(ret) == frozenset({"entry", "orphan"})

    def test_unreachable_block_does_not_destroy_must_join(self):
        # For a must-analysis the orphan's TOP must be the join
        # identity, not wipe the facts flowing in from 'entry'.
        f = self.orphan_fn()
        res = run_dataflow(f, IntersectionLattice(),
                           must_block_name_transfer)
        ret = f.block_named("exit").terminator
        assert res.before(ret) == frozenset({"entry"})

    def test_self_loop_join_reaches_fixpoint(self):
        f = Function("selfloop")
        entry = f.add_block("entry")
        loop = f.add_block("loop")
        exit_ = f.add_block("exit")
        entry.append(Jump(loop))
        loop.append(Branch(Constant(True), loop, exit_))
        exit_.append(Ret())
        res = run_dataflow(f, UnionLattice(), block_name_transfer)
        # The self edge feeds the block's own fact back into its input.
        assert res.before(loop.terminator) == frozenset({"entry", "loop"})
        assert res.before(exit_.terminator) == frozenset({"entry", "loop"})

    def test_self_loop_must_join_intersects_with_back_edge(self):
        f = Function("selfloop_must")
        entry = f.add_block("entry")
        loop = f.add_block("loop")
        exit_ = f.add_block("exit")
        entry.append(Jump(loop))
        loop.append(Branch(Constant(True), loop, exit_))
        exit_.append(Ret())
        res = run_dataflow(f, IntersectionLattice(),
                           must_block_name_transfer)
        # Only 'entry' is on *every* path into the loop header.
        assert res.before(loop.terminator) == frozenset({"entry"})

    def test_minimal_function_forward_and_backward(self):
        f = Function("empty")
        f.add_block("entry").append(Ret())
        ret = f.entry.terminator
        fwd = run_dataflow(f, UnionLattice(), block_name_transfer)
        assert fwd.before(ret) == frozenset()
        assert fwd.after(ret) == frozenset({"entry"})
        bwd = run_dataflow(f, UnionLattice(), block_name_transfer,
                           direction=BACKWARD)
        # Program-order naming: 'after' faces the function exit.
        assert bwd.after(ret) == frozenset()
        assert bwd.before(ret) == frozenset({"entry"})

    def test_minimal_function_must_analysis(self):
        f = Function("empty_must")
        f.add_block("entry").append(Ret())
        res = run_dataflow(f, IntersectionLattice(),
                           must_block_name_transfer)
        assert res.before(f.entry.terminator) == frozenset()


class TestEngineSafety:
    def test_unknown_direction_rejected(self):
        f = slave_fn("g = 1;")
        with pytest.raises(ValueError, match="direction"):
            run_dataflow(f, _StoreBlocks(), store_block_transfer,
                         direction="sideways")

    def test_non_monotone_transfer_trips_safety_valve(self):
        f = slave_fn("local int i; for (i = 0; i < n; i = i + 1) { g = i; }")
        ticks = [0]

        def churning(fact, inst):
            ticks[0] += 1
            return frozenset({ticks[0]})  # new fact every visit

        with pytest.raises(RuntimeError, match="did not converge"):
            run_dataflow(f, _StoreBlocks(), churning, max_passes=50)

    def test_forward_is_default(self):
        f = slave_fn("g = 1;")
        res = run_dataflow(f, _StoreBlocks(), store_block_transfer)
        assert res.direction == FORWARD
