"""Tests for the IR verifier: each structural rule must be enforced."""

import pytest

from repro.errors import VerificationError
from repro.ir import (
    CFG,
    INT,
    Constant,
    Function,
    IRBuilder,
    Jump,
    Module,
    Phi,
    Ret,
    verify_function,
    verify_module,
)


def simple_function():
    f = Function("f", return_type=INT)
    builder = IRBuilder(f.add_block("entry"))
    builder.ret(1)
    return f


class TestStructure:
    def test_valid_function_passes(self):
        verify_function(simple_function())

    def test_empty_function_rejected(self):
        with pytest.raises(VerificationError):
            verify_function(Function("f"))

    def test_unterminated_block_rejected(self):
        f = Function("f")
        builder = IRBuilder(f.add_block())
        builder.add(1, 2)
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_empty_block_rejected(self):
        f = Function("f")
        builder = IRBuilder(f.add_block())
        builder.ret()
        f.add_block("empty")
        with pytest.raises(VerificationError, match="empty"):
            verify_function(f)

    def test_entry_with_predecessor_rejected(self):
        f = Function("f")
        entry = f.add_block("entry")
        other = f.add_block("other")
        IRBuilder(entry).jmp(other)
        IRBuilder(other).jmp(entry)
        with pytest.raises(VerificationError, match="predecessors"):
            verify_function(f)

    def test_midblock_terminator_rejected(self):
        f = Function("f")
        block = f.add_block()
        # Bypass the append() guard to build the malformed block.
        ret1, ret2 = Ret(), Ret()
        block.instructions = [ret1, ret2]
        ret1.parent = ret2.parent = block
        with pytest.raises(VerificationError, match="mid-block"):
            verify_function(f)


class TestPhis:
    def test_phi_with_wrong_edges_rejected(self):
        f = Function("f")
        entry = f.add_block("entry")
        merge = f.add_block("merge")
        IRBuilder(entry).jmp(merge)
        phi = Phi(INT, "x")
        merge.insert_after_phis(phi)
        phi.parent = merge
        phi.add_incoming(Constant(1), entry)
        phi.add_incoming(Constant(2), f.add_block("fake"))
        IRBuilder(merge).ret()
        # 'fake' block also must be terminated to reach the phi check
        IRBuilder(f.block_named("fake")).ret()
        with pytest.raises(VerificationError, match="incoming"):
            verify_function(f)

    def test_phi_after_non_phi_rejected(self):
        f = Function("f")
        entry = f.add_block("entry")
        merge = f.add_block("merge")
        IRBuilder(entry).jmp(merge)
        builder = IRBuilder(merge)
        builder.add(1, 2)
        phi = Phi(INT, "x")
        phi.add_incoming(Constant(1), entry)
        merge.append(phi)
        builder.ret()
        with pytest.raises(VerificationError, match="phi"):
            verify_function(f)

    def test_incoming_from_unreachable_predecessor_passes(self):
        # ``orphan`` is unreachable, so the edge it contributes carries
        # no dominance obligation: ``y`` (defined only on the ``side``
        # path) may flow in along it.
        f = Function("f")
        entry, side, orphan, merge = (
            f.add_block(name) for name in ("entry", "side", "orphan", "merge"))
        builder = IRBuilder(entry)
        builder.br(builder.cmp("lt", 1, 2), side, merge)
        builder.position_at_end(side)
        y = builder.add(1, 2)
        builder.jmp(merge)
        IRBuilder(orphan).jmp(merge)
        phi = Phi(INT, "x")
        merge.insert_after_phis(phi)
        phi.add_incoming(Constant(1), entry)
        phi.add_incoming(y, side)
        phi.add_incoming(y, orphan)
        IRBuilder(merge).ret()
        verify_function(f)


class TestDominance:
    def test_use_before_def_in_block_rejected(self):
        f = Function("f")
        block = f.add_block()
        builder = IRBuilder(block)
        first = builder.add(1, 2)
        second = builder.add(first, 1)
        builder.ret()
        # Swap: now `second` uses `first` before it is defined.
        block.instructions[0], block.instructions[1] = (
            block.instructions[1], block.instructions[0])
        with pytest.raises(VerificationError, match="dominated"):
            verify_function(f)

    def test_use_across_non_dominating_blocks_rejected(self):
        f = Function("f")
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        merge = f.add_block("merge")
        builder = IRBuilder(entry)
        cond = builder.cmp("lt", 1, 2)
        builder.br(cond, left, right)
        builder.position_at_end(left)
        defined = builder.add(1, 2)
        builder.jmp(merge)
        IRBuilder(right).jmp(merge)
        builder.position_at_end(merge)
        builder.add(defined, 1)  # not dominated: only defined on left path
        builder.ret()
        with pytest.raises(VerificationError, match="dominated"):
            verify_function(f)


class TestReturns:
    def test_void_function_returning_value_rejected(self):
        f = Function("f")
        builder = IRBuilder(f.add_block())
        builder.block.append(Ret(Constant(1)))
        with pytest.raises(VerificationError, match="void"):
            verify_function(f)

    def test_nonvoid_function_returning_nothing_rejected(self):
        f = Function("f", return_type=INT)
        IRBuilder(f.add_block()).ret()
        with pytest.raises(VerificationError, match="returns nothing"):
            verify_function(f)


class TestModuleReferences:
    def test_foreign_global_rejected(self):
        m = Module("m")
        other = Module("other")
        g = other.add_global("x", INT, 0)
        f = Function("f")
        m.add_function(f)
        builder = IRBuilder(f.add_block())
        builder.load(g)
        builder.ret()
        with pytest.raises(VerificationError, match="global"):
            verify_module(m)

    def test_jump_to_foreign_block_rejected(self):
        m = Module("m")
        f = Function("f")
        g = Function("g")
        m.add_function(f)
        m.add_function(g)
        target = g.add_block()
        IRBuilder(target).ret()
        IRBuilder(f.add_block()).jmp(target)
        with pytest.raises(VerificationError):
            verify_module(m)

    def test_jump_to_foreign_block_names_the_edge(self):
        f = Function("f")
        g = Function("g")
        target = g.add_block("target")
        IRBuilder(target).ret()
        IRBuilder(f.add_block("entry")).jmp(target)
        message = "f: successor target of entry is not in the function"
        with pytest.raises(VerificationError, match=message):
            verify_function(f)
        with pytest.raises(VerificationError, match=message):
            CFG(f)
