"""Tests for the structural analyses: CFG, dominators, loops.

The (post)dominator tests cross-check the CHK trees against the
definition — removing a dominator disconnects the block — on randomly
generated CFGs with back edges, self-loops and irreducible loops.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loops
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir import CFG, DominatorTree, Function, IRBuilder


def diamond():
    """entry -> (left|right) -> merge"""
    f = Function("f")
    entry, left, right, merge = (f.add_block(n) for n in
                                 ("entry", "left", "right", "merge"))
    builder = IRBuilder(entry)
    builder.br(builder.cmp("lt", 1, 2), left, right)
    IRBuilder(left).jmp(merge)
    IRBuilder(right).jmp(merge)
    IRBuilder(merge).ret()
    return f


class TestCFG:
    def test_diamond_edges(self):
        f = diamond()
        cfg = CFG(f)
        merge = f.block_named("merge")
        assert {b.name for b in cfg.predecessors[merge]} == {"left", "right"}
        assert len(cfg.successors[f.entry]) == 2

    def test_reverse_postorder_starts_at_entry(self):
        f = diamond()
        order = CFG(f).reverse_postorder()
        assert order[0] is f.entry
        assert order[-1].name == "merge"

    def test_reachable_excludes_orphans(self):
        f = diamond()
        orphan = f.add_block("orphan")
        IRBuilder(orphan).ret()
        reachable = CFG(f).reachable()
        assert orphan not in reachable


class TestDominators:
    def test_diamond(self):
        f = diamond()
        dom = DominatorTree(f)
        entry = f.entry
        merge = f.block_named("merge")
        left = f.block_named("left")
        assert dom.dominates(entry, merge)
        assert not dom.dominates(left, merge)
        assert dom.dominates(merge, merge)
        assert dom.strictly_dominates(entry, left)
        assert not dom.strictly_dominates(entry, entry)

    def _random_function(self, rng: random.Random, nblocks: int) -> Function:
        """Random CFG with forward edges, back edges, self-loops, and —
        half the time — an irreducible two-entry loop."""
        targets = []
        for _ in range(nblocks):
            kind = rng.random()
            if kind < 0.2:
                targets.append([])
            elif kind < 0.55:
                targets.append([rng.randrange(nblocks)])
            else:
                targets.append([rng.randrange(nblocks),
                                rng.randrange(nblocks)])
        if nblocks >= 3 and rng.random() < 0.5:
            # ``a`` enters the cycle j <-> k at both j and k.
            a, j, k = sorted(rng.sample(range(nblocks), 3))
            targets[a] = [j, k]
            targets[j] = [k, rng.randrange(nblocks)]
            targets[k] = [j]
        f = Function("f")
        blocks = [f.add_block("b%d" % i) for i in range(nblocks)]
        for block, succs in zip(blocks, targets):
            builder = IRBuilder(block)
            if not succs:
                builder.ret()
            elif len(succs) == 1:
                builder.jmp(blocks[succs[0]])
            else:
                cond = builder.cmp("lt", 1, 2)
                builder.br(cond, blocks[succs[0]], blocks[succs[1]])
        return f

    @staticmethod
    def _reach(edges, starts, removed=None):
        """ids of the blocks reachable from ``starts`` without entering
        ``removed``."""
        seen = set()
        work = [b for b in starts if b is not removed]
        while work:
            block = work.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            work.extend(s for s in edges[block] if s is not removed)
        return seen

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_chk_matches_brute_force_dominators(self, seed, nblocks):
        # ``a`` dominates ``b`` iff ``b`` is unreachable once ``a`` is
        # removed.
        f = self._random_function(random.Random(seed), nblocks)
        cfg = CFG(f)
        tree = DominatorTree(f, cfg)
        reachable = self._reach(cfg.successors, [f.entry])
        assert reachable == {id(b) for b in cfg.reachable()}
        for b in f.blocks:
            if id(b) not in reachable:
                assert b not in tree.idom
                continue
            for a in f.blocks:
                expected = a is b or id(b) not in self._reach(
                    cfg.successors, [f.entry], removed=a)
                assert tree.dominates(a, b) == expected, (
                    "dominates(%s, %s)" % (a.name, b.name))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_chk_matches_brute_force_postdominators(self, seed, nblocks):
        # ``a`` postdominates ``b`` iff no exit is reachable from ``b``
        # once ``a`` is removed; a block with no path to an exit has no
        # postdominators at all.
        f = self._random_function(random.Random(seed), nblocks)
        cfg = CFG(f)
        post = DominatorTree.post(f, cfg)
        exits = {id(b) for b in f.blocks if not cfg.successors[b]}
        for b in f.blocks:
            if not exits & self._reach(cfg.successors, [b]):
                assert post.dominators(b) == []
                continue
            for a in f.blocks:
                expected = a is b or not exits & self._reach(
                    cfg.successors, [b], removed=a)
                assert post.dominates(a, b) == expected, (
                    "postdominates(%s, %s)" % (a.name, b.name))
            assert {id(a) for a in post.dominators(b)} == {
                id(a) for a in f.blocks if post.dominates(a, b)}


class TestLoops:
    def compile(self, body: str):
        module = compile_source("global int n = 10;\nfunc f() { %s }" % body)
        return module.function_named("f")

    def test_single_loop(self):
        f = self.compile(
            "local int i; for (i = 0; i < n; i = i + 1) { output(i); }")
        loops = find_loops(f)
        assert len(loops.loops) == 1
        loop = loops.loops[0]
        assert loop.depth == 1
        assert loop.header.name == "loop.header"
        assert loop.preheader is not None
        assert loop.preheader.name == "loop.preheader"

    def test_nested_loops_depths(self):
        f = self.compile(
            "local int i; local int j;"
            "for (i = 0; i < n; i = i + 1) {"
            "  for (j = 0; j < n; j = j + 1) { output(j); }"
            "}")
        loops = find_loops(f)
        assert len(loops.loops) == 2
        depths = sorted(loop.depth for loop in loops.loops)
        assert depths == [1, 2]
        inner = max(loops.loops, key=lambda l: l.depth)
        assert inner.parent is not None
        assert inner.parent.depth == 1
        assert inner.ancestors_outermost_first()[0].depth == 1

    def test_sequential_loops_are_siblings(self):
        f = self.compile(
            "local int i;"
            "for (i = 0; i < n; i = i + 1) { output(i); }"
            "for (i = 0; i < n; i = i + 1) { output(i); }")
        loops = find_loops(f)
        assert len(loops.loops) == 2
        assert all(loop.depth == 1 for loop in loops.loops)

    def test_block_to_loop_mapping(self):
        f = self.compile(
            "local int i; while (i < n) { if (i > 2) { output(i); } i = i + 1; }")
        loops = find_loops(f)
        body = f.block_named("if.then")
        assert loops.nesting_depth(body) == 1
        assert loops.nesting_depth(f.entry) == 0
        assert loops.loop_chain(f.entry) == []

    def test_loop_ids_offset(self):
        f = self.compile(
            "local int i; for (i = 0; i < n; i = i + 1) { output(i); }")
        loops = find_loops(f, first_loop_id=41)
        assert loops.loops[0].loop_id == 41

    def test_while_with_continue_single_header(self):
        f = self.compile(
            "local int i;"
            "while (i < n) { i = i + 1; if (i == 3) { continue; } output(i); }")
        loops = find_loops(f)
        assert len(loops.loops) == 1
        assert len(loops.loops[0].latches) >= 2  # continue adds a back edge

    def test_seven_deep_nesting(self):
        body = "local int i0;"
        open_loops = ""
        close = ""
        for depth in range(7):
            body += "local int i%d;" % (depth + 1) if depth else ""
        text = ""
        for depth in range(7):
            text += "for (i%d = 0; i%d < 2; i%d = i%d + 1) {" % ((depth,) * 4)
        text += "output(i6);"
        text += "}" * 7
        decls = "".join("local int i%d;" % d for d in range(7))
        f = self.compile(decls + text)
        loops = find_loops(f)
        assert max(loop.depth for loop in loops.loops) == 7
