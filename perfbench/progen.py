"""Seeded generator of race-free SPMD MiniC programs of a chosen size.

Adapted from the generator in the repository's fuzzed-program property
test, with one addition: ``branches`` sets how many branch constructs
(``if`` and ``for``) the program contains, so the static pipeline can be
fed inputs several times larger than the biggest SPLASH-2 kernel
(raytrace, 52 checked branches).  Every write goes to a slot owned by
the writing thread (``out[procid * 16 + k]``) and the thread id comes
from ``tid()`` or a lock-protected counter, so the programs are
race-free by construction.

The size alone fixes the statement structure (which construct goes
where, and how deeply it nests); the seed draws everything else:
conditions, operands, constants, loop bounds and the thread-id idiom.
Frontend SSA construction is superlinear in the block structure, so
this keeps equally sized programs equally expensive across seeds while
the analyses still see different similarity categories and verdicts.
"""

from __future__ import annotations

import random

PRELUDE = """
global int id;
global int nprocs;
global int n = 16;
global int c1 = 3;
global int c2 = 7;
global int data[128];
global int out[512];
global lock l;
global barrier bar;
"""


class ProgramGenerator:
    """Emits one random race-free SPMD kernel per ``(seed, branches)``."""

    def __init__(self, seed: int, branches: int):
        self.rng = random.Random(seed)
        self.shape = random.Random(branches)
        self.target = branches
        self.branches = 0
        self.lines = []
        self.indent = 1
        self.scalar_pool = ["n", "c1", "c2"]
        self.partial_vars = []
        self.local_counter = 0

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    def fresh(self) -> str:
        self.local_counter += 1
        return "v%d" % self.local_counter

    def shared_expr(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            return str(rng.randrange(0, 8))
        if roll < 0.8:
            return rng.choice(self.scalar_pool)
        return "%s + %d" % (rng.choice(self.scalar_pool), rng.randrange(1, 4))

    def condition(self) -> str:
        rng = self.rng
        kind = rng.random()
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        if kind < 0.35 or not self.partial_vars:
            return "%s %s %s" % (self.shared_expr(), op, self.shared_expr())
        if kind < 0.6:
            return "%s %s %s" % (rng.choice(self.partial_vars), op,
                                 self.shared_expr())
        if kind < 0.8:
            return "procid %s %s" % (op, self.shared_expr())
        return "data[(procid + %d) %% 128] %s %s" % (
            rng.randrange(0, 64), op, self.shared_expr())

    def condition_shared_only(self) -> str:
        op = self.rng.choice(["<", ">", "==", "!="])
        return "%s %s %s" % (self.shared_expr(), op, self.shared_expr())

    def gen_partial_seed(self) -> None:
        name = self.fresh()
        self.branches += 1
        self.emit("local int %s;" % name)
        self.emit("if (%s) {" % self.condition_shared_only())
        self.emit("  %s = %s;" % (name, self.shared_expr()))
        self.emit("} else {")
        self.emit("  %s = %s;" % (name, self.shared_expr()))
        self.emit("}")
        self.partial_vars.append(name)

    def gen_statement(self, depth: int) -> None:
        rng = self.rng
        shape = self.shape
        roll = shape.random()
        if roll < 0.25 and depth < 3:
            self.branches += 1
            self.emit("if (%s) {" % self.condition())
            self.indent += 1
            for _ in range(shape.randrange(1, 3)):
                self.gen_statement(depth + 1)
            self.indent -= 1
            self.emit("}")
        elif roll < 0.45 and depth < 2:
            self.branches += 1
            var = self.fresh()
            bound = rng.choice(["4", "8", "n / 2"])
            self.emit("local int %s;" % var)
            self.emit("for (%s = 0; %s < %s; %s = %s + 1) {"
                      % (var, var, bound, var, var))
            self.indent += 1
            for _ in range(shape.randrange(1, 3)):
                self.gen_statement(depth + 1)
            self.indent -= 1
            self.emit("}")
        elif roll < 0.6:
            self.gen_partial_seed()
        elif roll < 0.8:
            # write to a procid-owned slot: race-free by construction
            self.emit("out[procid * 16 + %d] = out[procid * 16 + %d] + %s;"
                      % (rng.randrange(16), rng.randrange(16),
                         self.shared_expr()))
        else:
            self.branches += 1
            var = self.fresh()
            self.emit("local int %s = %s * 2 + procid;" % (var,
                                                           self.shared_expr()))
            self.emit("if (%s > %s) {" % (var, self.shared_expr()))
            self.emit("  out[procid * 16] = out[procid * 16] + 1;")
            self.emit("}")

    def generate(self) -> str:
        rng = self.rng
        self.emit("local int procid;")
        if rng.random() < 0.5:
            self.emit("lock(l);")
            self.emit("procid = id;")
            self.emit("id = id + 1;")
            self.emit("unlock(l);")
        else:
            self.emit("procid = tid();")
        while self.branches < self.target:
            self.gen_statement(0)
            if self.shape.random() < 0.25:
                self.emit("barrier(bar);")
        self.emit("barrier(bar);")
        return PRELUDE + "func slave() {\n" + "\n".join(self.lines) + "\n}\n"


def generate(seed: int, branches: int) -> str:
    """The MiniC source of generated program ``(seed, branches)``."""
    return ProgramGenerator(seed, branches).generate()
