"""The lockset + barrier-phase static race detector.

The detector reports pairs of shared-memory accesses (at least one a
store) that can execute in parallel: same barrier phase (phase-entry
token sets intersect), disjoint must-locksets, not confined to one
thread by a unique-thread guard, and indices not provably per-thread
disjoint.  The disjointness proofs reuse the similarity analysis'
affine-in-tid coefficients (:meth:`SimilarityResult.slope_of`): an
index ``a·tid + f`` with ``a != 0`` touches a different element in
every thread.

Two severities:

* ``error`` — a race the analysis can essentially witness: an
  unsynchronized scalar conflict, two tid-affine indices whose constant
  offsets collide modulo the stride (``a[tid]`` vs ``a[tid+1]``), a
  shared index every thread writes, or a thread-affine store against a
  shared-index access in the same phase;
* ``warning`` — a pair the analysis merely cannot prove disjoint
  (data-dependent scatter indices, symbolic strides with nonzero
  offsets).  Kernels carry these in the CI baseline; "lints race-free"
  means *zero errors*.

Interprocedural reasoning is compositional: a call-graph fixpoint
propagates each function's entry context — phase tokens (with the
caller's entry token substituted), must-locks, unique-thread guards —
from its direct call sites; helpers reachable only through a function
pointer get the conservative universal phase.  Calls to functions that
(transitively) contain barriers advance the caller's phase through the
callee's exit tokens.

Everything here iterates containers in deterministic order (sorted
names, program order, ordered worklists); IR objects are only map keys,
so no diagnostic ever depends on object addresses or set iteration, and
reports are byte-identical under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.similarity import (
    AnalysisConfig,
    SimilarityResult,
    analyze_module,
)
from repro.ir import (
    BarrierWait,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    Cmp,
    Constant,
    Function,
    FunctionRef,
    GetTid,
    Instruction,
    LoadElem,
    LoadGlobal,
    Module,
    Phi,
    StoreElem,
    StoreGlobal,
    UnaryOp,
    Value,
)
from repro.lint.dataflow import run_dataflow
from repro.lint.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    AccessSite,
    Diagnostic,
    LintReport,
)
from repro.lint.sync import (
    ENTRY_PHASE,
    _PhaseLattice,
    barrier_token,
    entry_token,
    lockset_analysis,
    lockset_at,
    phases_at,
)

#: Phase token meaning "any phase" — functions reachable only through a
#: function pointer, or downstream of an indirect call into code with
#: barriers.
UNIVERSAL = ("*", "universal")


def _mhp(a: FrozenSet, b: FrozenSet) -> bool:
    """May the two token sets share a dynamic phase?"""
    return UNIVERSAL in a or UNIVERSAL in b or bool(a & b)


def _render_tokens(tokens: FrozenSet) -> str:
    parts = []
    for tok in tokens:
        if tok == UNIVERSAL:
            parts.append("*")
        elif tok[1] == ENTRY_PHASE:
            parts.append("%s:entry" % tok[0])
        else:
            parts.append("%s:barrier:%%v%d" % (tok[0], tok[2]))
    return "{%s}" % ", ".join(sorted(parts))


def split_const(index: Value) -> Tuple[Value, object]:
    """Peel constant add/sub terms: ``a[core + c]`` -> ``(core, c)``."""
    core, const = index, 0
    for _ in range(8):
        if isinstance(core, BinOp) and core.op in ("add", "sub"):
            rhs, lhs = core.rhs, core.lhs
            if isinstance(rhs, Constant) and isinstance(rhs.value, (int, float)):
                const = const + rhs.value if core.op == "add" else const - rhs.value
                core = lhs
                continue
            if core.op == "add" and isinstance(lhs, Constant) \
                    and isinstance(lhs.value, (int, float)):
                const += lhs.value
                core = rhs
                continue
        break
    return core, const


class _Access:
    """One collected shared-memory access with its effective context."""

    __slots__ = ("inst", "site", "is_store", "index", "tokens", "locks",
                 "guards")

    def __init__(self, inst, site, is_store, index, tokens, locks, guards):
        self.inst = inst
        self.site = site
        self.is_store = is_store
        self.index = index          # None for scalar globals
        self.tokens = tokens        # effective phase-entry tokens
        self.locks = locks          # effective must-lockset
        self.guards = guards        # unique-thread guard keys


class RaceDetector:
    """One-shot race detection over the parallel region of ``module``."""

    def __init__(self, module: Module, entry: str = "slave",
                 analysis: Optional[SimilarityResult] = None,
                 name: str = "module"):
        self.module = module
        self.entry = entry
        self.name = name
        self.analysis = analysis if analysis is not None else analyze_module(
            module, AnalysisConfig(entry=entry))
        self.report = LintReport(name=name, entry=entry)
        self._value_ids: Dict[Value, str] = {}
        self._canon_memo: Dict[Value, Tuple] = {}

    # -- driver ----------------------------------------------------------

    def run(self) -> LintReport:
        names = sorted(self.analysis.parallel_functions)
        self.functions = [self.module.functions[n] for n in names]
        for function in self.functions:
            function.number_values()
        self._find_memory()
        self._build_call_graph()
        self._phase_results = self._solve_phases()
        self._lock_results = {f.name: lockset_analysis(f, self._cfg(f))
                              for f in self.functions}
        self._guard_lists = {f.name: self._find_guards(f)
                             for f in self.functions}
        self._solve_contexts()
        accesses = self._collect_accesses()
        self._pair_scan(accesses)
        return self.report.finalize()

    def _cfg(self, function: Function):
        fa = self.analysis.per_function.get(function.name)
        return fa.cfg if fa is not None else None

    def _domtree(self, function: Function):
        fa = self.analysis.per_function.get(function.name)
        return fa.domtree if fa is not None else None

    # -- memory + call graph ---------------------------------------------

    def _find_memory(self) -> None:
        self.mutable_scalars = set()
        self.written_arrays = set()
        self.address_taken = set()
        for function in self.functions:
            for inst in function.instructions():
                if isinstance(inst, StoreGlobal):
                    self.mutable_scalars.add(inst.global_.name)
                elif isinstance(inst, StoreElem):
                    self.written_arrays.add(inst.array.name)
                for op in inst.operands:
                    if isinstance(op, FunctionRef):
                        self.address_taken.add(op.function_name)

    def _build_call_graph(self) -> None:
        parallel = {f.name for f in self.functions}
        #: callee -> [(caller_function, call_inst)] in program order.
        self.call_sites: Dict[str, List[Tuple[Function, Call]]] = {}
        self.has_indirect: Dict[str, bool] = {}
        calls_out: Dict[str, List[str]] = {}
        for function in self.functions:
            out = []
            indirect = False
            for inst in function.instructions():
                if isinstance(inst, Call) and inst.callee.name in parallel:
                    self.call_sites.setdefault(
                        inst.callee.name, []).append((function, inst))
                    out.append(inst.callee.name)
                elif isinstance(inst, CallIndirect):
                    indirect = True
            calls_out[function.name] = out
            self.has_indirect[function.name] = indirect

        direct_barrier = {
            f.name for f in self.functions
            if any(isinstance(i, BarrierWait) for i in f.instructions())}
        self.indirect_may_barrier = bool(direct_barrier & self.address_taken)
        # Transitive "calling this may cross a barrier".
        trans = set(direct_barrier)
        changed = True
        while changed:
            changed = False
            for function in self.functions:
                name = function.name
                if name in trans:
                    continue
                if any(c in trans for c in calls_out[name]) or (
                        self.has_indirect[name] and self.indirect_may_barrier):
                    trans.add(name)
                    changed = True
        self.trans_barrier = trans

    # -- barrier phases (call-aware) -------------------------------------

    def _phase_transfer(self, function: Function, call_exit: Dict):
        def transfer(fact, inst: Instruction):
            if isinstance(inst, BarrierWait):
                return frozenset([barrier_token(function, inst)])
            if isinstance(inst, Call) and inst.callee.name in self.trans_barrier:
                callee = inst.callee.name
                exit_toks = call_exit.get(
                    callee, frozenset([(callee, ENTRY_PHASE)]))
                if UNIVERSAL in exit_toks:
                    return frozenset([UNIVERSAL])
                etok = (callee, ENTRY_PHASE)
                if etok in exit_toks:
                    return (exit_toks - frozenset([etok])) | fact
                return exit_toks
            if isinstance(inst, CallIndirect) and self.indirect_may_barrier:
                return frozenset([UNIVERSAL])
            return fact
        return transfer

    def _solve_phases(self) -> Dict[str, object]:
        """Per-function phase dataflow, iterated so calls into
        barrier-crossing callees see the callee's exit tokens."""
        call_exit: Dict[str, FrozenSet] = {}
        results: Dict[str, object] = {}
        for _ in range(len(self.functions) + 3):
            changed = False
            for function in self.functions:
                res = run_dataflow(
                    function, _PhaseLattice(function),
                    self._phase_transfer(function, call_exit),
                    cfg=self._cfg(function))
                results[function.name] = res
                exit_toks = frozenset()
                for block in function.blocks:
                    term = block.terminator
                    if term is not None and term.opcode == "ret":
                        exit_toks |= res.before(term)
                if call_exit.get(function.name) != exit_toks:
                    call_exit[function.name] = exit_toks
                    changed = True
            if not changed:
                return results
        # Mutual recursion through barrier code: give up on precision.
        for name in self.trans_barrier:
            call_exit[name] = frozenset([UNIVERSAL])
        for function in self.functions:
            results[function.name] = run_dataflow(
                function, _PhaseLattice(function),
                self._phase_transfer(function, call_exit),
                cfg=self._cfg(function))
        return results

    # -- unique-thread guards --------------------------------------------

    def _find_guards(self, function: Function) -> List[Tuple[Tuple, BasicBlock]]:
        """``if (tid_affine == shared)`` guards: (key, guarded successor)
        pairs.  Accesses dominated by the guarded successor run on at
        most one thread; two accesses under the *same* key run on the
        same thread and cannot race with each other."""
        guards = []
        for block in function.blocks:
            term = block.terminator
            if not isinstance(term, Branch) or term.then_block is term.else_block:
                continue
            cond = term.cond
            if not isinstance(cond, Cmp) or cond.op not in ("eq", "ne"):
                continue
            lslope = self.analysis.slope_of(cond.lhs)
            rslope = self.analysis.slope_of(cond.rhs)
            if lslope not in (0, None) and rslope == 0:
                tid_side, shared_side = cond.lhs, cond.rhs
            elif rslope not in (0, None) and lslope == 0:
                tid_side, shared_side = cond.rhs, cond.lhs
            else:
                continue
            guarded = term.then_block if cond.op == "eq" else term.else_block
            key = ("tg", self._canon(tid_side), self._canon(shared_side))
            guards.append((key, guarded))
        return guards

    def _block_guards(self, function: Function, block: BasicBlock) -> FrozenSet:
        domtree = self._domtree(function)
        keys = set()
        for key, guarded in self._guard_lists[function.name]:
            if domtree is not None and domtree.dominates(guarded, block):
                keys.add(key)
        return frozenset(keys)

    # -- interprocedural entry contexts ----------------------------------

    def _subst(self, caller: str, tokens: FrozenSet) -> FrozenSet:
        """Replace the caller's entry token with the caller's own entry
        context (already fully substituted)."""
        etok = (caller, ENTRY_PHASE)
        if etok not in tokens:
            return tokens
        return (tokens - frozenset([etok])) | self.ctx_tokens.get(
            caller, frozenset())

    def _solve_contexts(self) -> None:
        entry = self.entry
        self.ctx_tokens = {entry: frozenset([(entry, ENTRY_PHASE)])}
        self.ctx_locks: Dict[str, Optional[FrozenSet]] = {entry: frozenset()}
        self.ctx_guards: Dict[str, Optional[FrozenSet]] = {entry: frozenset()}
        names = [f.name for f in self.functions]
        for name in names:
            if name == entry:
                continue
            self.ctx_tokens.setdefault(name, frozenset())
            self.ctx_locks.setdefault(name, None)   # None = ⊤ (unreached)
            self.ctx_guards.setdefault(name, None)
        for _ in range(len(names) + 3):
            changed = False
            for function in self.functions:
                name = function.name
                if name == entry:
                    continue
                sites = self.call_sites.get(name, [])
                if not sites or name in self.address_taken:
                    tokens = frozenset([UNIVERSAL])
                    locks: Optional[FrozenSet] = frozenset()
                    guards: Optional[FrozenSet] = frozenset()
                else:
                    tokens = frozenset()
                    locks = None
                    guards = None
                    for caller, site in sites:
                        cname = caller.name
                        tokens |= self._subst(
                            cname, phases_at(self._phase_results[cname], site))
                        clocks = self.ctx_locks.get(cname)
                        if clocks is not None:
                            site_locks = lockset_at(
                                self._lock_results[cname], site) | clocks
                            locks = site_locks if locks is None \
                                else locks & site_locks
                        cguards = self.ctx_guards.get(cname)
                        if cguards is not None:
                            site_guards = self._block_guards(
                                caller, site.parent) | cguards
                            guards = site_guards if guards is None \
                                else guards & site_guards
                if (tokens != self.ctx_tokens[name]
                        or locks != self.ctx_locks[name]
                        or guards != self.ctx_guards[name]):
                    self.ctx_tokens[name] = tokens
                    self.ctx_locks[name] = locks
                    self.ctx_guards[name] = guards
                    changed = True
            if not changed:
                break
        for name in names:
            if self.ctx_locks[name] is None:
                self.ctx_locks[name] = frozenset()
            if self.ctx_guards[name] is None:
                self.ctx_guards[name] = frozenset()

    # -- access collection -----------------------------------------------

    def _collect_accesses(self) -> Dict[str, List[_Access]]:
        by_location: Dict[str, List[_Access]] = {}
        count = 0
        for function in self.functions:
            name = function.name
            phase_res = self._phase_results[name]
            lock_res = self._lock_results[name]
            for block_index, block in enumerate(function.blocks):
                guards = self._block_guards(function, block) \
                    | self.ctx_guards[name]
                for inst_index, inst in enumerate(block.instructions):
                    if isinstance(inst, StoreGlobal):
                        kind, loc, index = "store", inst.global_.name, None
                    elif isinstance(inst, LoadGlobal):
                        if inst.global_.name not in self.mutable_scalars:
                            continue
                        kind, loc, index = "load", inst.global_.name, None
                    elif isinstance(inst, StoreElem):
                        kind, loc, index = "store", inst.array.name, inst.index
                    elif isinstance(inst, LoadElem):
                        if inst.array.name not in self.written_arrays:
                            continue
                        kind, loc, index = "load", inst.array.name, inst.index
                    else:
                        continue
                    site = AccessSite(
                        function=name, block=block.name,
                        block_index=block_index, inst_index=inst_index,
                        vid=inst.vid, kind=kind, location=loc)
                    access = _Access(
                        inst=inst, site=site, is_store=(kind == "store"),
                        index=index,
                        tokens=self._subst(name, phases_at(phase_res, inst)),
                        locks=lockset_at(lock_res, inst)
                        | self.ctx_locks[name],
                        guards=guards)
                    by_location.setdefault(loc, []).append(access)
                    count += 1
        self.report.stats["accesses"] = count
        self.report.stats["locations"] = len(by_location)
        return by_location

    # -- index canonicalization ------------------------------------------

    def _vkey(self, value: Value) -> str:
        """Deterministic per-run identity label (never serialized)."""
        key = self._value_ids.get(value)
        if key is None:
            key = "v%d" % len(self._value_ids)
            self._value_ids[value] = key
        return key

    def _canon(self, value: Value, _depth: int = 0) -> Tuple:
        """Structural key: two occurrences of the same expression over
        the same SSA leaves compare equal."""
        memo = self._canon_memo.get(value)
        if memo is not None:
            return memo
        if isinstance(value, Constant):
            return ("c", repr(value.value))
        if _depth > 10:
            return ("v", self._vkey(value))
        if isinstance(value, Cmp):
            out = ("cmp", value.op, self._canon(value.lhs, _depth + 1),
                   self._canon(value.rhs, _depth + 1))
        elif isinstance(value, BinOp):
            lhs = self._canon(value.lhs, _depth + 1)
            rhs = self._canon(value.rhs, _depth + 1)
            if value.op in ("add", "mul", "min", "max"):
                lhs, rhs = sorted((lhs, rhs), key=repr)
            out = ("bin", value.op, lhs, rhs)
        elif isinstance(value, UnaryOp):
            out = ("un", value.op, self._canon(value.value, _depth + 1))
        elif isinstance(value, Cast):
            out = ("cast", value.kind, self._canon(value.value, _depth + 1))
        elif isinstance(value, GetTid):
            out = ("tid",)
        elif isinstance(value, LoadGlobal) \
                and value.global_.name not in self.mutable_scalars:
            # Loads of an immutable global are value-stable anywhere.
            out = ("ldro", value.global_.name)
        else:
            out = ("v", self._vkey(value))
        self._canon_memo[value] = out
        return out

    # -- the pair scan ---------------------------------------------------

    def _pair_scan(self, by_location: Dict[str, List[_Access]]) -> None:
        stats = self.report.stats
        for key in ("pairs", "phase_disjoint", "lock_protected",
                    "unique_thread", "tid_disjoint", "chunk_assumed"):
            stats.setdefault(key, 0)
        for location in sorted(by_location):
            accesses = by_location[location]
            for i, a in enumerate(accesses):
                for b in accesses[i:]:
                    if not (a.is_store or b.is_store):
                        continue
                    stats["pairs"] += 1
                    if not _mhp(a.tokens, b.tokens):
                        stats["phase_disjoint"] += 1
                        continue
                    if a.locks & b.locks:
                        stats["lock_protected"] += 1
                        continue
                    if a.guards & b.guards:
                        stats["unique_thread"] += 1
                        continue
                    verdict = self._index_verdict(a, b)
                    if verdict is None:
                        continue
                    code, severity, why = verdict
                    self._emit(location, a, b, code, severity, why)

    def _index_verdict(self, a: _Access, b: _Access):
        """Classify a conflicting pair: None when per-thread disjoint,
        else ``(code, severity, why)``."""
        stats = self.report.stats
        if a.index is None:
            return ("scalar-race", SEVERITY_ERROR,
                    "unsynchronized accesses to a shared scalar")
        core_a, const_a = split_const(a.index)
        core_b, const_b = split_const(b.index)
        slope_a = self.analysis.slope_of(core_a)
        slope_b = self.analysis.slope_of(core_b)
        if self._canon(core_a) == self._canon(core_b):
            delta = const_a - const_b
            if slope_a is None:
                return ("unproven-index", SEVERITY_WARNING,
                        "data-dependent index; per-thread disjointness "
                        "not provable")
            if delta == 0:
                if slope_a == 0:
                    return ("index-overlap", SEVERITY_ERROR,
                            "every thread addresses the same element")
                stats["tid_disjoint"] += 1
                return None  # injective in tid: distinct threads, distinct elements
            if slope_a == 0:
                stats["tid_disjoint"] += 1
                return None  # distinct constant offsets off one shared base
            if isinstance(slope_a, (int, float)):
                if delta % slope_a == 0:
                    return ("index-overlap", SEVERITY_ERROR,
                            "stride %s with offset delta %s: thread t and "
                            "thread t%+d touch the same element"
                            % (slope_a, delta, delta // slope_a))
                stats["tid_disjoint"] += 1
                return None
            return ("unproven-index", SEVERITY_WARNING,
                    "symbolic stride with nonzero constant offset")
        if slope_a is None or slope_b is None:
            return ("unproven-index", SEVERITY_WARNING,
                    "unresolved index expression; disjointness not provable")
        if slope_a == slope_b:
            if slope_a == 0:
                return ("unproven-index", SEVERITY_WARNING,
                        "two shared index expressions may alias")
            # Equal nonzero strides, different bases: the per-thread chunk
            # partition assumption (bases differ by shared per-thread
            # extents, e.g. `first = procid * per`).
            stats["chunk_assumed"] += 1
            return None
        if slope_a == 0 or slope_b == 0:
            return ("mixed-index", SEVERITY_ERROR,
                    "thread-affine index against a shared index in the "
                    "same phase: some thread aliases the shared element")
        return ("unproven-index", SEVERITY_WARNING,
                "different strides; disjointness not provable")

    def _emit(self, location: str, a: _Access, b: _Access, code: str,
              severity: str, why: str) -> None:
        # Anchor at a store; among equals, at the earlier program point.
        first, second = sorted(
            (a, b), key=lambda x: (not x.is_store,) + x.site.sort_key())
        detail = "%s; phases %s ∩ %s; locks {%s} vs {%s}" % (
            why, _render_tokens(a.tokens), _render_tokens(b.tokens),
            ", ".join(sorted(a.locks)), ", ".join(sorted(b.locks)))
        message = "%s of @%s may race with %s in %s" % (
            first.site.kind, location, second.site.kind,
            second.site.function)
        self.report.diagnostics.append(Diagnostic(
            code=code, severity=severity, access=first.site,
            witness=second.site, message=message, detail=detail))


def detect_races(module: Module, entry: str = "slave",
                 analysis: Optional[SimilarityResult] = None,
                 name: str = "module") -> LintReport:
    """Run the race detector and return a finalized report."""
    return RaceDetector(module, entry=entry, analysis=analysis,
                        name=name).run()
