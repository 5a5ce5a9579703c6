"""The BLOCKWATCH similarity-inference algorithm (paper Section III-A).

Implements the fixpoint of the paper's Figure 3 over our SSA IR:

* every instruction starts as ``NA``;
* thread-ID sources (``tid()``, recognized tid-counter loads) become
  ``threadID``; loads of immutable globals, constants, and function
  addresses are ``shared``;
* categories propagate through operands by the Table II rules
  (:mod:`repro.analysis.categories`), iterating until no change;
* phi nodes are folded *optimistically* (``NA`` operands are skipped) —
  this is what lets the paper's Table III classify the loop variable ``i``
  in the first iteration even though its increment is later in the block
  order — and if-else join phis that merge several distinct shared values
  are demoted to ``partial`` (the ``private = 1 / -1`` case of Figure 1);
* function parameters follow the paper's *multiple instances* policy: if
  every call site passes a ``shared`` value the parameter stays ``shared``
  and the runtime keys checks by call site (Figure 2's ``foo(1)``/
  ``foo(2)``);
* branches inherit the category of their condition.

Beyond the category (which is what Table V reports), each branch gets a
*check kind* describing the runtime check the monitor can soundly apply:

========================  ====================================================
``shared``                all threads must report equal condition values and
                          equal outcomes
``uniform``               both compare operands are affine in tid with one
                          coefficient — the tid cancels, so all threads must
                          decide alike though their values differ
``tid_eq``                equality compare of an (affine, provably injective)
                          thread-ID expression against a shared value: at most
                          one thread may take (for ``eq``) / fall through
                          (for ``ne``)
``tid_monotone``          any ordered compare on a threadID condition: the
                          outcome is monotone in (lhs - rhs), so reports
                          sorted by that difference must form one taker block
``partial``               group threads by condition values; each group must
                          agree on the outcome (also the sound fallback for a
                          threadID condition whose shape we cannot prove, and
                          the *promotion* target of optimization 1 for
                          ``none`` branches)
``None``                  not checked (critical section, nesting deeper than
                          the cutoff, or an unpromoted ``none`` branch)
========================  ====================================================

Every check kind is a *static superset* of correct behaviour, so the
monitor has no false positives — the property test
``tests/integration/test_no_false_positives.py`` exercises this end to
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.categories import Category, fold_operands, propagate
from repro.analysis.critical_sections import (
    CriticalSections,
    functions_only_called_under_lock,
)
from repro.analysis.loops import LoopInfo, find_loops
from repro.analysis.threadid_patterns import find_tid_counters
from repro.errors import AnalysisError
from repro.ir import (
    CFG,
    Argument,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    Cmp,
    Constant,
    DominatorTree,
    Function,
    FunctionRef,
    GetTid,
    GlobalVariable,
    Instruction,
    LoadElem,
    LoadGlobal,
    Module,
    Phi,
    Ret,
    StoreElem,
    StoreGlobal,
    UnaryOp,
    Value,
)

CHECK_SHARED = "shared"
CHECK_TID_EQ = "tid_eq"
CHECK_TID_MONOTONE = "tid_monotone"
CHECK_PARTIAL = "partial"


# --- symbolic affine-coefficient algebra -----------------------------------
#
# Coefficients ("slopes") of affine-in-tid expressions are exact numbers
# when derivable, or small canonical expression trees when a shared but
# non-literal factor is involved (e.g. ``procid * per`` where ``per =
# nkeys / nprocs``).  Structural equality of two symbolic coefficients is
# what proves the tid cancels in ``a·tid + f  <op>  a·tid + g``.

def _slope_add(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    if a == 0:
        return b
    if b == 0:
        return a
    x, y = sorted((a, b), key=repr)
    return ("add", x, y)


def _slope_neg(a):
    if a is None:
        return None
    if isinstance(a, (int, float)):
        return -a
    if isinstance(a, tuple) and a[0] == "neg":
        return a[1]
    return ("neg", a)


def _slope_mul_shared(a, factor):
    """Multiply slope ``a`` by a shared-category IR value ``factor``."""
    from repro.ir import Constant as _Constant
    if a is None:
        return None
    if a == 0:
        return 0
    if isinstance(factor, _Constant) and isinstance(a, (int, float)):
        return a * factor.value
    return ("smul", a, id(factor))
#: Both compare operands are affine in the thread id with the *same*
#: coefficient, so the tid cancels: every thread must take the same
#: decision even though the operand values differ per thread.  This is
#: the partitioned-loop-bound pattern (``for i = first; i < last``).
CHECK_UNIFORM = "uniform"


@dataclass
class AnalysisConfig:
    """Knobs of the static analysis (paper defaults)."""

    #: Name of the SPMD worker function every thread executes.
    entry: str = "slave"
    #: Optimization 1: promote `none` branches to the partial check.
    promote_none_to_partial: bool = True
    #: Optimization 2: skip branches inside critical sections.
    elide_critical_sections: bool = True
    #: Branches in loops nested deeper than this are not checked
    #: (paper Section V-C1; the raytrace effect).
    max_loop_nesting: int = 6
    #: Paper Section VI overhead optimization (off by default, as in the
    #: paper's implementation): when several branches in the same loop
    #: context depend on the same set of non-constant condition
    #: variables, check only the first — condition-data faults hit all
    #: of them, so one check suffices for those (flip faults on the
    #: elided branches do escape; the ablation bench quantifies it).
    elide_redundant_checks: bool = False
    #: Experimental extension of the paper's closing future work
    #: ("extended to detect faults that propagate to regular
    #: instructions"): also check stores whose *stored value* is
    #: statically `shared` — every thread must ship the same value.
    #: Off by default; purely additive when enabled.
    check_stores: bool = False
    #: Safety valve for the fixpoint (the paper observes k < 10).
    max_iterations: int = 1000
    #: Race-aware refinement (the `repro.lint` hook): names of globals /
    #: arrays involved in statically-detected data races.  A branch whose
    #: condition transitively loads any of them is demoted out of the
    #: "similar" classes and never checked — a racy load legitimately
    #: differs across threads, so checking it manufactures false
    #: positives.  Sorted tuple so the config hashes canonically.
    racy_locations: tuple = ()
    #: Master switch for the refinement; lets `ParallelProgram` skip the
    #: lint pass entirely (and documents the knob in the program key).
    race_refinement: bool = True


@dataclass
class BranchRecord:
    """Everything the instrumentation pass needs to know about a branch."""

    branch: Branch
    function: Function
    category: Category
    check_kind: Optional[str]
    #: Values shipped by sendBranchCondition (the condition basis).
    cond_basis: List[Value] = field(default_factory=list)
    #: For tid checks with basis [lhs, rhs]: which operand is the shared
    #: side (must agree across threads); -1 when neither side is shared.
    shared_operand_index: int = -1
    #: For tid_eq: 'eq' (at most one taken) or 'ne' (at most one not taken).
    eq_sense: str = ""
    #: For tid_monotone: 'low' — the takers are the low (lhs - rhs)
    #: block — or 'high'.
    monotone_dir: str = ""
    #: True when a `none` branch was promoted to the partial check.
    promoted: bool = False
    in_critical_section: bool = False
    nesting_depth: int = 0
    #: Why the branch is unchecked ('' when checked).
    skip_reason: str = ""


@dataclass
class StoreRecord:
    """A store whose value must be identical across threads (the
    `check_stores` extension)."""

    store: Instruction           # StoreGlobal or StoreElem
    function: Function
    #: Values shipped to the monitor (the stored value).
    basis: List[Value] = field(default_factory=list)
    nesting_depth: int = 0


@dataclass
class FunctionAnalysis:
    """Per-function artifacts shared with the instrumentation pass."""

    function: Function
    cfg: CFG
    domtree: DominatorTree
    loops: LoopInfo
    critical: CriticalSections
    branches: List[BranchRecord] = field(default_factory=list)
    stores: List[StoreRecord] = field(default_factory=list)


class SimilarityResult:
    """Output of :func:`analyze_module`."""

    def __init__(self, module: Module, config: AnalysisConfig):
        self.module = module
        self.config = config
        self.categories: Dict[Value, Category] = {}
        self.parallel_functions: Set[str] = set()
        self.per_function: Dict[str, FunctionAnalysis] = {}
        self.iterations: int = 0
        #: Per-iteration snapshots of named-value categories (trace mode).
        self.trace: List[Dict[str, str]] = []
        self.tid_counters: Set[str] = set()
        self.serialized_functions: Set[str] = set()
        #: Affine-in-tid coefficients proven by the slope fixpoint, keyed
        #: by the value: an int/float, or a canonical symbolic tuple (see
        #: the slope algebra above).  Consumed by ``repro.lint``'s
        #: per-thread disjoint-index proofs.
        self.tid_slopes: Dict[Value, object] = {}

    # -- queries -----------------------------------------------------------

    def category_of(self, value: Value) -> Category:
        """The similarity category of any IR value."""
        if isinstance(value, (Constant, FunctionRef)):
            return Category.SHARED
        if isinstance(value, GlobalVariable):
            return Category.SHARED
        return self.categories.get(value, Category.NA)

    def all_branches(self) -> List[BranchRecord]:
        records: List[BranchRecord] = []
        for fname in sorted(self.per_function):
            records.extend(self.per_function[fname].branches)
        return records

    def checked_branches(self) -> List[BranchRecord]:
        return [r for r in self.all_branches() if r.check_kind is not None]

    def slope_of(self, value: Value):
        """Affine-in-tid coefficient of ``value``: an int/float, a
        symbolic tuple for shared-scaled coefficients, 0 for statically
        shared values, or None when unknown/not affine."""
        slope = self.tid_slopes.get(value)
        if slope is not None:
            return slope
        if self.category_of(value) is Category.SHARED:
            return 0
        return None


def parallel_function_names(module: Module, entry: str) -> Set[str]:
    """Functions reachable from ``entry`` through direct calls, plus any
    function whose address is taken inside that region (conservatively
    callable through a pointer)."""
    if entry not in module.functions:
        raise AnalysisError("entry function %r not found in module" % entry)
    names: Set[str] = set()
    worklist = [entry]
    while worklist:
        name = worklist.pop()
        if name in names:
            continue
        names.add(name)
        function = module.functions[name]
        for inst in function.instructions():
            if isinstance(inst, Call):
                worklist.append(inst.callee.name)
            for op in inst.operands:
                if isinstance(op, FunctionRef):
                    worklist.append(op.function_name)
    return names


def analyze_module(module: Module, config: Optional[AnalysisConfig] = None,
                   trace: bool = False) -> SimilarityResult:
    """Run the full similarity analysis on ``module``."""
    config = config if config is not None else AnalysisConfig()
    analysis = _Analysis(module, config, trace)
    return analysis.run()


class _Analysis:
    def __init__(self, module: Module, config: AnalysisConfig, trace: bool):
        self.module = module
        self.config = config
        self.trace_enabled = trace
        self.result = SimilarityResult(module, config)
        self.categories = self.result.categories
        # Affine-tid tracking: value -> slope sign (+1 / -1) for
        # threadID values provably affine in tid with known slope sign.
        self._tid_slope: Dict[Value, int] = {}

    # -- main driver -------------------------------------------------------

    def run(self) -> SimilarityResult:
        result = self.result
        result.parallel_functions = parallel_function_names(
            self.module, self.config.entry)
        parallel = result.parallel_functions
        functions = [self.module.functions[n] for n in sorted(parallel)]

        # Per-function structural analyses.
        next_loop_id = 0
        for function in functions:
            cfg = CFG(function)
            domtree = DominatorTree(function, cfg)
            loops = find_loops(function, next_loop_id, cfg, domtree)
            next_loop_id += len(loops.loops)
            critical = CriticalSections(function, cfg)
            result.per_function[function.name] = FunctionAnalysis(
                function=function, cfg=cfg, domtree=domtree, loops=loops,
                critical=critical)

        sections = {n: result.per_function[n].critical for n in parallel}
        result.tid_counters = find_tid_counters(self.module, parallel, sections)
        result.serialized_functions = functions_only_called_under_lock(
            self.module, parallel, sections)

        # Memory mutability pre-pass: globals written in the parallel
        # section cannot be treated as shared when read there.
        self._mutable_scalars, self._written_arrays = self._find_mutations(functions)
        self._address_taken = self._find_address_taken(functions)
        self._call_sites = self._collect_call_sites(functions)

        self._fixpoint(functions)
        self._slope_fixpoint(functions)
        result.tid_slopes = dict(self._tid_slope)
        self._classify_branches(functions)
        if self.config.check_stores:
            self._classify_stores(functions)
        return result

    # -- pre-passes --------------------------------------------------------

    def _find_mutations(self, functions: Sequence[Function]) -> Tuple[Set[str], Set[str]]:
        mutable_scalars: Set[str] = set()
        written_arrays: Set[str] = set()
        for function in functions:
            for inst in function.instructions():
                if isinstance(inst, StoreGlobal):
                    mutable_scalars.add(inst.global_.name)
                elif isinstance(inst, StoreElem):
                    written_arrays.add(inst.array.name)
        return mutable_scalars, written_arrays

    def _find_address_taken(self, functions: Sequence[Function]) -> Set[str]:
        taken: Set[str] = set()
        for function in functions:
            for inst in function.instructions():
                for op in inst.operands:
                    if isinstance(op, FunctionRef):
                        taken.add(op.function_name)
        return taken

    def _collect_call_sites(self, functions: Sequence[Function]) -> Dict[str, List[Call]]:
        sites: Dict[str, List[Call]] = {}
        for function in functions:
            for inst in function.instructions():
                if isinstance(inst, Call):
                    sites.setdefault(inst.callee.name, []).append(inst)
        return sites

    # -- the fixpoint (paper Figure 3) ---------------------------------------

    def _fixpoint(self, functions: Sequence[Function]) -> None:
        for iteration in range(self.config.max_iterations):
            changed = False
            for function in functions:
                for param in function.params:
                    changed = self._visit_param(function, param) or changed
                for inst in function.instructions():
                    changed = self._visit_inst(function, inst) or changed
            self.result.iterations = iteration + 1
            if self.trace_enabled:
                self.result.trace.append(self._snapshot(functions))
            if not changed:
                break
        else:
            raise AnalysisError("similarity fixpoint did not converge in %d "
                                "iterations" % self.config.max_iterations)

    def _operand_category(self, value: Value) -> Category:
        if isinstance(value, (Constant, GlobalVariable, FunctionRef)):
            return Category.SHARED
        return self.categories.get(value, Category.NA)

    def _update(self, value: Value, category: Category) -> bool:
        old = self.categories.get(value, Category.NA)
        if old is category:
            return False
        self.categories[value] = category
        return True

    def _visit_param(self, function: Function, param: Argument) -> bool:
        """Paper's *multiple instances* policy for function parameters."""
        if function.name in self._address_taken:
            # May be invoked through a pointer: call paths differ per
            # thread and arguments cannot be matched statically.
            return self._update(param, Category.NONE)
        sites = self._call_sites.get(function.name, [])
        if not sites:
            if function.name == self.config.entry:
                # Worker entry: parameters would be thread-start arguments;
                # the runtime passes none, but be conservative.
                return self._update(param, Category.NONE)
            return False  # dead function inside parallel region
        cats = []
        for site in sites:
            cats.append(self._operand_category(site.operands[param.index]))
        known = [c for c in cats if c is not Category.NA]
        if not known:
            return False
        if all(c is Category.SHARED for c in known):
            # Different shared values per site are fine: the runtime hash
            # key includes the call-site path, so checks never mix sites.
            new = Category.SHARED
        elif all(c is Category.THREADID for c in known):
            new = Category.THREADID
        elif all(c in (Category.SHARED, Category.PARTIAL) for c in known):
            new = Category.PARTIAL
        else:
            new = Category.NONE
        return self._update(param, new)

    def _visit_inst(self, function: Function, inst: Instruction) -> bool:
        if isinstance(inst, GetTid):
            return self._update(inst, Category.THREADID)
        if isinstance(inst, LoadGlobal):
            return self._visit_load(inst)
        if isinstance(inst, LoadElem):
            return self._visit_loadelem(inst)
        if isinstance(inst, Phi):
            return self._visit_phi(inst)
        if isinstance(inst, Call):
            return self._visit_call(inst)
        if isinstance(inst, CallIndirect):
            return self._update(inst, Category.NONE)
        if isinstance(inst, (BinOp, UnaryOp, Cmp, Cast)):
            folded = fold_operands(
                self._operand_category(op) for op in inst.operands)
            if folded is None:
                return False
            return self._update(inst, folded)
        # Stores, terminators, sync and instrumentation intrinsics produce
        # no SSA value worth classifying.
        return False

    def _visit_load(self, inst: LoadGlobal) -> bool:
        name = inst.global_.name
        if name in self.result.tid_counters:
            return self._update(inst, Category.THREADID)
        if name in self._mutable_scalars:
            # Written during the parallel section: the value observed
            # depends on timing, so no static similarity holds.
            return self._update(inst, Category.NONE)
        return self._update(inst, Category.SHARED)

    def _visit_loadelem(self, inst: LoadElem) -> bool:
        if inst.array.name in self._written_arrays:
            return self._update(inst, Category.NONE)
        index_cat = self._operand_category(inst.index)
        if index_cat is Category.NA:
            return False
        if index_cat is Category.SHARED:
            # Read-only array at a shared index: every thread reads the
            # same element, hence the same value.
            return self._update(inst, Category.SHARED)
        # e.g. gp[procid] in the paper's Figure 1: per-thread data with no
        # static similarity (Table I classifies this branch as `none`).
        return self._update(inst, Category.NONE)

    def _visit_phi(self, phi: Phi) -> bool:
        """Optimistic fold + the paper's if-else-join demotion rule."""
        cats = []
        distinct_values: Set[Value] = set()
        for value in phi.operands:
            if value is phi:
                continue
            distinct_values.add(value)
            cat = self._operand_category(value)
            if cat is Category.NA:
                continue  # optimistic: skip, revisit next iteration
            cats.append(cat)
        if not cats:
            return False
        folded = Category.NA
        for cat in cats:
            folded = propagate(folded, cat)
        if self._is_loop_header_phi(phi):
            # Loop-carried recurrences over shared values stay shared: the
            # iteration sequence is identical across threads and instances
            # are keyed by iteration number (paper Table III keeps the
            # loop variable `i` shared).
            return self._update(phi, folded)
        if len(distinct_values) > 1:
            if folded is Category.SHARED:
                # "assigned different shared values in both paths" /
                # "assigned in one path but not another" -> partial
                folded = Category.PARTIAL
            elif folded is Category.THREADID:
                # A mix involving tid on only some paths has no check we
                # can state soundly; demote (safety refinement over the
                # bare Table II fold).
                folded = Category.NONE
        return self._update(phi, folded)

    def _visit_call(self, inst: Call) -> bool:
        callee = inst.callee
        if callee.name not in self.result.parallel_functions:
            return self._update(inst, Category.NONE)
        rets = [t for block in callee.blocks
                for t in [block.terminator] if isinstance(t, Ret)]
        cats = []
        distinct: Set[Value] = set()
        for ret in rets:
            if ret.value is None:
                continue
            distinct.add(ret.value)
            cat = self._operand_category(ret.value)
            if cat is Category.NA:
                continue
            cats.append(cat)
        if not cats:
            return False
        folded = Category.NA
        for cat in cats:
            folded = propagate(folded, cat)
        if len(distinct) > 1 and folded is Category.SHARED:
            folded = Category.PARTIAL  # join of several shared returns
        if len(distinct) > 1 and folded is Category.THREADID:
            folded = Category.NONE
        return self._update(inst, folded)

    # -- affine-tid shape tracking -------------------------------------------
    #
    # For every threadID-category value we try to prove it *affine in the
    # thread id with a thread-independent intercept*:  v = a·tid + f(key)
    # where f depends only on shared data and (instance-keyed) loop
    # iterations.  The exact integer coefficient `a` enables three check
    # refinements:
    #   * a != 0, compared against a shared value  -> injective (tid_eq)
    #     and monotone (tid_monotone) checks;
    #   * both compare operands affine with EQUAL coefficients -> the tid
    #     cancels and the outcome is uniform across threads (the
    #     partitioned-loop-bound pattern `for i = first; i < last`).

    def _slope_of(self, value: Value) -> Optional[int]:
        """Affine-in-tid coefficient of ``value``; 0 for shared values,
        None when unknown/not affine."""
        slope = self._tid_slope.get(value)
        if slope is not None:
            return slope
        if self._operand_category(value) is Category.SHARED:
            return 0
        return None

    def _slope_fixpoint(self, functions: Sequence[Function]) -> None:
        """Two-phase affine-coefficient inference.

        *Growth* is optimistic in the SCCP style: a phi whose resolved
        incomings agree adopts their coefficient even while some incoming
        (typically the loop increment, which *depends on the phi*) is
        still unknown — this is what lets ``i = phi(first, i+1)`` inherit
        ``first``'s coefficient.  *Verification* then deletes every
        assignment the final state does not actually support, cascading,
        so only self-consistent affine proofs survive.  Deletion-only
        iteration terminates; what remains is sound by induction over the
        derivation.
        """
        self._tid_slope = {}
        seeds = set()
        for function in functions:
            for inst in function.instructions():
                if isinstance(inst, GetTid) or (
                        isinstance(inst, LoadGlobal)
                        and inst.global_.name in self.result.tid_counters):
                    self._tid_slope[inst] = 1
                    seeds.add(inst)
        for _ in range(100):  # growth
            changed = False
            for function in functions:
                for param in function.params:
                    slope = self._param_slope(function, param, strict=False)
                    if slope is not None and self._tid_slope.get(param) != slope:
                        self._tid_slope[param] = slope
                        changed = True
                for inst in function.instructions():
                    if inst in seeds:
                        continue
                    slope = self._compute_slope(inst, strict=False)
                    if slope is not None and self._tid_slope.get(inst) != slope:
                        self._tid_slope[inst] = slope
                        changed = True
            if not changed:
                break
        for _ in range(100):  # verification (deletion only)
            changed = False
            for function in functions:
                for param in function.params:
                    if param in self._tid_slope and self._param_slope(
                            function, param, strict=True) != self._tid_slope[param]:
                        del self._tid_slope[param]
                        changed = True
                for inst in function.instructions():
                    if inst not in self._tid_slope or inst in seeds:
                        continue
                    if self._compute_slope(inst, strict=True) != self._tid_slope[inst]:
                        del self._tid_slope[inst]
                        changed = True
            if not changed:
                return

    def _param_slope(self, function: Function, param: Argument, strict: bool):
        """Coefficient of a parameter: all call sites must pass arguments
        with one agreeing coefficient (intercepts may differ — the
        runtime keys checks by call-site path)."""
        if function.name in self._address_taken:
            return None
        sites = self._call_sites.get(function.name, [])
        if not sites:
            return None
        slopes = set()
        for site in sites:
            slope = self._slope_of(site.operands[param.index])
            if slope is None:
                if strict:
                    return None
                continue
            slopes.add(slope)
        if len(slopes) != 1:
            return None
        return slopes.pop()

    def _compute_slope(self, inst: Instruction, strict: bool):
        """Coefficient of one instruction from its operands (one step)."""
        if self.categories.get(inst) is not Category.THREADID:
            return None
        if isinstance(inst, Phi):
            slopes = set()
            for value in inst.operands:
                if value is inst:
                    continue
                slope = self._slope_of(value)
                if slope is None:
                    if strict:
                        return None
                    continue
                slopes.add(slope)
            if len(slopes) != 1:
                return None
            return slopes.pop()
        if isinstance(inst, UnaryOp) and inst.op == "neg":
            return _slope_neg(self._slope_of(inst.value))
        if not isinstance(inst, BinOp):
            # Casts truncate/convert; calls are opaque — no coefficient.
            return None
        lslope = self._slope_of(inst.lhs)
        rslope = self._slope_of(inst.rhs)
        if inst.op == "add":
            return _slope_add(lslope, rslope)
        if inst.op == "sub":
            return _slope_add(lslope, _slope_neg(rslope))
        if inst.op == "mul":
            # Multiplying an affine form by a *shared* factor scales the
            # coefficient: numeric for a literal constant, symbolic
            # (keyed by the factor's SSA identity) otherwise — symbolic
            # coefficients still support the equality test behind the
            # `uniform` check.
            if self._operand_category(inst.rhs) is Category.SHARED:
                return _slope_mul_shared(lslope, inst.rhs)
            if self._operand_category(inst.lhs) is Category.SHARED:
                return _slope_mul_shared(rslope, inst.lhs)
            return None
        if inst.op in ("min", "max"):
            # min/max of two affine forms with one coefficient keeps it:
            # min(a·t+f, a·t+g) = a·t + min(f, g).
            if lslope is not None and lslope == rslope:
                return lslope
        # div/mod/shifts/bitwise: not affine — no coefficient.
        return None

    def _is_loop_header_phi(self, phi: Phi) -> bool:
        block = phi.parent
        if block is None or block.parent is None:
            return False
        fa = self.result.per_function.get(block.parent.name)
        if fa is None:
            return False
        inner = fa.loops.innermost_loop(block)
        return inner is not None and inner.header is block

    # -- branch classification -------------------------------------------

    def _classify_branches(self, functions: Sequence[Function]) -> None:
        for function in functions:
            fa = self.result.per_function[function.name]
            serialized = function.name in self.result.serialized_functions
            for block in function.blocks:
                term = block.terminator
                if not isinstance(term, Branch):
                    continue
                record = self._classify_branch(fa, term, serialized)
                fa.branches.append(record)
            if self.config.elide_redundant_checks:
                self._elide_redundant(fa)

    def _classify_stores(self, functions: Sequence[Function]) -> None:
        """The `check_stores` extension: a store whose *value* operand is
        statically `shared` must ship the same value from every thread.
        Only non-constant values are worth checking (an immediate cannot
        sit corrupted in a register), and the usual exclusions apply
        (critical sections, serialized functions, nesting cutoff)."""
        for function in functions:
            fa = self.result.per_function[function.name]
            serialized = function.name in self.result.serialized_functions
            for block in function.blocks:
                for inst in block.instructions:
                    if not isinstance(inst, (StoreGlobal, StoreElem)):
                        continue
                    value = inst.value
                    if isinstance(value, Constant):
                        continue
                    if self._operand_category(value) is not Category.SHARED:
                        continue
                    if self.config.elide_critical_sections and (
                            serialized or fa.critical.in_critical_section(inst)):
                        continue
                    depth = fa.loops.nesting_depth(block)
                    if depth > self.config.max_loop_nesting:
                        continue
                    fa.stores.append(StoreRecord(
                        store=inst, function=function, basis=[value],
                        nesting_depth=depth))

    def _elide_redundant(self, fa: FunctionAnalysis) -> None:
        """Section VI optimization: one check per (loop context, check
        kind, set of underlying condition *variables*).

        "There may be many branches that depend on the same set of
        variables, and faults propagating to the data will affect all of
        them.  Therefore, it is sufficient to check one of the branches."
        The variable set is the transitive non-constant leaves of the
        condition expression (phis, loads, parameters, tid sources)."""
        seen: Dict[Tuple, BranchRecord] = {}
        for record in fa.branches:
            if record.check_kind is None:
                continue
            variables = frozenset(
                leaf for value in record.cond_basis
                for leaf in self._leaf_variables(value))
            if not variables:
                continue  # constant-only conditions: nothing shared to hit
            loops = tuple(loop.loop_id for loop in
                          fa.loops.loop_chain(record.branch.parent))
            key = (loops, record.check_kind, variables)
            if key in seen:
                record.check_kind = None
                record.cond_basis = []
                record.skip_reason = "redundant"
            else:
                seen[key] = record

    def _loads_racy(self, value: Value, _seen: Optional[Set[Value]] = None) -> bool:
        """Does ``value`` transitively read a location named in
        ``config.racy_locations``?  Walks pure arithmetic and phis (with
        a visited set — phi webs are cyclic); calls are opaque and not
        followed — interprocedural refinement comes from lint reporting
        the callee's own branches."""
        seen = _seen if _seen is not None else set()
        if value in seen:
            return False
        seen.add(value)
        racy = self.config.racy_locations
        if isinstance(value, LoadGlobal):
            return value.global_.name in racy
        if isinstance(value, LoadElem):
            if value.array.name in racy:
                return True
            return self._loads_racy(value.index, seen)
        if isinstance(value, (BinOp, UnaryOp, Cast, Cmp, Phi)):
            return any(self._loads_racy(op, seen) for op in value.operands)
        return False

    def _leaf_variables(self, value: Value, _depth: int = 0) -> Set[Value]:
        """Underlying variable identities of an expression: expand pure
        arithmetic, stop at phis/loads/params/tid sources (the registers
        a data fault would actually corrupt)."""
        if isinstance(value, Constant) or _depth > 16:
            return set()
        if isinstance(value, (BinOp, UnaryOp, Cast, Cmp)):
            leaves: Set[Value] = set()
            for operand in value.operands:
                leaves |= self._leaf_variables(operand, _depth + 1)
            return leaves
        return {value}

    def _classify_branch(self, fa: FunctionAnalysis, branch: Branch,
                         serialized_function: bool) -> BranchRecord:
        cond = branch.cond
        category = self._operand_category(cond)
        if category is Category.NA:
            category = Category.NONE  # never classified: dead or opaque
        block = branch.parent
        depth = fa.loops.nesting_depth(block)
        record = BranchRecord(
            branch=branch, function=fa.function, category=category,
            check_kind=None,
            in_critical_section=fa.critical.in_critical_section(branch),
            nesting_depth=depth)

        if self.config.elide_critical_sections and (
                record.in_critical_section or serialized_function):
            record.in_critical_section = True
            record.skip_reason = "critical_section"
            return record
        if depth > self.config.max_loop_nesting:
            record.skip_reason = "nesting"
            return record
        if (self.config.race_refinement and self.config.racy_locations
                and self._loads_racy(cond)):
            # A racy load feeding the condition makes threads diverge
            # legitimately; checking it would manufacture false positives.
            record.category = Category.NONE
            record.skip_reason = "racy_condition"
            return record

        basis = list(cond.operands) if isinstance(cond, Cmp) else [cond]
        if category is Category.SHARED:
            record.check_kind = CHECK_SHARED
            record.cond_basis = basis
        elif category is Category.THREADID:
            self._resolve_tid_check(record, cond, basis)
        elif category is Category.PARTIAL:
            record.check_kind = CHECK_PARTIAL
            record.cond_basis = basis
        elif category is Category.NONE:
            if self.config.promote_none_to_partial:
                record.check_kind = CHECK_PARTIAL
                record.cond_basis = basis
                record.promoted = True
            else:
                record.skip_reason = "none_category"
        return record

    def _resolve_tid_check(self, record: BranchRecord, cond: Value,
                           basis: List[Value]) -> None:
        """Pick the strongest sound check for a threadID branch.

        The condition basis of every tid check is ``(lhs, rhs)`` of the
        compare.  In order of strength:

        * equal affine-in-tid coefficients on both sides — the tid
          cancels, so all threads must decide alike (``uniform``; the
          partitioned-loop-bound pattern);
        * equality against a provably injective tid expression — at most
          one thread can satisfy it (``tid_eq``);
        * any ordered compare — the outcome is monotone in ``lhs - rhs``,
          so reports sorted by that difference must be a single block of
          takers (``tid_monotone``; note the sort is by *reported value*,
          never by physical thread id — a tid-counter's logical ids need
          not follow thread creation order);
        * otherwise the universal ``partial`` fallback.
        """
        if not isinstance(cond, Cmp):
            # e.g. a boolean phi of tid-derived decisions: fall back.
            record.check_kind = CHECK_PARTIAL
            record.cond_basis = basis
            return
        lhs, rhs = cond.lhs, cond.rhs
        lcat = self._operand_category(lhs)
        rcat = self._operand_category(rhs)
        lslope = self._slope_of(lhs)
        rslope = self._slope_of(rhs)
        if lslope is not None and lslope == rslope:
            # a·tid + f  <op>  a·tid + g  ==  f <op> g: thread-invariant.
            record.check_kind = CHECK_UNIFORM
            record.cond_basis = []
            return
        if lcat is Category.SHARED:
            record.shared_operand_index = 0
        elif rcat is Category.SHARED:
            record.shared_operand_index = 1
        record.cond_basis = [lhs, rhs]
        if cond.op in ("eq", "ne"):
            diff = None
            if lslope is not None and rslope is not None:
                if isinstance(lslope, (int, float)) and isinstance(rslope, (int, float)):
                    diff = lslope - rslope
            if diff is not None and diff != 0:
                # lhs - rhs is affine with nonzero coefficient: injective
                # in tid, so at most one thread satisfies the equality.
                record.check_kind = CHECK_TID_EQ
                record.eq_sense = cond.op
            else:
                record.check_kind = CHECK_PARTIAL
                record.cond_basis = basis
            return
        # Ordered compare: outcome is monotone in (lhs - rhs) whatever
        # the derivation; takers are the low-difference block for lt/le.
        record.check_kind = CHECK_TID_MONOTONE
        record.monotone_dir = "low" if cond.op in ("lt", "le") else "high"

    # -- tracing ---------------------------------------------------------

    def _snapshot(self, functions: Sequence[Function]) -> Dict[str, str]:
        snap: Dict[str, str] = {}
        for function in functions:
            for param in function.params:
                label = "%s.%s" % (function.name, param.name)
                snap[label] = self.categories.get(param, Category.NA).value
            counters: Dict[str, int] = {}
            for inst in function.instructions():
                if isinstance(inst, Branch):
                    index = counters.get("branch", 0)
                    counters["branch"] = index + 1
                    label = "%s.branch%d" % (function.name, index)
                    snap[label] = self._operand_category(inst.cond).value
                elif inst.name:
                    label = "%s.%s" % (function.name, inst.name)
                    # Several instructions can share a source name; keep
                    # the first (the paper uses variables as proxies).
                    if label not in snap:
                        snap[label] = self.categories.get(
                            inst, Category.NA).value
        return snap
