"""Static fault-vulnerability analysis: predict detectability per site.

BLOCKWATCH's coverage numbers are measured by injecting faults one at a
time; this module *predicts* them.  A fault at a branch is detectable
only if its effect can propagate — along def-use edges, through memory,
across calls — to something the monitor observes: a checked branch's
outcome, or the condition values ``sendBranchCondition`` ships.  That is
a slicing question, and the instrumented SSA module already contains
every edge the slice needs.

Every *fault site* (a ``Branch`` instruction crossed with a fault model
from :mod:`repro.faults.models`) is classified as:

``monitored``
    the fault's effect is slice-reachable to a checked condition (the
    branch is itself checked, its divergence region reaches a monitored
    value, or — for condition faults — the corrupted register feeds one);
``sdc-prone``
    the effect reaches program output (``output()`` or stores feeding
    the campaign's output globals) without any monitored stop;
``masked``
    the effect provably reaches neither — dead arms, values consumed
    before any observable use.

The analysis is built from *per-function summaries*: each function is
reduced to a flow relation between **in-ports** (parameters, loads, call
results, ``gettid``) and **out-ports** (stores, call arguments, returns,
``output``, branch conditions, ``send_cond`` payloads), computed by a
deterministic fixpoint over def-use chains iterated in reverse postorder
(:meth:`repro.ir.cfg.CFG.reverse_postorder`).  Divergence regions — the
blocks a flipped branch can add to or remove from the trace — end where
the two arms rejoin, at their common postdominators
(:meth:`repro.ir.cfg.DominatorTree.post`).
Summaries mention only names (locations, callees, port tokens), never
object identities, so they are JSON-safe, byte-stable under any
``PYTHONHASHSEED``, and content-addressed in :mod:`repro.store` at
per-function granularity: re-analyzing a module re-summarizes **only
the functions whose normalized text changed** (the FastFlip cash-in);
the cross-function fixpoint re-composes from summaries in microseconds.

Array locations carry an index key (a small alias/index algebra, in the
spirit of the race detector's): a store to ``a[3]`` couples only to
loads of ``a[3]`` or to loads at non-constant indices, so constant-index
scratch traffic does not smear vulnerability across a whole array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.ir import (
    CFG,
    Branch,
    Call,
    CallGraph,
    CallIndirect,
    Cmp,
    Constant,
    DominatorTree,
    Function,
    GlobalVariable,
    Instruction,
    LoadElem,
    LoadGlobal,
    Module,
    Output,
    Phi,
    ReadLocal,
    Ret,
    SendBranchCondition,
    StoreElem,
    StoreGlobal,
    WriteLocal,
)
from repro.ir.printer import print_function
from repro.ir.types import VOID
from repro.ir.values import FunctionRef, Value

#: Version of the vulnerability summary/report shape.  Participates in
#: every per-function store key, so bumping it invalidates cached
#: summaries wholesale.
VULN_SCHEMA = 1

CLASS_MONITORED = "monitored"
CLASS_MASKED = "masked"
CLASS_SDC = "sdc-prone"
CLASSES = (CLASS_MONITORED, CLASS_MASKED, CLASS_SDC)

#: Fault-model keys used in reports (match ``FaultType.value``).
MODEL_FLIP = "branch-flip"
MODEL_CONDITION = "branch-condition"
MODELS = (MODEL_FLIP, MODEL_CONDITION)

#: Index key meaning "any element" in location tokens.
ANY_INDEX = "*"

_MONITORED = "monitored"
_OBSERVABLE = "observable"

_STATIC_ID_RE = re.compile(r"(send_cond) #\d+")
_CALLSITE_RE = re.compile(r" !site=\d+")


def function_fingerprint(function: Function) -> str:
    """The function's printed IR with module-globally-numbered tags
    (``send_cond`` static ids, call-site ids) normalized away, so the
    fingerprint — and therefore the store key — of one function does not
    change when an *earlier* function gains or loses a checked branch."""
    text = print_function(function)
    text = _STATIC_ID_RE.sub(r"\1 #?", text)
    return _CALLSITE_RE.sub("", text)


# ---------------------------------------------------------------------------
# Port tokens
# ---------------------------------------------------------------------------
#
# In-ports (where corruption enters a function's data flow):
#   param:<i>        formal parameter i
#   load:<loc>:<k>   load of location <loc> at index key <k>
#   callret:<c>      result of call site <c> (per-function ordinal)
#   tid              gettid
#
# Out-ports (sinks local data flow can reach):
#   store:<loc>:<k>  store to location <loc> at index key <k>
#   callarg:<c>:<j>  argument j of call site <c>
#   cond:<s>         condition of branch site <s> (per-function ordinal)
#   send             a sendBranchCondition payload value
#   ret              the function's return value
#   output           an output() intrinsic


def _index_key(index_value) -> str:
    if isinstance(index_value, Constant):
        return str(index_value.value)
    return ANY_INDEX


def _keys_couple(store_key: str, load_keys: FrozenSet[str]) -> bool:
    """Does a store at ``store_key`` feed any load marked with
    ``load_keys``?  Constant indices couple only to the same constant or
    to a non-constant access; ``*`` couples to anything present."""
    if not load_keys:
        return False
    if store_key == ANY_INDEX or ANY_INDEX in load_keys:
        return True
    return store_key in load_keys


def _slot_location(function_name: str, slot) -> str:
    # LocalSlot "locations" are function-private; prefix them so two
    # functions' slot ids never alias.  Only present pre-``to_ssa``.
    return "$%s@%s" % (slot.slot_id, function_name)


def _is_opaque(value) -> bool:
    return isinstance(value, (Constant, GlobalVariable, FunctionRef))


# ---------------------------------------------------------------------------
# Postdominators and divergence regions
# ---------------------------------------------------------------------------


def _divergence_region(branch: Branch, postdom: DominatorTree) -> Set[str]:
    """Names of the blocks whose execution can change when ``branch``
    goes the other way: everything reachable from either successor
    before the arms rejoin (their common postdominators; none when an
    arm has no path to an exit)."""
    common = (set(postdom.dominators(branch.then_block))
              & set(postdom.dominators(branch.else_block)))
    region: Set[str] = set()
    work = [branch.then_block, branch.else_block]
    while work:
        block = work.pop()
        if block in common or block.name in region:
            continue
        region.add(block.name)
        work.extend(block.successors())
    return region


# ---------------------------------------------------------------------------
# Per-function summary
# ---------------------------------------------------------------------------


def summarize_function(function: Function) -> dict:
    """Reduce one (instrumented, SSA) function to its JSON-safe
    vulnerability summary.  Depends only on the function's own body —
    the unit of store caching."""
    fname = function.name

    # Per-function ordinals for branch sites and call sites, assigned in
    # block-list order (stable across processes and hash seeds).
    sites: List[Branch] = []
    callsites: List[Instruction] = []
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, (Call, CallIndirect)):
                callsites.append(inst)
        if isinstance(block.terminator, Branch):
            sites.append(block.terminator)
    site_of = {branch: index for index, branch in enumerate(sites)}
    call_of = {inst: index for index, inst in enumerate(callsites)}

    # ``direct[v]``: out-port tokens value v feeds as an operand.
    # ``own[i]``: tokens instruction i embodies by *executing* (used
    # for divergence: a store in a conditional arm is an effect even if
    # its operands are constants).
    direct: Dict[Value, Set[str]] = {}
    own: Dict[Instruction, Set[str]] = {}
    in_port: Dict[Instruction, str] = {}

    def contribute(inst, value, token: str) -> None:
        own.setdefault(inst, set()).add(token)
        if not _is_opaque(value):
            direct.setdefault(value, set()).add(token)

    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, StoreGlobal):
                contribute(inst, inst.value,
                           "store:%s:%s" % (inst.global_.name, ANY_INDEX))
            elif isinstance(inst, StoreElem):
                token = "store:%s:%s" % (inst.array.name,
                                         _index_key(inst.index))
                contribute(inst, inst.value, token)
                contribute(inst, inst.index, token)
            elif isinstance(inst, WriteLocal):
                contribute(inst, inst.value, "store:%s:%s"
                           % (_slot_location(fname, inst.slot), ANY_INDEX))
            elif isinstance(inst, Output):
                contribute(inst, inst.value, "output")
            elif isinstance(inst, Ret):
                if inst.value is not None:
                    contribute(inst, inst.value, "ret")
            elif isinstance(inst, Call):
                c = call_of[inst]
                for j, arg in enumerate(inst.operands):
                    contribute(inst, arg, "callarg:%d:%d" % (c, j))
            elif isinstance(inst, CallIndirect):
                c = call_of[inst]
                for j, arg in enumerate(inst.args):
                    contribute(inst, arg, "callarg:%d:%d" % (c, j))
            elif isinstance(inst, SendBranchCondition):
                for value in inst.operands:
                    contribute(inst, value, "send")
            elif isinstance(inst, Branch):
                contribute(inst, inst.cond, "cond:%d" % site_of[inst])

            if isinstance(inst, LoadGlobal):
                in_port[inst] = "load:%s:%s" % (inst.global_.name,
                                                    ANY_INDEX)
            elif isinstance(inst, LoadElem):
                in_port[inst] = "load:%s:%s" % (inst.array.name,
                                                    _index_key(inst.index))
            elif isinstance(inst, ReadLocal):
                in_port[inst] = "load:%s:%s" % (
                    _slot_location(fname, inst.slot), ANY_INDEX)
            elif isinstance(inst, (Call, CallIndirect)):
                if inst.type is not VOID:
                    in_port[inst] = "callret:%d" % call_of[inst]
            elif inst.opcode == "gettid":
                in_port[inst] = "tid"

    # Forward reach: value -> out-port tokens a corruption of the value
    # can touch, closed over local def-use chains.  Reach propagates
    # backward through every value-producing user *except* calls (an
    # argument's influence on the result goes through the callee's
    # summary, not a local edge).  Iteration order is reverse postorder,
    # so acyclic chains converge in one pass and phi cycles in two.
    cfg = CFG(function)
    values: List = list(function.params)
    for block in cfg.reverse_postorder():
        values.extend(i for i in block.instructions if i.type is not VOID)
    reach: Dict[Value, FrozenSet[str]] = {}

    def reach_of(value) -> FrozenSet[str]:
        return reach.get(value, frozenset())

    changed = True
    while changed:
        changed = False
        for value in values:
            acc: Set[str] = set(direct.get(value, ()))
            for user in value.uses:
                if (user.type is not VOID
                        and not isinstance(user, (Call, CallIndirect))):
                    acc.update(reach_of(user))
            if acc != set(reach_of(value)):
                reach[value] = frozenset(acc)
                changed = True

    # Flow relation: in-port token -> out-port tokens it can feed.
    flow: Dict[str, Set[str]] = {}
    for block in function.blocks:
        for inst in block.instructions:
            token = in_port.get(inst)
            if token is not None:
                flow.setdefault(token, set()).update(reach_of(inst))
    for arg in function.params:
        flow.setdefault("param:%d" % arg.index, set()).update(reach_of(arg))

    # Per-site facts: divergence region effects + condition-operand reach.
    postdom = DominatorTree.post(function, cfg)
    site_rows: List[dict] = []
    site_div: List[List[str]] = []
    site_div_calls: List[List[int]] = []
    site_div_checked: List[bool] = []
    site_cond: List[List[str]] = []
    for index, branch in enumerate(sites):
        info = getattr(branch, "bw_info", None)
        site_rows.append({
            "block": branch.parent.name,
            "checked": info is not None,
            "check_kind": getattr(info, "check_kind", "") or "",
        })
        region = _divergence_region(branch, postdom)
        div: Set[str] = set()
        div_calls: Set[int] = set()
        div_checked = False
        for block in function.blocks:
            in_region = block.name in region
            for inst in block.instructions:
                if in_region:
                    div.update(own.get(inst, ()))
                    if inst.type is not VOID:
                        div.update(reach_of(inst))
                    if isinstance(inst, (Call, CallIndirect)):
                        div_calls.add(call_of[inst])
                    if isinstance(inst, (SendBranchCondition, Branch)):
                        if (isinstance(inst, SendBranchCondition)
                                or getattr(inst, "bw_info", None) is not None):
                            div_checked = True
                elif isinstance(inst, Phi):
                    incoming = {b.name for b in inst.blocks}
                    if (incoming & (region | {branch.parent.name})
                            and len(set(inst.operands)) > 1):
                        div.update(reach_of(inst))
        site_div.append(sorted(div))
        site_div_calls.append(sorted(div_calls))
        site_div_checked.append(div_checked)

        cond = branch.cond
        if isinstance(cond, Cmp):
            candidates: List = [op for op in cond.operands
                                if not _is_opaque(op)]
            if not candidates:
                candidates = [cond]
        elif isinstance(cond, Instruction):
            candidates = [cond]
        else:
            candidates = []
        cond_out: Set[str] = set()
        for victim in candidates:
            cond_out.update(reach_of(victim))
        site_cond.append(sorted(cond_out))

    calls = {str(index): (inst.callee.name if isinstance(inst, Call) else "")
             for index, inst in enumerate(callsites)}
    refs: Set[str] = set()
    outs: Set[str] = set()
    for tokens in own.values():
        outs.update(tokens)
    for block in function.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if isinstance(op, FunctionRef):
                    refs.add(op.function_name)

    return {
        "schema": VULN_SCHEMA,
        "function": fname,
        "sites": site_rows,
        "site_div": site_div,
        "site_div_calls": site_div_calls,
        "site_div_checked": site_div_checked,
        "site_cond": site_cond,
        "flow": {token: sorted(tokens)
                 for token, tokens in sorted(flow.items())},
        "outs": sorted(outs),
        "calls": calls,
        "refs": sorted(refs),
    }


# ---------------------------------------------------------------------------
# Interprocedural composition
# ---------------------------------------------------------------------------


class _Marks:
    """Monotone global state of one composition mode (monitored or
    observable): which locations/params/returns carry mode-relevant
    values, which sites diverge into a mode-relevant effect, and which
    functions' mere execution has a mode-relevant effect."""

    def __init__(self) -> None:
        self.locs: Dict[str, Set[str]] = {}
        self.params: Set[Tuple[str, int]] = set()
        self.rets: Set[str] = set()
        self.site_flags: Set[Tuple[str, int]] = set()
        self.call_flags: Set[str] = set()

    def mark_loc(self, loc: str, key: str) -> bool:
        keys = self.locs.setdefault(loc, set())
        if key in keys:
            return False
        keys.add(key)
        return True

    def snapshot(self) -> Tuple:
        return (tuple(sorted((loc, tuple(sorted(keys)))
                             for loc, keys in self.locs.items())),
                tuple(sorted(self.params)), tuple(sorted(self.rets)),
                tuple(sorted(self.site_flags)),
                tuple(sorted(self.call_flags)))


class _Composer:
    """Cross-function fixpoint over per-function summaries."""

    def __init__(self, summaries: Dict[str, dict],
                 output_globals: Sequence[str]) -> None:
        self.summaries = summaries
        self.names = sorted(summaries)
        self.output_globals = frozenset(output_globals)
        #: With no declared outputs every store is observable output.
        self.all_stores_observable = not self.output_globals
        refs: Set[str] = set()
        self.has_indirect = False
        for summary in summaries.values():
            refs.update(summary["refs"])
            if any(callee == "" for callee in summary["calls"].values()):
                self.has_indirect = True
        self.indirect_targets = sorted(refs & set(summaries))
        self.marks = {_MONITORED: _Marks(), _OBSERVABLE: _Marks()}

    # -- sink rules -----------------------------------------------------

    def _targets(self, fname: str, callsite: int) -> List[str]:
        callee = self.summaries[fname]["calls"][str(callsite)]
        if callee:
            return [callee] if callee in self.summaries else []
        return self.indirect_targets

    def sink(self, mode: str, fname: str, token: str) -> bool:
        marks = self.marks[mode]
        if token == "send":
            return mode == _MONITORED
        if token == "output":
            return mode == _OBSERVABLE
        if token == "ret":
            return fname in marks.rets
        kind, _, rest = token.partition(":")
        if kind == "cond":
            site = int(rest)
            if mode == _MONITORED:
                if self.summaries[fname]["sites"][site]["checked"]:
                    return True
            return (fname, site) in marks.site_flags
        if kind == "store":
            loc, _, key = rest.rpartition(":")
            if mode == _OBSERVABLE and (self.all_stores_observable
                                        or loc in self.output_globals):
                return True
            return _keys_couple(key, frozenset(marks.locs.get(loc, ())))
        if kind == "callarg":
            c, _, j = rest.partition(":")
            return any((g, int(j)) in marks.params
                       for g in self._targets(fname, int(c)))
        return False

    def _any_sink(self, mode: str, fname: str, tokens) -> bool:
        return any(self.sink(mode, fname, token) for token in tokens)

    # -- fixpoint -------------------------------------------------------

    def run(self) -> None:
        while True:
            before = tuple(self.marks[m].snapshot()
                           for m in (_MONITORED, _OBSERVABLE))
            for mode in (_MONITORED, _OBSERVABLE):
                self._pass(mode)
            after = tuple(self.marks[m].snapshot()
                          for m in (_MONITORED, _OBSERVABLE))
            if after == before:
                return

    def _pass(self, mode: str) -> None:
        marks = self.marks[mode]
        for fname in self.names:
            summary = self.summaries[fname]
            # 1. in-ports feeding a sink propagate the mark upstream.
            for token, outs in summary["flow"].items():
                if not self._any_sink(mode, fname, outs):
                    continue
                kind, _, rest = token.partition(":")
                if kind == "load":
                    loc, _, key = rest.rpartition(":")
                    marks.mark_loc(loc, key)
                elif kind == "param":
                    marks.params.add((fname, int(rest)))
                elif kind == "callret":
                    for g in self._targets(fname, int(rest)):
                        marks.rets.add(g)
            # 2. site divergence flags.
            for site in range(len(summary["sites"])):
                if (fname, site) in marks.site_flags:
                    continue
                flagged = self._any_sink(mode, fname,
                                         summary["site_div"][site])
                if (not flagged and mode == _MONITORED
                        and summary["site_div_checked"][site]):
                    flagged = True
                if not flagged:
                    for c in summary["site_div_calls"][site]:
                        if any(g in marks.call_flags
                               for g in self._targets(fname, c)):
                            flagged = True
                            break
                if flagged:
                    marks.site_flags.add((fname, site))
            # 3. whole-function execution effect.
            if fname not in marks.call_flags:
                flagged = self._any_sink(mode, fname, summary["outs"])
                if (not flagged and mode == _MONITORED
                        and any(row["checked"] for row in summary["sites"])):
                    flagged = True
                if not flagged:
                    for c in summary["calls"]:
                        if any(g in marks.call_flags
                               for g in self._targets(fname, int(c))):
                            flagged = True
                            break
                if flagged:
                    marks.call_flags.add(fname)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class VulnSite:
    """One fault site with its per-model predictions."""

    site_id: int
    function: str
    block: str
    #: Ordinal of this branch within its function (block order).
    index: int
    checked: bool
    check_kind: str
    #: Model key (:data:`MODELS`) -> predicted class (:data:`CLASSES`).
    predictions: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "site": self.site_id, "function": self.function,
            "block": self.block, "index": self.index,
            "checked": self.checked, "check_kind": self.check_kind,
            "predictions": dict(sorted(self.predictions.items())),
        }


@dataclass
class VulnReport:
    """Deterministic, JSON-safe vulnerability report for one module."""

    name: str
    entry: str
    output_globals: Tuple[str, ...]
    functions: Tuple[str, ...]
    sites: List[VulnSite]

    def class_of(self, site_id: int, model: str) -> str:
        return self.sites[site_id].predictions[model]

    def summary(self) -> Dict[str, Dict[str, int]]:
        counts = {model: {cls: 0 for cls in CLASSES} for model in MODELS}
        for site in self.sites:
            for model, cls in site.predictions.items():
                counts[model][cls] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "schema": VULN_SCHEMA,
            "name": self.name,
            "entry": self.entry,
            "output_globals": list(self.output_globals),
            "functions": list(self.functions),
            "sites": [site.as_dict() for site in self.sites],
            "summary": self.summary(),
        }


def analyze_vulnerability(module: Module, entry: str = "slave",
                          output_globals: Sequence[str] = (),
                          store=None, name: str = "module",
                          telemetry=None) -> VulnReport:
    """Classify every fault site of ``module``'s parallel region (the
    :class:`~repro.ir.CallGraph` region the similarity analysis checks).

    ``module`` must be the *instrumented* image (checked branches carry
    ``bw_info``) — i.e. ``ParallelProgram.protected``; use
    :func:`analyze_program` for the common case.  ``store`` caches the
    per-function summaries content-addressed on the normalized function
    text (``store.vuln.hit``/``store.vuln.miss`` counters).
    """
    summaries: Dict[str, dict] = {}
    for fname in sorted(CallGraph(module, entry).parallel):
        function = module.functions[fname]
        if store is not None:
            from repro.store.hashing import vuln_key
            key = vuln_key(function_fingerprint(function), VULN_SCHEMA)
            summary = store.get_vuln(
                key, lambda f=function: summarize_function(f),
                name="vuln %s" % fname, telemetry=telemetry)
        else:
            summary = summarize_function(function)
        summaries[fname] = summary

    composer = _Composer(summaries, output_globals)
    composer.run()

    sites: List[VulnSite] = []
    for fname in sorted(summaries):
        summary = summaries[fname]
        for index, row in enumerate(summary["sites"]):
            site = VulnSite(
                site_id=len(sites), function=fname, block=row["block"],
                index=index, checked=row["checked"],
                check_kind=row["check_kind"])
            site.predictions[MODEL_FLIP] = _classify(
                composer, fname, index, row["checked"], ())
            site.predictions[MODEL_CONDITION] = _classify(
                composer, fname, index, row["checked"],
                summary["site_cond"][index])
            sites.append(site)
    return VulnReport(name=name, entry=entry,
                      output_globals=tuple(output_globals),
                      functions=tuple(sorted(summaries)), sites=sites)


def _classify(composer: _Composer, fname: str, site: int, checked: bool,
              extra_tokens) -> str:
    mon = composer.marks[_MONITORED]
    obs = composer.marks[_OBSERVABLE]
    if checked or (fname, site) in mon.site_flags:
        return CLASS_MONITORED
    if extra_tokens and composer._any_sink(_MONITORED, fname, extra_tokens):
        return CLASS_MONITORED
    if (fname, site) in obs.site_flags:
        return CLASS_SDC
    if extra_tokens and composer._any_sink(_OBSERVABLE, fname, extra_tokens):
        return CLASS_SDC
    return CLASS_MASKED


def analyze_program(program, output_globals: Sequence[str] = (),
                    store=None, telemetry=None) -> VulnReport:
    """Vulnerability report for a compiled
    :class:`~repro.runtime.program.ParallelProgram` (its *protected*
    image — the one campaigns inject into)."""
    return analyze_vulnerability(
        program.protected, entry=program.entry,
        output_globals=output_globals, store=store, name=program.name,
        telemetry=telemetry)


def branch_site_map(module: Module, report: VulnReport) -> Dict[Branch, int]:
    """``branch -> site_id`` for the runtime (hooks receive the live
    :class:`Branch` objects of exactly this module)."""
    mapping: Dict[Branch, int] = {}
    by_function: Dict[str, List[int]] = {}
    for site in report.sites:
        by_function.setdefault(site.function, []).append(site.site_id)
    for fname, site_ids in by_function.items():
        function = module.functions.get(fname)
        if function is None:
            continue
        branches = [block.terminator for block in function.blocks
                    if isinstance(block.terminator, Branch)]
        if len(branches) != len(site_ids):
            raise ValueError(
                "site table for %s names %d branches but the module has "
                "%d — report and module are out of sync"
                % (fname, len(site_ids), len(branches)))
        for branch, site_id in zip(branches, site_ids):
            mapping[branch] = site_id
    return mapping
