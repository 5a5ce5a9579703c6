"""MiniC AST → SSA IR lowering.

SSA form is built on the fly with the algorithm of Braun et al. (*Simple
and Efficient Construction of Static Single Assignment Form*, CC 2013):
each block keeps a variable→value map; reads in unsealed blocks create
operand-less phis that are completed when the block's final predecessor
set is known; trivial phis are removed recursively.

This gives exactly the IR shape the paper assumes — e.g. a ``for`` loop's
induction variable becomes a header phi ``i = phi [0, preheader],
[i+1, latch]``, which is the case the paper's Table III walks through.

Structured control flow guarantees every loop a *dedicated preheader* and
a single header, which the loop analysis and the instrumentation pass rely
on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CodegenError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.ir import (
    BOOL,
    CFG,
    FLOAT,
    INT,
    IRBuilder,
    BasicBlock,
    Constant,
    Function,
    Module,
    Phi,
    Type,
    Value,
    array_of,
    verify_module,
)
from repro.ir.types import BARRIER, LOCK, VOID


def compile_source(source: str, name: str = "module",
                   verify: bool = True) -> Module:
    """Compile MiniC source text into a verified SSA module.

    ``verify=False`` skips the IR verifier — for tools that analyze
    deliberately malformed programs (e.g. unbalanced lock paths the
    sync-protocol check would reject)."""
    return compile_program(parse(source), name, verify=verify)


def compile_program(program: ast.Program, name: str = "module",
                    verify: bool = True) -> Module:
    module = Module(name)
    # Globals first, then function headers (so calls can be resolved in any
    # order), then bodies.
    for decl in program.globals:
        _declare_global(module, decl)
    headers: List[Tuple[ast.FuncDecl, Function]] = []
    for fdecl in program.functions:
        params = [(p.name, _scalar(p.type_name, p.line)) for p in fdecl.params]
        return_type = VOID if fdecl.return_type is None else _scalar(
            fdecl.return_type, fdecl.line)
        function = Function(fdecl.name, params, return_type)
        module.add_function(function)
        headers.append((fdecl, function))
    for fdecl, function in headers:
        _FunctionCodegen(module, function, fdecl).run()
    if verify:
        verify_module(module)
    return module


def _scalar(name: str, line: int) -> Type:
    if name == "int":
        return INT
    if name == "float":
        return FLOAT
    raise CodegenError("unknown scalar type %r" % name, line)


def _declare_global(module: Module, decl: ast.GlobalDecl) -> None:
    if decl.type_name == "lock":
        module.add_global(decl.name, LOCK)
        return
    if decl.type_name == "barrier":
        module.add_global(decl.name, BARRIER)
        return
    element = _scalar(decl.type_name, decl.line)
    if decl.array_length is not None:
        default = 0 if element is INT else 0.0
        init = [default] * decl.array_length
        module.add_global(decl.name, array_of(element, decl.array_length), init)
    else:
        init = decl.init
        if init is None:
            init = 0 if element is INT else 0.0
        elif element is FLOAT:
            init = float(init)
        module.add_global(decl.name, element, init)


class _FunctionCodegen:
    """Lowers one function body.  One instance per function."""

    def __init__(self, module: Module, function: Function, decl: ast.FuncDecl):
        self.module = module
        self.function = function
        self.decl = decl
        self.builder = IRBuilder()
        # Braun SSA state -----------------------------------------------
        self._current_defs: Dict[str, Dict[BasicBlock, Value]] = {}
        # sealed block -> its predecessors, final once sealed
        self._sealed_preds: Dict[BasicBlock, List[BasicBlock]] = {}
        self._incomplete: Dict[BasicBlock, Dict[str, Phi]] = {}
        # declared locals and parameters: name -> type
        self._local_types: Dict[str, Type] = {}
        # (break_target, continue_target) stack
        self._loop_targets: List[Tuple[BasicBlock, BasicBlock]] = []

    # -- public entry ------------------------------------------------------

    def run(self) -> None:
        entry = self.function.add_block("entry")
        self._seal(entry)
        self.builder.position_at_end(entry)
        for param in self.function.params:
            if param.name in self._local_types:
                raise CodegenError("duplicate parameter %r" % param.name,
                                   self.decl.line)
            self._local_types[param.name] = param.type
            self._write(param.name, entry, param)
        self._gen_body(self.decl.body)
        # Implicit return if control falls off the end.
        block = self.builder.block
        if block is not None and not block.is_terminated:
            if self.function.return_type is VOID:
                self.builder.ret()
            else:
                default = 0 if self.function.return_type is INT else 0.0
                self.builder.ret(Constant(default))
        self._prune_unreachable()

    # -- SSA bookkeeping (Braun et al.) --------------------------------------

    def _write(self, var: str, block: BasicBlock, value: Value) -> None:
        self._current_defs.setdefault(var, {})[block] = value

    def _read(self, var: str, block: BasicBlock) -> Value:
        defs = self._current_defs.get(var)
        if defs is not None and block in defs:
            return defs[block]
        return self._read_recursive(var, block)

    def _read_recursive(self, var: str, block: BasicBlock) -> Value:
        preds = self._sealed_preds.get(block)
        if preds is None:
            phi = Phi(self._local_types[var], var)
            block.insert_after_phis(phi)
            phi.parent = block
            self._incomplete.setdefault(block, {})[var] = phi
            value: Value = phi
        elif len(preds) == 1:
            value = self._read(var, preds[0])
        elif not preds:
            # Read of an uninitialized variable in an unreachable block
            # (e.g. after 'break'); any value will do.
            value = Constant(0 if self._local_types[var] is INT else 0.0)
        else:
            phi = Phi(self._local_types[var], var)
            block.insert_after_phis(phi)
            phi.parent = block
            self._write(var, block, phi)
            value = self._add_phi_operands(var, phi, preds)
        self._write(var, block, value)
        return value

    def _add_phi_operands(self, var: str, phi: Phi,
                          preds: List[BasicBlock]) -> Value:
        for pred in preds:
            phi.add_incoming(self._read(var, pred), pred)
        return self._try_remove_trivial(phi)

    def _try_remove_trivial(self, phi: Phi) -> Value:
        same: Optional[Value] = None
        for operand in phi.operands:
            if operand is phi or operand is same:
                continue
            if same is not None:
                return phi  # merges at least two distinct values
            same = operand
        if same is None:
            # Phi references only itself — unreachable or undefined; use 0.
            same = Constant(0 if phi.type is INT else (0.0 if phi.type is FLOAT else False))
        users = [u for u in list(phi.uses) if u is not phi]
        # Rewrite all uses, then recursively re-check phi users.
        for user in users:
            user.replace_uses_of(phi, same)
        if phi.parent is not None:
            phi.parent.remove(phi)
        phi.drop_operands()
        for var_map in self._current_defs.values():
            for key, value in list(var_map.items()):
                if value is phi:
                    var_map[key] = same
        for user in users:
            if isinstance(user, Phi):
                self._try_remove_trivial(user)
        return same

    def _seal(self, block: BasicBlock) -> None:
        preds = block.predecessors()
        for var, phi in self._incomplete.pop(block, {}).items():
            self._add_phi_operands(var, phi, preds)
        self._sealed_preds[block] = preds

    # -- statements ----------------------------------------------------------

    def _gen_body(self, body: List[ast.Stmt]) -> None:
        for stmt in body:
            if self.builder.block is not None and self.builder.block.is_terminated:
                # Dead code after break/continue/return: emit into a fresh
                # unreachable block so SSA stays well-formed, prune later.
                dead = self.function.add_block("dead")
                self._seal(dead)
                self.builder.position_at_end(dead)
            self._gen_stmt(stmt)

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, "_gen_" + type(stmt).__name__.lower(), None)
        if method is None:
            raise CodegenError("cannot lower %s" % type(stmt).__name__, stmt.line)
        method(stmt)

    def _gen_localdecl(self, stmt: ast.LocalDecl) -> None:
        if stmt.name in self._local_types:
            raise CodegenError("duplicate local %r" % stmt.name, stmt.line)
        if stmt.name in self.module.globals:
            raise CodegenError(
                "local %r shadows a global (not allowed)" % stmt.name, stmt.line)
        type_ = _scalar(stmt.type_name, stmt.line)
        self._local_types[stmt.name] = type_
        if stmt.init is not None:
            value = self._coerce(self._gen_expr(stmt.init), type_, stmt.line)
        else:
            value = Constant(0 if type_ is INT else 0.0)
        self._write(stmt.name, self.builder.block, value)

    def _gen_assign(self, stmt: ast.Assign) -> None:
        value = self._gen_expr(stmt.value)
        if stmt.index is not None:
            array = self._global(stmt.name, stmt.line, want_array=True)
            index = self._coerce(self._gen_expr(stmt.index), INT, stmt.line)
            value = self._coerce(value, array.type.element, stmt.line)
            self.builder.storeelem(array, index, value)
            return
        if stmt.name in self._local_types:
            value = self._coerce(value, self._local_types[stmt.name], stmt.line)
            self._write(stmt.name, self.builder.block, value)
            return
        if stmt.name in self.module.globals:
            g = self._global(stmt.name, stmt.line)
            if not g.type.is_scalar:
                raise CodegenError("cannot assign whole array @%s" % stmt.name,
                                   stmt.line)
            value = self._coerce(value, g.type, stmt.line)
            self.builder.store(g, value)
            return
        raise CodegenError("assignment to undeclared name %r" % stmt.name, stmt.line)

    def _gen_if(self, stmt: ast.If) -> None:
        cond = self._bool(self._gen_expr(stmt.cond), stmt.line)
        then_block = self.function.add_block("if.then")
        merge_block = self.function.add_block("if.end")
        if stmt.else_body:
            else_block = self.function.add_block("if.else")
        else:
            else_block = merge_block
        self.builder.br(cond, then_block, else_block)
        self._seal(then_block)
        self.builder.position_at_end(then_block)
        self._gen_body(stmt.then_body)
        if not self.builder.block.is_terminated:
            self.builder.jmp(merge_block)
        if stmt.else_body:
            self._seal(else_block)
            self.builder.position_at_end(else_block)
            self._gen_body(stmt.else_body)
            if not self.builder.block.is_terminated:
                self.builder.jmp(merge_block)
        self._seal(merge_block)
        self.builder.position_at_end(merge_block)

    def _gen_while(self, stmt: ast.While) -> None:
        self._gen_loop(init=None, cond=stmt.cond, update=None, body=stmt.body,
                       line=stmt.line)

    def _gen_for(self, stmt: ast.For) -> None:
        self._gen_loop(init=stmt.init, cond=stmt.cond, update=stmt.update,
                       body=stmt.body, line=stmt.line)

    def _gen_loop(self, init: Optional[ast.Stmt], cond: Optional[ast.Expr],
                  update: Optional[ast.Stmt], body: List[ast.Stmt],
                  line: int) -> None:
        if init is not None:
            self._gen_stmt(init)
        # Dedicated preheader: the instrumentation pass inserts EnterLoop here.
        preheader = self.function.add_block("loop.preheader")
        header = self.function.add_block("loop.header")
        body_block = self.function.add_block("loop.body")
        exit_block = self.function.add_block("loop.exit")
        if update is not None:
            latch = self.function.add_block("loop.latch")
            continue_target = latch
        else:
            latch = None
            continue_target = header
        self.builder.jmp(preheader)
        self._seal(preheader)
        self.builder.position_at_end(preheader)
        self.builder.jmp(header)
        # header stays unsealed until the back edge exists
        self.builder.position_at_end(header)
        if cond is not None:
            cond_value = self._bool(self._gen_expr(cond), line)
            self.builder.br(cond_value, body_block, exit_block)
        else:
            self.builder.jmp(body_block)
        self._seal(body_block)
        self.builder.position_at_end(body_block)
        self._loop_targets.append((exit_block, continue_target))
        self._gen_body(body)
        self._loop_targets.pop()
        if latch is not None:
            if not self.builder.block.is_terminated:
                self.builder.jmp(latch)
            self._seal(latch)
            self.builder.position_at_end(latch)
            self._gen_stmt(update)
            self.builder.jmp(header)
        else:
            if not self.builder.block.is_terminated:
                self.builder.jmp(header)
        self._seal(header)
        self._seal(exit_block)
        self.builder.position_at_end(exit_block)

    def _gen_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            if self.function.return_type is not VOID:
                raise CodegenError("missing return value", stmt.line)
            self.builder.ret()
        else:
            if self.function.return_type is VOID:
                raise CodegenError("void function returns a value", stmt.line)
            value = self._coerce(self._gen_expr(stmt.value),
                                 self.function.return_type, stmt.line)
            self.builder.ret(value)

    def _gen_break(self, stmt: ast.Break) -> None:
        if not self._loop_targets:
            raise CodegenError("'break' outside a loop", stmt.line)
        self.builder.jmp(self._loop_targets[-1][0])

    def _gen_continue(self, stmt: ast.Continue) -> None:
        if not self._loop_targets:
            raise CodegenError("'continue' outside a loop", stmt.line)
        self.builder.jmp(self._loop_targets[-1][1])

    def _gen_lockstmt(self, stmt: ast.LockStmt) -> None:
        self.builder.lock(self._sync(stmt.name, LOCK, stmt.line))

    def _gen_unlockstmt(self, stmt: ast.UnlockStmt) -> None:
        self.builder.unlock(self._sync(stmt.name, LOCK, stmt.line))

    def _gen_barrierstmt(self, stmt: ast.BarrierStmt) -> None:
        self.builder.barrier(self._sync(stmt.name, BARRIER, stmt.line))

    def _gen_outputstmt(self, stmt: ast.OutputStmt) -> None:
        self.builder.output(self._gen_expr(stmt.value))

    def _gen_exprstmt(self, stmt: ast.ExprStmt) -> None:
        self._gen_expr(stmt.expr)

    def _gen_blockstmt(self, stmt: ast.BlockStmt) -> None:
        self._gen_body(stmt.body)

    # -- expressions ---------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr) -> Value:
        method = getattr(self, "_gen_" + type(expr).__name__.lower(), None)
        if method is None:
            raise CodegenError("cannot lower %s" % type(expr).__name__, expr.line)
        return method(expr)

    def _gen_intliteral(self, expr: ast.IntLiteral) -> Value:
        return Constant(expr.value)

    def _gen_floatliteral(self, expr: ast.FloatLiteral) -> Value:
        return Constant(expr.value)

    def _gen_boolliteral(self, expr: ast.BoolLiteral) -> Value:
        return Constant(expr.value)

    def _gen_nameexpr(self, expr: ast.NameExpr) -> Value:
        if expr.name in self._local_types:
            return self._read(expr.name, self.builder.block)
        if expr.name in self.module.globals:
            g = self._global(expr.name, expr.line)
            if not g.type.is_scalar:
                raise CodegenError(
                    "array @%s used without an index" % expr.name, expr.line)
            return self.builder.load(g, expr.name)
        raise CodegenError("undeclared name %r" % expr.name, expr.line)

    def _gen_indexexpr(self, expr: ast.IndexExpr) -> Value:
        array = self._global(expr.name, expr.line, want_array=True)
        index = self._coerce(self._gen_expr(expr.index), INT, expr.line)
        return self.builder.loadelem(array, index)

    def _gen_unaryexpr(self, expr: ast.UnaryExpr) -> Value:
        operand = self._gen_expr(expr.operand)
        if expr.op == "-":
            return self.builder.neg(operand)
        if expr.op == "!":
            return self.builder.not_(self._bool(operand, expr.line))
        raise CodegenError("unknown unary operator %r" % expr.op, expr.line)

    _BINOP_MAP = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
                  "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
                  "&&": "and", "||": "or"}
    _CMP_MAP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le",
                ">": "gt", ">=": "ge"}

    def _gen_binaryexpr(self, expr: ast.BinaryExpr) -> Value:
        lhs = self._gen_expr(expr.lhs)
        rhs = self._gen_expr(expr.rhs)
        if expr.op in self._CMP_MAP:
            lhs, rhs = self._unify(lhs, rhs, expr.line)
            return self.builder.cmp(self._CMP_MAP[expr.op], lhs, rhs)
        if expr.op in ("&&", "||"):
            lhs = self._bool(lhs, expr.line)
            rhs = self._bool(rhs, expr.line)
            return self.builder.binop(self._BINOP_MAP[expr.op], lhs, rhs)
        if expr.op in self._BINOP_MAP:
            lhs, rhs = self._unify(lhs, rhs, expr.line)
            return self.builder.binop(self._BINOP_MAP[expr.op], lhs, rhs)
        raise CodegenError("unknown operator %r" % expr.op, expr.line)

    def _gen_callexpr(self, expr: ast.CallExpr) -> Value:
        if expr.name == "tid":
            if expr.args:
                raise CodegenError("tid() takes no arguments", expr.line)
            return self.builder.gettid("tid")
        if expr.name in ("min", "max"):
            if len(expr.args) != 2:
                raise CodegenError("%s() takes two arguments" % expr.name, expr.line)
            lhs, rhs = (self._gen_expr(a) for a in expr.args)
            lhs, rhs = self._unify(lhs, rhs, expr.line)
            return self.builder.binop(expr.name, lhs, rhs)
        if expr.name in ("int", "float"):
            if len(expr.args) != 1:
                raise CodegenError("%s() takes one argument" % expr.name, expr.line)
            value = self._gen_expr(expr.args[0])
            target = INT if expr.name == "int" else FLOAT
            return self._coerce(value, target, expr.line, explicit=True)
        try:
            callee = self.module.function_named(expr.name)
        except Exception:
            raise CodegenError("call to unknown function %r" % expr.name,
                               expr.line) from None
        if len(expr.args) != len(callee.params):
            raise CodegenError(
                "%s() takes %d arguments, got %d"
                % (expr.name, len(callee.params), len(expr.args)), expr.line)
        args = [self._coerce(self._gen_expr(a), p.type, expr.line)
                for a, p in zip(expr.args, callee.params)]
        return self.builder.call(callee, args)

    def _gen_callptrexpr(self, expr: ast.CallPtrExpr) -> Value:
        target = self._coerce(self._gen_expr(expr.target), INT, expr.line)
        args = [self._gen_expr(a) for a in expr.args]
        return self.builder.callptr(target, args, INT)

    def _gen_funcrefexpr(self, expr: ast.FuncRefExpr) -> Value:
        if expr.name not in self.module.functions:
            raise CodegenError("&%s: unknown function" % expr.name, expr.line)
        return self.builder.funcref(expr.name)

    # -- helpers -------------------------------------------------------------

    def _global(self, name: str, line: int, want_array: bool = False):
        if name not in self.module.globals:
            raise CodegenError("undeclared global %r" % name, line)
        g = self.module.globals[name]
        from repro.ir.types import ArrayType
        if want_array and not isinstance(g.type, ArrayType):
            raise CodegenError("@%s is not an array" % name, line)
        return g

    def _sync(self, name: str, type_: Type, line: int):
        g = self._global(name, line)
        if g.type is not type_:
            raise CodegenError("@%s is not a %s" % (name, type_.name), line)
        return g

    def _bool(self, value: Value, line: int) -> Value:
        """Coerce a value to bool (nonzero test for numerics, C-style)."""
        if value.type is BOOL:
            return value
        if value.type.is_numeric:
            zero = Constant(0 if value.type is INT else 0.0)
            return self.builder.cmp("ne", value, zero)
        raise CodegenError("cannot use %s as a condition" % value.type, line)

    def _coerce(self, value: Value, target: Type, line: int,
                explicit: bool = False) -> Value:
        if value.type is target:
            return value
        if value.type is INT and target is FLOAT:
            if isinstance(value, Constant):
                return Constant(float(value.value))
            return self.builder.cast("itof", value)
        if value.type is FLOAT and target is INT:
            if not explicit:
                raise CodegenError(
                    "implicit float->int conversion (use int(...))", line)
            if isinstance(value, Constant):
                return Constant(int(value.value))
            return self.builder.cast("ftoi", value)
        if value.type is BOOL and target is INT:
            if isinstance(value, Constant):
                return Constant(int(value.value))
            return self.builder.cast("btoi", value)
        raise CodegenError("cannot convert %s to %s" % (value.type, target), line)

    def _unify(self, lhs: Value, rhs: Value, line: int) -> Tuple[Value, Value]:
        if lhs.type is rhs.type:
            return lhs, rhs
        if lhs.type is INT and rhs.type is FLOAT:
            return self._coerce(lhs, FLOAT, line), rhs
        if lhs.type is FLOAT and rhs.type is INT:
            return lhs, self._coerce(rhs, FLOAT, line)
        raise CodegenError("operands of incompatible types %s and %s"
                           % (lhs.type, rhs.type), line)

    # -- cleanup -------------------------------------------------------------

    def _prune_unreachable(self) -> None:
        """Drop blocks unreachable from the entry and fix phi edges."""
        reachable = set(CFG(self.function).reachable())
        dead = [b for b in self.function.blocks if b not in reachable]
        for block in self.function.blocks:
            if block not in reachable:
                continue
            for phi in block.phis():
                for index in reversed(range(len(phi.blocks))):
                    if phi.blocks[index] not in reachable:
                        phi.remove_incoming(index)
            # a phi left with one incoming collapses to that value
            for phi in list(block.phis()):
                if len(phi.operands) == 1:
                    self._try_remove_trivial(phi)
        for block in dead:
            for inst in list(block.instructions):
                inst.drop_operands()
                block.remove(inst)
            self.function.remove_block(block)
