"""Lowering from the MiniLang syntax tree to the flat IR.

Shape rules, chosen so every conditional in the source maps 1:1 to a branch
terminator and so that condition blocks never hold statements:

  - `if` and `while` conditions must be pure expressions (no array reads,
    calls, alloc, or read_input); the condition occupies its own block
    unless the current block is still empty, in which case it is reused.
  - Impure subexpressions elsewhere are flattened into fresh temporaries
    (`__t0`, `__t1`, ...), evaluated left to right; an impure right-hand
    side of a `let` or assignment is stored straight into its variable.
  - Statements after a `return` in the same sequence are unreachable and
    dropped.
  - Locals are function-scoped and default-initialized (0 / false / nil),
    so a `let` anywhere in the body is a typed first assignment.

Lowering is deterministic: the same tree always produces the same ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import (
    BOOL,
    INT,
    REF,
    UNIT,
    ArrayAlloc,
    ArrayRead,
    ArrayWrite,
    Assertion,
    Assign,
    BasicBlock,
    BoolConst,
    Branch,
    Call,
    FnType,
    FuncRef,
    IntConst,
    IRFunction,
    IRProgram,
    Jump,
    NilConst,
    Print,
    ReadInput,
    Return,
    Unary,
    Binary,
    Var,
    const_type,
    validate_program,
)
from . import nodes
from .nodes import LoweringError

INT_OPS = {"+", "-", "*", "/", "%"}
CMP_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"==", "!="}
BOOL_OPS = {"&&", "||"}
IMPURE = (nodes.IndexExpr, nodes.CallExpr, nodes.AllocExpr, nodes.ReadInputExpr)


def default_value(value_type):
    if value_type == INT:
        return IntConst(0)
    if value_type == BOOL:
        return BoolConst(False)
    if value_type == REF or isinstance(value_type, FnType):
        return NilConst()
    return None


@dataclass
class _Block:
    id: str
    statements: list = field(default_factory=list)
    terminator: object | None = None
    line: int | None = None


class _FunctionBuilder:
    """Per-function CFG construction state."""

    def __init__(self, decl: nodes.FuncDecl, signatures: dict[str, FnType], path: str):
        self.decl = decl
        self.signatures = signatures
        self.path = path
        self.blocks: list[_Block] = []
        self.current: _Block | None = None
        self.block_count = 0
        self.stmt_count = 0
        self.temp_count = 0
        self.env: dict[str, object] = dict(decl.params)
        self.locals: dict[str, object] = {}
        self.source_map: dict[str, tuple[str, int]] = {}
        self._collect_lets(decl.body)
        self.new_block()

    # --- bookkeeping ---

    def _collect_lets(self, body) -> None:
        for stmt in body:
            if isinstance(stmt, nodes.Let):
                if stmt.name in self.env:
                    raise LoweringError(
                        f"{stmt.name!r} declared twice in {self.decl.name}", stmt.line
                    )
                self.env[stmt.name] = stmt.type
                self.locals[stmt.name] = stmt.type
            elif isinstance(stmt, nodes.If):
                self._collect_lets(stmt.then_body)
                if stmt.else_body:
                    self._collect_lets(stmt.else_body)
            elif isinstance(stmt, nodes.While):
                self._collect_lets(stmt.body)

    def new_block(self) -> _Block:
        block = _Block(id=f"b{self.block_count}")
        self.block_count += 1
        self.blocks.append(block)
        self.current = block
        return block

    def new_stmt_id(self, line: int) -> str:
        sid = f"{self.decl.name}:s{self.stmt_count}"
        self.stmt_count += 1
        self.source_map[sid] = (self.path, line)
        return sid

    def new_temp(self, value_type) -> str:
        name = f"__t{self.temp_count}"
        self.temp_count += 1
        self.env[name] = value_type
        self.locals[name] = value_type
        return name

    def emit(self, stmt, line: int) -> None:
        if self.current.terminator is not None:
            return  # unreachable statement after return; dropped
        if self.current.line is None:
            self.current.line = line
        self.current.statements.append(stmt)

    def terminate(self, terminator, line: int | None = None) -> None:
        if self.current.terminator is None:
            self.current.terminator = terminator
            if self.current.line is None and line is not None:
                self.current.line = line

    def condition_block(self, line: int) -> _Block:
        """Block that will hold a branch; reuses the current block if empty."""
        if self.current.terminator is None and not self.current.statements:
            if self.current.line is None:
                self.current.line = line
            return self.current
        target = _Block(id=f"b{self.block_count}", line=line)
        self.block_count += 1
        self.blocks.append(target)
        self.terminate(Jump(target.id))
        self.current = target
        return target

    # --- expression lowering (flattening) ---

    def type_of_var(self, name: str, line: int):
        vtype = self.env.get(name)
        if vtype is None:
            raise LoweringError(
                f"unknown variable {name!r} in {self.decl.name}", line
            )
        return vtype

    def flatten(self, expr, pure: bool = False) -> tuple[object, object]:
        """Lower any expression; returns (pure IR expression, its type).

        Impure parts are stored into fresh temporaries, left to right. With
        `pure` (an `if`/`while` condition) they are rejected instead.
        """
        if isinstance(expr, IMPURE):
            if pure:
                raise LoweringError(
                    "array reads, calls, alloc and read_input are not allowed in "
                    "conditions",
                    expr.line,
                )
            return self.store(expr)
        if isinstance(expr, nodes.IntLit):
            return IntConst(expr.value), INT
        if isinstance(expr, nodes.BoolLit):
            return BoolConst(expr.value), BOOL
        if isinstance(expr, nodes.NilLit):
            return NilConst(), REF
        if isinstance(expr, nodes.Name):
            return Var(expr.name), self.type_of_var(expr.name, expr.line)
        if isinstance(expr, nodes.FuncRefExpr):
            if expr.name not in self.signatures:
                raise LoweringError(
                    f"reference to unknown function {expr.name!r}", expr.line
                )
            return FuncRef(expr.name), self.signatures[expr.name]
        if isinstance(expr, nodes.UnaryOp):
            operand, otype = self.flatten(expr.operand, pure)
            want = BOOL if expr.op == "!" else INT
            if otype != want:
                raise LoweringError(
                    f"operator {expr.op!r} applied to {otype}", expr.line
                )
            return Unary(expr.op, operand), want
        if isinstance(expr, nodes.BinOp):
            left, ltype = self.flatten(expr.left, pure)
            right, rtype = self.flatten(expr.right, pure)
            result = Binary(expr.op, left, right)
            if expr.op in INT_OPS or expr.op in CMP_OPS:
                if ltype != INT or rtype != INT:
                    raise LoweringError(
                        f"operator {expr.op!r} needs int operands", expr.line
                    )
                return result, (INT if expr.op in INT_OPS else BOOL)
            if expr.op in EQ_OPS:
                if ltype != rtype:
                    raise LoweringError(
                        f"cannot compare {ltype} with {rtype}", expr.line
                    )
                return result, BOOL
            if expr.op in BOOL_OPS:
                if ltype != BOOL or rtype != BOOL:
                    raise LoweringError(
                        f"operator {expr.op!r} needs bool operands", expr.line
                    )
                return result, BOOL
            raise LoweringError(f"unknown operator {expr.op!r}", expr.line)
        raise LoweringError(f"unsupported expression {expr!r}")

    def store(self, expr, target: str | None = None, line: int | None = None):
        """Emit the one statement that computes an impure expression (an
        array read, call, alloc or read_input) into `target`, or into a fresh
        temporary; returns (Var of the result, its type).

        The statement is on `line` when given (a `let` or assignment storing
        straight into its variable), else on the expression's own line; a
        call always keeps its own.
        """
        if isinstance(expr, nodes.CallExpr):
            operands, vtype = self.call_operands(expr)
            if vtype == UNIT:
                raise LoweringError(
                    f"{expr.callee!r} returns unit and has no value", expr.line
                )
            kind, line = Call, expr.line
        elif isinstance(expr, nodes.IndexExpr):
            if self.type_of_var(expr.array, expr.line) != REF:
                raise LoweringError(f"{expr.array!r} is not an array", expr.line)
            index, itype = self.flatten(expr.index)
            if itype != INT:
                raise LoweringError("array index must be an int", expr.line)
            kind, operands, vtype = ArrayRead, (Var(expr.array), index), INT
        elif isinstance(expr, nodes.AllocExpr):
            size, stype = self.flatten(expr.size)
            if stype != INT:
                raise LoweringError("alloc size must be an int", expr.line)
            kind, operands, vtype = ArrayAlloc, (size,), REF
        else:
            kind, operands, vtype = ReadInput, (), INT
        if target is None:
            target = self.new_temp(vtype)
        if line is None:
            line = expr.line
        self.emit(kind(self.new_stmt_id(line), target, *operands), line)
        return Var(target), vtype

    def call_operands(self, expr: nodes.CallExpr) -> tuple[tuple, object]:
        """Check a call and flatten its arguments; returns the `Call`
        operands (callee name, callee reference, arguments) and the callee's
        return type."""
        callee_name = None
        callee_ref = None
        if expr.callee in self.env:
            sig = self.env[expr.callee]
            if not isinstance(sig, FnType):
                raise LoweringError(
                    f"{expr.callee!r} is not callable", expr.line
                )
            callee_ref = expr.callee
        elif expr.callee in self.signatures:
            sig = self.signatures[expr.callee]
            callee_name = expr.callee
        else:
            raise LoweringError(f"call to unknown function {expr.callee!r}", expr.line)
        if len(expr.args) != len(sig.params):
            raise LoweringError(
                f"{expr.callee!r} expects {len(sig.params)} arguments, "
                f"got {len(expr.args)}",
                expr.line,
            )
        args = []
        for arg, expected in zip(expr.args, sig.params):
            value, vtype = self.flatten(arg)
            if vtype != expected:
                raise LoweringError(
                    f"argument of type {vtype} where {expected} expected", expr.line
                )
            args.append(value)
        return (callee_name, callee_ref, tuple(args)), sig.ret

    # --- statement lowering ---

    def lower_body(self, body) -> None:
        for stmt in body:
            if self.current.terminator is not None:
                break  # code after return is unreachable; drop it
            self.lower_statement(stmt)

    def lower_statement(self, stmt) -> None:
        if isinstance(stmt, nodes.Let) or isinstance(stmt, nodes.AssignStmt):
            declared = (
                stmt.type if isinstance(stmt, nodes.Let)
                else self.type_of_var(stmt.name, stmt.line)
            )
            # an impure right-hand side is stored straight into the variable
            stored = isinstance(stmt.value, IMPURE)
            if stored:
                value, vtype = self.store(stmt.value, stmt.name, stmt.line)
            else:
                value, vtype = self.flatten(stmt.value)
            # nil is the null value for arrays and function references alike
            nil_as_fn = isinstance(value, NilConst) and isinstance(declared, FnType)
            if vtype != declared and not nil_as_fn:
                raise LoweringError(
                    f"cannot assign {vtype} to {stmt.name!r} of type {declared}",
                    stmt.line,
                )
            if not stored:
                self.emit(Assign(self.new_stmt_id(stmt.line), stmt.name, value), stmt.line)
            return
        if isinstance(stmt, nodes.ArrayWriteStmt):
            if self.type_of_var(stmt.array, stmt.line) != REF:
                raise LoweringError(f"{stmt.array!r} is not an array", stmt.line)
            index, itype = self.flatten(stmt.index)
            if itype != INT:
                raise LoweringError("array index must be an int", stmt.line)
            value, vtype = self.flatten(stmt.value)
            if vtype != INT:
                raise LoweringError("array cells hold ints", stmt.line)
            self.emit(
                ArrayWrite(self.new_stmt_id(stmt.line), Var(stmt.array), index, value),
                stmt.line,
            )
            return
        if isinstance(stmt, nodes.PrintStmt):
            value, vtype = self.flatten(stmt.value)
            if vtype not in (INT, BOOL):
                raise LoweringError("print takes an int or bool", stmt.line)
            self.emit(Print(self.new_stmt_id(stmt.line), value), stmt.line)
            return
        if isinstance(stmt, nodes.AssertStmt):
            cond, ctype = self.flatten(stmt.cond)
            if ctype != BOOL:
                raise LoweringError("assert takes a bool", stmt.line)
            self.emit(Assertion(self.new_stmt_id(stmt.line), cond), stmt.line)
            return
        if isinstance(stmt, nodes.ExprStmt):
            operands, _ = self.call_operands(stmt.call)
            line = stmt.call.line
            self.emit(Call(self.new_stmt_id(line), None, *operands), line)
            return
        if isinstance(stmt, nodes.ReturnStmt):
            self.lower_return(stmt)
            return
        if isinstance(stmt, nodes.If):
            self.lower_if(stmt)
            return
        if isinstance(stmt, nodes.While):
            self.lower_while(stmt)
            return
        raise LoweringError(f"unsupported statement {stmt!r}")

    def lower_return(self, stmt: nodes.ReturnStmt) -> None:
        ret_type = self.decl.return_type
        if stmt.value is None:
            if ret_type != UNIT:
                raise LoweringError(
                    f"{self.decl.name} must return a {ret_type}", stmt.line
                )
            self.terminate(Return(self.new_stmt_id(stmt.line), None), stmt.line)
            return
        if ret_type == UNIT:
            raise LoweringError(
                f"{self.decl.name} returns unit; no value allowed", stmt.line
            )
        value, vtype = self.flatten(stmt.value)
        if vtype != ret_type:
            raise LoweringError(
                f"return of {vtype} from function returning {ret_type}", stmt.line
            )
        self.terminate(Return(self.new_stmt_id(stmt.line), value), stmt.line)

    def condition(self, stmt, keyword: str) -> object:
        cond, ctype = self.flatten(stmt.cond, pure=True)
        if ctype != BOOL:
            raise LoweringError(f"{keyword} condition must be a bool", stmt.line)
        return cond

    def lower_if(self, stmt: nodes.If) -> None:
        cond = self.condition(stmt, "if")
        cond_block = self.condition_block(stmt.line)
        branch_id = self.new_stmt_id(stmt.line)

        then_block = self.new_block()
        self.lower_body(stmt.then_body)
        then_end = self.current

        else_block = None
        else_end = None
        if stmt.else_body is not None:
            else_block = self.new_block()
            self.lower_body(stmt.else_body)
            else_end = self.current

        join = self.new_block()
        if then_end.terminator is None:
            then_end.terminator = Jump(join.id)
        if else_block is not None:
            if else_end.terminator is None:
                else_end.terminator = Jump(join.id)
            else_target = else_block.id
        else:
            else_target = join.id
        cond_block.terminator = Branch(branch_id, cond, then_block.id, else_target)
        self.current = join

    def lower_while(self, stmt: nodes.While) -> None:
        cond = self.condition(stmt, "while")
        header = self.condition_block(stmt.line)
        branch_id = self.new_stmt_id(stmt.line)

        body = self.new_block()
        self.lower_body(stmt.body)
        if self.current.terminator is None:
            self.current.terminator = Jump(header.id)  # back edge

        after = self.new_block()
        header.terminator = Branch(branch_id, cond, body.id, after.id)
        self.current = after

    # --- finish ---

    def finish(self) -> IRFunction:
        if self.current.terminator is None:
            ret_type = self.decl.return_type
            value = default_value(ret_type)
            self.terminate(Return(self.new_stmt_id(self.decl.line), value))
        blocks = {}
        reachable = self._reachable_blocks()
        for block in self.blocks:
            if block.id not in reachable:
                continue  # empty join created for a branchless region
            blocks[block.id] = BasicBlock(
                id=block.id,
                statements=tuple(block.statements),
                terminator=block.terminator,
                line=block.line,
            )
        return IRFunction(
            id=self.decl.name,
            name=self.decl.name,
            params=self.decl.params,
            return_type=self.decl.return_type,
            blocks=blocks,
            entry_block="b0",
            declared_error_return=self._declared_error(),
            locals=dict(self.locals),
        )

    def _reachable_blocks(self) -> set[str]:
        by_id = {b.id: b for b in self.blocks}
        seen = {"b0"}
        stack = ["b0"]
        while stack:
            block = by_id[stack.pop()]
            term = block.terminator
            targets = ()
            if isinstance(term, Jump):
                targets = (term.target,)
            elif isinstance(term, Branch):
                targets = (term.then_target, term.else_target)
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def _declared_error(self):
        lit = self.decl.error_return
        if lit is None:
            return None
        if isinstance(lit, nodes.IntLit):
            value = IntConst(lit.value)
        elif isinstance(lit, nodes.BoolLit):
            value = BoolConst(lit.value)
        else:
            value = NilConst()
        expected = self.decl.return_type
        if const_type(value) != expected:
            raise LoweringError(
                f"errval literal does not match return type {expected}",
                self.decl.line,
            )
        return value


def function_signatures(tree: nodes.ProgramTree) -> dict[str, FnType]:
    return {
        decl.name: FnType(params=tuple(t for _, t in decl.params), ret=decl.return_type)
        for decl in tree.functions
    }


def build_cfg(
    decl: nodes.FuncDecl,
    signatures: dict[str, FnType] | None = None,
    path: str = "<memory>",
) -> IRFunction:
    """Build the control flow graph for one parsed function."""
    if decl.external:
        return IRFunction(
            id=decl.name,
            name=decl.name,
            params=decl.params,
            return_type=decl.return_type,
            blocks={},
            entry_block=None,
            external=True,
        )
    if signatures is None:
        signatures = function_signatures(nodes.ProgramTree((decl,)))
    builder = _FunctionBuilder(decl, signatures, path)
    builder.lower_body(decl.body)
    return builder.finish()


def lower(tree: nodes.ProgramTree) -> IRProgram:
    """Lower a parsed program: per-function CFGs, source map, entry=main."""
    if not any(decl.name == "main" for decl in tree.functions):
        raise LoweringError("program has no main function")
    signatures = function_signatures(tree)
    functions: dict[str, IRFunction] = {}
    source_map: dict[str, tuple[str, int]] = {}
    for decl in tree.functions:
        if decl.external:
            functions[decl.name] = build_cfg(decl)
            continue
        builder = _FunctionBuilder(decl, signatures, tree.path)
        builder.lower_body(decl.body)
        functions[decl.name] = builder.finish()
        source_map.update(builder.source_map)
    from ..analysis import referenced_functions

    program = IRProgram(
        functions=functions,
        entry="main",
        source_map=source_map,
        address_taken=referenced_functions(functions),
        executable=True,
    )
    validate_program(program)
    return program
