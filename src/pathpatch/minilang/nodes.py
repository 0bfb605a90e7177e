"""Syntax tree for MiniLang, the small imperative language the tool executes.

The parser produces these nodes; lowering turns them into the flat IR.
Every node carries the 1-based source line it came from.
"""

from __future__ import annotations

from ..record import Record


class FrontendError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)


class ParseError(FrontendError):
    pass


class LoweringError(FrontendError):
    pass


# --- expressions -----------------------------------------------------------


class IntLit(Record):
    value: int
    line: int


class BoolLit(Record):
    value: bool
    line: int


class NilLit(Record):
    line: int


class Name(Record):
    name: str
    line: int


class FuncRefExpr(Record):
    name: str
    line: int


class UnaryOp(Record):
    op: str
    operand: object
    line: int


class BinOp(Record):
    op: str
    left: object
    right: object
    line: int


class IndexExpr(Record):
    array: str
    index: object
    line: int


class CallExpr(Record):
    callee: str
    args: tuple[object, ...]
    line: int


class AllocExpr(Record):
    size: object
    line: int


class ReadInputExpr(Record):
    line: int


# --- statements -------------------------------------------------------------


class Let(Record):
    name: str
    type: object
    value: object
    line: int


class AssignStmt(Record):
    name: str
    value: object
    line: int


class ArrayWriteStmt(Record):
    array: str
    index: object
    value: object
    line: int


class If(Record):
    cond: object
    then_body: tuple[object, ...]
    else_body: tuple[object, ...] | None
    line: int


class While(Record):
    cond: object
    body: tuple[object, ...]
    line: int


class ReturnStmt(Record):
    value: object | None
    line: int


class PrintStmt(Record):
    value: object
    line: int


class AssertStmt(Record):
    cond: object
    line: int


class ExprStmt(Record):
    call: CallExpr
    line: int


# --- declarations ------------------------------------------------------------


class FuncDecl(Record):
    name: str
    params: tuple[tuple[str, object], ...]
    return_type: object
    body: tuple[object, ...]
    line: int
    error_return: object | None = None  # literal node, when annotated
    external: bool = False


class ProgramTree(Record):
    functions: tuple[FuncDecl, ...]
    path: str = "<memory>"
