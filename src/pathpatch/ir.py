"""Program intermediate representation.

A program is a set of functions; each function is a control flow graph of
basic blocks holding straight-line statements and ending in a terminator.
Every node is a `Record`, which makes it immutable after construction:
analyses and patch application always build new objects and may share
unchanged substructure. The exception is `IRProgram.fast`, the cache of
compiled forms the interpreter fills on first execution; it is an
attribute, not a field, so it is never compared, printed or copied by
`record.replace`.

Conventions:
  - `FunctionId` is the function name (parser enforces uniqueness).
  - `BlockId` is unique within a function ("b0", "b1", ... in creation order).
  - `StatementId` is globally unique ("<function>:s<n>").
  - Branch edge 0 is the taken/then edge, edge 1 the fall-through/else edge.
  - A block is *conditional* iff its terminator is a Branch. This predicate
    is the single source of truth for conditional labels everywhere.
"""

from __future__ import annotations

from types import MappingProxyType

from .record import Record, replace

FunctionId = str
BlockId = str
StatementId = str


class IRError(Exception):
    """Malformed IR detected during construction or validation."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

INT = "int"
BOOL = "bool"
REF = "ref"
UNIT = "unit"


class FnType(Record):
    """Type of a function reference value; used to resolve indirect calls."""

    params: tuple[object, ...]
    ret: object

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"fn({params}) -> {self.ret}"


# A value type is one of the primitive name strings or an FnType.
ValueType = object


# ---------------------------------------------------------------------------
# Expressions (pure: no heap access, no calls, no input)
# ---------------------------------------------------------------------------


class IntConst(Record):
    value: int


class BoolConst(Record):
    value: bool


class NilConst(Record):
    pass


class FuncRef(Record):
    """Reference to a function by name (`&name` in source)."""

    name: FunctionId


class Var(Record):
    name: str


class Unary(Record):
    op: str  # "-" | "!"
    operand: object


class Binary(Record):
    op: str  # + - * / % < <= > >= == != && ||
    left: object
    right: object


class Opaque(Record):
    """Placeholder condition for graph-imported blocks; never evaluated."""


Const = (IntConst, BoolConst, NilConst)


def const_type(value) -> str:
    if isinstance(value, IntConst):
        return INT
    if isinstance(value, BoolConst):
        return BOOL
    if isinstance(value, NilConst):
        return REF
    raise IRError(f"not a constant: {value!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Assign(Record):
    id: StatementId
    target: str
    value: object  # pure expression

    kind = "assign"


class ArrayRead(Record):
    id: StatementId
    target: str
    array: object
    index: object

    kind = "array_read"


class ArrayWrite(Record):
    id: StatementId
    array: object
    index: object
    value: object

    kind = "array_write"


class ArrayAlloc(Record):
    id: StatementId
    target: str
    size: object

    kind = "array_alloc"


class Call(Record):
    """Call statement; exactly one of callee_name / callee_ref is set.

    `callee_name` is a direct call to a named function; `callee_ref` names a
    local or parameter holding a function reference.
    """

    id: StatementId
    target: str | None
    callee_name: FunctionId | None
    callee_ref: str | None
    args: tuple[object, ...]

    kind = "call"


class Print(Record):
    id: StatementId
    value: object

    kind = "print"


class ReadInput(Record):
    id: StatementId
    target: str

    kind = "read_input"


class Assertion(Record):
    id: StatementId
    cond: object

    kind = "assertion"


class Nop(Record):
    id: StatementId

    kind = "nop"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class Jump(Record):
    target: BlockId


class Branch(Record):
    id: StatementId  # conditionals carry an id so source lines attach to them
    cond: object
    then_target: BlockId
    else_target: BlockId


class Return(Record):
    id: StatementId
    value: object | None  # None for unit functions


class Halt(Record):
    """Terminator for graph-imported sink blocks with no outgoing edge."""


def terminator_targets(term) -> tuple[BlockId, ...]:
    if isinstance(term, Jump):
        return (term.target,)
    if isinstance(term, Branch):
        return (term.then_target, term.else_target)
    return ()


# ---------------------------------------------------------------------------
# Blocks, functions, program
# ---------------------------------------------------------------------------


class BasicBlock(Record):
    id: BlockId
    statements: tuple[object, ...]
    terminator: object
    line: int | None = None  # first source line, when known

    @property
    def is_conditional(self) -> bool:
        return isinstance(self.terminator, Branch)

    @property
    def successors(self) -> tuple[BlockId, ...]:
        return terminator_targets(self.terminator)


class IRFunction(Record):
    id: FunctionId
    params: tuple[tuple[str, ValueType], ...]
    return_type: ValueType
    blocks: dict[BlockId, BasicBlock]
    entry_block: BlockId | None
    declared_error_return: object | None = None
    locals: dict[str, ValueType] = MappingProxyType({})  # a shared default: read-only
    external: bool = False

    def block(self, block_id: BlockId) -> BasicBlock:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise IRError(f"no block {block_id!r} in function {self.id}") from None


class IRProgram(Record):
    functions: dict[FunctionId, IRFunction]
    entry: FunctionId
    source_map: dict[StatementId, tuple[str, int]]
    executable: bool = True  # graph-imported programs are analyzable only

    # not a field: the interpreter's compiled forms, each compiled on first
    # use with the guards a run asked for and traced or not, see
    # minilang.interp
    fast = ()

    def function(self, fn_id: FunctionId) -> IRFunction:
        try:
            return self.functions[fn_id]
        except KeyError:
            raise IRError(f"no function {fn_id!r}") from None

    def statement_index(self) -> dict[StatementId, tuple[FunctionId, BlockId]]:
        """Map every statement id (including branch/return ids) to its block."""
        index: dict[StatementId, tuple[FunctionId, BlockId]] = {}
        for fn in self.functions.values():
            for blk in fn.blocks.values():
                for stmt in blk.statements:
                    index[stmt.id] = (fn.id, blk.id)
                term = blk.terminator
                if isinstance(term, (Branch, Return)):
                    index[term.id] = (fn.id, blk.id)
        return index


def with_returns(program: IRProgram, returns) -> IRProgram:
    """`program` with each block in `returns`, a map from `(function,
    block)` to a value (an IR constant, or None for a bare return),
    replaced by a block that only returns that value; the return's id is
    `<function>:<block>:patch`. Unchanged functions and blocks are shared
    with `program`. Raises IRError for a block `program` does not have."""
    functions = dict(program.functions)
    for (fn_id, block_id), value in returns.items():
        fn = functions.get(fn_id)
        if fn is None or block_id not in fn.blocks:
            raise IRError(f"no block {block_id!r} in function {fn_id!r}")
        blocks = dict(fn.blocks)
        blocks[block_id] = BasicBlock(
            id=block_id,
            statements=(),
            terminator=Return(f"{fn_id}:{block_id}:patch", value),
            line=fn.blocks[block_id].line,
        )
        functions[fn_id] = replace(fn, blocks=blocks)
    return replace(program, functions=functions)


def block_sort_key(block_id: BlockId) -> tuple[int, str]:
    """Natural order for block ids: "b2" < "b10", and stable for opaque ids."""
    return (len(block_id), block_id)


def validate_program(program: IRProgram) -> None:
    """Check the structural invariants; raise IRError on the first violation."""
    if program.entry not in program.functions:
        raise IRError(f"entry function {program.entry!r} is not defined")
    seen_statements: set[StatementId] = set()
    for fn in program.functions.values():
        params: set[str] = set()
        for name, _ in fn.params:
            if name in params:
                raise IRError(f"{fn.id}: parameter {name!r} declared twice")
            params.add(name)
        if fn.external:
            if fn.blocks:
                raise IRError(f"external function {fn.id} must not have blocks")
            continue
        if fn.entry_block not in fn.blocks:
            raise IRError(f"{fn.id}: entry block {fn.entry_block!r} missing")
        for blk in fn.blocks.values():
            # conditional <=> out-degree 2 is structural: only Branch has 2 targets
            assert blk.is_conditional == (len(blk.successors) == 2)
            for target in blk.successors:
                if target not in fn.blocks:
                    raise IRError(
                        f"{fn.id}:{blk.id}: terminator targets unknown block {target!r}"
                    )
            for stmt in blk.statements:
                if stmt.id in seen_statements:
                    raise IRError(f"duplicate statement id {stmt.id!r}")
                seen_statements.add(stmt.id)
                if stmt.kind == "call":
                    if stmt.callee_name is not None:
                        callee = program.functions.get(stmt.callee_name)
                        if callee is None:
                            raise IRError(
                                f"{fn.id}:{blk.id}: call to undeclared "
                                f"function {stmt.callee_name!r}"
                            )
