"""Control-flow-graph construction for the one-pass MiniLang frontend.

The parser drives one `FunctionBuilder` per function body as it reads it.
Shape rules, chosen so every conditional in the source maps 1:1 to a branch
terminator and so that condition blocks never hold statements:

  - `if` and `while` conditions must be pure expressions (no array reads,
    calls, alloc, or read_input); the condition occupies its own block
    unless the current block is still empty, in which case it is reused.
  - Impure subexpressions elsewhere are flattened into fresh temporaries
    (`$t0`, `$t1`, ...; no MiniLang name starts with `$`), evaluated left
    to right; an impure right-hand side of a `let` or assignment is stored
    straight into its variable.
  - Statements after a `return` in the same sequence are unreachable and
    dropped.
  - Locals are function-scoped and default-initialized (0 / false / nil),
    so a `let` anywhere in the body is a typed first assignment.

Lowering is deterministic: the same source always produces the same ids.
"""

from __future__ import annotations

from ..analysis import reachable
from ..ir import (
    BOOL,
    INT,
    REF,
    BasicBlock,
    BoolConst,
    FnType,
    IntConst,
    IRFunction,
    Jump,
    NilConst,
    Return,
    terminator_targets,
)


def default_value(value_type):
    if value_type == INT:
        return IntConst(0)
    if value_type == BOOL:
        return BoolConst(False)
    if value_type == REF or isinstance(value_type, FnType):
        return NilConst()
    return None


class _Block:
    """A block under construction; `finish` freezes it into a BasicBlock."""

    def __init__(self, id: str, line: int | None = None):
        self.id = id
        self.statements: list = []
        self.terminator: object | None = None
        self.line = line


class FunctionBuilder:
    """Per-function CFG construction state: blocks, ids, temporaries, and
    the source map of the statements made so far."""

    def __init__(self, name: str, path: str, locals: dict[str, object]):
        self.name = name
        self.path = path
        self.blocks: list[_Block] = []
        self.current: _Block | None = None
        self.block_count = 0
        self.stmt_count = 0
        self.temp_count = 0
        self.locals = locals
        self.source_map: dict[str, tuple[str, int]] = {}
        self.new_block()

    def new_block(self) -> _Block:
        block = _Block(id=f"b{self.block_count}")
        self.block_count += 1
        self.blocks.append(block)
        self.current = block
        return block

    def new_stmt_id(self, line: int) -> str:
        sid = f"{self.name}:s{self.stmt_count}"
        self.stmt_count += 1
        self.source_map[sid] = (self.path, line)
        return sid

    def new_temp(self, value_type) -> str:
        name = f"$t{self.temp_count}"
        self.temp_count += 1
        self.locals[name] = value_type
        return name

    def emit(self, stmt, line: int) -> None:
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

    def finish(self, params, return_type, error_return, line: int) -> IRFunction:
        """The function, with a default `return` on `line` if its last block
        runs off the end, and without the blocks no path reaches."""
        if self.current.terminator is None:
            value = default_value(return_type)
            self.terminate(Return(self.new_stmt_id(line), value))
        blocks = {}
        targets = {b.id: terminator_targets(b.terminator) for b in self.blocks}
        live = reachable(("b0",), targets.__getitem__)
        for block in self.blocks:
            if block.id not in live:
                continue  # empty join created for a branchless region
            blocks[block.id] = BasicBlock(
                id=block.id,
                statements=tuple(block.statements),
                terminator=block.terminator,
                line=block.line,
            )
        return IRFunction(
            id=self.name,
            params=params,
            return_type=return_type,
            blocks=blocks,
            entry_block="b0",
            declared_error_return=error_return,
            locals=self.locals,
        )
