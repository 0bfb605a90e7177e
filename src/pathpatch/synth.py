"""Error-return inference and patch construction.

A patch is a single `return <error value>;` placed at a candidate location:
the block's statements are dropped and its terminator becomes the return,
so entering the block immediately leaves the function through its normal
error convention. The error value for a function comes from, in order:

  1. an explicit `errval` annotation on the function;
  2. constants returned by blocks that are control-dependent on some
     conditional (existing early error exits); the most frequent constant
     wins, ties broken by the smallest value;
  3. the type default: -1 for int, false for bool, nil for ref, a bare
     return for unit.

Mining is intraprocedural only; the provenance field records which rule
fired so downstream consumers can audit the choice.
"""

from __future__ import annotations

from .analysis import compute_control_dependencies
from .ir import (
    BOOL,
    INT,
    REF,
    UNIT,
    BasicBlock,
    BoolConst,
    Const,
    IntConst,
    IRError,
    IRFunction,
    IRProgram,
    NilConst,
    Return,
    const_type,
)
from .locate import CandidatePatchLocation
from .record import Record, replace

PROVENANCE_ANNOTATION = "annotation"
PROVENANCE_MINED = "mined_from_error_path"
PROVENANCE_DEFAULT = "type_default"


class PatchError(IRError):
    pass


class ErrorReturnValue(Record):
    value: object | None  # IntConst | BoolConst | NilConst | None for unit
    provenance: str

    @property
    def value_type(self):
        if self.value is None:
            return UNIT
        return const_type(self.value)


class Patch(Record):
    id: str
    location: CandidatePatchLocation
    errval: ErrorReturnValue
    line: int | None = None  # source line of the patched block, when known


def _const_order(value) -> tuple:
    if isinstance(value, IntConst):
        return (0, value.value)
    if isinstance(value, BoolConst):
        return (0, int(value.value))
    return (0, 0)  # nil: only one constant of its type


def infer_error_return(fn: IRFunction) -> ErrorReturnValue:
    if fn.declared_error_return is not None:
        return ErrorReturnValue(fn.declared_error_return, PROVENANCE_ANNOTATION)

    if not fn.external:
        governed = {dep.governed for dep in compute_control_dependencies(fn).deps}
        counts: dict[object, int] = {}
        for bid, blk in fn.blocks.items():
            term = blk.terminator
            if not isinstance(term, Return) or bid not in governed:
                continue
            if isinstance(term.value, Const):
                counts[term.value] = counts.get(term.value, 0) + 1
        if counts:
            best = min(counts.items(), key=lambda kv: (-kv[1], _const_order(kv[0])))
            return ErrorReturnValue(best[0], PROVENANCE_MINED)

    defaults = {INT: IntConst(-1), BOOL: BoolConst(False), REF: NilConst(), UNIT: None}
    if fn.return_type not in defaults:
        raise PatchError(f"{fn.id} returns {fn.return_type}; no error value defaults")
    return ErrorReturnValue(defaults[fn.return_type], PROVENANCE_DEFAULT)


def synthesize_patch(
    program: IRProgram,
    location: CandidatePatchLocation,
    errval: ErrorReturnValue | None = None,
) -> Patch:
    """Build the patch record for one location; checks the value's type."""
    fn = program.function(location.function)
    block = fn.block(location.block)
    if errval is None:
        errval = infer_error_return(fn)
    if errval.value_type != fn.return_type:
        raise PatchError(
            f"error value of type {errval.value_type} does not match "
            f"{fn.id}'s return type {fn.return_type}"
        )
    return Patch(
        id=f"{location.function}:{location.block}",
        location=location,
        errval=errval,
        line=block.line,
    )


def synthesize_patches(
    program: IRProgram, locations: list[CandidatePatchLocation]
) -> list[Patch]:
    """One patch per candidate location, reusing each function's error value."""
    cache: dict[str, ErrorReturnValue] = {}
    patches = []
    for location in locations:
        if location.function not in cache:
            cache[location.function] = infer_error_return(
                program.function(location.function)
            )
        patches.append(synthesize_patch(program, location, cache[location.function]))
    return patches


def apply_patch(program: IRProgram, patch: Patch) -> IRProgram:
    """A new program with the patched block replaced by the error return.

    The input program is never modified; unchanged functions and blocks are
    shared between the two programs.
    """
    loc = patch.location
    fn = program.functions.get(loc.function)
    if fn is None or loc.block not in fn.blocks:
        raise PatchError(
            f"patch {patch.id} no longer applies: {loc.function}:{loc.block} missing"
        )
    stmt_id = f"{loc.function}:{loc.block}:patch"
    patched_block = BasicBlock(
        id=loc.block,
        statements=(),
        terminator=Return(stmt_id, patch.errval.value),
        line=fn.blocks[loc.block].line,
    )
    blocks = dict(fn.blocks)
    blocks[loc.block] = patched_block
    functions = dict(program.functions)
    functions[loc.function] = replace(fn, blocks=blocks)
    source_map = dict(program.source_map)
    if patch.line is not None:
        path = next(iter(source_map.values()))[0] if source_map else "<patched>"
        source_map[stmt_id] = (path, patch.line)
    return replace(program, functions=functions, source_map=source_map)


def apply_patches(program: IRProgram, patches: list[Patch]) -> IRProgram:
    for patch in patches:
        program = apply_patch(program, patch)
    return program
