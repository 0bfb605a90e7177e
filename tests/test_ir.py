"""CFG construction shapes and core IR invariants."""

import pytest

from pathpatch.ir import Branch, IRError, Return, validate_program
from pathpatch.minilang import parse

from helpers import make_function


def lower_single(source: str):
    """The CFG of `source`'s one function `f`, lowered beside a stub `main`."""
    return parse(source + " fn main() -> int { return 0; }").functions["f"]


def test_straight_line_body_is_one_block():
    fn = lower_single("fn f() -> int { let a: int = 1; let b: int = 2; let c: int = a + b; return c; }")
    assert len(fn.blocks) == 1
    block = fn.blocks[fn.entry_block]
    assert [s.kind for s in block.statements] == ["assign", "assign", "assign"]
    assert isinstance(block.terminator, Return)


def test_if_else_is_a_four_block_diamond():
    fn = lower_single(
        "fn f(c: bool) -> int { if (c) { let a: int = 1; } else { let b: int = 2; } return 0; }"
    )
    assert len(fn.blocks) == 4
    entry = fn.blocks[fn.entry_block]
    assert isinstance(entry.terminator, Branch)
    then_id, else_id = entry.successors
    join_then = fn.blocks[then_id].successors
    join_else = fn.blocks[else_id].successors
    assert join_then == join_else
    assert isinstance(fn.blocks[join_then[0]].terminator, Return)


def test_conditional_predicate_matches_out_degree():
    sources = [
        "fn f(c: bool) -> int { if (c) { return 1; } return 0; }",
        "fn f(c: bool) -> int { let x: int = 0; while (x < 3) { x = x + 1; } return x; }",
        "fn f(c: bool) -> int { if (c) { if (c) { return 2; } } return 0; }",
    ]
    for source in sources:
        fn = lower_single(source)
        for block in fn.blocks.values():
            assert block.is_conditional == (len(block.successors) == 2)
            assert block.is_conditional == isinstance(block.terminator, Branch)


def test_condition_blocks_hold_no_statements():
    fn = lower_single(
        "fn f(c: bool) -> int { let x: int = 1; if (c) { x = 2; } while (x < 9) { x = x + 1; } return x; }"
    )
    for block in fn.blocks.values():
        if block.is_conditional:
            assert block.statements == ()


def test_while_creates_back_edge_to_header():
    fn = lower_single(
        "fn f() -> int { let x: int = 0; while (x < 3) { x = x + 1; } return x; }"
    )
    headers = [b for b in fn.blocks.values() if b.is_conditional]
    assert len(headers) == 1
    header = headers[0]
    body_id = header.terminator.then_target
    assert fn.blocks[body_id].successors == (header.id,)


def test_rebuild_is_deterministic():
    source = (
        "fn f(c: bool) -> int { let x: int = 0; if (c) { x = 1; } else { x = 2; }"
        " while (x < 5) { x = x + 1; } return x; }"
    )
    fn1, fn2 = lower_single(source), lower_single(source)
    assert fn1 == fn2
    assert repr(fn1) == repr(fn2)


def test_statements_after_return_are_dropped():
    fn = lower_single("fn f() -> int { return 1; let x: int = 2; }")
    assert len(fn.blocks) == 1
    assert fn.blocks[fn.entry_block].statements == ()
    # a `let` after the `return` still declares its local
    assert dict(fn.locals) == {"x": "int"}


def test_dead_branch_blocks_are_pruned():
    fn = lower_single(
        "fn f(c: bool) -> int { if (c) { return 1; } else { return 2; } }"
    )
    # then, else, cond: the join is unreachable and must not survive
    assert len(fn.blocks) == 3
    validate_program_ok(fn)


def validate_program_ok(fn):
    from pathpatch.ir import IRProgram

    program = IRProgram(functions={fn.id: fn}, entry=fn.id, source_map={})
    validate_program(program)


def test_validate_rejects_dangling_terminator_target():
    fn = make_function({"a": ["b"], "b": []}, entry="a")
    broken = make_function({"a": ["zzz"], "zzz": []}, entry="a")
    blocks = dict(broken.blocks)
    del blocks["zzz"]
    from pathpatch.record import replace

    from pathpatch.ir import IRProgram

    bad = replace(broken, blocks=blocks)
    with pytest.raises(IRError, match="unknown block"):
        validate_program(IRProgram(functions={"f": bad}, entry="f", source_map={}))
    validate_program(IRProgram(functions={"f": fn}, entry="f", source_map={}))


def test_validate_rejects_duplicate_statement_ids():
    from pathpatch.record import replace

    from pathpatch.ir import IRProgram, Nop

    fn = make_function({"a": ["b"], "b": []}, entry="a")
    blocks = dict(fn.blocks)
    blocks["a"] = replace(blocks["a"], statements=(Nop(id="dup"),))
    blocks["b"] = replace(blocks["b"], statements=(Nop(id="dup"),))
    bad = replace(fn, blocks=blocks)
    with pytest.raises(IRError, match="duplicate statement id"):
        validate_program(IRProgram(functions={"f": bad}, entry="f", source_map={}))


def test_bmp_reader_conditional_lines(corpus_dir):
    program = parse((corpus_dir / "bmp_reader.mini").read_text(), path="bmp_reader.mini")
    fn = program.functions["read_image"]
    conditional_lines = sorted(
        blk.line for blk in fn.blocks.values() if blk.is_conditional
    )
    assert conditional_lines == [4, 11, 12, 15]
