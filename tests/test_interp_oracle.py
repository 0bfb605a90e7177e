"""Differential oracle: the compiled interpreter against the tree-walker.

`run_program` must return exactly the `ExecutionResult` of
`helpers.reference_run`, field for field (steps, fault backtrace, trace and
call records included), on the corpus, every synthesized patch variant,
hand-written programs that use every operator and statement kind, and
random lowered programs, under step budgets small enough to time out at
every kind of statement and a heap budget small enough to trip `alloc`.
"""

import builtins
import random

import pytest

from pathpatch.ir import (
    BOOL,
    INT,
    REF,
    ArrayAlloc,
    ArrayRead,
    ArrayWrite,
    Assertion,
    Assign,
    BasicBlock,
    Binary,
    Branch,
    Call,
    FuncRef,
    IntConst,
    IRError,
    IRProgram,
    Jump,
    Print,
    ReadInput,
    Return,
    Unary,
    Var,
    with_returns,
)
from pathpatch.locate import candidate_locations
from pathpatch.minilang import lower, parse, run_program
from pathpatch.minilang.interp import (
    STATUS_COVERED,
    STATUS_FAULT,
    STATUS_INPUT_EXHAUSTED,
    STATUS_OK,
    STATUS_TIMEOUT,
)
from pathpatch.paths import build_program_path_graph
from pathpatch.record import replace
from pathpatch.synth import apply_patch, synthesize_patches

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import make_function, random_program_tree, reference_run

SMALL_BUDGETS = (1, 2, 3, 7, 20, 50)
RANDOM_INPUT_BUDGET = 5_000  # random inputs may loop for the default 1M steps
SMALL_HEAP = 5


def assert_same(program, values, **kw):
    expected = reference_run(program, values, **kw)
    actual = run_program(program, values, **kw)
    assert actual == expected, (values, kw)
    return actual


def random_inputs(rng, count):
    return [
        tuple(rng.randint(-5, 40) for _ in range(rng.randint(0, 10)))
        for _ in range(count)
    ]


def variants(program, vuln):
    ppg = build_program_path_graph(program, vuln)
    patches = synthesize_patches(program, candidate_locations(ppg))
    return [program] + [apply_patch(program, patch) for patch in patches]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_and_every_patch_variant_match_the_reference(name):
    program, vuln, suite = load_corpus_entry(name)
    rng = random.Random(name)
    inputs = [case.input for case in suite.cases] + [suite.exploit.input]
    statuses = set()
    for variant in variants(program, vuln):
        for i, values in enumerate(inputs):
            statuses.add(assert_same(variant, values, record_trace=i % 2 == 0).status)
        for values in rng.sample(inputs, 3) + random_inputs(rng, 6):
            statuses.add(
                assert_same(variant, values, max_steps=RANDOM_INPUT_BUDGET).status
            )
            assert_same(variant, values, max_heap_cells=SMALL_HEAP,
                        max_steps=RANDOM_INPUT_BUDGET)
            for budget in SMALL_BUDGETS:
                assert_same(variant, values, max_steps=budget, record_trace=True)
    assert STATUS_OK in statuses


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_timeout_at_every_step_of_the_exploit_matches_the_reference(name):
    """The exploit run of every variant, cut by every step budget from one
    step to its whole length, so a timeout lands on each statement, call
    and terminator of each segment the run passes: each run executes once,
    its budget ending inside a segment, and matches the reference."""
    program, vuln, suite = load_corpus_entry(name)
    values = suite.exploit.input
    for variant in variants(program, vuln):
        full = assert_same(variant, values)
        for budget in range(1, full.steps + 1):
            assert_same(variant, values, max_steps=budget, record_trace=True)


FEATURES = """
extern fn probe(x: int) -> int;

fn twice(x: int) -> int { return x + x; }
fn halve(x: int) -> int { return x / 2; }

fn apply(op: fn(int) -> int, x: int) -> int {
    let r: int = op(x);
    return r;
}

fn main() -> int {
    let a: int = read_input();
    let b: int = read_input();
    let buf: ref = alloc(4);
    let h: fn(int) -> int = &twice;
    let none: fn(int) -> int = nil;
    print(a / b);
    print(a % b);
    print(-a / 3 + (-a) % 3);
    print(a * 2 - b);
    print(a < b && !(a == b) || a >= 7);
    print(a <= b);
    print(a > b || a != b);
    print(7 / 2 + 7 % -2 - -7 / 2);
    print(probe(a));
    print(apply(h, a));
    print(apply(&halve, b));
    if (a == 5) {
        print(apply(none, a));
    }
    if (a == 6) {
        print(1 / 0);
    }
    buf[a] = b;
    print(buf[b]);
    assert(a != 3);
    let big: ref = alloc(a);
    return a;
}
"""


def test_every_operator_and_statement_kind_matches_the_reference():
    program = lower(parse(FEATURES))
    statuses = set()
    kinds = set()
    cases = [(a, b) for a in range(-2, 9) for b in range(-2, 5)] + [(1,), ()]
    for values in cases:
        for trace in (False, True):
            result = assert_same(program, values, record_trace=trace)
            statuses.add(result.status)
            kinds.add(result.fault_kind)
        for budget in SMALL_BUDGETS + (60, 70, 80):
            statuses.add(assert_same(program, values, max_steps=budget).status)
        heap = assert_same(program, values, max_heap_cells=SMALL_HEAP)
        statuses.add(heap.status)
    assert statuses == {STATUS_OK, STATUS_FAULT, STATUS_TIMEOUT, STATUS_INPUT_EXHAUSTED}
    assert {"oob", "div_zero", "nil_deref", "assert_fail"} <= kinds


def test_random_programs_match_the_reference():
    rng = random.Random(2405)
    for _ in range(120):
        program = lower(random_program_tree(rng, max_functions=4))
        assert_same(program, (), max_steps=RANDOM_INPUT_BUDGET, record_trace=True)
        for budget in SMALL_BUDGETS:
            assert_same(program, (), max_steps=budget)


def test_watched_runs_record_entries_and_stop_once_all_are_entered():
    """A watched run is the plain run plus `entered` (the watched blocks in
    its trace) unless its trace enters every watched block; then it is the
    traced run cut right after that entry, with status `covered`."""
    stopped = 0
    for name in CORPUS_NAMES:
        program, vuln, suite = load_corpus_entry(name)
        rng = random.Random(name)
        keys = sorted((fn.id, b) for fn in program.functions.values() for b in fn.blocks)
        inputs = [case.input for case in suite.cases] + [suite.exploit.input]
        for values in inputs:
            for kw in ({}, {"max_steps": rng.choice(SMALL_BUDGETS)}):
                full = run_program(program, values, record_trace=True, **kw)
                watch = frozenset(rng.sample(keys, rng.randint(1, 3)))
                # the trace index at which the run has entered every watched block
                cut, seen = None, set()
                for i, key in enumerate(full.trace):
                    if key in watch:
                        seen.add(key)
                        if seen == watch:
                            cut = i
                            break
                watched = run_program(program, values, record_trace=True, watch=watch, **kw)
                if cut is None:
                    assert watched == replace(full, entered=frozenset(full.trace) & watch)
                    assert run_program(program, values, watch=watch, **kw) == replace(
                        full, trace=None, calls=None, entered=watched.entered
                    )
                else:
                    stopped += 1
                    assert watched.status == STATUS_COVERED
                    assert watched.entered == watch
                    assert watched.trace == full.trace[: cut + 1]
    assert stopped > 0


def test_steps_count_every_statement_and_terminator():
    program = lower(parse("fn main() -> int { let x: int = 1; print(x); return x; }"))
    result = run_program(program)
    # two statements and the return
    assert result.steps == 3
    timed_out = run_program(program, max_steps=2)
    assert timed_out.status == STATUS_TIMEOUT and timed_out.steps == 3


def test_variants_compile_only_the_patched_function(monkeypatch):
    """A variant shares every unchanged function with its base program,
    and code is cached by its text, so a variant's form differs from the
    base program's only in the patched function, whose text alone is
    compiled: at most one `compile()` call per variant. (Evaluation passes
    patches as data and compiles no variant at all: see
    test_fast_form.py.)"""
    program, vuln, suite = load_corpus_entry("bmp_reader")
    for values in [case.input for case in suite.cases] + [suite.exploit.input]:
        run_program(program, values)
    (base,) = program.fast
    patched = variants(program, vuln)[1:]
    sources = []
    compile_ = builtins.compile

    def counting_compile(source, *args, **kwargs):
        sources.append(source)
        return compile_(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    for variant in patched:
        before = len(sources)
        run_program(variant, suite.exploit.input)
        (form,) = variant.fast
        fresh = [f for f, unit in form.units.items() if unit.source != base.units[f].source]
        assert len(fresh) <= 1
        assert len(sources) - before <= 1, sources[before:]


# Names generated code must keep as data: quotes, backslashes, a newline
# and `#`, and identifiers that generated code uses.
HOSTILE = (
    "env", "st", "seg", "bind", "p0", "f", "_t1", "_c0", "step0", "_div", "_aread",
    "_awrite", "_alloc", "_read", "_ir_error", "_Fault", "it's", 'say "hi"', "back\\slash",
    "two\nlines", "# not a comment", "\'\'\'\"\"\"", "x) or (1",
    "run", "L", "H", "E", "see", "g", "B", "F", "f0", "d", "b", "v0", "x0", "_mul", "_fn",
    "_print", "S", "G", "F0", "F4", "h0", "h1", "a", "len", "_deep", "_Halt", "_g", "_ret",
    "KeyError", "T", "C", "s", "_f0c0", "_h1c0", "yield", "continue",
)


def hostile_program() -> IRProgram:
    """`main` reads two inputs `a` and `b` (held in variables named
    "two\\nlines" and "_c0") and calls `callee(env, st, p0, v0)` through a
    function reference, with `v0` 1; every name and id is one of HOSTILE
    or holds quotes, a
    backslash, a newline and `#`. Faults: `b` outside 0..2 (oob
    in main), `a` outside 1..3 (oob in the callee), `b == 0` (division by
    zero in the callee), `a == 2` (assertion), `b == 2` (nil call)."""
    main_name, callee_name = "main'\"\\\n#", "callee\"'#\n\\"
    a, b, env, st, ref, result, flag, nil_ref = (
        "two\nlines", "_c0", "env", "st", "f", "_t1", "# not a comment", "seg",
    )

    def sid(fn, i):
        return f"{fn}:s{i}'\"\\\n# {HOSTILE[i % len(HOSTILE)]}"

    m = lambda i: sid(main_name, i)  # noqa: E731
    main_blocks = {
        "b0'": BasicBlock("b0'", (
            ReadInput(m(0), a),
            ReadInput(m(1), b),
            Assign(m(2), env, Binary("+", Var(a), IntConst(1))),
            ArrayAlloc(m(3), st, IntConst(3)),
            ArrayWrite(m(4), Var(st), Var(b), Var(env)),
            Assign(m(5), ref, FuncRef(callee_name)),
            Call(m(6), result, None, ref, (Var(env), Var(st), Var(b), IntConst(1))),
            Print(m(7), Binary("/", Var(result), Binary("-", Var(b), IntConst(7)))),
            Assertion(m(8), Binary("!=", Var(env), IntConst(3))),
        ), Branch(
            m(9),
            Binary("&&", Binary("<", Var(b), IntConst(2)), Unary("!", Var(flag))),
            'b"1',
            "b\n2",
        )),
        'b"1': BasicBlock('b"1', (Print(m(10), Var("it's")),), Return(m(11), Var(result))),
        "b\n2": BasicBlock("b\n2", (Call(m(12), None, None, nil_ref, ()),), Return(m(13), None)),
    }
    c = lambda i: sid(callee_name, i)  # noqa: E731
    callee_blocks = {
        "#b0": BasicBlock("#b0", (
            ArrayRead(c(0), "_aread", Var(st), Binary("-", Var(env), IntConst(2))),
            Assign(c(1), "it's", Binary("%", Var("_aread"), Var("p0"))),
            Assign(c(2), "L", Binary("*", Var("it's"), Var("v0"))),
        ), Return(c(3), Binary("*", Var("L"), IntConst(-3)))),
    }
    main = replace(
        make_function({"b": []}, entry="b", name=main_name),
        blocks=main_blocks,
        entry_block="b0'",
        locals={a: INT, b: INT, env: INT, st: REF, ref: REF, result: INT, flag: BOOL,
                nil_ref: REF, "it's": INT},
    )
    callee = replace(
        make_function({"b": []}, entry="b", name=callee_name),
        blocks=callee_blocks,
        entry_block="#b0",
        params=((env, INT), (st, REF), ("p0", INT), ("v0", INT)),
        locals={"_aread": INT, "it's": INT, "L": INT},
    )
    return IRProgram(
        functions={main_name: main, callee_name: callee}, entry=main_name, source_map={}
    )


def test_hostile_names_stay_data():
    """No name or id can change the generated code: every run, fault ids
    and backtraces included, matches the reference, traced or not, and so
    do runs with patches as data on the hostile blocks, watched runs, and
    runs whose call passes one argument too many, which run the callee in
    the generator flavour."""
    program = hostile_program()
    cases = [(x, y) for x in range(-1, 7) for y in range(-1, 4)] + [(1,), ()]
    results = []
    for values in cases:
        results.append(assert_same(program, values, record_trace=True))
        for budget in SMALL_BUDGETS:
            assert_same(program, values, max_steps=budget)
    faults = {(r.fault_kind, r.fault_stack) for r in results if r.status == STATUS_FAULT}
    assert {kind for kind, _ in faults} == {"oob", "div_zero", "nil_deref", "assert_fail"}
    # fault ids and call sites come back exactly as written, newline included
    assert any(len(stack) == 2 and "\n# " in stack[0][1] for _, stack in faults)
    assert {r.status for r in results} == {STATUS_OK, STATUS_FAULT, STATUS_INPUT_EXHAUSTED}

    main, callee = program.entry, next(f for f in program.functions if f != program.entry)
    patched = [{}, {(main, 'b"1'): IntConst(-1)}, {(callee, "#b0"): IntConst(7)}]
    watch = frozenset({(main, "b\n2"), (callee, "#b0")})
    for values, traced in zip(cases, results):
        assert run_program(program, values) == replace(traced, trace=None, calls=None)
        entered = frozenset(traced.trace) & watch
        if entered != watch:
            assert run_program(program, values, watch=watch) == replace(
                traced, trace=None, calls=None, entered=entered
            )
        for returns in patched:
            expected = reference_run(with_returns(program, returns), values)
            assert run_program(program, values, patches=returns) == expected
            assert run_program(program, values, patches=returns, record_trace=True) == (
                reference_run(with_returns(program, returns), values, record_trace=True)
            )

    (block,) = (blk for blk in program.functions[main].blocks.values() if blk.id == "b0'")
    statements = tuple(
        replace(s, args=s.args + (IntConst(9),)) if s.kind == "call" else s
        for s in block.statements
    )
    longer = replace(program, functions=dict(program.functions, **{main: replace(
        program.functions[main],
        blocks=dict(program.functions[main].blocks, **{"b0'": replace(block, statements=statements)}),
    )}))
    for values in cases:
        assert_same(longer, values, record_trace=True)
        assert_same(longer, values, max_steps=30)


def test_malformed_ir_fails_only_where_it_runs():
    # "loop" branches on an opaque condition; "lost" jumps to no block
    fn = make_function({"a": [], "loop": ["a", "a"]}, entry="a")
    blocks = dict(fn.blocks, lost=BasicBlock("lost", (), Jump("nowhere")))
    fn = replace(fn, blocks=blocks)

    def program(entry):
        return IRProgram(
            functions={"f": replace(fn, entry_block=entry)}, entry="f", source_map={}
        )

    assert_same(program("a"), (), record_trace=True)
    for entry, error in (("loop", IRError), ("lost", KeyError), ("gone", KeyError)):
        with pytest.raises(error):
            reference_run(program(entry))
        with pytest.raises(error):
            run_program(program(entry))


def test_calls_with_the_wrong_argument_count_match_the_reference():
    """Arguments bind to parameters as `zip` pairs them: an extra argument
    is dropped, and a parameter with no argument is left unbound."""
    program = lower(parse(
        "fn g(a: int, b: int) -> int { let c: int = 4; print(c); return 7; }\n"
        "fn main() -> int { let x: int = g(1, 2); print(x); return x; }\n"
    ))
    main = program.functions["main"]
    (bid, block), = ((b, blk) for b, blk in main.blocks.items() if blk.statements)
    call = next(s for s in block.statements if s.kind == "call")
    for args in ((), (IntConst(1),), (IntConst(1), IntConst(2), IntConst(3))):
        statements = tuple(replace(s, args=args) if s is call else s for s in block.statements)
        blocks = dict(main.blocks, **{bid: replace(block, statements=statements)})
        functions = dict(program.functions, main=replace(main, blocks=blocks))
        assert assert_same(replace(program, functions=functions), ()).exit_value == 7
