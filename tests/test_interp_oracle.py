"""Differential oracle: the compiled interpreter against the tree-walker.

`run_program` must return exactly the `ExecutionResult` of
`helpers.reference_run`, field for field (steps, fault backtrace, trace and
call records included), on the corpus, every synthesized patch variant,
hand-written programs that use every operator and statement kind, and
random lowered programs, under step budgets small enough to time out at
every kind of statement and a heap budget small enough to trip `alloc`.
"""

import random
from dataclasses import replace

import pytest

from pathpatch.ir import BasicBlock, IRError, IRProgram, Jump
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


def test_variants_compile_only_the_patched_function():
    program, vuln, suite = load_corpus_entry("bmp_reader")
    for case in suite.cases:
        run_program(program, case.input)
    compiled = {fn_id: fn.compiled for fn_id, fn in program.functions.items()}
    for variant in variants(program, vuln)[1:]:
        run_program(variant, suite.exploit.input)
        fresh = [
            fn_id
            for fn_id, fn in variant.functions.items()
            if fn.compiled is not None and fn.compiled is not compiled[fn_id]
        ]
        assert len(fresh) <= 1


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
