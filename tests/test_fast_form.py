"""Differential oracle for the interpreter's fast form and patches as data.

Every run here passes its patch as data (`run_program(patches=...)`) on
the base program, and its result must equal, field for field (steps, fault
backtrace and `entered` included), what `helpers.reference_run` returns on
that patch's `apply_patch` variant. The checked form is replaced by one
that raises, so each result below came from the fast form; only a run
that the reference times out on the step budget may bail. Separate tests
show the bails: recursion past the depth bound, a call with the wrong
number of arguments, and malformed IR.
"""

import builtins
import random

import pytest

from pathpatch import harness, synth
from pathpatch.checks import fuzz_vulnerability
from pathpatch.harness import evaluate_patches
from pathpatch.ir import (
    INT,
    Assign,
    BasicBlock,
    Binary,
    Branch,
    IntConst,
    IRError,
    IRFunction,
    IRProgram,
    Jump,
    Print,
    Return,
    Var,
    with_returns,
)
from pathpatch.locate import CandidatePatchLocation, candidate_locations
from pathpatch.minilang import interp, lower, parse, run_program
from pathpatch.minilang.interp import (
    STATUS_COVERED,
    STATUS_FAULT,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionResult,
)
from pathpatch.paths import build_program_path_graph
from pathpatch.record import replace
from pathpatch.synth import patch_returns, synthesize_patch, synthesize_patches

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import SQUARING, random_program_tree, reference_run

RANDOM_INPUT_BUDGET = 5_000
SMALL_HEAP = 5
# below 2 * 201 steps no run can nest 201 calls, so no depth bail
SHALLOW_BUDGET = 400


class Bailed(Exception):
    pass


@pytest.fixture
def fast_only(monkeypatch):
    """The checked form raises `Bailed`: a result is the fast form's."""

    def refuse(*args, **kwargs):
        raise Bailed

    monkeypatch.setattr(interp, "_run_checked", refuse)


@pytest.fixture
def checked_runs(monkeypatch):
    """Counts the runs that bail to the checked form."""
    runs = []
    checked = interp._run_checked

    def counting(*args, **kwargs):
        runs.append(args)
        return checked(*args, **kwargs)

    monkeypatch.setattr(interp, "_run_checked", counting)
    return runs


def reference_watched(program, values, watch, **kw) -> ExecutionResult:
    """What a run with `watch` returns, from the reference interpreter:
    the plain run with the watched blocks its trace entered or, once the
    trace has entered them all, the run stopped at that entry, with status
    covered. That stop is where the least step budget that still makes the
    entry ends."""
    traced = reference_run(program, values, record_trace=True, **kw)
    seen = set()
    for cut, key in enumerate(traced.trace):
        if key in watch:
            seen.add(key)
            if seen == watch:
                break
    else:
        return replace(traced, trace=None, calls=None, entered=frozenset(seen))
    low, high = 0, traced.steps  # the least budget whose trace reaches `cut`
    while low < high:
        mid = (low + high) // 2
        cut_run = reference_run(program, values, record_trace=True, **dict(kw, max_steps=mid))
        if len(cut_run.trace) > cut:
            high = mid
        else:
            low = mid + 1
    stopped = reference_run(program, values, **dict(kw, max_steps=low))
    return ExecutionResult(STATUS_COVERED, output=stopped.output, steps=low, entered=watch)


def assert_fast(program, patches, values, watch=None, **kw):
    """The run of `program` with `patches` (Patch records) passed as data
    equals the reference run of their `apply_patch` variant; returns it,
    or None for a run that bailed because it ran out of steps."""
    variant = synth.apply_patches(program, patches)
    if watch is None:
        expected = reference_run(variant, values, **kw)
    else:
        expected = reference_watched(variant, values, watch, **kw)
    try:
        actual = run_program(
            program, values, watch=watch, patches=patch_returns(program, patches), **kw
        )
    except Bailed:
        assert expected.status == STATUS_TIMEOUT, (values, kw, expected)
        assert expected.steps > kw.get("max_steps", interp.DEFAULT_MAX_STEPS), expected
        return None
    assert actual == expected, (values, kw)
    return actual


def random_inputs(rng, count):
    return [
        tuple(rng.randint(-5, 40) for _ in range(rng.randint(0, 10)))
        for _ in range(count)
    ]


def candidate_patches(program, vuln):
    return synthesize_patches(program, candidate_locations(build_program_path_graph(program, vuln)))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_patch_as_data_matches_its_variant_on_the_reference(fast_only, name):
    program, vuln, suite = load_corpus_entry(name)
    patches = candidate_patches(program, vuln)
    keys = frozenset((p.location.function, p.location.block) for p in patches)
    rng = random.Random(name)
    inputs = [case.input for case in suite.cases] + [suite.exploit.input]
    statuses = set()
    for values in inputs + random_inputs(rng, 6):
        for patch in [None] + patches:
            applied = [] if patch is None else [patch]
            for kw in ({}, {"max_steps": RANDOM_INPUT_BUDGET},
                       {"max_heap_cells": SMALL_HEAP, "max_steps": RANDOM_INPUT_BUDGET}):
                result = assert_fast(program, applied, values, **kw)
                statuses.add(None if result is None else result.status)
            statuses.add(assert_fast(program, applied, values, watch=keys).status)
        # fuzzing's run: every candidate patched at once
        assert_fast(program, patches, values, max_steps=RANDOM_INPUT_BUDGET)
    assert {STATUS_OK, STATUS_FAULT} <= statuses


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_watched_subsets_match_the_reference(fast_only, name):
    """Probes watch every candidate; other watch sets, including blocks
    that are no candidate and keys of no block, behave the same."""
    program, vuln, suite = load_corpus_entry(name)
    rng = random.Random(name)
    keys = sorted((fn.id, b) for fn in program.functions.values() for b in fn.blocks)
    statuses = set()
    for values in [case.input for case in suite.cases] + [suite.exploit.input]:
        watch = frozenset(rng.sample(keys, rng.randint(1, 3)))
        statuses.add(assert_fast(program, [], values, watch=watch).status)
        assert_fast(program, [], values, watch=watch | {("main", "no such block")})
    assert STATUS_COVERED in statuses


def test_random_programs_with_patches_as_data_match_the_reference(fast_only):
    rng = random.Random(2411)
    for _ in range(120):
        program = lower(random_program_tree(rng, max_functions=4))
        blocks = sorted((fn.id, b) for fn in program.functions.values() for b in fn.blocks)
        chosen = rng.sample(blocks, min(3, len(blocks)))
        patches = [
            synthesize_patch(program, CandidatePatchLocation(f, b, "", 0, 0)) for f, b in chosen
        ]
        watch = frozenset(chosen)
        for applied in [[]] + [[p] for p in patches] + [patches]:
            for budget in (SHALLOW_BUDGET, 50, 7):
                assert_fast(program, applied, (), max_steps=budget)
            assert_fast(program, applied, (), watch=watch, max_steps=SHALLOW_BUDGET)


def test_a_loop_back_to_the_entry_block_matches_the_reference(fast_only):
    """The fast form runs the entry block before its dispatch loop only
    when no block jumps to it; here a branch and a jump both do."""
    x = Var("x")
    blocks = {
        "top": BasicBlock("top", (Assign("s0", "x", Binary("+", x, IntConst(1))),), Branch(
            "br", Binary("<", x, IntConst(2)), "top", "again"
        )),
        "again": BasicBlock("again", (Print("s1", x),), Branch(
            "br2", Binary("<", x, IntConst(5)), "more", "out"
        )),
        "more": BasicBlock("more", (), Jump("top")),
        "out": BasicBlock("out", (), Return("ret", x)),
    }
    main = IRFunction("main", "main", (), INT, blocks, "top", locals={"x": INT})
    program = IRProgram(functions={"main": main}, entry="main", source_map={})
    for patches in ({}, {("main", "again"): IntConst(-1)}, {("main", "top"): IntConst(-2)}):
        expected = reference_run(with_returns(program, patches), ())
        assert run_program(program, (), patches=patches) == expected
    watch = frozenset({("main", "again"), ("main", "out")})
    assert run_program(program, (), watch=watch).status == STATUS_COVERED
    assert reference_run(program, ()).output == (2, 3, 4, 5)


def test_a_patch_of_no_block_is_an_ir_error():
    program, vuln, suite = load_corpus_entry("twopath")
    with pytest.raises(IRError):
        run_program(program, (1,), patches={("main", "no such block"): IntConst(-1)})


def test_a_squaring_loop_times_out_at_the_product():
    """Past 2**4096 a product of two variables ends the run, with status
    timeout, far inside the step budget: in both forms and in the
    reference alike."""
    program = lower(parse(SQUARING))
    for values in ((3, 1), (-3, 1), (2**3000, 0)):
        expected = reference_run(program, values)
        assert expected.status == STATUS_TIMEOUT and expected.steps < 300
        assert run_program(program, values) == expected
        traced = run_program(program, values, record_trace=True)
        assert replace(traced, trace=None, calls=None) == expected
    assert run_program(program, (1, 2)).output == (0,)
    assert run_program(program, (0, 9)).status == STATUS_FAULT


# --- bails -------------------------------------------------------------------

DEEP = """fn down(n: int) -> int {
    if (n > 0) {
        return down(n - 1) + 1;
    }
    return 0;
}
fn main() -> int {
    let n: int = read_input();
    let r: int = down(n);
    print(r);
    return 0;
}
"""


def test_recursion_past_the_depth_bound_bails_and_matches(checked_runs):
    program = lower(parse(DEEP))
    for n, bails in ((150, False), (interp._MAX_DEPTH + 5, True), (900, True)):
        assert run_program(program, (n,)) == reference_run(program, (n,))
        assert run_program(program, (n,)).output == (n,)
        assert bool(checked_runs) == bails
        checked_runs.clear()


def test_a_call_with_the_wrong_argument_count_bails_and_matches(checked_runs):
    program = lower(parse(
        "fn g(a: int, b: int) -> int { let c: int = 4; print(c); return 7; }\n"
        "fn main() -> int { let x: int = g(1, 2); print(x); return x; }\n"
    ))
    main = program.functions["main"]
    (bid, block), = ((b, blk) for b, blk in main.blocks.items() if blk.statements)
    call = next(s for s in block.statements if s.kind == "call")
    statements = tuple(
        replace(s, args=(IntConst(1),)) if s is call else s for s in block.statements
    )
    functions = dict(program.functions, main=replace(
        main, blocks=dict(main.blocks, **{bid: replace(block, statements=statements)})
    ))
    short = replace(program, functions=functions)
    assert run_program(short, ()) == reference_run(short, ())
    assert len(checked_runs) == 1


def test_malformed_ir_bails_to_the_checked_form(checked_runs):
    program = lower(parse("fn main() -> int { let x: int = 1; return x; }"))
    main = program.functions["main"]
    broken = replace(program, functions={"main": replace(main, entry_block="gone")})
    with pytest.raises(KeyError):
        run_program(broken, ())
    assert len(checked_runs) == 1


# --- compile count -------------------------------------------------------------


def test_evaluation_and_fuzz_compile_only_the_probes_form(fast_only, monkeypatch):
    """On bmp_reader, the first probe compiles the one fast form, one
    `compile()` call per function; the other probes, every patched run
    and fuzzing the fully patched program then call `compile()` no more,
    and no patched variant is built."""
    program, vuln, suite = load_corpus_entry("bmp_reader")
    patches = candidate_patches(program, vuln)
    sources = []
    compile_ = builtins.compile

    def counting_compile(source, *args, **kwargs):
        sources.append(source)
        return compile_(source, *args, **kwargs)

    after_probe = []
    probe = harness._probe

    def counting_probe(*args, **kwargs):
        result = probe(*args, **kwargs)
        after_probe.append(len(sources))
        return result

    def refuse(*args, **kwargs):
        raise AssertionError("a patched variant was built")

    monkeypatch.setattr(interp, "_CODE", {})
    monkeypatch.setattr(builtins, "compile", counting_compile)
    monkeypatch.setattr(harness, "_probe", counting_probe)
    monkeypatch.setattr(synth, "apply_patch", refuse)
    monkeypatch.setattr(interp, "with_returns", refuse)
    evaluations = evaluate_patches(program, patches, suite)
    compiled = len(program.functions)
    assert after_probe == [compiled] * (len(suite.cases) + 1)
    runs, hits = fuzz_vulnerability(
        program, vuln.statement, runs=200, patches=patch_returns(program, patches)
    )
    assert (runs, hits) == (200, 0)
    assert len(sources) == compiled
    assert all(ev.error is None for ev in evaluations)
    assert len(program.fast) == 1
