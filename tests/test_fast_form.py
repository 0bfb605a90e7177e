"""Differential oracle for the interpreter's compiled form and patches as
data.

Every run here passes its patch as data (`run_program(patches=...)`) on
the base program, and its result must equal, field for field (steps, fault
backtrace and `entered` included), what `helpers.reference_run` returns on
that patch's `apply_patch` variant. There is one form and no fallback: a
run that times out on the step budget inside a segment, or nests calls
past the depth bound, gets its result in that form, exactly as
the reference does. IR that `parse` cannot produce is an `IRError` when
the form is built, before any step.
"""

import builtins
import cProfile
import random
import signal
import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from pathpatch import harness, synth
from pathpatch.checks import fuzz_vulnerability
from pathpatch.harness import evaluate_patches, parse_suite
from pathpatch.ir import (
    INT,
    Assign,
    BasicBlock,
    Binary,
    Branch,
    Halt,
    IntConst,
    IRError,
    IRFunction,
    IRProgram,
    Jump,
    Opaque,
    Print,
    Return,
    Var,
    with_returns,
)
from pathpatch.locate import CandidatePatchLocation, candidate_locations
from pathpatch.minilang import interp, parse, run_program
from pathpatch.minilang.interp import (
    STATUS_COVERED,
    STATUS_FAULT,
    STATUS_INPUT_EXHAUSTED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionResult,
)
from pathpatch.paths import build_program_path_graph
from pathpatch.record import replace
from pathpatch.synth import patch_returns, synthesize_patch, synthesize_patches

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import (
    SQUARING,
    call_fanout_program,
    long_path_source,
    random_program_source,
    reference_cuts,
    reference_run,
)

RANDOM_INPUT_BUDGET = 5_000
SMALL_HEAP = 5
# below 2 * 201 steps no run nests 201 calls, so no run raises the
# recursion limit
SHALLOW_BUDGET = 400


def reference_watched(program, values, watch, **kw) -> ExecutionResult:
    """What a run with `watch` returns, from the reference interpreter:
    the plain run with the watched blocks its trace entered or, once the
    trace has entered them all, the run stopped at that entry, with status
    covered; either with the cuts of `reference_cuts`. That stop is where
    the least step budget that still makes the entry ends."""
    traced = reference_run(program, values, record_trace=True, **kw)
    cuts = reference_cuts(program, values, watch, **kw)
    seen = set()
    for cut, key in enumerate(traced.trace):
        if key in watch:
            seen.add(key)
            if seen == watch:
                break
    else:
        return replace(
            traced, trace=None, calls=None, entered=frozenset(seen), cuts=cuts
        )
    low, high = 0, traced.steps  # the least budget whose trace reaches `cut`
    while low < high:
        mid = (low + high) // 2
        cut_run = reference_run(program, values, record_trace=True, **dict(kw, max_steps=mid))
        if len(cut_run.trace) > cut:
            high = mid
        else:
            low = mid + 1
    stopped = reference_run(program, values, **dict(kw, max_steps=low))
    return ExecutionResult(
        STATUS_COVERED, output=stopped.output, steps=low, entered=watch, cuts=cuts
    )


def assert_fast(program, patches, values, watch=None, **kw):
    """The run of `program` with `patches` (Patch records) passed as data
    equals the reference run of their `apply_patch` variant; returns it."""
    variant = synth.apply_patches(program, patches)
    if watch is None:
        expected = reference_run(variant, values, **kw)
    else:
        expected = reference_watched(variant, values, watch, **kw)
    actual = run_program(
        program, values, watch=watch, patches=patch_returns(program, patches), **kw
    )
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
def test_every_patch_as_data_matches_its_variant_on_the_reference(name):
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
                statuses.add(assert_fast(program, applied, values, **kw).status)
            statuses.add(assert_fast(program, applied, values, watch=keys).status)
        # fuzzing's run: every candidate patched at once
        assert_fast(program, patches, values, max_steps=RANDOM_INPUT_BUDGET)
    assert {STATUS_OK, STATUS_FAULT} <= statuses


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_watched_subsets_match_the_reference(name):
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


def test_random_programs_with_patches_as_data_match_the_reference():
    rng = random.Random(2411)
    for _ in range(120):
        program = parse(random_program_source(rng, max_functions=4))
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


def test_a_loop_back_to_the_entry_block_matches_the_reference():
    """The compiled form runs the entry block before its dispatch loop only
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
    main = IRFunction("main", (), INT, blocks, "top", locals={"x": INT})
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
    timeout, far inside the step budget: traced or not, and in the
    reference alike."""
    program = parse(SQUARING)
    for values in ((3, 1), (-3, 1), (2**3000, 0)):
        expected = reference_run(program, values)
        assert expected.status == STATUS_TIMEOUT and expected.steps < 300
        assert run_program(program, values) == expected
        traced = run_program(program, values, record_trace=True)
        assert replace(traced, trace=None, calls=None) == expected
    assert run_program(program, (1, 2)).output == (0,)
    assert run_program(program, (0, 9)).status == STATUS_FAULT


# --- deep calls -------------------------------------------------------------

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


def deep_base(program):
    """The block of DEEP's `down` that returns 0, at the bottom."""
    down = program.functions["down"]
    (base,) = (
        b for b, blk in down.blocks.items()
        if isinstance(blk.terminator, Return) and not blk.statements
    )
    return base


def test_recursion_past_the_depth_bound_matches():
    """Calls nest natively above the bound and below it, where the run
    raises the recursion limit: plain, traced, watched (covered at the
    bottom, or never) and patched runs match the reference, and so do step
    budgets that end above, at and below the bound."""
    program = parse(DEEP)
    base = deep_base(program)
    patch = synthesize_patch(program, CandidatePatchLocation("down", base, "", 0, 0))
    patch = replace(patch, errval=replace(patch.errval, value=IntConst(-1)))
    for n in (150, interp._MAX_DEPTH + 5, 900, 20_000):
        plain = assert_fast(program, [], (n,))
        assert plain.output == (n,)
        assert assert_fast(program, [patch], (n,)).output == (n - 1,)
        never = frozenset({("down", base), ("main", "no such block")})
        assert assert_fast(program, [], (n,), watch=never).entered == {("down", base)}
        if n <= 900:
            covered = assert_fast(program, [], (n,), watch=frozenset({("down", base)}))
            assert covered.status == STATUS_COVERED
            traced = run_program(program, (n,), record_trace=True)
            assert traced == reference_run(program, (n,), record_trace=True)
            assert len(traced.calls) == n + 1
            for budget in range(1, plain.steps + 1, max(1, plain.steps // 97)):
                assert assert_fast(program, [], (n,), max_steps=budget).status == STATUS_TIMEOUT


def test_a_fault_at_the_bottom_of_20000_nested_calls_has_its_full_backtrace():
    program = parse(DEEP.replace("return 0;\n}\nfn main", "return 1 / (n - n);\n}\nfn main"))
    result = assert_fast(program, [], (20_000,))
    assert result.status == STATUS_FAULT and result.fault_kind == "div_zero"
    assert len(result.fault_stack) == 20_002
    assert result.fault_stack[0][0] == "main" and result.fault_stack[-1][1] == result.fault_at
    assert len({site for _, site in result.fault_stack[1:-1]}) == 1


def test_a_step_budget_past_the_largest_recursion_limit_matches():
    """The recursion limit a deep run raises by its steps left stops at the
    largest C int, which `sys.setrecursionlimit` takes."""
    program = parse(DEEP)
    for n in (300, 20_000):
        result = assert_fast(program, [], (n,), max_steps=10**12)
        assert result.output == (n,)


def test_every_stop_past_the_depth_bound_restores_the_recursion_limit():
    """A run that raised the recursion limit puts it back however it ends:
    normally, by a fault, a timeout, a covered watch or exhausted input."""
    limit = sys.getrecursionlimit()
    program = parse(DEEP.replace(
        "return 0;\n}\nfn main",
        "let k: int = read_input(); return 1 / k;\n}\nfn main",
    ))
    runs = (
        ((300, 1), {}, STATUS_OK),
        ((300, 0), {}, STATUS_FAULT),
        ((300, 1), {"max_steps": 500}, STATUS_TIMEOUT),
        ((300,), {}, STATUS_INPUT_EXHAUSTED),
    )
    for values, kw, status in runs:
        assert assert_fast(program, [], values, **kw).status == status
        assert sys.getrecursionlimit() == limit
    (bottom,) = (
        b for b, blk in program.functions["down"].blocks.items()
        if isinstance(blk.terminator, Return) and not any(s.kind == "call" for s in blk.statements)
    )
    covered = assert_fast(program, [], (300, 1), watch=frozenset({("down", bottom)}))
    assert covered.status == STATUS_COVERED
    assert sys.getrecursionlimit() == limit


def test_the_recursion_limit_returns_when_the_last_deep_run_ends():
    """Two runs in flight, each raised past the depth bound: the first to
    end leaves the limit raised for the other, and the second restores it;
    a run's second call at the bound raises nothing more."""
    limit = sys.getrecursionlimit()
    first, second = SimpleNamespace(D=False), SimpleNamespace(D=False)
    interp._deepen(first, 10_000)
    interp._deepen(first, 10_000)
    assert sys.getrecursionlimit() == limit + 10_000 + interp._DEEP_MARGIN
    interp._deepen(second, 5_000)
    raised = sys.getrecursionlimit()
    assert raised == limit + 15_000 + 2 * interp._DEEP_MARGIN
    interp._shallow()
    assert sys.getrecursionlimit() == raised
    interp._shallow()
    assert sys.getrecursionlimit() == limit


def test_deep_and_shallow_runs_in_threads_match():
    """Two threads run 20,000-deep calls while two run shallow ones, all
    started at once: every result matches the reference, and the recursion
    limit is back where it was once they are done."""
    program = parse(DEEP)
    limit = sys.getrecursionlimit()
    inputs = ((20_000,), (20_000,), (3,), (50,))
    expected = [reference_run(program, values) for values in inputs]
    start = threading.Barrier(len(inputs))
    results: dict = {}

    def work(i):
        start.wait()
        results[i] = [run_program(program, inputs[i]) for _ in range(5)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the runs
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results.get(i) for i in range(len(inputs))] == [[e] * 5 for e in expected]
    assert sys.getrecursionlimit() == limit


def test_a_deep_run_from_150_frames_below_the_recursion_limit_matches():
    """A run started within 150 frames of the recursion limit overflows
    before its depth reaches `_MAX_DEPTH`; it runs again from the start
    with the limit raised first, matches the reference, and puts the limit
    back (the autouse `python_limits_unchanged` fixture checks that)."""
    program = parse(DEEP)
    expected = reference_run(program, (300,))
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def nested(frames):
        return nested(frames - 1) if frames else run_program(program, (300,))

    assert nested(limit - depth - 150) == expected
    assert sys.getrecursionlimit() == limit


def test_20000_nested_calls_under_a_trace_or_profile_function_match():
    """`sys.settrace` and cProfile see every call of a 20,000-deep run, and
    neither changes its result, nor that of a fault at its bottom."""
    faulting = DEEP.replace("return 0;\n}\nfn main", "return 1 / (n - n);\n}\nfn main")
    for program in (parse(DEEP), parse(faulting)):
        expected = run_program(program, (20_000,))
        events = []

        def trace(frame, event, arg):
            events.append(event)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            traced = run_program(program, (20_000,))
        finally:
            sys.settrace(previous)
        assert traced == expected
        assert events.count("call") > 20_000
        profiler = cProfile.Profile()
        assert profiler.runcall(run_program, program, (20_000,)) == expected


def assert_same(program, values, **kw):
    """A run of `program`, traced and not, equals the reference's."""
    expected = reference_run(program, values, **kw)
    assert run_program(program, values, **kw) == expected
    assert run_program(program, values, record_trace=True, **kw) == reference_run(
        program, values, record_trace=True, **kw
    )
    return expected


def entry_budget(program, values, function):
    """The least step budget whose run of `program` on `values` enters
    `function`."""
    entry = (function, program.functions[function].entry_block)
    low, high = 1, 20_000
    while low < high:
        mid = (low + high) // 2
        if entry in reference_run(program, values, max_steps=mid, record_trace=True).trace:
            high = mid
        else:
            low = mid + 1
    return low


# `down` calls through references, to functions, to an external and, when
# x is 3, to nil, at the bottom of n nested calls of itself.
REFERENCE_CALLS = """extern fn probe(x: int) -> int;
fn twice(x: int) -> int { return x + x; }
fn halve(x: int) -> int { return x / 2; }
fn apply(op: fn(int) -> int, x: int) -> int {
    let r: int = op(x);
    return r;
}
fn down(n: int, x: int) -> int {
    if (n > 0) {
        return down(n - 1, x);
    }
    let h: fn(int) -> int = &twice;
    let e: fn(int) -> int = &probe;
    let none: fn(int) -> int = nil;
    let s: int = apply(h, x) + apply(&halve, x) + apply(e, x) + h(x) + e(x);
    if (x == 3) {
        s = none(x);
    }
    return s;
}
fn main() -> int {
    let x: int = read_input();
    let n: int = read_input();
    let r: int = down(n, x);
    print(r);
    return r;
}
"""


@pytest.mark.parametrize("n", (interp._MAX_DEPTH + 5, 450))
def test_calls_through_a_reference_past_the_depth_bound_match(n):
    """Past the depth bound, calls through a reference, to a function, to
    an external and to nil, match the reference, traced or not, at budgets
    across the run and at every budget around the calls."""
    program = parse(REFERENCE_CALLS)
    results = {}
    for x in (2, 3):
        values = (x, n)
        results[x] = full = assert_same(program, values)
        start = entry_budget(program, values, "apply")
        budgets = set(range(1, full.steps + 2, 37)) | set(range(start - 3, start + 60))
        for budget in sorted(budgets):
            assert_same(program, values, max_steps=budget)
    assert results[2].output == (4 + 1 + 0 + 4 + 0,)
    assert results[3].fault_kind == "nil_deref" and len(results[3].fault_stack) == n + 2
    # the nil call is made in a frame past the depth bound
    assert len(results[3].fault_stack) - 1 > interp._MAX_DEPTH


# --- malformed IR --------------------------------------------------------------

# Each malformed form breaks this program where `parse` never would.
WELL_FORMED = """fn g(a: int, b: int) -> int {
    if (a > b) {
        print(a);
    }
    return b;
}
fn main() -> int {
    print(1);
    let x: int = g(2, 1);
    print(x);
    return x;
}
"""


def edited(program, function, block=None, **changes):
    """`program` with `changes` made to one function, or to one block of it."""
    fn = program.functions[function]
    if block is not None:
        changes = {"blocks": dict(fn.blocks, **{block: replace(fn.blocks[block], **changes)})}
    return replace(
        program, functions=dict(program.functions, **{function: replace(fn, **changes)})
    )


def main_statements(program, edit):
    """`program` with `main`'s one block holding `edit(statements)`."""
    (block,) = program.functions["main"].blocks.values()
    return edited(program, "main", block.id, statements=edit(block.statements))


def setting(kind, **fields):
    """An edit that sets `fields` on each statement of `kind`."""
    return lambda stmts: tuple(replace(s, **fields) if s.kind == kind else s for s in stmts)


# form: (edit of the well-formed program, what its error says)
MALFORMED = {
    "no-entry-function": (lambda p: replace(p, entry="start"), "'start' is not defined"),
    "no-entry-block": (lambda p: edited(p, "main", entry_block="gone"), "'gone' missing"),
    "jump-to-no-block": (
        lambda p: edited(p, "g", "b1", terminator=Jump("nowhere")), "unknown block 'nowhere'"
    ),
    "call-of-no-function": (
        lambda p: replace(p, functions={"main": p.functions["main"]}), "undeclared function 'g'"
    ),
    "external-entry": (
        lambda p: edited(p, "main", blocks={}, entry_block=None, external=True), "must have a body"
    ),
    "entry-with-parameters": (
        lambda p: edited(p, "main", params=(("p", INT),)), "and no parameters"
    ),
    "short-call": (
        lambda p: main_statements(p, setting("call", args=(IntConst(2),))), "passes 1 arguments"
    ),
    "long-call": (
        lambda p: main_statements(
            p, setting("call", args=(IntConst(2), IntConst(1), IntConst(0)))
        ),
        "passes 3 arguments",
    ),
    "repeated-parameter": (
        lambda p: edited(p, "g", params=(("a", INT), ("a", INT))), "parameter 'a' declared twice"
    ),
    "halt": (lambda p: edited(p, "g", "b2", terminator=Halt()), r"ends in Halt\(\)"),
    "no-terminator": (lambda p: edited(p, "g", "b2", terminator=None), "ends in None"),
    "unknown-operator": (
        lambda p: main_statements(
            p, setting("print", value=Binary("**", IntConst(2), IntConst(3)))
        ),
        r"unknown operator '\*\*'",
    ),
    "unknown-statement-kind": (
        lambda p: main_statements(
            p, lambda stmts: stmts + (SimpleNamespace(id="main:goto", kind="goto"),)
        ),
        "statement kind 'goto'",
    ),
    "unknown-expression": (
        lambda p: main_statements(p, setting("print", value="one")), "cannot evaluate 'one'"
    ),
    "opaque-condition": (
        lambda p: edited(p, "g", "b0", terminator=replace(
            p.functions["g"].blocks["b0"].terminator, cond=Opaque()
        )),
        r"cannot evaluate Opaque\(\)",
    ),
}


@pytest.mark.parametrize("form", sorted(MALFORMED))
def test_malformed_ir_is_an_ir_error_before_any_step(form, monkeypatch):
    """IR that `parse` never produces raises `IRError` when its form is
    built: `run_program` raises before any step, traced or not, and patch
    evaluation raises at its first probe, before any patch runs."""
    program = parse(WELL_FORMED)
    assert run_program(program, ()).output == (1, 2, 1)
    patch = synthesize_patch(program, CandidatePatchLocation("g", "b1", "b0", 0, 0))
    edit, message = MALFORMED[form]
    broken = edit(program)
    with pytest.raises(IRError, match=message):
        interp._Form(broken, frozenset(), False)
    for traced in (False, True):
        with pytest.raises(IRError):
            run_program(broken, (), record_trace=traced)
    assert broken.fast == ()
    runs = []

    def counting_run(*args, **kwargs):
        runs.append(args)
        return run_program(*args, **kwargs)

    monkeypatch.setattr(harness, "run_program", counting_run)
    suite = parse_suite("none | input: | expect: 1, 2, 1\nfive | input: 5 | expect: 1, 2, 1\n")
    with pytest.raises(IRError):
        evaluate_patches(broken, [patch], suite)
    assert len(runs) == 1


# --- compile count -------------------------------------------------------------


def test_evaluation_and_fuzz_compile_only_the_probes_form(monkeypatch):
    """On bmp_reader, the first probe compiles the one form, one
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


# --- the structured form at every budget -----------------------------------

# `main` reads x and n, and calls `shape(x)` at the bottom of n nested calls
# of `down`: with n = 0 the shape runs at the top, with n = 205 past the
# depth bound, in a run that has raised the recursion limit.
SHAPE_DRIVER = """fn down(n: int, x: int) -> int {
    if (n > 0) {
        return down(n - 1, x);
    }
    return shape(x);
}
fn main() -> int {
    let x: int = read_input();
    let n: int = read_input();
    let r: int = down(n, x);
    print(r);
    return r;
}
"""

SHAPES = {
    # no step of the loop can be seen: only the loop-head check stops it
    "pure loop": "let s: int = x; let i: int = 0; while (true) { i = i + s; } return i;",
    # an arm charged with no check, then a print
    "pure prefix": "let s: int = x; if (s > 0) { let a: int = s + 1; let b: int = a * 2;"
                   " s = (b - s) / 2; } print(s); return s;",
    # the branch condition divides by z, which is 0 in the third iteration
    "division in a branch": "let z: int = x; let a: int = 5;"
                            " while (z > -3) { if (a / z > 1) { a = a + 3; } z = z - 1; }"
                            " return a;",
    # an inner arm entered after a segment charged with no check
    "guarded arm": "let s: int = x; if (s > -9) { s = s + 1; if (s > 0) { s = s + 2; } }"
                   " let b: int = s - 1; return b;",
}
SHAPE_DEPTHS = (0, interp._MAX_DEPTH + 5)
# the budgets after a shape's first step that are all covered
SHAPE_SPAN = 30


@contextmanager
def time_limit(seconds):
    """Fail the run under way after `seconds`: only the loop-head check
    stops a loop whose steps no result shows. On exit the timer that was
    set before, such as the per-test limit, goes on with what it had left."""

    def stop(signum, frame):
        raise AssertionError(f"a run did not stop within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:  # a timer that ran out meanwhile fires at once
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))


def shape_program(name):
    return parse(SHAPE_DRIVER + f"fn shape(x: int) -> int {{ {SHAPES[name]} }}\n")


def shape_budgets(program, values):
    """`(budgets, cap, start)` for the run of `program` on `values`: `start`
    is the least budget whose run enters the shape, and `cap` lets the run
    go on 260 steps past it, enough for every shape that ends to unwind
    `down`. The budgets are every one from 1 to one past the capped run's
    steps, except that outside the `SHAPE_SPAN` budgets from `start` only
    every 61st and the last four are kept."""
    low = entry_budget(program, values, "shape")
    cap = low + 260
    last = reference_run(program, values, max_steps=cap).steps + 1
    every = set(range(1, last + 1, 61)) | set(range(last - 3, last + 1))
    near = set(range(max(1, low - 3), min(last, low + SHAPE_SPAN) + 1))
    return sorted(every | near), cap, low


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_each_shape_matches_the_reference_at_every_budget(name):
    """Segments with no visible step are charged with no check, so the
    countdown may run below zero across them: every stop, the tail replay
    of a checked segment whose countdown had already run out, and the
    timeout after the entry function returns all match the reference,
    traced or not, above and past the depth bound."""
    program = shape_program(name)
    statuses = set()
    for n in SHAPE_DEPTHS:
        values = (2, n)
        budgets, cap, _ = shape_budgets(program, values)
        with time_limit(30):
            statuses.add(assert_same(program, values, max_steps=cap).status)
            for budget in budgets:
                statuses.add(assert_same(program, values, max_steps=budget).status)
    assert STATUS_TIMEOUT in statuses
    assert {"pure loop": STATUS_TIMEOUT, "division in a branch": STATUS_FAULT}.get(
        name, STATUS_OK
    ) in statuses


def test_a_watched_or_patched_arm_at_every_budget():
    """The guard of an arm entered after a segment charged with no check:
    a watched entry (recorded, or covering the run) and a patched return
    whose step is the last the budget holds, above and past the depth
    bound."""
    program = shape_program("guarded arm")
    shape = program.functions["shape"]
    branch = [b for b in shape.blocks.values() if isinstance(b.terminator, Branch)][-1]
    arm = ("shape", branch.terminator.then_target)
    join = ("shape", shape.blocks[arm[1]].terminator.target)
    patch = {arm: IntConst(-7)}
    variant = with_returns(program, patch)
    watches = (frozenset({arm, join}), frozenset({arm, ("main", "no such block")}))
    statuses = set()
    for n in SHAPE_DEPTHS:
        values = (2, n)
        budgets, cap, start = shape_budgets(program, values)
        for budget in budgets:
            for traced in (False, True):
                expected = reference_run(variant, values, max_steps=budget, record_trace=traced)
                assert run_program(
                    program, values, max_steps=budget, record_trace=traced, patches=patch
                ) == expected, (n, budget, traced)
                statuses.add(expected.status)
            if start - 3 <= budget <= start + 9:  # the arm is entered at start + 6
                for watch in watches:
                    statuses.add(assert_fast(program, [], values, watch=watch,
                                             max_steps=budget).status)
    assert {STATUS_OK, STATUS_TIMEOUT, STATUS_COVERED} <= statuses


# --- the structured form's coverage and size -------------------------------


def structured_programs():
    """The corpus, the call fan-out of nine, a long-path program and the
    random programs of the interpreter oracles."""
    programs = [load_corpus_entry(name)[0] for name in CORPUS_NAMES]
    programs += [call_fanout_program(9)[0], parse(long_path_source(13, 20))]
    for seed in (2405, 2411):
        rng = random.Random(seed)
        programs += [parse(random_program_source(rng, max_functions=4)) for _ in range(120)]
    return programs


def test_every_function_is_written_as_nested_if_and_while():
    """No function needs a dispatch variable: guards and traces add lines
    at block entries, not control flow, so the guard-free form shows it."""
    for program in structured_programs():
        for unit in interp._Form(program, frozenset(), False).units.values():
            assert "b==" not in unit.source


def test_the_corpus_text_is_no_longer_than_the_dispatch_loops():
    """`compile()` time grows with the text: the guard-free untraced form of
    the corpus stays within the 7,604 characters of the dispatch-loop
    form."""
    total = 0
    for name in CORPUS_NAMES:
        form = interp._Form(load_corpus_entry(name)[0], frozenset(), False)
        total += sum(len(unit.source) for unit in form.units.values())
    assert total <= 7_604


def nested_loops_source(depth):
    """`main` with `depth` nested loops, each run once, around `x = x + 1;`."""
    body = "x = x + 1;"
    for i in range(depth):
        body = f"let i{i}: int = 0; while (i{i} < 1) {{ i{i} = i{i} + 1; {body} }}"
    return f"fn main() -> int {{ let x: int = 0; {body} print(x); return x; }}\n"


def two_exit_program():
    """A loop that exits to `out1` from its header and to `out2` from its
    body, both of which go on to `end`: no `break` reaches both, so the
    function has no nested `if` and `while` form."""
    x = Var("x")
    blocks = {
        "b0": BasicBlock("b0", (Assign("s0", "x", IntConst(0)),), Jump("head")),
        "head": BasicBlock("head", (), Branch(
            "s1", Binary("<", x, IntConst(4)), "body", "out1"
        )),
        "body": BasicBlock("body", (Assign("s2", "x", Binary("+", x, IntConst(1))),), Branch(
            "s3", Binary("==", x, Var("stop")), "out2", "head"
        )),
        "out1": BasicBlock("out1", (Print("s4", IntConst(1)),), Jump("end")),
        "out2": BasicBlock("out2", (Print("s5", IntConst(2)),), Jump("end")),
        "end": BasicBlock("end", (Print("s6", x),), Return("s7", x)),
    }
    main = IRFunction("main", (), INT, blocks, "b0", locals={"x": INT, "stop": INT})
    return IRProgram(functions={"main": main}, entry="main", source_map={})


def test_what_python_cannot_nest_runs_in_the_dispatch_loop():
    """A loop with two exits that go on to one block, and loops nested
    deeper than Python compiles, fall back to the dispatch loop, and match
    the reference at every budget, traced or not."""
    stopping = two_exit_program()
    main = stopping.functions["main"]
    stopping = replace(stopping, functions={"main": replace(main, blocks=dict(
        main.blocks, b0=replace(main.blocks["b0"], statements=main.blocks["b0"].statements
                                + (Assign("s8", "stop", IntConst(2)),))
    ))})
    programs = [two_exit_program(), stopping, parse(nested_loops_source(17))]
    for program in programs:
        full = assert_same(program, ())
        for budget in range(1, min(full.steps, 200) + 2):
            assert_same(program, (), max_steps=budget)
        (unit,) = program.fast[0].units.values()
        assert "if b==" in unit.source
    assert [reference_run(p, ()).output for p in programs[:2]] == [(1, 4), (2, 2)]
    shallower = parse(nested_loops_source(16))
    assert assert_same(shallower, ()).output == (1,)
    assert "b==" not in shallower.fast[0].units["f0"].source
