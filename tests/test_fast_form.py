"""Differential oracle for the interpreter's compiled form and patches as
data.

Every run here passes its patch as data (`run_program(patches=...)`) on
the base program, and its result must equal, field for field (steps, fault
backtrace and `entered` included), what `helpers.reference_run` returns on
that patch's `apply_patch` variant. There is one form and no fallback: a
run that times out on the step budget inside a segment, nests calls past
the native depth bound, or calls with the wrong number of arguments gets
its result, or raises its error, in that form, exactly as the reference
does.
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
    Halt,
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
# below 2 * 201 steps no run nests 201 calls, so every call is native
SHALLOW_BUDGET = 400


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
    timeout, far inside the step budget: traced or not, and in the
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


# --- deep calls, wrong argument counts and malformed IR --------------------

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
    """Calls nest natively up to the bound and run on the generator stack
    below it: plain, traced, watched (covered at the bottom, or never) and
    patched runs match the reference, and so do step budgets that end
    above, at and below the bound."""
    program = lower(parse(DEEP))
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
    program = lower(parse(DEEP.replace("return 0;\n}\nfn main", "return 1 / (n - n);\n}\nfn main")))
    result = assert_fast(program, [], (20_000,))
    assert result.status == STATUS_FAULT and result.fault_kind == "div_zero"
    assert len(result.fault_stack) == 20_002
    assert result.fault_stack[0][0] == "main" and result.fault_stack[-1][1] == result.fault_at
    assert len({site for _, site in result.fault_stack[1:-1]}) == 1


def shorten_calls(program, args):
    """`program` with every call in `main` given the arguments `args`."""
    main = program.functions["main"]
    blocks = {
        bid: replace(block, statements=tuple(
            replace(s, args=args) if s.kind == "call" else s for s in block.statements
        ))
        for bid, block in main.blocks.items()
    }
    return replace(program, functions=dict(program.functions, main=replace(main, blocks=blocks)))


def test_a_call_with_the_wrong_argument_count_matches():
    """Arguments bind as `zip` pairs them, on a direct call, a call
    through a reference and the run's entry: a parameter with no argument
    is left unbound, and reading it raises the reference's `KeyError`,
    which names the variable."""
    g = "fn g(a: int, b: int) -> int { let c: int = 4; print(c); return 7; }\n"
    direct = lower(parse(g + "fn main() -> int { let x: int = g(1, 2); print(x); return x; }\n"))
    through = lower(parse(
        g + "fn main() -> int { let h: fn(int, int) -> int = &g; let x: int = h(1, 2);"
        " print(x); return x; }\n"
    ))
    for program in (direct, through):
        for args in ((IntConst(1),), (IntConst(1), IntConst(2), IntConst(3))):
            short = shorten_calls(program, args)
            assert run_program(short, ()) == reference_run(short, ())
    short = shorten_calls(direct, (IntConst(1),))
    gfn = short.functions["g"]
    (gid, gblock), = gfn.blocks.items()
    reads_b = Print("g:read", Var("b"))
    reading = replace(short, functions=dict(short.functions, g=replace(
        gfn, blocks={gid: replace(gblock, statements=gblock.statements + (reads_b,))}
    )))
    main = direct.functions["main"]
    with_parameter = replace(direct, functions=dict(
        direct.functions, main=replace(main, params=(("p", INT),))
    ))
    assert run_program(with_parameter, ()) == reference_run(with_parameter, ())
    for run in (reference_run, run_program):
        with pytest.raises(KeyError) as error:
            run(reading, ())
        assert error.value.args == ("b",)


def assert_same(program, values, **kw):
    """A run of `program`, traced and not, equals the reference's."""
    expected = reference_run(program, values, **kw)
    assert run_program(program, values, **kw) == expected
    assert run_program(program, values, record_trace=True, **kw) == reference_run(
        program, values, record_trace=True, **kw
    )
    return expected


def test_malformed_ir_raises_what_the_reference_raises():
    """A missing entry block, a halt at depth and a call of no function,
    each reached by a run, raise or return what the reference does."""
    program = lower(parse("fn main() -> int { let x: int = 1; return x; }"))
    main = program.functions["main"]
    broken = replace(program, functions={"main": replace(main, entry_block="gone")})
    for run in (reference_run, run_program):
        with pytest.raises(KeyError) as error:
            run(broken, ())
        assert error.value.args == ("gone",)

    deep = lower(parse(DEEP))
    down = deep.functions["down"]
    base = deep_base(deep)
    halting = replace(deep, functions=dict(deep.functions, down=replace(down, blocks=dict(
        down.blocks, **{base: replace(down.blocks[base], terminator=Halt())}
    ))))
    for n in (3, 900):
        result = assert_same(halting, (n,))
        assert result.status == STATUS_OK and result.exit_value is None and result.output == ()

    calls_nothing = lower(parse(
        "fn g() -> int { return 1; }\nfn main() -> int { print(5); let x: int = g(); return x; }"
    ))
    calls_nothing = replace(calls_nothing, functions={"main": calls_nothing.functions["main"]})
    for run in (reference_run, run_program):
        with pytest.raises(KeyError) as error:
            run(calls_nothing, ())
        assert error.value.args == ("g",)


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
