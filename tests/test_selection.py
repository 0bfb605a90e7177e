"""Safe test selection in `evaluate_patches`.

Each patch runs only the cases whose coverage probe, an unpatched run
watching the patched blocks, entered its block. The differential oracle is
`helpers.reference_evaluate_patches`, which runs every case and the exploit
on every patched program: the two must return equal `PatchEvaluation`
lists, each case's pass flag, status and output included. The run-count
guard pins the selection itself, without timing: `evaluate_patches` makes
exactly one run per probe plus one per (patch, input) pair whose
unpatched traced run enters the patched block.
"""

import random

import pytest

from pathpatch import harness
from pathpatch.harness import Limits, evaluate_patches, parse_suite
from pathpatch.harness import TestCase as Case
from pathpatch.harness import TestSuite as Suite
from pathpatch.ir import Return
from pathpatch.locate import CandidatePatchLocation, candidate_locations
from pathpatch.minilang import parse, run_program
from pathpatch.minilang.interp import STATUS_COVERED, cut_result
from pathpatch.paths import Exploit, build_program_path_graph, resolve_vulnerability
from pathpatch.synth import patch_returns, synthesize_patch, synthesize_patches

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import (
    call_fanout_program,
    pick_vulnerable_statement,
    random_program_source,
    reference_evaluate_patches,
)

SMALL_BUDGETS = (1, 2, 3, 7, 20, 50)


def candidate_patches(program, vuln):
    ppg = build_program_path_graph(program, vuln)
    return synthesize_patches(program, candidate_locations(ppg))


def every_block_patches(program):
    """One patch per block of every function: entry blocks, loop heads,
    blocks of recursive functions and of callees reached only through a
    function reference included."""
    patches = []
    for fn in program.functions.values():
        for block in fn.blocks:
            location = CandidatePatchLocation(fn.id, block, fn.entry_block, 0, 0)
            patches.append(synthesize_patch(program, location))
    return patches


def assert_same(program, patches, suite, limits=Limits()):
    expected = reference_evaluate_patches(program, patches, suite, limits)
    actual = evaluate_patches(program, patches, suite, limits)
    assert actual == expected, limits
    return actual


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_matches_full_evaluation(self, name):
        program, vuln, suite = load_corpus_entry(name)
        for patches in (candidate_patches(program, vuln), every_block_patches(program)):
            assert_same(program, patches, suite)
            assert_same(program, patches, suite, Limits(max_heap_cells=5))
            for budget in SMALL_BUDGETS:
                assert_same(program, patches, suite, Limits(max_steps=budget))

    def test_random_programs_with_random_suites(self):
        rng = random.Random(5511)
        statuses = set()
        for _ in range(120):
            program = parse(random_program_source(rng, max_functions=4))
            _, statement = pick_vulnerable_statement(rng, program)
            expects = [(), (rng.randint(0, 3),)]
            suite = Suite(
                cases=tuple(
                    Case(f"c{i}", (), rng.choice(expects)) for i in range(rng.randint(1, 4))
                ),
                exploit=Exploit(input=(), statement=statement),
            )
            limits = Limits(max_steps=rng.choice(SMALL_BUDGETS + (5_000,)))
            patches = every_block_patches(program)
            rng.shuffle(patches)
            evaluations = assert_same(
                program, patches[: rng.randint(1, len(patches))], suite, limits
            )
            statuses.update(v.status for ev in evaluations for v in ev.verdicts)
        assert {"ok", "timeout"} <= statuses


FEATURES = """
fn twice(x: int) -> int {
    let r: int = x + x;
    if (r > 10) {
        r = 10;
    }
    return r;
}

fn fact(n: int) -> int {
    if (n <= 1) {
        return 1;
    }
    let rest: int = fact(n - 1);
    return n * rest;
}

fn apply(op: fn(int) -> int, x: int) -> int {
    let r: int = op(x);
    return r;
}

fn main() -> int {
    let a: int = read_input();
    if (a > 2) {
        print(apply(&twice, a));
    }
    if (a < 6) {
        print(fact(a));
    }
    return 0;
}
"""

FEATURES_SUITE = "".join(
    f"c{a} | input: {a} | expect: {', '.join(map(str, out))}\n"
    for a, out in (
        (0, (1,)), (1, (1,)), (2, (2,)), (3, (6, 6)), (4, (8, 24)),
        (5, (10, 120)), (6, (10,)), (9, (10,)), (-3, (1,)),
    )
)


class TestHandWrittenPrograms:
    def _program(self):
        program = parse(FEATURES)
        vuln = resolve_vulnerability(program, "twice", line=5)
        suite = parse_suite(FEATURES_SUITE + "x | input: 7 | expect: FAULT\n")
        return program, suite.with_vulnerability(vuln)

    def _patch(self, program, function, block):
        location = CandidatePatchLocation(function, block, "b0", 0, 0)
        return synthesize_patch(program, location)

    @pytest.mark.parametrize(
        "function, block",
        [
            ("twice", "b0"),  # entry block of a callee reached only via &twice
            ("twice", "b1"),  # a conditional block inside it
            ("fact", "b0"),  # entry block of a recursive function
            ("fact", "b2"),  # the block holding the recursive call
            ("main", "b0"),  # the program's entry block
        ],
    )
    def test_patched_block_kinds_match_full_evaluation(self, function, block):
        program, suite = self._program()
        assert run_program(program, (3,)).output == (6, 6)
        patch = self._patch(program, function, block)
        for limits in (Limits(), Limits(max_steps=20)):
            (evaluation,) = assert_same(program, [patch], suite, limits)
        # every patch here changes some case, and some case keeps its verdict
        assert 0 < evaluation.passed < evaluation.total or block == "b0"

    def test_all_kinds_together_match_full_evaluation(self):
        program, suite = self._program()
        assert_same(program, every_block_patches(program), suite)


LOOP = """
fn check(i: int, buf: ref) -> int {
    let v: int = 0;
    if (i % 2 == 0) {
        v = buf[i];
    } else {
        v = 0 - i;
    }
    return v;
}

fn main() -> int {
    let n: int = read_input();
    let buf: ref = alloc(4);
    let s: int = 0;
    let i: int = 0;
    while (i < n) {
        s = s + check(i, buf);
        i = i + 1;
    }
    print(s);
    return 0;
}
"""


def loop_program():
    """A loop whose longer cases enter every candidate block, so their
    probes stop early; no input of bmp_reader or of the fan-out program
    does, so only this program guards the early stop."""
    program = parse(LOOP)
    vuln = resolve_vulnerability(program, "check", line=5)
    suite = parse_suite(
        "".join(f"n{n} | input: {n} | expect: {-(n // 2) ** 2}\n" for n in range(5))
        + "x | input: 6 | expect: FAULT oob\n"
    )
    return program, vuln, suite.with_vulnerability(vuln)


def fanout_program():
    program, vuln = call_fanout_program(4)
    suite = Suite(
        cases=tuple(Case(f"v{v}", (v,), ()) for v in range(-2, 9)),
        exploit=Exploit(input=(9,)),
    )
    return program, vuln, suite.with_vulnerability(vuln)


GUARDED = {
    "bmp_reader": lambda: load_corpus_entry("bmp_reader"),
    "call_fanout": fanout_program,
    "loop": loop_program,
}


class TestRunCountGuard:
    """Timing-free guard: selection runs exactly the probes and the
    entering pairs but those a cut answers, and a probe stops early exactly
    when its input enters every patched block."""

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_runs_are_the_probes_plus_the_entering_pairs(self, monkeypatch, name):
        program, vuln, suite = GUARDED[name]()
        patches = candidate_patches(program, vuln)
        keys = [(p.location.function, p.location.block) for p in patches]
        inputs = [case.input for case in suite.cases] + [suite.exploit.input]
        entering = 0
        entering_all = 0
        cut = 0
        for values in inputs:
            traced = run_program(program, values, record_trace=True)
            # main calls no main, so main's blocks are entered in its own frame
            assert program.entry not in {callee for _, callee in traced.calls}
            trace = set(traced.trace)
            entering += sum(key in trace for key in keys)
            entering_all += set(keys) <= trace
            cut += sum(key in trace and key[0] == program.entry for key in keys)

        results = []

        def counting(*args, **kwargs):
            result = run_program(*args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr(harness, "run_program", counting)
        evaluate_patches(program, patches, suite)
        assert len(results) == len(inputs) + entering - cut
        assert entering < len(inputs) * len(patches)
        stopped = [r for r in results[: len(inputs)] if r.status == STATUS_COVERED]
        assert len(stopped) == entering_all
        if name == "loop":
            assert entering_all > 0
        assert cut > 0 or name == "call_fanout"  # whose candidates are all below main


# --- patches that end the run, answered by the probe's cut -----------------


def cut_programs():
    """`(program, inputs, budget)`: the corpus with its suites' inputs, the
    call fan-out of nine, and the random programs of the interpreter
    oracles, whose main may call itself, at the budget their oracles use."""
    programs = []
    for name in CORPUS_NAMES:
        program, _, suite = load_corpus_entry(name)
        inputs = [case.input for case in suite.cases] + [suite.exploit.input]
        programs.append((program, inputs, Limits().max_steps))
    programs.append((call_fanout_program(9)[0], [(v,) for v in range(-2, 9)], Limits().max_steps))
    for seed in (2405, 2411):
        rng = random.Random(seed)
        programs += [
            (parse(random_program_source(rng, max_functions=4)), [()], 400) for _ in range(120)
        ]
    return programs


def test_every_cut_gives_the_patched_run_of_its_block():
    """For every block of main and every budget around its first entry, a
    probe's cut and output give exactly the run patched there: status, exit
    value, output and steps. In a program where nothing may call main, a
    probe has a cut for every block it entered."""
    answered = 0
    for program, inputs, budget in cut_programs():
        main = program.functions[program.entry]
        calls_main = any(  # directly, or through a reference
            s.kind == "call" and s.callee_name in (None, main.id)
            for fn in program.functions.values()
            for block in fn.blocks.values()
            for s in block.statements
        )
        patches = {
            (main.id, b): synthesize_patch(
                program, CandidatePatchLocation(main.id, b, main.entry_block, 0, 0)
            )
            for b in main.blocks
        }
        watch = frozenset(patches)
        for values in inputs:
            probe = run_program(program, values, max_steps=budget, watch=watch)
            budgets = {budget}
            for _, (steps, _) in probe.cuts:
                budgets.update(b for b in range(steps - 2, steps + 3) if 1 <= b <= probe.steps + 1)
            for max_steps in sorted(budgets):
                probe = run_program(program, values, max_steps=max_steps, watch=watch)
                cuts = dict(probe.cuts)
                assert calls_main or cuts.keys() == probe.entered
                for key, patch in patches.items():
                    returns = patch_returns(program, [patch])
                    run = run_program(program, values, max_steps=max_steps, patches=returns)
                    if key in cuts:
                        answered += 1
                        derived = cut_result(cuts[key], probe.output, returns[key], max_steps)
                        assert derived == run, (key, values, max_steps)
    assert answered > 1000


RECURSIVE_MAIN = """
fn main() -> int {
    let a: int = read_input();
    if (a > 0) {
        let r: int = main();
        print(r);
    }
    print(a);
    return 0;
}
"""


def test_a_block_first_entered_below_main_still_runs(monkeypatch):
    """Main calls itself: the block after the `if` is first entered in the
    inner frame, so a patch there returns to the outer main, which goes on;
    the probe has no cut for it, and the patched run is made."""
    program = parse(RECURSIVE_MAIN)
    main = program.functions["main"]
    (join,) = (b for b, blk in main.blocks.items() if isinstance(blk.terminator, Return))
    patch = synthesize_patch(program, CandidatePatchLocation("main", join, main.entry_block, 0, 0))
    key = ("main", join)
    deeper = (1,) * 300 + (0,)  # past the depth bound, where a run raises the recursion limit
    for values in ((1, 0), deeper):
        probe = run_program(program, values, watch=frozenset({key}))
        assert key in probe.entered and probe.cuts == ()
    patched = run_program(program, (1, 0), patches=patch_returns(program, [patch]))
    value = patch.errval.value.value
    assert patched.output == (value,) and patched.exit_value == value
    suite = parse_suite(
        "deep | input: 1, 0 | expect: 0, 0, 1\nflat | input: 0 | expect: 0\n"
        f"deeper | input: {', '.join(map(str, deeper))} | expect: 0{', 0, 1' * 300}\n"
    )
    expected = reference_evaluate_patches(program, [patch], suite)
    runs = []

    def counting(*args, **kwargs):
        runs.append(kwargs)
        return run_program(*args, **kwargs)

    monkeypatch.setattr(harness, "run_program", counting)
    (evaluation,) = evaluate_patches(program, [patch], suite)
    assert [evaluation] == expected
    # three probes, and two patched runs: `flat` is answered by its cut
    assert [kw["patches"] is not None for kw in runs] == [False] * 3 + [True] * 2
    assert [v.passed for v in evaluation.verdicts] == [False] * 3


def test_a_probe_stopped_as_covered_keeps_its_cuts(monkeypatch):
    """A probe that entered every patched block stops there, `covered`,
    with no verdict; the patches of main's blocks, the block whose entry
    stopped it included, are still read off its cuts, and only the other
    patches run."""
    program, vuln, suite = loop_program()
    main = program.functions["main"]
    (last,) = (b for b, blk in main.blocks.items() if isinstance(blk.terminator, Return))
    patches = candidate_patches(program, vuln) + [
        synthesize_patch(program, CandidatePatchLocation("main", last, main.entry_block, 0, 0))
    ]
    keys = {(p.location.function, p.location.block) for p in patches}
    mains = {key for key in keys if key[0] == "main"}
    probe = run_program(program, (4,), watch=frozenset(keys))
    assert probe.status == STATUS_COVERED and len(mains) == 2
    assert [key for key, _ in probe.cuts] == [("main", "b2"), ("main", last)]
    expected = reference_evaluate_patches(program, patches, suite)
    runs = []

    def counting(*args, **kwargs):
        runs.append(kwargs.get("patches"))
        return run_program(*args, **kwargs)

    monkeypatch.setattr(harness, "run_program", counting)
    assert evaluate_patches(program, patches, suite) == expected
    patched = [returns for returns in runs if returns is not None]
    assert patched and not any(mains & returns.keys() for returns in patched)
