"""Safe test selection in `evaluate_patches`.

Each patch runs only the cases whose coverage probe, an unpatched run
watching the patched blocks, entered its block. The differential oracle is
`helpers.reference_evaluate_patches`, which runs every case and the exploit
on every patched program: the two must return equal `PatchEvaluation`
lists, verdict details included. The run-count guard pins the selection
itself, without timing: `evaluate_patches` makes exactly one run per probe
plus one per (patch, input) pair whose unpatched traced run enters the
patched block.
"""

import random
from dataclasses import replace

import pytest

from pathpatch import harness
from pathpatch.harness import FAULT, Limits, evaluate_patches, parse_suite
from pathpatch.harness import TestCase as Case
from pathpatch.harness import TestSuite as Suite
from pathpatch.ir import BasicBlock, Jump
from pathpatch.locate import CandidatePatchLocation, candidate_locations
from pathpatch.minilang import lower, parse, run_program
from pathpatch.minilang.interp import STATUS_COVERED
from pathpatch.paths import Exploit, build_program_path_graph, resolve_vulnerability
from pathpatch.synth import synthesize_patch, synthesize_patches

from conftest import CORPUS_NAMES, load_corpus_entry
from helpers import (
    call_fanout_program,
    pick_vulnerable_statement,
    random_program_tree,
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


def assert_same(program, patches, suite, limits=Limits(), jobs=1):
    expected = reference_evaluate_patches(program, patches, suite, limits, jobs)
    actual = evaluate_patches(program, patches, suite, limits, jobs)
    assert actual == expected, (limits, jobs)
    return actual


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_matches_full_evaluation(self, name):
        program, vuln, suite = load_corpus_entry(name)
        for patches in (candidate_patches(program, vuln), every_block_patches(program)):
            for jobs in (1, 8):
                assert_same(program, patches, suite, jobs=jobs)
            assert_same(program, patches, suite, Limits(max_heap_cells=5))
            for budget in SMALL_BUDGETS:
                assert_same(program, patches, suite, Limits(max_steps=budget))

    def test_random_programs_with_random_suites(self):
        rng = random.Random(5511)
        statuses = set()
        for _ in range(120):
            program = lower(random_program_tree(rng, max_functions=4))
            _, statement = pick_vulnerable_statement(rng, program)
            expects = [(), (rng.randint(0, 3),), FAULT]
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
            statuses.update(v.detail for ev in evaluations for v in ev.verdicts)
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
        program = lower(parse(FEATURES))
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

    def test_a_probe_that_raises_leaves_the_case_to_the_patched_runs(self):
        """The unpatched run of a case raises in a malformed block: patches
        that rewrite it, or return before it, do not raise, and neither may
        the evaluation; a patch after it raises as the full evaluation does."""
        program = lower(parse("fn main() -> int { let a: int = read_input(); "
                              "if (a > 0) { a = a + 1; } print(a); return 0; }"))
        fixes, before, after = (self._patch(program, "main", b) for b in ("b1", "b0", "b2"))
        main = program.functions["main"]
        lost = BasicBlock("b1", main.blocks["b1"].statements, Jump("nowhere"))
        broken = replace(main, blocks=dict(main.blocks, b1=lost))
        program = replace(program, functions={"main": broken})
        suite = parse_suite("up | input: 1 | expect: 2\nflat | input: 0 | expect: 0\n")
        with pytest.raises(KeyError):
            run_program(program, (1,))
        # the entry-block patch returns before the malformed block too
        assert_same(program, [fixes, before], suite)
        with pytest.raises(KeyError):
            reference_evaluate_patches(program, [fixes, after], suite)
        with pytest.raises(KeyError):
            evaluate_patches(program, [fixes, after], suite)


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
    program = lower(parse(LOOP))
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
    entering pairs, and a probe stops early exactly when its input enters
    every patched block."""

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_runs_are_the_probes_plus_the_entering_pairs(self, monkeypatch, name):
        program, vuln, suite = GUARDED[name]()
        patches = candidate_patches(program, vuln)
        keys = [(p.location.function, p.location.block) for p in patches]
        inputs = [case.input for case in suite.cases] + [suite.exploit.input]
        entering = 0
        entering_all = 0
        for values in inputs:
            trace = set(run_program(program, values, record_trace=True).trace)
            entering += sum(key in trace for key in keys)
            entering_all += set(keys) <= trace

        results = []

        def counting(*args, **kwargs):
            result = run_program(*args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr(harness, "run_program", counting)
        evaluate_patches(program, patches, suite)
        assert len(results) == len(inputs) + entering
        assert entering < len(inputs) * len(patches)
        stopped = [r for r in results[: len(inputs)] if r.status == STATUS_COVERED]
        assert len(stopped) == entering_all
        if name == "loop":
            assert entering_all > 0
