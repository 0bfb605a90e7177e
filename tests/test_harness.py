"""Suite parsing, test execution, exploit checking, evaluation, ranking."""

import random
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pathpatch.harness import (
    Limits,
    PatchEvaluation,
    SuiteError,
    evaluate_patches,
    parse_suite,
    rank,
)
from pathpatch.harness import TestCase as Case
from pathpatch.harness import TestSuite as Suite
from pathpatch.locate import CandidatePatchLocation, candidate_locations
from pathpatch.minilang import parse
from pathpatch.paths import build_program_path_graph
from pathpatch.record import replace
from pathpatch.synth import ErrorReturnValue, Patch, synthesize_patches

from helpers import check_exploit, run_test_suite


@contextmanager
def short_switch_interval():
    """Make the interpreter switch threads as often as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestSuiteParsing:
    def test_basic_lines(self):
        suite = parse_suite(
            "# comment\n"
            "one | input: 1,2 | expect: 3\n"
            "two | input: | expect:\n"
            "boom | input: 9 | expect: FAULT oob\n"
        )
        assert len(suite.cases) == 2
        assert suite.cases[0] == Case("one", (1, 2), (3,))
        assert suite.cases[1] == Case("two", (), ())
        assert suite.exploit.input == (9,)
        assert suite.exploit.kind == "oob"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SuiteError, match="duplicate"):
            parse_suite("a | input: 1 | expect: 1\na | input: 2 | expect: 2\n")

    def test_two_exploits_rejected(self):
        with pytest.raises(SuiteError, match="already has an exploit"):
            parse_suite(
                "a | input: 1 | expect: FAULT\nb | input: 2 | expect: FAULT\n"
            )

    def test_malformed_line_rejected(self):
        with pytest.raises(SuiteError, match="expected"):
            parse_suite("just some text\n")

    @pytest.mark.parametrize("expect", ["FAULTY", "FAULToob", "FAULT_oob"])
    def test_fault_counts_only_as_a_whole_word(self, expect):
        with pytest.raises(SuiteError, match="line 2: expected outputs"):
            parse_suite(f"a | input: 1 | expect: 1\nb | input: 9 | expect: {expect}\n")

    @pytest.mark.parametrize("line", [
        "a | input: 1,,2 | expect: 3",
        "a | input: 1, | expect: 3",
        "a | input: ,1 | expect: 3",
        "a | input: , | expect: 3",
        "a | input: 1 | expect: 3,,4",
        "a | input: 1 | expect: 3,",
    ])
    def test_an_empty_item_is_an_error_that_names_its_line(self, line):
        with pytest.raises(SuiteError, match="^line 2: "):
            parse_suite("# first\n" + line + "\n")


class TestRunSuite:
    def test_unpatched_corpus_baseline_passes_everything(self, corpus_entry):
        name, program, vuln, suite = corpus_entry
        result = run_test_suite(program, suite)
        assert result.passed == result.total == len(suite.cases)

    def test_output_mismatch_fails(self):
        program = parse("fn main() -> int { print(5); return 0; }")
        suite = Suite(cases=(Case("t", (), (6,)),))
        result = run_test_suite(program, suite)
        assert result.passed == 0
        verdict = result.verdicts[0]
        assert (verdict.status, verdict.output) == ("ok", (5,))

    def test_timeout_counts_as_failure(self):
        program = parse("fn main() -> int { while (true) { } return 0; }")
        suite = Suite(cases=(Case("t", (), ()),))
        result = run_test_suite(program, suite, Limits(max_steps=100))
        assert result.passed == 0
        verdict = result.verdicts[0]
        assert (verdict.status, verdict.output) == ("timeout", ())


class TestCheckExploit:
    def test_unpatched_exploit_is_not_mitigated(self, corpus_entry):
        name, program, vuln, suite = corpus_entry
        assert check_exploit(program, suite) is False

    def test_patches_on_the_exploit_path_mitigate(self, corpus_entry):
        from pathpatch.minilang import run_program
        from pathpatch.synth import apply_patch

        name, program, vuln, suite = corpus_entry
        trace = run_program(program, suite.exploit.input, record_trace=True).trace
        executed = set(trace)
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        on_path = [
            p for p in patches if (p.location.function, p.location.block) in executed
        ]
        assert on_path, "at least one candidate lies on the exploit path"
        for patch in on_path:
            assert check_exploit(apply_patch(program, patch), suite) is True

    def test_unanchored_exploit_is_an_error(self):
        program = parse("fn main() -> int { return 0; }")
        with pytest.raises(SuiteError):
            check_exploit(program, Suite(cases=()))


class TestEvaluate:
    def _patches_for(self, program, vuln):
        ppg = build_program_path_graph(program, vuln)
        return synthesize_patches(program, candidate_locations(ppg))

    def test_every_patch_gets_an_evaluation(self, bmp_reader):
        program, vuln, suite = bmp_reader
        patches = self._patches_for(program, vuln)
        evaluations = evaluate_patches(program, patches, suite)
        assert len(evaluations) == len(patches)
        for ev in evaluations:
            assert ev.pfr == Fraction(ev.passed, ev.total)
            assert ev.exploit_blocked in (True, False)

    def test_empty_patch_list(self, bmp_reader):
        program, vuln, suite = bmp_reader
        assert evaluate_patches(program, [], suite) == []

    def test_caller_level_patch_outranks_vulnerable_function_patches(self, bmp_reader):
        program, vuln, suite = bmp_reader
        ranked = rank(evaluate_patches(program, self._patches_for(program, vuln), suite))
        best = ranked[0]
        assert best.patch.location.level == 1
        assert best.patch.location.function == "input_bmp_reader"
        assert (best.passed, best.total) == (85, 87)
        level0_best = min(
            ev.rank for ev in ranked if ev.patch.location.level == 0
        )
        assert level0_best > best.rank

    def test_headline_numbers(self, bmp_reader):
        program, vuln, suite = bmp_reader
        ranked = rank(evaluate_patches(program, self._patches_for(program, vuln), suite))
        assert (ranked[0].passed, ranked[0].total) == (85, 87)
        from pathpatch.graphio import pfr_display

        assert pfr_display(ranked[0].passed, ranked[0].total) == "85 (98%)"

    def test_mandatory_path_patch_fails_every_test(self):
        from conftest import load_corpus_entry

        program, vuln, suite = load_corpus_entry("mandatory")
        ranked = rank(evaluate_patches(program, self._patches_for(program, vuln), suite))
        assert ranked[0].passed == 0
        assert ranked[0].pfr == 0
        assert ranked[0].exploit_blocked is True

    def test_off_path_patch_reports_unblocked_exploit(self):
        from conftest import load_corpus_entry

        program, vuln, suite = load_corpus_entry("twopath")
        ranked = rank(evaluate_patches(program, self._patches_for(program, vuln), suite))
        by_function_block = {
            (ev.patch.location.function, ev.patch.location.block): ev for ev in ranked
        }
        route_b = [
            ev for (fn, _), ev in by_function_block.items() if fn == "route_b"
        ]
        assert route_b and all(ev.exploit_blocked is False for ev in route_b)
        route_a = [
            ev for (fn, _), ev in by_function_block.items() if fn == "route_a"
        ]
        assert route_a and all(ev.exploit_blocked is True for ev in route_a)

    def test_variant_failure_is_recorded_not_fatal(self, bmp_reader):
        program, vuln, suite = bmp_reader
        patches = self._patches_for(program, vuln)
        stale = Patch(
            id="zzz:gone",
            location=CandidatePatchLocation(
                function="read_image",
                block="b999",
                governing_conditional="b0",
                branch_index=0,
                level=0,
            ),
            errval=ErrorReturnValue(None, "type_default"),
        )
        evaluations = evaluate_patches(program, patches + [stale], suite)
        by_id = {ev.patch.id: ev for ev in evaluations}
        assert by_id["zzz:gone"].error is not None
        assert by_id["zzz:gone"].exploit_blocked is None
        healthy = [ev for ev in evaluations if ev.error is None]
        assert len(healthy) == len(patches)

    def test_runs_started_together_compile_safely(self):
        """Eight threads released at once run one fresh program, so they
        compile its functions together; every run must match a serial one."""
        from conftest import load_corpus_entry
        from pathpatch.minilang import run_program

        program, _, suite = load_corpus_entry("bmp_reader")
        values = suite.exploit.input
        expected = run_program(program, values)
        for _ in range(10):
            program = load_corpus_entry("bmp_reader")[0]
            barrier = threading.Barrier(8)
            results = [None] * 8

            def work(i):
                barrier.wait(timeout=10)
                results[i] = run_program(program, values)

            workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            with short_switch_interval():
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert results == [expected] * 8

    def test_side_effect_fixture_shows_broken_invariant(self):
        """An early return that skips the release breaks the assertion in
        main: the patched program fails tests it would otherwise pass."""
        from conftest import load_corpus_entry
        from pathpatch.minilang import run_program
        from pathpatch.synth import apply_patch

        program, vuln, suite = load_corpus_entry("sideeffect")
        patches = self._patches_for(program, vuln)
        guarded = next(p for p in patches if p.location.function == "process")
        patched = apply_patch(program, guarded)
        deep_case = next(c for c in suite.cases if c.input[0] > 5)
        result = run_program(patched, deep_case.input)
        assert result.status == "fault"
        assert result.fault_kind == "assert_fail"
        # and the exploit is still considered mitigated: no fault at the
        # vulnerable statement itself
        assert check_exploit(patched, suite) is True


def make_eval(pfr, blocked, level, block, function="f", patch_id=None):
    loc = CandidatePatchLocation(
        function=function,
        block=block,
        governing_conditional="g",
        branch_index=0,
        level=level,
    )
    patch = Patch(
        id=patch_id or f"{function}:{block}",
        location=loc,
        errval=ErrorReturnValue(None, "type_default"),
    )
    return PatchEvaluation(
        patch=patch,
        passed=pfr.numerator,
        total=pfr.denominator,
        exploit_blocked=blocked,
    )


class TestRank:
    def test_pfr_descending(self):
        evals = [
            make_eval(Fraction(1, 2), True, 0, "b0"),
            make_eval(Fraction(1, 1), True, 0, "b1"),
            make_eval(Fraction(0, 1), True, 0, "b2"),
        ]
        ranked = rank(evals)
        assert [ev.pfr for ev in ranked] == [1, Fraction(1, 2), 0]
        assert [ev.rank for ev in ranked] == [1, 2, 3]

    def test_blocked_exploit_breaks_ties(self):
        evals = [
            make_eval(Fraction(1, 2), False, 0, "b0"),
            make_eval(Fraction(1, 2), True, 3, "b1"),
        ]
        ranked = rank(evals)
        assert ranked[0].exploit_blocked is True

    def test_lower_level_breaks_remaining_ties(self):
        evals = [
            make_eval(Fraction(1, 2), True, 3, "b0"),
            make_eval(Fraction(1, 2), True, 1, "b1"),
        ]
        ranked = rank(evals)
        assert ranked[0].patch.location.level == 1

    def test_block_id_order_is_natural(self):
        evals = [
            make_eval(Fraction(1, 2), True, 1, "b10"),
            make_eval(Fraction(1, 2), True, 1, "b2"),
        ]
        ranked = rank(evals)
        assert ranked[0].patch.location.block == "b2"

    def test_equal_ratios_with_different_totals_tie(self):
        """1/2 and 2/4 are one PFR, so the exploit, level, block and patch
        id keys decide, in that order."""
        def half(blocked, level, block, patch_id, total):
            ev = make_eval(Fraction(1, 2), blocked, level, block, patch_id=patch_id)
            return replace(ev, passed=total // 2, total=total)

        cases = [
            ([half(False, 0, "b0", "p0", 2), half(True, 3, "b1", "p1", 4)], "p1"),
            ([half(True, 3, "b0", "p0", 2), half(True, 1, "b1", "p1", 4)], "p1"),
            ([half(True, 1, "b10", "p0", 2), half(True, 1, "b2", "p1", 4)], "p1"),
            ([half(True, 1, "b2", "p1", 2), half(True, 1, "b2", "p0", 4)], "p0"),
        ]
        for evals, first in cases:
            for order in (evals, evals[::-1]):
                assert [ev.patch.id for ev in rank(order)][0] == first

    def test_no_cases_ranks_as_pfr_zero(self):
        empty = replace(make_eval(Fraction(0), True, 0, "b0"), passed=0, total=0)
        evals = [
            empty,
            make_eval(Fraction(1, 3), False, 4, "b1"),
            make_eval(Fraction(0, 5), False, 4, "b2"),
        ]
        assert empty.pfr == 0
        assert [ev.patch.location.block for ev in rank(evals)] == ["b1", "b0", "b2"]
        assert [ev.patch.location.block for ev in rank(evals[::-1])] == ["b1", "b0", "b2"]

    def test_random_rankings_satisfy_the_contract(self):
        rng = random.Random(5150)
        for _ in range(1000):
            n = rng.randint(0, 12)
            evals = []
            for i in range(n):
                total = rng.randint(1, 10)
                passed = rng.randint(0, total)
                evals.append(
                    make_eval(
                        Fraction(passed, total),
                        rng.random() < 0.5,
                        rng.randint(0, 4),
                        f"b{rng.randint(0, 20)}",
                        function=rng.choice("fgh"),
                        patch_id=f"p{i}",
                    )
                )
            ranked = rank(evals)
            assert sorted(ev.rank for ev in ranked) == list(range(1, n + 1))
            for a, b in zip(ranked, ranked[1:]):
                assert a.pfr >= b.pfr
                if a.pfr == b.pfr:
                    assert (not a.exploit_blocked) <= (not b.exploit_blocked)
                    if a.exploit_blocked == b.exploit_blocked:
                        assert a.patch.location.level <= b.patch.location.level
            # determinism under shuffling
            shuffled = list(evals)
            rng.shuffle(shuffled)
            assert [e.patch.id for e in rank(shuffled)] == [
                e.patch.id for e in ranked
            ]
