"""Patched-variant evaluation: test suites, exploit checks, PFR, ranking.

Suite files hold one case per line:

    name | input: 1,2,3 | expect: 4,5
    exploit_bad_index | input: 2,9 | expect: FAULT oob

A functional case expects printed outputs only: it passes when the run
finishes ok and the printed output matches exactly, and a timeout or a
fault is a plain failure. An `expect: FAULT` line is the suite's exploit
specification (input plus an optional fault kind), kept apart from the
functional cases, so the preserved-functionality ratio counts real tests
only; a second such line is an error. A verdict keeps the run's status
and output as they are, and formats nothing.

Patch evaluation judges inputs: each case, by its verdict, and the
anchored exploit, one more input, by whether it is blocked. It first runs
every input once on the unpatched program: a coverage probe that watches
the patched blocks. A patch rewrites one block `b` of one function and
nothing else, and the interpreter is deterministic, so a run that never
enters `b` does exactly what the unpatched run does, step for step. Each
patch therefore runs only the inputs whose probe entered its block; every
other input keeps the probe's outcome (safe regression test selection,
after Rothermel & Harrold, TOSEM 1997). Of the entering inputs, the probe
itself answers those whose patched block belongs to the entry function
and was first entered in the entry function's own frame, not in a call of
`main` by itself: the patch returns from `main` at that entry, which ends
the run, so up to there the patched run is the probe. The probe records
the entry's cut, the steps charged before it and the values printed by
then (`ExecutionResult.cuts`), and `interp.cut_result` gives the patched
run from it: the values printed by then, main's return of the error value
as one more step, or a timeout when that step is past the budget. A probe
stops as soon as it has entered every patched block; it then gives no
outcome, and every patch it does not answer runs that input. Malformed
IR, which `parse` never produces, raises `IRError` at the first probe,
before any patch runs. The preserved functionality ratio is
`passed/total` (0 with no cases), and ranking sorts by it descending,
compared exactly in integers, with deterministic tie-breaks: exploit
blocked first, then lower level, then block id, function, patch id.

Patches run as data: a patched run is the base program's run with
`patches={(function, block): error value}` (`synth.patch_returns`), which
behaves exactly as the `synth.apply_patch` variant would. The probes'
watch set is every patched block, so the interpreter compiles the base
program once, with a guard on each of those blocks, and that code serves
the probes and every patched run: evaluation builds and compiles no
patched program.
"""

from __future__ import annotations

import math
import sys
from functools import partial

from .ir import IRError, IRProgram, block_sort_key
from .minilang.interp import (
    DEFAULT_MAX_HEAP_CELLS,
    DEFAULT_MAX_STEPS,
    STATUS_COVERED,
    STATUS_FAULT,
    STATUS_OK,
    ExecutionResult,
    cut_result,
    run_program,
)
from .paths import Exploit, VulnerabilitySpec
from .record import Record, replace
from .synth import Patch, patch_returns

FAULT = "FAULT"


class SuiteError(Exception):
    pass


class TestCase(Record):
    name: str
    input: tuple[int, ...]
    expect: tuple[int, ...]


class TestSuite(Record):
    cases: tuple[TestCase, ...]
    exploit: Exploit | None = None

    def with_vulnerability(self, vuln: VulnerabilitySpec) -> "TestSuite":
        """Anchor the exploit to the vulnerability's statement (and adopt an
        exploit from the vulnerability spec when the suite has none)."""
        exploit = self.exploit if self.exploit is not None else vuln.exploit
        if exploit is None:
            return self
        return replace(
            self, exploit=replace(exploit, statement=vuln.statement)
        )


class Limits(Record):
    max_steps: int = DEFAULT_MAX_STEPS
    max_heap_cells: int = DEFAULT_MAX_HEAP_CELLS


def parse_suite(text: str) -> TestSuite:
    cases: list[TestCase] = []
    exploit: Exploit | None = None
    names: set[str] = set()
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3:
            raise SuiteError(f"line {number}: expected 'name | input: ... | expect: ...'")
        name = parts[0]
        if not name or name in names:
            raise SuiteError(f"line {number}: missing or duplicate case name {name!r}")
        names.add(name)
        if not parts[1].startswith("input:"):
            raise SuiteError(f"line {number}: second field must be 'input: ...'")
        if not parts[2].startswith("expect:"):
            raise SuiteError(f"line {number}: third field must be 'expect: ...'")
        input_values = _integers(parts[1][len("input:"):], number, "inputs")
        expect_text = parts[2][len("expect:"):].strip()
        words = expect_text.split(None, 1)
        if words and words[0] == FAULT:  # the whole word, alone or with a kind
            kind = words[1] if len(words) > 1 else None
            if exploit is None:
                exploit = Exploit(input=input_values, kind=kind)
            else:
                raise SuiteError(
                    f"line {number}: suite already has an exploit specification"
                )
            continue
        expect = _integers(expect_text, number, "expected outputs")
        cases.append(TestCase(name=name, input=input_values, expect=expect))
    return TestSuite(cases=tuple(cases), exploit=exploit)


def _integers(text: str, number: int, what: str) -> tuple[int, ...]:
    """The comma-separated integers of `text`; empty text is none, and an
    empty item is an error. Python converts at most
    `sys.get_int_max_str_digits()` digits (4300 by default)."""
    if not text.strip():
        return ()
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            digits = item.strip().lstrip("+-").replace("_", "")
            limit = sys.get_int_max_str_digits()
            if digits.isdigit() and len(digits) > limit > 0:
                raise SuiteError(
                    f"line {number}: {what}: an integer of {len(digits)} digits is too long"
                    f" (more than {limit} digits)"
                ) from None
            raise SuiteError(
                f"line {number}: {what} must be integers, one between each two commas"
            ) from None
    return tuple(values)


def load_suite(path) -> TestSuite:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_suite(handle.read())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


class CaseVerdict(Record):
    name: str
    passed: bool
    status: str
    output: tuple[int, ...]

    def __init__(self, name, passed, status, output):  # hot: see record.py
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "_values", (name, passed, status, output))


def _run(
    program: IRProgram, values, limits: Limits, watch=None, patches=None
) -> ExecutionResult:
    return run_program(
        program,
        values,
        max_steps=limits.max_steps,
        max_heap_cells=limits.max_heap_cells,
        watch=watch,
        patches=patches,
    )


def _verdict(case: TestCase, result: ExecutionResult) -> CaseVerdict:
    status, output = result.status, result.output
    return CaseVerdict(
        case.name, status == STATUS_OK and output == case.expect, status, output
    )


def _blocked(exploit: Exploit, result: ExecutionResult) -> bool:
    """A fault elsewhere, a clean exit, or a timeout all count as mitigated."""
    return result.status != STATUS_FAULT or result.fault_at != exploit.statement


# ---------------------------------------------------------------------------
# Patch evaluation and ranking
# ---------------------------------------------------------------------------


class PatchEvaluation(Record):
    patch: Patch
    passed: int
    total: int
    exploit_blocked: bool | None
    rank: int | None = None
    error: str | None = None
    verdicts: tuple[CaseVerdict, ...] = ()

    @property
    def pfr(self):
        """`passed/total` as a `Fraction`, 0 with no cases. `fractions` is
        imported here, on first read, because no CLI run reads it."""
        from fractions import Fraction

        return Fraction(self.passed, self.total) if self.total else Fraction(0)


def _probe(base: IRProgram, values, judge, limits: Limits, watch: frozenset):
    """The coverage probe of one input: `(entered, outcome, output, cuts)`,
    where `entered` holds the watched blocks the unpatched run entered,
    `outcome` is `judge` of its result, `output` what it printed and
    `cuts` maps each block that has a cut (`ExecutionResult.cuts`) to its
    `(steps, outputs)`. A probe that stopped early, having entered every
    watched block, has no outcome: a patch then runs the input itself
    unless its block has a cut."""
    result = _run(base, values, limits, watch)
    outcome = None if result.status == STATUS_COVERED else judge(result)
    return result.entered, outcome, result.output, dict(result.cuts)


def _evaluate_patch(
    base: IRProgram,
    patch: Patch,
    suite: TestSuite,
    limits: Limits,
    inputs: list[tuple[tuple, partial]],
    probes: list[tuple[frozenset, object, tuple, dict]],
) -> PatchEvaluation:
    try:
        returns = patch_returns(base, [patch])
    except IRError as exc:
        return PatchEvaluation(
            patch=patch,
            passed=0,
            total=len(suite.cases),
            exploit_blocked=None,
            error=str(exc),
        )
    key = (patch.location.function, patch.location.block)

    def patched(values, output, cuts) -> ExecutionResult:
        """The patched run of an input whose probe entered the block: read
        off the probe's cut when the block has one, run otherwise."""
        cut = cuts.get(key)
        if cut is None:
            return _run(base, values, limits, patches=returns)
        return cut_result(cut, output, returns[key], limits.max_steps)

    outcomes = [
        judge(patched(values, output, cuts)) if key in entered else outcome
        for (values, judge), (entered, outcome, output, cuts) in zip(inputs, probes)
    ]
    verdicts = tuple(outcomes[: len(suite.cases)])
    blocked = outcomes[-1] if len(outcomes) > len(verdicts) else None
    return PatchEvaluation(
        patch=patch,
        passed=sum(1 for v in verdicts if v.passed),
        total=len(verdicts),
        exploit_blocked=blocked,
        verdicts=verdicts,
    )


def evaluate_patches(
    base: IRProgram,
    patches: list[Patch],
    suite: TestSuite,
    limits: Limits = Limits(),
) -> list[PatchEvaluation]:
    """Evaluate every patch, running on its patched program only the cases
    (and the exploit) whose coverage probe entered the patched block.

    The probes run first, on the base program; the variants then run one
    after another, and the results come back in patch-id order.
    """
    if not patches:
        return []
    watch = frozenset((p.location.function, p.location.block) for p in patches)
    inputs = [(case.input, partial(_verdict, case)) for case in suite.cases]
    exploit = suite.exploit
    if exploit is not None and exploit.statement is not None:
        inputs.append((exploit.input, partial(_blocked, exploit)))
    probes = [_probe(base, values, judge, limits, watch) for values, judge in inputs]
    evaluations = [
        _evaluate_patch(base, p, suite, limits, inputs, probes) for p in patches
    ]
    evaluations.sort(key=lambda ev: ev.patch.id)
    return evaluations


def rank(evaluations: list[PatchEvaluation]) -> list[PatchEvaluation]:
    """Rank 1..n: PFR descending; ties broken by exploit blocked first, then
    lower level, then block id, function, and patch id. PFRs are compared
    as numerators over the totals' common multiple; a total of 0 is PFR 0."""
    common = math.lcm(*(ev.total for ev in evaluations if ev.total))

    def key(ev: PatchEvaluation):
        return (
            -ev.passed * (common // ev.total) if ev.total else 0,
            0 if ev.exploit_blocked else 1,
            ev.patch.location.level,
            block_sort_key(ev.patch.location.block),
            ev.patch.location.function,
            ev.patch.id,
        )

    ordered = sorted(evaluations, key=key)
    return [replace(ev, rank=i + 1) for i, ev in enumerate(ordered)]
