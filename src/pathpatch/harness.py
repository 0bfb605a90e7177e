"""Patched-variant evaluation: test suites, exploit checks, PFR, ranking.

Suite files hold one case per line:

    name | input: 1,2,3 | expect: 4,5
    exploit_bad_index | input: 2,9 | expect: FAULT oob

A case passes when the run finishes ok and the printed output matches
exactly; `expect: FAULT` lines are exploit specifications (input plus an
optional fault kind) and are kept apart from the functional cases, so the
preserved-functionality ratio counts real tests only. Timeouts and faults
on functional cases are plain failures.

Patch evaluation first runs every case, and the exploit, once on the
unpatched program: a coverage probe that watches the patched blocks. A
patch rewrites one block `b` of one function and nothing else, and the
interpreter is deterministic, so a run that never enters `b` does exactly
what the unpatched run does, step for step. Each patch therefore runs only
the cases whose probe entered its block; every other case keeps the
probe's verdict, and the exploit the probe's outcome (safe regression test
selection, after Rothermel & Harrold, TOSEM 1997). A probe stops as soon
as it has entered every patched block; it then gives no verdict, and every
patch runs that case. The preserved functionality ratio is exact (a
Fraction), and ranking sorts by PFR descending with deterministic
tie-breaks: exploit blocked first, then lower level, then block id,
function, patch id.

Patches run as data: a patched run is the base program's run with
`patches={(function, block): error value}` (`synth.patch_returns`), which
behaves exactly as the `synth.apply_patch` variant would. The probes'
watch set is every patched block, so the interpreter compiles the base
program once, with a guard on each of those blocks, and that code serves
the probes and every patched run: evaluation builds and compiles no
patched program.
"""

from __future__ import annotations

from fractions import Fraction

from .ir import IRError, IRProgram, block_sort_key
from .minilang.interp import (
    DEFAULT_MAX_HEAP_CELLS,
    DEFAULT_MAX_STEPS,
    STATUS_COVERED,
    STATUS_FAULT,
    STATUS_OK,
    ExecutionResult,
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
    expect: tuple[int, ...] | str  # output values, or FAULT


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
        input_text = parts[1][len("input:"):].strip()
        expect_text = parts[2][len("expect:"):].strip()
        try:
            input_values = tuple(
                int(v) for v in input_text.split(",") if v.strip() != ""
            )
        except ValueError:
            raise SuiteError(f"line {number}: inputs must be integers") from None
        if expect_text.startswith(FAULT):
            kind = expect_text[len(FAULT):].strip() or None
            if exploit is None:
                exploit = Exploit(input=input_values, kind=kind)
            else:
                raise SuiteError(
                    f"line {number}: suite already has an exploit specification"
                )
            continue
        try:
            expect = tuple(int(v) for v in expect_text.split(",") if v.strip() != "")
        except ValueError:
            raise SuiteError(f"line {number}: expected outputs must be integers") from None
        cases.append(TestCase(name=name, input=input_values, expect=expect))
    return TestSuite(cases=tuple(cases), exploit=exploit)


def load_suite(path) -> TestSuite:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_suite(handle.read())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


class CaseVerdict(Record):
    name: str
    passed: bool
    detail: str

    def __init__(self, name, passed, detail):  # hot: see record.py
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "_values", (name, passed, detail))


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
    if case.expect == FAULT:
        if result.status == STATUS_FAULT:
            return CaseVerdict(case.name, True, f"fault {result.fault_kind}")
        return CaseVerdict(case.name, False, f"expected a fault, got {result.status}")
    if result.status != STATUS_OK:
        return CaseVerdict(case.name, False, result.status)
    if result.output != case.expect:
        return CaseVerdict(
            case.name,
            False,
            f"output {list(result.output)} != expected {list(case.expect)}",
        )
    return CaseVerdict(case.name, True, "ok")


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
    pfr: Fraction
    exploit_blocked: bool | None
    rank: int | None = None
    error: str | None = None
    verdicts: tuple[CaseVerdict, ...] = ()


def _probe(base: IRProgram, values, limits: Limits, watch: frozenset):
    """The coverage probe of one input: `(entered, result)`, where `entered`
    holds the watched blocks the unpatched run entered and `result` is its
    outcome. A probe that stopped early, having entered every watched block,
    has no result, and neither has one that met malformed IR: every patch
    then runs the input itself, and a patch that rewrites the malformed
    block, or returns before it, does not fail."""
    try:
        result = _run(base, values, limits, watch)
    except (IRError, KeyError):
        return watch, None
    if result.status == STATUS_COVERED:
        return watch, None
    return result.entered, result


def _evaluate_patch(
    base: IRProgram,
    patch: Patch,
    suite: TestSuite,
    limits: Limits,
    cases: list[tuple[frozenset, CaseVerdict | None]],
    exploit: tuple[frozenset, bool | None] | None,
) -> PatchEvaluation:
    try:
        returns = patch_returns(base, [patch])
    except IRError as exc:
        return PatchEvaluation(
            patch=patch,
            passed=0,
            total=len(suite.cases),
            pfr=Fraction(0),
            exploit_blocked=None,
            error=str(exc),
        )
    key = (patch.location.function, patch.location.block)
    verdicts = tuple(
        _verdict(case, _run(base, case.input, limits, patches=returns))
        if key in entered
        else verdict
        for case, (entered, verdict) in zip(suite.cases, cases)
    )
    blocked = None
    if exploit is not None:
        entered, blocked = exploit
        if key in entered:
            result = _run(base, suite.exploit.input, limits, patches=returns)
            blocked = _blocked(suite.exploit, result)
    passed = sum(1 for v in verdicts if v.passed)
    return PatchEvaluation(
        patch=patch,
        passed=passed,
        total=len(verdicts),
        pfr=Fraction(passed, len(verdicts)) if verdicts else Fraction(0),
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
    cases = []
    for case in suite.cases:
        entered, result = _probe(base, case.input, limits, watch)
        cases.append((entered, None if result is None else _verdict(case, result)))
    exploit = None
    if suite.exploit is not None and suite.exploit.statement is not None:
        entered, result = _probe(base, suite.exploit.input, limits, watch)
        exploit = (entered, None if result is None else _blocked(suite.exploit, result))
    evaluations = [
        _evaluate_patch(base, p, suite, limits, cases, exploit) for p in patches
    ]
    evaluations.sort(key=lambda ev: ev.patch.id)
    return evaluations


def rank(evaluations: list[PatchEvaluation]) -> list[PatchEvaluation]:
    """Rank 1..n: PFR descending; ties broken by exploit blocked first, then
    lower level, then block id, function, and patch id."""
    def key(ev: PatchEvaluation):
        return (
            -ev.pfr,
            0 if ev.exploit_blocked else 1,
            ev.patch.location.level,
            block_sort_key(ev.patch.location.block),
            ev.patch.location.function,
            ev.patch.id,
        )

    ordered = sorted(evaluations, key=key)
    return [replace(ev, rank=i + 1) for i, ev in enumerate(ordered)]
