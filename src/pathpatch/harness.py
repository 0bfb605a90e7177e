"""Patched-variant evaluation: test suites, exploit checks, PFR, ranking.

Suite files hold one case per line:

    name | input: 1,2,3 | expect: 4,5
    exploit_bad_index | input: 2,9 | expect: FAULT oob

A case passes when the run finishes ok and the printed output matches
exactly; `expect: FAULT` lines are exploit specifications (input plus an
optional fault kind) and are kept apart from the functional cases, so the
preserved-functionality ratio counts real tests only. Timeouts and faults
on functional cases are plain failures.

Every patch is evaluated against a fresh copy of the base program; the
preserved functionality ratio is exact (a Fraction), and ranking sorts by
PFR descending with deterministic tie-breaks: exploit blocked first, then
lower level, then block id, function, patch id.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace
from fractions import Fraction

from .ir import IRError, IRProgram, block_sort_key
from .minilang.interp import (
    DEFAULT_MAX_HEAP_CELLS,
    DEFAULT_MAX_STEPS,
    STATUS_FAULT,
    STATUS_OK,
    run_program,
)
from .paths import Exploit, VulnerabilitySpec
from .synth import Patch, apply_patch

FAULT = "FAULT"


class SuiteError(Exception):
    pass


@dataclass(frozen=True)
class TestCase:
    name: str
    input: tuple[int, ...]
    expect: tuple[int, ...] | str  # output values, or FAULT


@dataclass(frozen=True)
class TestSuite:
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


@dataclass(frozen=True)
class Limits:
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


@dataclass(frozen=True)
class CaseVerdict:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    passed: int
    total: int
    verdicts: tuple[CaseVerdict, ...]


def _run_case(program: IRProgram, case: TestCase, limits: Limits) -> CaseVerdict:
    result = run_program(
        program,
        case.input,
        max_steps=limits.max_steps,
        max_heap_cells=limits.max_heap_cells,
    )
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


def run_test_suite(
    program: IRProgram, suite: TestSuite, limits: Limits = Limits()
) -> SuiteResult:
    verdicts = tuple(_run_case(program, case, limits) for case in suite.cases)
    passed = sum(1 for v in verdicts if v.passed)
    return SuiteResult(passed=passed, total=len(verdicts), verdicts=verdicts)


def check_exploit(
    program: IRProgram, suite: TestSuite, limits: Limits = Limits()
) -> bool:
    """True iff the exploit input no longer faults at the vulnerable statement.

    The exploit must be anchored (see TestSuite.with_vulnerability); a fault
    elsewhere, a clean exit, or a timeout all count as mitigated.
    """
    exploit = suite.exploit
    if exploit is None:
        raise SuiteError("suite has no exploit specification")
    if exploit.statement is None:
        raise SuiteError("exploit is not anchored to a vulnerable statement")
    result = run_program(
        program,
        exploit.input,
        max_steps=limits.max_steps,
        max_heap_cells=limits.max_heap_cells,
    )
    if result.status != STATUS_FAULT:
        return True
    return result.fault_at != exploit.statement


# ---------------------------------------------------------------------------
# Patch evaluation and ranking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchEvaluation:
    patch: Patch
    passed: int
    total: int
    pfr: Fraction
    exploit_blocked: bool | None
    rank: int | None = None
    error: str | None = None
    verdicts: tuple[CaseVerdict, ...] = ()


def evaluate_patch(
    base: IRProgram, patch: Patch, suite: TestSuite, limits: Limits
) -> PatchEvaluation:
    try:
        variant = apply_patch(base, patch)
    except IRError as exc:
        return PatchEvaluation(
            patch=patch,
            passed=0,
            total=len(suite.cases),
            pfr=Fraction(0),
            exploit_blocked=None,
            error=str(exc),
        )
    result = run_test_suite(variant, suite, limits)
    blocked = None
    if suite.exploit is not None and suite.exploit.statement is not None:
        blocked = check_exploit(variant, suite, limits)
    pfr = Fraction(result.passed, result.total) if result.total else Fraction(0)
    return PatchEvaluation(
        patch=patch,
        passed=result.passed,
        total=result.total,
        pfr=pfr,
        exploit_blocked=blocked,
        verdicts=result.verdicts,
    )


def evaluate_patches(
    base: IRProgram,
    patches: list[Patch],
    suite: TestSuite,
    limits: Limits = Limits(),
    jobs: int = 1,
) -> list[PatchEvaluation]:
    """Evaluate every patch against a fresh patched copy of the base program.

    Variants run independently (optionally in a worker pool); results are
    assembled in patch-id order so the outcome never depends on scheduling.
    """
    if not patches:
        return []
    if jobs <= 1:
        evaluations = [evaluate_patch(base, p, suite, limits) for p in patches]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(evaluate_patch, base, p, suite, limits): p.id
                for p in patches
            }
            by_id = {
                futures[future]: future.result()
                for future in concurrent.futures.as_completed(futures)
            }
        evaluations = [by_id[p.id] for p in patches]
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
