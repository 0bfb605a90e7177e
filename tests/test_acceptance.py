"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with its
measured runtime so the whole gate can be read off `pytest -v -s
tests/test_acceptance.py`. Budgets are asserted, generously sized so a
slow machine does not flip a passing criterion.
"""

import json
import random
import time
from fractions import Fraction

from pathpatch.checks import cut_disconnects, fuzz_vulnerability
from pathpatch.cli import run as cli_run
from pathpatch.graphio import import_graph, load_graph_file, pfr_display
from pathpatch.harness import evaluate_patches, rank
from pathpatch.locate import candidate_locations
from pathpatch.minilang import parse, run_program
from pathpatch.paths import (
    build_program_path_graph,
    enumerate_paths,
    resolve_vulnerability,
)
from pathpatch.synth import apply_patches, infer_error_return, synthesize_patches
from pathpatch.analysis import compute_control_dependencies

from conftest import CORPUS, CORPUS_NAMES, load_corpus_entry
from helpers import (
    bf_control_deps,
    bf_interprocedural_paths,
    pick_vulnerable_statement,
    random_cfg,
    random_program_source,
)


class Criterion:
    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number} {verdict} "
            f"({elapsed:.2f}s / {self.budget:.0f}s budget): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_abstract_graph_candidates():
    with Criterion(1, "abstract two-route graph yields candidates {1, 4, 2, 3}", 1.0):
        program = import_graph(load_graph_file(CORPUS / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        ppg = build_program_path_graph(program, vuln)
        paths = {
            "-".join(block for _, block in path) for path in enumerate_paths(ppg)
        }
        assert paths == {"a-1-b-2-c-4-5", "a-1-b-3-c-4-5"}
        locations = candidate_locations(ppg)
        assert {loc.block for loc in locations} == {"1", "4", "2", "3"}


def test_criterion_2_walkthrough_program():
    with Criterion(
        2, "walkthrough: path 4-5-11-12-13-15-16, candidates 5/13/16, nil", 1.0
    ):
        program, vuln, _ = load_corpus_entry("bmp_reader")
        fn = program.functions["read_image"]
        ppg = build_program_path_graph(program, vuln)
        frame = next(
            fp
            for cp in ppg.chains
            for fp in cp.frames
            if fp.frame.function == "read_image"
        )
        lines = [fn.blocks[b].line for b in frame.dag.blocks]
        assert lines == [4, 5, 11, 12, 13, 15, 16]
        conditional_lines = sorted(
            fn.blocks[b].line for b in frame.dag.blocks if b in frame.conditional
        )
        assert conditional_lines == [4, 11, 12, 15]
        candidate_lines = sorted(
            fn.blocks[loc.block].line
            for loc in candidate_locations(ppg)
            if loc.function == "read_image"
        )
        assert candidate_lines == [5, 13, 16]
        from pathpatch.ir import NilConst

        assert infer_error_return(fn).value == NilConst()


def test_criterion_3_headline_mirror():
    with Criterion(3, "87-case suite: best patch passes 85, shown as 85 (98%)", 10.0):
        program, vuln, suite = load_corpus_entry("bmp_reader")
        assert len(suite.cases) == 87
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        ranked = rank(evaluate_patches(program, patches, suite))
        best = ranked[0]
        assert best.rank == 1
        assert (best.passed, best.total) == (85, 87)
        assert pfr_display(best.passed, best.total) == "85 (98%)"
        assert best.patch.location.level == 1
        from pathpatch.graphio import build_report, render_report_text

        report = build_report(ranked, {"levels": 3})
        rank1_row = next(
            line
            for line in render_report_text(report).splitlines()
            if line.strip().startswith("1 ")
        )
        assert "85 (98%)" in rank1_row


def test_criterion_4_control_dependence_oracle():
    with Criterion(
        4, "control dependence equals brute force on 1000 random CFGs", 60.0
    ):
        rng = random.Random(0xC0FFEE)
        mismatches = 0
        for _ in range(1000):
            fn = random_cfg(rng, max_blocks=10)
            cdg = compute_control_dependencies(fn)
            ours = {(d.governed, d.governor, d.branch_index) for d in cdg.deps}
            if ours != bf_control_deps(fn):
                mismatches += 1
        assert mismatches == 0


def test_criterion_5_path_graph_oracle():
    with Criterion(
        5, "path graph equals exhaustive enumeration on 500 random programs", 120.0
    ):
        rng = random.Random(0xBEEF)
        checked = 0
        mismatches = 0
        while checked < 500:
            program = parse(random_program_source(rng, max_functions=5))
            if any(
                len(fn.blocks) > 10 for fn in program.functions.values()
            ):
                continue
            _, stmt = pick_vulnerable_statement(rng, program)
            vuln_fn = stmt.split(":")[0]
            expected = sorted(bf_interprocedural_paths(program, stmt))
            if len(expected) > 4000:
                continue
            vuln = resolve_vulnerability(program, vuln_fn, statement=stmt)
            ppg = build_program_path_graph(program, vuln)
            actual = sorted(enumerate_paths(ppg, cap=None))
            if actual != expected:
                mismatches += 1
            checked += 1
        assert mismatches == 0


def test_criterion_6_cut_property():
    with Criterion(
        6, "deleting all candidates disconnects; fuzzing never hits the flaw", 60.0
    ):
        for name in CORPUS_NAMES:
            program, vuln, _ = load_corpus_entry(name)
            ppg = build_program_path_graph(program, vuln)
            locations = candidate_locations(ppg)
            assert cut_disconnects(program, vuln.statement, locations), name
            patches = synthesize_patches(program, locations)
            fully_patched = apply_patches(program, patches)
            runs, hits = fuzz_vulnerability(
                fully_patched, vuln.statement, runs=100, seed=7
            )
            assert runs == 100 and hits == 0, name


def test_criterion_7_per_patch_mitigation():
    with Criterion(
        7, "every patch on the exploit's path blocks the exploit", 60.0
    ):
        from helpers import check_exploit
        from pathpatch.synth import apply_patch

        for name in CORPUS_NAMES:
            program, vuln, suite = load_corpus_entry(name)
            trace = run_program(
                program, suite.exploit.input, record_trace=True
            ).trace
            executed = set(trace)
            ppg = build_program_path_graph(program, vuln)
            patches = synthesize_patches(program, candidate_locations(ppg))
            on_path = [
                p
                for p in patches
                if (p.location.function, p.location.block) in executed
            ]
            assert on_path, f"{name}: no candidate on the exploit path"
            for patch in on_path:
                patched = apply_patch(program, patch)
                assert check_exploit(patched, suite), f"{name}: {patch.id}"


def test_criterion_8_ranking_contract():
    with Criterion(8, "1000 random rankings sorted with exact tie-breaks", 10.0):
        from test_harness import make_eval

        rng = random.Random(31337)
        for _ in range(1000):
            n = rng.randint(0, 15)
            evals = [
                make_eval(
                    Fraction(rng.randint(0, t), t),
                    rng.random() < 0.5,
                    rng.randint(0, 5),
                    f"b{rng.randint(0, 30)}",
                    function=rng.choice("pqr"),
                    patch_id=f"p{i}",
                )
                for i, t in enumerate(
                    rng.randint(1, 12) for _ in range(n)
                )
            ]
            ranked = rank(evals)
            assert sorted(ev.rank for ev in ranked) == list(range(1, n + 1))
            for a, b in zip(ranked, ranked[1:]):
                key_a = (
                    -a.pfr,
                    0 if a.exploit_blocked else 1,
                    a.patch.location.level,
                    (len(a.patch.location.block), a.patch.location.block),
                    a.patch.location.function,
                    a.patch.id,
                )
                key_b = (
                    -b.pfr,
                    0 if b.exploit_blocked else 1,
                    b.patch.location.level,
                    (len(b.patch.location.block), b.patch.location.block),
                    b.patch.location.function,
                    b.patch.id,
                )
                assert key_a <= key_b


def test_criterion_9_determinism_across_parallelism(tmp_path):
    with Criterion(
        9, "evaluate writes byte-identical report.json with --jobs 1 and 8", 300.0
    ):
        for name in CORPUS_NAMES:
            reports = {}
            for jobs in ("1", "8"):
                out = tmp_path / f"{name}-{jobs}"
                code = cli_run(
                    [
                        "evaluate",
                        "--program", str(CORPUS / f"{name}.mini"),
                        "--vuln", str(CORPUS / f"{name}.vuln.json"),
                        "--suite", str(CORPUS / f"{name}.suite"),
                        "--out", str(out),
                        "--jobs", jobs,
                    ]
                )
                assert code == 0, name
                reports[jobs] = (out / "report.json").read_bytes()
            assert reports["1"] == reports["8"], name
