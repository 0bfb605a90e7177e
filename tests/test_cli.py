"""Command-line driver: subcommands, exit codes, output determinism."""

import json
import time

from pathpatch.cli import run

from conftest import CORPUS


def invoke(*argv) -> int:
    return run(list(argv))


class TestAnalyze:
    def test_abstract_graph_reports_two_paths(self, capsys):
        code = invoke("analyze", "--program", str(CORPUS / "abstract.graph.json"))
        assert code == 0
        out = capsys.readouterr().out
        assert "2 maximal path(s)" in out

    def test_missing_program_file_is_a_usage_error(self, capsys):
        code = invoke(
            "analyze",
            "--program", str(CORPUS / "missing.mini"),
            "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
        )
        assert code == 2

    def test_unreachable_vulnerability_is_a_diagnostic(self, tmp_path, capsys):
        program = tmp_path / "island.mini"
        program.write_text(
            "fn island(i: int) -> int { let t: int = i; if (t > 0) { t = t + 1; } return t; }\n"
            "fn main() -> int { return 0; }\n"
        )
        vuln = tmp_path / "island.vuln.json"
        vuln.write_text(json.dumps({"function": "island"}))
        code = invoke("analyze", "--program", str(program), "--vuln", str(vuln))
        assert code == 4
        assert "unreachable" in capsys.readouterr().err

    def test_parse_error_is_an_input_error(self, tmp_path):
        bad = tmp_path / "bad.mini"
        bad.write_text("fn main() -> int { let = ; }")
        vuln = tmp_path / "v.json"
        vuln.write_text(json.dumps({"function": "main"}))
        assert invoke("analyze", "--program", str(bad), "--vuln", str(vuln)) == 3

    def test_writes_path_graph_document(self, tmp_path):
        code = invoke(
            "analyze",
            "--program", str(CORPUS / "bmp_reader.mini"),
            "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "path_graph.json").read_text())
        assert doc["path_count"] == 6
        assert len(doc["chains"]) == 2


class TestLocate:
    def test_abstract_graph_candidates(self, tmp_path):
        code = invoke(
            "locate",
            "--program", str(CORPUS / "abstract.graph.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "candidates.json").read_text())
        assert {row["block"] for row in doc["candidates"]} == {"1", "2", "3", "4"}

    def test_bmp_reader_level0_lines(self, tmp_path):
        code = invoke(
            "locate",
            "--program", str(CORPUS / "bmp_reader.mini"),
            "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "candidates.json").read_text())
        level0 = sorted(
            row["line"] for row in doc["candidates"] if row["level"] == 0
        )
        assert level0 == [5, 13, 16]

    def test_no_conditionals_warns_with_empty_list(self, tmp_path, capsys):
        program = tmp_path / "flat.mini"
        program.write_text("fn main() -> int { let x: int = 1; print(x); return x; }\n")
        vuln = tmp_path / "v.json"
        vuln.write_text(json.dumps({"function": "main"}))
        code = invoke(
            "locate", "--program", str(program), "--vuln", str(vuln),
            "--out", str(tmp_path),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        doc = json.loads((tmp_path / "candidates.json").read_text())
        assert doc["candidates"] == []
        assert doc["warnings"]


class TestEvaluate:
    def test_headline_report(self, tmp_path):
        code = invoke(
            "evaluate",
            "--program", str(CORPUS / "bmp_reader.mini"),
            "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
            "--suite", str(CORPUS / "bmp_reader.suite"),
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["best_display"] == "85 (98%)"
        assert report["summary"]["best_patch_level"] == 1
        assert report["summary"]["levels"] == 3
        text = (tmp_path / "report.txt").read_text()
        assert "85 (98%)" in text

    def test_zero_pfr_run_still_exits_zero(self, tmp_path):
        code = invoke(
            "evaluate",
            "--program", str(CORPUS / "mandatory.mini"),
            "--vuln", str(CORPUS / "mandatory.vuln.json"),
            "--suite", str(CORPUS / "mandatory.suite"),
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["patches"][0]["pfr_percent"] == 0

    def test_graph_mode_evaluation_is_refused(self, capsys):
        code = invoke(
            "evaluate",
            "--program", str(CORPUS / "abstract.graph.json"),
            "--suite", str(CORPUS / "bmp_reader.suite"),
        )
        assert code == 2
        assert "cannot be executed" in capsys.readouterr().err

    def test_reports_identical_across_job_counts(self, tmp_path):
        for name in ("bmp_reader", "mandatory", "twopath", "sideeffect", "dispatch"):
            outputs = {}
            for jobs in ("1", "8"):
                out = tmp_path / f"{name}-j{jobs}"
                code = invoke(
                    "evaluate",
                    "--program", str(CORPUS / f"{name}.mini"),
                    "--vuln", str(CORPUS / f"{name}.vuln.json"),
                    "--suite", str(CORPUS / f"{name}.suite"),
                    "--out", str(out),
                    "--jobs", jobs,
                )
                assert code == 0
                outputs[jobs] = (out / "report.json").read_bytes()
            assert outputs["1"] == outputs["8"], f"{name} report differs across jobs"

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"run{attempt}"
            invoke(
                "evaluate",
                "--program", str(CORPUS / "dispatch.mini"),
                "--vuln", str(CORPUS / "dispatch.vuln.json"),
                "--suite", str(CORPUS / "dispatch.suite"),
                "--out", str(out),
            )
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_analyze_and_locate_outputs_are_byte_stable(self, tmp_path):
        blobs = {}
        for attempt in range(2):
            out = tmp_path / f"stable{attempt}"
            assert invoke(
                "all",
                "--program", str(CORPUS / "bmp_reader.mini"),
                "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
                "--suite", str(CORPUS / "bmp_reader.suite"),
                "--out", str(out),
            ) == 0
            for name in ("path_graph.json", "candidates.json", "report.json"):
                blobs.setdefault(name, []).append((out / name).read_bytes())
        for name, pair in blobs.items():
            assert pair[0] == pair[1], name

    def test_fuzz_summary_appears_in_report(self, tmp_path):
        code = invoke(
            "evaluate",
            "--program", str(CORPUS / "twopath.mini"),
            "--vuln", str(CORPUS / "twopath.vuln.json"),
            "--suite", str(CORPUS / "twopath.suite"),
            "--out", str(tmp_path),
            "--fuzz", "50",
            "--seed", "3",
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fuzz"]["runs"] == 50
        assert report["fuzz"]["vulnerable_faults"] == 0
        assert report["fuzz"]["cut_disconnects"] is True

    def test_fuzz_respects_the_heap_budget(self, tmp_path):
        """The flaw is reachable only past a 100-cell allocation; no patch
        location guards it, so only the heap budget stops the fuzz hits."""
        program = tmp_path / "heap.mini"
        program.write_text(
            "fn main() -> int {\n"
            "    let big: ref = alloc(100);\n"
            "    let b: ref = alloc(8);\n"
            "    let x: int = read_input();\n"
            "    b[x] = 1;\n"
            "    return 0;\n"
            "}\n"
        )
        vuln = tmp_path / "heap.vuln.json"
        vuln.write_text(json.dumps({"function": "main", "line": 5}))
        suite = tmp_path / "heap.suite"
        suite.write_text("small | input: 1 | expect:\n")
        hits = {}
        for cells in ("1000000", "50"):
            out = tmp_path / cells
            code = invoke(
                "evaluate",
                "--program", str(program),
                "--vuln", str(vuln),
                "--suite", str(suite),
                "--out", str(out),
                "--fuzz", "50",
                "--max-heap-cells", cells,
            )
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            hits[cells] = report["fuzz"]["vulnerable_faults"]
        assert hits["1000000"] > 0
        assert hits["50"] == 0


class TestAll:
    def test_chains_all_three_phases(self, tmp_path):
        code = invoke(
            "all",
            "--program", str(CORPUS / "bmp_reader.mini"),
            "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
            "--suite", str(CORPUS / "bmp_reader.suite"),
            "--out", str(tmp_path),
        )
        assert code == 0
        for name in ("path_graph.json", "candidates.json", "report.json", "report.txt"):
            assert (tmp_path / name).exists()

    def test_usage_error_without_subcommand(self):
        assert invoke() == 2


class TestDeepInputs:
    def test_if_ladder_of_600_analyzes_and_locates(self, tmp_path, capsys):
        """600 sequential ifs before the vulnerable statement: no recursion
        limit in the path or candidate walks, and no re-walk of shared
        conditional successors."""
        k = 600
        ladder = "".join(f"    if (x == {i}) {{ y = y + {i % 7 + 1}; }}\n" for i in range(k))
        program = tmp_path / "ladder.mini"
        program.write_text(
            "fn main() -> int {\n    let x: int = read_input();\n    let y: int = 0;\n"
            + ladder
            + "    let v: int = y;\n    print(v);\n    return 0;\n}\n"
        )
        vuln = tmp_path / "ladder.vuln.json"
        vuln.write_text(json.dumps({"function": "main", "line": k + 4}))
        for command in ("analyze", "locate"):
            start = time.perf_counter()
            code = invoke(
                command, "--program", str(program), "--vuln", str(vuln),
                "--out", str(tmp_path / "out"),
            )
            elapsed = time.perf_counter() - start
            assert code == 0, capsys.readouterr().err
            assert elapsed < 4.0, f"{command} took {elapsed:.1f} s"
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "path_graph.json").read_text())
        assert doc["path_count"] == 2**k
        candidates = json.loads((tmp_path / "out" / "candidates.json").read_text())
        assert len(candidates["candidates"]) == k + 1
        assert candidates["warnings"] == []
