"""Command-line driver: subcommands, exit codes, output determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
import warnings

import pytest

from pathpatch import cli
from pathpatch.cli import run
from pathpatch.graphio import import_graph, load_graph_file
from pathpatch.locate import candidate_locations
from pathpatch.minilang import load_program, lower, parse, run_program
from pathpatch.minilang.parser import MAX_NESTING
from pathpatch.paths import (
    DEFAULT_ENUMERATION_CAP,
    build_program_path_graph,
    resolve_vulnerability,
)

from conftest import CORPUS, CORPUS_NAMES, ROOT, load_corpus_entry
from helpers import (
    RECURSIVE_CHAINS,
    call_fanout_program,
    call_fanout_source,
    expand_path_graph_document,
    fanout_document,
    frame_walks,
    long_path_source,
    pick_vulnerable_statement,
    random_program_tree,
    recursive_fanout_source,
    reference_path_graph,
    reference_path_graph_document,
)


def invoke(*argv) -> int:
    return run(list(argv))


def fanout_arguments(tmp_path, n) -> list[str]:
    """`--program` and `--vuln` for `call_fanout_source(n)`, written to `tmp_path`."""
    program = tmp_path / "fanout.mini"
    program.write_text(call_fanout_source(n))
    vuln = tmp_path / "fanout.vuln.json"
    vuln.write_text(json.dumps({"function": f"f{n}", "line": 4}))
    return ["--program", str(program), "--vuln", str(vuln)]


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
        assert doc["schema"] == "path-graph@3"
        assert doc["path_count"] == 6
        assert doc["chain_count"] == len(frame_walks(doc)) == 2
        assert "call_chains" not in doc and "paths" not in doc


def checked_document(program, vuln) -> dict:
    """The `path-graph@3` document of `program`, as written, after checking
    it against the `path-graph@1` document of the reference path graph."""
    ppg = build_program_path_graph(program, vuln)
    doc = json.loads(json.dumps(cli.path_graph_document(program, ppg)))
    reference = reference_path_graph_document(
        program, reference_path_graph(program, vuln), DEFAULT_ENUMERATION_CAP
    )
    assert expand_path_graph_document(doc, DEFAULT_ENUMERATION_CAP) == reference
    frames = doc["frames"]
    assert [frame["id"] for frame in frames] == list(range(len(frames)))
    walks = frame_walks(doc)
    # every frame once, in the order the chains first reach it
    first_seen = dict.fromkeys(i for ids in walks for i in ids)
    assert list(first_seen) == list(range(len(frames)))
    assert len({(f["function"], f["target_statement"]) for f in frames}) == len(frames)
    # `next` holds exactly the steps some chain takes
    assert {(a, b) for ids in walks for a, b in zip(ids, ids[1:])} == {
        (frame["id"], i) for frame in frames for i in frame["next"]
    }
    assert doc["chain_count"] == len(walks)
    assert doc["path_count"] == sum(
        math.prod(frames[i]["path_count"] for i in ids) for ids in walks
    )
    return doc


class TestPathGraphDocument:
    """`path-graph@3` lists each distinct frame once with the frames that
    follow it and its DAG's Ball–Larus increments; walked along `next` and
    decoded, it equals the `path-graph@1` document of the frame-by-frame
    reference path graph."""

    def test_corpus_matches_reference(self):
        for name in CORPUS_NAMES:
            program, vuln, _ = load_corpus_entry(name)
            checked_document(program, vuln)
        program = import_graph(load_graph_file(CORPUS / "abstract.graph.json"))
        checked_document(program, resolve_vulnerability(program, "f", statement="s5"))

    def test_random_programs_match_reference(self):
        rng = random.Random(6061)
        nonempty = 0
        for _ in range(120):
            program = lower(random_program_tree(rng))
            _, stmt = pick_vulnerable_statement(rng, program)
            vuln = resolve_vulnerability(program, stmt.split(":")[0], statement=stmt)
            nonempty += bool(checked_document(program, vuln)["frames"])
        assert nonempty > 40

    @pytest.mark.parametrize("n", range(1, 7))
    def test_call_fanout_matches_reference(self, n):
        doc = checked_document(*call_fanout_program(n))
        assert doc["chain_count"] == doc["path_count"] == 2**n
        assert len(doc["frames"]) == 2 * n + 2

    @pytest.mark.parametrize("dead", (0, 2))
    def test_dead_call_site_matches_reference(self, dead):
        program = import_graph(fanout_document(3, dead=dead))
        doc = checked_document(program, resolve_vulnerability(program, "f3", statement="vuln"))
        assert doc["chain_count"] == 4 and len(doc["frames"]) == 7
        assert len(doc["diagnostics"]) == 4

    def test_call_fanout_of_thirty_is_counted_not_listed(self, tmp_path):
        """2**30 chains over 62 frames: counted over the frames, never
        listed one by one."""
        args = fanout_arguments(tmp_path, 30)
        assert invoke("analyze", *args, "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "path_graph.json").read_text())
        assert doc["chain_count"] == doc["path_count"] == 2**30
        assert len(doc["frames"]) == 62

    @pytest.mark.parametrize("command", ["analyze", "locate", "all"])
    def test_recursion_past_the_walk_budget_is_a_diagnostic(self, tmp_path, capsys, command):
        """With recursion the chains are walked one by one; 2**18 chains
        take more than the walk's budget, which ends the run with one
        line."""
        program = tmp_path / "recursive.mini"
        program.write_text(recursive_fanout_source(18))
        vuln = tmp_path / "recursive.vuln.json"
        vuln.write_text(json.dumps({"function": "f18", "line": 4}))
        suite = tmp_path / "recursive.suite"
        suite.write_text("c0 | input: 1 | expect: 1\n")
        flags = ["--suite", str(suite)] if command == "all" else []
        code = invoke(command, "--program", str(program), "--vuln", str(vuln), *flags,
                      "--out", str(tmp_path / "out"))
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: walking the call chains one by one")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_recursion_makes_a_cycle_no_chain_closes(self):
        """With recursion the frame graph has a cycle; the chains are only
        the walks that repeat no function, listed in the chain search's
        order."""
        program = lower(parse(RECURSIVE_CHAINS))
        doc = checked_document(program, resolve_vulnerability(program, "v", line=3))
        assert doc["chain_count"] == 9 and len(doc["frames"]) == 10
        frames = doc["frames"]
        # f, g and h, each at its call of the next of the three
        at = {(f["function"], f["target_statement"]): f["id"] for f in frames}
        cycle = [at["f", "f:s2"], at["g", "g:s2"], at["h", "h:s2"]]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in frames[a]["next"]

    def test_document_lists_every_frame_and_no_chain_or_path(self, tmp_path):
        """`--cap` is gone: the document never lists chains or paths, so
        it has nothing left to bound."""
        args = fanout_arguments(tmp_path, 3)
        assert invoke("analyze", *args, "--cap", "4", "--out", str(tmp_path)) == 2
        assert invoke("analyze", *args, "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "path_graph.json").read_text())
        assert doc["chain_count"] == doc["path_count"] == 8
        assert "call_chains" not in doc and "paths" not in doc
        assert len(doc["frames"]) == 8 and len(frame_walks(doc)) == 8

    def test_call_fanout_of_nine_writes_each_frame_once(self, tmp_path):
        """512 chains over 20 distinct frames in a document under 20 KB;
        written out per chain, the same graph took 4.6 MB, and with every
        chain and path listed by frame id, 335 KB."""
        args = fanout_arguments(tmp_path, 9)
        assert invoke("analyze", *args, "--out", str(tmp_path)) == 0
        written = tmp_path / "path_graph.json"
        doc = json.loads(written.read_text())
        walks = frame_walks(doc)
        assert doc["chain_count"] == len(walks) == 512
        assert doc["path_count"] == 512
        frames = doc["frames"]
        assert len(frames) == 20
        reached = {
            (frames[i]["function"], frames[i]["target_statement"])
            for ids in walks
            for i in ids
        }
        assert len(reached) == 20
        assert written.stat().st_size < 20_000

    def test_long_paths_keep_the_document_linear_in_the_dag(self, tmp_path):
        """13 `if`s, then 200 loops: 8,192 paths, each through every loop
        header. The document grows with the blocks and edges of the frame
        DAG, not with the number of paths times their length."""
        program = tmp_path / "long.mini"
        program.write_text(long_path_source(13, 200))
        vuln = tmp_path / "long.vuln.json"
        vuln.write_text(json.dumps({"function": "main", "line": 3 + 3 * 13 + 3 * 200 + 1}))
        out = tmp_path / "out"
        assert invoke("analyze", "--program", str(program), "--vuln", str(vuln),
                      "--out", str(out)) == 0
        doc = json.loads((out / "path_graph.json").read_text())
        assert doc["path_count"] == 2**13
        (frame,) = doc["frames"]
        blocks, edges = len(frame["blocks"]), len(frame["edges"])
        assert blocks == 2 * 13 + 200 + 2  # no loop body is on a path
        size = (out / "path_graph.json").stat().st_size
        assert size < 120 * (blocks + edges), size


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

    def test_all_computes_the_candidates_once(self, monkeypatch, tmp_path):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return candidate_locations(*args, **kwargs)

        monkeypatch.setattr(cli, "candidate_locations", counting)
        code = cli.run(
            [
                "all",
                "--program", str(CORPUS / "bmp_reader.mini"),
                "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
                "--suite", str(CORPUS / "bmp_reader.suite"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert len(calls) == 1


BMP_INPUTS = (
    "--program", str(CORPUS / "bmp_reader.mini"),
    "--vuln", str(CORPUS / "bmp_reader.vuln.json"),
)


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--seed", "1"),
            ("analyze", "--jobs", "2"),
            ("analyze", "--mode", "minilang"),
            ("locate", "--max-steps", "5"),
            ("locate", "--cap", "3"),
            ("evaluate", "--cap", "3", "--suite", str(CORPUS / "bmp_reader.suite")),
            ("evaluate", "--jobs", "0", "--suite", str(CORPUS / "bmp_reader.suite")),
            ("analyze", "--cap", "0"),
            ("analyze", "--cap", "10000"),
            ("all", "--cap", "10000", "--suite", str(CORPUS / "bmp_reader.suite")),
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_flag_the_subcommand_does_not_use_is_a_usage_error(self, argv, capsys):
        command, *flags = argv
        assert invoke(command, *BMP_INPUTS, *flags) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--max-steps", "0"),
            ("--max-steps", "-5"),
            ("--max-heap-cells", "0"),
            ("--max-heap-cells", "-1"),
            ("--fuzz", "-3"),
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("command", ["evaluate", "all"])
    def test_budget_below_its_least_value_is_a_usage_error(self, command, flags, capsys):
        suite = ("--suite", str(CORPUS / "bmp_reader.suite"))
        assert invoke(command, *BMP_INPUTS, *suite, *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_importing_the_cli_loads_no_thread_pool(self):
        """Every run pays the import: no thread pool, and no `dataclasses`,
        whose per-class code generation and `inspect` import cost most of
        it."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        heavy = ("concurrent.futures", "dataclasses", "inspect")
        probe = f"import sys, pathpatch.cli; print([m for m in {heavy!r} if m in sys.modules])"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"


class TestVulnerabilitySpec:
    """JSON's `true` and `false` are Python integers, but no line number and
    no input value."""

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"function": "lookup", "line": True}, "line"),
            ({"function": "lookup", "line": 6, "exploit": {"input": [True, False]}}, "input"),
        ],
        ids=["line", "exploit input"],
    )
    def test_a_boolean_for_an_integer_is_an_input_error(self, tmp_path, capsys, spec, field):
        vuln = tmp_path / "twopath.vuln.json"
        vuln.write_text(json.dumps(spec))
        code = invoke("analyze", "--program", str(CORPUS / "twopath.mini"), "--vuln", str(vuln))
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: vulnerability spec field {field!r} must be")
        assert captured.err.count("\n") == 1


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

    def test_call_chain_of_1200_functions_analyzes_and_locates(self, tmp_path, capsys):
        """main -> f0 -> ... -> f1199: the chain search keeps an explicit
        stack, so chain depth is not bounded by the recursion limit."""
        n = 1200
        functions = [
            f"fn f{n - 1}(x: int) -> int {{\n    if (x > 0) {{\n"
            f"        x = x + 1;\n    }}\n    return x;\n}}\n"
        ]
        functions += [
            f"fn f{i}(x: int) -> int {{ return f{i + 1}(x); }}\n"
            for i in range(n - 2, -1, -1)
        ]
        functions.append(
            "fn main() -> int { let v: int = read_input(); print(f0(v)); return 0; }\n"
        )
        program = tmp_path / "deep.mini"
        program.write_text("".join(functions))
        vuln = tmp_path / "deep.vuln.json"
        vuln.write_text(json.dumps({"function": f"f{n - 1}", "line": 3}))
        for command in ("analyze", "locate"):
            code = invoke(
                command, "--program", str(program), "--vuln", str(vuln),
                "--out", str(tmp_path / "out"),
            )
            assert code == 0, capsys.readouterr().err
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "path_graph.json").read_text())
        assert doc["chain_count"] == 1
        frames = doc["frames"]
        assert [[frames[i]["function"] for i in ids] for ids in frame_walks(doc)] == [
            ["main"] + [f"f{i}" for i in range(n)]
        ]
        candidates = json.loads((tmp_path / "out" / "candidates.json").read_text())
        rows = [(row["function"], row["line"], row["level"]) for row in candidates["candidates"]]
        assert rows == [(f"f{n - 1}", 3, 0)]


    @staticmethod
    def _nested(tmp_path, kind, depth):
        """`all` arguments for a program nested `depth` levels deep, counted
        as the parser counts: the body block, one block per `if`, and the
        innermost expression with each pair of parentheses around `x`."""
        if kind == "if":
            ifs, parens = depth - 2, 0
        else:
            ifs, parens = 1, depth - 3
        body = (
            "    if (x > 0) {\n" * ifs
            + "    x = " + "(" * parens + "x" + ")" * parens + " + 1;\n"
            + "    }\n" * ifs
        )
        program = tmp_path / f"{kind}{depth}.mini"
        program.write_text(
            "fn main() -> int {\n    let x: int = read_input();\n"
            + body + "    print(x);\n    return 0;\n}\n"
        )
        vuln = tmp_path / "nested.vuln.json"
        vuln.write_text(json.dumps({"function": "main", "line": 2 * ifs + 4}))
        suite = tmp_path / "nested.suite"
        suite.write_text("up | input: 1 | expect: 2\nflat | input: 0 | expect: 0\n")
        return [
            "all", "--program", str(program), "--vuln", str(vuln),
            "--suite", str(suite), "--out", str(tmp_path / "out"),
        ]

    @pytest.mark.parametrize("kind", ["if", "paren"])
    def test_nesting_of_1000_is_a_parse_error(self, tmp_path, capsys, kind):
        """1000 nested ifs, or 1000 nested parentheses: a one-line parse
        error and exit 3, where the recursive descent used to die with a
        RecursionError traceback."""
        assert invoke(*self._nested(tmp_path, kind, 1000)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: nesting deeper than {MAX_NESTING} levels at line ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["if", "paren"])
    def test_nesting_at_the_limit_runs_through_all(self, tmp_path, capsys, kind):
        assert invoke(*self._nested(tmp_path, kind, MAX_NESTING)) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["patches"] >= 1
        assert invoke(*self._nested(tmp_path, kind, MAX_NESTING + 1)) == 3


    @staticmethod
    def _chain(tmp_path, operators):
        """(program path, `all` arguments) for `x = x + 1 + ... + 1;` with
        `operators` additions, inside one `if`; its deepest operand is
        `operators + 2` levels deep: the body block, the `if` block, the
        expression, and each `+` after the first."""
        program = tmp_path / f"chain{operators}.mini"
        program.write_text(
            "fn main() -> int {\n    let x: int = read_input();\n"
            "    if (x > 0) {\n        x = x" + " + 1" * operators + ";\n    }\n"
            "    print(x);\n    return 0;\n}\n"
        )
        vuln = tmp_path / "chain.vuln.json"
        vuln.write_text(json.dumps({"function": "main", "line": 4}))
        suite = tmp_path / "chain.suite"
        suite.write_text(
            f"up | input: 1 | expect: {1 + operators}\nflat | input: 0 | expect: 0\n"
        )
        return program, [
            "--program", str(program), "--vuln", str(vuln),
            "--suite", str(suite), "--out", str(tmp_path / "out"),
        ]

    @pytest.mark.parametrize("command", ["analyze", "all"])
    def test_operator_chain_of_1000_terms_is_a_parse_error(self, tmp_path, capsys, command):
        """A flat chain is parsed by a loop, but it nests one BinOp per
        operator; lowering used to die on 1000 terms with a RecursionError
        traceback."""
        _, args = self._chain(tmp_path, 999)
        if command == "analyze":
            args = args[:4]
        assert invoke(command, *args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: nesting deeper than {MAX_NESTING} levels at line 4, ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_operator_chain_at_the_limit_runs_through_all(self, tmp_path, capsys):
        program, args = self._chain(tmp_path, MAX_NESTING - 2)
        assert invoke("all", *args) == 0, capsys.readouterr().err
        assert run_program(load_program(program), [1]).output == (MAX_NESTING - 1,)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["summary"]["patches"] >= 1
        _, args = self._chain(tmp_path, MAX_NESTING - 1)
        assert invoke("all", *args) == 3


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_path_count_too_long_to_write_is_a_diagnostic(tmp_path, capsys, command):
    """2**2200 paths have 663 digits, past a limit of 640: one error line
    that gives the count's size in bits, exit 4, and nothing written."""
    k = 2200
    ladder = "".join(f"    if (x == {i}) {{ y = y + 1; }}\n" for i in range(k))
    program = tmp_path / "ladder.mini"
    program.write_text(
        "fn main() -> int {\n    let x: int = read_input();\n    let y: int = 0;\n"
        + ladder + "    print(y);\n    return 0;\n}\n"
    )
    vuln = tmp_path / "ladder.vuln.json"
    vuln.write_text(json.dumps({"function": "main", "line": k + 4}))
    suite = tmp_path / "ladder.suite"
    suite.write_text("one | input: 1 | expect: 1\n")
    extra = ["--suite", str(suite)] if command == "all" else []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = invoke(
            command, "--program", str(program), "--vuln", str(vuln),
            "--out", str(tmp_path / "out"), *extra,
        )
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert code == 4
    assert err.splitlines() == [
        f"error: a path count of {k + 1} bits is too long to write (more than 640 decimal digits)"
    ]
    assert out == "" and not (tmp_path / "out").exists()


def test_printed_value_past_4300_digits_runs_through_all(tmp_path, capsys):
    """A sum is outside the value budget, so 15,000 doublings print a value
    of 4,516 digits; a case that expects another output fails, and its
    verdict no longer writes the value out in decimal."""
    program = tmp_path / "doubling.mini"
    program.write_text(
        "fn main() -> int {\n    let x: int = read_input();\n    let i: int = 0;\n"
        "    while (i < 15000) {\n        x = x + x;\n        i = i + 1;\n    }\n"
        "    if (x < 0) {\n        x = 0 - x;\n    }\n    print(x);\n    return 0;\n}\n"
    )
    vuln = tmp_path / "doubling.vuln.json"
    vuln.write_text(json.dumps({"function": "main", "line": 9}))
    suite = tmp_path / "doubling.suite"
    suite.write_text("one | input: 1 | expect: 5\n")
    code = invoke(
        "all", "--program", str(program), "--vuln", str(vuln), "--suite", str(suite),
        "--out", str(tmp_path / "out"),
    )
    assert code == 0, capsys.readouterr().err
    assert run_program(load_program(program), [1]).output == (2**15000,)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["patches"] == 1


def graph_document(edges, conditional, vulnerable) -> str:
    """A one-function graph document for f: one statement per block, named
    after the block, and the blocks in `conditional` branch."""
    blocks = sorted({block for edge in edges for block in edge[:2]})
    return json.dumps(
        {
            "schema": "program-graph@1",
            "functions": [
                {
                    "name": "f",
                    "entry": "a",
                    "blocks": [
                        {"id": b, "conditional": b in conditional, "statements": [f"s_{b}"]}
                        for b in blocks
                    ],
                    "edges": [list(edge) for edge in edges],
                }
            ],
            "vulnerable": {"function": "f", "statement": f"s_{vulnerable}"},
        }
    )


class TestDiagnosticsAsData:
    """What the path graph degrades reaches the output documents as data;
    no Python warning is raised, so an error filter changes nothing."""

    @pytest.mark.parametrize(
        "edges, conditional, vulnerable, note",
        [
            (
                [("a", "b", 0), ("a", "c", 1), ("b", "c", None), ("c", "b", 0), ("c", "d", 1)],
                {"a", "c"},
                "d",
                "f: irreducible cycle; cut edges [('c', 'b')]",
            ),
            (
                [("a", "b", 0), ("a", "v", 1), ("b", "b", None)],
                {"a"},
                "v",
                "f:b cannot reach any exit; attached to exit",
            ),
        ],
        ids=["irreducible-cycle", "no-exit"],
    )
    def test_notes_reach_the_path_graph_under_an_error_filter(
        self, tmp_path, capsys, edges, conditional, vulnerable, note
    ):
        program = tmp_path / "f.graph.json"
        program.write_text(graph_document(edges, conditional, vulnerable))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [
                invoke(command, "--program", str(program), "--out", str(out))
                for command in ("analyze", "locate")
            ]
        assert codes == [0, 0]
        # no Python warning or traceback: analyze and locate each print the
        # note once, and locate's walk has none of its own
        assert capsys.readouterr().err == f"note: {note}\n" * 2
        assert json.loads((out / "path_graph.json").read_text())["diagnostics"] == [note]
        assert json.loads((out / "candidates.json").read_text())["warnings"] == []

    def test_locate_alone_prints_the_path_graph_notes(self, tmp_path, capsys):
        """A locate-only run says that the irreducible cycle was cut, though
        `candidates.json` keeps only the candidate walk's notes."""
        program = tmp_path / "f.graph.json"
        program.write_text(
            graph_document(
                [("a", "b", 0), ("a", "c", 1), ("b", "c", None), ("c", "b", 0), ("c", "d", 1)],
                {"a", "c"},
                "d",
            )
        )
        code = invoke("locate", "--program", str(program), "--out", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().err == "note: f: irreducible cycle; cut edges [('c', 'b')]\n"
        assert json.loads((tmp_path / "candidates.json").read_text())["warnings"] == []
