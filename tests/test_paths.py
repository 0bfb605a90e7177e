"""Call chains, intraprocedural path DAGs, and the program path graph."""

import random

import pytest

from pathpatch import cli
from pathpatch.analysis import build_call_graph
from pathpatch.graphio import import_graph, load_graph_file
from pathpatch.minilang import parse, run_program
from pathpatch.paths import (
    PathEnumerationError,
    build_program_path_graph,
    chain_facts,
    count_paths,
    enumerate_paths,
    intraprocedural_paths,
    resolve_vulnerability,
)

from conftest import CORPUS, CORPUS_NAMES, load_corpus_entry
from helpers import (
    RECURSIVE_CHAINS,
    bf_interprocedural_paths,
    bf_simple_paths,
    call_fanout_program,
    fanout_document,
    find_call_chains,
    level_of,
    make_function,
    pick_vulnerable_statement,
    random_program_source,
    recursive_fanout_source,
    reference_path_graph,
)


class TestCallChains:
    def test_three_frame_shape(self):
        program = parse(
            "fn read_image(i: int) -> int { return i; }"
            "fn input_bmp_reader(i: int) -> int { return read_image(i); }"
            "fn main() -> int { return input_bmp_reader(1); }"
        )
        chains = find_call_chains(build_call_graph(program), "read_image", "main")
        assert len(chains) == 1
        assert chains[0].functions == ("main", "input_bmp_reader", "read_image")
        assert len(chains[0].frames) == 3
        assert chains[0].frames[-1].call_site is None

    def test_vulnerable_function_is_entry(self):
        program = parse("fn main() -> int { return 0; }")
        chains = find_call_chains(build_call_graph(program), "main", "main")
        assert len(chains) == 1
        assert chains[0].functions == ("main",)

    def test_two_callers_give_two_chains(self):
        program = parse(
            "fn target(i: int) -> int { return i; }"
            "fn left() -> int { return target(1); }"
            "fn right() -> int { return target(2); }"
            "fn main() -> int { return left() + right(); }"
        )
        chains = find_call_chains(build_call_graph(program), "target", "main")
        middles = sorted(c.functions[1] for c in chains)
        assert middles == ["left", "right"]

    def test_unreachable_function_means_no_chains(self):
        program = parse(
            "fn island(i: int) -> int { return i; }"
            "fn main() -> int { return 0; }"
        )
        assert find_call_chains(build_call_graph(program), "island", "main") == []

    def test_recursion_contributes_one_frame(self):
        program = parse(
            "fn rec(n: int) -> int { if (n <= 0) { return 0; } return rec(n - 1); }"
            "fn main() -> int { return rec(5); }"
        )
        chains = find_call_chains(build_call_graph(program), "rec", "main")
        assert [c.functions for c in chains] == [("main", "rec")]

    def test_chains_via_function_references(self, corpus_dir):
        program = parse((corpus_dir / "dispatch.mini").read_text())
        chains = find_call_chains(build_call_graph(program), "handler_risky", "main")
        assert len(chains) == 2  # two call sites in main, both through run
        assert {c.functions for c in chains} == {("main", "run", "handler_risky")}


class TestIntraproceduralPaths:
    def test_bmp_reader_walkthrough_path(self, bmp_reader):
        program, vuln, _ = bmp_reader
        fn = program.functions["read_image"]
        dag = intraprocedural_paths(fn, fn.entry_block, "b6")
        lines = [fn.blocks[b].line for b in dag.blocks]
        assert lines == [4, 5, 11, 12, 13, 15, 16]
        conditional_lines = sorted(
            fn.blocks[b].line for b in dag.blocks if fn.blocks[b].is_conditional
        )
        assert conditional_lines == [4, 11, 12, 15]

    def test_source_equals_target(self):
        fn = make_function({"a": ["b"], "b": []}, entry="a")
        dag = intraprocedural_paths(fn, "a", "a")
        assert dag.blocks == ("a",)
        assert dag.edges == ()

    def test_unreachable_target_gives_empty_dag(self):
        fn = make_function({"a": ["b"], "b": [], "c": []}, entry="a")
        assert intraprocedural_paths(fn, "a", "c").empty

    def test_loop_header_stays_conditional_but_back_edge_is_excluded(self):
        program = parse(
            "fn main() -> int { let x: int = 0;"
            " while (x < 5) { x = x + 1; }"
            " let y: int = x + 1; print(y); return y; }"
        )
        fn = program.functions["main"]
        target = next(
            b for b, blk in fn.blocks.items()
            if any(s.kind == "print" for s in blk.statements)
        )
        dag = intraprocedural_paths(fn, fn.entry_block, target)
        header = next(b for b in dag.blocks if fn.blocks[b].is_conditional)
        # the loop body cannot be part of an acyclic path to the code after
        body = fn.blocks[header].terminator.then_target
        assert body not in dag.blocks
        assert header in dag.blocks

    def test_random_dags_match_bruteforce_union(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 10)
            succs = {f"n{i}": [] for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3 and len(succs[f"n{i}"]) < 2:
                        succs[f"n{i}"].append(f"n{j}")
            fn = make_function(succs, entry="n0")
            source, target = "n0", f"n{n - 1}"
            dag = intraprocedural_paths(fn, source, target)
            expected = set()
            for path in bf_simple_paths(fn, source, target):
                expected.update(path)
            assert set(dag.blocks) == expected


# `f` faults on line 2, a return, when main reads 4; line 7 is a condition
RETURN_AND_CONDITION = """fn f(y: int) -> int {
    return 10 / y;
}
fn main() -> int {
    let y: int = read_input();
    let r: int = 0;
    if (y > 3) {
        r = f(y - 4);
    }
    return r;
}
"""
# line 3 holds a branch and, after it, an assignment
ONE_LINE_IF = """fn main() -> int {
    let x: int = read_input();
    if (x > 0) { x = 1; }
    return x;
}
"""


class TestProgramPathGraph:
    def test_abstract_graph_has_exactly_the_two_documented_paths(self, corpus_dir):
        doc = load_graph_file(corpus_dir / "abstract.graph.json")
        program = import_graph(doc)
        vuln = resolve_vulnerability(program, "f", statement="s5")
        ppg = build_program_path_graph(program, vuln)
        paths = {
            "-".join(block for _, block in path) for path in enumerate_paths(ppg)
        }
        assert paths == {"a-1-b-2-c-4-5", "a-1-b-3-c-4-5"}

    def test_single_block_main(self):
        program = parse("fn main() -> int { let x: int = 1; return x; }")
        vuln = resolve_vulnerability(program, "main")
        ppg = build_program_path_graph(program, vuln)
        assert count_paths(ppg) == 1
        (path,) = enumerate_paths(ppg)
        assert path == (("main", "b0"),)

    def test_external_functions_cannot_be_vulnerable(self):
        from pathpatch.analysis import AnalysisError

        program = parse(
            "extern fn lib(x: int) -> int;"
            "fn main() -> int { return lib(1); }"
        )
        with pytest.raises(AnalysisError, match="external"):
            resolve_vulnerability(program, "lib")

    def test_a_return_line_anchors_on_the_return(self):
        program = parse(RETURN_AND_CONDITION)
        vuln = resolve_vulnerability(program, "f", line=2)
        assert vuln == resolve_vulnerability(program, "f")
        assert run_program(program, [4]).fault_at == vuln.statement

    def test_a_condition_line_anchors_on_the_branch(self):
        program = parse(RETURN_AND_CONDITION)
        vuln = resolve_vulnerability(program, "main", line=7)
        _, block = program.statement_index()[vuln.statement]
        assert program.functions["main"].blocks[block].terminator.id == vuln.statement
        assert count_paths(build_program_path_graph(program, vuln)) == 1

    def test_a_plain_statement_wins_over_a_branch_on_its_line(self):
        program = parse(ONE_LINE_IF)
        vuln = resolve_vulnerability(program, "main", line=3)
        (assignment,) = [
            stmt.id
            for blk in program.functions["main"].blocks.values()
            for stmt in blk.statements
            if program.source_map[stmt.id][1] == 3
        ]
        assert vuln.statement == assignment

    def test_unreachable_vulnerability_diagnostic(self):
        program = parse(
            "fn island(i: int) -> int { return i; }"
            "fn main() -> int { return 0; }"
        )
        vuln = resolve_vulnerability(program, "island")
        ppg = build_program_path_graph(program, vuln)
        assert ppg.empty
        assert any("unreachable" in d for d in ppg.diagnostics)

    def test_enumeration_cap_raises_with_guidance(self, bmp_reader):
        program, vuln, _ = bmp_reader
        ppg = build_program_path_graph(program, vuln)
        with pytest.raises(PathEnumerationError, match="path DAG"):
            enumerate_paths(ppg, cap=1)

    def test_every_maximal_path_spans_entry_to_vulnerable_block(self, corpus_entry):
        name, program, vuln, suite = corpus_entry
        ppg = build_program_path_graph(program, vuln)
        entry_fn = program.functions[program.entry]
        for path in enumerate_paths(ppg):
            assert path[0] == (program.entry, entry_fn.entry_block)
            assert path[-1] == (vuln.function, ppg.vulnerable_block)

    def test_exploit_trace_blocks_are_on_the_path_graph(self, corpus_entry):
        """Runtime soundness: the exploit marches inside the path graph."""
        name, program, vuln, suite = corpus_entry
        result = run_program(program, suite.exploit.input, record_trace=True)
        assert result.status == "fault" and result.fault_at == vuln.statement
        ppg = build_program_path_graph(program, vuln)
        # the chain that was actually taken, from the recorded backtrace
        active = tuple(fn for fn, _ in result.fault_stack)
        matching = [
            cp for cp in ppg.chains if cp.chain.functions == active
        ]
        assert matching, f"no chain matches backtrace {active}"
        chain = matching[0]
        members = {
            (fp.frame.function, block)
            for fp in chain.frames
            for block in fp.dag.blocks
        }
        on_chain_entries = [
            (fn, block) for fn, block in result.trace if fn in set(active)
        ]
        for entry in on_chain_entries:
            assert entry in members, f"executed block {entry} not on path graph"

    def test_three_chain_program_counts_match_brute_force(self):
        program = parse(
            "fn sink(i: int) -> int { if (i > 0) { let t: int = i; return t; } return 0; }"
            "fn via_a(i: int) -> int { return sink(i); }"
            "fn via_b(i: int) -> int { return sink(i + 1); }"
            "fn main() -> int {"
            "  let m: int = read_input();"
            "  let r: int = 0;"
            "  if (m == 0) { r = sink(m); }"
            "  if (m == 1) { r = via_a(m); }"
            "  if (m == 2) { r = via_b(m); }"
            "  return r;"
            "}"
        )
        vuln = resolve_vulnerability(program, "sink", line=1)
        ppg = build_program_path_graph(program, vuln)
        assert len(ppg.chains) == 3
        expected = sorted(bf_interprocedural_paths(program, vuln.statement))
        assert sorted(enumerate_paths(ppg, cap=None)) == expected
        assert count_paths(ppg) == len(expected)

    def test_random_programs_match_bruteforce_enumeration(self):
        rng = random.Random(20240)
        checked = 0
        nonempty = 0
        while checked < 150:
            program = parse(random_program_source(rng))
            _, stmt = pick_vulnerable_statement(rng, program)
            vuln_fn = stmt.split(":")[0]
            vuln = resolve_vulnerability(program, vuln_fn, statement=stmt)
            expected = sorted(bf_interprocedural_paths(program, stmt))
            if len(expected) > 4000:
                continue
            ppg = build_program_path_graph(program, vuln)
            actual = sorted(enumerate_paths(ppg, cap=None))
            assert actual == expected
            checked += 1
            nonempty += bool(expected)
        assert nonempty > checked // 3


def dead_call_document(reachable_call: bool) -> dict:
    """main -> h -> g where main and h each also call from a block their
    entry cannot reach; without `reachable_call`, main has only the dead
    call, so every chain is dropped."""
    doc = {
        "schema": "program-graph@1",
        "functions": [
            {
                "name": "main",
                "entry": "m0",
                "blocks": [
                    {"id": "m0", "statements": ["m_ok"] if reachable_call else []},
                    {"id": "m1", "statements": ["m_dead"]},
                ],
                "edges": [],
            },
            {
                "name": "h",
                "entry": "h0",
                "blocks": [
                    {"id": "h0", "statements": ["h_ok"]},
                    {"id": "h1", "statements": ["h_dead"]},
                ],
                "edges": [],
            },
            {
                "name": "g",
                "entry": "g0",
                "blocks": [
                    {"id": "g0", "conditional": True, "statements": ["g_test"]},
                    {"id": "g1", "statements": ["g_vuln"]},
                    {"id": "g2", "statements": ["g_ret"]},
                ],
                "edges": [["g0", "g1", 0], ["g0", "g2", 1], ["g1", "g2", None]],
            },
        ],
        "calls": [
            ["main", "m_dead", "h"],
            ["h", "h_ok", "g"],
            ["h", "h_dead", "g"],
        ]
        + ([["main", "m_ok", "h"]] if reachable_call else []),
        "vulnerable": {"function": "g", "statement": "g_vuln"},
    }
    return doc


class TestSharedFramePaths:
    """The shared-frame path graph equals the frame-by-frame reference."""

    def test_corpus_matches_reference(self):
        for name in CORPUS_NAMES:
            program, vuln, _ = load_corpus_entry(name)
            assert build_program_path_graph(program, vuln) == reference_path_graph(
                program, vuln
            ), name
        program = import_graph(load_graph_file(CORPUS / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        assert build_program_path_graph(program, vuln) == reference_path_graph(
            program, vuln
        )

    def test_random_programs_match_reference(self):
        rng = random.Random(3031)
        nonempty = 0
        for _ in range(120):
            program = parse(random_program_source(rng))
            _, stmt = pick_vulnerable_statement(rng, program)
            vuln = resolve_vulnerability(program, stmt.split(":")[0], statement=stmt)
            ppg = build_program_path_graph(program, vuln)
            assert ppg == reference_path_graph(program, vuln)
            expected = bf_interprocedural_paths(program, stmt)
            if len(expected) <= 4000:
                assert count_paths(ppg) == len(enumerate_paths(ppg, cap=None))
                assert count_paths(ppg) == len(expected)
            nonempty += not ppg.empty
        assert nonempty > 40

    @pytest.mark.parametrize("n", range(1, 7))
    def test_call_fanout_shares_one_frame_paths_per_frame(self, n):
        program, vuln = call_fanout_program(n)
        ppg = build_program_path_graph(program, vuln)
        assert ppg == reference_path_graph(program, vuln)
        assert len(ppg.chains) == 2**n
        by_frame = {}
        for chain_paths in ppg.chains:
            for fp in chain_paths.frames:
                assert by_frame.setdefault(fp.frame, fp) is fp
        assert len(by_frame) == 2 * n + 2  # main, two sites per f_i, and f_n
        expected = bf_interprocedural_paths(program, vuln.statement)
        assert count_paths(ppg) == len(enumerate_paths(ppg, cap=None)) == len(expected)
        assert sorted(enumerate_paths(ppg, cap=None)) == sorted(expected)

    def test_dropped_chains_are_reported_once_each(self):
        program = import_graph(dead_call_document(reachable_call=True))
        vuln = resolve_vulnerability(program, "g", statement="g_vuln")
        ppg = build_program_path_graph(program, vuln)
        assert ppg == reference_path_graph(program, vuln)
        assert [c.chain.frames[0].call_site for c in ppg.chains] == ["m_ok"]
        assert ppg.diagnostics == (
            "main: target m_dead unreachable from entry; chain main->h->g dropped",
            "main: target m_dead unreachable from entry; chain main->h->g dropped",
            "h: target h_dead unreachable from entry; chain main->h->g dropped",
        )

    def test_a_dead_call_site_drops_each_chain_through_it(self):
        """The depth-first pass meets f2's dead site after frames of f0 and
        f1; the chains are then walked one by one, and each chain through
        the site is dropped and noted by name, in chain order."""
        program = import_graph(fanout_document(4, dead=2))
        vuln = resolve_vulnerability(program, "f4", statement="vuln")
        ppg = build_program_path_graph(program, vuln)
        assert ppg == reference_path_graph(program, vuln)
        assert ppg.diagnostics == (
            "f2: target f2_q unreachable from entry; chain main->f0->f1->f2->f3->f4 dropped",
        ) * 8
        assert chain_facts(ppg).chains == count_paths(ppg) == 8
        assert len(ppg.frames) == 9

    @pytest.mark.parametrize("n", (2, 4))
    def test_recursive_fanout_matches_reference(self, n):
        """f_{n-1} can call f0 back, a cycle no chain closes: the chains
        are walked one by one, and give the frames the reference gives."""
        program = parse(recursive_fanout_source(n))
        vuln = resolve_vulnerability(program, f"f{n}", line=4)
        ppg = build_program_path_graph(program, vuln)
        assert ppg == reference_path_graph(program, vuln)
        assert chain_facts(ppg).chains == 2**n
        expected = bf_interprocedural_paths(program, vuln.statement)
        assert count_paths(ppg) == len(expected) == 2 ** (n + 1)

    def test_chain_facts_match_the_listed_chains(self):
        """The chain count, each function's smallest level and the longest
        chain, over the frames or by the walk, equal what the reference's
        list of chains gives."""
        cases = [load_corpus_entry(name)[:2] for name in CORPUS_NAMES]
        program = parse(RECURSIVE_CHAINS)
        cases.append((program, resolve_vulnerability(program, "v", line=3)))
        program = parse(recursive_fanout_source(3))
        cases.append((program, resolve_vulnerability(program, "f3", line=4)))
        rng = random.Random(4041)
        for _ in range(120):
            program = parse(random_program_source(rng))
            _, stmt = pick_vulnerable_statement(rng, program)
            cases.append((program, resolve_vulnerability(program, stmt.split(":")[0], statement=stmt)))
        for program, vuln in cases:
            chains = [cp.chain for cp in reference_path_graph(program, vuln).chains]
            levels = {}
            for chain in chains:
                for function in chain.functions:
                    level = level_of(chain, function)
                    levels[function] = min(level, levels.get(function, level))
            facts = chain_facts(build_program_path_graph(program, vuln))
            assert facts.chains == len(chains)
            assert facts.levels == levels
            assert facts.longest == max((len(chain.frames) for chain in chains), default=0)

    def test_all_chains_dropped(self):
        program = import_graph(dead_call_document(reachable_call=False))
        vuln = resolve_vulnerability(program, "g", statement="g_vuln")
        ppg = build_program_path_graph(program, vuln)
        assert ppg == reference_path_graph(program, vuln)
        assert ppg.empty
        assert ppg.diagnostics[-1] == "unreachable vulnerability: all chains dropped"
        assert len(ppg.diagnostics) == 3

    def test_degraded_functions_are_noted_once_in_processing_order(self):
        # main reaches g from two sites and has a dead end (q -> x -> x); g
        # has an irreducible cycle between b and c. g's frame recurs on both
        # chains, but each function is analysed, and noted, once.
        doc = {
            "schema": "program-graph@1",
            "functions": [
                {
                    "name": "main",
                    "entry": "m",
                    "blocks": [
                        {"id": "m", "conditional": True, "statements": ["m0"]},
                        {"id": "p", "statements": ["call_p"]},
                        {"id": "q", "statements": ["call_q"]},
                        {"id": "x", "statements": ["x0"]},
                    ],
                    "edges": [["m", "p", 0], ["m", "q", 1], ["q", "x", None], ["x", "x", None]],
                },
                {
                    "name": "g",
                    "entry": "a",
                    "blocks": [
                        {"id": "a", "conditional": True, "statements": ["a0"]},
                        {"id": "b", "statements": ["b0"]},
                        {"id": "c", "conditional": True, "statements": ["c0"]},
                        {"id": "d", "statements": ["vuln"]},
                    ],
                    "edges": [
                        ["a", "b", 0], ["a", "c", 1], ["b", "c", None],
                        ["c", "b", 0], ["c", "d", 1],
                    ],
                },
            ],
            "calls": [["main", "call_p", "g"], ["main", "call_q", "g"]],
            "vulnerable": {"function": "g", "statement": "vuln"},
        }
        program = import_graph(doc)
        vuln = resolve_vulnerability(program, "g", statement="vuln")
        ppg = build_program_path_graph(program, vuln)
        assert len(ppg.chains) == 2
        assert ppg.diagnostics == (
            "main:q cannot reach any exit; attached to exit",
            "main:x cannot reach any exit; attached to exit",
            "g: irreducible cycle; cut edges [('c', 'b')]",
        )

    def test_all_builds_the_path_graph_once(self, monkeypatch, tmp_path):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_program_path_graph(*args, **kwargs)

        monkeypatch.setattr(cli, "build_program_path_graph", counting)
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
