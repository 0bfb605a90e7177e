"""Candidate patch location selection and levels."""

import json
import random

import pytest

from pathpatch.checks import cut_disconnects
from pathpatch.graphio import GraphDocument, import_graph, load_graph_file
from pathpatch.locate import candidate_locations
from pathpatch.minilang import lower, parse
from pathpatch.paths import (
    PathDag,
    build_program_path_graph,
    chain_facts,
    enumerate_paths,
    resolve_vulnerability,
)

from conftest import CORPUS, CORPUS_NAMES, load_corpus_entry
from helpers import (
    call_fanout_program,
    fanout_document,
    level_of,
    pick_vulnerable_statement,
    random_program_tree,
    reference_candidate_locations,
    reference_path_graph,
)


def locations_for(program, vuln):
    ppg = build_program_path_graph(program, vuln)
    return ppg, candidate_locations(ppg)


class TestAbstractGraph:
    def test_candidates_are_blocks_1_4_2_3(self, corpus_dir):
        program = import_graph(load_graph_file(corpus_dir / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        _, locations = locations_for(program, vuln)
        assert {loc.block for loc in locations} == {"1", "4", "2", "3"}

    def test_each_candidate_hangs_off_its_conditional(self, corpus_dir):
        program = import_graph(load_graph_file(corpus_dir / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        _, locations = locations_for(program, vuln)
        governors = {loc.block: loc.governing_conditional for loc in locations}
        assert governors == {"1": "a", "2": "b", "3": "b", "4": "c"}


class TestBmpReader:
    def test_level0_candidates_sit_on_lines_5_13_16(self, bmp_reader):
        program, vuln, _ = bmp_reader
        _, locations = locations_for(program, vuln)
        in_vulnerable_fn = [
            program.functions[loc.function].blocks[loc.block].line
            for loc in locations
            if loc.function == "read_image"
        ]
        assert sorted(in_vulnerable_fn) == [5, 13, 16]
        assert all(
            loc.level == 0 for loc in locations if loc.function == "read_image"
        )

    def test_chained_conditionals_are_walked_through(self, bmp_reader):
        # the loop headers on lines 11 and 12 are consecutive conditionals:
        # the candidate below them is the loop body at line 13
        program, vuln, _ = bmp_reader
        _, locations = locations_for(program, vuln)
        fn = program.functions["read_image"]
        line13 = next(
            loc for loc in locations
            if loc.function == "read_image" and fn.blocks[loc.block].line == 13
        )
        assert fn.blocks[line13.governing_conditional].line == 12

    def test_order_is_level_descending_then_block(self, bmp_reader):
        program, vuln, _ = bmp_reader
        _, locations = locations_for(program, vuln)
        keys = [(-loc.level,) for loc in locations]
        assert keys == sorted(keys)

    def test_no_candidate_is_conditional(self, corpus_entry):
        name, program, vuln, _ = corpus_entry
        _, locations = locations_for(program, vuln)
        for loc in locations:
            assert not program.functions[loc.function].blocks[loc.block].is_conditional

    def test_governing_edge_lies_on_a_vulnerable_path(self, corpus_entry):
        name, program, vuln, _ = corpus_entry
        ppg, locations = locations_for(program, vuln)
        dag_edges = {
            (fp.frame.function, src, dst)
            for cp in ppg.chains
            for fp in cp.frames
            for src, dst, _ in fp.dag.edges
        }
        for loc in locations:
            walk_edges = {
                (loc.function, src, dst)
                for (f, src, dst) in dag_edges
                if f == loc.function
            }
            assert any(
                (loc.function, loc.governing_conditional, dst) in walk_edges
                for dst in program.functions[loc.function]
                .blocks[loc.governing_conditional]
                .successors
            )


class TestLevels:
    def test_direct_caller_is_level_one(self):
        program = lower(
            parse(
                "fn inner(i: int) -> int { if (i > 0) { let t: int = i + 1; return t; } return 0; }"
                "fn main() -> int { if (true) { return inner(3); } return 0; }"
            )
        )
        vuln = resolve_vulnerability(program, "inner", line=1)
        _, locations = locations_for(program, vuln)
        by_fn = {loc.function: loc.level for loc in locations}
        assert by_fn["main"] == 1
        assert by_fn["inner"] == 0

    def test_diamond_call_graph_takes_minimum_distance(self):
        # main -> short -> deep and main -> long -> middle -> deep:
        # `main` is 2 frames from deep on one chain and 3 on the other
        program = lower(
            parse(
                "fn deep(i: int) -> int { if (i > 0) { let t: int = i + 1; return t; } return 0; }"
                "fn middle(i: int) -> int { return deep(i); }"
                "fn long(i: int) -> int { return middle(i); }"
                "fn short(i: int) -> int { return deep(i); }"
                "fn main() -> int { if (true) { return short(1); } return long(2); }"
            )
        )
        vuln = resolve_vulnerability(program, "deep", line=1)
        ppg, locations = locations_for(program, vuln)
        main_loc = next(loc for loc in locations if loc.function == "main")
        assert main_loc.level == 2
        assert chain_facts(ppg).levels["main"] == 2

    def test_levels_do_not_exceed_chain_length(self, corpus_entry):
        name, program, vuln, _ = corpus_entry
        ppg, locations = locations_for(program, vuln)
        longest = max(len(cp.chain.frames) for cp in ppg.chains)
        for loc in locations:
            assert 0 <= loc.level < longest


class TestDegenerateAndDedup:
    def test_no_conditionals_warns_and_returns_empty(self):
        program = lower(parse("fn main() -> int { let x: int = 1; print(x); return x; }"))
        vuln = resolve_vulnerability(program, "main", line=1)
        ppg = build_program_path_graph(program, vuln)
        locations, notes = located_with_notes(ppg)
        assert locations == []
        assert notes == [
            "no conditional block lies on any vulnerable path; nothing to patch"
        ]

    def test_conditional_vulnerable_block_emits_itself_with_warning(self):
        # graph shape where the walk runs out of path on a conditional block
        from pathpatch.graphio import GraphDocument
        import json

        doc = GraphDocument.from_json(
            json.dumps(
                {
                    "schema": "program-graph@1",
                    "functions": [
                        {
                            "name": "f",
                            "entry": "a",
                            "blocks": [
                                {"id": "a", "conditional": True, "statements": ["s0"]},
                                {"id": "b", "conditional": True, "statements": ["s1"]},
                                {"id": "x", "conditional": False, "statements": ["s2"]},
                                {"id": "y", "conditional": False, "statements": ["s3"]},
                            ],
                            "edges": [
                                ["a", "b", 0],
                                ["a", "x", 1],
                                ["b", "y", 0],
                                ["b", "b", 1],
                            ],
                        }
                    ],
                    "vulnerable": {"function": "f", "statement": "s1"},
                }
            )
        )
        program = import_graph(doc)
        vuln = resolve_vulnerability(program, "f", statement="s1")
        ppg = build_program_path_graph(program, vuln)
        locations, notes = located_with_notes(ppg)
        assert [loc.block for loc in locations] == ["b"]
        assert notes == [
            "path to s1 consists of conditional blocks only; "
            "using the vulnerable block b itself"
        ]

    def test_shared_blocks_are_deduplicated_across_chains(self, corpus_dir):
        program = lower(parse((corpus_dir / "twopath.mini").read_text()))
        vuln = resolve_vulnerability(program, "lookup", line=6)
        _, locations = locations_for(program, vuln)
        keys = [(loc.function, loc.block) for loc in locations]
        assert len(keys) == len(set(keys))
        # the shared lookup-guard block appears once despite two chains
        assert sum(1 for f, _ in keys if f == "lookup") == 1


class TestRandomizedRule:
    def test_guarded_edges_on_random_paths_yield_their_candidates(self):
        """On any maximal path, a non-conditional block right after a
        conditional one (same function) is a candidate; and when every path
        has such an edge, removing the candidates severs the program."""
        import random

        from pathpatch.minilang import lower
        from pathpatch.paths import count_paths
        from helpers import pick_vulnerable_statement, random_program_tree

        rng = random.Random(424242)
        checked = 0
        cut_checked = 0
        while checked < 120:
            program = lower(random_program_tree(rng))
            _, stmt = pick_vulnerable_statement(rng, program)
            vuln = resolve_vulnerability(program, stmt.split(":")[0], statement=stmt)
            ppg = build_program_path_graph(program, vuln)
            if ppg.empty or count_paths(ppg) > 2000:
                continue
            locations = candidate_locations(ppg)
            spots = {(loc.function, loc.block) for loc in locations}
            all_paths_guarded = True
            for path in enumerate_paths(ppg, cap=None):
                guarded = False
                for (fn_a, blk_a), (fn_b, blk_b) in zip(path, path[1:]):
                    if fn_a != fn_b:
                        continue
                    blocks = program.functions[fn_a].blocks
                    if blocks[blk_a].is_conditional and not blocks[blk_b].is_conditional:
                        assert (fn_b, blk_b) in spots
                        guarded = True
                all_paths_guarded &= guarded
            if all_paths_guarded and spots:
                assert cut_disconnects(program, vuln.statement, locations)
                cut_checked += 1
            checked += 1
        assert cut_checked > 10


class TestCoverageAndCut:
    def test_every_maximal_path_contains_a_candidate(self, corpus_entry):
        name, program, vuln, _ = corpus_entry
        ppg, locations = locations_for(program, vuln)
        spots = {(loc.function, loc.block) for loc in locations}
        for path in enumerate_paths(ppg):
            assert spots & set(path), f"path without candidate: {path}"

    def test_deleting_all_candidates_disconnects_the_vulnerability(self, corpus_entry):
        name, program, vuln, _ = corpus_entry
        _, locations = locations_for(program, vuln)
        assert cut_disconnects(program, vuln.statement, locations)

    def test_abstract_graph_cut(self, corpus_dir):
        program = import_graph(load_graph_file(corpus_dir / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        _, locations = locations_for(program, vuln)
        assert cut_disconnects(program, vuln.statement, locations)


def located_with_notes(ppg):
    notes: list[str] = []
    locations = candidate_locations(ppg, notes)
    return locations, notes


def revisit_document() -> GraphDocument:
    """main calls f from two sites; in f, conditional a reaches the
    conditional call block c directly and through conditional b, so the
    walk enters c three times, and f's frame recurs on both chains."""
    return GraphDocument.from_json(
        json.dumps(
            {
                "schema": "program-graph@1",
                "functions": [
                    {
                        "name": "main",
                        "entry": "m",
                        "blocks": [
                            {"id": "m", "conditional": True, "statements": ["m0"]},
                            {"id": "p", "statements": ["call_p"]},
                            {"id": "q", "statements": ["call_q"]},
                        ],
                        "edges": [["m", "p", 0], ["m", "q", 1]],
                    },
                    {
                        "name": "f",
                        "entry": "a",
                        "blocks": [
                            {"id": "a", "conditional": True, "statements": ["a0"]},
                            {"id": "b", "conditional": True, "statements": ["b0"]},
                            {"id": "c", "conditional": True, "statements": ["call_g"]},
                            {"id": "d", "statements": ["d0"]},
                            {"id": "e", "statements": ["e0"]},
                        ],
                        "edges": [
                            ["a", "b", 0], ["a", "c", 1],
                            ["b", "c", 0], ["b", "d", 1],
                            ["d", "c", None],
                            ["c", "e", 0], ["c", "e", 1],
                        ],
                    },
                    {
                        "name": "g",
                        "entry": "g0",
                        "blocks": [
                            {"id": "g0", "conditional": True, "statements": ["t0"]},
                            {"id": "g1", "conditional": True, "statements": ["vuln"]},
                            {"id": "g2", "statements": ["t2"]},
                        ],
                        "edges": [
                            ["g0", "g1", 0], ["g0", "g2", 1],
                            ["g1", "g2", 0], ["g1", "g2", 1],
                        ],
                    },
                ],
                "calls": [["main", "call_p", "f"], ["main", "call_q", "f"], ["f", "call_g", "g"]],
                "vulnerable": {"function": "g", "statement": "vuln"},
            }
        )
    )


class TestLocateOracle:
    """Per-frame walks with a visited set equal the plain recursive walk of
    every frame occurrence: same candidates, same notes in order."""

    def assert_matches_reference(self, ppg):
        assert located_with_notes(ppg) == reference_candidate_locations(ppg)

    def test_corpus(self):
        for name in CORPUS_NAMES:
            program, vuln, _ = load_corpus_entry(name)
            self.assert_matches_reference(build_program_path_graph(program, vuln))
        program = import_graph(load_graph_file(CORPUS / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        self.assert_matches_reference(build_program_path_graph(program, vuln))

    def test_random_programs(self):
        rng = random.Random(5150)
        warned = 0
        for _ in range(200):
            program = lower(random_program_tree(rng))
            _, stmt = pick_vulnerable_statement(rng, program)
            vuln = resolve_vulnerability(program, stmt.split(":")[0], statement=stmt)
            ppg = build_program_path_graph(program, vuln)
            self.assert_matches_reference(ppg)
            warned += bool(reference_candidate_locations(ppg)[1])
        assert warned > 10

    @pytest.mark.parametrize("n", (1, 3, 6))
    def test_call_fanout(self, n):
        program, vuln = call_fanout_program(n)
        self.assert_matches_reference(build_program_path_graph(program, vuln))

    def test_revisited_conditionals_repeat_their_warnings(self):
        program = import_graph(revisit_document())
        vuln = resolve_vulnerability(program, "g", statement="vuln")
        ppg = build_program_path_graph(program, vuln)
        self.assert_matches_reference(ppg)
        locations, messages = located_with_notes(ppg)
        stuck = "f:c: conditional frame target has no patchable successor on the path"
        only = (
            "path to vuln consists of conditional blocks only; "
            "using the vulnerable block g1 itself"
        )
        # per chain, f's walk enters c via a -> b, directly from a, and from
        # b at the top level
        assert messages == [stuck] * 3 + [only] + [stuck] * 3 + [only]
        assert {(loc.function, loc.block) for loc in locations} == {
            ("main", "p"), ("main", "q"), ("f", "d"), ("g", "g1"),
        }

    @pytest.mark.parametrize("dead", (None, 1), ids=("all chains", "dead site"))
    def test_notes_repeat_on_every_chain_through_a_frame(self, dead):
        """f4's frame has a note and lies on every chain, so the note
        repeats once per chain, in chain order, as in the reference built
        from listing every chain."""
        program = import_graph(fanout_document(4, dead=dead, stuck=True))
        vuln = resolve_vulnerability(program, "f4", statement="vuln")
        ppg = build_program_path_graph(program, vuln)
        located = located_with_notes(ppg)
        assert located == reference_candidate_locations(reference_path_graph(program, vuln))
        only = (
            "path to vuln consists of conditional blocks only; "
            "using the vulnerable block v1 itself"
        )
        assert located[1] == [only] * (16 if dead is None else 8)

    def test_shared_conditional_successors_are_walked_once(self, monkeypatch):
        # c0 -> c1 -> ... -> ck on both branch edges, then the vulnerable
        # block: a walk that re-enters shared conditionals takes 2**k steps
        k = 16
        blocks = [
            {"id": f"c{i}", "conditional": True, "statements": [f"s{i}"]}
            for i in range(k + 1)
        ]
        blocks.append({"id": "v", "statements": ["vuln"]})
        edges = [[f"c{i}", f"c{i + 1}", e] for i in range(k) for e in (0, 1)]
        edges += [[f"c{k}", "v", 0], [f"c{k}", "v", 1]]
        doc = {
            "schema": "program-graph@1",
            "functions": [{"name": "f", "entry": "c0", "blocks": blocks, "edges": edges}],
            "vulnerable": {"function": "f", "statement": "vuln"},
        }
        program = import_graph(GraphDocument.from_json(json.dumps(doc)))
        vuln = resolve_vulnerability(program, "f", statement="vuln")
        ppg = build_program_path_graph(program, vuln)
        calls = []
        successors = PathDag.successors
        monkeypatch.setattr(
            PathDag,
            "successors",
            lambda dag, block: calls.append(block) or successors(dag, block),
        )
        locations, messages = located_with_notes(ppg)
        found = [(loc.block, loc.governing_conditional, loc.branch_index) for loc in locations]
        assert found == [("v", f"c{k}", 0)]
        assert messages == []
        assert len(calls) < 4 * (k + 2)

    def test_level_table_is_the_minimum_over_chains(self, corpus_entry):
        name, program, vuln, _ = corpus_entry
        ppg = build_program_path_graph(program, vuln)
        levels = chain_facts(ppg).levels
        for function in {f for cp in ppg.chains for f in cp.chain.functions}:
            expected = min(
                level
                for cp in ppg.chains
                if (level := level_of(cp.chain, function)) is not None
            )
            assert levels[function] == expected
