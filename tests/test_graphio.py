"""Graph document import, export through the tests' `export_graph`, and the
result report."""

import contextlib
import io
import json

import pytest

from pathpatch.cli import run
from pathpatch.graphio import (
    GraphImportError,
    build_report,
    embedded_vulnerability,
    import_graph,
    load_graph_file,
    pfr_display,
    pfr_percent,
    render_report_text,
    report_to_json,
)
from pathpatch.ir import IRError
from pathpatch.minilang import parse

from helpers import export_graph


def doc_from(payload: dict) -> dict:
    payload.setdefault("schema", "program-graph@1")
    return payload


class TestImport:
    def test_abstract_graph_is_an_eight_block_single_function_program(self, corpus_dir):
        program = import_graph(load_graph_file(corpus_dir / "abstract.graph.json"))
        assert list(program.functions) == ["f"]
        assert len(program.functions["f"].blocks) == 8
        assert not program.executable

    def test_single_block_program(self):
        program = import_graph(
            doc_from(
                {
                    "functions": [
                        {
                            "name": "only",
                            "entry": "a",
                            "blocks": [{"id": "a", "conditional": False, "statements": ["s0"]}],
                            "edges": [],
                        }
                    ],
                    "vulnerable": {"function": "only", "statement": "s0"},
                }
            )
        )
        assert len(program.functions["only"].blocks) == 1

    def test_edge_to_unknown_block_is_an_import_error(self):
        with pytest.raises(GraphImportError, match="edges"):
            import_graph(
                doc_from(
                    {
                        "functions": [
                            {
                                "name": "f",
                                "entry": "a",
                                "blocks": [{"id": "a", "conditional": False, "statements": []}],
                                "edges": [["a", "ghost", None]],
                            }
                        ]
                    }
                )
            )

    def test_duplicate_block_id_is_an_import_error(self):
        with pytest.raises(GraphImportError, match="duplicate block id"):
            import_graph(
                doc_from(
                    {
                        "functions": [
                            {
                                "name": "f",
                                "entry": "a",
                                "blocks": [
                                    {"id": "a", "conditional": False, "statements": []},
                                    {"id": "a", "conditional": False, "statements": []},
                                ],
                                "edges": [],
                            }
                        ]
                    }
                )
            )

    def test_missing_vulnerable_target_is_an_import_error(self):
        with pytest.raises(GraphImportError, match="vulnerable"):
            import_graph(
                doc_from(
                    {
                        "functions": [
                            {
                                "name": "f",
                                "entry": "a",
                                "blocks": [{"id": "a", "conditional": False, "statements": ["s0"]}],
                                "edges": [],
                            }
                        ],
                        "vulnerable": {"function": "f", "statement": "missing"},
                    }
                )
            )

    def test_conditional_needs_both_branch_indices(self):
        with pytest.raises(GraphImportError, match="branch indices"):
            import_graph(
                doc_from(
                    {
                        "functions": [
                            {
                                "name": "f",
                                "entry": "a",
                                "blocks": [
                                    {"id": "a", "conditional": True, "statements": []},
                                    {"id": "b", "conditional": False, "statements": []},
                                ],
                                "edges": [["a", "b", 0], ["a", "b", 0]],
                            }
                        ]
                    }
                )
            )

    def test_conditional_with_unindexed_edge_is_a_clean_error(self):
        with pytest.raises(GraphImportError, match="branch indices"):
            import_graph(
                doc_from(
                    {
                        "functions": [
                            {
                                "name": "f",
                                "entry": "a",
                                "blocks": [
                                    {"id": "a", "conditional": True, "statements": []},
                                    {"id": "b", "conditional": False, "statements": []},
                                    {"id": "c", "conditional": False, "statements": []},
                                ],
                                "edges": [["a", "b", 0], ["a", "c", None]],
                            }
                        ]
                    }
                )
            )

    def test_imported_programs_refuse_to_execute(self, corpus_dir):
        from pathpatch.minilang import run_program

        program = import_graph(load_graph_file(corpus_dir / "abstract.graph.json"))
        with pytest.raises(IRError, match="executable"):
            run_program(program, [])


def first_block(key, value):
    return lambda doc: doc["functions"][0]["blocks"][0].__setitem__(key, value)


# edits of corpus/abstract.graph.json that put another JSON type where the
# document needs a string, a boolean or a branch index, and the error each
# gives; `str()` and `bool()` coercion imported some of these and blamed
# another field for the rest
WRONG_TYPES = {
    "conditional-string": (
        first_block("conditional", "false"),
        "field 'blocks': 'conditional' must be a boolean, got str",
    ),
    "conditional-null": (
        first_block("conditional", None),
        "field 'blocks': 'conditional' must be a boolean, got NoneType",
    ),
    "block-id-null": (
        first_block("id", None), "field 'blocks': 'id' must be a string, got NoneType"
    ),
    "statement-object": (
        first_block("statements", [{"x": 1}]),
        "field 'statements': a statement id must be a string, got dict",
    ),
    "branch-index-true": (
        lambda doc: doc["functions"][0]["edges"][1].__setitem__(2, True),
        "field 'edges': a branch index must be an integer or null",
    ),
    "edge-source-number": (
        lambda doc: doc["functions"][0]["edges"][2].__setitem__(0, 1),
        "field 'edges': a source block must be a string, got int",
    ),
    "name-list": (
        lambda doc: doc["functions"][0].update(name=["f"]),
        "field 'functions': 'name' must be a string, got list",
    ),
    "entry-number": (
        lambda doc: doc["functions"][0].update(entry=0),
        "field 'functions': 'entry' must be a string, got int",
    ),
    "call-site-number": (
        lambda doc: doc.update(calls=[["f", 5, "f"]]),
        "field 'calls': a call's caller, site or callee must be a string, got int",
    ),
    "vulnerable-function-list": (
        lambda doc: doc["vulnerable"].update(function=["f"]),
        "field 'vulnerable': 'function' must be a string, got list",
    ),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_field_of_another_type_is_an_input_error(tmp_path, corpus_dir, case):
    edit, message = WRONG_TYPES[case]
    doc = json.loads((corpus_dir / "abstract.graph.json").read_text())
    edit(doc)
    graph = tmp_path / "g.graph.json"
    graph.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["analyze", "--program", str(graph)])
    assert (code, err.getvalue()) == (3, f"error: {message}\n")


class TestExportRoundTrip:
    def test_import_export_import_is_idempotent(self, corpus_dir):
        doc = load_graph_file(corpus_dir / "abstract.graph.json")
        program = import_graph(doc)
        doc2 = export_graph(program, vulnerable=embedded_vulnerability(doc))
        program2 = import_graph(doc2)
        doc3 = export_graph(program2, vulnerable=embedded_vulnerability(doc2))
        assert doc2 == doc3

    def test_export_of_lowered_program_reimports(self, corpus_dir):
        program = parse((corpus_dir / "dispatch.mini").read_text())
        doc = export_graph(program)
        again = import_graph(doc)
        for fn_id, fn in program.functions.items():
            assert set(again.functions[fn_id].blocks) == set(fn.blocks)

    def test_indirect_calls_survive_export_as_fanned_out_edges(self, corpus_dir):
        from pathpatch.analysis import build_call_graph
        from pathpatch.locate import candidate_locations
        from pathpatch.paths import build_program_path_graph, resolve_vulnerability

        program = parse((corpus_dir / "dispatch.mini").read_text())
        vuln = resolve_vulnerability(program, "handler_risky", line=10)
        doc = export_graph(program, vulnerable=(vuln.function, vuln.statement))
        again = import_graph(doc)
        pairs = {(e.caller, e.callee) for e in build_call_graph(again).edges}
        assert ("run", "handler_safe") in pairs
        assert ("run", "handler_risky") in pairs
        # the structural analysis agrees across representations
        vuln2 = resolve_vulnerability(again, vuln.function, statement=vuln.statement)
        original = candidate_locations(build_program_path_graph(program, vuln))
        reimported = candidate_locations(build_program_path_graph(again, vuln2))
        assert {(l.function, l.block) for l in original} == {
            (l.function, l.block) for l in reimported
        }
        # and another export/import cycle is a fixpoint
        doc2 = export_graph(again, vulnerable=embedded_vulnerability(doc))
        assert export_graph(import_graph(doc2), vulnerable=embedded_vulnerability(doc2)) == doc2

    def test_multi_callee_site_expands_on_import(self):
        doc = doc_from(
            {
                "functions": [
                    {
                        "name": "a",
                        "entry": "e",
                        "blocks": [{"id": "e", "conditional": False, "statements": ["call0"]}],
                        "edges": [],
                    },
                    {
                        "name": "b",
                        "entry": "e",
                        "blocks": [{"id": "e", "conditional": False, "statements": ["s1"]}],
                        "edges": [],
                    },
                    {
                        "name": "c",
                        "entry": "e",
                        "blocks": [{"id": "e", "conditional": False, "statements": ["s2"]}],
                        "edges": [],
                    },
                ],
                "calls": [["a", "call0", "c"], ["a", "call0", "b"]],
            }
        )
        program = import_graph(doc)
        stmts = program.functions["a"].blocks["e"].statements
        assert [s.kind for s in stmts] == ["call", "call"]
        assert sorted(s.callee_name for s in stmts) == ["b", "c"]


class TestReport:
    def test_percentage_rounding_is_half_up(self):
        assert pfr_percent(85, 87) == 98
        assert pfr_display(85, 87) == "85 (98%)"
        assert pfr_percent(1, 8) == 13  # 12.5 rounds up
        assert pfr_percent(0, 87) == 0
        assert pfr_percent(87, 87) == 100
        assert pfr_percent(0, 0) == 0

    def _fake_evaluations(self, pfrs):
        from pathpatch.harness import PatchEvaluation, rank
        from pathpatch.locate import CandidatePatchLocation
        from pathpatch.synth import ErrorReturnValue, Patch

        evals = []
        for i, (passed, total) in enumerate(pfrs):
            loc = CandidatePatchLocation(
                function="f", block=f"b{i}", governing_conditional="b9",
                branch_index=0, level=i,
            )
            patch = Patch(
                id=f"f:b{i}", location=loc,
                errval=ErrorReturnValue(None, "type_default"), line=i + 1,
            )
            evals.append(
                PatchEvaluation(
                    patch=patch, passed=passed, total=total, exploit_blocked=True,
                )
            )
        return rank(evals)

    def test_rows_are_rank_sorted(self):
        report = build_report(self._fake_evaluations([(1, 4), (4, 4), (2, 4)]))
        assert [r["rank"] for r in report["patches"]] == [1, 2, 3]
        assert [r["passed"] for r in report["patches"]] == [4, 2, 1]

    def test_zero_patches_gives_empty_rows_and_zero_summary(self):
        report = build_report([])
        assert report["patches"] == []
        assert report["summary"]["patches"] == 0
        assert report["summary"]["best_patch_level"] is None
        assert "rank" in render_report_text(report)

    def test_headline_summary_display(self):
        report = build_report(self._fake_evaluations([(85, 87), (10, 87)]))
        assert report["summary"]["best_display"] == "85 (98%)"
        assert "85 (98%)" in render_report_text(report)

    def test_json_rendering_is_stable(self):
        report = build_report(self._fake_evaluations([(3, 4)]))
        assert report_to_json(report) == report_to_json(report)
