"""Error-return inference, patch construction, and patch application."""

import pytest

from pathpatch.graphio import import_graph, load_graph_file
from pathpatch.ir import BoolConst, IntConst, NilConst
from pathpatch.locate import candidate_locations
from pathpatch.minilang import parse, run_program
from pathpatch.paths import build_program_path_graph, resolve_vulnerability
from pathpatch.synth import (
    PROVENANCE_ANNOTATION,
    PROVENANCE_DEFAULT,
    PROVENANCE_MINED,
    ErrorReturnValue,
    PatchError,
    apply_patch,
    apply_patches,
    infer_error_return,
    synthesize_patch,
    synthesize_patches,
)


class TestInferErrorReturn:
    def test_reference_returning_function_yields_nil(self, bmp_reader):
        program, _, _ = bmp_reader
        errval = infer_error_return(program.functions["read_image"])
        assert errval.value == NilConst()

    def test_annotation_wins(self):
        program = parse(
            "fn f() -> int errval -7 { if (true) { return -1; } return 0; }"
            "fn main() -> int { return f(); }"
        )
        errval = infer_error_return(program.functions["f"])
        assert errval.value == IntConst(-7)
        assert errval.provenance == PROVENANCE_ANNOTATION

    def test_early_guarded_return_constant_is_mined(self):
        program = parse(
            "fn checked_div(a: int, b: int) -> int {"
            " if (b == 0) { return -1; }"
            " return a / b; }"
            "fn main() -> int { return checked_div(6, 2); }"
        )
        errval = infer_error_return(program.functions["checked_div"])
        assert errval.value == IntConst(-1)
        assert errval.provenance == PROVENANCE_MINED

    def test_most_frequent_constant_wins_then_smallest(self):
        program = parse(
            "fn f(a: int) -> int {"
            " if (a < 0) { return -2; }"
            " if (a == 0) { return -2; }"
            " if (a > 99) { return -9; }"
            " return a; }"
            "fn main() -> int { return f(1); }"
        )
        assert infer_error_return(program.functions["f"]).value == IntConst(-2)
        program2 = parse(
            "fn f(a: int) -> int {"
            " if (a < 0) { return -2; }"
            " if (a > 99) { return -9; }"
            " return a; }"
            "fn main() -> int { return f(1); }"
        )
        assert infer_error_return(program2.functions["f"]).value == IntConst(-9)

    def test_type_defaults(self):
        program = parse(
            "fn i() -> int { return 3; }"
            "fn b() -> bool { return true; }"
            "fn r() -> ref { return alloc(1); }"
            "fn u() -> unit { return; }"
            "fn main() -> int { return i(); }"
        )
        cases = {
            "i": IntConst(-1),
            "b": BoolConst(False),
            "r": NilConst(),
            "u": None,
        }
        for name, expected in cases.items():
            errval = infer_error_return(program.functions[name])
            assert errval.value == expected
            assert errval.provenance == PROVENANCE_DEFAULT


class TestSynthesize:
    def test_patch_for_reference_function_returns_nil(self, bmp_reader):
        program, vuln, _ = bmp_reader
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        line5 = next(p for p in patches if p.id == "read_image:b1")
        assert line5.errval.value == NilConst()
        assert line5.line == 5

    def test_unit_function_gets_plain_return(self):
        program = parse(
            "fn act(flag: bool) -> unit { if (flag) { print(1); } return; }"
            "fn main() -> int { act(true); return 0; }"
        )
        vuln = resolve_vulnerability(program, "act", line=1)
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        act_patch = next(p for p in patches if p.location.function == "act")
        assert act_patch.errval.value is None

    def test_type_mismatch_is_rejected(self, bmp_reader):
        program, vuln, _ = bmp_reader
        ppg = build_program_path_graph(program, vuln)
        loc = next(
            l for l in candidate_locations(ppg) if l.function == "read_image"
        )
        with pytest.raises(PatchError, match="return type"):
            synthesize_patch(
                program, loc, ErrorReturnValue(IntConst(-1), PROVENANCE_DEFAULT)
            )


class TestApply:
    def test_application_does_not_mutate_the_base_program(self, bmp_reader):
        program, vuln, _ = bmp_reader
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        snapshot = {
            fn_id: dict(fn.blocks) for fn_id, fn in program.functions.items()
        }
        patched = apply_patch(program, patches[0])
        assert patched is not program
        for fn_id, blocks in snapshot.items():
            assert program.functions[fn_id].blocks == blocks

    def test_patched_block_returns_immediately(self, bmp_reader):
        program, vuln, suite = bmp_reader
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        line5 = next(p for p in patches if p.id == "read_image:b1")
        patched = apply_patch(program, line5)
        block = patched.functions["read_image"].blocks["b1"]
        assert block.statements == ()
        assert block.successors == ()
        # exploit now leaves read_image before the vulnerable read
        result = run_program(patched, suite.exploit.input, record_trace=True)
        assert result.fault_at != vuln.statement
        entries = list(result.trace)
        after = entries[entries.index(("read_image", "b1")) + 1]
        assert after[0] != "read_image"

    def test_entered_patch_blocks_leave_their_function_immediately(
        self, corpus_entry
    ):
        """Once a patched block is entered, the next trace step is outside
        the patched function (a return, or nothing when the run ends)."""
        name, program, vuln, suite = corpus_entry
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        inputs = [case.input for case in suite.cases] + [suite.exploit.input]
        for patch in patches:
            patched = apply_patch(program, patch)
            spot = (patch.location.function, patch.location.block)
            fresh_entry = (
                patch.location.function,
                patched.functions[patch.location.function].entry_block,
            )
            for values in inputs:
                trace = list(run_program(patched, values, record_trace=True).trace)
                for i, entry in enumerate(trace):
                    if entry == spot and i + 1 < len(trace):
                        # only a brand-new invocation may re-enter the function
                        nxt = trace[i + 1]
                        assert nxt[0] != patch.location.function or nxt == fresh_entry, (
                            f"{name}/{patch.id}: stayed in the function"
                        )

    def test_double_apply_is_idempotent(self, bmp_reader):
        program, vuln, _ = bmp_reader
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        once = apply_patch(program, patches[0])
        twice = apply_patch(once, patches[0])
        assert once.functions == twice.functions

    def test_stale_patch_is_rejected(self, bmp_reader):
        program, vuln, _ = bmp_reader
        other = parse("fn main() -> int { return 0; }")
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        with pytest.raises(PatchError, match="no longer applies"):
            apply_patch(other, patches[0])

    def test_graph_imported_programs_take_structural_patches(self, corpus_dir):
        program = import_graph(load_graph_file(corpus_dir / "abstract.graph.json"))
        vuln = resolve_vulnerability(program, "f", statement="s5")
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        patched = apply_patches(program, patches)
        for patch in patches:
            block = patched.functions["f"].blocks[patch.location.block]
            assert block.successors == ()
        from pathpatch.checks import vulnerable_statement_reachable

        from helpers import export_graph

        assert not vulnerable_statement_reachable(patched, "s5")
        # structural patches stay exportable
        doc = export_graph(patched)
        assert import_graph(doc).functions["f"].blocks["1"].successors == ()

    def test_no_path_through_patched_block_reaches_the_vulnerability(
        self, corpus_entry
    ):
        name, program, vuln, _ = corpus_entry
        ppg = build_program_path_graph(program, vuln)
        patches = synthesize_patches(program, candidate_locations(ppg))
        from pathpatch.checks import reachable_blocks

        vuln_node = program.statement_index()[vuln.statement]
        assert vuln_node in reachable_blocks(program)  # sanity: was reachable
        for patch in patches:
            patched = apply_patch(program, patch)
            # nothing can follow the patched block: its statements (and any
            # call sites they held) are gone and the terminator is a return
            block = patched.functions[patch.location.function].blocks[
                patch.location.block
            ]
            assert block.successors == ()
            assert not any(s.kind == "call" for s in block.statements)
