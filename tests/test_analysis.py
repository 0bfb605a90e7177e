"""Postdominators, control dependence, and the call graph, checked against
brute-force definitions on both hand-built and random CFGs."""

import random
import sys

import pytest

from pathpatch.analysis import (
    EXIT,
    AnalysisError,
    back_edges,
    build_call_graph,
    compute_control_dependencies,
    compute_postdominators,
    referenced_functions,
)
from pathpatch.ir import (
    INT,
    Assign,
    BasicBlock,
    Binary,
    Call,
    FuncRef,
    IntConst,
    IRFunction,
    IRProgram,
    Return,
    Unary,
    Var,
)
from pathpatch.minilang import parse

from helpers import (
    bf_control_deps,
    bf_postdominator_sets,
    make_function,
    random_cfg,
    random_wild_cfg,
    reference_back_edges,
    reference_postdominators,
)


def pdom_sets_from_tree(fn, pdoms):
    """Each block's postdominators, itself and EXIT included, read off the
    tree."""
    sets = {}
    for bid in fn.blocks:
        members, cur = {EXIT}, bid
        while cur != EXIT:
            members.add(cur)
            cur = pdoms.ipdom[cur]
        sets[bid] = frozenset(members)
    return sets


class TestPostdominators:
    def test_diamond_join_postdominates_condition(self):
        fn = make_function(
            {"cond": ["then", "else"], "then": ["join"], "else": ["join"], "join": []},
            entry="cond",
        )
        pdoms = compute_postdominators(fn)
        assert pdoms.ipdom["cond"] == "join"
        assert pdoms.ipdom["join"] == EXIT

    def test_straight_line_chain(self):
        fn = make_function({"a": ["b"], "b": ["c"], "c": []}, entry="a")
        pdoms = compute_postdominators(fn)
        assert pdoms.ipdom["a"] == "b"
        assert pdoms.ipdom["b"] == "c"
        assert pdoms.ipdom["c"] == EXIT

    def test_unexitable_cycle_is_attached_to_exit_with_warning(self):
        fn = make_function(
            {"a": ["b", "x"], "x": ["y"], "y": ["x"], "b": []}, entry="a"
        )
        pdoms = compute_postdominators(fn)
        assert pdoms.ipdom["x"] == EXIT
        assert pdoms.ipdom["y"] == EXIT
        assert pdoms.ipdom["a"] == "b"
        assert pdoms.warnings == (
            "f:x cannot reach any exit; attached to exit",
            "f:y cannot reach any exit; attached to exit",
        )

    def test_random_cfgs_match_bruteforce_sets(self):
        rng = random.Random(1234)
        for _ in range(300):
            fn = random_cfg(rng, max_blocks=10)
            pdoms = compute_postdominators(fn)
            assert pdom_sets_from_tree(fn, pdoms) == bf_postdominator_sets(fn)


def has_cycle(edges) -> bool:
    succs: dict = {}
    for src, dst in edges:
        succs.setdefault(src, []).append(dst)
    done: set = set()

    def visit(node, on_walk) -> bool:
        if node in on_walk:
            return True
        if node in done:
            return False
        found = any(visit(nxt, on_walk | {node}) for nxt in succs.get(node, ()))
        done.add(node)
        return found

    return any(visit(node, frozenset()) for node in list(succs))


class TestDominatorTrees:
    """The dominator trees equal what the per-block set fixpoints give."""

    def test_random_cfgs_match_the_set_fixpoints(self):
        rng = random.Random(1307)
        seen = {"irreducible": 0, "no exit": 0, "unreachable": 0}
        for i in range(900):
            fn = random_cfg(rng) if i % 3 == 0 else random_wild_cfg(rng)
            pdoms = compute_postdominators(fn)
            assert pdoms == reference_postdominators(fn)
            backs = back_edges(fn)
            assert backs == reference_back_edges(fn)
            # what the wild graphs must cover
            reachable = {fn.entry_block}
            stack = [fn.entry_block]
            while stack:
                for nxt in fn.blocks[stack.pop()].successors:
                    if nxt not in reachable:
                        reachable.add(nxt)
                        stack.append(nxt)
            forward = {
                (b, t) for b in reachable for t in fn.blocks[b].successors
            } - backs
            seen["irreducible"] += has_cycle(forward)
            seen["no exit"] += bool(pdoms.warnings)
            seen["unreachable"] += len(reachable) < len(fn.blocks)
        assert min(seen.values()) >= 30, seen

    def test_wild_cfgs_match_bruteforce_control_dependence(self):
        rng = random.Random(2718)
        for _ in range(300):
            fn = random_wild_cfg(rng, max_blocks=7)
            cdg = compute_control_dependencies(fn)
            ours = {(d.governed, d.governor, d.branch_index) for d in cdg.deps}
            assert ours == bf_control_deps(fn)

    def test_a_long_function_is_near_linear(self):
        """2,000 loops in a row: the set fixpoints held a set of up to
        2,000 blocks for each of the 4,002 blocks; a tree holds one parent
        per block, though its depth here is about 2,000."""
        succs = {"e": ["h0"]}
        for i in range(2000):
            succs[f"h{i}"] = [f"b{i}", f"h{i + 1}"]
            succs[f"b{i}"] = [f"h{i}"]
        succs["h2000"] = []
        fn = make_function(succs, entry="e")
        pdoms = compute_postdominators(fn)
        assert pdoms.ipdom["b7"] == "h7" and pdoms.ipdom["h7"] == "h8"
        assert back_edges(fn) == {(f"b{i}", f"h{i}") for i in range(2000)}
        deps = compute_control_dependencies(fn, pdoms).deps
        assert {(d.governed, d.governor) for d in deps} == {
            (f"b{i}", f"h{i}") for i in range(2000)
        }


class TestControlDependence:
    def test_diamond_dependencies(self):
        fn = make_function(
            {"cond": ["then", "else"], "then": ["join"], "else": ["join"], "join": []},
            entry="cond",
        )
        cdg = compute_control_dependencies(fn)
        triples = {(d.governed, d.governor, d.branch_index) for d in cdg.deps}
        assert triples == {("then", "cond", 0), ("else", "cond", 1)}

    def test_loop_body_depends_on_header(self):
        fn = make_function(
            {"head": ["body", "after"], "body": ["head"], "after": []}, entry="head"
        )
        cdg = compute_control_dependencies(fn)
        triples = {(d.governed, d.governor, d.branch_index) for d in cdg.deps}
        # the header is not control-dependent on itself: it postdominates
        # its own body, so only the body hangs off the loop condition
        assert triples == {("body", "head", 0)}

    def test_self_loop_produces_no_self_dependence(self):
        fn = make_function({"a": ["a", "b"], "b": []}, entry="a")
        cdg = compute_control_dependencies(fn)
        assert all(d.governed != d.governor for d in cdg.deps)

    def test_bmp_reader_transitive_governors_of_vulnerable_block(self, corpus_dir):
        program = parse((corpus_dir / "bmp_reader.mini").read_text())
        fn = program.functions["read_image"]
        cdg = compute_control_dependencies(fn)
        governors = cdg.transitive_governors("b6")
        lines = sorted(fn.blocks[g].line for g, _ in governors)
        assert lines == [4, 11, 12, 15]

    def test_random_cfgs_match_bruteforce_definition(self):
        rng = random.Random(99)
        for _ in range(300):
            fn = random_cfg(rng, max_blocks=10)
            cdg = compute_control_dependencies(fn)
            ours = {(d.governed, d.governor, d.branch_index) for d in cdg.deps}
            assert ours == bf_control_deps(fn)

    def test_deterministic_order(self):
        fn = make_function(
            {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}, entry="a"
        )
        assert (
            compute_control_dependencies(fn).deps
            == compute_control_dependencies(fn).deps
        )


class TestCallGraph:
    def test_direct_chain(self):
        program = parse(
            "fn g() -> int { return 1; }"
            "fn f() -> int { let x: int = g(); return x; }"
            "fn main() -> int { let y: int = f(); return y; }"
        )
        cg = build_call_graph(program)
        pairs = {(e.caller, e.callee) for e in cg.edges}
        assert pairs == {("main", "f"), ("f", "g")}
        assert all(not e.via_reference for e in cg.edges)

    def test_no_calls_means_no_edges(self):
        program = parse("fn main() -> int { return 0; }")
        assert build_call_graph(program).edges == ()

    def test_reference_call_fans_out_to_matching_functions(self):
        program = parse(
            "fn inc(x: int) -> int { return x + 1; }"
            "fn dec(x: int) -> int { return x - 1; }"
            "fn wide(x: int, y: int) -> int { return x + y; }"
            "fn apply(op: fn(int) -> int, v: int) -> int { let r: int = op(v); return r; }"
            "fn main() -> int {"
            "  let a: int = apply(&inc, 1);"
            "  let b: int = apply(&dec, 2);"
            "  let w: fn(int, int) -> int = &wide;"
            "  return a + b;"
            "}"
        )
        cg = build_call_graph(program)
        ref_edges = [e for e in cg.edges if e.via_reference]
        # one indirect call site, two signature-matching address-taken targets;
        # `wide` is address-taken but its signature differs
        assert {(e.caller, e.callee) for e in ref_edges} == {
            ("apply", "inc"),
            ("apply", "dec"),
        }
        assert len({e.call_site for e in ref_edges}) == 1

    def test_dispatch_corpus_fans_out(self, corpus_dir):
        program = parse((corpus_dir / "dispatch.mini").read_text())
        cg = build_call_graph(program)
        ref_targets = {e.callee for e in cg.edges if e.via_reference}
        assert ref_targets == {"handler_safe", "handler_risky"}

    def test_call_to_undeclared_function_is_rejected(self):
        # assembled by hand: the frontend would already refuse to lower this
        from pathpatch.ir import Call, IRProgram
        from pathpatch.record import replace

        fn = make_function({"a": []}, entry="a")
        call = Call(id="f:a:call", target=None, callee_name="ghost", callee_ref=None, args=())
        blocks = {"a": replace(fn.blocks["a"], statements=(call,))}
        program = IRProgram(
            functions={"f": replace(fn, blocks=blocks)}, entry="f", source_map={}
        )
        with pytest.raises(AnalysisError, match="ghost"):
            build_call_graph(program)

    def test_call_graph_over_approximates_observed_calls(self, corpus_entry):
        """Every (call site, callee) pair seen at runtime is a graph edge."""
        from pathpatch.minilang import run_program

        name, program, vuln, suite = corpus_entry
        edges = {
            (e.call_site, e.callee) for e in build_call_graph(program).edges
        }
        inputs = [case.input for case in suite.cases] + [suite.exploit.input]
        observed = set()
        for values in inputs:
            result = run_program(program, values, record_trace=True)
            observed.update(result.calls)
        if name != "mandatory":  # mandatory's flaw sits in main, no calls
            assert observed
        assert observed <= edges

    def test_external_functions_are_sinks(self):
        program = parse(
            "extern fn mystery(x: int) -> int;"
            "fn main() -> int { let r: int = mystery(3); return r; }"
        )
        cg = build_call_graph(program)
        assert {(e.caller, e.callee) for e in cg.edges} == {("main", "mystery")}
        assert cg.callees_of("mystery") == ()


class TestReferencedFunctions:
    def test_expressions_deeper_than_the_recursion_limit(self):
        """The walk keeps an explicit stack: a FuncRef at the bottom of an
        expression nested past Python's recursion limit is still found."""
        deep = FuncRef("g")
        for i in range(sys.getrecursionlimit() + 100):
            deep = Unary("-", deep) if i % 2 else Binary("+", IntConst(i), deep)
        block = BasicBlock(
            "b0",
            (
                Assign("main:s0", "x", deep),
                Call("main:s1", None, "f", None, (Var("x"), FuncRef("h"))),
            ),
            Return("main:s2", Binary("+", Var("x"), IntConst(1))),
        )
        main = IRFunction("main", (), INT, {"b0": block}, "b0")
        program = IRProgram(functions={"main": main}, entry="main", source_map={})
        assert referenced_functions(program.functions) == {"g", "h"}

    def test_corpus_address_taken_sets(self, corpus_entry):
        """Only dispatch takes function addresses, and every function it
        takes is the target of an indirect call edge."""
        name, program, _, _ = corpus_entry
        taken = referenced_functions(program.functions)
        indirect = {e.callee for e in build_call_graph(program).edges if e.via_reference}
        assert taken == indirect
        assert bool(taken) == (name == "dispatch")
