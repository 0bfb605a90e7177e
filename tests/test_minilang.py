"""Frontend: parsing, lowering and interpretation."""

import pytest

from pathpatch.analysis import build_call_graph, referenced_functions
from pathpatch.ir import INT, FnType, IntConst, Return, Unary, Var
from pathpatch.minilang import (
    LoweringError,
    ParseError,
    parse,
    run_program,
)
from pathpatch.minilang.parser import MAX_NESTING
from pathpatch.minilang.interp import (
    STATUS_FAULT,
    STATUS_INPUT_EXHAUSTED,
    STATUS_OK,
    STATUS_TIMEOUT,
)


class TestParser:
    def test_minimal_function(self):
        program = parse("fn main() -> int { return 0; }")
        assert list(program.functions) == ["main"]
        (block,) = program.functions["main"].blocks.values()
        assert block.statements == ()
        assert block.terminator == Return("main:s0", IntConst(0))

    def test_unterminated_block_reports_final_line(self):
        with pytest.raises(ParseError) as err:
            parse("fn main() -> int {\n  let x: int = 1;\n")
        assert err.value.line == 3

    def test_unterminated_block_after_a_comment_reports_the_end_column(self):
        with pytest.raises(ParseError) as err:
            parse("fn main() -> int { return 0; # c")
        assert (err.value.line, err.value.col) == (1, 33)

    @pytest.mark.parametrize("digit", ["²", "①"])
    def test_a_digit_that_int_rejects_is_an_unexpected_character(self, digit):
        with pytest.raises(ParseError, match=f"unexpected character '{digit}'"):
            parse(f"fn main() -> int {{ return {digit}; }}")
        # a decimal digit of another script still reads as its value
        (block,) = parse("fn main() -> int { return ٣; }").functions["main"].blocks.values()
        assert block.terminator.value == IntConst(3)

    def test_duplicate_function_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate function"):
            parse("fn f() -> unit { } fn f() -> unit { }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("fn main() -> int { let = 3; }")
        assert err.value.line == 1
        assert err.value.col is not None

    def test_function_type_parameters(self):
        program = parse(
            "fn apply(op: fn(int, ref) -> int) -> int { return op(1, nil); }"
            "fn main() -> int { return 0; }"
        )
        (_, op_type), = program.functions["apply"].params
        assert op_type == FnType(params=(INT, "ref"), ret=INT)

    def test_function_typed_returns_are_rejected(self):
        with pytest.raises(ParseError, match="function types"):
            parse("fn pick() -> fn(int) -> int { return nil; }")

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "%", "&&", "||"])
    def test_flat_operator_chain_counts_against_the_nesting_limit(self, op):
        """`v = a op a op ...` with `terms` operands nests `terms` levels:
        the body block, the expression, and each operator after the first.
        Precedence and left association are unchanged."""
        typ, operand = ("bool", "true") if op in ("&&", "||") else ("int", "7")

        def source(terms):
            chain = f" {op} ".join([operand] * terms)
            return f"fn main() -> int {{ let v: {typ} = {chain}; return 0; }}"

        (block,) = parse(source(MAX_NESTING)).functions["main"].blocks.values()
        expr = block.statements[0].value
        for _ in range(MAX_NESTING - 1):
            assert expr.op == op
            expr = expr.left
        for terms in (MAX_NESTING + 1, 1000):
            with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
                parse(source(terms))

    def test_precedence_across_operator_tiers(self):
        (block,) = parse(
            "fn main() -> int { let v: bool = 1 + 2 * 3 < 4 - 5 && true || false; return 0; }"
        ).functions["main"].blocks.values()
        expr = block.statements[0].value
        assert expr.op == "||" and expr.left.op == "&&"
        cmp = expr.left.left
        assert cmp.op == "<"
        assert (cmp.left.op, cmp.left.right.op, cmp.right.op) == ("+", "*", "-")

    def test_negative_literals_fold_to_constants(self):
        (block,) = parse(
            "fn main() -> int { let x: int = 5;"
            " print(-5); print(- -5); print(-(5)); print(-x); return 0; }"
        ).functions["main"].blocks.values()
        assert [s.value for s in block.statements[1:]] == [
            IntConst(-5), IntConst(5), IntConst(-5), Unary("-", Var("x"))
        ]

    def test_bmp_reader_parses_with_conditionals_on_expected_lines(self, corpus_dir):
        program = parse((corpus_dir / "bmp_reader.mini").read_text())
        fn = program.functions["read_image"]
        lines = [
            program.source_map[block.terminator.id][1]
            for block in fn.blocks.values()
            if block.is_conditional
        ]
        assert sorted(lines) == [4, 11, 12, 15]


def from_frames(frames: int, run):
    """`run()`, called from `frames` more Python frames."""
    return run() if frames == 0 else from_frames(frames - 1, run)


# kind of nesting: (source nested `k` levels of that kind deep, deepest `k`
# accepted); the body block and the statement's expression count too
NESTING = {
    "parentheses": (
        lambda k: "fn main() -> int { return " + "(" * k + "1" + ")" * k + "; }",
        MAX_NESTING - 2,
    ),
    "while blocks": (
        lambda k: "fn main() -> int { " + "while (false) { " * k + "}" * k + " return 0; }",
        MAX_NESTING - 1,
    ),
    "not": (
        lambda k: "fn main() -> int { let b: bool = " + "!" * k + "true; return 0; }",
        MAX_NESTING - 2,
    ),
    "function types": (
        lambda k: "fn main() -> int { let f: " + "fn() -> " * k + "int = nil; return 0; }",
        MAX_NESTING - 1,
    ),
    "operator chain": (
        lambda k: "fn main() -> int { let v: int = " + " + ".join(["1"] * k) + "; return v; }",
        MAX_NESTING,
    ),
}


@pytest.mark.parametrize("kind", sorted(NESTING))
def test_deepest_nesting_parses_from_200_more_frames(kind):
    """The deepest accepted program of each kind of nesting parses and lowers
    with 200 more Python frames on the stack, and one level deeper is the
    nesting ParseError there, not a RecursionError."""
    source, deepest = NESTING[kind]
    from_frames(200, lambda: parse(source(deepest)))
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        from_frames(200, lambda: parse(source(deepest + 1)))


class TestLowering:
    def test_two_function_program(self):
        program = parse("fn f() -> int { return 1; } fn main() -> int { return f(); }")
        assert set(program.functions) == {"f", "main"}
        assert program.entry == "main"

    def test_missing_main_is_an_error(self):
        with pytest.raises(LoweringError, match="main"):
            parse("fn f() -> int { return 1; }")

    def test_address_taken_flag(self):
        program = parse(
            "fn helper(x: int) -> int { return x; }"
            "fn use(op: fn(int) -> int) -> int { return op(1); }"
            "fn main() -> int { return use(&helper); }"
        )
        assert referenced_functions(program.functions) == frozenset({"helper"})
        assert [
            (e.caller, e.callee) for e in build_call_graph(program).edges if e.via_reference
        ] == [("use", "helper")]

    def test_literal_type_mismatch_rejected(self):
        with pytest.raises(LoweringError, match="assign"):
            parse("fn main() -> int { let x: int = true; return 0; }")

    def test_impure_condition_rejected(self):
        with pytest.raises(LoweringError, match="conditions"):
            parse(
                "fn main() -> int { let a: ref = alloc(3);"
                " if (a[0] > 1) { return 1; } return 0; }"
            )

    def test_unknown_variable_rejected(self):
        with pytest.raises(LoweringError, match="unknown variable"):
            parse("fn main() -> int { ghost = 3; return 0; }")

    def test_nested_impure_expressions_flatten(self):
        program = parse(
            "fn main() -> int { let a: ref = alloc(4); a[0] = 7;"
            " let x: int = a[0] + a[0] * 2; print(x); return x; }"
        )
        result = run_program(program)
        assert result.output == (21,)

    def test_a_local_may_be_used_before_its_let(self):
        program = parse(
            "fn main() -> int { x = 5; print(x); let x: int = x + 1; print(x); return 0; }"
        )
        assert run_program(program).output == (5, 6)

    @pytest.mark.parametrize(
        "source, output",
        [
            (
                "fn f() -> int { return 7; }"
                "fn main() -> int { let __t0: int = 100; let y: int = f() + 1;"
                " print(__t0); return 0; }",
                (100,),
            ),
            (
                "fn f() -> bool { return true; }"
                "fn main() -> int { let __t0: int = 100; let y: bool = f() && true;"
                " print(__t0 + 1); return 0; }",
                (101,),
            ),
        ],
    )
    def test_temporaries_never_clash_with_user_variables(self, source, output):
        assert run_program(parse(source)).output == output

    def test_repeated_parameter_is_an_error(self):
        with pytest.raises(LoweringError, match="^'a' declared twice in f at line 2$"):
            parse("fn f(a: int,\n a: bool) -> int { return 0; } fn main() -> int { return 0; }")

    def test_extern_errval_is_checked_and_kept(self):
        with pytest.raises(
            LoweringError, match="^errval literal does not match return type int at line 1$"
        ):
            parse("extern fn g() -> int errval true; fn main() -> int { return 0; }")
        program = parse("extern fn g() -> int errval -3; fn main() -> int { return g(); }")
        assert program.functions["g"].declared_error_return == IntConst(-3)

    def test_source_map_lines(self):
        program = parse("fn main() -> int {\n  print(1);\n  return 0;\n}")
        lines = {line for _, line in program.source_map.values()}
        assert 2 in lines and 3 in lines

    def test_condition_type_error_reports_its_line(self):
        with pytest.raises(LoweringError, match="needs bool operands at line 2"):
            parse(
                "fn main() -> int { let x: int = 1;\n"
                "  if (x && true) { return 1; }\n  return 0;\n}"
            )

    def test_mixed_precedence_expressions(self):
        source = (
            "fn main() -> int {\n"
            "  let a: int = 2;\n"
            "  let b: int = 3;\n"
            "  let c: int = 1 + a * b - (a - 1) / 2;\n"
            "  let d: bool = !(a < b) || a + 1 >= b && true;\n"
            "  print(c);\n"
            "  if (d) { print(-a % b); }\n"
            "  print(0 - (a + b) * 2);\n"
            "  return c;\n"
            "}"
        )
        result = run_program(parse(source))
        assert (result.status, result.output, result.exit_value) == (STATUS_OK, (7, -2, -10), 7)

    def test_operator_semantics(self):
        program = parse(
            "fn main() -> int {"
            " print(7 % 3); print(2 * 3 + 4); print(2 + 3 * 4);"
            " print((1 < 2) && (3 < 2)); print((1 < 2) || (3 < 2));"
            " print(!(1 == 1)); print(-(4 - 9));"
            " return 0; }"
        )
        assert run_program(program).output == (1, 10, 14, 0, 1, 0, 5)


class TestInterpreter:
    def test_prints_in_order(self):
        program = parse("fn main() -> int { print(1); print(2); print(3); return 0; }")
        result = run_program(program)
        assert result.status == STATUS_OK
        assert result.output == (1, 2, 3)

    def test_exploit_input_faults_at_vulnerable_statement(self, bmp_reader):
        program, vuln, suite = bmp_reader
        result = run_program(program, suite.exploit.input)
        assert result.status == STATUS_FAULT
        assert result.fault_kind == "oob"
        assert result.fault_at == vuln.statement
        # the backtrace mirrors the call chain, outermost first
        assert [fn for fn, _ in result.fault_stack] == [
            "main",
            "input_bmp_reader",
            "read_image",
        ]

    def test_infinite_loop_times_out(self):
        program = parse("fn main() -> int { while (true) { } return 0; }")
        result = run_program(program, max_steps=500)
        assert result.status == STATUS_TIMEOUT

    def test_division_by_zero_faults(self):
        program = parse("fn main() -> int { let d: int = read_input(); return 1 / d; }")
        assert run_program(program, [0]).status == STATUS_FAULT
        assert run_program(program, [0]).fault_kind == "div_zero"
        assert run_program(program, [2]).exit_value == 0

    def test_truncating_division(self):
        program = parse("fn main() -> int { print(-7 / 2); print(-7 % 2); print(7 / -2); return 0; }")
        assert run_program(program).output == (-3, -1, -3)

    def test_nil_dereference_faults(self):
        program = parse("fn main() -> int { let a: ref = nil; return a[0]; }")
        result = run_program(program)
        assert (result.status, result.fault_kind) == (STATUS_FAULT, "nil_deref")

    def test_assertion_failure_faults(self):
        program = parse("fn main() -> int { assert(1 == 2); return 0; }")
        assert run_program(program).fault_kind == "assert_fail"

    def test_input_exhaustion(self):
        program = parse("fn main() -> int { let a: int = read_input(); let b: int = read_input(); return a + b; }")
        assert run_program(program, [5]).status == STATUS_INPUT_EXHAUSTED
        assert run_program(program, [5, 6]).exit_value == 11

    def test_heap_budget_exhaustion_reports_timeout(self):
        # resource exhaustion shares the timeout status: it is a limit,
        # not a program fault
        program = parse(
            "fn main() -> int { let n: int = 0;"
            " while (n < 100) { let a: ref = alloc(100); n = n + 1; }"
            " return n; }"
        )
        result = run_program(program, max_heap_cells=500)
        assert result.status == STATUS_TIMEOUT
        assert run_program(program).status == STATUS_OK

    def test_negative_alloc_size_faults(self):
        program = parse("fn main() -> int { let n: int = read_input(); let a: ref = alloc(n); return 0; }")
        assert run_program(program, [-3]).fault_kind == "oob"

    def test_out_of_bounds_faults_without_wraparound(self):
        program = parse("fn main() -> int { let a: ref = alloc(2); let i: int = read_input(); return a[i]; }")
        assert run_program(program, [2]).fault_kind == "oob"
        assert run_program(program, [-1]).fault_kind == "oob"
        assert run_program(program, [1]).status == STATUS_OK

    def test_determinism_including_trace(self):
        source = (
            "fn f(n: int) -> int { let acc: int = 0; let i: int = 0;"
            " while (i < n) { acc = acc + i; i = i + 1; } return acc; }"
            "fn main() -> int { let n: int = read_input(); print(f(n)); return 0; }"
        )
        program = parse(source)
        first = run_program(program, [7], record_trace=True)
        second = run_program(program, [7], record_trace=True)
        assert first == second
        assert first.trace is not None

    def test_trace_entries_are_connected(self, corpus_entry):
        name, program, vuln, suite = corpus_entry
        inputs = suite.cases[0].input
        result = run_program(program, inputs, record_trace=True)
        assert_trace_connected(program, result.trace)

    def test_recursion_executes_without_python_recursion(self):
        source = (
            "fn down(n: int) -> int { if (n <= 0) { return 0; } return down(n - 1) + 1; }"
            "fn main() -> int { print(down(2000)); return 0; }"
        )
        program = parse(source)
        result = run_program(program)
        assert result.output == (2000,)

    def test_extern_call_returns_type_default(self):
        program = parse(
            "extern fn probe(x: int) -> int;"
            "fn main() -> int { print(probe(9)); return 0; }"
        )
        assert run_program(program).output == (0,)

    def test_bools_print_as_zero_or_one(self):
        program = parse("fn main() -> int { print(1 < 2); print(2 < 1); return 0; }")
        assert run_program(program).output == (1, 0)

    def test_calling_an_unset_function_reference_faults(self):
        program = parse(
            "fn id(x: int) -> int { return x; }"
            "fn main() -> int {"
            "  let h: fn(int) -> int = nil;"
            "  let keep: fn(int) -> int = &id;"
            "  return h(1);"
            "}"
        )
        result = run_program(program)
        assert (result.status, result.fault_kind) == (STATUS_FAULT, "nil_deref")

    def test_condition_fault_is_attributed_to_the_conditional(self):
        program = parse(
            "fn main() -> int {\n"
            "  let d: int = read_input();\n"
            "  if (10 / d > 2) { print(1); }\n"
            "  return 0;\n"
            "}"
        )
        result = run_program(program, [0])
        assert result.fault_kind == "div_zero"
        assert program.source_map[result.fault_at][1] == 3


def assert_trace_connected(program, trace):
    """Consecutive trace entries are CFG edges or call/return transitions."""
    stack = [trace[0]]
    assert trace[0] == (program.entry, program.functions[program.entry].entry_block)
    for fn_id, block_id in trace[1:]:
        cur_fn, cur_block = stack[-1]
        block = program.functions[cur_fn].blocks[cur_block]
        if fn_id == cur_fn and block_id in block.successors:
            stack[-1] = (fn_id, block_id)
            continue
        callees = {
            s.callee_name
            for s in block.statements
            if s.kind == "call"
        }
        entry = program.functions[fn_id].entry_block
        if block_id == entry and (fn_id in callees or None in callees):
            stack.append((fn_id, block_id))
            continue
        # returns: single-block callees produce no entry of their own, so
        # one step may pop several frames before landing on a successor
        matched = False
        while stack:
            stack.pop()
            if not stack:
                break
            cur_fn, cur_block = stack[-1]
            block = program.functions[cur_fn].blocks[cur_block]
            if fn_id == cur_fn and block_id in block.successors:
                stack[-1] = (fn_id, block_id)
                matched = True
                break
        assert matched, f"disconnected trace entry {(fn_id, block_id)}"
