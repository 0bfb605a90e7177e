"""Frontend: parsing, lowering and interpretation."""

import pytest

from pathpatch.ir import FnType, INT
from pathpatch.minilang import (
    LoweringError,
    ParseError,
    lower,
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
        tree = parse("fn main() -> int { return 0; }")
        assert len(tree.functions) == 1
        assert tree.functions[0].name == "main"
        assert len(tree.functions[0].body) == 1

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
        (ret,) = parse("fn main() -> int { return ٣; }").functions[0].body
        assert ret.value.value == 3

    def test_duplicate_function_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate function"):
            parse("fn f() -> unit { } fn f() -> unit { }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("fn main() -> int { let = 3; }")
        assert err.value.line == 1
        assert err.value.col is not None

    def test_function_type_parameters(self):
        tree = parse("fn apply(op: fn(int, ref) -> int) -> int { return op(1, nil); }")
        (_, op_type), = tree.functions[0].params
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

        expr = parse(source(MAX_NESTING)).functions[0].body[0].value
        for _ in range(MAX_NESTING - 1):
            assert expr.op == op
            expr = expr.left
        for terms in (MAX_NESTING + 1, 1000):
            with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
                parse(source(terms))

    def test_precedence_across_operator_tiers(self):
        expr = parse(
            "fn main() -> int { let v: bool = 1 + 2 * 3 < 4 - 5 && true || false; return 0; }"
        ).functions[0].body[0].value
        assert expr.op == "||" and expr.left.op == "&&"
        cmp = expr.left.left
        assert cmp.op == "<"
        assert (cmp.left.op, cmp.left.right.op, cmp.right.op) == ("+", "*", "-")

    def test_bmp_reader_parses_with_conditionals_on_expected_lines(self, corpus_dir):
        tree = parse((corpus_dir / "bmp_reader.mini").read_text())
        decl = next(d for d in tree.functions if d.name == "read_image")
        from pathpatch.minilang import nodes

        lines = []

        def scan(body):
            for stmt in body:
                if isinstance(stmt, (nodes.If, nodes.While)):
                    lines.append(stmt.line)
                    scan(getattr(stmt, "then_body", getattr(stmt, "body", ())))
                    if getattr(stmt, "else_body", None):
                        scan(stmt.else_body)

        scan(decl.body)
        assert sorted(lines) == [4, 11, 12, 15]


class TestLowering:
    def test_two_function_program(self):
        program = lower(parse("fn f() -> int { return 1; } fn main() -> int { return f(); }"))
        assert set(program.functions) == {"f", "main"}
        assert program.entry == "main"

    def test_missing_main_is_an_error(self):
        with pytest.raises(LoweringError, match="main"):
            lower(parse("fn f() -> int { return 1; }"))

    def test_address_taken_flag(self):
        program = lower(
            parse(
                "fn helper(x: int) -> int { return x; }"
                "fn use(op: fn(int) -> int) -> int { return op(1); }"
                "fn main() -> int { return use(&helper); }"
            )
        )
        assert program.address_taken == frozenset({"helper"})

    def test_literal_type_mismatch_rejected(self):
        with pytest.raises(LoweringError, match="assign"):
            lower(parse("fn main() -> int { let x: int = true; return 0; }"))

    def test_impure_condition_rejected(self):
        with pytest.raises(LoweringError, match="conditions"):
            lower(
                parse(
                    "fn main() -> int { let a: ref = alloc(3);"
                    " if (a[0] > 1) { return 1; } return 0; }"
                )
            )

    def test_unknown_variable_rejected(self):
        with pytest.raises(LoweringError, match="unknown variable"):
            lower(parse("fn main() -> int { ghost = 3; return 0; }"))

    def test_nested_impure_expressions_flatten(self):
        program = lower(
            parse(
                "fn main() -> int { let a: ref = alloc(4); a[0] = 7;"
                " let x: int = a[0] + a[0] * 2; print(x); return x; }"
            )
        )
        result = run_program(program)
        assert result.output == (21,)

    def test_source_map_lines(self):
        program = lower(parse("fn main() -> int {\n  print(1);\n  return 0;\n}"))
        lines = {line for _, line in program.source_map.values()}
        assert 2 in lines and 3 in lines

    def test_condition_type_error_reports_its_line(self):
        with pytest.raises(LoweringError, match="needs bool operands at line 2"):
            lower(
                parse(
                    "fn main() -> int { let x: int = 1;\n"
                    "  if (x && true) { return 1; }\n  return 0;\n}"
                )
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
        result = run_program(lower(parse(source)))
        assert (result.status, result.output, result.exit_value) == (STATUS_OK, (7, -2, -10), 7)

    def test_operator_semantics(self):
        program = lower(
            parse(
                "fn main() -> int {"
                " print(7 % 3); print(2 * 3 + 4); print(2 + 3 * 4);"
                " print((1 < 2) && (3 < 2)); print((1 < 2) || (3 < 2));"
                " print(!(1 == 1)); print(-(4 - 9));"
                " return 0; }"
            )
        )
        assert run_program(program).output == (1, 10, 14, 0, 1, 0, 5)


class TestInterpreter:
    def test_prints_in_order(self):
        program = lower(parse("fn main() -> int { print(1); print(2); print(3); return 0; }"))
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
        program = lower(parse("fn main() -> int { while (true) { } return 0; }"))
        result = run_program(program, max_steps=500)
        assert result.status == STATUS_TIMEOUT

    def test_division_by_zero_faults(self):
        program = lower(parse("fn main() -> int { let d: int = read_input(); return 1 / d; }"))
        assert run_program(program, [0]).status == STATUS_FAULT
        assert run_program(program, [0]).fault_kind == "div_zero"
        assert run_program(program, [2]).exit_value == 0

    def test_truncating_division(self):
        program = lower(
            parse("fn main() -> int { print(-7 / 2); print(-7 % 2); print(7 / -2); return 0; }")
        )
        assert run_program(program).output == (-3, -1, -3)

    def test_nil_dereference_faults(self):
        program = lower(parse("fn main() -> int { let a: ref = nil; return a[0]; }"))
        result = run_program(program)
        assert (result.status, result.fault_kind) == (STATUS_FAULT, "nil_deref")

    def test_assertion_failure_faults(self):
        program = lower(parse("fn main() -> int { assert(1 == 2); return 0; }"))
        assert run_program(program).fault_kind == "assert_fail"

    def test_input_exhaustion(self):
        program = lower(
            parse("fn main() -> int { let a: int = read_input(); let b: int = read_input(); return a + b; }")
        )
        assert run_program(program, [5]).status == STATUS_INPUT_EXHAUSTED
        assert run_program(program, [5, 6]).exit_value == 11

    def test_heap_budget_exhaustion_reports_timeout(self):
        # resource exhaustion shares the timeout status: it is a limit,
        # not a program fault
        program = lower(
            parse(
                "fn main() -> int { let n: int = 0;"
                " while (n < 100) { let a: ref = alloc(100); n = n + 1; }"
                " return n; }"
            )
        )
        result = run_program(program, max_heap_cells=500)
        assert result.status == STATUS_TIMEOUT
        assert run_program(program).status == STATUS_OK

    def test_negative_alloc_size_faults(self):
        program = lower(
            parse("fn main() -> int { let n: int = read_input(); let a: ref = alloc(n); return 0; }")
        )
        assert run_program(program, [-3]).fault_kind == "oob"

    def test_out_of_bounds_faults_without_wraparound(self):
        program = lower(
            parse("fn main() -> int { let a: ref = alloc(2); let i: int = read_input(); return a[i]; }")
        )
        assert run_program(program, [2]).fault_kind == "oob"
        assert run_program(program, [-1]).fault_kind == "oob"
        assert run_program(program, [1]).status == STATUS_OK

    def test_determinism_including_trace(self):
        source = (
            "fn f(n: int) -> int { let acc: int = 0; let i: int = 0;"
            " while (i < n) { acc = acc + i; i = i + 1; } return acc; }"
            "fn main() -> int { let n: int = read_input(); print(f(n)); return 0; }"
        )
        program = lower(parse(source))
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
        program = lower(parse(source))
        result = run_program(program)
        assert result.output == (2000,)

    def test_extern_call_returns_type_default(self):
        program = lower(
            parse(
                "extern fn probe(x: int) -> int;"
                "fn main() -> int { print(probe(9)); return 0; }"
            )
        )
        assert run_program(program).output == (0,)

    def test_bools_print_as_zero_or_one(self):
        program = lower(
            parse("fn main() -> int { print(1 < 2); print(2 < 1); return 0; }")
        )
        assert run_program(program).output == (1, 0)

    def test_calling_an_unset_function_reference_faults(self):
        program = lower(
            parse(
                "fn id(x: int) -> int { return x; }"
                "fn main() -> int {"
                "  let h: fn(int) -> int = nil;"
                "  let keep: fn(int) -> int = &id;"
                "  return h(1);"
                "}"
            )
        )
        result = run_program(program)
        assert (result.status, result.fault_kind) == (STATUS_FAULT, "nil_deref")

    def test_condition_fault_is_attributed_to_the_conditional(self):
        program = lower(
            parse(
                "fn main() -> int {\n"
                "  let d: int = read_input();\n"
                "  if (10 / d > 2) { print(1); }\n"
                "  return 0;\n"
                "}"
            )
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
