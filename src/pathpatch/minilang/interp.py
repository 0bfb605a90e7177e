"""Deterministic interpreter for lowered programs.

Each function is compiled to Python closures once, on its first execution,
and every later run reuses that code:

  - expressions become nested closures `env -> value`, with constant
    subexpressions computed at compile time;
  - statements become closures `(env, state) -> None`;
  - each block is split into segments, each a run of statements ended by
    one call or by the block's terminator;
  - terminators become small tuples dispatched on an integer tag.

The compiled form is stored on the `IRFunction` itself (`fn.compiled`), so
it lives exactly as long as the function. `dataclasses.replace` does not
carry it over, and a patched variant shares every unchanged function with
its base program (`synth.apply_patch`), so a variant compiles only the
function its patch rewrote. The compiled code holds no per-run state and
no reference back to a program: callees are looked up in the running
program, so two threads that compile the same function at once both
produce working code, and the single attribute store publishes either.

Execution is a loop over an explicit frame stack, so deep call chains never
hit Python's recursion limit. All abnormal outcomes are encoded in the
result status; the interpreter itself never raises for program behavior:

    ok               normal completion, with main's return value
    fault            out-of-bounds access, division by zero, nil deref,
                     or failed assertion; records the statement and a
                     backtrace of the call sites leading to it
    timeout          step or heap budget exhausted
    input_exhausted  read_input with no input left

A fault terminates the run immediately, which is the signal the evaluation
harness watches for.

Steps: every statement and every terminator costs one step, charged before
it executes; a run times out on the step that exceeds `max_steps`.
`ExecutionResult.steps` is the number of steps charged, the failing one
included. A segment whose steps all fit in the remaining budget is charged
in one addition; if one of its statements then stops the run, the count is
corrected to the steps before the segment plus the position of that
statement plus one. A segment that does not fit is run one step at a time,
so a timeout happens at exactly the same statement either way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..ir import (
    BOOL,
    INT,
    Binary,
    BoolConst,
    Branch,
    FuncRef,
    Halt,
    IntConst,
    IRError,
    IRProgram,
    Jump,
    NilConst,
    Return,
    Unary,
    Var,
)

DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_MAX_HEAP_CELLS = 1_000_000

FAULT_OOB = "oob"
FAULT_DIV_ZERO = "div_zero"
FAULT_NIL_DEREF = "nil_deref"
FAULT_ASSERT = "assert_fail"

STATUS_OK = "ok"
STATUS_FAULT = "fault"
STATUS_TIMEOUT = "timeout"
STATUS_INPUT_EXHAUSTED = "input_exhausted"


@dataclass(frozen=True)
class FnVal:
    """Runtime value of a function reference."""

    name: str


@dataclass(frozen=True)
class ExecutionResult:
    status: str
    exit_value: object | None = None
    fault_kind: str | None = None
    fault_at: str | None = None
    # call sites from outermost to the faulting function, plus the fault
    # statement itself; mirrors a debugger backtrace
    fault_stack: tuple[tuple[str, str], ...] | None = None
    output: tuple[int, ...] = ()
    trace: tuple[tuple[str, str], ...] | None = None
    # (call site statement, resolved callee) pairs, recorded with the trace
    calls: tuple[tuple[str, str], ...] | None = None
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class _Stop(Exception):
    """Ends a run; `at` is the id of the statement that raised it."""

    def __init__(self, at=None):
        self.at = at


class _Fault(_Stop):
    def __init__(self, kind: str, at: str):
        self.kind = kind
        self.at = at


class _Timeout(_Stop):
    pass


class _InputExhausted(_Stop):
    pass


_NO_INPUT = object()


class _State:
    """Per-run machine state the statement closures read and update."""

    __slots__ = ("inputs", "heap", "heap_cells", "max_heap_cells", "output")

    def __init__(self, input_values, max_heap_cells):
        self.inputs = iter(tuple(input_values))
        self.heap: list[list[int]] = []
        self.heap_cells = 0
        self.max_heap_cells = max_heap_cells
        self.output: list[int] = []


def _default_for(value_type):
    if value_type == INT:
        return 0
    if value_type == BOOL:
        return False
    return None  # ref / fn-ref default to nil


def run_program(
    program: IRProgram,
    input_values=(),
    max_steps: int = DEFAULT_MAX_STEPS,
    max_heap_cells: int = DEFAULT_MAX_HEAP_CELLS,
    record_trace: bool = False,
) -> ExecutionResult:
    """Run a lowered program on a flat list of integer inputs."""
    if not program.executable:
        raise IRError("program has no executable statement bodies")
    functions = program.functions
    st = _State(input_values, max_heap_cells)
    trace: list[tuple[str, str]] | None = [] if record_trace else None
    calls: list[tuple[str, str]] | None = [] if record_trace else None
    # saved callers: (function, blocks, env, resume segment, target, call site)
    stack: list[tuple] = []
    steps = 0

    fn = functions[program.entry]
    blocks, entry, params, defaults = fn.compiled or _compile(fn)
    seg = blocks[entry]
    env = dict(defaults)
    if trace is not None:
        trace.append(seg[5])
    try:
        while True:
            stmts, n, ids, call, after, _ = seg
            if steps + n <= max_steps:
                steps += n
                try:
                    for stmt in stmts:
                        stmt(env, st)
                except _Stop as stop:
                    steps += ids.index(stop.at) + 1 - n
                    raise
            else:
                for stmt in stmts:
                    steps += 1
                    if steps > max_steps:
                        raise _Timeout
                    stmt(env, st)
                steps += 1
                if steps > max_steps:
                    raise _Timeout

            if call is not None:
                site, callee_name, callee_ref, arg_values, target = call
                if callee_name is not None:
                    callee = functions[callee_name]
                else:
                    value = env[callee_ref]
                    if value is None:
                        raise _Fault(FAULT_NIL_DEREF, site)
                    callee = functions[value.name]
                args = arg_values(env)
                if calls is not None:
                    calls.append((site, callee.id))
                if callee.external:
                    # externals have no body; they yield their return type's default
                    if target is not None:
                        env[target] = _default_for(callee.return_type)
                    seg = after
                    continue
                stack.append((fn, blocks, env, after, target, site))
                fn = callee
                blocks, entry, params, defaults = fn.compiled or _compile(fn)
                seg = blocks[entry]
                env = dict(zip(params, args))
                env.update(defaults)
            else:
                tag = after[0]
                if tag == _BRANCH:
                    seg = blocks[after[2] if after[1](env) else after[3]]
                elif tag == _JUMP:
                    seg = blocks[after[1]]
                elif tag == _RETURN:
                    value = after[1](env)
                    if not stack:
                        return _result(STATUS_OK, st, trace, calls, steps, exit_value=value)
                    fn, blocks, env, seg, target, _ = stack.pop()
                    if target is not None:
                        env[target] = value
                    continue
                elif tag == _HALT:
                    return _result(STATUS_OK, st, trace, calls, steps, exit_value=None)
                else:
                    raise IRError(after[1])
            if trace is not None:
                trace.append(seg[5])
    except _Fault as fault:
        backtrace = [(frame[0].id, frame[5]) for frame in stack]
        backtrace.append((fn.id, fault.at))
        return _result(
            STATUS_FAULT,
            st,
            trace,
            calls,
            steps,
            fault_kind=fault.kind,
            fault_at=fault.at,
            fault_stack=tuple(backtrace),
        )
    except _Timeout:
        return _result(STATUS_TIMEOUT, st, trace, calls, steps)
    except _InputExhausted:
        return _result(STATUS_INPUT_EXHAUSTED, st, trace, calls, steps)


def _result(status, st, trace, calls, steps, **kw) -> ExecutionResult:
    return ExecutionResult(
        status=status,
        output=tuple(st.output),
        trace=tuple(trace) if trace is not None else None,
        calls=tuple(calls) if calls is not None else None,
        steps=steps,
        **kw,
    )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# Terminator tags. Targets are indices into the function's block tuple, so
# the compiled form has no reference cycles and is freed with its function.
_JUMP, _BRANCH, _RETURN, _HALT, _MISSING = range(5)


def _compile(fn):
    """Compile `fn` and publish the result on `fn.compiled`.

    The result is `(blocks, entry, params, defaults)`: `blocks[i]` is the
    first segment of the i-th block, a tuple `(statements, steps, ids,
    call, after, trace key)`. A segment ended by a call has `call =
    (site, callee name, callee ref, args closure, target)` and continues
    with the segment `after`; otherwise `after` is the terminator tuple.
    Compilation never raises: what the IR cannot do raises when it runs.
    """
    index = {bid: i for i, bid in enumerate(fn.blocks)}
    missing: list[tuple] = []

    def target(bid):
        # an unknown block raises KeyError when entered, before any step
        if bid not in index:
            index[bid] = len(index)
            missing.append(((_raiser(KeyError, bid),), 0, (None,), None, None, None))
        return index[bid]

    blocks = [_block(fn, block, target) for block in fn.blocks.values()]
    entry = target(fn.entry_block)
    defaults = {name: _default_for(vtype) for name, vtype in fn.locals.items()}
    compiled = (
        tuple(blocks + missing),
        entry,
        tuple(name for name, _ in fn.params),
        defaults,
    )
    object.__setattr__(fn, "compiled", compiled)
    return compiled


def _block(fn, block, target):
    key = (fn.id, block.id)
    term = block.terminator
    if isinstance(term, Jump):
        after = (_JUMP, target(term.target))
    elif isinstance(term, Branch):
        after = (
            _BRANCH,
            _closure(_expr(term.cond, term.id)),
            target(term.then_target),
            target(term.else_target),
        )
    elif isinstance(term, Return):
        value = None if term.value is None else _expr(term.value, term.id)
        after = (_RETURN, _closure(value))
    elif isinstance(term, Halt):
        after = (_HALT,)
    else:
        after = (_MISSING, f"block {block.id} has no terminator")

    # split at calls, then link the segments back to front
    runs: list[tuple[list, object]] = [([], None)]
    for stmt in block.statements:
        if stmt.kind == "call":
            runs[-1] = (runs[-1][0], stmt)
            runs.append(([], None))
        else:
            runs[-1][0].append(stmt)
    seg = None
    for stmts, call in reversed(runs):
        seg = (
            tuple(_statement(s) for s in stmts),
            len(stmts) + 1,
            tuple(s.id for s in stmts),
            None if call is None else _call(call),
            after if call is None else seg,
            key,
        )
    return seg


def _call(stmt):
    names = [a.name for a in stmt.args if isinstance(a, Var)]
    if len(names) == len(stmt.args) > 1:
        arg_values = operator.itemgetter(*names)  # one C call for all args
    else:
        args = [_closure(_expr(a, stmt.id)) for a in stmt.args]

        def arg_values(env):
            return [a(env) for a in args]

    return (stmt.id, stmt.callee_name, stmt.callee_ref, arg_values, stmt.target)


class _Const:
    """A compiled expression whose value is known at compile time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _closure(compiled):
    """The closure form of a compiled expression (None stays nil)."""
    if compiled is None or isinstance(compiled, _Const):
        value = None if compiled is None else compiled.value
        return lambda env: value
    return compiled


def _raiser(error, message):
    """A closure that raises `error(message)` whenever it runs."""

    def run(*_):
        raise error(message)

    return run


def _div(op, at):
    def divide(left, right):
        if right == 0:
            raise _Fault(FAULT_DIV_ZERO, at)
        # C-style: quotient truncates toward zero, remainder matches
        q = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            q = -q
        if op == "/":
            return q
        return left - q * right

    return divide


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    # both operands are always evaluated; no short circuit
    "&&": lambda left, right: left and right,
    "||": lambda left, right: left or right,
}


def _expr(expr, at):
    """Compile a pure expression into a closure `env -> value`, or into a
    `_Const` when it has no variables and cannot fault. `at` is the id of
    the statement it belongs to, where its faults are reported."""
    if isinstance(expr, (IntConst, BoolConst)):
        return _Const(expr.value)
    if isinstance(expr, NilConst):
        return _Const(None)
    if isinstance(expr, FuncRef):
        return _Const(FnVal(expr.name))
    if isinstance(expr, Var):
        return operator.itemgetter(expr.name)
    if isinstance(expr, Unary):
        op = operator.not_ if expr.op == "!" else operator.neg
        operand = _expr(expr.operand, at)
        if isinstance(operand, _Const):
            return _fold(op, operand.value)
        return lambda env: op(operand(env))
    if isinstance(expr, Binary):
        return _binary(expr, at)
    return _raiser(IRError, f"cannot evaluate {expr!r}")


def _fold(op, *values):
    """Apply `op` at compile time; keep it for run time if it raises."""
    try:
        return _Const(op(*values))
    except (_Fault, IRError, TypeError):
        return lambda env: op(*values)


def _binary(expr, at):
    if expr.op in ("/", "%"):
        op = _div(expr.op, at)
    else:
        op = _OPS.get(expr.op) or _raiser(IRError, f"unknown operator {expr.op!r}")
    left = _expr(expr.left, at)
    right = _expr(expr.right, at)
    left_var = isinstance(expr.left, Var)
    if isinstance(right, _Const):
        c = right.value
        if isinstance(left, _Const):
            return _fold(op, left.value, c)
        if expr.op in ("/", "%") and type(c) is int and c > 0:
            # C-style division by a positive constant cannot fault
            if expr.op == "/":
                return lambda env: v // c if (v := left(env)) >= 0 else -(-v // c)
            return lambda env: v % c if (v := left(env)) >= 0 else -(-v % c)
        if left_var:
            name = expr.left.name
            return lambda env: op(env[name], c)
        return lambda env: op(left(env), c)
    if isinstance(left, _Const):
        c = left.value
        return lambda env: op(c, right(env))
    if left_var and isinstance(expr.right, Var):
        a, b = expr.left.name, expr.right.name
        return lambda env: op(env[a], env[b])
    return lambda env: op(left(env), right(env))


def _statement(stmt):
    """Compile one non-call statement into a closure `(env, state)`."""
    kind = stmt.kind
    at = stmt.id
    if kind == "assign":
        target = stmt.target
        value = _expr(stmt.value, at)
        if isinstance(value, _Const):
            c = value.value

            def assign_const(env, st):
                env[target] = c

            return assign_const

        def assign(env, st):
            env[target] = value(env)

        return assign
    if kind == "array_read":
        target = stmt.target
        array = _closure(_expr(stmt.array, at))
        index = _closure(_expr(stmt.index, at))

        def array_read(env, st):
            ref = array(env)
            i = index(env)
            if ref is None:
                raise _Fault(FAULT_NIL_DEREF, at)
            cells = st.heap[ref]
            if i < 0 or i >= len(cells):
                raise _Fault(FAULT_OOB, at)
            env[target] = cells[i]

        return array_read
    if kind == "array_write":
        array = _closure(_expr(stmt.array, at))
        index = _closure(_expr(stmt.index, at))
        value = _closure(_expr(stmt.value, at))

        def array_write(env, st):
            ref = array(env)
            i = index(env)
            v = value(env)
            if ref is None:
                raise _Fault(FAULT_NIL_DEREF, at)
            cells = st.heap[ref]
            if i < 0 or i >= len(cells):
                raise _Fault(FAULT_OOB, at)
            cells[i] = v

        return array_write
    if kind == "array_alloc":
        target = stmt.target
        size_of = _closure(_expr(stmt.size, at))

        def array_alloc(env, st):
            size = size_of(env)
            if size < 0:
                raise _Fault(FAULT_OOB, at)
            if st.heap_cells + size > st.max_heap_cells:
                raise _Timeout(at)
            st.heap.append([0] * size)
            st.heap_cells += size
            env[target] = len(st.heap) - 1

        return array_alloc
    if kind == "print":
        value = _closure(_expr(stmt.value, at))

        def print_(env, st):
            st.output.append(int(value(env)))

        return print_
    if kind == "read_input":
        target = stmt.target

        def read_input(env, st):
            value = next(st.inputs, _NO_INPUT)
            if value is _NO_INPUT:
                raise _InputExhausted(at)
            env[target] = value

        return read_input
    if kind == "assertion":
        cond = _closure(_expr(stmt.cond, at))

        def assertion(env, st):
            if not cond(env):
                raise _Fault(FAULT_ASSERT, at)

        return assertion
    if kind == "nop":
        return lambda env, st: None
    return _raiser(IRError, f"cannot execute statement kind {kind!r}")
