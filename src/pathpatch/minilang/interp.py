"""Deterministic interpreter for lowered programs.

Each function is compiled once, on its first execution, and every later
run reuses that code. Each block is split into segments, each a run of
statements ended by one call or by the block's terminator, and each
segment becomes one generated Python function `seg(env, st)`: its body is
the segment's statements in line, expressions included, and it returns
what the run needs next:

  - a jump returns the index of its target block, and a branch
    `THEN if COND else ELSE`, so the next segment is `blocks[value]`;
  - a return returns its value;
  - a call resolves its callee and returns it with the argument values;
    the callee's environment is then built by its own generated `bind`.

A segment is thus one Python call however many statements it holds, a
superinstruction (Ertl & Gregg, "The Structure and Performance of
Efficient Interpreters", JILP 2003). Constant subexpressions are folded by
Python's own compiler. `/` and `%` with C semantics, array reads and
writes, `alloc` and `read_input` call small helpers; `&&` and `||`
evaluate both operands, left first.

Program data reaches the generated source only through `repr()` of a
string, int, bool or None: variable names are string keys of `env`, and
statement ids and messages are literals. No name is ever spliced in as
code, so no name can clash with the generated code's own identifiers. Any
other constant, such as a function reference, is bound in the namespace of
the segment's function. Compiling never raises: an unknown operator,
statement kind or expression raises `IRError` only when it runs.

Generated code objects are cached for the life of the process, keyed by
their source text. A patched variant differs from its base program in one
block (`synth.apply_patch` keeps the block order), so it compiles at most
that block's segments and reuses every other code object.

The compiled form is stored on the `IRFunction` itself (`fn.compiled`), so
it lives exactly as long as the function. `record.replace` does not
carry it over, and a patched variant shares every unchanged function with
its base program, so a variant compiles only the function its patch
rewrote. The compiled code holds no per-run state and no reference back
to a program: callees are looked up in the running program, so two threads
that compile the same function at once both produce working code, and the
single attribute store publishes either. The code cache is a plain dict;
its reads and stores are atomic under the GIL.

Execution is a loop over an explicit frame stack, so deep call chains never
hit Python's recursion limit. All abnormal outcomes are encoded in the
result status; the interpreter itself never raises for program behavior:

    ok               normal completion, with main's return value
    fault            out-of-bounds access, division by zero, nil deref,
                     or failed assertion; records the statement and a
                     backtrace of the call sites leading to it
    timeout          step or heap budget exhausted
    input_exhausted  read_input with no input left
    covered          a watched run entered every watched block (see below)

A fault terminates the run immediately, which is the signal the evaluation
harness watches for.

Steps: every statement and every terminator costs one step, charged before
it executes; a run times out on the step that exceeds `max_steps`.
`ExecutionResult.steps` is the number of steps charged, the failing one
included. A segment whose steps all fit in the remaining budget is charged
in one addition; if one of its statements, its call or its terminator then
stops the run, the count is corrected to the steps before the segment plus
the position of that step plus one. A segment that does not fit is run one
step at a time, by one generated function per statement and one for the
segment's end, made from the same statement source the first time a run
needs them. So a timeout happens at exactly the same statement either way.

Block entries: a run enters a block when its first segment becomes the
current one, before any of its steps is charged. `record_trace` records
every entry. `watch`, a set of `(function, block)` keys, makes the run
record in `ExecutionResult.entered` which of those blocks it entered, and
stop with status `covered` as soon as it has entered them all; the
evaluation harness uses it to find the test cases a patch can change. Both
hook into the same two places, so a run with neither checks nothing more.
"""

from __future__ import annotations

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
from ..record import Record

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
STATUS_COVERED = "covered"


class FnVal(Record):
    """Runtime value of a function reference."""

    name: str


class ExecutionResult(Record):
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
    # the watched blocks the run entered, for a run with `watch`
    entered: frozenset[tuple[str, str]] | None = None

    def __init__(  # hot: see record.py
        self,
        status,
        exit_value=None,
        fault_kind=None,
        fault_at=None,
        fault_stack=None,
        output=(),
        trace=None,
        calls=None,
        steps=0,
        entered=None,
    ):
        store = object.__setattr__
        store(self, "status", status)
        store(self, "exit_value", exit_value)
        store(self, "fault_kind", fault_kind)
        store(self, "fault_at", fault_at)
        store(self, "fault_stack", fault_stack)
        store(self, "output", output)
        store(self, "trace", trace)
        store(self, "calls", calls)
        store(self, "steps", steps)
        store(self, "entered", entered)
        store(self, "_values", (
            status, exit_value, fault_kind, fault_at, fault_stack,
            output, trace, calls, steps, entered,
        ))

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


class _Covered(_Stop):
    pass


_NO_INPUT = object()


class _State:
    """Per-run machine state the generated segments read and update."""

    __slots__ = ("functions", "inputs", "heap", "heap_cells", "max_heap_cells", "output")

    def __init__(self, functions, input_values, max_heap_cells):
        self.functions = functions
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


# What the run does with the value a segment returns. Block targets are
# indices into the function's block tuple, so the compiled form has no
# reference cycles and is freed with its function.
_GOTO, _CALL, _RETURN, _HALT = range(4)


def run_program(
    program: IRProgram,
    input_values=(),
    max_steps: int = DEFAULT_MAX_STEPS,
    max_heap_cells: int = DEFAULT_MAX_HEAP_CELLS,
    record_trace: bool = False,
    watch: frozenset[tuple[str, str]] | None = None,
) -> ExecutionResult:
    """Run a lowered program on a flat list of integer inputs."""
    if not program.executable:
        raise IRError("program has no executable statement bodies")
    st = _State(program.functions, input_values, max_heap_cells)
    trace: list[tuple[str, str]] | None = [] if record_trace else None
    calls: list[tuple[str, str]] | None = [] if record_trace else None
    # called with the (function, block) key of every block the run enters
    enter = None if trace is None else trace.append
    entered: set[tuple[str, str]] | None = None
    if watch is not None:
        entered = set()
        enter = _watcher(watch, entered, enter)
    # saved callers: (function, blocks, env, resume segment, target, call site)
    stack: list[tuple] = []
    steps = 0

    fn = program.functions[program.entry]
    blocks, entry, bind, params, defaults = fn.compiled or _compile(fn)
    seg = blocks[entry]
    env = dict(defaults)
    try:
        if enter is not None:
            enter(seg[5])
        while True:
            run, n, ids, kind, call, _, stepwise = seg
            if steps + n <= max_steps:
                steps += n
                try:
                    value = run(env, st)
                except _Stop as stop:
                    steps += ids.index(stop.at) + 1 - n
                    raise
            else:
                for step in stepwise.steps():
                    steps += 1
                    if steps > max_steps:
                        raise _Timeout
                    value = step(env, st)

            if kind == _GOTO:
                seg = blocks[value]
            elif kind == _CALL:
                callee, args = value
                site, target, after = call
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
                blocks, entry, bind, params, defaults = fn.compiled or _compile(fn)
                seg = blocks[entry]
                try:
                    env = bind(*args)
                except TypeError:  # more or fewer arguments than parameters
                    env = dict(zip(params, args))
                    env.update(defaults)
            elif kind == _RETURN:
                if not stack:
                    return _result(
                        STATUS_OK, st, trace, calls, entered, steps, exit_value=value
                    )
                fn, blocks, env, seg, target, _ = stack.pop()
                if target is not None:
                    env[target] = value
                continue
            else:
                return _result(STATUS_OK, st, trace, calls, entered, steps, exit_value=None)
            if enter is not None:
                enter(seg[5])
    except _Fault as fault:
        backtrace = [(caller[0].id, caller[5]) for caller in stack]
        backtrace.append((fn.id, fault.at))
        return _result(
            STATUS_FAULT,
            st,
            trace,
            calls,
            entered,
            steps,
            fault_kind=fault.kind,
            fault_at=fault.at,
            fault_stack=tuple(backtrace),
        )
    except _Timeout:
        return _result(STATUS_TIMEOUT, st, trace, calls, entered, steps)
    except _InputExhausted:
        return _result(STATUS_INPUT_EXHAUSTED, st, trace, calls, entered, steps)
    except _Covered:
        return _result(STATUS_COVERED, st, trace, calls, entered, steps)


def _watcher(watch, entered, enter):
    """The block-entry hook of a watched run: add each watched block to
    `entered`, and stop the run once it holds them all."""
    count = len(watch)

    def watched(key):
        if enter is not None:
            enter(key)
        if key in watch:
            entered.add(key)
            if len(entered) == count:
                raise _Covered

    return watched


def _result(status, st, trace, calls, entered, steps, **kw) -> ExecutionResult:
    return ExecutionResult(
        status=status,
        output=tuple(st.output),
        trace=tuple(trace) if trace is not None else None,
        calls=tuple(calls) if calls is not None else None,
        steps=steps,
        entered=frozenset(entered) if entered is not None else None,
        **kw,
    )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _compile(fn):
    """Compile `fn` and publish the result on `fn.compiled`.

    The result is `(blocks, entry, bind, params, defaults)`.

    `blocks[i]` is the first segment of the i-th block, a tuple `(run,
    steps, ids, kind, call, trace key, stepwise)`. `run(env, st)` is the
    generated function of the whole segment, and `stepwise` makes, on first
    use, one function per step. `ids` holds the id of each step, so the
    segment's call site or terminator id comes last. A segment of kind
    `_CALL` has `call = (site, target, after)` and continues with the
    segment `after`.

    `bind(*args)`, also generated, returns the environment of a call: the
    parameters bound to `args`, then the locals at their defaults. It
    builds in one step what `dict(zip(params, args))` updated with
    `defaults` builds, which a call with the wrong number of arguments
    still uses.

    A block id no block has is given a segment that raises `KeyError`
    when entered, before any step. Compilation never raises: what the IR
    cannot do raises when it runs.
    """
    index = {bid: i for i, bid in enumerate(fn.blocks)}
    missing: list = []

    def target(bid):
        if bid not in index:
            index[bid] = len(index)
            missing.append(bid)
        return index[bid]

    blocks = [_block(fn, block, target) for block in fn.blocks.values()]
    entry = target(fn.entry_block)
    for bid in missing:
        lowering = _Lowering()
        raiser = f"raise KeyError({lowering.const(bid)})"
        blocks.append(_segment(lowering, [raiser], (), _GOTO, None, None))
    params = tuple(name for name, _ in fn.params)
    defaults = {name: _default_for(vtype) for name, vtype in fn.locals.items()}
    compiled = (tuple(blocks), entry, _bind(params, defaults), params, defaults)
    object.__setattr__(fn, "compiled", compiled)
    return compiled


def _block(fn, block, target):
    """The first segment of `block`, each segment linked to the next."""
    key = (fn.id, block.id)
    runs: list[tuple[list, object]] = [([], None)]  # split at calls
    for stmt in block.statements:
        if stmt.kind == "call":
            runs[-1] = (runs[-1][0], stmt)
            runs.append(([], None))
        else:
            runs[-1][0].append(stmt)
    seg = None
    for stmts, call in reversed(runs):
        lowering = _Lowering()
        texts = [lowering.statement(s) for s in stmts]
        ids = [s.id for s in stmts]
        if call is None:
            text, at, kind = lowering.terminator(block, target)
            link = None
        else:
            text, at, kind = lowering.call(call), call.id, _CALL
            link = (call.id, call.target, seg)
        seg = _segment(lowering, texts + [text], ids + [at], kind, link, key)
    return seg


# Generated code objects by source text, for the life of the process.
_CODE: dict[str, object] = {}


def _define(source, lowering):
    """Run `source` in a fresh namespace holding the helpers and the
    constants of `lowering`; returns the namespace."""
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<segment>", "exec")
    namespace = dict(_HELPERS)
    namespace.update(lowering.consts)
    exec(code, namespace)
    return namespace


def _bind(params, defaults):
    """The generated `bind` of a function with these parameters and locals."""
    lowering = _Lowering()
    args = [f"p{i}" for i in range(len(params))]
    items = [f"{lowering.const(name)}: {arg}" for name, arg in zip(params, args)]
    items += [f"{lowering.const(k)}: {lowering.const(v)}" for k, v in defaults.items()]
    source = f"def bind({', '.join(args)}):\n    return {{{', '.join(items)}}}\n"
    return _define(source, lowering)["bind"]


def _function(name, texts):
    body = "".join(f"\n    {line}" for text in texts for line in text.split("\n"))
    return f"def {name}(env, st):{body}\n"


def _segment(lowering, texts, ids, kind, link, key):
    run = _define(_function("seg", texts), lowering)["seg"]
    return (run, len(ids), tuple(ids), kind, link, key, _Stepwise(lowering, texts))


class _Stepwise:
    """A segment as one generated function per step, for a run whose step
    budget ends inside it. Made from the segment's own statement source
    the first time a run needs it."""

    __slots__ = ("lowering", "texts", "functions")

    def __init__(self, lowering, texts):
        self.lowering = lowering
        self.texts = texts
        self.functions = None

    def steps(self):
        if self.functions is None:
            names = [f"step{i}" for i in range(len(self.texts))]
            source = "".join(_function(name, [text]) for name, text in zip(names, self.texts))
            namespace = _define(source, self.lowering)
            self.functions = tuple(namespace[name] for name in names)
        return self.functions


# Python operators with the IR operator's exact meaning.
_INFIX = frozenset(("+", "-", "*", "<", "<=", ">", ">=", "==", "!="))


class _Lowering:
    """Python source for the statements and the end of one segment.

    Each statement becomes text of one or more lines, with no indentation
    of its own. Constants that are not a string, int, bool or None are
    collected in `consts` under generated names.
    """

    def __init__(self):
        self.consts: dict[str, object] = {}
        self.temps = 0

    def const(self, value) -> str:
        """A Python expression for `value`."""
        if value is None or type(value) in (bool, str):
            return repr(value)
        if type(value) is int and abs(value) < 1 << 64:  # repr of huge ints may raise
            return f"({value!r})" if value < 0 else repr(value)
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def error(self, message: str, *operands: str) -> str:
        """Code that evaluates `operands`, then raises `IRError(message)`."""
        return f"_ir_error({', '.join((self.const(message),) + operands)})"

    def expr(self, expr, at) -> str:
        """A pure expression; `at` is the id of the statement it belongs to,
        where its faults are reported."""
        if isinstance(expr, (IntConst, BoolConst)):
            return self.const(expr.value)
        if isinstance(expr, NilConst):
            return "None"
        if isinstance(expr, FuncRef):
            return self.const(FnVal(expr.name))
        if isinstance(expr, Var):
            return f"env[{self.const(expr.name)}]"
        if isinstance(expr, Unary):
            operand = self.expr(expr.operand, at)
            return f"(not {operand})" if expr.op == "!" else f"(-{operand})"
        if isinstance(expr, Binary):
            return self.binary(expr, at)
        return self.error(f"cannot evaluate {expr!r}")

    def binary(self, expr, at) -> str:
        op = expr.op
        left = self.expr(expr.left, at)
        right = self.expr(expr.right, at)
        if op in _INFIX:
            return f"({left} {op} {right})"
        if op in ("&&", "||"):
            # both operands are always evaluated, left first; no short circuit
            a, b = self.temp(), self.temp()
            word = "and" if op == "&&" else "or"
            return f"({a} {word} {b} if [{a} := {left}, {b} := {right}] else None)"
        if op in ("/", "%"):
            c = expr.right.value if isinstance(expr.right, IntConst) else None
            if type(c) is int and c > 0:
                # C-style division by a positive constant cannot fault
                v = self.temp()
                py = "//" if op == "/" else "%"
                return f"({v} {py} {right} if ({v} := {left}) >= 0 else -(-{v} {py} {right}))"
            return f"_div({left}, {right}, {self.const(at)}, {op == '%'})"
        return self.error(f"unknown operator {op!r}", left, right)

    def statement(self, stmt) -> str:
        """One non-call statement."""
        kind = stmt.kind
        at = self.const(stmt.id)
        if kind == "assign":
            return f"env[{self.const(stmt.target)}] = {self.expr(stmt.value, stmt.id)}"
        if kind == "array_read":
            array = self.expr(stmt.array, stmt.id)
            index = self.expr(stmt.index, stmt.id)
            return f"env[{self.const(stmt.target)}] = _aread(st, {array}, {index}, {at})"
        if kind == "array_write":
            array = self.expr(stmt.array, stmt.id)
            index = self.expr(stmt.index, stmt.id)
            value = self.expr(stmt.value, stmt.id)
            return f"_awrite(st, {array}, {index}, {value}, {at})"
        if kind == "array_alloc":
            size = self.expr(stmt.size, stmt.id)
            return f"env[{self.const(stmt.target)}] = _alloc(st, {size}, {at})"
        if kind == "print":
            return f"st.output.append(int({self.expr(stmt.value, stmt.id)}))"
        if kind == "read_input":
            return f"env[{self.const(stmt.target)}] = _read(st, {at})"
        if kind == "assertion":
            cond = self.expr(stmt.cond, stmt.id)
            return f"if not {cond}:\n    raise _Fault({FAULT_ASSERT!r}, {at})"
        if kind == "nop":
            return "pass"
        return self.error(f"cannot execute statement kind {kind!r}")

    def call(self, stmt) -> str:
        """Resolve the callee, then evaluate the arguments, left first."""
        args = "".join(f"{self.expr(a, stmt.id)}, " for a in stmt.args)
        if stmt.callee_name is not None:
            return f"return st.functions[{self.const(stmt.callee_name)}], ({args})"
        return (
            f"f = env[{self.const(stmt.callee_ref)}]\n"
            f"if f is None:\n"
            f"    raise _Fault({FAULT_NIL_DEREF!r}, {self.const(stmt.id)})\n"
            f"return st.functions[f.name], ({args})"
        )

    def terminator(self, block, target) -> tuple[str, object, int]:
        """(text, step id, kind) of the block's terminator."""
        term = block.terminator
        if isinstance(term, Jump):
            return f"return {target(term.target)}", None, _GOTO
        if isinstance(term, Branch):
            then, else_ = target(term.then_target), target(term.else_target)
            cond = self.expr(term.cond, term.id)
            return f"return {then} if {cond} else {else_}", term.id, _GOTO
        if isinstance(term, Return):
            value = "None" if term.value is None else self.expr(term.value, term.id)
            return f"return {value}", term.id, _RETURN
        if isinstance(term, Halt):
            return "return None", None, _HALT
        return self.error(f"block {block.id} has no terminator"), None, _HALT


# ---------------------------------------------------------------------------
# Helpers the generated code calls
# ---------------------------------------------------------------------------


def _div(left, right, at, remainder):
    """`left / right`, or `left % right` with `remainder`, as C computes
    them; a zero divisor is a fault at statement `at`."""
    if right == 0:
        raise _Fault(FAULT_DIV_ZERO, at)
    # C-style: quotient truncates toward zero, remainder matches
    q = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        q = -q
    return left - q * right if remainder else q


def _aread(st, ref, i, at):
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF, at)
    cells = st.heap[ref]
    if i < 0 or i >= len(cells):
        raise _Fault(FAULT_OOB, at)
    return cells[i]


def _awrite(st, ref, i, value, at):
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF, at)
    cells = st.heap[ref]
    if i < 0 or i >= len(cells):
        raise _Fault(FAULT_OOB, at)
    cells[i] = value


def _alloc(st, size, at):
    if size < 0:
        raise _Fault(FAULT_OOB, at)
    if st.heap_cells + size > st.max_heap_cells:
        raise _Timeout(at)
    st.heap.append([0] * size)
    st.heap_cells += size
    return len(st.heap) - 1


def _read(st, at):
    value = next(st.inputs, _NO_INPUT)
    if value is _NO_INPUT:
        raise _InputExhausted(at)
    return value


def _ir_error(message, *_operands):
    raise IRError(message)


_HELPERS = {
    "_Fault": _Fault,
    "_div": _div,
    "_aread": _aread,
    "_awrite": _awrite,
    "_alloc": _alloc,
    "_read": _read,
    "_ir_error": _ir_error,
}
