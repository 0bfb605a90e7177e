"""Deterministic interpreter for lowered programs.

A run's outcome is encoded in its result status; the interpreter never
raises for program behavior:

    ok               normal completion, with main's return value, or a halt
    fault            out-of-bounds access, division by zero, nil deref,
                     or failed assertion; records the statement and a
                     backtrace of the call sites leading to it
    timeout          step, heap or value budget exhausted
    input_exhausted  read_input with no input left
    covered          a watched run entered every watched block (see below)

A fault terminates the run immediately, which is the signal the evaluation
harness watches for.

Steps: every statement and every terminator costs one step, charged before
it executes; a run times out on the step that exceeds `max_steps`.
`ExecutionResult.steps` is the number of steps charged, the failing one
included. `alloc` past `max_heap_cells` cells in all, and a product of two
non-constant operands whose magnitude reaches 2**4096, end the run with
status `timeout` at that statement: a value budget, so that a squaring
loop cannot grow its numbers without bound.

Block entries: a run enters a block when control reaches it, before any of
its steps is charged. `record_trace` records every entry, and every call
with its call site and callee. `watch`, a set of `(function, block)` keys,
makes the run record in `ExecutionResult.entered` which of those blocks it
entered, and stop with status `covered` as soon as it has entered them
all; the evaluation harness uses it to find the test cases a patch can
change.

Patches as data: `patches` maps `(function, block)` keys to error values
(IR constants, or None for a bare return). The run behaves exactly as the
program with each of those blocks replaced by `return value;`
(`ir.with_returns`, which `synth.apply_patch` uses), but runs the base
program's code: no patched variant is built or compiled.

Every run executes once, in one form: generated Python, compiled on
first use, one function per IR function, `f<i>(st, L, d, <parameters>)`,
where `st` is the run's state, `L` its step countdown and `d` the call
depth:

  - locals are Python locals `v0`, `v1`, ... and parameters are Python
    parameters;
  - blocks run in a local dispatch loop, `while 1:` over one `if b==i:`
    test per block in block order, so a forward jump falls through to its
    target and a backward one continues the loop; an entry block that no
    block jumps to runs before the loop;
  - calls are native Python calls, `v3=f2(st,L,d+1,...);L=st.L`: a
    return leaves the countdown in `st.L` for its caller;
  - each segment of a block (its statements up to and including a call,
    or up to and including its terminator) is charged in one subtraction,
    `if (L:=L-n)<0:raise S`;
  - each block in the form's guard set starts with a guard,
    `if j in st.H and _g(st,j):return _ret(st,L,j)`: `st.H` holds the
    guards active in this run, `_g` records a watched entry (stopping the
    run once every watched block is entered) and tells whether the block
    is patched, and `_ret` charges the patch's one step and returns its
    error value. An unpatched entry of a watched block drops its guard
    from `st.H`, so a loop pays for it once;
  - in a traced form, each block first appends its key to `st.T`, and a
    call line stores its call site in `st.s`, which the callee's first
    line appends, with the callee, to `st.C`.

A program keeps every form it compiled (`IRProgram.fast`), each with its
guard set and whether it is traced: a run uses the first that is traced
if and only if the run is and whose guards cover its watched and patched
blocks, and compiles one otherwise. The harness's probes watch every
patched block, so the form they compile also serves every patched run and
the fuzz run that patches all candidates at once. Each function is its
own compile unit, and code is cached by its source text, so another form
of the same program or a patched variant compiles only the functions
whose text differs.

Stops. Each statement, call and terminator is one source line. When a
stop unwinds the run, the innermost generated frame holds the countdown
and names the line that stopped it, and the outer ones name the call
sites; each line's site gives its statement id and its position in the
segment whose steps were charged before it ran, so the step count and
the backtrace come out exactly, at no cost to a run that does not stop.
When a segment check finds that the segment's `n` steps do not fit, the
countdown before it, `k = L + n < n`, is what the budget has left: the
run executes the segment's first `k` statement lines against the stopped
frame's locals, and times out at step `max_steps + 1` unless one of them
stops it first (a fault, input exhaustion, or the heap or value budget).
A patched block whose one step does not fit times out at once.

Deep calls. Calls nest natively up to `_MAX_DEPTH`. The function called
past it runs, with every call below it, in the generator flavour of the
same lowering, `h<i>(st, L, *a)`, compiled on the first run that needs
it: a call line is `v3=yield h2(st,L,...);L=st.L`, and one driver loop,
`_deep`, keeps the suspended generators on an explicit stack, so depth is
bounded by memory, not by the recursion limit. The driver notes the
suspended frames on a stop, for its backtrace. A generator binds
parameters as `zip` pairs them with the arguments, so a call with the
wrong number of arguments runs there too.

Malformed IR raises what the tree-walking reference raises, where it
runs: `KeyError` for a jump to no block, a call of no function and a read
of a variable nothing bound (such as a parameter a short call left
unbound), and `IRError` for a missing terminator and an unknown operator,
statement kind or expression.

Generated text: program data reaches the source only through `repr()` of
a string, int, bool or None, so no name can clash with the generated
code's own identifiers; any other constant, such as a function reference,
is bound in the namespace of the generated code. Code objects are cached
for the life of the process, keyed by their source text; compiled code
holds no per-run state, and each cache is published by one attribute
store, so threads may run, and compile, the same program at once.
"""

from __future__ import annotations

import re
from functools import partial

from ..ir import (
    BOOL,
    INT,
    Binary,
    BoolConst,
    Branch,
    Const,
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
# a product whose magnitude reaches this ends the run with status timeout
PRODUCT_LIMIT = 1 << 4096

FAULT_OOB = "oob"
FAULT_DIV_ZERO = "div_zero"
FAULT_NIL_DEREF = "nil_deref"
FAULT_ASSERT = "assert_fail"

STATUS_OK = "ok"
STATUS_FAULT = "fault"
STATUS_TIMEOUT = "timeout"
STATUS_INPUT_EXHAUSTED = "input_exhausted"
STATUS_COVERED = "covered"

# Calls nested natively before the callee moves to the generator stack;
# well inside Python's default recursion limit of 1000, whatever the
# caller's own depth.
_MAX_DEPTH = 200


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
    """Ends a run."""


class _Fault(_Stop):
    def __init__(self, kind: str):
        self.kind = kind


class _Timeout(_Stop):
    """The heap or the value budget ran out."""


class _StepsOut(_Stop):
    """The step budget ran out, at a segment check or a patched return."""


class _InputExhausted(_Stop):
    pass


class _Covered(_Stop):
    pass


class _Halt(_Stop):
    pass


_NO_INPUT = object()
_NO_KEYS: frozenset = frozenset()


class _State:
    """Per-run machine state the generated code reads and updates."""

    __slots__ = (
        "inputs", "heap", "heap_cells", "max_heap_cells", "output",
        # the step countdown at the last return, the active guards, the
        # patched guards' error values, the watched guards, those entered,
        # and how many blocks are watched
        "L", "H", "E", "W", "seen", "need",
        # a traced run's block entries and calls, and the call site of the
        # call being made
        "T", "C", "s",
    )

    def __init__(self, inputs, max_heap_cells):
        self.inputs = iter(inputs)
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
    watch: frozenset[tuple[str, str]] | None = None,
    patches: dict[tuple[str, str], object] | None = None,
) -> ExecutionResult:
    """Run a lowered program on a flat list of integer inputs, with the
    blocks in `patches` returning their error values at once."""
    if not program.executable:
        raise IRError("program has no executable statement bodies")
    traced = bool(record_trace)
    form = _form(program, watch, patches, traced)
    st = _State(input_values, max_heap_cells)
    try:
        st.E = {form.guards[key]: value for key, value in patches.items()} if patches else {}
    except KeyError as missing:  # as `with_returns` raises
        fn_id, block_id = missing.args[0]
        raise IRError(f"no block {block_id!r} in function {fn_id!r}") from None
    st.H = set(st.E)
    st.W = _NO_KEYS
    st.seen = set()
    if watch is not None:
        st.W = form.every if watch is form.keys else form.indices(watch)
        st.H.update(st.W)
        st.need = len(watch)
    if traced:
        st.T, st.C, st.s = [], [], None
    status, value, kind, at, backtrace = STATUS_OK, None, None, None, None
    try:
        value = form.entry(st, max_steps, 0)
        steps = max_steps - st.L
    except _Stop as stop:
        status, value, kind, at, backtrace, steps = form.stopped(stop, max_steps)
    except NameError as error:  # a read of a variable nothing bound
        raise _unbound(form.frames(error)[-1][0], error) from None
    entered = None if watch is None else frozenset(form.order[j] for j in st.seen)
    trace, calls = (tuple(st.T), tuple(st.C)) if traced else (None, None)
    return ExecutionResult(
        status, value, kind, at, backtrace, tuple(st.output), trace, calls, steps, entered
    )


def _constant(value):
    """The Python value of an error value."""
    if value is None or isinstance(value, NilConst):
        return None
    if isinstance(value, (IntConst, BoolConst)):
        return value.value
    raise IRError(f"patch value {value!r} is not a constant")


def _form(program, watch, patches, traced):
    """The first form of `program` that records a trace if and only if
    `traced` and whose guards cover the blocks in `watch` and `patches`,
    compiled and kept on the program if it has none."""
    for form in program.fast:
        if (
            form.traced == traced
            and (watch is None or watch is form.keys or form.keys.issuperset(watch))
            and (not patches or form.keys.issuperset(patches))
        ):
            return form
    keys = frozenset(watch or ())
    if patches:
        keys = keys.union(patches)
    form = _Form(program, keys, traced)
    # a plain attribute store: two threads that compile at once both keep
    # working forms, and the program keeps either
    object.__setattr__(program, "fast", program.fast + (form,))
    return form


# The file names of generated functions, which tell their frames in a
# traceback, and of the lines a run's tail executes.
_FORM_FILE = "<minilang>"
_TAIL_FILE = "<tail>"


class _Unit:
    """What a stopped run reads of one generated function: `sites[line]`
    is `(function, statement id, correction)` for each line whose step has
    an id, the correction being the steps after it in its segment, negated;
    `checks[line]` is the steps the segment check on `line` charges;
    `source` is the function's text and `vars` maps IR variables to
    Python locals."""

    __slots__ = ("sites", "checks", "source", "vars")

    def __init__(self, sites, checks, source, variables):
        self.sites = sites
        self.checks = checks
        self.source = source
        self.vars = variables


class _Form:
    """One compiled form of a program: `entry(st, L, 0)` runs it with a
    step countdown of `L` and returns main's value.

    `keys` is the guard set asked for; `guards` maps each of its blocks
    that exists to the guard's index, `order` lists them by index, and
    `every` holds every index. `traced` tells whether the form records a
    trace. `units` maps the name of each generated function, of either
    flavour, to its `_Unit`.
    """

    __slots__ = ("keys", "traced", "guards", "order", "every", "units", "entry")

    def __init__(self, program, keys, traced):
        self.keys = keys
        self.traced = traced
        self.order = tuple(
            (name, bid)
            for name, fn in program.functions.items()
            for bid in fn.blocks
            if (name, bid) in keys and not fn.external
        )
        self.guards = {key: j for j, key in enumerate(self.order)}
        self.every = frozenset(range(len(self.order)))
        self.units = {}
        lowering = _FastLowering(program.functions, self.guards, traced, self.units)
        namespace = lowering.namespace(deep=False)
        deep = namespace["G"] = _Deep(program.functions, self.guards, traced, self.units)
        for n in lowering.arities:
            # the callees of native calls through a reference with n
            # arguments; a callee with another parameter count runs deep
            namespace[f"F{n}"] = {
                name: namespace[lowering.code_name(name, False)]
                if fn.external or len(fn.params) == n
                else partial(_deep, deep, name)
                for name, fn in program.functions.items()
            }
        entry = program.functions.get(program.entry)
        if entry is None or entry.external:  # no function, or one with no blocks
            self.entry = partial(_missing, program.entry if entry is None else entry.entry_block)
        elif entry.params:  # called with no arguments: every parameter unbound
            self.entry = partial(_deep, deep, program.entry)
        else:
            self.entry = namespace[lowering.code_name(program.entry, False)]

    def indices(self, watch):
        """The guard indices of the blocks in `watch`."""
        return frozenset(self.guards[key] for key in watch if key in self.guards)

    def frames(self, error):
        """`(unit, line, frame)` of each generated frame `error` unwound,
        outermost first, with the suspended generators of a deep stack
        (whose frame is None) in place of the driver's frame."""
        frames = []
        tb = error.__traceback__
        while tb is not None:
            code = tb.tb_frame.f_code
            if code.co_filename == _FORM_FILE:
                frames.append((self.units[code.co_name], tb.tb_lineno, tb.tb_frame))
            elif code is _deep.__code__:
                notes = getattr(error, "frames", ())  # a stop's; none on a NameError
                frames += [(self.units[name], line, None) for name, line in notes]
            tb = tb.tb_next
        return frames

    def stopped(self, stop, max_steps):
        """`(status, value, fault kind, fault statement, backtrace, steps)`
        of the run `stop` ended."""
        frames = self.frames(stop)
        unit, line, frame = frames[-1]
        left = frame.f_locals["L"]
        if isinstance(stop, _Covered):  # at a block entry, before its steps
            return STATUS_COVERED, None, None, None, None, max_steps - left
        if isinstance(stop, _Halt):  # the last step of its segment
            return STATUS_OK, None, None, None, None, max_steps - left
        if isinstance(stop, _StepsOut):
            n = unit.checks.get(line)  # None at a patched block's return
            tail = None if n is None else _tail(unit, line, frame, left + n)
            if tail is None:
                return STATUS_TIMEOUT, None, None, None, None, max_steps + 1
            stop, line = tail
        site = unit.sites[line]
        steps = max_steps - left + site[2]
        if isinstance(stop, _Fault):
            calls = (u.sites.get(at) for u, at, _ in frames[:-1])  # None: a deep entry
            backtrace = tuple(s[:2] for s in calls if s is not None) + (site[:2],)
            return STATUS_FAULT, None, stop.kind, site[1], backtrace, steps
        status = STATUS_TIMEOUT if isinstance(stop, _Timeout) else STATUS_INPUT_EXHAUSTED
        return status, None, None, None, None, steps


def _tail(unit, line, frame, k):
    """Execute the `k` statement lines after segment check `line` of
    `frame` against its locals; `(stop, line)` of the line that stopped the
    run, or None when all `k` ran."""
    env = dict(frame.f_locals)
    lines = unit.source.split("\n")
    for i in range(line, line + k):  # lines[i] is line i + 1
        try:
            exec(_code(lines[i].lstrip(), _TAIL_FILE), frame.f_globals, env)
        except _Stop as stop:
            return stop, i + 1
        except NameError as error:
            raise _unbound(unit, error) from None
    return None


def _unbound(unit, error):
    """The reference's error for `error`, a read in `unit` of a local that
    nothing bound: `KeyError` of its IR variable."""
    local = re.search("'(.*?)'", str(error)).group(1)
    return KeyError(next(name for name, v in unit.vars.items() if v == local))


def _missing(key, *_):
    raise KeyError(key)


class _Deep:
    """The generator flavour of a form, compiled on the first run that
    needs it, by a lowering of its own: `functions()` maps each IR
    function name to its generator function."""

    __slots__ = ("args", "table")

    def __init__(self, *args):
        self.args = args  # the lowering's
        self.table = None

    def functions(self):
        if self.table is None:
            lowering = _FastLowering(*self.args)
            namespace = lowering.namespace(deep=True)
            namespace["H"] = {
                name: namespace[lowering.code_name(name, True)] for name in lowering.functions
            }
            self.table = namespace["H"]
        return self.table


def _deep(deep, name, st, L, d, *args):
    """The call of function `name` and every call below it, run on an
    explicit stack of generators; returns the call's value."""
    stack = [deep.functions()[name](st, L, *args)]
    value = None
    try:
        while 1:
            try:
                callee = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
            else:
                stack.append(callee)
                value = None
    except _Stop as stop:
        # the suspended callers, outermost first, for the stop's backtrace
        stop.frames = [(g.gi_code.co_name, g.gi_frame.f_lineno) for g in stack[:-1]]
        raise


def _segments(block):
    """`(statements, call)` runs of `block`, split after each call; the
    last run has no call and ends in the terminator."""
    runs: list[tuple[list, object]] = [([], None)]
    for stmt in block.statements:
        if stmt.kind == "call":
            runs[-1] = (runs[-1][0], stmt)
            runs.append(([], None))
        else:
            runs[-1][0].append(stmt)
    return runs


# Generated code objects by source text, for the life of the process.
_CODE: dict[str, object] = {}


def _code(source, filename):
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, filename, "exec")
    return code


# ---------------------------------------------------------------------------
# Lowering to Python source
# ---------------------------------------------------------------------------


# Python operators with the IR operator's exact meaning.
_INFIX = frozenset(("+", "-", "<", "<=", ">", ">=", "==", "!="))


class _FastLowering:
    """Python source for a program's functions, in two flavours.

    IR function `name` becomes `def f<i>(st, L, d, <parameters>)` in the
    native flavour, whose calls are Python calls, and `def h<i>(st, L,
    *a)` in the generator flavour, whose calls are yields to `_deep`;
    `i` is its position in the program, `L` the step countdown and `d`
    the call depth. A return stores the countdown in `st.L`, and a caller
    reads it back after the call. Each statement, call and terminator is
    one line. Variables are `v<k>` in the order the function first names
    them, parameters first. Constants that are not a string, int, bool or
    None are collected in `consts` under generated names. `units` collects
    the `_Unit` of each function generated, and `arities` the argument
    counts of native calls through a function reference.
    """

    def __init__(self, functions, guards, traced, units):
        self.functions = functions
        self.guards = guards
        self.traced = traced
        self.units = units
        self.index = {name: i for i, name in enumerate(functions)}
        self.arities: set[int] = set()

    def code_name(self, name, deep) -> str:
        return f"{'h' if deep else 'f'}{self.index[name]}"

    def namespace(self, deep) -> dict:
        """Every function compiled in one flavour, in a fresh namespace
        that also holds the helpers and the collected constants. Code comes
        from `_CODE` when another form, or a patched variant, generated the
        same text before."""
        namespace = dict(_HELPERS)
        for name, fn in self.functions.items():
            f = self.code_name(name, deep)
            self.deep = deep
            self.consts: dict[str, object] = {}
            self.prefix = f"_{f}c"
            self.lines: list[str] = []
            self.sites: dict[int, tuple[str, str, int]] = {}
            self.checks: dict[int, int] = {}
            self.vars: dict[str, str] = {}
            self.temps = 0
            self.function(f, name, fn)
            source = "\n".join(self.lines) + "\n"
            self.units[f] = _Unit(self.sites, self.checks, source, self.vars)
            namespace.update(self.consts)
            exec(_code(source, _FORM_FILE), namespace)
        return namespace

    def const(self, value) -> str:
        """A Python expression for `value`."""
        if value is None or type(value) in (bool, str):
            return repr(value)
        if type(value) is int and abs(value) < 1 << 64:  # repr of huge ints may raise
            return f"({value!r})" if value < 0 else repr(value)
        name = f"{self.prefix}{len(self.consts)}"
        self.consts[name] = value
        return name

    def var(self, name: str) -> str:
        """A Python target or expression for variable `name`."""
        local = self.vars.get(name)
        if local is None:
            local = self.vars[name] = f"v{len(self.vars)}"
        return local

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def emit(self, depth: int, text: str, site=None) -> None:
        self.lines.append(" " * depth + text)
        if site is not None:
            self.sites[len(self.lines)] = site

    def function(self, f, name, fn) -> None:
        # the call that entered the function, made by a call line; the
        # run's entry is made by none
        record = f"st.C.append((st.s,{self.const(fn.id)}))" if self.traced else None
        if fn.external:
            # externals have no body; they yield their return type's default
            head = f"def {f}(st,L,*a):" if self.deep else f"def {f}(st,L,d,*a):"
            body = [record, "st.L=L", f"return {self.const(_default_for(fn.return_type))}"]
            self.emit(0, head + ";".join(filter(None, body)) + (";yield" if self.deep else ""))
            return
        params = [p for p, _ in fn.params]
        if self.deep:
            self.emit(0, f"def {f}(st,L,*a):")
            # parameters bound as `zip` pairs them with the arguments
            for k, p in enumerate(params):
                self.emit(1, f"if len(a)>{k}:{self.var(p)}=a[{k}]")
        else:
            # a parameter named again later is bound by the later one
            args = [
                f"x{k}" if p in params[k + 1:] else self.var(p) for k, p in enumerate(params)
            ]
            self.emit(0, f"def {f}({','.join(['st', 'L', 'd'] + args)}):")
            deep = ",".join(["G", self.const(name), "st", "L", "d"] + args)
            self.emit(1, f"if d>{_MAX_DEPTH}:return _deep({deep})")
        if record:
            self.emit(1, f"if st.s is not None:{record}")
        defaults = [f"{self.var(v)}={self.const(_default_for(t))}" for v, t in fn.locals.items()]
        if defaults:
            self.emit(1, ";".join(defaults))

        index = {bid: i for i, bid in enumerate(fn.blocks)}

        def target(bid):  # ids no block has are numbered after the blocks
            return index.setdefault(bid, len(index))

        blocks = list(fn.blocks.items())
        heads = list(range(len(blocks)))
        entry = target(fn.entry_block)
        if entry < len(blocks) and all(
            fn.entry_block not in block.successors for _, block in blocks
        ):
            # nothing jumps to the entry block: it runs once, before the loop,
            # with no dispatch test and less indentation, a shorter text
            self.block(name, fn, blocks[entry], target, None, 1)
            heads.remove(entry)
        else:
            self.emit(1, f"b={entry}")
        if heads or len(index) > len(blocks):
            self.emit(1, "while 1:")
            for i in heads:
                self.emit(2, f"if b=={i}:")
                self.block(name, fn, blocks[i], target, i, 3)
            for bid, i in list(index.items())[len(blocks):]:
                self.emit(2, f"if b=={i}:raise KeyError({self.const(bid)})")
        if self.deep:  # never reached: makes a function with no call a generator
            self.emit(1, "yield")

    def block(self, name, fn, item, target, head, depth) -> None:
        """Block `head` of the dispatch loop (None: before the loop) at
        indentation `depth`: its trace entry and its guard, if it has them,
        then each segment, charged in one subtraction."""
        bid, block = item
        if self.traced:
            self.emit(depth, f"st.T.append({self.const((fn.id, bid))})")
        guard = self.guards.get((name, bid))
        if guard is not None:
            self.emit(depth, f"if {guard} in st.H and _g(st,{guard}):return _ret(st,L,{guard})")
        for stmts, call in _segments(block):
            n = len(stmts) + 1
            self.emit(depth, f"if (L:=L-{n})<0:raise S")
            self.checks[len(self.lines)] = n
            for j, stmt in enumerate(stmts):
                self.emit(depth, self.statement(stmt), (fn.id, stmt.id, j + 1 - n))
            if call:
                self.emit(depth, self.call(call), (fn.id, call.id, 0))
            else:  # a jump's, a halt's or a missing terminator's step has no id
                term = block.terminator
                site = (fn.id, term.id, 0) if isinstance(term, (Branch, Return)) else None
                self.emit(depth, self.terminator(block, target, head), site)

    def error(self, message: str, *operands: str) -> str:
        """Code that evaluates `operands`, then raises `IRError(message)`."""
        return f"_ir_error({','.join((self.const(message),) + operands)})"

    def expr(self, expr) -> str:
        """A pure expression."""
        if isinstance(expr, (IntConst, BoolConst)):
            return self.const(expr.value)
        if isinstance(expr, NilConst):
            return "None"
        if isinstance(expr, FuncRef):
            return self.const(FnVal(expr.name))
        if isinstance(expr, Var):
            return self.var(expr.name)
        if isinstance(expr, Unary):
            operand = self.expr(expr.operand)
            return f"(not {operand})" if expr.op == "!" else f"(-{operand})"
        if isinstance(expr, Binary):
            return self.binary(expr)
        return self.error(f"cannot evaluate {expr!r}")

    def binary(self, expr) -> str:
        op = expr.op
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if op in _INFIX:
            return f"({left}{op}{right})"
        if op == "*":
            if isinstance(expr.left, Const) or isinstance(expr.right, Const):
                return f"({left}*{right})"
            return f"_mul({left},{right})"
        if op in ("&&", "||"):
            # both operands are always evaluated, left first; no short circuit
            a, b = self.temp(), self.temp()
            word = "and" if op == "&&" else "or"
            return f"({a} {word} {b} if [{a}:={left},{b}:={right}] else None)"
        if op in ("/", "%"):
            c = expr.right.value if isinstance(expr.right, IntConst) else None
            if type(c) is int and c > 0:
                # C-style division by a positive constant cannot fault
                v = self.temp()
                py = "//" if op == "/" else "%"
                return f"({v}{py}{right} if ({v}:={left})>=0 else -(-{v}{py}{right}))"
            return f"_div({left},{right},{op == '%'})"
        return self.error(f"unknown operator {op!r}", left, right)

    def statement(self, stmt) -> str:
        """One non-call statement, as one line."""
        kind = stmt.kind
        if kind == "assign":
            return f"{self.var(stmt.target)}={self.expr(stmt.value)}"
        if kind == "array_read":
            array, index = self.expr(stmt.array), self.expr(stmt.index)
            return f"{self.var(stmt.target)}=_aread(st,{array},{index})"
        if kind == "array_write":
            array, index = self.expr(stmt.array), self.expr(stmt.index)
            return f"_awrite(st,{array},{index},{self.expr(stmt.value)})"
        if kind == "array_alloc":
            return f"{self.var(stmt.target)}=_alloc(st,{self.expr(stmt.size)})"
        if kind == "print":
            return f"_print(st,{self.expr(stmt.value)})"
        if kind == "read_input":
            return f"{self.var(stmt.target)}=_read(st)"
        if kind == "assertion":
            return f"if not {self.expr(stmt.cond)}:raise _Fault({FAULT_ASSERT!r})"
        if kind == "nop":
            return "pass"
        return self.error(f"cannot execute statement kind {kind!r}")

    def call(self, stmt) -> str:
        """Resolve the callee, evaluate the arguments, left first, and
        call; then read back the countdown the callee left in `st.L`."""
        n = len(stmt.args)
        args = "".join(f",{self.expr(a)}" for a in stmt.args)
        if stmt.callee_name is not None:
            callee = self.functions.get(stmt.callee_name)
            if callee is None:
                return f"raise KeyError({self.const(stmt.callee_name)})"
            if self.deep:
                head = f"{self.code_name(stmt.callee_name, True)}(st,L"
            elif callee.external or len(callee.params) == n:
                head = f"{self.code_name(stmt.callee_name, False)}(st,L,d+1"
            else:
                head = f"_deep(G,{self.const(stmt.callee_name)},st,L,d+1"
        elif self.deep:
            head = f"_fn(H,{self.var(stmt.callee_ref)})(st,L"
        else:
            self.arities.add(n)
            head = f"_fn(F{n},{self.var(stmt.callee_ref)})(st,L,d+1"
        call = f"{'yield ' if self.deep else ''}{head}{args})"
        if stmt.target is not None:
            call = f"{self.var(stmt.target)}={call}"
        if self.traced:
            call = f"st.s={self.const(stmt.id)};{call}"
        return call + ";L=st.L"

    def terminator(self, block, target, head) -> str:
        """The terminator of block `head` (None: before the loop); a jump
        back to it or before it continues the dispatch loop, a forward one
        falls through."""
        term = block.terminator
        if isinstance(term, Jump):
            t = target(term.target)
            return f"b={t};continue" if head is not None and t <= head else f"b={t}"
        if isinstance(term, Branch):
            then, else_ = target(term.then_target), target(term.else_target)
            text = f"b={then} if {self.expr(term.cond)} else {else_}"
            back = head is not None and then <= head and else_ <= head
            return text + ";continue" if back else text
        if isinstance(term, Return):
            value = "None" if term.value is None else self.expr(term.value)
            return f"st.L=L;return {value}"
        if isinstance(term, Halt):
            return "raise _Halt"
        return self.error(f"block {block.id} has no terminator")


# ---------------------------------------------------------------------------
# Helpers the generated code calls
# ---------------------------------------------------------------------------


def _div(left, right, remainder):
    """`left / right`, or `left % right` with `remainder`, as C computes
    them; a zero divisor is a fault."""
    if right == 0:
        raise _Fault(FAULT_DIV_ZERO)
    # C-style: quotient truncates toward zero, remainder matches
    q = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        q = -q
    return left - q * right if remainder else q


def _mul(left, right):
    """`left * right`; a product of magnitude `PRODUCT_LIMIT` or more ends
    the run with status timeout."""
    product = left * right
    if -PRODUCT_LIMIT < product < PRODUCT_LIMIT:
        return product
    raise _Timeout


def _aread(st, ref, i):
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF)
    cells = st.heap[ref]
    if i < 0 or i >= len(cells):
        raise _Fault(FAULT_OOB)
    return cells[i]


def _awrite(st, ref, i, value):
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF)
    cells = st.heap[ref]
    if i < 0 or i >= len(cells):
        raise _Fault(FAULT_OOB)
    cells[i] = value


def _alloc(st, size):
    if size < 0:
        raise _Fault(FAULT_OOB)
    if st.heap_cells + size > st.max_heap_cells:
        raise _Timeout
    st.heap.append([0] * size)
    st.heap_cells += size
    return len(st.heap) - 1


def _read(st):
    value = next(st.inputs, _NO_INPUT)
    if value is _NO_INPUT:
        raise _InputExhausted
    return value


def _g(st, j):
    """The guard of block `j`: record a watched entry, and stop the run
    once every watched block is entered; True when the block is patched
    in this run."""
    if j in st.W:
        st.seen.add(j)
        if len(st.seen) == st.need:
            raise _Covered
    if j in st.E:
        return True
    st.H.discard(j)  # watched only, and now entered
    return False


def _ret(st, left, j):
    """The patched block's return: charge its one step, and return its
    error value."""
    if left < 1:
        raise _StepsOut
    st.L = left - 1
    return _constant(st.E[j])


def _fn(functions, ref):
    """The callee of a call through `ref`, from `functions`."""
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF)
    return functions[ref.name]


def _print(st, value):
    st.output.append(int(value))


def _ir_error(message, *_operands):
    raise IRError(message)


# The names generated code calls, bound in the namespace of each form.
_HELPERS = {"S": _StepsOut} | {
    helper.__name__: helper
    for helper in (
        _Fault, _Halt, _div, _mul, _aread, _awrite, _alloc, _read, _fn, _g, _ret, _print,
        _ir_error, _deep,
    )
}
