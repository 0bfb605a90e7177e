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
change. It also records in `ExecutionResult.cuts`, for each watched block
of the entry function whose first entry the entry function's own frame
made, the steps charged before that entry and the values printed by then:
a patch there returns from the entry function, so `cut_result` gives that
patched run's result from the watched run's, with no run of its own.

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
  - blocks are nested `if`/`else` and `while 1:` statements, with no
    dispatch variable. A branch is `if COND:` with its arms up to their
    join, the block the branch immediately dominates that more than one
    forward edge enters, which follows the `if`. A loop's header (the
    target of a back edge, whose source it dominates) opens a `while 1:`;
    a jump back to it is `continue`, and a jump to the loop's exit block,
    written after the loop, is `break`. An exit to a tail, a block entered
    by one edge that reaches only blocks reached through it (a return
    inside the loop), is written where it is taken. A function that has
    no such form (a loop with two exits that go on, or an irreducible
    CFG), or whose form nests deeper than Python compiles (`_MAX_LOOPS`,
    `_MAX_INDENT`), runs its blocks in a dispatch loop, `while 1:` over
    one `if b==i:` test per block; lowered MiniLang needs it only past
    `_MAX_LOOPS` nested loops;
  - calls are native Python calls, `v3=f2(st,L,d+1,...);L=st.L`: a
    return leaves the countdown in `st.L` for its caller;
  - each segment of a block (its statements up to and including a call,
    or up to and including its terminator) is charged in one subtraction.
    A segment no step of which a result can show is charged with a bare
    `L-=n`: it holds only `nop`s and assignments whose expressions cannot
    raise (no `_div`, no `_mul` of two variables and no other helper), and
    ends in a jump or in a branch or return on such an expression. Every
    other segment is charged with `if (L:=L-n)<0:raise S`. So the
    countdown drops below zero only across steps no result shows, and it
    is tested, `L<0`, where the next step could be seen without a segment
    check: at each loop head, at each guard, at each traced block entry,
    and after the run's entry function returns, where a countdown below
    zero is a timeout;
  - each block in the form's guard set starts with a guard, `if j in
    st.H and (L<0 and _so() or j in st.V and st.W is _NK or
    _g(st,j,L,d)):st.L=L-1 if L>0 else _so();return st.V[j]`: `st.H`
    holds the guards active in this run, `st.E` the patched blocks' error
    values and `st.W` the watched guards (`_NK`, none, in a run that
    watches nothing). `_g` records a watched entry (stopping the run once
    every watched block is entered), and its cut when it is the block's
    first entry and made at depth `d` 0, by the entry function's own
    frame: the countdown `L`, which the guard has tested, and the output's
    length, as `ExecutionResult.cuts` reports them. It tells whether the
    block is patched; for a patched block it converts the error value,
    once per run, into `st.V`, so a run that watches nothing returns it
    again in line. A patched block's return charges its one step, and
    `_so` stops a run whose budget has run out. An unpatched entry of a
    watched block drops its guard from `st.H`, so a loop pays for it once;
  - in a traced form, each block first appends its key to `st.T`, and a
    call line stores its call site in `st.s`, which the callee's first
    line appends, with the callee, to `st.C`.

A program keeps every form it compiled (`IRProgram.fast`), each with its
guard set and whether it is traced: a run uses the first that is traced
if and only if the run is and whose guards cover its watched and patched
blocks, and compiles one otherwise. The harness's probes watch every
patched block, so the form they compile also serves every patched run and
the fuzz run that patches all candidates at once. A form's functions are
generated as one text, with one map from its lines to their statements,
and compiled in one `compile()`; code is cached by that text, so a form
whose text was generated before, for any program, compiles nothing.

Stops. Each statement, call and terminator other than a jump is one
source line, and a segment's lines follow its charge with no line between
them. When a stop unwinds the run, the innermost generated frame holds the
countdown and names the line that stopped it, and the outer ones name the
call sites; each line's site gives its statement id and its position in
the segment whose steps were charged before it ran, so the step count and
the backtrace come out exactly, at no cost to a run that does not stop.
When a segment check finds that the segment's `n` steps do not fit, the
countdown before it, `k = L + n < n`, is what the budget has left: the
run executes the segment's first `k` statement lines against the stopped
frame's locals, and times out at step `max_steps + 1` unless one of them
stops it first (a fault, input exhaustion, or the heap or value budget).
`k` is 0 or less when an earlier segment with no check ran past the
budget: nothing runs, and the run times out. A stop at an `L<0` test, and
a patched block whose one step does not fit, time out at once.

Deep calls. Every call, at every depth, is a native call. Since CPython
3.11 a call from Python code to a Python function takes no C stack, so
only the recursion limit bounds the depth. Each function's first line is
`if d==200:_deepen(st,L)`, with `_MAX_DEPTH` for 200: the first call of a
run that reaches that depth raises the recursion limit by the steps the
run has left, plus `_DEEP_MARGIN`, since every deeper call charges at
least one step before it is made. A run called from within about
`_MAX_DEPTH` frames of the limit overflows before that call: when a run
raises `RecursionError` before it has raised the limit, `run_program`
runs it once more from the start, with the limit raised first. Only runs
from such deep callers retry; CPython turns off a trace function that
raises, so a `sys.settrace` function misses the overflowed attempt's
later events. The limit goes back to its value before when the last deep
run in flight, in any thread, ends; a run that stays shallower never
touches it. While a deep run is in flight the raised limit is
process-wide, so on 3.11 C-level recursion in other threads (`repr` or
`json` of a deeply nested value, say) shares it, and can overflow the C
stack where it would have raised `RecursionError`.

Malformed IR. A form runs only IR that `parse` can produce: building one
raises `IRError`, before any step, for what `ir.validate_program` rejects
(a missing entry function or entry block, a jump to no block, a call of
an undeclared function, a parameter declared twice), for an entry
function that is external or takes parameters, a direct call whose
argument count differs from the callee's, a `halt`, a missing
terminator, and an unknown operator, statement kind or expression (an
opaque condition included). The arity of a call through a reference is
the frontend's type checker's to ensure.

Generated text: program data reaches the source only through `repr()` of
a string, int, bool or None, so no name can clash with the generated
code's own identifiers; any other constant, such as a function reference,
is bound in the namespace of the generated code. Code objects are cached
for the life of the process, keyed by their source text; compiled code
holds no per-run state, and each cache is published by one attribute
store, so threads may run, and compile, the same program at once.
"""

from __future__ import annotations

import sys
from _thread import allocate_lock

from ..analysis import immediate_dominators, predecessors_map, reachable, successors_map
from ..ir import (
    Binary,
    BoolConst,
    Branch,
    Const,
    FuncRef,
    IntConst,
    IRError,
    IRProgram,
    Jump,
    NilConst,
    Return,
    Unary,
    Var,
    validate_program,
)
from ..record import Record
from .lower import default_value

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

# The call depth at which a run raises the recursion limit; well inside
# Python's default limit of 1000, so that shallower runs never need to.
_MAX_DEPTH = 200
# Frames a deep run may need past one per step left: the helpers a
# generated function calls, and a trace or profile function.
_DEEP_MARGIN = 50
# The largest C int, the most `sys.setrecursionlimit` takes.
_INT_MAX = (1 << 31) - 1

# Past these, a function runs in the dispatch loop: CPython compiles at
# most 99 levels of indentation and 20 statically nested loops.
_MAX_INDENT = 90
_MAX_LOOPS = 16


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
    # for a run with `watch`, `(block, (steps, outputs))` for each watched
    # block that the entry function's own frame entered first: the steps
    # charged before that entry and the values printed by then
    cuts: tuple[tuple[tuple[str, str], tuple[int, int]], ...] | None = None

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
        cuts=None,
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
        store(self, "cuts", cuts)
        store(self, "_values", (
            status, exit_value, fault_kind, fault_at, fault_stack,
            output, trace, calls, steps, entered, cuts,
        ))


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


_NO_INPUT = object()
_NO_KEYS: frozenset = frozenset()


class _State:
    """Per-run machine state the generated code reads and updates."""

    __slots__ = (
        "inputs", "heap", "heap_cells", "max_heap_cells", "output",
        # the step countdown at the last return, the active guards, the
        # patched guards' error values, as IR constants and, once their
        # block has returned them, as Python values, the watched guards,
        # those entered, how many blocks are watched, and the countdown and
        # output length at each watched guard main's own frame entered first
        "L", "H", "E", "V", "W", "seen", "need", "cut",
        # a traced run's block entries and calls, and the call site of the
        # call being made
        "T", "C", "s",
        # whether the run has raised the recursion limit (`_deepen`)
        "D",
    )

    def __init__(self, inputs, max_heap_cells):
        self.inputs = iter(inputs)
        self.heap: list[list[int]] = []
        self.heap_cells = 0
        self.max_heap_cells = max_heap_cells
        self.output: list[int] = []
        self.D = False


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
    run = (form, input_values, max_steps, max_heap_cells, watch, patches, traced)
    # None: the run overflowed from a deep caller; again, with the limit raised first
    return _execute(*run) or _execute(*run, deep=True)


def _execute(form, input_values, max_steps, max_heap_cells, watch, patches, traced, deep=False):
    """One run of `form`, as `run_program` describes it; None when it raised
    `RecursionError` before it raised the recursion limit. A `deep` run
    raises the limit before its first step."""
    st = _State(input_values, max_heap_cells)
    try:
        st.E = {form.guards[key]: value for key, value in patches.items()} if patches else {}
    except KeyError as missing:  # as `with_returns` raises
        fn_id, block_id = missing.args[0]
        raise IRError(f"no block {block_id!r} in function {fn_id!r}") from None
    st.H = set(st.E)
    st.V = {}
    st.W = _NO_KEYS
    st.seen = set()
    if watch is not None:
        st.W = form.every if watch is form.keys else form.indices(watch)
        st.H.update(st.W)
        st.need = len(watch)
        st.cut = {}
    if traced:
        st.T, st.C, st.s = [], [], None
    status, value, kind, at, backtrace = STATUS_OK, None, None, None, None
    try:
        if deep:
            _deepen(st, max_steps)
        try:
            value = form.entry(st, max_steps, 0)
            steps = max_steps - st.L
            if steps > max_steps:  # the budget ran out on steps no result shows
                status, value, steps = STATUS_TIMEOUT, None, max_steps + 1
        except _Stop as stop:
            status, value, kind, at, backtrace, steps = form.stopped(stop, max_steps)
    except RecursionError:
        if st.D:
            raise
        return None
    finally:
        if st.D:
            _shallow()
    entered = cuts = None
    if watch is not None:
        entered = frozenset(form.order[j] for j in st.seen)
        cuts = tuple((form.order[j], (max_steps - left, k)) for j, (left, k) in st.cut.items())
    trace, calls = (tuple(st.T), tuple(st.C)) if traced else (None, None)
    return ExecutionResult(
        status, value, kind, at, backtrace, tuple(st.output), trace, calls, steps, entered,
        cuts,
    )


def cut_result(cut, output, value, max_steps) -> ExecutionResult:
    """The run patched to return `value` (an IR constant, or None) at a
    block of the entry function, from `cut`, a watched run's `(steps,
    outputs)` at its first entry of that block in the entry function's own
    frame, and that run's `output`. Up to the entry the patched run is the
    watched one; there its return is one more step, and ends the run."""
    steps, k = cut
    value = _constant(value)
    if steps < max_steps:
        return ExecutionResult(STATUS_OK, value, output=output[:k], steps=steps + 1)
    return ExecutionResult(STATUS_TIMEOUT, output=output[:k], steps=max_steps + 1)


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


class _Form:
    """One compiled form of a program: `entry(st, L, 0)` runs it with a
    step countdown of `L` and returns main's value. Building it raises
    `IRError` for malformed IR.

    `keys` is the guard set asked for; `guards` maps each of its blocks
    that exists to the guard's index, `order` lists them by index, and
    `every` holds every index. `traced` tells whether the form records a
    trace. What a stopped run reads of the form's text: `lines` lists its
    lines, `sites[line]` is `(function, statement id, correction)` for each
    line whose step has an id, the correction being the steps after it in
    its segment, negated, and `checks[line]` is the steps the segment check
    on `line` charges; lines count from 1.
    """

    __slots__ = ("keys", "traced", "guards", "order", "every", "sites", "checks", "lines", "entry")

    def __init__(self, program, keys, traced):
        validate_program(program)
        entry = program.functions[program.entry]
        if entry.external or entry.params:
            raise IRError(f"entry function {program.entry!r} must have a body and no parameters")
        self.keys = keys
        self.traced = traced
        self.order = tuple(
            (name, bid)
            for name, fn in program.functions.items()
            for bid in fn.blocks
            if (name, bid) in keys
        )
        self.guards = {key: j for j, key in enumerate(self.order)}
        self.every = frozenset(range(len(self.order)))
        lowering = _FastLowering(program.functions, self.guards, traced)
        namespace = lowering.namespace()
        self.sites, self.checks, self.lines = lowering.sites, lowering.checks, lowering.lines
        # the callees of calls through a reference
        namespace["F"] = {name: namespace[lowering.code_name(name)] for name in program.functions}
        self.entry = namespace[lowering.code_name(program.entry)]

    def indices(self, watch):
        """The guard indices of the blocks in `watch`."""
        return frozenset(self.guards[key] for key in watch if key in self.guards)

    def frames(self, stop):
        """`(line, frame)` of each generated frame `stop` unwound,
        outermost first."""
        frames = []
        tb = stop.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == _FORM_FILE:
                frames.append((tb.tb_lineno, tb.tb_frame))
            tb = tb.tb_next
        return frames

    def stopped(self, stop, max_steps):
        """`(status, value, fault kind, fault statement, backtrace, steps)`
        of the run `stop` ended."""
        frames = self.frames(stop)
        line, frame = frames[-1]
        left = frame.f_locals["L"]
        if isinstance(stop, _Covered):  # at a block entry, before its steps
            return STATUS_COVERED, None, None, None, None, max_steps - left
        if isinstance(stop, _StepsOut):
            n = self.checks.get(line)  # None at a patched block's return
            tail = None if n is None else _tail(self.lines, line, frame, left + n)
            if tail is None:
                return STATUS_TIMEOUT, None, None, None, None, max_steps + 1
            stop, line = tail
        site = self.sites[line]
        steps = max_steps - left + site[2]
        if isinstance(stop, _Fault):
            backtrace = tuple(self.sites[at][:2] for at, _ in frames[:-1]) + (site[:2],)
            return STATUS_FAULT, None, stop.kind, site[1], backtrace, steps
        status = STATUS_TIMEOUT if isinstance(stop, _Timeout) else STATUS_INPUT_EXHAUSTED
        return status, None, None, None, None, steps


def _tail(lines, line, frame, k):
    """Execute the `k` statement lines of the form's `lines` after segment
    check `line` of `frame` against its locals; `(stop, line)` of the line
    that stopped the run, or None when all `k` ran."""
    env = dict(frame.f_locals)
    for i in range(line, line + k):  # lines[i] is line i + 1
        try:
            exec(_code(lines[i].lstrip(), _TAIL_FILE), frame.f_globals, env)
        except _Stop as stop:
            return stop, i + 1
    return None


class _Unstructured(Exception):
    """A CFG that nested `if` and `while` cannot write, or that Python
    cannot compile so."""


def _shape(fn):
    """`(joins, loops)` of `fn`, whose entry block exists.

    `joins` maps each branch block to its join, the block that its arms
    meet at: the one block it immediately dominates that more than one
    forward edge enters. `loops` maps each loop header to its exit block,
    which its `break` goes to (None for none). An exit to a tail, a block
    entered by one edge whose successors are reached only through it
    (such as a return inside the loop), is written where it is taken; the
    loop's exit block is the one exit that is not a tail, or else the
    header's own exit. None when a block has two joins or a loop two exits
    that are no tail."""
    blocks = fn.blocks
    succ = successors_map(fn)
    preds = predecessors_map(fn)
    idom = immediate_dominators(fn.entry_block, succ, preds)  # in reverse postorder
    index = {bid: i for i, bid in enumerate(idom)}
    forward = dict.fromkeys(blocks, 0)
    loops: dict[str, list] = {}
    for bid in idom:
        for t in succ[bid]:
            d = bid  # a back edge goes to a block that dominates its source
            while index[d] > index[t]:
                d = idom[d]
            if d == t:
                loops.setdefault(t, []).append(bid)
            else:
                forward[t] += 1
    joins = {}
    for bid, n in forward.items():
        if n > 1:
            if idom[bid] in joins:
                return None
            joins[idom[bid]] = bid
    for header, sources in loops.items():
        # the natural loop: what reaches a back edge, not via the header
        body = reachable((header, *sources), lambda b: () if b == header else preds[b])
        exits = {t for bid in body for t in succ[bid] if t not in body}
        own = [t for t in succ[header] if t in exits]
        shared = [t for t in exits - set(own) if not _is_tail(t, fn.entry_block, succ, preds)]
        if len(shared) > 1 or shared and own and not _is_tail(own[0], fn.entry_block, succ, preds):
            return None
        loops[header] = (shared or own or [None])[0]
    return joins, loops


def _is_tail(bid, entry, succ, preds):
    """Whether block `bid` is entered by one edge, and every block it
    reaches only from blocks it reaches."""
    if len(preds[bid]) != 1:
        return False
    region = reachable((bid,), succ.__getitem__)
    return entry not in region and all(
        p in region for t in region if t != bid for p in preds[t]
    )


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
    """Python source for a program's functions, as one text.

    IR function `name` becomes `def f<i>(st, L, d, <parameters>)`, whose
    calls are Python calls; `i` is its position in the program, `L` the
    step countdown and `d` the call depth. A return stores the countdown
    in `st.L`, and a caller reads it back after the call. The blocks are
    written as nested `if` and `while` from the entry block (`write`), or
    in a dispatch loop (`body`); a segment's charge has a check unless no
    step of it can be seen (`safe`, which the expressions of the segment
    clear). Each statement, call and terminator other than a jump is one
    line of `lines`, and `sites` and `checks` map the text's line numbers
    as `_Form` describes. Variables are `v<k>` in the order the function
    first names them, parameters first. Constants that are not a string,
    int, bool or None are collected in `consts` under names that number
    them within their function, `_f<i>c<k>`, so that each function's text
    depends on that function alone. IR that `parse` cannot produce raises
    `IRError` where the lowering meets it.
    """

    def __init__(self, functions, guards, traced):
        self.functions = functions
        self.guards = guards
        self.traced = traced
        self.index = {name: i for i, name in enumerate(functions)}

    def code_name(self, name) -> str:
        return f"f{self.index[name]}"

    def namespace(self) -> dict:
        """Every function, compiled in one `compile()` and run in a fresh
        namespace that also holds the helpers and the collected constants.
        Code comes from `_CODE` when another form generated the same text
        before."""
        self.consts: dict[str, object] = {}
        self.lines: list[str] = []
        self.sites: dict[int, tuple[str, str, int]] = {}
        self.checks: dict[int, int] = {}
        for name, fn in self.functions.items():
            f = self.code_name(name)
            self.prefix, self.named = f"_{f}c", 0
            self.vars: dict[str, str] = {}
            self.temps = 0
            self.function(f, name, fn)
        namespace = _HELPERS | self.consts
        exec(_code("\n".join(self.lines) + "\n", _FORM_FILE), namespace)
        return namespace

    def const(self, value) -> str:
        """A Python expression for `value`."""
        if value is None or type(value) in (bool, str):
            return repr(value)
        if type(value) is int and abs(value) < 1 << 64:  # repr of huge ints may raise
            return f"({value!r})" if value < 0 else repr(value)
        name = f"{self.prefix}{self.named}"
        self.named += 1
        self.consts[name] = value
        return name

    def zero(self, value_type) -> str:
        """A Python expression for the default value of `value_type`."""
        return self.const(_constant(default_value(value_type)))

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
        if depth > _MAX_INDENT:
            raise _Unstructured
        self.lines.append(" " * depth + text)
        if site is not None:
            self.sites[len(self.lines)] = site

    def function(self, f, name, fn) -> None:
        # the call that entered the function, made by a call line; the
        # run's entry is made by none
        record = f"st.C.append((st.s,{self.const(fn.id)}))" if self.traced else None
        if fn.external:
            # externals have no body; they return their return type's default
            body = [record, "st.L=L", f"return {self.zero(fn.return_type)}"]
            self.emit(0, f"def {f}(st,L,d,*a):" + ";".join(filter(None, body)))
            return
        args = [self.var(p) for p, _ in fn.params]
        self.emit(0, f"def {f}({','.join(['st', 'L', 'd'] + args)}):")
        self.emit(1, f"if d=={_MAX_DEPTH}:_deepen(st,L)")
        if record:
            self.emit(1, f"if st.s is not None:{record}")
        defaults = [f"{self.var(v)}={self.zero(t)}" for v, t in fn.locals.items()]
        if defaults:
            self.emit(1, ";".join(defaults))
        self.body(name, fn)

    def body(self, name, fn) -> None:
        """The function's blocks as nested `if` and `while`, from its entry
        block; a function with no such form, or one that nests deeper than
        Python allows, runs its blocks in a dispatch loop instead."""
        self.name, self.fn = name, fn
        self.loop, self.open = (None, None), 0  # the innermost loop's header and exit
        self.written: set[str] = set()
        self.numbers = None
        shape = _shape(fn)
        if shape is not None:
            self.joins, self.loops = shape
            mark = len(self.lines)
            try:
                self.write(fn.entry_block, None, 1)
                return
            except _Unstructured:
                del self.lines[mark:]
                self.sites = {i: s for i, s in self.sites.items() if i <= mark}
                self.checks = {i: n for i, n in self.checks.items() if i <= mark}
        # the dispatch loop: `b` numbers the block to run next
        self.joins = {}
        self.numbers = {bid: i for i, bid in enumerate(fn.blocks)}
        self.emit(1, f"b={self.numbers[fn.entry_block]}")
        self.emit(1, "while 1:")
        self.emit(2, "if L<0:raise S")
        for bid, i in self.numbers.items():
            self.emit(2, f"if b=={i}:")
            self.block(bid, None, 3, True)

    def write(self, bid, follow, depth) -> None:
        """Block `bid`, and the blocks control runs on to, at indentation
        `depth`; control that runs off the end of what is written goes on
        to block `follow`."""
        while bid is not None:
            if bid in self.written:  # a second copy: not a structured CFG
                raise _Unstructured
            self.written.add(bid)
            if bid in self.loops:
                bid = self.write_loop(bid, follow, depth)
            else:
                bid = self.block(bid, follow, depth, False)

    def write_loop(self, header, follow, depth):
        """The loop of `header` as `while 1:`, whose first line is the
        loop-head check and whose `break` goes on to the loop's exit
        block; returns the block to write after it."""
        exit_ = self.loops[header]
        self.open += 1
        if self.open > _MAX_LOOPS:
            raise _Unstructured
        self.emit(depth, "while 1:")
        self.emit(depth + 1, "if L<0:raise S")
        outer, self.loop = self.loop, (header, exit_)
        self.write(self.block(header, header, depth + 1, True), header, depth + 1)
        self.loop = outer
        self.open -= 1
        return None if exit_ is None else self.goto(exit_, follow, depth)

    def goto(self, bid, follow, depth):
        """Control going on to block `bid`: in the dispatch loop, the
        block's number; otherwise `continue` to the innermost loop's header,
        nothing to `follow` and `break` to the loop's exit. Returns `bid`
        when the block is to be written next."""
        if self.numbers is not None:
            self.emit(depth, f"b={self.numbers[bid]};continue")
        elif bid == self.loop[0]:
            self.emit(depth, "continue")
        elif bid == self.loop[1]:
            self.emit(depth, "break")
        elif bid != follow:
            return bid
        return None

    def block(self, bid, follow, depth, head):
        """Block `bid` at indentation `depth`: its trace entry and its
        guard, if it has them, then each segment, charged in one
        subtraction, then where its terminator goes; returns the block to
        write next. `head`: a loop-head check has just tested the
        countdown."""
        fid = self.fn.id
        block = self.fn.blocks[bid]
        if self.traced:
            if not head:
                self.emit(depth, "if L<0:raise S")
            self.emit(depth, f"st.T.append({self.const((fid, bid))})")
        j = self.guards.get((self.name, bid))
        if j is not None:
            self.emit(depth, (
                f"if {j} in st.H and (L<0 and _so() or {j} in st.V and st.W is _NK"
                f" or _g(st,{j},L,d)):"
                f"st.L=L-1 if L>0 else _so();return st.V[{j}]"
            ))
        for stmts, call in _segments(block):
            n = len(stmts) + 1
            self.safe = True
            lines = [(self.statement(s), (fid, s.id, j + 1 - n)) for j, s in enumerate(stmts)]
            if call:
                self.safe = False
                lines.append((self.call(call), (fid, call.id, 0)))
            else:
                lines.append(self.terminator(block))
            if self.safe:  # no step of the segment can be seen
                self.emit(depth, f"L-={n}")
            else:
                self.emit(depth, f"if (L:=L-{n})<0:raise S")
                self.checks[len(self.lines)] = n
            for text, site in lines:
                if text is not None:
                    self.emit(depth, text, site)
        term = block.terminator
        if isinstance(term, Jump):
            return self.goto(term.target, follow, depth)
        if isinstance(term, Branch):
            join = self.joins.get(bid)
            inner = follow if join is None else join
            mark = len(self.lines)
            self.write(self.goto(term.then_target, inner, depth + 1), inner, depth + 1)
            if len(self.lines) == mark:
                self.lines[-1] += "pass"
            self.emit(depth, "else:")
            mark = len(self.lines)
            self.write(self.goto(term.else_target, inner, depth + 1), inner, depth + 1)
            if len(self.lines) == mark:
                self.lines.pop()
            if inner != follow:
                return self.goto(inner, follow, depth)
        return None

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
        raise IRError(f"cannot evaluate {expr!r}")

    def binary(self, expr) -> str:
        op = expr.op
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if op in _INFIX:
            return f"({left}{op}{right})"
        if op == "*":
            if isinstance(expr.left, Const) or isinstance(expr.right, Const):
                return f"({left}*{right})"
            self.safe = False
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
            self.safe = False
            return f"_div({left},{right},{op == '%'})"
        raise IRError(f"unknown operator {op!r}")

    def statement(self, stmt) -> str:
        """One non-call statement, as one line; only an assignment can
        leave the segment's steps unseen."""
        kind = stmt.kind
        if kind not in ("assign", "nop"):
            self.safe = False
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
        raise IRError(f"cannot execute statement kind {kind!r}")

    def call(self, stmt) -> str:
        """Resolve the callee, evaluate the arguments, left first, and
        call; then read back the countdown the callee left in `st.L`."""
        args = "".join(f",{self.expr(a)}" for a in stmt.args)
        if stmt.callee_name is not None:
            wanted = len(self.functions[stmt.callee_name].params)
            if len(stmt.args) != wanted:
                raise IRError(
                    f"call {stmt.id!r} passes {len(stmt.args)} arguments to "
                    f"{stmt.callee_name!r}, which takes {wanted}"
                )
            call = f"{self.code_name(stmt.callee_name)}(st,L,d+1{args})"
        else:
            call = f"_fn(F,{self.var(stmt.callee_ref)})(st,L,d+1{args})"
        if stmt.target is not None:
            call = f"{self.var(stmt.target)}={call}"
        if self.traced:
            call = f"st.s={self.const(stmt.id)};{call}"
        return call + ";L=st.L"

    def terminator(self, block) -> tuple:
        """`(line, site)` of the terminator's step: the line evaluates a
        branch's condition or returns; a jump has none."""
        term = block.terminator
        if isinstance(term, Jump):
            return None, None
        if isinstance(term, Branch):
            return f"if {self.expr(term.cond)}:", (self.fn.id, term.id, 0)
        if isinstance(term, Return):
            value = "None" if term.value is None else self.expr(term.value)
            return f"st.L=L;return {value}", (self.fn.id, term.id, 0)
        # a halt, which only imported graphs have, or no terminator at all
        raise IRError(f"{self.fn.id}:{block.id}: ends in {term!r}, not a jump, branch or return")


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


def _g(st, j, L, d):
    """The guard of block `j`, entered with countdown `L` at call depth `d`:
    record a watched entry, with its cut when it is the first entry and in
    main's own frame (`d` 0), and stop the run once every watched block is
    entered; True when the block is patched in this run, with its error
    value, as a Python value, in `st.V`."""
    if j in st.W:
        if not d and j not in st.seen:
            st.cut[j] = (L, len(st.output))
        st.seen.add(j)
        if len(st.seen) == st.need:
            raise _Covered
    if j in st.E:
        st.V[j] = _constant(st.E[j])
        return True
    st.H.discard(j)  # watched only, and now entered
    return False


# The deep runs in flight, and the recursion limit before the first of
# them raised it; under `_LIMIT_LOCK`, which is a `_thread` lock so that
# the interpreter does not import `threading`.
_LIMIT_LOCK = allocate_lock()
_in_flight = 0
_shallow_limit = 0


def _deepen(st, L):
    """A call at depth `_MAX_DEPTH`, with countdown `L`: on the run's first,
    raise the recursion limit by `L` frames and `_DEEP_MARGIN`, up to the
    largest C int. The countdown only falls, and every deeper call charges
    a step first, so the run never needs more."""
    global _in_flight, _shallow_limit
    if st.D:
        return
    with _LIMIT_LOCK:
        limit = sys.getrecursionlimit()
        if not _in_flight:
            _shallow_limit = limit
        _in_flight += 1
        st.D = True
        sys.setrecursionlimit(min(limit + L + _DEEP_MARGIN, _INT_MAX))


def _shallow():
    """A run that raised the recursion limit has ended: restore the limit
    if no other deep run is in flight."""
    global _in_flight
    with _LIMIT_LOCK:
        _in_flight -= 1
        if not _in_flight:
            sys.setrecursionlimit(_shallow_limit)


def _so():
    """Stop the run: the step budget ran out."""
    raise _StepsOut


def _fn(functions, ref):
    """The callee of a call through `ref`, from `functions`."""
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF)
    return functions[ref.name]


def _print(st, value):
    st.output.append(int(value))


# The names generated code calls, bound in the namespace of each form.
_HELPERS = {"S": _StepsOut, "_NK": _NO_KEYS} | {
    helper.__name__: helper
    for helper in (
        _Fault, _div, _mul, _aread, _awrite, _alloc, _read, _fn, _g, _so, _print, _deepen,
    )
}
