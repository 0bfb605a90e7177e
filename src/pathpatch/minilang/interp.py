"""Deterministic interpreter for lowered programs.

A run's outcome is encoded in its result status; the interpreter never
raises for program behavior:

    ok               normal completion, with main's return value
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
its steps is charged. `record_trace` records every entry. `watch`, a set
of `(function, block)` keys, makes the run record in
`ExecutionResult.entered` which of those blocks it entered, and stop with
status `covered` as soon as it has entered them all; the evaluation harness
uses it to find the test cases a patch can change.

Patches as data: `patches` maps `(function, block)` keys to error values
(IR constants, or None for a bare return). The run behaves exactly as the
program with each of those blocks replaced by `return value;`
(`ir.with_returns`, which `synth.apply_patch` uses), but runs the base
program's code: no patched variant is built or compiled.

Two forms run a program, both generated Python compiled on first use.

The fast form is one generated Python function per IR function,
`f<i>(st, L, d, <parameters>)`, where `st` is the run's state, `L` its
step countdown and `d` the call depth:

  - locals are Python locals `v0`, `v1`, ... and parameters are Python
    parameters;
  - blocks run in a local dispatch loop, `while 1:` over one `if b==i:`
    test per block in block order, so a forward jump falls through to its
    target and a backward one continues the loop; an entry block that no
    block jumps to runs before the loop;
  - calls are native Python calls, `v3=f2(st,L,d+1,...);L=st.L`: a
    return leaves the countdown in `st.L` for its caller;
  - each segment of a block (its statements up to and including a call,
    or up to and including its terminator) is charged in one subtraction
    from `L`, and the run gives up (bails) when `L` goes below zero;
  - each block in the form's guard set starts with a guard,
    `if j in st.H and _g(st,j):return _ret(st,L,j)`: `st.H` holds the
    guards active in this run, `_g` records a watched entry (stopping the
    run once every watched block is entered) and tells whether the block
    is patched, and `_ret` charges the patch's one step and returns its
    error value. An unpatched entry of a watched block drops its guard
    from `st.H`, so a loop pays for it once.

A program keeps every fast form it compiled, each with its guard set: a
run uses the first whose guards cover its watched and patched blocks, and
compiles one otherwise. The harness's probes watch every patched block, so
the form they compile also serves every patched run and the fuzz run that
patches all candidates at once: evaluation and fuzzing compile nothing.
Each function is its own compile unit, and code is cached by its source
text, so another form of the same program or a patched variant compiles
only the functions whose text differs.

Faults, input exhaustion and the heap and value budgets are exact in the
fast form. The whole segment's steps were charged before it ran, and each
generated statement is one source line, so when a run stops, the
traceback's innermost generated frame holds the countdown and names the
statement that stopped it (its line is in the form's `sites` table, with
its position in the segment), and the outer generated frames name the
call sites: the step count and the backtrace come out as the checked form
computes them, at no cost to a run that does not stop.

The fast form bails, and the run starts over in the checked form, when the
step budget runs out (anywhere inside a segment), when calls nest deeper
than `_MAX_DEPTH`, and when anything raises what is not a stop: the IR
errors, missing blocks and functions and mismatched argument counts the
checked form reports (as `IRError`, `KeyError` or otherwise) or handles.
Runs with `record_trace` use the checked form directly. Bailing is always
safe, since the checked form is exact; it costs the abandoned attempt.

The checked form is the interpreter the fast form replaced, kept as the
exact reference: one generated function `seg(env, st)` per segment, a
superinstruction (Ertl & Gregg, "The Structure and Performance of
Efficient Interpreters", JILP 2003), driven by a loop over an explicit
frame stack, with variables in an `env` dict. A segment whose steps do not
all fit in the remaining budget is run one step at a time, by one
generated function per step made from the same statement source. It is
compiled per function, on the first checked run that reaches it, and
stored on the function (`fn.compiled`); a patched run that bails runs it
on `ir.with_returns`'s variant.

Generated text: program data reaches the source only through `repr()` of
a string, int, bool or None: variable names become generated identifiers
or string keys, and statement ids and messages are literals. No name is
ever spliced in as code, so no name can clash with the generated code's
own identifiers. Any other constant, such as a function reference, is
bound in the namespace of the generated code. Compiling never raises: an
unknown operator, statement kind or expression raises `IRError` only when
it runs. Code objects are cached for the life of the process, keyed by
their source text; compiled code holds no per-run state, and each cache
is published by one attribute store, so threads may run, and compile, the
same program at once.
"""

from __future__ import annotations

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
    with_returns,
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

# Calls the fast form nests natively before it bails; well inside Python's
# default recursion limit of 1000, whatever the caller's own depth.
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
    """Ends a run; `at` is the id of the statement that raised it."""

    def __init__(self, at=None):
        self.at = at


class _Fault(_Stop):
    def __init__(self, kind: str, at: str | None = None):
        self.kind = kind
        self.at = at


class _Timeout(_Stop):
    pass


class _InputExhausted(_Stop):
    pass


class _Covered(_Stop):
    pass


class _Bail(Exception):
    """The fast form gives the run up; it starts over in the checked form."""


_NO_INPUT = object()
_NO_KEYS: frozenset = frozenset()


class _State:
    """Per-run machine state the generated code reads and updates."""

    __slots__ = (
        "functions", "inputs", "heap", "heap_cells", "max_heap_cells", "output",
        # the fast form's: the step countdown at the last return, the
        # active guards, the patched guards' error values, the watched
        # guards, those entered, and how many blocks are watched
        "L", "H", "E", "W", "seen", "need",
    )

    def __init__(self, functions, inputs, max_heap_cells):
        self.functions = functions
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
    inputs = tuple(input_values)
    if not record_trace:
        try:
            return _run_fast(program, inputs, max_steps, max_heap_cells, watch, patches)
        except _Bail:
            pass
    if patches:
        program = with_returns(program, patches)
    return _run_checked(program, inputs, max_steps, max_heap_cells, record_trace, watch)


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
# The fast form
# ---------------------------------------------------------------------------


def _run_fast(program, inputs, max_steps, max_heap_cells, watch, patches):
    """The run in the fast form; raises `_Bail` when it gives the run up."""
    form = _fast_form(program, watch, patches)
    if form.entry is None:  # no entry function to run: the checked form raises
        raise _Bail
    st = _State(None, inputs, max_heap_cells)
    try:
        st.E = {form.guards[key]: value for key, value in patches.items()} if patches else {}
    except KeyError:  # no such block: the checked form raises IRError
        raise _Bail from None
    st.H = set(st.E)
    st.W = _NO_KEYS
    st.seen = set()
    if watch is not None:
        st.W = form.every if watch is form.keys else form.indices(watch)
        st.H.update(st.W)
        st.need = len(watch)
    status, value, kind, at, backtrace = STATUS_OK, None, None, None, None
    try:
        value = form.entry(st, max_steps, 0)
        steps = max_steps - st.L
    except _Stop as stop:
        sites, left = form.stack(stop.__traceback__)
        steps = max_steps - left
        if isinstance(stop, _Covered):  # at a block entry, before its steps
            status = STATUS_COVERED
        else:
            steps += sites[-1][2]
            if isinstance(stop, _Fault):
                status, kind, at = STATUS_FAULT, stop.kind, sites[-1][1]
                backtrace = tuple((fn_id, site) for fn_id, site, _ in sites)
            elif isinstance(stop, _Timeout):
                status = STATUS_TIMEOUT
            else:
                status = STATUS_INPUT_EXHAUSTED
    except Exception:  # whatever it is, the checked form meets it too, exactly
        raise _Bail from None
    entered = None
    if watch is not None:
        entered = frozenset(form.order[j] for j in st.seen)
    return ExecutionResult(
        status, value, kind, at, backtrace, tuple(st.output), None, None, steps, entered
    )


def _constant(value):
    """The Python value of an error value; `_Bail` for what is no constant."""
    if value is None or isinstance(value, NilConst):
        return None
    if isinstance(value, (IntConst, BoolConst)):
        return value.value
    raise _Bail


def _fast_form(program, watch, patches):
    """The first fast form of `program` whose guards cover the blocks in
    `watch` and `patches`, compiled and kept on the program if it has none."""
    for form in program.fast:
        if (watch is None or watch is form.keys or form.keys.issuperset(watch)) and (
            not patches or form.keys.issuperset(patches)
        ):
            return form
    keys = frozenset(watch or ())
    if patches:
        keys = keys.union(patches)
    form = _Fast(program, keys)
    # a plain attribute store: two threads that compile at once both keep
    # working forms, and the program keeps either
    object.__setattr__(program, "fast", program.fast + (form,))
    return form


# The file name of fast-form code, which tells its frames in a traceback.
_FAST_FILE = "<fast>"


class _Fast:
    """One fast form of a program: `entry(st, L, 0)` runs it with a step
    countdown of `L` and returns main's value.

    `keys` is the guard set asked for; `guards` maps each of its blocks
    that exists to the guard's index, `order` lists them by index, and
    `every` holds every index.
    `sites[f][line]` is `(function, statement id, correction)` for each
    line of generated function `f` that holds a statement, call or
    terminator, where the correction is the step count's change when that
    statement stops the run: the steps after it in its segment, negated.
    """

    __slots__ = ("keys", "guards", "order", "every", "sites", "entry")

    def __init__(self, program, keys):
        self.keys = keys
        self.order = tuple(
            (name, bid)
            for name, fn in program.functions.items()
            for bid in fn.blocks
            if (name, bid) in keys and not fn.external
        )
        self.guards = {key: j for j, key in enumerate(self.order)}
        self.every = frozenset(range(len(self.order)))
        gen = _FastLowering(program, self.guards)
        namespace = dict(_HELPERS)
        self.sites = {}
        for name, fn in program.functions.items():
            code, self.sites[gen.names[name]], consts = gen.unit(name, fn)
            namespace.update(consts)
            exec(code, namespace)
        namespace["F"] = {name: namespace[f] for name, f in gen.names.items()}
        entry = program.functions.get(program.entry)
        self.entry = None if entry is None or entry.external else namespace["F"][program.entry]

    def indices(self, watch):
        """The guard indices of the blocks in `watch`."""
        return frozenset(self.guards[key] for key in watch if key in self.guards)

    def stack(self, tb):
        """`(sites, L)` of the generated frames in traceback `tb`: the
        sites of the call sites, outermost first, then of the statement
        that raised, and the step countdown of the innermost frame."""
        sites, left = [], None
        while tb is not None:
            code = tb.tb_frame.f_code
            if code.co_filename == _FAST_FILE:
                site = self.sites[code.co_name].get(tb.tb_lineno)
                if site is not None:
                    sites.append(site)
                left = tb.tb_frame.f_locals["L"]
            tb = tb.tb_next
        return sites, left


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


def _targets():
    """`(index, target)`: block index by id, and a function giving the
    index of a block id, numbering ids no block has after the blocks."""
    index: dict = {}

    def target(bid):
        if bid not in index:
            index[bid] = len(index)
        return index[bid]

    return index, target


# ---------------------------------------------------------------------------
# The checked form
# ---------------------------------------------------------------------------


# What the run does with the value a segment returns. Block targets are
# indices into the function's block tuple, so the compiled form has no
# reference cycles and is freed with its function.
_GOTO, _CALL, _RETURN, _HALT = range(4)


def _run_checked(program, inputs, max_steps, max_heap_cells, record_trace, watch):
    """The run in the checked form: one segment at a time, by a driver
    loop over an explicit frame stack."""
    st = _State(program.functions, inputs, max_heap_cells)
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


def _compile(fn):
    """Compile `fn` in the checked form and publish it on `fn.compiled`.

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
    index, target = _targets()
    for bid in fn.blocks:
        target(bid)
    blocks = [_block(fn, block, target) for block in fn.blocks.values()]
    entry = target(fn.entry_block)
    for bid in list(index)[len(blocks):]:
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
    seg = None
    for stmts, call in reversed(_segments(block)):
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


def _code(source, filename):
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, filename, "exec")
    return code


def _define(source, lowering):
    """Run `source` in a fresh namespace holding the helpers and the
    constants of `lowering`; returns the namespace."""
    code = _code(source, "<segment>")
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


# ---------------------------------------------------------------------------
# Lowering to Python source
# ---------------------------------------------------------------------------


# Python operators with the IR operator's exact meaning.
_INFIX = frozenset(("+", "-", "<", "<=", ">", ">=", "==", "!="))


class _Lowering:
    """Python source for the statements and the end of one checked
    segment, with variables as keys of `env`.

    Each statement becomes one line of text. Constants that are not a
    string, int, bool or None are collected in `consts` under generated
    names.
    """

    prefix = "_c"  # of the names of collected constants

    def __init__(self):
        self.consts: dict[str, object] = {}
        self.temps = 0

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
        return f"env[{self.const(name)}]"

    def at(self, stmt_id) -> str:
        """The last argument of a helper that may stop the run: the id of
        the statement it reports."""
        return f",{self.const(stmt_id)}"

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def error(self, message: str, *operands: str) -> str:
        """Code that evaluates `operands`, then raises `IRError(message)`."""
        return f"_ir_error({','.join((self.const(message),) + operands)})"

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
            return self.var(expr.name)
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
            return f"({left}{op}{right})"
        if op == "*":
            if isinstance(expr.left, Const) or isinstance(expr.right, Const):
                return f"({left}*{right})"
            return f"_mul({left},{right}{self.at(at)})"
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
            return f"_div({left},{right},{op == '%'}{self.at(at)})"
        return self.error(f"unknown operator {op!r}", left, right)

    def statement(self, stmt) -> str:
        """One non-call statement, as one line."""
        kind = stmt.kind
        at = self.at(stmt.id)
        if kind == "assign":
            return f"{self.var(stmt.target)}={self.expr(stmt.value, stmt.id)}"
        if kind == "array_read":
            array = self.expr(stmt.array, stmt.id)
            index = self.expr(stmt.index, stmt.id)
            return f"{self.var(stmt.target)}=_aread(st,{array},{index}{at})"
        if kind == "array_write":
            array = self.expr(stmt.array, stmt.id)
            index = self.expr(stmt.index, stmt.id)
            value = self.expr(stmt.value, stmt.id)
            return f"_awrite(st,{array},{index},{value}{at})"
        if kind == "array_alloc":
            size = self.expr(stmt.size, stmt.id)
            return f"{self.var(stmt.target)}=_alloc(st,{size}{at})"
        if kind == "print":
            return f"_print(st,{self.expr(stmt.value, stmt.id)})"
        if kind == "read_input":
            return f"{self.var(stmt.target)}=_read(st{at})"
        if kind == "assertion":
            cond = self.expr(stmt.cond, stmt.id)
            return f"if not {cond}:raise _Fault({FAULT_ASSERT!r}{at})"
        if kind == "nop":
            return "pass"
        return self.error(f"cannot execute statement kind {kind!r}")

    def call(self, stmt) -> str:
        """Resolve the callee, then evaluate the arguments, left first."""
        args = "".join(f"{self.expr(a, stmt.id)}," for a in stmt.args)
        if stmt.callee_name is not None:
            callee = f"st.functions[{self.const(stmt.callee_name)}]"
        else:
            callee = f"_fn(st.functions,{self.var(stmt.callee_ref)}{self.at(stmt.id)})"
        return f"return {callee},({args})"

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


class _FastLowering(_Lowering):
    """The fast form's source, one IR function at a time: `function`
    returns its text and the site of every line that can stop a run.

    IR function `name` becomes `def f<i>(st, L, d, <parameters>)`, where
    `i` is its position in the program, `L` the step countdown and `d`
    the call depth; a return stores the countdown in `st.L`, and a caller
    reads it back after the call. Variables are `v<k>` in the order the
    function first names them, parameters first. Helpers get no statement
    id: the line they are called from names it. The entry block, when no
    block jumps to it, runs before the dispatch loop.
    """

    def __init__(self, program, guards):
        super().__init__()
        self.guards = guards
        self.names = {name: f"f{i}" for i, name in enumerate(program.functions)}

    def var(self, name: str) -> str:
        local = self.vars.get(name)
        if local is None:
            local = self.vars[name] = f"v{len(self.vars)}"
        return local

    def at(self, stmt_id) -> str:
        return ""

    def emit(self, depth: int, text: str, site=None) -> None:
        self.lines.append(" " * depth + text)
        if site is not None:
            self.sites[len(self.lines)] = site

    def unit(self, name, fn):
        """`(code, sites, consts)` of IR function `name`. Its code comes
        from `_CODE` when another form, or a patched variant, generated the
        same text before."""
        self.consts = {}
        self.prefix = f"_{self.names[name]}c"
        source, sites = self.function(name, fn)
        return _code(source, _FAST_FILE), sites, self.consts

    def function(self, name, fn) -> tuple[str, dict]:
        self.lines: list[str] = []
        self.sites: dict[int, tuple[str, str, int]] = {}
        self.vars: dict[str, str] = {}
        f = self.names[name]
        if fn.external:
            # externals have no body; they yield their return type's default
            default = self.const(_default_for(fn.return_type))
            self.emit(0, f"def {f}(st,L,d,*a):st.L=L;return {default}")
            return self.lines[0] + "\n", self.sites
        params = [p for p, _ in fn.params]
        # a parameter named again later is bound by the later one
        args = ["st", "L", "d"] + [
            f"x{k}" if p in params[k + 1:] else self.var(p) for k, p in enumerate(params)
        ]
        self.emit(0, f"def {f}({','.join(args)}):")
        self.emit(1, f"if d>{_MAX_DEPTH}:raise B")
        defaults = [f"{self.var(v)}={self.const(_default_for(t))}" for v, t in fn.locals.items()]
        if defaults:
            self.emit(1, ";".join(defaults))

        index, target = _targets()
        for bid in fn.blocks:
            target(bid)
        blocks = list(fn.blocks.values())
        heads = list(range(len(blocks)))
        entry = target(fn.entry_block)
        if entry < len(blocks) and all(fn.entry_block not in b.successors for b in blocks):
            # nothing jumps to the entry block: it runs once, before the loop,
            # with no dispatch test and less indentation, a shorter text
            self.block(name, blocks[entry], target, None, 1)
            heads.remove(entry)
        else:
            self.emit(1, f"b={entry}")
        if heads or len(index) > len(blocks):
            self.emit(1, "while 1:")
            for i in heads:
                self.emit(2, f"if b=={i}:")
                self.block(name, blocks[i], target, i, 3)
            for i in range(len(blocks), len(index)):
                # no such block: the checked form raises KeyError
                self.emit(2, f"if b=={i}:raise B")
        return "\n".join(self.lines) + "\n", self.sites

    def block(self, name, block, target, head, depth) -> None:
        """Block `head` of the dispatch loop (None: before the loop) at
        indentation `depth`: its guard, if it has one, then each segment,
        charged in one subtraction."""
        guard = self.guards.get((name, block.id))
        if guard is not None:
            self.emit(depth, f"if {guard} in st.H and _g(st,{guard}):return _ret(st,L,{guard})")
        for stmts, call in _segments(block):
            ids = [s.id for s in stmts] + [call.id if call else _term_id(block)]
            n = len(ids)
            first: dict = {}
            for k, sid in enumerate(ids):
                first.setdefault(sid, k)
            sites = [None if sid is None else (name, sid, first[sid] + 1 - n) for sid in ids]
            self.emit(depth, f"if (L:=L-{n})<0:raise B")
            for stmt, site in zip(stmts, sites):
                self.emit(depth, self.statement(stmt), site)
            if call:
                self.emit(depth, self.call(call), sites[-1])
            else:
                self.emit(depth, self.terminator(block, target, head), sites[-1])

    def call(self, stmt) -> str:
        """The call, then the countdown the callee left in `st.L`."""
        args = ",".join(["st", "L", "d+1"] + [self.expr(a, stmt.id) for a in stmt.args])
        if stmt.callee_name is not None:
            callee = self.names.get(stmt.callee_name)
            if callee is None:
                return "raise B"  # no such function: the checked form raises KeyError
        else:
            callee = f"_fn(F,{self.var(stmt.callee_ref)})"
        call = f"{callee}({args})"
        call = call if stmt.target is None else f"{self.var(stmt.target)}={call}"
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
            text = f"b={then} if {self.expr(term.cond, term.id)} else {else_}"
            back = head is not None and then <= head and else_ <= head
            return text + ";continue" if back else text
        if isinstance(term, Return):
            value = "None" if term.value is None else self.expr(term.value, term.id)
            return f"st.L=L;return {value}"
        # a halt ends the whole run, and a missing terminator raises IRError:
        # both are the checked form's
        return "raise B"


def _term_id(block):
    """The statement id of a block's terminator step: a branch's or
    return's, or None for a jump, a halt and a missing terminator."""
    term = block.terminator
    return term.id if isinstance(term, (Branch, Return)) else None


# ---------------------------------------------------------------------------
# Helpers the generated code calls
# ---------------------------------------------------------------------------


def _div(left, right, remainder, at=None):
    """`left / right`, or `left % right` with `remainder`, as C computes
    them; a zero divisor is a fault at statement `at`."""
    if right == 0:
        raise _Fault(FAULT_DIV_ZERO, at)
    # C-style: quotient truncates toward zero, remainder matches
    q = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        q = -q
    return left - q * right if remainder else q


def _mul(left, right, at=None):
    """`left * right`; a product of magnitude `PRODUCT_LIMIT` or more ends
    the run at statement `at` with status timeout."""
    product = left * right
    if -PRODUCT_LIMIT < product < PRODUCT_LIMIT:
        return product
    raise _Timeout(at)


def _aread(st, ref, i, at=None):
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF, at)
    cells = st.heap[ref]
    if i < 0 or i >= len(cells):
        raise _Fault(FAULT_OOB, at)
    return cells[i]


def _awrite(st, ref, i, value, at=None):
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF, at)
    cells = st.heap[ref]
    if i < 0 or i >= len(cells):
        raise _Fault(FAULT_OOB, at)
    cells[i] = value


def _alloc(st, size, at=None):
    if size < 0:
        raise _Fault(FAULT_OOB, at)
    if st.heap_cells + size > st.max_heap_cells:
        raise _Timeout(at)
    st.heap.append([0] * size)
    st.heap_cells += size
    return len(st.heap) - 1


def _read(st, at=None):
    value = next(st.inputs, _NO_INPUT)
    if value is _NO_INPUT:
        raise _InputExhausted(at)
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
    error value (`_Bail` for one that is no constant)."""
    if left < 1:
        raise _Bail
    st.L = left - 1
    return _constant(st.E[j])


def _fn(functions, ref, at=None):
    """The callee of a call through `ref`, from `functions`."""
    if ref is None:
        raise _Fault(FAULT_NIL_DEREF, at)
    return functions[ref.name]


def _print(st, value):
    st.output.append(int(value))


def _ir_error(message, *_operands):
    raise IRError(message)


_HELPERS = {
    "_Fault": _Fault,
    "_div": _div,
    "_mul": _mul,
    "_aread": _aread,
    "_awrite": _awrite,
    "_alloc": _alloc,
    "_read": _read,
    "_fn": _fn,
    "_g": _g,
    "_ret": _ret,
    "_print": _print,
    "_ir_error": _ir_error,
    "B": _Bail,
}
