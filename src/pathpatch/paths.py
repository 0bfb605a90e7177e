"""Vulnerable-path analysis: call chains and the program path graph.

Given a vulnerability location, the path graph captures every way execution
can get there from the program entry:

  - call chains: acyclic caller sequences entry -> ... -> vulnerable
    function, found by reachability over the call graph (indirect calls
    included);
  - per chain frame: the sub-DAG of blocks lying on some acyclic path from
    the frame's entry block to its target (the next call site, or the
    vulnerable statement's block);
  - per frame target: the conditionals it transitively depends on.

A frame, meaning a (function, call site) pair, has the same DAG and
governing conditionals on every chain that reaches it (a context-independent
procedure summary, as in Sharir & Pnueli, "Two approaches to interprocedural
data flow analysis", 1981). So the path graph holds each distinct frame
once, as one `FramePaths`, and the frame graph: which frames follow each
frame on some chain. The chains themselves are never listed. Per-function
facts, the forward edges and the control dependences, are computed once per
function, and a frame's DAG once per frame. The CLI builds the path graph
once per run and hands it to every phase.

When the call subgraph between the entry and the vulnerable function is
acyclic, one depth-first pass over it meets the frames in the order the
chains first reach them, and the chain count, path count and levels are
sums, products and minima over the frames (`chain_facts`). Recursion
makes them #P-hard to count (Valiant, 1979), and a chain dropped for an
unreachable frame target is noted by name; in those cases alone the chains
are walked one at a time (`walk_chains`), never kept in a list, under the
fixed budget WALK_BUDGET, past which the analysis stops with
`ChainBudgetError`.

Paths are acyclic: back edges (dominated targets) never extend a path, but
loop-header conditionals on a path keep their conditional label. Paths are
kept as DAGs: they are counted per frame, numbered by Ball–Larus
increments, and listed only by `enumerate_paths`, under a cap.

What the analysis drops or degrades is returned as data, never raised: the
path graph's `diagnostics` lists, in the order the chains meet them, each
function's edges cut from an irreducible cycle and blocks that cannot reach
an exit (once per function), and each chain dropped because a frame target
is unreachable.
"""

from __future__ import annotations

import itertools

from .analysis import (
    AnalysisError,
    CallGraph,
    back_edges,
    build_call_graph,
    compute_control_dependencies,
    compute_postdominators,
    reachable,
)
from .ir import Branch, IRProgram, Return, block_sort_key
from .record import Record

DEFAULT_ENUMERATION_CAP = 10_000


class PathEnumerationError(AnalysisError):
    """Raised when explicit enumeration would exceed the configured cap."""


class Exploit(Record):
    input: tuple[int, ...]
    kind: str | None = None
    statement: str | None = None  # the vulnerable statement, once anchored


class VulnerabilitySpec(Record):
    function: str
    statement: str
    exploit: Exploit | None = None


class Frame(Record):
    function: str
    call_site: str | None  # statement calling the next frame; None on the last


class CallChain(Record):
    frames: tuple[Frame, ...]

    @property
    def functions(self) -> tuple[str, ...]:
        return tuple(f.function for f in self.frames)


class PathDag(Record):
    """Blocks and edges lying on some acyclic source -> target path."""

    function: str
    source: str
    target: str
    blocks: tuple[str, ...]
    edges: tuple[tuple[str, str, int | None], ...]

    def __post_init__(self):
        # not a field: block -> its (successor, edge) pairs in `edges` order
        successors: dict[str, list[tuple[str, int | None]]] = {}
        for src, dst, idx in self.edges:
            successors.setdefault(src, []).append((dst, idx))
        object.__setattr__(
            self, "_successors", {b: tuple(s) for b, s in successors.items()}
        )

    @property
    def empty(self) -> bool:
        return not self.blocks

    def successors(self, block: str) -> tuple[tuple[str, int | None], ...]:
        return self._successors.get(block, ())


class FramePaths(Record):
    frame: Frame
    target_statement: str
    dag: PathDag
    conditional: frozenset[str]
    # conditionals the target block transitively depends on: (block, edge)
    governing: tuple[tuple[str, int], ...]


class ChainPaths(Record):
    chain: CallChain
    frames: tuple[FramePaths, ...]


class ProgramPathGraph(Record):
    vulnerability: VulnerabilitySpec
    vulnerable_block: str | None
    # each distinct frame once, in the order the call chains first reach it
    frames: tuple[FramePaths, ...]
    # per frame, the ids (indices into `frames`) of the frames that follow
    # it on some chain, in the chain search's order: by function, then
    # call site
    following: tuple[tuple[int, ...], ...]
    diagnostics: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.frames

    def chain_ids(self):
        """The call chains in order, as tuples of frame ids, generated one
        at a time: every walk from an entry frame (one that no `following`
        names, in id order) along `following` that repeats no function and
        ends at the vulnerable frame. Raises `ChainBudgetError` past
        `WALK_BUDGET` steps."""
        functions = [fp.frame.function for fp in self.frames]
        return walk_chains(_entry_frames(self.following), self.following, functions)

    @property
    def chains(self) -> tuple[ChainPaths, ...]:
        """Every call chain with its frames, listed on first use and then
        kept. Nothing on the CLI's path reads it: it serves the test oracles
        and the benchmark's tracer (`perfbench/tracer.py`), which counts
        chains and frame occurrences from it, until the tracer reads
        counters instead."""
        chains = self.__dict__.get("_chains")
        if chains is None:
            chains = tuple(
                ChainPaths(
                    chain=CallChain(frames=tuple(self.frames[i].frame for i in ids)),
                    frames=tuple(self.frames[i] for i in ids),
                )
                for ids in self.chain_ids()
            )
            object.__setattr__(self, "_chains", chains)
        return chains


class ChainFacts(Record):
    """What the call chains of a path graph add up to."""

    chains: int  # how many there are
    levels: dict[str, int]  # function -> its smallest distance in frames
    longest: int  # frames on the longest chain
    paths: int  # maximal paths: per chain, the product of its frames' paths


def resolve_vulnerability(program: IRProgram, function: str, statement: str | None = None,
                          line: int | None = None, exploit: Exploit | None = None) -> VulnerabilitySpec:
    """Normalize a vulnerability given as statement id, source line, or
    function only (which defaults to the function's first statement)."""
    fn = program.function(function)
    if fn.external:
        raise AnalysisError(f"{function} is external and cannot be patched")
    if statement is not None:
        index = program.statement_index()
        owner = index.get(statement)
        if owner is None or owner[0] != function:
            raise AnalysisError(f"statement {statement!r} is not in {function}")
        return VulnerabilitySpec(function, statement, exploit)
    if line is not None:
        # a plain statement on the line wins; a line with none, such as a
        # `return` or an `if` or `while` condition, anchors on its branch
        # or return terminator
        plain = [stmt.id for blk in fn.blocks.values() for stmt in blk.statements]
        ends = [
            blk.terminator.id
            for blk in fn.blocks.values()
            if isinstance(blk.terminator, (Branch, Return))
        ]
        source_map = program.source_map
        for ids in (plain, ends):
            on_line = [sid for sid in ids if source_map.get(sid, (None, None))[1] == line]
            if on_line:
                best = min(on_line, key=lambda sid: (len(sid), sid))
                return VulnerabilitySpec(function, best, exploit)
        raise AnalysisError(f"no statement of {function} is on line {line}")
    # function-only: first statement, walking from the entry block; a
    # function with no plain statements anchors on a terminator instead
    seen = set()
    frontier = [fn.entry_block]
    while frontier:
        bid = frontier.pop(0)
        if bid in seen:
            continue
        seen.add(bid)
        blk = fn.blocks[bid]
        if blk.statements:
            return VulnerabilitySpec(function, blk.statements[0].id, exploit)
        frontier.extend(blk.successors)
    entry_term = fn.blocks[fn.entry_block].terminator
    term_id = getattr(entry_term, "id", None)
    if term_id is not None:
        return VulnerabilitySpec(function, term_id, exploit)
    raise AnalysisError(f"{function} has no statements to anchor the vulnerability")


# ---------------------------------------------------------------------------
# Call chains and the frames on them
# ---------------------------------------------------------------------------

# Steps that one walk of the call chains, one chain at a time, may take: one
# per call edge tried and one per frame of each chain given. Only recursion,
# a dropped chain or a frame with candidate notes needs such a walk;
# everything else is computed over the frames.
WALK_BUDGET = 1 << 20


class ChainBudgetError(AnalysisError):
    """Raised when walking the call chains one by one exceeds WALK_BUDGET."""


def walk_chains(starts, successors, functions):
    """Every walk from a node of `starts`, in order, along `successors` (per
    node, in their order) that repeats no function (`functions[node]`) and
    ends at a node with no successors, as a tuple of nodes, generated one at
    a time. The walk keeps an explicit stack, so chain depth is not bounded
    by Python's recursion limit; it raises ChainBudgetError after
    WALK_BUDGET steps."""
    steps = 0
    for start in starts:
        if not successors[start]:
            yield (start,)
            continue
        walk, on_walk = [start], {functions[start]}
        stack = [iter(successors[start])]
        while stack:
            for node in stack[-1]:
                steps += 1
                if steps > WALK_BUDGET:
                    raise ChainBudgetError(
                        f"walking the call chains one by one, as recursion, a "
                        f"dropped chain or a repeated candidate note needs, takes "
                        f"more than {WALK_BUDGET} steps"
                    )
                if functions[node] in on_walk:
                    continue
                if not successors[node]:
                    steps += len(walk)  # and one per frame of each chain given
                    yield (*walk, node)
                    continue
                walk.append(node)
                on_walk.add(functions[node])
                stack.append(iter(successors[node]))
                break
            else:
                stack.pop()
                on_walk.discard(functions[walk.pop()])


def _entry_frames(following) -> list[int]:
    """The frames that no frame's `following` names, in id order."""
    named = {i for after in following for i in after}
    return [i for i in range(len(following)) if i not in named]


def _call_frames(cg: CallGraph, vuln_fn: str, entry: str):
    """The frames a call chain entry -> ... -> vuln_fn can pass: each call
    site, of a function the entry reaches, that calls a function which can
    still reach vuln_fn, and vuln_fn's own frame, where chains stop.

    Returns (frames, successors, starts): per frame, the frames that can
    follow it, in the chain search's order (by callee, then the callee's
    call site, the order in which `build_call_graph` sorts each caller's
    edges); and the entry's frames, none when the entry cannot reach
    vuln_fn.
    """
    can_reach = reachable((vuln_fn,), lambda f: (e.caller for e in cg.callers_of(f)))
    if entry not in can_reach:
        return [], [], []
    frames = [Frame(vuln_fn, None)]
    callees: list[list[str]] = [[]]  # per frame, the functions its site calls
    own = {vuln_fn: [0]}  # function -> its frames
    pending = [entry]
    while pending:
        function = pending.pop()
        if function in own:
            continue
        ids = own[function] = []
        for edge in cg.callees_of(function):
            if edge.callee in can_reach:
                if not ids or frames[ids[-1]].call_site != edge.call_site:
                    ids.append(len(frames))
                    frames.append(Frame(function, edge.call_site))
                    callees.append([])
                callees[ids[-1]].append(edge.callee)
                pending.append(edge.callee)
    successors = [tuple(i for g in gs for i in own[g]) for gs in callees]
    return frames, successors, own[entry]


def _callees_first(functions, successors) -> list[int] | None:
    """The nodes of a frame graph, each after all nodes that follow it,
    from a topological order of the graph projected onto functions (Kahn's
    algorithm); None when that projection has a cycle, so that a walk along
    `successors` could repeat a function."""
    calls: dict[str, set[str]] = {f: set() for f in functions}
    for node, after in enumerate(successors):
        calls[functions[node]].update(functions[i] for i in after)
    callers: dict[str, list[str]] = {f: [] for f in calls}
    for function, called in calls.items():
        for callee in called:
            callers[callee].append(function)
    left = {f: len(called) for f, called in calls.items()}
    order = [f for f, n in left.items() if not n]
    for function in order:
        for caller in callers[function]:
            left[caller] -= 1
            if not left[caller]:
                order.append(caller)
    if len(order) < len(calls):
        return None
    rank = {f: r for r, f in enumerate(order)}
    return sorted(range(len(functions)), key=lambda node: rank[functions[node]])


# ---------------------------------------------------------------------------
# Intraprocedural path DAGs
# ---------------------------------------------------------------------------


def _forward_edges(fn, diagnostics: list[str]) -> list[tuple[str, str, int | None]]:
    """CFG edges minus back edges; cycles left by irreducible inputs are cut
    greedily in depth-first order (never happens for lowered programs), and
    a note naming the cut edges is appended to `diagnostics`."""
    from .ir import Branch, Jump

    backs = back_edges(fn)
    edges = []
    for bid, blk in fn.blocks.items():
        term = blk.terminator
        if isinstance(term, Jump):
            candidates = [(bid, term.target, None)]
        elif isinstance(term, Branch):
            candidates = [(bid, term.then_target, 0), (bid, term.else_target, 1)]
        else:
            candidates = []
        for src, dst, idx in candidates:
            if (src, dst) not in backs:
                edges.append((src, dst, idx))

    # Cycle check; cut residual cycles deterministically if any remain.
    succ: dict[str, list[str]] = {}
    for src, dst, _ in edges:
        succ.setdefault(src, []).append(dst)
    color: dict[str, int] = {}  # absent: unvisited, 1: on the DFS stack, 2: done
    cuts: set[tuple[str, str]] = set()
    for root in sorted(fn.blocks, key=block_sort_key):
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(succ.get(root, ())))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                state = color.get(nxt)
                if state == 1:
                    cuts.add((node, nxt))
                elif state is None:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                color[node] = 2
                stack.pop()
    if cuts:
        diagnostics.append(f"{fn.id}: irreducible cycle; cut edges {sorted(cuts)}")
        edges = [e for e in edges if (e[0], e[1]) not in cuts]
    return edges


def intraprocedural_paths(fn, source: str, target: str, edges=None) -> PathDag:
    """Sub-DAG of blocks/edges on some acyclic source -> target path.

    `edges` takes the function's forward edges when the caller already has
    them; by default they are computed here, and a note about cut irreducible
    edges is dropped (`build_program_path_graph` records it).
    """
    if edges is None:
        edges = _forward_edges(fn, [])
    succ: dict[str, list[str]] = {bid: [] for bid in fn.blocks}
    pred: dict[str, list[str]] = {bid: [] for bid in fn.blocks}
    for src, dst, _ in edges:
        succ[src].append(dst)
        pred[dst].append(src)
    members = reachable((source,), succ.__getitem__)
    members &= reachable((target,), pred.__getitem__)
    if target not in members or source not in members:
        return PathDag(fn.id, source, target, (), ())
    kept = tuple(
        (src, dst, idx) for src, dst, idx in edges if src in members and dst in members
    )
    ordered = tuple(sorted(members, key=block_sort_key))
    return PathDag(fn.id, source, target, ordered, kept)


# ---------------------------------------------------------------------------
# Program path graph
# ---------------------------------------------------------------------------


def build_program_path_graph(
    program: IRProgram, vuln: VulnerabilitySpec
) -> ProgramPathGraph:
    call_graph = build_call_graph(program)
    index = program.statement_index()
    if vuln.statement not in index:
        raise AnalysisError(f"unknown vulnerable statement {vuln.statement!r}")
    vuln_fn, vuln_block = index[vuln.statement]
    if vuln_fn != vuln.function:
        raise AnalysisError(
            f"statement {vuln.statement!r} is in {vuln_fn}, not {vuln.function}"
        )

    diagnostics: list[str] = []
    nodes, successors, starts = _call_frames(call_graph, vuln.function, program.entry)
    if not starts:
        diagnostics.append(
            f"unreachable vulnerability: no call chain from {program.entry} "
            f"to {vuln.function}"
        )
    targets = [vuln.statement if f.call_site is None else f.call_site for f in nodes]
    forward: dict[str, list] = {}  # function -> forward edges
    cdgs: dict[str, object] = {}  # function -> control-dependence graph
    shared: dict[int, FramePaths | None] = {}  # one per frame, met in chain order

    def meet(node: int) -> FramePaths | None:
        """The frame's paths, or None when its target is unreachable."""
        if node in shared:
            return shared[node]
        frame = nodes[node]
        fn = program.function(frame.function)
        if fn.id not in forward:
            forward[fn.id] = _forward_edges(fn, diagnostics)
        target_block = index[targets[node]][1]
        dag = intraprocedural_paths(fn, fn.entry_block, target_block, forward[fn.id])
        found = None
        if not dag.empty:
            if fn.id not in cdgs:
                pdoms = compute_postdominators(fn)
                diagnostics.extend(pdoms.warnings)
                cdgs[fn.id] = compute_control_dependencies(fn, pdoms)
            found = FramePaths(
                frame=frame,
                target_statement=targets[node],
                dag=dag,
                conditional=frozenset(b for b in dag.blocks if fn.blocks[b].is_conditional),
                governing=cdgs[fn.id].transitive_governors(target_block),
            )
        shared[node] = found
        return found

    functions = [f.function for f in nodes]
    graph = None
    if _callees_first(functions, successors) is not None:
        graph = _frames_in_preorder(starts, successors, meet)
    if graph is None:  # recursion, or a frame whose chains are dropped
        graph = _frames_by_walk(
            starts, successors, functions, targets, meet, diagnostics
        )
    frames, following = graph
    if starts and not frames:
        diagnostics.append("unreachable vulnerability: all chains dropped")

    order = lambda i: (frames[i].frame.function, frames[i].frame.call_site or "")
    return ProgramPathGraph(
        vulnerability=vuln,
        vulnerable_block=vuln_block,
        frames=tuple(frames),
        following=tuple(tuple(sorted(after, key=order)) for after in following),
        diagnostics=tuple(diagnostics),
    )


def _frames_in_preorder(starts, successors, meet):
    """(frames, following) of an acyclic call subgraph, from one
    depth-first pass that meets each frame once, in preorder. With no
    function repeatable, every walk is a chain, and the preorder is the
    order in which the chains, listed in order, first reach the frames.
    None as soon as a frame's target is unreachable: the chains through
    it are then dropped, and noted, one by one."""
    ids: dict[int, int] = {}  # node -> frame id
    frames = []
    stack = starts[::-1]
    while stack:
        node = stack.pop()
        if node not in ids:
            found = meet(node)
            if found is None:
                return None
            ids[node] = len(frames)
            frames.append(found)
            stack.extend(reversed(successors[node]))
    return frames, [[ids[n] for n in successors[node]] for node in ids]


def _frames_by_walk(starts, successors, functions, targets, meet, diagnostics):
    """(frames, following) from walking the chains one by one: the frames
    of the complete chains, in the order the chains first reach them. A
    chain through a frame whose target is unreachable is dropped, with a
    note naming it."""
    ids: dict[int, int] = {}  # node -> frame id
    frames, following = [], []
    for chain in walk_chains(starts, successors, functions):
        dropped = next((node for node in chain if meet(node) is None), None)
        if dropped is not None:
            diagnostics.append(
                f"{functions[dropped]}: target {targets[dropped]} unreachable from "
                f"entry; chain {'->'.join(functions[n] for n in chain)} dropped"
            )
            continue
        for node in chain:
            if node not in ids:
                ids[node] = len(frames)
                frames.append(meet(node))
                following.append(set())
        for a, b in zip(chain, chain[1:]):
            following[ids[a]].add(ids[b])
    return frames, following


def _frame_paths(dag: PathDag) -> list[tuple[str, ...]]:
    """All source -> target paths of one frame DAG, in edge order."""
    results: list[tuple[str, ...]] = []
    stack = [(dag.source, ())]
    while stack:
        block, acc = stack.pop()
        acc += (block,)
        if block == dag.target:
            results.append(acc)
        else:
            stack.extend((nxt, acc) for nxt, _ in reversed(dag.successors(block)))
    return results


def _paths_to_target(dag: PathDag) -> dict[str, int]:
    """Per block of a non-empty frame DAG, its number of paths to the target."""
    counts = {dag.target: 1}
    stack = [dag.source]
    while stack:
        block = stack[-1]
        if block in counts:
            stack.pop()
            continue
        successors = [nxt for nxt, _ in dag.successors(block)]
        pending = [nxt for nxt in successors if nxt not in counts]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            counts[block] = sum(counts[nxt] for nxt in successors)
    return counts


def count_frame_paths(dag: PathDag) -> int:
    """Number of source -> target paths of one frame DAG."""
    return _paths_to_target(dag)[dag.source] if not dag.empty else 0


def path_increments(dag: PathDag) -> tuple[int, ...]:
    """Ball–Larus path numbering ("Efficient Path Profiling", MICRO 1996):
    per edge of a non-empty `dag.edges`, its increment, the number of paths
    that leave the edge's source by an earlier edge. Along each source ->
    target path the increments add up to the path's index in
    `enumerate_paths` order, an integer in [0, count_frame_paths(dag))."""
    counts = _paths_to_target(dag)
    earlier: dict[str, int] = {}
    increments = []
    for src, dst, _ in dag.edges:
        taken = earlier.get(src, 0)
        increments.append(taken)
        earlier[src] = taken + counts[dst]
    return tuple(increments)


def chain_facts(ppg: ProgramPathGraph) -> ChainFacts:
    """How many chains the path graph has, each function's smallest level
    (its distance in frames from the vulnerable function), the longest
    chain's frames and how many maximal paths there are; computed once per
    path graph.

    A frame's chain suffixes do not depend on the chain that reaches it, so
    when no walk can repeat a function these are sums, products, minima and
    maxima over the frames, callees first. With recursion, counting simple
    paths is #P-complete (Valiant, 1979), and the chains are walked one by
    one under WALK_BUDGET.
    """
    facts = ppg.__dict__.get("_facts")
    if facts is not None:
        return facts
    following = ppg.following
    functions = [fp.frame.function for fp in ppg.frames]
    levels: dict[str, int] = {}
    # per frame its own paths, and then, callees first, those of the chain
    # suffixes from it
    paths = [count_frame_paths(fp.dag) for fp in ppg.frames]
    order = _callees_first(functions, following)
    if order is None:
        chains = longest = total = 0
        for ids in ppg.chain_ids():
            product = 1
            for level, i in enumerate(reversed(ids)):
                levels[functions[i]] = min(level, levels.get(functions[i], level))
                product *= paths[i]
            chains += 1
            longest = max(longest, len(ids))
            total += product
    else:
        # per frame, over the chain suffixes from it: how many, and the
        # fewest and the most frames on one
        suffixes, near, far = ([1] * len(functions) for _ in range(3))
        for i in order:
            after = following[i]
            if after:
                suffixes[i] = sum(suffixes[j] for j in after)
                near[i] = 1 + min(near[j] for j in after)
                far[i] = 1 + max(far[j] for j in after)
                paths[i] *= sum(paths[j] for j in after)
            levels[functions[i]] = min(near[i] - 1, levels.get(functions[i], near[i]))
        starts = _entry_frames(following)
        chains = sum(suffixes[i] for i in starts)
        longest = max((far[i] for i in starts), default=0)
        total = sum(paths[i] for i in starts)
    facts = ChainFacts(chains, levels, longest, total)
    object.__setattr__(ppg, "_facts", facts)
    return facts


def count_paths(ppg: ProgramPathGraph) -> int:
    """Number of maximal entry -> vulnerability paths, without enumeration
    (`ChainFacts.paths`)."""
    return chain_facts(ppg).paths


def enumerate_paths(
    ppg: ProgramPathGraph, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> list[tuple[tuple[str, str], ...]]:
    """Materialize every maximal path as a ((function, block), ...) tuple.

    Raises PathEnumerationError when the count exceeds `cap`; pass cap=None
    to force enumeration regardless.
    """
    total = count_paths(ppg)
    if cap is not None and total > cap:
        raise PathEnumerationError(
            f"{total} maximal paths exceed the cap of {cap}; work with the "
            "path DAG instead of enumerating"
        )
    per_frame: dict[Frame, list[tuple[tuple[str, str], ...]]] = {}
    results: list[tuple[tuple[str, str], ...]] = []
    for chain in ppg.chains:
        for fp in chain.frames:
            if fp.frame not in per_frame:
                per_frame[fp.frame] = [
                    tuple((fp.frame.function, block) for block in path)
                    for path in _frame_paths(fp.dag)
                ]
        parts = itertools.product(*(per_frame[fp.frame] for fp in chain.frames))
        results.extend(tuple(itertools.chain.from_iterable(p)) for p in parts)
    return results
