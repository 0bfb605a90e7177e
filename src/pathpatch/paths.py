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
governing conditionals on every chain that reaches it, so the path graph
builds one `FramePaths` per distinct frame and shares it across chains (a
context-independent procedure summary, as in Sharir & Pnueli, "Two
approaches to interprocedural data flow analysis", 1981). Per-function
facts, the forward edges and the control dependences, are computed once
per function; path counts and path lists once per distinct frame. The CLI
builds the path graph once per run and hands it to every phase.

Paths are acyclic: back edges (dominated targets) never extend a path, but
loop-header conditionals on a path keep their conditional label. Paths are
kept as DAGs and only materialized on request, under a cap.

What the analysis drops or degrades is returned as data, never raised: the
path graph's `diagnostics` lists, in the order the build meets them, each
function's edges cut from an irreducible cycle and blocks that cannot reach
an exit (once per function), and each chain dropped because a frame target
is unreachable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .analysis import (
    AnalysisError,
    CallGraph,
    back_edges,
    build_call_graph,
    compute_control_dependencies,
    compute_postdominators,
)
from .ir import IRProgram, block_sort_key

DEFAULT_ENUMERATION_CAP = 10_000


class PathEnumerationError(AnalysisError):
    """Raised when explicit enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class Exploit:
    input: tuple[int, ...]
    kind: str | None = None
    statement: str | None = None  # the vulnerable statement, once anchored


@dataclass(frozen=True)
class VulnerabilitySpec:
    function: str
    statement: str
    exploit: Exploit | None = None


@dataclass(frozen=True)
class Frame:
    function: str
    call_site: str | None  # statement calling the next frame; None on the last


@dataclass(frozen=True)
class CallChain:
    frames: tuple[Frame, ...]

    @property
    def functions(self) -> tuple[str, ...]:
        return tuple(f.function for f in self.frames)


@dataclass(frozen=True)
class PathDag:
    """Blocks and edges lying on some acyclic source -> target path."""

    function: str
    source: str
    target: str
    blocks: tuple[str, ...]
    edges: tuple[tuple[str, str, int | None], ...]
    # block -> its (successor, edge) pairs in `edges` order; an index built
    # at construction, never compared or printed
    _successors: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
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


@dataclass(frozen=True)
class FramePaths:
    frame: Frame
    target_statement: str
    dag: PathDag
    conditional: frozenset[str]
    # conditionals the target block transitively depends on: (block, edge)
    governing: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ChainPaths:
    chain: CallChain
    frames: tuple[FramePaths, ...]


@dataclass(frozen=True)
class ProgramPathGraph:
    vulnerability: VulnerabilitySpec
    vulnerable_block: str | None
    chains: tuple[ChainPaths, ...]
    diagnostics: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.chains


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
        natural = lambda sid: (len(sid), sid)
        best = None
        for blk in fn.blocks.values():
            for stmt in blk.statements:
                loc = program.source_map.get(stmt.id)
                if loc is not None and loc[1] == line:
                    if best is None or natural(stmt.id) < natural(best):
                        best = stmt.id
        if best is None:
            raise AnalysisError(f"no statement of {function} is on line {line}")
        return VulnerabilitySpec(function, best, exploit)
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
# Call chains
# ---------------------------------------------------------------------------


def find_call_chains(cg: CallGraph, vuln_fn: str, entry: str) -> list[CallChain]:
    """All acyclic chains entry -> ... -> vuln_fn over the call graph.

    A chain stops on first reaching the vulnerable function, and no function
    repeats within a chain, so recursion contributes one frame. Order is
    lexicographic by (call site, callee) at every step, the order in which
    `build_call_graph` sorts each caller's edges. The depth-first walk keeps
    an explicit stack, so chain depth is not bounded by Python's recursion
    limit.
    """
    if vuln_fn == entry:
        return [CallChain(frames=(Frame(entry, None),))]

    # Restrict the walk to functions that can still reach vuln_fn.
    can_reach = {vuln_fn}
    frontier = [vuln_fn]
    while frontier:
        for edge in cg.callers_of(frontier.pop()):
            if edge.caller not in can_reach:
                can_reach.add(edge.caller)
                frontier.append(edge.caller)
    if entry not in can_reach:
        return []

    chains: list[CallChain] = []
    on_stack = {entry}
    # items are (function, its callee edges still to try, frames above it)
    stack = [(entry, iter(cg.callees_of(entry)), ())]
    while stack:
        function, pending, frames = stack[-1]
        for edge in pending:
            if edge.callee in on_stack or edge.callee not in can_reach:
                continue
            step = frames + (Frame(function, edge.call_site),)
            if edge.callee == vuln_fn:
                chains.append(CallChain(frames=step + (Frame(vuln_fn, None),)))
            else:
                on_stack.add(edge.callee)
                stack.append((edge.callee, iter(cg.callees_of(edge.callee)), step))
                break
        else:
            on_stack.discard(function)
            stack.pop()
    return chains


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
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for src, dst, _ in edges:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)

    def reach(start: str, neigh: dict[str, list[str]]) -> set[str]:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in neigh.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    from_source = reach(source, succ)
    to_target = reach(target, pred)
    members = from_source & to_target
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
    chains = find_call_chains(call_graph, vuln.function, program.entry)
    if not chains:
        diagnostics.append(
            f"unreachable vulnerability: no call chain from {program.entry} "
            f"to {vuln.function}"
        )

    forward: dict[str, list] = {}  # function -> forward edges
    cdgs: dict[str, object] = {}  # function -> control-dependence graph

    def frame_paths(frame: Frame, target_stmt: str) -> FramePaths | None:
        """The frame's paths, or None when its target is unreachable."""
        fn = program.function(frame.function)
        if fn.id not in forward:
            forward[fn.id] = _forward_edges(fn, diagnostics)
        target_block = index[target_stmt][1]
        dag = intraprocedural_paths(fn, fn.entry_block, target_block, forward[fn.id])
        if dag.empty:
            return None
        if fn.id not in cdgs:
            pdoms = compute_postdominators(fn)
            diagnostics.extend(pdoms.warnings)
            cdgs[fn.id] = compute_control_dependencies(fn, pdoms)
        return FramePaths(
            frame=frame,
            target_statement=target_stmt,
            dag=dag,
            conditional=frozenset(b for b in dag.blocks if fn.blocks[b].is_conditional),
            governing=cdgs[fn.id].transitive_governors(target_block),
        )

    # one FramePaths per distinct frame, shared by every chain through it
    shared: dict[Frame, FramePaths | None] = {}
    chain_paths: list[ChainPaths] = []
    for chain in chains:
        frames: list[FramePaths] = []
        for frame in chain.frames:
            target_stmt = vuln.statement if frame.call_site is None else frame.call_site
            if frame not in shared:
                shared[frame] = frame_paths(frame, target_stmt)
            if shared[frame] is None:
                diagnostics.append(
                    f"{frame.function}: target {target_stmt} unreachable from "
                    f"entry; chain {'->'.join(chain.functions)} dropped"
                )
                break
            frames.append(shared[frame])
        else:
            chain_paths.append(ChainPaths(chain=chain, frames=tuple(frames)))

    if chains and not chain_paths:
        diagnostics.append("unreachable vulnerability: all chains dropped")

    return ProgramPathGraph(
        vulnerability=vuln,
        vulnerable_block=vuln_block,
        chains=tuple(chain_paths),
        diagnostics=tuple(diagnostics),
    )


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


def count_frame_paths(dag: PathDag) -> int:
    """Number of source -> target paths of one frame DAG."""
    if dag.empty:
        return 0
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
    return counts[dag.source]


def count_paths(ppg: ProgramPathGraph) -> int:
    """Number of maximal entry -> vulnerability paths, without enumeration."""
    per_frame: dict[Frame, int] = {}
    total = 0
    for chain in ppg.chains:
        product = 1
        for fp in chain.frames:
            if fp.frame not in per_frame:
                per_frame[fp.frame] = count_frame_paths(fp.dag)
            product *= per_frame[fp.frame]
        total += product
    return total


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
