"""Shared test machinery: CFG builders, random generators, and the
brute-force oracles the analyses are checked against.

The oracles deliberately avoid the production algorithms: postdominance is
derived from exhaustive simple-path enumeration, and the dominator trees
from per-block set fixpoints (`reference_postdominators`,
`reference_back_edges`); interprocedural paths from a direct depth-first
search with a no-repeat cutoff, the call chains from listing every one
(`find_call_chains`), the path graph from a frame-by-frame build along
every chain (`reference_path_graph`), its document from writing
every chain's frames out in full (`reference_path_graph_document`, the
`path-graph@1` schema, which `expand_path_graph_document` rebuilds from a
`path-graph@3` document by walking `next` and decoding every path number),
candidates from a recursive walk of every frame occurrence
(`reference_candidate_locations`), execution from a plain
tree-walking interpreter (`reference_run`), and patch evaluation from
running every case on every patched program
(`reference_evaluate_patches`, with `run_test_suite` and `check_exploit`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from pathpatch.analysis import (
    EXIT,
    CallGraph,
    PostDominators,
    build_call_graph,
    compute_control_dependencies,
    compute_postdominators,
)
from pathpatch.ir import (
    BOOL,
    INT,
    BasicBlock,
    Binary,
    BoolConst,
    Branch,
    Call,
    FuncRef,
    Halt,
    IntConst,
    IRError,
    IRFunction,
    IRProgram,
    Jump,
    NilConst,
    Nop,
    Opaque,
    Return,
    Unary,
    Var,
    block_sort_key,
)
from pathpatch.harness import (
    CaseVerdict,
    Limits,
    PatchEvaluation,
    SuiteError,
    TestSuite,
    _blocked,
    _run,
    _verdict,
)
from pathpatch.locate import CandidatePatchLocation
from pathpatch.minilang import parse
from pathpatch.minilang.interp import (
    DEFAULT_MAX_HEAP_CELLS,
    DEFAULT_MAX_STEPS,
    FAULT_ASSERT,
    FAULT_DIV_ZERO,
    FAULT_NIL_DEREF,
    FAULT_OOB,
    STATUS_FAULT,
    STATUS_INPUT_EXHAUSTED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionResult,
    FnVal,
)
from pathpatch.paths import (
    CallChain,
    ChainPaths,
    Frame,
    FramePaths,
    ProgramPathGraph,
    count_paths,
    enumerate_paths,
    intraprocedural_paths,
    resolve_vulnerability,
)
from pathpatch.synth import Patch, apply_patch

# ---------------------------------------------------------------------------
# Abstract CFG construction
# ---------------------------------------------------------------------------


def make_function(succs: dict[str, list[str]], entry: str, name: str = "f") -> IRFunction:
    """Build an analysis-only function from a successor map.

    0 successors -> return, 1 -> jump, 2 -> branch (in list order).
    """
    blocks = {}
    counter = itertools.count()
    for bid, outs in succs.items():
        statements = (Nop(id=f"{name}:{bid}:s{next(counter)}"),)
        if len(outs) == 0:
            term = Return(id=f"{name}:{bid}:ret", value=IntConst(0))
        elif len(outs) == 1:
            term = Jump(outs[0])
        elif len(outs) == 2:
            term = Branch(
                id=f"{name}:{bid}:br",
                cond=Opaque(),
                then_target=outs[0],
                else_target=outs[1],
            )
        else:
            raise ValueError("blocks have at most two successors")
        blocks[bid] = BasicBlock(id=bid, statements=statements, terminator=term)
    return IRFunction(
        id=name,
        params=(),
        return_type=INT,
        blocks=blocks,
        entry_block=entry,
    )


def random_cfg(rng: random.Random, max_blocks: int = 10) -> IRFunction:
    """Random CFG where every block is entry-reachable and reaches an exit.

    Cycles (including self-loops) are allowed through the extra-edge step,
    which is what lowered loops and graph imports produce.
    """
    while True:
        fn = _try_random_cfg(rng, rng.randint(1, max_blocks))
        if fn is not None:
            return fn


def _try_random_cfg(rng: random.Random, n: int) -> IRFunction | None:
    returns = {n - 1}
    for i in range(1, n - 1):
        if rng.random() < 0.15:
            returns.add(i)
    if n == 1:
        returns = {0}
    succs: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n - 1):
        if i in returns:
            continue
        succs[i].append(rng.randrange(i + 1, n))  # guarantees an exit path
    incoming = {i: False for i in range(n)}
    for outs in succs.values():
        for t in outs:
            incoming[t] = True
    for j in range(1, n):
        if incoming[j]:
            continue
        candidates = [i for i in range(j) if i not in returns and len(succs[i]) < 2]
        if not candidates:
            return None  # dead configuration; resample
        succs[rng.choice(candidates)].append(j)
        incoming[j] = True
    for i in range(n):
        if i in returns:
            continue
        while len(succs[i]) < 2 and rng.random() < 0.35:
            succs[i].append(rng.randrange(n))
    return make_function(
        {f"n{i}": [f"n{t}" for t in outs] for i, outs in succs.items()},
        entry="n0",
    )


# ---------------------------------------------------------------------------
# Brute-force postdominance and control dependence
# ---------------------------------------------------------------------------


def successor_map(fn: IRFunction) -> dict[str, tuple[str, ...]]:
    return {bid: blk.successors for bid, blk in fn.blocks.items()}


def simple_paths_to_exit(succs: dict[str, tuple[str, ...]], start: str) -> list[tuple]:
    """Every simple path from start to the synthetic exit."""
    paths: list[tuple] = []

    def dfs(node: str, visited: frozenset, acc: tuple):
        outs = succs[node]
        if not outs:
            paths.append(acc + (node, EXIT))
            return
        for nxt in outs:
            if nxt not in visited:
                dfs(nxt, visited | {nxt}, acc + (node,))

    dfs(start, frozenset({start}), ())
    return paths


def bf_postdominator_sets(fn: IRFunction) -> dict[str, frozenset]:
    """pdom(X) = nodes on every simple path X -> exit (reflexive, with EXIT)."""
    succs = successor_map(fn)
    result = {}
    for bid in fn.blocks:
        paths = simple_paths_to_exit(succs, bid)
        if not paths:
            result[bid] = frozenset({bid, EXIT})
            continue
        common = frozenset(paths[0])
        for path in paths[1:]:
            common &= frozenset(path)
        result[bid] = common
    return result


def bf_control_deps(fn: IRFunction) -> set[tuple[str, str, int]]:
    """(governed, governor, edge) triples straight from the definition."""
    pdom = bf_postdominator_sets(fn)
    deps = set()
    for bid, blk in fn.blocks.items():
        if not blk.is_conditional:
            continue
        for k, succ in enumerate(blk.successors):
            for candidate in fn.blocks:
                if candidate in pdom[succ] and candidate not in pdom[bid]:
                    deps.add((candidate, bid, k))
    return deps


def random_wild_cfg(rng: random.Random, max_blocks: int = 9) -> IRFunction:
    """Random CFG with any successors: blocks the entry cannot reach, blocks
    that cannot reach an exit, and irreducible cycles all occur."""
    n = rng.randint(1, max_blocks)
    return make_function(
        {
            f"n{i}": [f"n{rng.randrange(n)}" for _ in range(rng.choice((0, 1, 1, 2, 2)))]
            for i in range(n)
        },
        entry="n0",
    )


# ---------------------------------------------------------------------------
# Set-based dominance: the per-block set fixpoints, as the reference for the
# dominator trees
# ---------------------------------------------------------------------------


def reference_postdominators(fn: IRFunction) -> PostDominators:
    """Postdominator sets iterated to a fixpoint on the reversed CFG, then
    each block's immediate postdominator picked from its set; blocks that
    cannot reach an exit are attached to it with a note."""
    succs = successor_map(fn)
    exit_blocks = [bid for bid, blk in fn.blocks.items() if not blk.successors]
    preds: dict[str, list[str]] = {bid: [] for bid in fn.blocks}
    for bid, outs in succs.items():
        for target in outs:
            preds[target].append(bid)
    reaching: set[str] = set(exit_blocks)
    stack = list(exit_blocks)
    while stack:
        for p in preds[stack.pop()]:
            if p not in reaching:
                reaching.add(p)
                stack.append(p)

    pdom: dict[str, set[str]] = {bid: reaching | {EXIT} for bid in reaching}
    pdom[EXIT] = {EXIT}
    changed = True
    while changed:
        changed = False
        for bid in sorted(reaching, key=block_sort_key, reverse=True):
            outs = [s for s in succs[bid] if s in reaching] or [EXIT]
            new = {bid} | set.intersection(*(pdom[s] for s in outs))
            if new != pdom[bid]:
                pdom[bid] = new
                changed = True

    ipdom: dict[str, str] = {}
    warns: list[str] = []
    for bid in fn.blocks:
        if bid not in reaching:
            ipdom[bid] = EXIT
            warns.append(f"{fn.id}:{bid} cannot reach any exit; attached to exit")
            continue
        # the strict postdominator farthest from the exit: the one with
        # the largest postdominator set of its own
        ipdom[bid] = max(
            pdom[bid] - {bid},
            key=lambda p: (len(pdom[p]) if p != EXIT else 1, block_sort_key(p)),
        )
    return PostDominators(ipdom=ipdom, warnings=tuple(warns))


def reference_back_edges(fn: IRFunction) -> frozenset[tuple[str, str]]:
    """Edges u→v where v is in u's dominator set, the sets iterated to a
    fixpoint over the blocks the entry reaches."""
    entry = fn.entry_block
    succs = successor_map(fn)
    reachable = {entry}
    stack = [entry]
    while stack:
        for s in succs[stack.pop()]:
            if s not in reachable:
                reachable.add(s)
                stack.append(s)
    preds: dict[str, list[str]] = {bid: [] for bid in reachable}
    for bid in reachable:
        for s in succs[bid]:
            preds[s].append(bid)
    dom = {bid: set(reachable) for bid in reachable}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for bid in sorted(reachable - {entry}, key=block_sort_key):
            new = {bid} | set.intersection(*(dom[p] for p in preds[bid]))
            if new != dom[bid]:
                dom[bid] = new
                changed = True
    return frozenset(
        (bid, target) for bid in reachable for target in succs[bid] if target in dom[bid]
    )


# ---------------------------------------------------------------------------
# Brute-force path enumeration
# ---------------------------------------------------------------------------


def bf_simple_paths(fn: IRFunction, source: str, target: str) -> list[tuple[str, ...]]:
    """All simple source -> target paths over raw CFG edges."""
    succs = successor_map(fn)
    paths: list[tuple[str, ...]] = []

    def dfs(node: str, visited: frozenset, acc: tuple):
        if node == target:
            paths.append(acc + (node,))
            return
        for nxt in succs[node]:
            if nxt not in visited:
                dfs(nxt, visited | {nxt}, acc + (node,))

    dfs(source, frozenset({source}), ())
    return paths


def bf_call_chains(program: IRProgram, vuln_fn: str) -> list[tuple]:
    """Chains as tuples of (function, call_site|None), ending at vuln_fn."""
    calls_by_fn: dict[str, list[tuple[str, str]]] = {}
    for fn in program.functions.values():
        for blk in fn.blocks.values():
            for stmt in blk.statements:
                if stmt.kind == "call" and stmt.callee_name is not None:
                    calls_by_fn.setdefault(fn.id, []).append(
                        (stmt.id, stmt.callee_name)
                    )
    for sites in calls_by_fn.values():
        sites.sort()
    chains: list[tuple] = []
    entry = program.entry
    if vuln_fn == entry:
        return [((entry, None),)]

    def dfs(fn_id: str, seen: frozenset, acc: tuple):
        for site, callee in calls_by_fn.get(fn_id, ()):
            if callee in seen:
                continue
            if callee == vuln_fn:
                chains.append(acc + ((fn_id, site), (vuln_fn, None)))
            else:
                dfs(callee, seen | {callee}, acc + ((fn_id, site),))

    dfs(entry, frozenset({entry}), ())
    return chains


def bf_interprocedural_paths(program: IRProgram, vuln_stmt: str) -> list[tuple]:
    """All maximal paths to the vulnerable statement, fully brute force."""
    index = program.statement_index()
    vuln_fn, vuln_block = index[vuln_stmt]
    results: list[tuple] = []
    for chain in bf_call_chains(program, vuln_fn):
        per_frame: list[list[tuple]] = []
        for fn_id, site in chain:
            fn = program.functions[fn_id]
            target = index[site][1] if site is not None else vuln_block
            frame_paths = [
                tuple((fn_id, b) for b in path)
                for path in bf_simple_paths(fn, fn.entry_block, target)
            ]
            per_frame.append(frame_paths)
        for combo in itertools.product(*per_frame):
            results.append(tuple(itertools.chain.from_iterable(combo)))
    return results


# ---------------------------------------------------------------------------
# Random structured programs (exercise the frontend lowering)
# ---------------------------------------------------------------------------


def random_program_source(rng: random.Random, max_functions: int = 5) -> str:
    """A random well-typed MiniLang program on one line: `main` and up to
    `max_functions - 1` helpers, each a local `x` that nested `if`, `while`
    and call statements update, returned at the end."""
    count = rng.randint(1, max_functions)
    names = ["main"] + [f"h{i}" for i in range(1, count)]
    return "".join(
        f"fn {name}() -> int {{ let x: int = 0; {_random_body(rng, names, depth=0)}return x; }} "
        for name in names
    )


def _random_body(rng: random.Random, names: list[str], depth: int) -> str:
    stmts = ""
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.30 or depth >= 2:
            stmts += "x = x + 1; "
        elif roll < 0.55:
            stmts += f"{rng.choice(names)}(); "
        elif roll < 0.85:
            cond = f"x < {rng.randint(1, 5)}"
            then_body = _random_body(rng, names, depth + 1)
            else_body = (
                f"else {{ {_random_body(rng, names, depth + 1)}}} "
                if rng.random() < 0.4
                else ""
            )
            stmts += f"if ({cond}) {{ {then_body}}} {else_body}"
        else:
            cond = f"x < {rng.randint(1, 5)}"
            stmts += f"while ({cond}) {{ {_random_body(rng, names, depth + 1)}}} "
    return stmts


def pick_vulnerable_statement(rng: random.Random, program: IRProgram) -> str:
    """A random plain statement anywhere in the program."""
    ids = []
    for fn in program.functions.values():
        for blk in fn.blocks.values():
            for stmt in blk.statements:
                ids.append((fn.id, stmt.id))
    fn_id, stmt_id = rng.choice(sorted(ids))
    return fn_id, stmt_id


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------


def export_graph(program: IRProgram, vulnerable: tuple[str, str] | None = None) -> dict:
    """Project any program down to its graph document shape, as the JSON
    object that `import_graph` reads.

    Calls are exported from the resolved call graph, so an indirect call
    site appears once per signature-matching target and a reimport sees
    the same over-approximation the analyses used.
    """
    calls = [
        [edge.caller, edge.call_site, edge.callee]
        for edge in build_call_graph(program).edges
        if not program.functions[edge.callee].external
    ]
    functions = []
    # list the entry function first: a document's program entry is its
    # first function
    ordered = sorted(
        program.functions.values(), key=lambda fn: fn.id != program.entry
    )
    for fn in ordered:
        if fn.external:
            continue
        blocks = []
        edges = []
        for blk in fn.blocks.values():
            blocks.append(
                {
                    "id": blk.id,
                    "conditional": blk.is_conditional,
                    "statements": [s.id for s in blk.statements],
                }
            )
            term = blk.terminator
            if isinstance(term, Branch):
                edges.append([blk.id, term.then_target, 0])
                edges.append([blk.id, term.else_target, 1])
            elif isinstance(term, Jump):
                edges.append([blk.id, term.target, None])
        functions.append(
            {"name": fn.id, "entry": fn.entry_block, "blocks": blocks, "edges": edges}
        )
    return {
        "schema": "program-graph@1",
        "functions": functions,
        "calls": calls,
        "vulnerable": (
            None
            if vulnerable is None
            else {"function": vulnerable[0], "statement": vulnerable[1]}
        ),
    }


# ---------------------------------------------------------------------------
# Reference path graph and candidate walk
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


def reference_path_graph(program: IRProgram, vuln) -> ProgramPathGraph:
    """The path graph built frame by frame along every chain, recomputing
    each frame's DAG, conditionals and governors wherever it recurs."""
    call_graph = build_call_graph(program)
    index = program.statement_index()
    vuln_block = index[vuln.statement][1]
    diagnostics: list[str] = []
    chains = find_call_chains(call_graph, vuln.function, program.entry)
    if not chains:
        diagnostics.append(
            f"unreachable vulnerability: no call chain from {program.entry} "
            f"to {vuln.function}"
        )
    chain_paths: list[ChainPaths] = []
    for chain in chains:
        frames: list[FramePaths] = []
        complete = True
        for frame in chain.frames:
            fn = program.function(frame.function)
            target_stmt = frame.call_site if frame.call_site is not None else vuln.statement
            target_block = index[target_stmt][1]
            dag = intraprocedural_paths(fn, fn.entry_block, target_block)
            if dag.empty:
                diagnostics.append(
                    f"{frame.function}: target {target_stmt} unreachable from "
                    f"entry; chain {'->'.join(chain.functions)} dropped"
                )
                complete = False
                break
            cdg = compute_control_dependencies(fn, compute_postdominators(fn))
            frames.append(
                FramePaths(
                    frame=frame,
                    target_statement=target_stmt,
                    dag=dag,
                    conditional=frozenset(
                        b for b in dag.blocks if fn.blocks[b].is_conditional
                    ),
                    governing=cdg.transitive_governors(target_block),
                )
            )
        if complete:
            chain_paths.append(ChainPaths(chain=chain, frames=tuple(frames)))
    if chains and not chain_paths:
        diagnostics.append("unreachable vulnerability: all chains dropped")
    ppg = frame_graph(vuln, vuln_block, chain_paths, diagnostics)
    assert ppg.chains == tuple(chain_paths)  # walking the frame graph gives them back
    return ppg


def frame_graph(vuln, vuln_block, chain_paths, diagnostics) -> ProgramPathGraph:
    """The path graph of a list of chains: each frame once, in the order the
    chains first reach it, with the frames that follow it on some chain,
    sorted by function and call site."""
    ids: dict = {}  # Frame -> frame id
    frames: list[FramePaths] = []
    following: list[set[int]] = []
    for cp in chain_paths:
        for fp in cp.frames:
            if fp.frame not in ids:
                ids[fp.frame] = len(frames)
                frames.append(fp)
                following.append(set())
        for a, b in zip(cp.frames, cp.frames[1:]):
            following[ids[a.frame]].add(ids[b.frame])
    order = lambda i: (frames[i].frame.function, frames[i].frame.call_site or "")
    return ProgramPathGraph(
        vulnerability=vuln,
        vulnerable_block=vuln_block,
        frames=tuple(frames),
        following=tuple(tuple(sorted(after, key=order)) for after in following),
        diagnostics=tuple(diagnostics),
    )


def reference_path_graph_document(program: IRProgram, ppg: ProgramPathGraph, cap: int) -> dict:
    """The `path-graph@1` document: every chain with its frames written out
    in full, and the maximal paths while `path_count <= cap`."""
    chains = []
    for chain_paths in ppg.chains:
        frames = []
        for fp in chain_paths.frames:
            fn = program.functions[fp.frame.function]
            frames.append(
                {
                    "function": fp.frame.function,
                    "target_statement": fp.target_statement,
                    "blocks": [
                        {
                            "id": b,
                            "conditional": b in fp.conditional,
                            "line": fn.blocks[b].line,
                        }
                        for b in fp.dag.blocks
                    ],
                    "edges": [list(e) for e in fp.dag.edges],
                    "governing_conditionals": [list(g) for g in fp.governing],
                }
            )
        chains.append(
            {"functions": list(chain_paths.chain.functions), "frames": frames}
        )
    doc = {
        "schema": "path-graph@1",
        "vulnerability": {
            "function": ppg.vulnerability.function,
            "statement": ppg.vulnerability.statement,
        },
        "chains": chains,
        "path_count": count_paths(ppg),
        "diagnostics": list(ppg.diagnostics),
    }
    if doc["path_count"] <= cap:
        doc["paths"] = [
            ["/".join(entry) for entry in path]
            for path in enumerate_paths(ppg, cap=cap)
        ]
    return doc


def frame_walks(doc: dict) -> list[list[int]]:
    """The call chains of a `path-graph@3` document, as lists of frame ids:
    from each entry frame (one that no `next` names, in id order), every
    walk along `next`, in its order, that repeats no function and ends at
    the vulnerable frame (the one with an empty `next`)."""
    frames = doc["frames"]
    named = {i for frame in frames for i in frame["next"]}
    walks = []
    for entry in (frame["id"] for frame in frames if frame["id"] not in named):
        if not frames[entry]["next"]:
            walks.append([entry])
            continue
        walk, on_walk = [entry], {frames[entry]["function"]}
        stack = [iter(frames[entry]["next"])]
        while stack:
            for i in stack[-1]:
                if frames[i]["function"] in on_walk:
                    continue
                if not frames[i]["next"]:
                    walks.append(walk + [i])
                    continue
                walk.append(i)
                on_walk.add(frames[i]["function"])
                stack.append(iter(frames[i]["next"]))
                break
            else:
                stack.pop()
                on_walk.discard(frames[walk.pop()]["function"])
    return walks


def decode_path(frame: dict, number: int) -> list[str]:
    """The blocks of path `number` of one `path-graph@3` frame: from the
    DAG's source, each step takes the last edge whose Ball–Larus increment
    does not exceed what is left of the number."""
    successors: dict[str, list[tuple[int, str]]] = {}
    for src, dst, _, increment in frame["edges"]:
        successors.setdefault(src, []).append((increment, dst))
    targets = {dst for _, dst, _, _ in frame["edges"]}
    (source,) = [b["id"] for b in frame["blocks"] if b["id"] not in targets]
    path, left = [source], number
    while path[-1] in successors:
        increment, block = [e for e in successors[path[-1]] if e[0] <= left][-1]
        left -= increment
        path.append(block)
    assert left == 0, (frame["function"], number)
    return path


def expand_path_graph_document(doc: dict, cap: int) -> dict:
    """A `path-graph@3` document written back as `path-graph@1`: each chain
    walked along `next` with its frames written out in full (without `id`,
    `path_count`, `next` and the edges' increments), and the maximal paths
    decoded from the increments while `path_count <= cap`."""
    frames = [
        {
            **{k: v for k, v in frame.items() if k not in ("id", "path_count", "next")},
            "edges": [edge[:3] for edge in frame["edges"]],
        }
        for frame in doc["frames"]
    ]
    walks = frame_walks(doc)
    expanded = {k: v for k, v in doc.items() if k not in ("frames", "chain_count")}
    expanded["schema"] = "path-graph@1"
    expanded["chains"] = [
        {
            "functions": [frames[i]["function"] for i in ids],
            "frames": [frames[i] for i in ids],
        }
        for ids in walks
    ]
    if doc["path_count"] <= cap:
        per_frame = [
            [
                [f"{frame['function']}/{b}" for b in decode_path(frame, number)]
                for number in range(frame["path_count"])
            ]
            for frame in doc["frames"]
        ]
        expanded["paths"] = [
            list(itertools.chain.from_iterable(parts))
            for ids in walks
            for parts in itertools.product(*(per_frame[i] for i in ids))
        ]
    return expanded


def level_of(chain: CallChain, function: str) -> int | None:
    """Frames between `function` and the vulnerable function on one chain
    (0 = the last frame), or None when the chain does not pass through it."""
    for index, frame in enumerate(chain.frames):
        if frame.function == function:
            return len(chain.frames) - 1 - index
    return None


def reference_candidate_locations(ppg: ProgramPathGraph):
    """(candidates, notes) from a plain recursive walk of every frame of
    every chain, with no sharing and no memo."""
    found: dict[tuple[str, str], CandidatePatchLocation] = {}
    messages: list[str] = []
    levels: dict[str, int] = {}
    for chain_paths in ppg.chains:
        for frame in chain_paths.chain.frames:
            level = level_of(chain_paths.chain, frame.function)
            levels[frame.function] = min(level, levels.get(frame.function, level))

    for chain_paths in ppg.chains:
        for frame_paths in chain_paths.frames:
            dag = frame_paths.dag
            function = frame_paths.frame.function
            conditional = frame_paths.conditional

            def record(block, governor, branch_index):
                found.setdefault(
                    (function, block),
                    CandidatePatchLocation(
                        function, block, governor, branch_index, levels[function]
                    ),
                )

            def walk(block, governor, branch_index):
                if block not in conditional:
                    record(block, governor, branch_index)
                    return
                successors = dag.successors(block)
                if not successors:
                    if block == ppg.vulnerable_block and frame_paths.frame.call_site is None:
                        messages.append(
                            f"path to {ppg.vulnerability.statement} consists of "
                            f"conditional blocks only; using the vulnerable "
                            f"block {block} itself"
                        )
                        record(block, governor, branch_index)
                    else:
                        messages.append(
                            f"{function}:{block}: conditional frame target has "
                            "no patchable successor on the path"
                        )
                    return
                for nxt, idx in successors:
                    walk(nxt, block, idx)

            for block in sorted(conditional, key=block_sort_key):
                for nxt, idx in dag.successors(block):
                    walk(nxt, block, idx)

    results = sorted(
        found.values(),
        key=lambda loc: (-loc.level, block_sort_key(loc.block), loc.function),
    )
    any_conditional = any(fp.conditional for cp in ppg.chains for fp in cp.frames)
    if not results and not any_conditional and not ppg.empty:
        messages.append(
            "no conditional block lies on any vulnerable path; nothing to patch"
        )
    return results, messages


def call_fanout_source(n: int) -> str:
    """MiniLang source where f_i calls f_{i+1} from two sites, so 2**n
    chains reach f_n over 2n + 2 distinct frames; the vulnerable statement
    is on line 4, in f_n."""
    src = [
        f"fn f{n}(x: int) -> int {{\n let t: int = x;\n if (t > 3) {{\n"
        f" t = t + 1;\n }}\n return t;\n}}"
    ]
    for i in range(n - 1, -1, -1):
        src.append(
            f"fn f{i}(x: int) -> int {{ let r: int = 0;"
            f" if (x > {i}) {{ r = f{i + 1}(x - 1); }} else {{ r = f{i + 1}(x + 1); }}"
            f" return r; }}"
        )
    src.append("fn main() -> int { let v: int = read_input(); return f0(v); }")
    return "\n".join(src) + "\n"


def call_fanout_program(n: int):
    """(program, vulnerability) of `call_fanout_source(n)`."""
    program = parse(call_fanout_source(n))
    return program, resolve_vulnerability(program, f"f{n}", line=4)


def recursive_fanout_source(n: int) -> str:
    """`call_fanout_source(n)` where f_{n-1} can also call f0 back: the
    call graph has a cycle that no chain closes, so the chains must be
    walked one by one, and there are 2**n of them."""
    head = f"fn f{n - 1}(x: int) -> int {{ let r: int = 0;"
    return call_fanout_source(n).replace(head, head + " if (x > 1000) { r = f0(x); }")


def fanout_document(n: int, dead: int | None = None, stuck: bool = False) -> dict:
    """A graph document of the call fan-out: main calls f0 and each f_i
    calls f_{i+1} from two sites, one on each arm of a conditional, so
    2**n chains reach f_n. With `dead`, the second site of f_dead lies in a
    block its entry cannot reach, and the chains through it are dropped.
    With `stuck`, f_n's vulnerable block is a conditional that both arms
    leave for the exit, so the candidate walk notes it on every chain."""
    functions = [
        {
            "name": "main",
            "entry": "m0",
            "blocks": [{"id": "m0", "statements": ["main_call"]}],
            "edges": [],
        }
    ]
    calls = [["main", "main_call", "f0"]]
    for i in range(n):
        second = [[f"f{i}a", f"f{i}d", 1], [f"f{i}c", f"f{i}d", None]]
        if i != dead:
            second = [[f"f{i}a", f"f{i}c", 1], [f"f{i}c", f"f{i}d", None]]
        functions.append(
            {
                "name": f"f{i}",
                "entry": f"f{i}a",
                "blocks": [
                    {"id": f"f{i}a", "conditional": True, "statements": [f"f{i}_test"]},
                    {"id": f"f{i}b", "statements": [f"f{i}_p"]},
                    {"id": f"f{i}c", "statements": [f"f{i}_q"]},
                    {"id": f"f{i}d", "statements": [f"f{i}_ret"]},
                ],
                "edges": [[f"f{i}a", f"f{i}b", 0], [f"f{i}b", f"f{i}d", None], *second],
            }
        )
        calls += [[f"f{i}", f"f{i}_p", f"f{i + 1}"], [f"f{i}", f"f{i}_q", f"f{i + 1}"]]
    functions.append(
        {
            "name": f"f{n}",
            "entry": "v0",
            "blocks": [
                {"id": "v0", "conditional": True, "statements": ["v_test"]},
                {"id": "v1", "conditional": stuck, "statements": ["vuln"]},
                {"id": "v2", "statements": ["v_ret"]},
            ],
            "edges": [["v0", "v1", 0], ["v0", "v2", 1]]
            + ([["v1", "v2", 0], ["v1", "v2", 1]] if stuck else [["v1", "v2", None]]),
        }
    )
    return {
        "schema": "program-graph@1",
        "functions": functions,
        "calls": calls,
        "vulnerable": {"function": f"f{n}", "statement": "vuln"},
    }


# main calls f, g and h; f calls g, g calls h and h calls f, and each of the
# three then calls v. 9 chains reach v over 10 frames, and the frames of f,
# g and h at their first call form the cycle f -> g -> h -> f, which no
# chain closes: a chain repeats no function. The order of `next` matters
# here: g's frame at its call of h is followed by h's frame at its call of
# f (a walk that continues only from main -> g) before h's frame at its
# call of v, though the chains reach the second first.
RECURSIVE_CHAINS = """fn v(x: int) -> int {
    if (x > 0) {
        x = x - 1;
    }
    return x;
}
fn f(x: int) -> int { let r: int = x; if (r > 5) { r = g(r); } r = v(r); return r; }
fn g(x: int) -> int { let r: int = x; if (r > 5) { r = h(r); } r = v(r); return r; }
fn h(x: int) -> int { let r: int = x; if (r > 5) { r = f(r); } r = v(r); return r; }
fn main() -> int {
    let x: int = read_input();
    print(f(x));
    print(g(x));
    print(h(x));
    return 0;
}
"""


def long_path_source(ifs: int, loops: int) -> str:
    """MiniLang source of `main`: `ifs` one-armed `if`s, then `loops`
    three-line `while` loops in a row, then the vulnerable `print(y);` on
    the third line from the end. It has 2**ifs paths, each through every
    loop header."""
    lines = ["fn main() -> int {", "    let x: int = read_input();", "    let y: int = 0;"]
    for i in range(ifs):
        lines += [f"    if (x == {i}) {{", f"        y = y + {i + 1};", "    }"]
    for i in range(loops):
        lines += [f"    while (y < {i}) {{", "        y = y + 1;", "    }"]
    lines += ["    print(y);", "    return 0;", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------


# A product of two non-constant operands at least this large in magnitude
# ends the run with status timeout at its statement.
PRODUCT_LIMIT = 2**4096

# Squares its first input forty times, which the value budget stops, then
# reads `buf` at its second input.
SQUARING = """fn main() -> int {
    let x: int = read_input();
    let i: int = 0;
    while (i < 40) {
        x = x * x;
        i = i + 1;
    }
    let buf: ref = alloc(4);
    let k: int = read_input();
    print(buf[k]);
    return 0;
}
"""


def reference_run(
    program: IRProgram,
    input_values=(),
    max_steps: int = DEFAULT_MAX_STEPS,
    max_heap_cells: int = DEFAULT_MAX_HEAP_CELLS,
    record_trace: bool = False,
) -> ExecutionResult:
    """Tree-walking interpreter with `run_program`'s exact semantics.

    It re-resolves every expression node and operator on every evaluation
    and ticks one step per statement and terminator; it is the oracle the
    compiled interpreter is checked against. The heap budget and the value
    budget (`PRODUCT_LIMIT`) end a run with status timeout.
    """
    if not program.executable:
        raise IRError("program has no executable statement bodies")
    return _Interp(program, input_values, max_steps, max_heap_cells, record_trace).run()


def reference_cuts(
    program: IRProgram,
    input_values,
    watch,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_heap_cells: int = DEFAULT_MAX_HEAP_CELLS,
) -> tuple:
    """`ExecutionResult.cuts` of a run with `watch`, from the reference
    interpreter: for each watched block whose first entry is made by the
    entry function's own frame, `(block, (steps, outputs))`, the steps
    charged before that entry and the values printed by then, in the order
    of the entries."""
    interp = _CutInterp(watch, program, input_values, max_steps, max_heap_cells, False)
    interp.run()
    return tuple(interp.cuts)


class _Fault(Exception):
    def __init__(self, kind: str, at: str):
        self.kind = kind
        self.at = at


class _Timeout(Exception):
    pass


class _InputExhausted(Exception):
    pass


class _Frame:
    __slots__ = ("fn", "block", "index", "locals", "call_target", "call_site")

    def __init__(self, fn, block, local_env):
        self.fn = fn
        self.block = block
        self.index = 0
        self.locals = local_env
        self.call_target = None  # where to store a callee's return value
        self.call_site = None  # statement id of the active call


def _default_for(value_type):
    if value_type == INT:
        return 0
    if value_type == BOOL:
        return False
    return None  # ref / fn-ref default to nil


class _Interp:
    def __init__(self, program, input_values, max_steps, max_heap_cells, record_trace):
        self.program = program
        self.inputs = list(input_values)
        self.input_pos = 0
        self.max_steps = max_steps
        self.max_heap_cells = max_heap_cells
        self.steps = 0
        self.heap: list[list[int]] = []
        self.heap_cells = 0
        self.output: list[int] = []
        self.trace: list[tuple[str, str]] | None = [] if record_trace else None
        self.calls: list[tuple[str, str]] | None = [] if record_trace else None
        self.stack: list[_Frame] = []

    # --- helpers ---

    def make_frame(self, fn, args) -> _Frame:
        env = {}
        for (name, ptype), value in zip(fn.params, args):
            env[name] = value
        for name, vtype in fn.locals.items():
            env[name] = _default_for(vtype)
        frame = _Frame(fn, fn.blocks[fn.entry_block], env)
        if self.trace is not None:
            self.trace.append((fn.id, fn.entry_block))
        return frame

    def enter_block(self, frame: _Frame, block_id: str) -> None:
        frame.block = frame.fn.blocks[block_id]
        frame.index = 0
        if self.trace is not None:
            self.trace.append((frame.fn.id, block_id))

    def eval(self, expr, env):
        if isinstance(expr, IntConst):
            return expr.value
        if isinstance(expr, BoolConst):
            return expr.value
        if isinstance(expr, NilConst):
            return None
        if isinstance(expr, Var):
            return env[expr.name]
        if isinstance(expr, FuncRef):
            return FnVal(expr.name)
        if isinstance(expr, Unary):
            value = self.eval(expr.operand, env)
            return (not value) if expr.op == "!" else -value
        if isinstance(expr, Binary):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            value = self.binop(expr.op, left, right)
            if (
                expr.op == "*"
                and not isinstance(expr.left, (IntConst, BoolConst, NilConst))
                and not isinstance(expr.right, (IntConst, BoolConst, NilConst))
                and abs(value) >= PRODUCT_LIMIT
            ):
                raise _Timeout  # the value budget
            return value
        raise IRError(f"cannot evaluate {expr!r}")

    def binop(self, op, left, right):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op in ("/", "%"):
            if right == 0:
                raise _Fault(FAULT_DIV_ZERO, self.current_stmt_id)
            # C-style: quotient truncates toward zero, remainder matches
            q = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                q = -q
            if op == "/":
                return q
            return left - q * right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "&&":
            return left and right
        if op == "||":
            return left or right
        raise IRError(f"unknown operator {op!r}")

    def read_array(self, ref, index):
        if ref is None:
            raise _Fault(FAULT_NIL_DEREF, self.current_stmt_id)
        cells = self.heap[ref]
        if index < 0 or index >= len(cells):
            raise _Fault(FAULT_OOB, self.current_stmt_id)
        return cells[index]

    def write_array(self, ref, index, value):
        if ref is None:
            raise _Fault(FAULT_NIL_DEREF, self.current_stmt_id)
        cells = self.heap[ref]
        if index < 0 or index >= len(cells):
            raise _Fault(FAULT_OOB, self.current_stmt_id)
        cells[index] = value

    def backtrace(self, fault_at: str) -> tuple[tuple[str, str], ...]:
        frames = [(frame.fn.id, frame.call_site) for frame in self.stack[:-1]]
        frames.append((self.stack[-1].fn.id, fault_at))
        return tuple(frames)

    # --- main loop ---

    def run(self) -> ExecutionResult:
        entry = self.program.functions[self.program.entry]
        self.stack.append(self.make_frame(entry, ()))
        self.current_stmt_id = None
        try:
            return self.loop()
        except _Fault as fault:
            return self.result(
                STATUS_FAULT,
                fault_kind=fault.kind,
                fault_at=fault.at,
                fault_stack=self.backtrace(fault.at),
            )

    def result(self, status, **kw) -> ExecutionResult:
        return ExecutionResult(
            status=status,
            output=tuple(self.output),
            trace=tuple(self.trace) if self.trace is not None else None,
            calls=tuple(self.calls) if self.calls is not None else None,
            steps=self.steps,
            **kw,
        )

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise _Timeout

    def loop(self) -> ExecutionResult:
        try:
            while True:
                frame = self.stack[-1]
                if frame.index < len(frame.block.statements):
                    stmt = frame.block.statements[frame.index]
                    frame.index += 1
                    self.current_stmt_id = stmt.id
                    self.tick()
                    done = self.exec_stmt(frame, stmt)
                    if done is not None:
                        return done
                    continue
                term = frame.block.terminator
                self.tick()
                if isinstance(term, Jump):
                    self.enter_block(frame, term.target)
                elif isinstance(term, Branch):
                    self.current_stmt_id = term.id
                    cond = self.eval(term.cond, frame.locals)
                    self.enter_block(
                        frame, term.then_target if cond else term.else_target
                    )
                elif isinstance(term, Return):
                    self.current_stmt_id = term.id
                    value = (
                        self.eval(term.value, frame.locals)
                        if term.value is not None
                        else None
                    )
                    done = self.do_return(value)
                    if done is not None:
                        return done
                elif isinstance(term, Halt):
                    return self.result(STATUS_OK, exit_value=None)
                else:
                    raise IRError(f"block {frame.block.id} has no terminator")
        except _Timeout:
            return self.result(STATUS_TIMEOUT)
        except _InputExhausted:
            return self.result(STATUS_INPUT_EXHAUSTED)

    def do_return(self, value):
        self.stack.pop()
        if not self.stack:
            return self.result(STATUS_OK, exit_value=value)
        caller = self.stack[-1]
        if caller.call_target is not None:
            caller.locals[caller.call_target] = value
        caller.call_target = None
        caller.call_site = None
        return None

    def exec_stmt(self, frame, stmt):
        kind = stmt.kind
        env = frame.locals
        if kind == "assign":
            env[stmt.target] = self.eval(stmt.value, env)
            return None
        if kind == "array_read":
            ref = self.eval(stmt.array, env)
            index = self.eval(stmt.index, env)
            env[stmt.target] = self.read_array(ref, index)
            return None
        if kind == "array_write":
            ref = self.eval(stmt.array, env)
            index = self.eval(stmt.index, env)
            value = self.eval(stmt.value, env)
            self.write_array(ref, index, value)
            return None
        if kind == "array_alloc":
            size = self.eval(stmt.size, env)
            if size < 0:
                raise _Fault(FAULT_OOB, stmt.id)
            if self.heap_cells + size > self.max_heap_cells:
                raise _Timeout
            self.heap.append([0] * size)
            self.heap_cells += size
            env[stmt.target] = len(self.heap) - 1
            return None
        if kind == "print":
            value = self.eval(stmt.value, env)
            self.output.append(int(value))
            return None
        if kind == "read_input":
            if self.input_pos >= len(self.inputs):
                raise _InputExhausted
            env[stmt.target] = self.inputs[self.input_pos]
            self.input_pos += 1
            return None
        if kind == "assertion":
            if not self.eval(stmt.cond, env):
                raise _Fault(FAULT_ASSERT, stmt.id)
            return None
        if kind == "call":
            return self.exec_call(frame, stmt)
        if kind == "nop":
            return None
        raise IRError(f"cannot execute statement kind {kind!r}")

    def exec_call(self, frame, stmt):
        env = frame.locals
        if stmt.callee_name is not None:
            callee = self.program.functions[stmt.callee_name]
        else:
            value = env[stmt.callee_ref]
            if value is None:
                raise _Fault(FAULT_NIL_DEREF, stmt.id)
            callee = self.program.functions[value.name]
        args = tuple(self.eval(a, env) for a in stmt.args)
        if self.calls is not None:
            self.calls.append((stmt.id, callee.id))
        if callee.external:
            # externals have no body; they yield their return type's default
            if stmt.target is not None:
                env[stmt.target] = _default_for(callee.return_type)
            return None
        frame.call_target = stmt.target
        frame.call_site = stmt.id
        self.stack.append(self.make_frame(callee, args))
        return None


class _CutInterp(_Interp):
    """The reference interpreter, noting the first entry of each block in
    `watch` and, when the entry function's own frame makes it, its cut."""

    def __init__(self, watch, *args):
        super().__init__(*args)
        self.watch = watch
        self.seen: set = set()
        self.cuts: list = []

    def entry(self, fn, block_id, depth):
        key = (fn.id, block_id)
        if key in self.watch and key not in self.seen:
            self.seen.add(key)
            if depth == 0:
                self.cuts.append((key, (self.steps, len(self.output))))

    def make_frame(self, fn, args):
        self.entry(fn, fn.entry_block, len(self.stack))  # not yet on the stack
        return super().make_frame(fn, args)

    def enter_block(self, frame, block_id):
        self.entry(frame.fn, block_id, len(self.stack) - 1)
        super().enter_block(frame, block_id)


# ---------------------------------------------------------------------------
# Reference patch evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    passed: int
    total: int
    verdicts: tuple[CaseVerdict, ...]


def run_test_suite(
    program: IRProgram, suite: TestSuite, limits: Limits = Limits()
) -> SuiteResult:
    """Every functional case of `suite` run on `program`."""
    verdicts = tuple(
        _verdict(case, _run(program, case.input, limits)) for case in suite.cases
    )
    passed = sum(1 for v in verdicts if v.passed)
    return SuiteResult(passed=passed, total=len(verdicts), verdicts=verdicts)


def check_exploit(
    program: IRProgram, suite: TestSuite, limits: Limits = Limits()
) -> bool:
    """True iff the exploit input no longer faults at the vulnerable statement.

    The exploit must be anchored (see TestSuite.with_vulnerability).
    """
    exploit = suite.exploit
    if exploit is None:
        raise SuiteError("suite has no exploit specification")
    if exploit.statement is None:
        raise SuiteError("exploit is not anchored to a vulnerable statement")
    return _blocked(exploit, _run(program, exploit.input, limits))


def reference_evaluate_patch(
    base: IRProgram, patch: Patch, suite: TestSuite, limits: Limits
) -> PatchEvaluation:
    try:
        variant = apply_patch(base, patch)
    except IRError as exc:
        return PatchEvaluation(
            patch=patch,
            passed=0,
            total=len(suite.cases),
            exploit_blocked=None,
            error=str(exc),
        )
    result = run_test_suite(variant, suite, limits)
    blocked = None
    if suite.exploit is not None and suite.exploit.statement is not None:
        blocked = check_exploit(variant, suite, limits)
    return PatchEvaluation(
        patch=patch,
        passed=result.passed,
        total=result.total,
        exploit_blocked=blocked,
        verdicts=result.verdicts,
    )


def reference_evaluate_patches(
    base: IRProgram,
    patches: list[Patch],
    suite: TestSuite,
    limits: Limits = Limits(),
) -> list[PatchEvaluation]:
    """`harness.evaluate_patches` without test selection: every case and
    the exploit run on every patched program; results come back in
    patch-id order.
    """
    evaluations = [reference_evaluate_patch(base, p, suite, limits) for p in patches]
    evaluations.sort(key=lambda ev: ev.patch.id)
    return evaluations
