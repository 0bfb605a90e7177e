"""Graph questions: reachability, (post)dominator trees, control
dependence and the interprocedural call graph.

`reachable` is the one set-reachability walk; every module that asks which
nodes a walk can reach calls it.

Postdominance is computed against a synthetic exit node that joins every
return/halt block, as the dominator tree of the reversed CFG; dominator
trees come from the iterative algorithm of Cooper, Harvey & Kennedy, in
time and memory near-linear in the blocks. Control dependence follows from
it: block B depends on conditional A's edge k exactly when B postdominates
A's k-th successor (or is that successor) but does not postdominate A
itself.
"""

from __future__ import annotations

from .ir import (
    Binary,
    Branch,
    FnType,
    FuncRef,
    IRError,
    IRFunction,
    IRProgram,
    Unary,
    block_sort_key,
)
from .record import Record

# Synthetic exit block id; never collides with real ids.
EXIT = "<exit>"


class AnalysisError(IRError):
    pass


def successors_map(fn: IRFunction) -> dict[str, tuple[str, ...]]:
    return {bid: blk.successors for bid, blk in fn.blocks.items()}


def reachable(roots, successors) -> set:
    """The nodes reachable from `roots`, roots included, where
    `successors(node)` gives the nodes one step from `node`. The walk keeps
    an explicit stack, so its depth is not bounded by Python's recursion
    limit."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for nxt in successors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def predecessors_map(fn: IRFunction) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {bid: [] for bid in fn.blocks}
    for bid, blk in fn.blocks.items():
        for target in blk.successors:
            preds[target].append(bid)
    return preds


# ---------------------------------------------------------------------------
# Postdominators
# ---------------------------------------------------------------------------


class PostDominators(Record):
    """Immediate-postdominator tree, rooted at the synthetic exit."""

    ipdom: dict[str, str]
    warnings: tuple[str, ...] = ()


def _reverse_postorder(root: str, successors: dict) -> list[str]:
    """The nodes reachable from `root`, in reverse postorder of a depth-first
    walk over `successors`; a node comes after every node that dominates
    it."""
    order = []
    seen = {root}
    stack = [(root, iter(successors[root]))]
    while stack:
        node, pending = stack[-1]
        for nxt in pending:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(successors[nxt])))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def _immediate_dominators(order: list[str], predecessors: dict) -> list[int]:
    """Immediate dominators of `order`, a reverse postorder from the root
    `order[0]`, as indices into `order`; the root is its own. Cooper, Harvey
    & Kennedy, "A Simple, Fast Dominance Algorithm" (2001): in reverse
    postorder a dominator has the smaller index, so two dominator-tree
    paths meet where the larger index stops climbing."""
    number = {node: i for i, node in enumerate(order)}
    preds = [[number[p] for p in predecessors[node] if p in number] for node in order]
    idom = [0] + [-1] * (len(order) - 1)
    changed = True
    while changed:
        changed = False
        for b in range(1, len(order)):
            new = -1
            for p in preds[b]:
                if idom[p] < 0:
                    continue  # not reached yet in this pass
                if new < 0:
                    new = p
                    continue
                while p != new:
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if new != idom[b]:
                idom[b] = new
                changed = True
    return idom


def compute_postdominators(fn: IRFunction) -> PostDominators:
    """Immediate postdominators of every block, against a synthetic exit.

    The dominator tree of the reversed CFG rooted at the exit, whose
    predecessors are the blocks with no successor; successors that cannot
    reach an exit place no constraint, since no path through them arrives
    there. Blocks that cannot reach any exit (a cycle with no way out) are
    attached directly to the synthetic exit; each gets a note in the
    result's `warnings`, in `fn.blocks` order. Nothing is raised.
    """
    preds: dict = predecessors_map(fn)
    preds[EXIT] = [bid for bid, blk in fn.blocks.items() if not blk.successors]
    # the reversed CFG's predecessors are the CFG's successors
    succs = {bid: blk.successors or (EXIT,) for bid, blk in fn.blocks.items()}
    succs[EXIT] = ()
    idom = immediate_dominators(EXIT, preds, succs)
    ipdom: dict[str, str] = {}
    warns: list[str] = []
    for bid in fn.blocks:
        if bid not in idom:
            warns.append(f"{fn.id}:{bid} cannot reach any exit; attached to exit")
        ipdom[bid] = idom.get(bid, EXIT)
    return PostDominators(ipdom=ipdom, warnings=tuple(warns))


# ---------------------------------------------------------------------------
# Dominators (needed to classify back edges for path analysis)
# ---------------------------------------------------------------------------


def immediate_dominators(root: str, successors: dict, predecessors: dict) -> dict[str, str]:
    """The immediate dominator of each node that `root` reaches over
    `successors`, in reverse postorder; the root is its own.
    `predecessors` maps each of those nodes to the nodes with an edge to
    it, and may name nodes `root` does not reach."""
    order = _reverse_postorder(root, successors)
    idom = _immediate_dominators(order, predecessors)
    return {node: order[i] for node, i in zip(order, idom)}


def back_edges(fn: IRFunction) -> frozenset[tuple[str, str]]:
    """Edges u→v where v dominates u; these close loops in structured CFGs.

    Blocks the entry cannot reach have no dominators and no back edges.
    A block comes after its dominators in reverse postorder, so v
    dominates u exactly when climbing the dominator tree from u, while the
    index stays above v's, stops at v.
    """
    succs = successors_map(fn)
    idom = immediate_dominators(fn.entry_block, succs, predecessors_map(fn))
    index = {bid: i for i, bid in enumerate(idom)}
    result = set()
    for u in idom:
        for v in succs[u]:
            d = u
            while index[d] > index[v]:
                d = idom[d]
            if d == v:
                result.add((u, v))
    return frozenset(result)


# ---------------------------------------------------------------------------
# Control dependence
# ---------------------------------------------------------------------------


class ControlDep(Record):
    governed: str
    governor: str
    branch_index: int


class ControlDepGraph(Record):
    deps: tuple[ControlDep, ...]

    def __post_init__(self):
        # not a field: governed block -> its (governor, edge) pairs in `deps`
        # order
        governors: dict[str, list[tuple[str, int]]] = {}
        for d in self.deps:
            governors.setdefault(d.governed, []).append((d.governor, d.branch_index))
        object.__setattr__(
            self, "_governors", {b: tuple(g) for b, g in governors.items()}
        )

    def governors_of(self, block: str) -> tuple[tuple[str, int], ...]:
        return self._governors.get(block, ())

    def transitive_governors(self, block: str) -> tuple[tuple[str, int], ...]:
        """All (conditional, edge) pairs the block transitively depends on."""
        seen = reachable(self.governors_of(block), lambda g: self.governors_of(g[0]))
        return tuple(sorted(seen, key=lambda g: (block_sort_key(g[0]), g[1])))


def compute_control_dependencies(
    fn: IRFunction, pdoms: PostDominators | None = None
) -> ControlDepGraph:
    if pdoms is None:
        pdoms = compute_postdominators(fn)
    ipdom = pdoms.ipdom
    depth = {EXIT: 0}  # in the postdominator tree
    for bid in fn.blocks:
        climb = []
        while bid not in depth:
            climb.append(bid)
            bid = ipdom[bid]
        d = depth[bid]
        for bid in reversed(climb):
            d += 1
            depth[bid] = d
    deps: list[ControlDep] = []
    for bid in sorted(fn.blocks, key=block_sort_key):
        blk = fn.blocks[bid]
        if not blk.is_conditional:
            continue
        term: Branch = blk.terminator
        for k, succ in enumerate((term.then_target, term.else_target)):
            # Climb from the successor and from the conditional to where
            # their postdominator chains meet, always moving the deeper
            # one: every block the successor's side passes strictly before
            # that point is governed by this edge.
            cur, stop = succ, bid
            while cur != stop:
                if depth[cur] >= depth[stop]:
                    deps.append(ControlDep(cur, bid, k))  # governed, governor, edge
                    cur = ipdom[cur]
                else:
                    stop = ipdom[stop]
    deps.sort(key=lambda d: (block_sort_key(d.governed), block_sort_key(d.governor), d.branch_index))
    return ControlDepGraph(deps=tuple(deps))


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class CallEdge(Record):
    caller: str
    call_site: str  # statement id
    callee: str
    via_reference: bool


class CallGraph(Record):
    edges: tuple[CallEdge, ...]

    def __post_init__(self):
        # not fields: caller -> its edges and callee -> its edges, in `edges`
        # order
        by_caller: dict[str, list[CallEdge]] = {}
        by_callee: dict[str, list[CallEdge]] = {}
        for e in self.edges:
            by_caller.setdefault(e.caller, []).append(e)
            by_callee.setdefault(e.callee, []).append(e)
        object.__setattr__(self, "_by_caller", {k: tuple(v) for k, v in by_caller.items()})
        object.__setattr__(self, "_by_callee", {k: tuple(v) for k, v in by_callee.items()})

    def callees_of(self, caller: str) -> tuple[CallEdge, ...]:
        return self._by_caller.get(caller, ())

    def callers_of(self, callee: str) -> tuple[CallEdge, ...]:
        return self._by_callee.get(callee, ())


def function_signature(fn: IRFunction) -> FnType:
    return FnType(params=tuple(t for _, t in fn.params), ret=fn.return_type)


def build_call_graph(program: IRProgram) -> CallGraph:
    """One edge per resolvable (call site, callee) pair.

    Indirect call sites fan out to every address-taken function whose
    signature matches the reference's declared type.
    """
    edges: list[CallEdge] = []
    taken = None  # the address-taken functions, sorted; found at the first indirect call
    for fn in program.functions.values():
        if fn.external:
            continue
        for blk in fn.blocks.values():
            for stmt in blk.statements:
                if stmt.kind != "call":
                    continue
                if stmt.callee_name is not None:
                    if stmt.callee_name not in program.functions:
                        raise AnalysisError(
                            f"call to undeclared function {stmt.callee_name!r} "
                            f"at {stmt.id}"
                        )
                    edges.append(
                        CallEdge(fn.id, stmt.id, stmt.callee_name, via_reference=False)
                    )
                else:
                    ref_type = fn.locals.get(stmt.callee_ref)
                    if ref_type is None:
                        ref_type = dict(fn.params).get(stmt.callee_ref)
                    if not isinstance(ref_type, FnType):
                        raise AnalysisError(
                            f"indirect call through non-function value "
                            f"{stmt.callee_ref!r} at {stmt.id}"
                        )
                    if taken is None:
                        taken = sorted(referenced_functions(program.functions))
                    for target in taken:
                        candidate = program.functions.get(target)
                        if candidate is None:
                            continue
                        if function_signature(candidate) == ref_type:
                            edges.append(
                                CallEdge(fn.id, stmt.id, target, via_reference=True)
                            )
    edges.sort(key=lambda e: (e.caller, e.call_site, e.callee))
    return CallGraph(edges=tuple(edges))


def referenced_functions(functions: dict[str, IRFunction]) -> frozenset[str]:
    """Functions whose address is taken anywhere in `functions`, a
    program's function table.

    Expression trees are walked with an explicit stack, so their depth is
    not bounded by Python's recursion limit.
    """
    pending: list = []
    for fn in functions.values():
        for blk in fn.blocks.values():
            for stmt in blk.statements:
                pending.extend(
                    getattr(stmt, attr, None)
                    for attr in ("value", "index", "size", "cond", "array")
                )
                if stmt.kind == "call":
                    pending.extend(stmt.args)
            pending.extend(getattr(blk.terminator, attr, None) for attr in ("cond", "value"))
    taken: set[str] = set()
    while pending:
        expr = pending.pop()
        if isinstance(expr, FuncRef):
            taken.add(expr.name)
        elif isinstance(expr, Unary):
            pending.append(expr.operand)
        elif isinstance(expr, Binary):
            pending.extend((expr.left, expr.right))
    return frozenset(taken)
