"""Intraprocedural CFG analyses and the interprocedural call graph.

Postdominance is computed against a synthetic exit node that joins every
return/halt block, using the classic set-intersection fixpoint on the
reversed CFG. Control dependence follows from it: block B depends on
conditional A's edge k exactly when B postdominates A's k-th successor
(or is that successor) but does not postdominate A itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Branch,
    FnType,
    FuncRef,
    IRError,
    IRFunction,
    IRProgram,
    block_sort_key,
)

# Synthetic exit block id; never collides with real ids.
EXIT = "<exit>"


class AnalysisError(IRError):
    pass


def successors_map(fn: IRFunction) -> dict[str, tuple[str, ...]]:
    return {bid: blk.successors for bid, blk in fn.blocks.items()}


def predecessors_map(fn: IRFunction) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {bid: [] for bid in fn.blocks}
    for bid, blk in fn.blocks.items():
        for target in blk.successors:
            preds[target].append(bid)
    return preds


# ---------------------------------------------------------------------------
# Postdominators
# ---------------------------------------------------------------------------


@dataclass
class PostDominators:
    """Immediate-postdominator tree, rooted at the synthetic exit."""

    ipdom: dict[str, str]
    warnings: tuple[str, ...] = ()
    _chains: dict[str, frozenset] = field(default_factory=dict, repr=False)

    def chain(self, block: str) -> frozenset:
        """The set {block} ∪ all its postdominators (including EXIT)."""
        cached = self._chains.get(block)
        if cached is not None:
            return cached
        members = set()
        cur = block
        while cur != EXIT:
            members.add(cur)
            cur = self.ipdom[cur]
        members.add(EXIT)
        result = frozenset(members)
        self._chains[block] = result
        return result

    def postdominates(self, a: str, b: str) -> bool:
        """True iff a postdominates b (reflexively; EXIT postdominates all)."""
        if a == EXIT:
            return True
        return a in self.chain(b)


def compute_postdominators(fn: IRFunction) -> PostDominators:
    """Immediate postdominators of every block, against a synthetic exit.

    Blocks that cannot reach any exit (a cycle with no way out) are attached
    directly to the synthetic exit; each gets a note in the result's
    `warnings`, in `fn.blocks` order. Nothing is raised.
    """
    succs = successors_map(fn)
    exit_blocks = [bid for bid, blk in fn.blocks.items() if not blk.successors]

    # Blocks that reach some exit, via reverse reachability.
    reaching: set[str] = set(exit_blocks)
    preds = predecessors_map(fn)
    stack = list(exit_blocks)
    while stack:
        cur = stack.pop()
        for p in preds[cur]:
            if p not in reaching:
                reaching.add(p)
                stack.append(p)

    universe = set(reaching) | {EXIT}
    pdom: dict[str, set[str]] = {bid: set(universe) for bid in reaching}
    pdom[EXIT] = {EXIT}

    order = sorted(reaching, key=block_sort_key, reverse=True)
    changed = True
    while changed:
        changed = False
        for bid in order:
            outs = succs[bid]
            if not outs:
                succ_sets = [pdom[EXIT]]
            else:
                # Paths through non-reaching successors never arrive at the
                # exit, so they place no constraint on postdominance.
                succ_sets = [pdom[s] for s in outs if s in reaching]
                if not succ_sets:
                    continue
            new = {bid} | set.intersection(*succ_sets)
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
        strict = pdom[bid] - {bid}
        # The immediate postdominator is the strict postdominator farthest
        # from the exit, i.e. with the largest postdominator set of its own.
        ipdom[bid] = max(
            strict,
            key=lambda p: (len(pdom[p]) if p != EXIT else 1, block_sort_key(p)),
        )
    return PostDominators(ipdom=ipdom, warnings=tuple(warns))


# ---------------------------------------------------------------------------
# Dominators (needed to classify back edges for path analysis)
# ---------------------------------------------------------------------------


def compute_dominators(fn: IRFunction) -> dict[str, frozenset]:
    """Dominator sets over blocks reachable from the function entry."""
    entry = fn.entry_block
    succs = successors_map(fn)
    reachable = {entry}
    stack = [entry]
    while stack:
        for s in succs[stack.pop()]:
            if s not in reachable:
                reachable.add(s)
                stack.append(s)
    preds = {bid: [] for bid in reachable}
    for bid in reachable:
        for s in succs[bid]:
            if s in reachable:
                preds[s].append(bid)

    dom: dict[str, set[str]] = {bid: set(reachable) for bid in reachable}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for bid in sorted(reachable, key=block_sort_key):
            if bid == entry:
                continue
            if preds[bid]:
                new = {bid} | set.intersection(*(dom[p] for p in preds[bid]))
            else:
                new = {bid}
            if new != dom[bid]:
                dom[bid] = new
                changed = True
    return {bid: frozenset(members) for bid, members in dom.items()}


def back_edges(fn: IRFunction) -> frozenset[tuple[str, str]]:
    """Edges u→v where v dominates u; these close loops in structured CFGs."""
    dom = compute_dominators(fn)
    result = set()
    for bid, blk in fn.blocks.items():
        if bid not in dom:
            continue
        for target in blk.successors:
            if target in dom.get(bid, frozenset()):
                result.add((bid, target))
    return frozenset(result)


# ---------------------------------------------------------------------------
# Control dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlDep:
    governed: str
    governor: str
    branch_index: int


@dataclass(frozen=True)
class ControlDepGraph:
    deps: tuple[ControlDep, ...]
    # governed block -> its (governor, edge) pairs in `deps` order; an index
    # built at construction, never compared or printed
    _governors: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
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
        seen: set[tuple[str, int]] = set()
        frontier = [block]
        visited_blocks = set()
        while frontier:
            cur = frontier.pop()
            if cur in visited_blocks:
                continue
            visited_blocks.add(cur)
            for governor, k in self.governors_of(cur):
                if (governor, k) not in seen:
                    seen.add((governor, k))
                    frontier.append(governor)
        return tuple(sorted(seen, key=lambda g: (block_sort_key(g[0]), g[1])))


def compute_control_dependencies(
    fn: IRFunction, pdoms: PostDominators | None = None
) -> ControlDepGraph:
    if pdoms is None:
        pdoms = compute_postdominators(fn)
    deps: list[ControlDep] = []
    for bid in sorted(fn.blocks, key=block_sort_key):
        blk = fn.blocks[bid]
        if not blk.is_conditional:
            continue
        term: Branch = blk.terminator
        for k, succ in enumerate((term.then_target, term.else_target)):
            # Walk the postdominator chain upward from the successor until a
            # node that postdominates the conditional itself; everything
            # strictly before that point is governed by this edge.
            cur = succ
            while not pdoms.postdominates(cur, bid):
                deps.append(ControlDep(governed=cur, governor=bid, branch_index=k))
                cur = pdoms.ipdom[cur]
    deps.sort(key=lambda d: (block_sort_key(d.governed), block_sort_key(d.governor), d.branch_index))
    return ControlDepGraph(deps=tuple(deps))


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallEdge:
    caller: str
    call_site: str  # statement id
    callee: str
    via_reference: bool


@dataclass(frozen=True)
class CallGraph:
    edges: tuple[CallEdge, ...]
    # caller -> its edges and callee -> its edges, in `edges` order; indexes
    # built at construction, never compared or printed
    _by_caller: dict = field(init=False, compare=False, repr=False)
    _by_callee: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
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
                    for target in sorted(program.address_taken):
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
        elif hasattr(expr, "__dataclass_fields__"):
            pending.extend(
                getattr(expr, attr, None)
                for attr in ("operand", "left", "right", "value", "index", "size", "cond")
            )
    return frozenset(taken)
