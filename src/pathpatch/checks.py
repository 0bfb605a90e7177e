"""Whole-set mitigation checks: static cut property and seeded fuzzing.

Patching every candidate location at once should leave the vulnerable
statement unreachable; these helpers verify that both statically (block
reachability over the patched program, calls included) and dynamically
(random inputs never fault at the vulnerable statement).
"""

from __future__ import annotations

import random

from .analysis import build_call_graph, reachable
from .ir import IRProgram
from .minilang.interp import DEFAULT_MAX_HEAP_CELLS, STATUS_FAULT, run_program


def reachable_blocks(
    program: IRProgram,
    removed: frozenset[tuple[str, str]] = frozenset(),
) -> set[tuple[str, str]]:
    """(function, block) pairs reachable from the program entry, following
    CFG edges and call edges, skipping `removed` blocks entirely."""
    call_graph = build_call_graph(program)
    calls_by_site = {}
    for edge in call_graph.edges:
        calls_by_site.setdefault(edge.call_site, []).append(edge.callee)

    def successors(node):
        fn_id, block_id = node
        block = program.functions[fn_id].blocks[block_id]
        targets = [(fn_id, succ) for succ in block.successors]
        for stmt in block.statements:
            if stmt.kind == "call":
                for callee in calls_by_site.get(stmt.id, ()):
                    callee_fn = program.functions[callee]
                    if not callee_fn.external:
                        targets.append((callee, callee_fn.entry_block))
        return [t for t in targets if t not in removed]

    start = (program.entry, program.functions[program.entry].entry_block)
    if start in removed:
        return set()
    return reachable((start,), successors)


def vulnerable_statement_reachable(
    program: IRProgram,
    vuln_statement: str,
    removed: frozenset[tuple[str, str]] = frozenset(),
) -> bool:
    index = program.statement_index()
    owner = index.get(vuln_statement)
    if owner is None:
        return False
    return owner in reachable_blocks(program, removed)


def cut_disconnects(program: IRProgram, vuln_statement: str, locations) -> bool:
    """True iff deleting every candidate block severs entry from the
    vulnerable statement."""
    removed = frozenset((loc.function, loc.block) for loc in locations)
    return not vulnerable_statement_reachable(program, vuln_statement, removed)


def fuzz_inputs(runs: int, seed: int, max_input_len: int):
    """The `runs` random input lists that `fuzz_vulnerability` runs, seeded
    by `seed`: each up to `max_input_len` values long, mixing small values,
    boundary-sized values and occasional negatives.

    Each value is drawn as `random.randint(a, b)` draws it, inlined: `a +
    r`, with `r = getrandbits(k)` repeated while `r >= n`, where `n = b -
    a + 1` and `k = n.bit_length()`. So the lists equal those of `randint`
    calls, without their `randrange` and `_randbelow` calls.
    """
    if max_input_len < 0:
        raise ValueError("max_input_len must be at least 0")
    rng = random.Random(seed)
    bits, unit = rng.getrandbits, rng.random
    lengths = max_input_len + 1
    length_bits = lengths.bit_length()
    for _ in range(runs):
        length = bits(length_bits)
        while length >= lengths:
            length = bits(length_bits)
        values = []
        for _ in range(length):
            bucket = unit()
            if bucket < 0.6:
                low, n, k = 0, 10, 4  # randint(0, 9)
            elif bucket < 0.85:
                low, n, k = 10, 191, 8  # randint(10, 200)
            else:
                low, n, k = -50, 50, 6  # randint(-50, -1)
            r = bits(k)
            while r >= n:
                r = bits(k)
            values.append(low + r)
        yield values


def fuzz_vulnerability(
    program: IRProgram,
    vuln_statement: str,
    runs: int = 100,
    seed: int = 0,
    max_input_len: int = 12,
    max_steps: int = 200_000,
    max_heap_cells: int = DEFAULT_MAX_HEAP_CELLS,
    patches: dict[tuple[str, str], object] | None = None,
) -> tuple[int, int]:
    """Run the `fuzz_inputs(runs, seed, max_input_len)`; count faults at
    the vulnerable statement.

    `patches` are applied as data, as `run_program` takes them
    (`synth.patch_returns` makes them), so fuzzing the fully patched
    program runs the code of `program` itself. Returns (runs, faults at
    the vulnerable statement).
    """
    hits = 0
    for values in fuzz_inputs(runs, seed, max_input_len):
        result = run_program(
            program,
            values,
            max_steps=max_steps,
            max_heap_cells=max_heap_cells,
            patches=patches,
        )
        if result.status == STATUS_FAULT and result.fault_at == vuln_statement:
            hits += 1
    return runs, hits
