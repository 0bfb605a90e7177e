"""Candidate patch locations over a program path graph.

For every conditional block on a vulnerable path, walk forward along the
path through any chain of consecutive conditional blocks and take the first
non-conditional block reached: patching there stops the path as soon as the
governing branch has committed to it, while blocks off the vulnerable paths
keep running. Candidates are deduplicated by (function, block) across paths
and chains, and the first one found keeps its governing conditional, so
each distinct frame is walked once and each conditional once per frame.

A location's level counts call-chain frames from the vulnerable function:
level 0 is the vulnerable function itself, level 1 its direct caller, and
so on; a function on several chains gets the smallest distance.

Degenerate paths, where a walk runs out of path on conditionals or no path
has a conditional at all, give notes, not exceptions or Python warnings:
`candidate_locations` appends them to the list its caller passes in.
"""

from __future__ import annotations

from .ir import block_sort_key
from .paths import Frame, FramePaths, ProgramPathGraph
from .record import Record


class CandidatePatchLocation(Record):
    function: str
    block: str
    governing_conditional: str
    branch_index: int
    level: int


def function_levels(ppg: ProgramPathGraph) -> dict[str, int]:
    """Each chain function's smallest frame distance from the vulnerable
    function, over all chains, in one pass."""
    levels: dict[str, int] = {}
    for chain_paths in ppg.chains:
        for level, frame in enumerate(reversed(chain_paths.chain.frames)):
            levels[frame.function] = min(level, levels.get(frame.function, level))
    return levels


def _walk_frame(
    frame_paths: FramePaths,
    ppg: ProgramPathGraph,
    level: int,
    found: dict[tuple[str, str], CandidatePatchLocation],
) -> list[str]:
    """Record one frame's candidates in `found`, where the first found
    wins, and return the notes its walk gives, in order."""
    dag = frame_paths.dag
    function = frame_paths.frame.function
    conditional = frame_paths.conditional
    messages: list[str] = []
    # Walking into conditional c records only candidates governed by c, so
    # a second walk into c adds none; it repeats c's notes, which are
    # messages[start:end] of the first walk.
    walked: dict[str, tuple[int, int]] = {}

    def record(block: str, governor: str, branch_index: int):
        if (function, block) not in found:
            found[function, block] = CandidatePatchLocation(
                function=function,
                block=block,
                governing_conditional=governor,
                branch_index=branch_index,
                level=level,
            )

    for top in sorted(conditional, key=block_sort_key):
        if not dag.successors(top):
            continue
        # items are (block, governor, branch index) to walk into, or
        # (None, conditional, start) once a conditional's walk is complete
        stack = [(top, None, None)]
        while stack:
            block, governor, branch_index = stack.pop()
            if block is None:
                walked[governor] = (branch_index, len(messages))
            elif block not in conditional:
                record(block, governor, branch_index)
            elif block in walked:
                start, end = walked[block]
                messages.extend(messages[start:end])
            elif not dag.successors(block):
                # The walk ran out of path while still on conditionals.
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
                walked[block] = (len(messages) - 1, len(messages))
            else:
                stack.append((None, block, len(messages)))
                stack.extend(
                    (nxt, block, idx) for nxt, idx in reversed(dag.successors(block))
                )
    return messages


def candidate_locations(
    ppg: ProgramPathGraph, diagnostics: list[str] | None = None
) -> list[CandidatePatchLocation]:
    """Candidates ordered by level descending, then block id; deduplicated.

    Notes on degenerate paths are appended to `diagnostics`, once per frame
    occurrence on each chain, so a frame that recurs repeats its notes.
    """
    if diagnostics is None:
        diagnostics = []
    levels = function_levels(ppg)
    found: dict[tuple[str, str], CandidatePatchLocation] = {}
    # a frame's walk depends on the frame only, so each distinct frame is
    # walked once and its notes repeat wherever it recurs
    frame_notes: dict[Frame, list[str]] = {}
    any_conditional = False

    for chain_paths in ppg.chains:
        for frame_paths in chain_paths.frames:
            frame = frame_paths.frame
            if frame_paths.conditional:
                any_conditional = True
            if frame not in frame_notes:
                frame_notes[frame] = _walk_frame(
                    frame_paths, ppg, levels[frame.function], found
                )
            diagnostics.extend(frame_notes[frame])

    results = sorted(
        found.values(),
        key=lambda loc: (-loc.level, block_sort_key(loc.block), loc.function),
    )
    if not results and not any_conditional and not ppg.empty:
        diagnostics.append(
            "no conditional block lies on any vulnerable path; nothing to patch"
        )
    return results
