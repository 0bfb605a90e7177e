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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .ir import block_sort_key
from .paths import DegeneratePathWarning, Frame, FramePaths, ProgramPathGraph


@dataclass(frozen=True)
class CandidatePatchLocation:
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


def patch_level(location: CandidatePatchLocation, ppg: ProgramPathGraph) -> int:
    """Smallest frame distance from the vulnerable function, over all chains."""
    levels = function_levels(ppg)
    if location.function not in levels:
        raise ValueError(f"{location.function} is on no chain of this path graph")
    return levels[location.function]


def _walk_frame(
    frame_paths: FramePaths,
    ppg: ProgramPathGraph,
    level: int,
    found: dict[tuple[str, str], CandidatePatchLocation],
) -> list[str]:
    """Record one frame's candidates in `found`, where the first found
    wins, and return the warnings its walk raises, in order."""
    dag = frame_paths.dag
    function = frame_paths.frame.function
    conditional = frame_paths.conditional
    messages: list[str] = []
    # Walking into conditional c records only candidates governed by c, so
    # a second walk into c adds none; it repeats c's warnings, which are
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


def candidate_locations(ppg: ProgramPathGraph) -> list[CandidatePatchLocation]:
    """Candidates ordered by level descending, then block id; deduplicated."""
    levels = function_levels(ppg)
    found: dict[tuple[str, str], CandidatePatchLocation] = {}
    # a frame's walk depends on the frame only, so each distinct frame is
    # walked once and its warnings repeat wherever it recurs
    frame_warnings: dict[Frame, list[str]] = {}
    any_conditional = False

    for chain_paths in ppg.chains:
        for frame_paths in chain_paths.frames:
            frame = frame_paths.frame
            if frame_paths.conditional:
                any_conditional = True
            if frame not in frame_warnings:
                frame_warnings[frame] = _walk_frame(
                    frame_paths, ppg, levels[frame.function], found
                )
            for message in frame_warnings[frame]:
                warnings.warn(message, DegeneratePathWarning, stacklevel=2)

    results = sorted(
        found.values(),
        key=lambda loc: (-loc.level, block_sort_key(loc.block), loc.function),
    )
    if not results and not any_conditional and not ppg.empty:
        warnings.warn(
            "no conditional block lies on any vulnerable path; nothing to patch",
            DegeneratePathWarning,
            stacklevel=2,
        )
    return results
