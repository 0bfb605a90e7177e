"""Output checks by meaning, not bytes.

Fields are read by name, so a later schema that adds fields or reorders
them still passes; a missing field, a file that does not parse, or any
value that differs is a failed check. Expectations come from two places:
the rows recorded in expected.json when the benchmark landed, and the
facts each generator knows by construction (see workloads.py).
"""

from __future__ import annotations

import json
from pathlib import Path

# The corpus acceptance gate: on bmp_reader the direct caller's patch ranks
# first, preserving 85 of 87 cases.
ACCEPTANCE = {
    "corpus/bmp_reader": {"rank": 1, "function": "input_bmp_reader", "level": 1,
                          "passed": 85, "total": 87},
}


def report_rows(report: dict) -> list[list]:
    return [
        [r["patch"], r["passed"], r["total"], r["exploit_blocked"], r["rank"]]
        for r in report["patches"]
    ]


def candidate_rows(doc: dict) -> list[list]:
    return [[c["function"], c["block"], c["level"]] for c in doc["candidates"]]


def read_outputs(out_dir: Path) -> dict:
    """The three result documents; raises OSError or ValueError."""
    return {
        name: json.loads((out_dir / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("report", "candidates", "path_graph")
    }


def summarize(docs: dict) -> dict:
    """The checked facts of one invocation's outputs."""
    return {
        "rows": report_rows(docs["report"]),
        "candidates": candidate_rows(docs["candidates"]),
        "path_count": docs["path_graph"]["path_count"],
    }


def check(out_dir: Path, name: str, expected: dict | None, facts: dict) -> list[str]:
    """Every way the outputs in `out_dir` differ from what they must say."""
    try:
        docs = read_outputs(out_dir)
        got = summarize(docs)
        fuzz = docs["report"]["fuzz"]
        problems = _compare(name, docs, got, fuzz, expected, facts)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{name}: unreadable output ({type(exc).__name__}: {exc})"]
    return problems


def _compare(name, docs, got, fuzz, expected, facts) -> list[str]:
    problems = []
    if fuzz["vulnerable_faults"] != 0:
        problems.append(f"{name}: fuzz reached the vulnerable statement")
    if fuzz["cut_disconnects"] is not True:
        problems.append(f"{name}: candidate cut does not disconnect the vulnerability")
    if expected is None:
        problems.append(f"{name}: no recorded expectation")
    else:
        for key in ("rows", "candidates", "path_count"):
            if got[key] != expected[key]:
                problems.append(f"{name}: {key} differ from the recorded ones")
    rows = docs["report"]["patches"]
    gate = ACCEPTANCE.get(name)
    if gate is not None:
        first = next((r for r in rows if r["rank"] == 1), None)
        if first is None or any(first[k] != v for k, v in gate.items()):
            problems.append(f"{name}: acceptance gate row differs: {first}")
    if "path_count" in facts and got["path_count"] != facts["path_count"]:
        problems.append(f"{name}: path_count {got['path_count']} != {facts['path_count']}")
    # A path graph without enumerated chains is planned (ROADMAP C), so the
    # chain facts are checked only while the document still lists chains.
    chains = docs["path_graph"].get("chains")
    if chains is not None and "chains" in facts and len(chains) != facts["chains"]:
        problems.append(f"{name}: {len(chains)} chains, expected {facts['chains']}")
    if chains is not None and "frames_distinct" in facts:
        distinct = {(f["function"], f["target_statement"]) for c in chains for f in c["frames"]}
        if len(distinct) != facts["frames_distinct"]:
            problems.append(f"{name}: {len(distinct)} distinct frames")
    if "patches" in facts and len(rows) != facts["patches"]:
        problems.append(f"{name}: {len(rows)} patches, expected {facts['patches']}")
    by_line = facts.get("by_line", {})
    for r in rows:
        want = by_line.get(str(r["line"]))
        if by_line and want is None:
            problems.append(f"{name}: unexpected patch at line {r['line']}")
        elif want is not None and (
            r["passed"] != want["passed"]
            or r["total"] != facts["cases"]
            or r["exploit_blocked"] != want["exploit_blocked"]
        ):
            problems.append(
                f"{name}: patch at line {r['line']} gave {r['passed']}/{r['total']} "
                f"blocked={r['exploit_blocked']}, model says {want}"
            )
    return problems
