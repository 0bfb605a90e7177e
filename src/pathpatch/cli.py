"""Command-line driver.

Three subcommands mirror the pipeline stages, plus one that chains them:

    pathpatch analyze  --program P --vuln V [--out DIR]
    pathpatch locate   --program P --vuln V [--out DIR]
    pathpatch evaluate --program P --vuln V --suite S [--out DIR] [--fuzz N]
                       [--seed N] [--max-steps N] [--max-heap-cells N] [--jobs N]
    pathpatch all      the flags of analyze and evaluate together

Each subcommand takes only the flags that change what it does; `--jobs`
is accepted and has no effect, since evaluation is serial. Programs are
MiniLang sources (.mini) or graph documents (.json, analyzable but not
executable); the extension decides which. The vulnerability spec is a
small JSON file naming the function plus a statement id or source line,
optionally with an exploit input; graph documents may embed the
vulnerable statement instead. Every subcommand builds the program path
graph once and shares it between phases, and every subcommand but analyze
computes the candidate locations once.

`analyze` writes `path_graph.json` (schema `path-graph@3`). It lists each
distinct frame (function and call site) once under `frames`, with an `id`,
its path DAG's blocks and edges, its governing conditionals, its own
`path_count`, and `next`: the ids of the frames that follow it on some
call chain, in the order the chain search tries the call edges. Each edge
`[source, target, branch, increment]` carries its Ball–Larus increment,
so a frame's paths are numbered 0 .. path_count - 1 by the sum of the
increments along them. The call chains, in order, are the walks that
start at an entry frame (one that no `next` names, in id order), follow
`next` in its order, repeat no function and end at the vulnerable frame
(the one with an empty `next`); with recursion the frames can form a
cycle, which no chain closes.
`chain_count` counts the chains, and the top-level `path_count` the
maximal paths. No chain or path is listed, so the document grows with the
frames and their DAGs, not with the chains or paths. Neither is any chain
listed in memory: the counts come from the frame graph, and only
recursion, a dropped chain or a candidate note repeated on every chain
makes the analysis walk the chains one by one, under a fixed budget
(`paths.WALK_BUDGET`).

Diagnostics are data: the path graph's notes go to `path_graph.json` and,
once per run of every subcommand, to `note:` lines on stderr; the
candidate walk's notes go to `candidates.json` and to locate's `warning:`
lines. No Python warning is raised, so `-W error` changes nothing.

Exit codes: 0 success, 2 usage (an output file that cannot be written
included), 3 input/parse error, 4 analysis diagnostic (for example a
vulnerability no call chain can reach, or a chain walk that runs past its
budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import AnalysisError
from .checks import cut_disconnects, fuzz_vulnerability
from .graphio import (
    GraphImportError,
    build_report,
    embedded_vulnerability,
    import_graph,
    load_graph_file,
    render_report_text,
    report_to_json,
)
from .harness import Limits, SuiteError, evaluate_patches, load_suite, rank
from .ir import IRError
from .locate import candidate_locations
from .minilang import FrontendError, load_program
from .minilang.interp import DEFAULT_MAX_HEAP_CELLS, DEFAULT_MAX_STEPS
from .paths import (
    Exploit,
    build_program_path_graph,
    chain_facts,
    count_frame_paths,
    count_paths,
    path_increments,
    resolve_vulnerability,
)
from .synth import patch_returns, synthesize_patches

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DIAGNOSTIC = 4


class UsageError(Exception):
    pass


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathpatch",
        description=(
            "Find the paths leading to a vulnerability, pick patch "
            "locations on them, synthesize error-return patches, and rank "
            "the patches by preserved functionality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "locate", "evaluate", "all"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--program", required=True, help="program file (.mini or .json)")
        cmd.add_argument("--vuln", help="vulnerability spec file (JSON)")
        cmd.add_argument("--out", help="directory for result files")
        if name in ("evaluate", "all"):
            cmd.add_argument("--suite", help="test suite file")
            cmd.add_argument(
                "--fuzz",
                type=int,
                default=0,
                metavar="N",
                help="also fuzz the fully patched program with N random inputs",
            )
            cmd.add_argument("--seed", type=int, default=0, help="seed for --fuzz inputs")
            cmd.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
            cmd.add_argument("--max-heap-cells", type=int, default=DEFAULT_MAX_HEAP_CELLS)
            cmd.add_argument(
                "--jobs", type=int, default=1, help="has no effect; evaluation is serial"
            )
    return parser


def input_file(name: str, what: str) -> Path:
    """The path `name` of an input file, which must exist and be no directory."""
    path = Path(name)
    if not path.exists():
        raise UsageError(f"{what} {name!r} does not exist")
    if path.is_dir():
        raise UsageError(f"{what} {name!r} is a directory")
    return path


def load_inputs(args):
    """Load program and vulnerability spec; returns (program, vuln)."""
    if "jobs" in args and args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if "max_steps" in args and args.max_steps < 1:
        raise UsageError("--max-steps must be at least 1")
    if "max_heap_cells" in args and args.max_heap_cells < 1:
        raise UsageError("--max-heap-cells must be at least 1")
    if "fuzz" in args and args.fuzz < 0:
        raise UsageError("--fuzz must be at least 0")
    if args.out:  # refuse an unusable --out before the work, not after it
        out = Path(args.out)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise UsageError(
                f"output directory {args.out!r}: {str(existing)!r} is not a directory"
            )
    program_path = input_file(args.program, "program file")
    vuln_raw = None
    if args.vuln:
        vuln_path = input_file(args.vuln, "vulnerability spec")
        try:
            vuln_raw = json.loads(vuln_path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # ValueError: also too many digits
            raise SuiteError(f"vulnerability spec is not valid JSON: {exc}") from exc

    if args.program.endswith(".json"):
        doc = load_graph_file(program_path)
        program = import_graph(doc)
        embedded = embedded_vulnerability(doc)
        if vuln_raw is not None:
            vuln = _vuln_from_json(program, vuln_raw)
        elif embedded is not None:
            vuln = resolve_vulnerability(program, embedded[0], statement=embedded[1])
        else:
            raise UsageError(
                "graph document embeds no vulnerability; pass --vuln"
            )
        return program, vuln

    program = load_program(program_path)
    if vuln_raw is None:
        raise UsageError("--vuln is required for MiniLang programs")
    return program, _vuln_from_json(program, vuln_raw)


def _vuln_from_json(program, raw):
    if not isinstance(raw, dict) or not isinstance(raw.get("function"), str):
        raise SuiteError("vulnerability spec needs a 'function' field naming a function")
    exploit = None
    spec = _spec_field(raw, "exploit", dict, "an object")
    if spec is not None:
        inputs = _spec_field(spec, "input", list, "a list of integers") or ()
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in inputs):
            raise SuiteError(
                "vulnerability spec field 'input' must be a list of integers"
            )
        kind = _spec_field(spec, "kind", str, "a string")
        exploit = Exploit(input=tuple(inputs), kind=kind)
    return resolve_vulnerability(
        program,
        raw["function"],
        statement=_spec_field(raw, "statement", str, "a string"),
        line=_spec_field(raw, "line", int, "an integer"),
        exploit=exploit,
    )


def _spec_field(record: dict, key: str, kind: type, what: str):
    """`record[key]`, None when absent or null, else checked to be a `kind`;
    JSON's `true` and `false` are no integers."""
    value = record.get(key)
    if value is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SuiteError(f"vulnerability spec field {key!r} must be {what}")
    return value


def write_out(args, name: str, text: str) -> None:
    if args.out:
        path = Path(args.out) / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def path_graph_document(program, ppg) -> dict:
    """The `path-graph@3` document: each distinct frame once, with the
    frames that follow it on some chain and its DAG's Ball–Larus
    increments; no chain or path is listed."""
    frames = []
    for i, (fp, after) in enumerate(zip(ppg.frames, ppg.following)):
        blocks = program.functions[fp.frame.function].blocks
        frames.append(
            {
                "id": i,
                "function": fp.frame.function,
                "target_statement": fp.target_statement,
                "blocks": [
                    {"id": b, "conditional": b in fp.conditional, "line": blocks[b].line}
                    for b in fp.dag.blocks
                ],
                "edges": [
                    [*edge, inc]
                    for edge, inc in zip(fp.dag.edges, path_increments(fp.dag))
                ],
                "governing_conditionals": [list(g) for g in fp.governing],
                "path_count": count_frame_paths(fp.dag),
                "next": list(after),
            }
        )
    return {
        "schema": "path-graph@3",
        "vulnerability": {
            "function": ppg.vulnerability.function,
            "statement": ppg.vulnerability.statement,
        },
        "frames": frames,
        "chain_count": chain_facts(ppg).chains,
        "path_count": count_paths(ppg),
        "diagnostics": list(ppg.diagnostics),
    }


def writable_counts(doc) -> None:
    """Raise AnalysisError when a path count in `doc` has more decimal
    digits than Python writes (`sys.get_int_max_str_digits()`). The
    top-level count bounds every frame's, and a frame's count bounds its
    Ball–Larus increments."""
    largest = max([doc["path_count"]] + [frame["path_count"] for frame in doc["frames"]])
    limit = sys.get_int_max_str_digits()
    if limit and largest >= 10**limit:
        raise AnalysisError(
            f"a path count of {largest.bit_length()} bits is too long to write "
            f"(more than {limit} decimal digits)"
        )


def cmd_analyze(args, program, vuln, ppg) -> int:
    doc = path_graph_document(program, ppg)
    writable_counts(doc)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_out(args, "path_graph.json", text)
    print(
        f"{doc['chain_count']} call chain(s), {doc['path_count']} maximal path(s) "
        f"to statement {vuln.statement} in {vuln.function}"
    )
    if not args.out:
        print(text, end="")
    return EXIT_OK


def cmd_locate(args, program, vuln, locations, notes) -> int:
    rows = []
    for loc in locations:
        line = program.functions[loc.function].blocks[loc.block].line
        rows.append(
            {
                "function": loc.function,
                "block": loc.block,
                "line": line,
                "level": loc.level,
                "governing_conditional": loc.governing_conditional,
                "branch_index": loc.branch_index,
            }
        )
    doc = {
        "schema": "candidates@1",
        "vulnerability": {"function": vuln.function, "statement": vuln.statement},
        "candidates": rows,
        "warnings": notes,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_out(args, "candidates.json", text)
    print(f"{len(rows)} candidate patch location(s)")
    for row in rows:
        where = f"{row['function']}:{row['block']}"
        if row["line"] is not None:
            where += f" (line {row['line']})"
        print(f"  level {row['level']}  {where}")
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if not args.out:
        print(text, end="")
    return EXIT_OK


def evaluation_suite(args, program, vuln):
    """The suite `evaluate` runs, once the program is known to be runnable."""
    if not program.executable:
        raise UsageError(
            "graph documents carry structure only and cannot be "
            "executed; evaluation needs a MiniLang program"
        )
    if not args.suite:
        raise UsageError("evaluate requires --suite")
    return load_suite(input_file(args.suite, "suite file")).with_vulnerability(vuln)


def cmd_evaluate(args, program, vuln, ppg, locations, suite) -> int:
    patches = synthesize_patches(program, locations)
    limits = Limits(max_steps=args.max_steps, max_heap_cells=args.max_heap_cells)
    evaluations = rank(evaluate_patches(program, patches, suite, limits))

    meta = {
        "program": Path(args.program).name,
        "vulnerability": {
            "function": vuln.function,
            "statement": vuln.statement,
        },
        "suite": {"cases": len(suite.cases), "exploit": suite.exploit is not None},
        "levels": chain_facts(ppg).longest,
    }
    if args.fuzz:
        runs, hits = fuzz_vulnerability(
            program,
            vuln.statement,
            runs=args.fuzz,
            seed=args.seed,
            max_steps=limits.max_steps,
            max_heap_cells=limits.max_heap_cells,
            patches=patch_returns(program, patches),
        )
        meta["fuzz"] = {
            "runs": runs,
            "vulnerable_faults": hits,
            "cut_disconnects": cut_disconnects(program, vuln.statement, locations),
        }
    report = build_report(evaluations, meta)
    json_text = report_to_json(report)
    text = render_report_text(report)
    write_out(args, "report.json", json_text)
    write_out(args, "report.txt", text)
    if args.out:
        summary = report["summary"]
        best = (
            f"; best: {summary['best_display']} at level {summary['best_patch_level']}"
            if summary["patches"]
            else ""
        )
        print(
            f"{summary['patches']} patch(es) evaluated{best} "
            f"(report.json, report.txt in {args.out})"
        )
    else:
        print(text, end="")
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        program, vuln = load_inputs(args)
        # evaluate rejects an unrunnable program or a bad suite before any
        # analysis; `all` checks them only after analyze and locate wrote
        if args.command == "evaluate":
            suite = evaluation_suite(args, program, vuln)
        ppg = build_program_path_graph(program, vuln)
        if ppg.empty:
            for diag in ppg.diagnostics:
                print(f"error: {diag}", file=sys.stderr)
            return EXIT_DIAGNOSTIC
        for diag in ppg.diagnostics:
            print(f"note: {diag}", file=sys.stderr)
        if args.command == "analyze":
            return cmd_analyze(args, program, vuln, ppg)
        notes: list[str] = []
        locations = candidate_locations(ppg, notes)
        if args.command == "locate":
            return cmd_locate(args, program, vuln, locations, notes)
        if args.command == "evaluate":
            return cmd_evaluate(args, program, vuln, ppg, locations, suite)
        # all: the three phases in order, on one path graph and one list of
        # candidates
        cmd_analyze(args, program, vuln, ppg)
        cmd_locate(args, program, vuln, locations, notes)
        return cmd_evaluate(
            args, program, vuln, ppg, locations, evaluation_suite(args, program, vuln)
        )
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FrontendError, GraphImportError, SuiteError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except IRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
