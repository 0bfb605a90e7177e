"""Import of abstract program graphs, and the result report.

The graph document carries call graph shape, per-function block structure
with conditional labels, and the vulnerable statement. Control dependencies
are never part of the document: they are always recomputed from structure,
so a fixture cannot carry inconsistent labels.

`import_graph` reads the parsed JSON straight into the IR, checking each
field where it reads it: names, entries, block and statement ids, edge
endpoints, call triples and the `vulnerable` pair are strings,
`conditional` is a boolean (absent means false), and a branch index is an
integer or null. A document with several faults reports the first one
this single pass meets.

Graph-imported programs have opaque statement bodies (nops with the given
ids); analyses accept them, execution rejects them.
"""

from __future__ import annotations

import json

from .ir import (
    UNIT,
    BasicBlock,
    Branch,
    Call,
    Halt,
    IRError,
    IRFunction,
    IRProgram,
    Jump,
    Nop,
    Opaque,
    validate_program,
)

SCHEMA_GRAPH = "program-graph@1"
SCHEMA_REPORT = "patch-report@1"


class GraphImportError(IRError):
    pass


def _text(value, field: str, what: str) -> str:
    """`value`, which must be a JSON string; the error names the field."""
    if not isinstance(value, str):
        raise GraphImportError(
            f"field {field!r}: {what} must be a string, got {type(value).__name__}"
        )
    return value


def _string(record, key: str, field: str) -> str:
    """The string `record[key]`; a GraphImportError names the field when
    `record` is not an object, has no `key`, or holds another type there."""
    if not isinstance(record, dict):
        raise GraphImportError(
            f"field {field!r}: expected an object, got {type(record).__name__}"
        )
    if key not in record:
        raise GraphImportError(f"field {field!r}: missing {key!r}")
    return _text(record[key], field, repr(key))


def _items(record: dict, key: str) -> list:
    """The list under `key` of an object (empty when absent)."""
    value = record.get(key, [])
    if not isinstance(value, list):
        raise GraphImportError(
            f"field {key!r}: expected a list, got {type(value).__name__}"
        )
    return value


def _triples(record: dict, key: str) -> list:
    """The list under `key`, each item a list of three: an edge or a call."""
    rows = _items(record, key)
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise GraphImportError(f"field {key!r}: expected lists of three items")
    return rows


def load_graph_file(path):
    """The parsed JSON of a graph document, for `import_graph`."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also too many digits
        raise GraphImportError(f"not valid JSON: {exc}") from exc


def embedded_vulnerability(doc: dict) -> tuple[str, str] | None:
    """The document's `vulnerable` pair, (function, statement id), or None."""
    v = doc.get("vulnerable")
    if v is None:
        return None
    return _string(v, "function", "vulnerable"), _string(v, "statement", "vulnerable")


def import_graph(doc) -> IRProgram:
    """Build an analyzable (not executable) program from a graph document,
    given as parsed JSON, checking each field where it is read."""
    if not isinstance(doc, dict):
        raise GraphImportError("the document must be a JSON object")
    if doc.get("schema") != SCHEMA_GRAPH:
        raise GraphImportError(
            f"field 'schema': expected {SCHEMA_GRAPH!r}, got {doc.get('schema')!r}"
        )
    documented = _items(doc, "functions")
    if not documented:
        raise GraphImportError("field 'functions': document has no functions")
    calls = [
        tuple(_text(part, "calls", "a call's caller, site or callee") for part in row)
        for row in _triples(doc, "calls")
    ]
    call_sites = {}
    for caller, call_site, callee in calls:
        call_sites.setdefault(call_site, []).append((caller, callee))
    for targets in call_sites.values():
        targets.sort()

    functions: dict[str, IRFunction] = {}
    statement_owner: dict[str, str] = {}  # every statement id, expanded ones too
    for fn in documented:
        name = _string(fn, "name", "functions")
        if name in functions:
            raise GraphImportError(f"field 'functions': duplicate name {name!r}")
        documented_blocks = _items(fn, "blocks")
        # each block's outgoing (target, branch index) edges
        out_edges: dict[str, list[tuple[str, int | None]]] = {}
        for blk in documented_blocks:
            bid = _string(blk, "id", "blocks")
            if bid in out_edges:
                raise GraphImportError(
                    f"field 'blocks': duplicate block id {bid!r} in {name}"
                )
            out_edges[bid] = []
        entry = _string(fn, "entry", "functions")
        if entry not in out_edges:
            raise GraphImportError(
                f"field 'entry': block {entry!r} not defined in {name}"
            )
        for src, dst, index in _triples(fn, "edges"):
            # JSON's `true` and `false` are no integers
            if index is not None and (not isinstance(index, int) or isinstance(index, bool)):
                raise GraphImportError(
                    "field 'edges': a branch index must be an integer or null"
                )
            if _text(src, "edges", "a source block") not in out_edges:
                raise GraphImportError(
                    f"field 'edges': source block {src!r} not defined in {name}"
                )
            if _text(dst, "edges", "a target block") not in out_edges:
                raise GraphImportError(
                    f"field 'edges': target block {dst!r} not defined in {name}"
                )
            out_edges[src].append((dst, index))

        blocks: dict[str, BasicBlock] = {}
        for blk in documented_blocks:
            bid = blk["id"]
            statements = []
            for sid in _items(blk, "statements"):
                if _text(sid, "statements", "a statement id") in statement_owner:
                    raise GraphImportError(
                        f"field 'statements': duplicate statement id {sid!r}"
                    )
                statement_owner[sid] = name
                targets = call_sites.get(sid, ())
                if not targets:
                    statements.append(Nop(id=sid))
                    continue
                # a call site may fan out to several callees (resolved
                # indirect calls); expand into one call per target, keeping
                # the document's id on the first so references still resolve
                for k, (caller, callee) in enumerate(targets):
                    if caller != name:
                        raise GraphImportError(
                            f"field 'calls': call site {sid!r} is in {name}, "
                            f"not {caller}"
                        )
                    expanded = sid if k == 0 else f"{sid}#{k}"
                    if k > 0:
                        if expanded in statement_owner:
                            raise GraphImportError(
                                f"field 'calls': expanded call id {expanded!r} collides"
                            )
                        statement_owner[expanded] = name
                    statements.append(
                        Call(
                            id=expanded,
                            target=None,
                            callee_name=callee,
                            callee_ref=None,
                            args=(),
                        )
                    )
            conditional = blk.get("conditional", False)
            if not isinstance(conditional, bool):
                raise GraphImportError(
                    f"field 'blocks': 'conditional' must be a boolean, "
                    f"got {type(conditional).__name__}"
                )
            outs = out_edges[bid]
            if conditional:
                if len(outs) != 2 or {index for _, index in outs} != {0, 1}:
                    raise GraphImportError(
                        f"field 'edges': conditional block {bid!r} in {name} "
                        "needs exactly two edges with branch indices 0 and 1"
                    )
                by_index = {index: dst for dst, index in outs}
                terminator = Branch(
                    id=f"{name}:{bid}:branch",
                    cond=Opaque(),
                    then_target=by_index[0],
                    else_target=by_index[1],
                )
            elif len(outs) > 1:
                raise GraphImportError(
                    f"field 'edges': non-conditional block {bid!r} in {name} "
                    "has more than one outgoing edge"
                )
            elif outs:
                terminator = Jump(outs[0][0])
            else:
                terminator = Halt()
            blocks[bid] = BasicBlock(
                id=bid, statements=tuple(statements), terminator=terminator
            )
        functions[name] = IRFunction(
            id=name,
            params=(),
            return_type=UNIT,
            blocks=blocks,
            entry_block=entry,
        )

    for caller, call_site, callee in calls:
        if caller not in functions:
            raise GraphImportError(f"field 'calls': unknown caller {caller!r}")
        if callee not in functions:
            raise GraphImportError(f"field 'calls': unknown callee {callee!r}")
        if call_site not in statement_owner:
            raise GraphImportError(
                f"field 'calls': call site {call_site!r} is not a statement"
            )

    vulnerable = embedded_vulnerability(doc)
    if vulnerable is not None:
        vuln_fn, vuln_stmt = vulnerable
        if vuln_fn not in functions:
            raise GraphImportError(
                f"field 'vulnerable': unknown function {vuln_fn!r}"
            )
        if vuln_stmt not in statement_owner:
            raise GraphImportError(
                f"field 'vulnerable': unknown statement {vuln_stmt!r}"
            )
        if statement_owner.get(vuln_stmt) != vuln_fn:
            raise GraphImportError(
                f"field 'vulnerable': statement {vuln_stmt!r} is not in {vuln_fn}"
            )

    program = IRProgram(
        functions=functions,
        entry=next(iter(functions)),
        source_map={},
        executable=False,
    )
    validate_program(program)
    return program


# ---------------------------------------------------------------------------
# Result report
# ---------------------------------------------------------------------------


def pfr_percent(passed: int, total: int) -> int:
    """Round half-up percentage, exact integer arithmetic."""
    if total == 0:
        return 0
    return (200 * passed + total) // (2 * total)


def pfr_display(passed: int, total: int) -> str:
    return f"{passed} ({pfr_percent(passed, total)}%)"


def build_report(evaluations, meta: dict | None = None) -> dict:
    """Machine-readable report rows plus summary, rank order."""
    rows = []
    for ev in sorted(evaluations, key=lambda e: e.rank):
        loc = ev.patch.location
        rows.append(
            {
                "rank": ev.rank,
                "patch": ev.patch.id,
                "function": loc.function,
                "block": loc.block,
                "line": ev.patch.line,
                "level": loc.level,
                "passed": ev.passed,
                "total": ev.total,
                "pfr": f"{ev.passed}/{ev.total}",
                "pfr_percent": pfr_percent(ev.passed, ev.total),
                "display": pfr_display(ev.passed, ev.total),
                "exploit_blocked": ev.exploit_blocked,
                "error": ev.error,
            }
        )
    best = rows[0] if rows else None
    summary = {
        "patches": len(rows),
        "levels": (meta or {}).get("levels", 0),
        "best_patch_level": best["level"] if best else None,
        "best_display": best["display"] if best else None,
    }
    report = {"schema": SCHEMA_REPORT, "summary": summary, "patches": rows}
    if meta:
        for key in ("program", "vulnerability", "suite", "fuzz"):
            if key in meta:
                report[key] = meta[key]
    return report


def render_report_text(report: dict) -> str:
    lines = []
    summary = report["summary"]
    best = summary["best_patch_level"]
    lines.append(
        f"patches: {summary['patches']}   levels: {summary['levels']}   "
        f"best patch level: {'n/a' if best is None else best}"
    )
    lines.append("")
    header = f"{'rank':>4}  {'location':<34} {'level':>5}  {'tests':<12} {'exploit':<8}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["patches"]:
        where = f"{row['function']}:{row['block']}"
        if row["line"] is not None:
            where += f" (line {row['line']})"
        blocked = {True: "blocked", False: "missed", None: "n/a"}[row["exploit_blocked"]]
        lines.append(
            f"{row['rank']:>4}  {where:<34} {row['level']:>5}  "
            f"{row['display']:<12} {blocked:<8}"
        )
    if report.get("fuzz"):
        fuzz = report["fuzz"]
        lines.append("")
        lines.append(
            f"fuzz: {fuzz['runs']} runs on fully patched program, "
            f"{fuzz['vulnerable_faults']} faults at the vulnerable statement"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
