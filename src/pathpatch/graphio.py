"""Import and export of abstract program graphs, and the result report.

The graph document carries call graph shape, per-function block structure
with conditional labels, and the vulnerable statement. Control dependencies
are never part of the document: they are always recomputed from structure,
so a fixture cannot carry inconsistent labels.

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
from .record import Record

SCHEMA_GRAPH = "program-graph@1"
SCHEMA_REPORT = "patch-report@1"


class GraphImportError(IRError):
    pass


class GraphBlock(Record):
    id: str
    conditional: bool
    statements: tuple[str, ...] = ()


class GraphFunction(Record):
    name: str
    entry: str
    blocks: tuple[GraphBlock, ...]
    edges: tuple[tuple[str, str, int | None], ...]


class GraphDocument(Record):
    functions: tuple[GraphFunction, ...]
    calls: tuple[tuple[str, str, str], ...] = ()  # (caller, call_site, callee)
    vulnerable: tuple[str, str] | None = None  # (function, statement id)

    @staticmethod
    def from_json(text: str) -> "GraphDocument":
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphImportError(f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise GraphImportError("the document must be a JSON object")
        if raw.get("schema") != SCHEMA_GRAPH:
            raise GraphImportError(
                f"field 'schema': expected {SCHEMA_GRAPH!r}, got {raw.get('schema')!r}"
            )
        functions = []
        for fn in _items(raw, "functions"):
            blocks = tuple(
                GraphBlock(
                    id=str(_member(b, "id", "blocks")),
                    conditional=bool(b.get("conditional", False)),
                    statements=tuple(str(s) for s in _items(b, "statements")),
                )
                for b in _items(_object(fn, "functions"), "blocks")
            )
            edges = []
            for src, dst, index in _triples(fn, "edges"):
                if index is not None and not isinstance(index, int):
                    raise GraphImportError(
                        "field 'edges': a branch index must be an integer or null"
                    )
                edges.append((str(src), str(dst), None if index is None else int(index)))
            functions.append(
                GraphFunction(
                    name=str(_member(fn, "name", "functions")),
                    entry=str(_member(fn, "entry", "functions")),
                    blocks=blocks,
                    edges=tuple(edges),
                )
            )
        calls = tuple(tuple(str(part) for part in c) for c in _triples(raw, "calls"))
        vulnerable = None
        if raw.get("vulnerable") is not None:
            v = raw["vulnerable"]
            vulnerable = (
                str(_member(v, "function", "vulnerable")),
                str(_member(v, "statement", "vulnerable")),
            )
        return GraphDocument(
            functions=tuple(functions), calls=calls, vulnerable=vulnerable
        )

    def to_json(self) -> str:
        raw = {
            "schema": SCHEMA_GRAPH,
            "functions": [
                {
                    "name": fn.name,
                    "entry": fn.entry,
                    "blocks": [
                        {
                            "id": b.id,
                            "conditional": b.conditional,
                            "statements": list(b.statements),
                        }
                        for b in fn.blocks
                    ],
                    "edges": [list(e) for e in fn.edges],
                }
                for fn in self.functions
            ],
            "calls": [list(c) for c in self.calls],
            "vulnerable": (
                None
                if self.vulnerable is None
                else {"function": self.vulnerable[0], "statement": self.vulnerable[1]}
            ),
        }
        return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise GraphImportError(
            f"field {field!r}: expected an object, got {type(value).__name__}"
        )
    return value


def _member(record, key: str, field: str):
    """`record[key]`; a GraphImportError names the field when `record` is
    not an object or has no `key`."""
    if key not in _object(record, field):
        raise GraphImportError(f"field {field!r}: missing {key!r}")
    return record[key]


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


def load_graph_file(path) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return GraphDocument.from_json(handle.read())


def import_graph(doc: GraphDocument) -> IRProgram:
    """Build an analyzable (not executable) program from a graph document."""
    if not doc.functions:
        raise GraphImportError("field 'functions': document has no functions")
    functions: dict[str, IRFunction] = {}
    seen_statements: set[str] = set()
    call_sites = {}
    for caller, call_site, callee in doc.calls:
        call_sites.setdefault(call_site, []).append((caller, callee))
    for targets in call_sites.values():
        targets.sort()

    statement_owner: dict[str, str] = {}
    for fn in doc.functions:
        if fn.name in functions:
            raise GraphImportError(f"field 'functions': duplicate name {fn.name!r}")
        block_ids = set()
        for blk in fn.blocks:
            if blk.id in block_ids:
                raise GraphImportError(
                    f"field 'blocks': duplicate block id {blk.id!r} in {fn.name}"
                )
            block_ids.add(blk.id)
        if fn.entry not in block_ids:
            raise GraphImportError(
                f"field 'entry': block {fn.entry!r} not defined in {fn.name}"
            )
        out_edges: dict[str, list[tuple[str, int | None]]] = {b: [] for b in block_ids}
        for src, dst, index in fn.edges:
            if src not in block_ids:
                raise GraphImportError(
                    f"field 'edges': source block {src!r} not defined in {fn.name}"
                )
            if dst not in block_ids:
                raise GraphImportError(
                    f"field 'edges': target block {dst!r} not defined in {fn.name}"
                )
            out_edges[src].append((dst, index))

        blocks: dict[str, BasicBlock] = {}
        for blk in fn.blocks:
            statements = []
            for sid in blk.statements:
                if sid in seen_statements:
                    raise GraphImportError(
                        f"field 'statements': duplicate statement id {sid!r}"
                    )
                seen_statements.add(sid)
                statement_owner[sid] = fn.name
                targets = call_sites.get(sid, ())
                if not targets:
                    statements.append(Nop(id=sid))
                    continue
                # a call site may fan out to several callees (resolved
                # indirect calls); expand into one call per target, keeping
                # the document's id on the first so references still resolve
                for k, (caller, callee) in enumerate(targets):
                    if caller != fn.name:
                        raise GraphImportError(
                            f"field 'calls': call site {sid!r} is in {fn.name}, "
                            f"not {caller}"
                        )
                    expanded = sid if k == 0 else f"{sid}#{k}"
                    if k > 0:
                        if expanded in seen_statements:
                            raise GraphImportError(
                                f"field 'calls': expanded call id {expanded!r} collides"
                            )
                        seen_statements.add(expanded)
                        statement_owner[expanded] = fn.name
                    statements.append(
                        Call(
                            id=expanded,
                            target=None,
                            callee_name=callee,
                            callee_ref=None,
                            args=(),
                        )
                    )
            outs = out_edges[blk.id]
            if blk.conditional:
                if len(outs) != 2 or {index for _, index in outs} != {0, 1}:
                    raise GraphImportError(
                        f"field 'edges': conditional block {blk.id!r} in {fn.name} "
                        "needs exactly two edges with branch indices 0 and 1"
                    )
                by_index = {index: dst for dst, index in outs}
                terminator = Branch(
                    id=f"{fn.name}:{blk.id}:branch",
                    cond=Opaque(),
                    then_target=by_index[0],
                    else_target=by_index[1],
                )
            elif len(outs) > 1:
                raise GraphImportError(
                    f"field 'edges': non-conditional block {blk.id!r} in {fn.name} "
                    "has more than one outgoing edge"
                )
            elif outs:
                terminator = Jump(outs[0][0])
            else:
                terminator = Halt()
            blocks[blk.id] = BasicBlock(
                id=blk.id, statements=tuple(statements), terminator=terminator
            )
        functions[fn.name] = IRFunction(
            id=fn.name,
            name=fn.name,
            params=(),
            return_type=UNIT,
            blocks=blocks,
            entry_block=fn.entry,
        )

    for caller, call_site, callee in doc.calls:
        if caller not in functions:
            raise GraphImportError(f"field 'calls': unknown caller {caller!r}")
        if callee not in functions:
            raise GraphImportError(f"field 'calls': unknown callee {callee!r}")
        if call_site not in seen_statements:
            raise GraphImportError(
                f"field 'calls': call site {call_site!r} is not a statement"
            )

    if doc.vulnerable is not None:
        vuln_fn, vuln_stmt = doc.vulnerable
        if vuln_fn not in functions:
            raise GraphImportError(
                f"field 'vulnerable': unknown function {vuln_fn!r}"
            )
        if vuln_stmt not in seen_statements:
            raise GraphImportError(
                f"field 'vulnerable': unknown statement {vuln_stmt!r}"
            )
        if statement_owner.get(vuln_stmt) != vuln_fn:
            raise GraphImportError(
                f"field 'vulnerable': statement {vuln_stmt!r} is not in {vuln_fn}"
            )

    program = IRProgram(
        functions=functions,
        entry=doc.functions[0].name,
        source_map={},
        address_taken=frozenset(),
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
    lines.append(
        f"patches: {summary['patches']}   levels: {summary['levels']}   "
        f"best patch level: {summary['best_patch_level']}"
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
