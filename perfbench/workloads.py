"""Benchmark workloads: the corpus, plus three generated programs.

Each generator is deterministic in its seed. The seed picks case order,
input values within a route and the constants the program prints; the
route plan (which blocks each case enters) is fixed, so the work per
invocation and every checked report field are the same for every seed.
Expected suite outputs come from each generator's own Python model of the
program it writes, never from pathpatch's interpreter. The model also
predicts, per patched source line, how many cases still pass and whether
the exploit is blocked.

Every program is MiniLang; `cmod`/`cdiv` mirror its C-style `%` and `/`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CORPUS_PROGRAMS = ("bmp_reader", "mandatory", "twopath", "sideeffect", "dispatch")

# Why each workload exists; printed by run.py and repeated in BENCHMARK.json.
WHY = {
    "corpus": "the five hand-written corpus programs, one fresh process each; at "
    "10-100 ms of work per run, import and other fixed per-process costs dominate",
    "suite-heavy": "300 short cases x 39 patches; patch evaluation dominates and "
    "about one (patch, case) run in five enters the patched block",
    "loop-heavy": "12 cases, each an 800-2400 iteration loop calling the vulnerable "
    "function; level-0 patches keep it running, most runs enter the patched block",
    "chain-fanout": "call fan-out N=9: 512 chains over 20 distinct frames; path "
    "graph, locate and path_graph.json dominate, evaluation is small",
}


def cdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def cmod(a: int, b: int) -> int:
    return a - cdiv(a, b) * b


class Fault(Exception):
    """The model reached the vulnerable statement with a bad index."""


class PatchReturn(Exception):
    """The model entered the patched block: the function returns -1."""


@dataclass
class Invocation:
    """One `pathpatch all` run and what its outputs must say."""

    name: str
    program: str
    vuln: str
    suite: str
    # by-construction facts: chains, path_count, cases, and per patched
    # source line the expected passed count and exploit outcome
    facts: dict = field(default_factory=dict)


class Source:
    """MiniLang text that remembers the line of each marked statement."""

    def __init__(self):
        self.lines: list[str] = []
        self.marks: dict[str, int] = {}

    def add(self, text: str, mark: str | None = None) -> None:
        self.lines.append(text)
        if mark is not None:
            self.marks[mark] = len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _suite_text(cases, exploit) -> str:
    lines = []
    for name, inputs, expect in cases:
        lines.append(
            f"{name} | input: {','.join(map(str, inputs))} | "
            f"expect: {','.join(map(str, expect))}"
        )
    lines.append(f"exploit | input: {','.join(map(str, exploit))} | expect: FAULT oob")
    return "\n".join(lines) + "\n"


def _patch_facts(model, marks, cases, exploit) -> dict:
    """Run the model once per patched line: passed count, exploit blocked."""
    facts = {}
    for mark, line in sorted(marks.items(), key=lambda kv: kv[1]):
        passed = 0
        for _, inputs, expect in cases:
            try:
                passed += model(inputs, mark) == expect
            except Fault:
                pass
        try:
            model(exploit, mark)
            blocked = True
        except Fault:
            blocked = False
        facts[str(line)] = {"passed": passed, "exploit_blocked": blocked}
    return facts


def _write(directory: Path, name: str, src: Source, vuln_mark: str, cases,
           exploit, facts: dict) -> Invocation:
    directory.mkdir(parents=True, exist_ok=True)
    program = directory / f"{name}.mini"
    vuln = directory / f"{name}.vuln.json"
    suite = directory / f"{name}.suite"
    program.write_text(src.text(), encoding="utf-8")
    fn = vuln_mark.split(":")[0]
    vuln.write_text(
        json.dumps({"function": fn, "line": src.marks[vuln_mark]}, indent=2) + "\n",
        encoding="utf-8",
    )
    suite.write_text(_suite_text(cases, exploit), encoding="utf-8")
    facts["cases"] = len(cases)
    return Invocation(name, str(program), str(vuln), str(suite), facts)


# ---------------------------------------------------------------------------
# suite-heavy: main -> stage_j -> sink, 300 cases
# ---------------------------------------------------------------------------

STAGES = 13
SUITE_CASES = 300


def suite_heavy(directory: Path, seed: int) -> list[Invocation]:
    rng = random.Random(f"suite-heavy/{seed}")
    plan = random.Random("suite-heavy/plan")
    low = [10 + cmod(j * 7, 30) for j in range(STAGES)]   # 'x < low' branch
    high = [40 + cmod(j * 5, 8) for j in range(STAGES)]  # 'x > high' reaches sink
    add = [rng.randint(1, 9) for _ in range(STAGES)]
    buf = [rng.randint(1, 99) for _ in range(8)]

    src = Source()
    src.add(f"# suite-heavy workload, seed {seed}")
    src.add("fn sink(buf: ref, i: int) -> int {")
    src.add("    let v: int = 0;")
    src.add("    v = buf[i];", mark="sink:vuln")
    src.add("    return v;")
    src.add("}")
    for j in range(STAGES):
        src.add("")
        src.add(f"fn stage_{j}(acc: int, x: int, buf: ref) -> int {{")
        src.add(f"    let r: int = acc + {add[j]};")
        src.add("    let s: int = 0;")
        src.add(f"    if (x < {low[j]}) {{")
        src.add("        r = r + 3;", mark=f"low:{j}")
        src.add("    }")
        src.add(f"    if (x > {high[j]}) {{")
        src.add(f"        s = sink(buf, x - {high[j]});", mark=f"high:{j}")
        src.add("        r = r + s;")
        src.add("    }")
        src.add("    return r;")
        src.add("}")
    src.add("")
    src.add("fn main() -> int {")
    src.add("    let m: int = read_input();")
    src.add("    let x: int = read_input();")
    src.add("    let buf: ref = alloc(8);")
    for k, value in enumerate(buf):
        src.add(f"    buf[{k}] = {value};")
    src.add("    let acc: int = 0;")
    for j in range(STAGES):
        src.add(f"    if ((m / {2 ** j}) % 2 == 1) {{")
        src.add(f"        acc = stage_{j}(acc, x, buf);", mark=f"main:{j}")
        src.add("    }")
    src.add("    print(acc);")
    src.add("    return 0;")
    src.add("}")

    def model(inputs, patched=None):
        m, x = inputs
        acc = 0
        for j in range(STAGES):
            if cmod(cdiv(m, 2 ** j), 2) != 1:
                continue
            if patched == f"main:{j}":
                return ()  # main returns before printing
            r = acc + add[j]
            if x < low[j]:
                if patched == f"low:{j}":
                    acc = -1
                    continue
                r += 3
            if x > high[j]:
                if patched == f"high:{j}":
                    acc = -1
                    continue
                i = x - high[j]
                if not 0 <= i < len(buf):
                    raise Fault
                r += buf[i]
            acc = r
        return (acc,)

    # x only matters through which thresholds it crosses; the plan fixes
    # that interval per case and the seed picks x inside it
    cuts = sorted({0, 48, *low, *(h + 1 for h in high)})
    intervals = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    routes = []
    for _ in range(SUITE_CASES):
        m = sum(2 ** j for j in range(STAGES) if plan.random() < 0.45)
        routes.append((m, plan.randrange(len(intervals))))
    rng.shuffle(routes)
    cases = []
    for k, (m, iv) in enumerate(routes):
        lo, hi = intervals[iv]
        inputs = (m, rng.randrange(lo, hi))
        cases.append((f"case_{k:03d}", inputs, model(inputs)))
    exploit = (2 ** 4, 500)

    marks = {k: v for k, v in src.marks.items() if k != "sink:vuln"}
    facts = {
        "chains": STAGES,
        # main frame of stage j: 2**j ways through the earlier ifs; stage
        # frame: two ways through its 'low' if
        "path_count": sum(2 ** j * 2 for j in range(STAGES)),
        "patches": len(marks),
        "by_line": _patch_facts(model, marks, cases, exploit),
    }
    return [_write(directory, "suite_heavy", src, "sink:vuln", cases, exploit, facts)]


# ---------------------------------------------------------------------------
# loop-heavy: main's loop calls decode (the vulnerable function) n times
# ---------------------------------------------------------------------------

LOOP_CASES = 12
LOOP_ITERATIONS = (800, 2400)
ACC_MOD = 65521


def loop_heavy(directory: Path, seed: int) -> list[Invocation]:
    rng = random.Random(f"loop-heavy/{seed}")
    plan = random.Random("loop-heavy/plan")
    buf = [rng.randint(1, 99) for _ in range(8)]

    src = Source()
    src.add(f"# loop-heavy workload, seed {seed}")
    src.add("fn decode(buf: ref, i: int, key: int, off: int) -> int {")
    src.add("    let v: int = 0;")
    src.add("    let j: int = (i * 5 + key) % 8;")
    src.add("    if (j > 5) {")
    src.add("        v = 7;", mark="decode:odd")
    src.add("    }")
    src.add("    if (key > 2) {")
    src.add("        v = v + key;", mark="decode:key")
    src.add("    }")
    src.add("    if (key > 0) {")
    src.add("        v = v + buf[j + off];", mark="decode:vuln")
    src.add("    }")
    src.add("    return v;")
    src.add("}")
    src.add("")
    src.add("fn main() -> int {")
    src.add("    let n: int = read_input();")
    src.add("    let key: int = read_input();")
    src.add("    let off: int = read_input();")
    src.add("    let buf: ref = alloc(8);")
    for k, value in enumerate(buf):
        src.add(f"    buf[{k}] = {value};")
    src.add("    let acc: int = 0;")
    src.add("    let i: int = 0;")
    src.add("    let d: int = 0;")
    src.add("    while (i < n) {")
    src.add("        d = decode(buf, i, key, off);", mark="main:loop")
    src.add(f"        acc = (acc * 31 + d) % {ACC_MOD};")
    src.add("        i = i + 1;")
    src.add("    }")
    src.add("    print(acc);")
    src.add("    return 0;")
    src.add("}")

    def decode(i, key, off, patched):
        v = 0
        j = cmod(i * 5 + key, 8)
        if j > 5:
            if patched == "decode:odd":
                raise PatchReturn
            v = 7
        if key > 2:
            if patched == "decode:key":
                raise PatchReturn
            v += key
        if key > 0:
            if patched == "decode:vuln":
                raise PatchReturn
            if not 0 <= j + off < len(buf):
                raise Fault
            v += buf[j + off]
        return v

    def model(inputs, patched=None):
        n, key, off = inputs
        acc = 0
        for i in range(n):
            if patched == "main:loop":
                return ()
            try:
                d = decode(i, key, off, patched)
            except PatchReturn:
                d = -1
            acc = cmod(acc * 31 + d, ACC_MOD)
        return (acc,)

    # key classes: 0 skips the buffer read, 1..2 reads it, 3..9 also adds key
    key_class = [(0, 0), (1, 2), (3, 9)]
    routes = [
        (plan.randint(*LOOP_ITERATIONS), key_class[0 if k < 2 else 1 if k < 4 else 2])
        for k in range(LOOP_CASES)
    ]
    rng.shuffle(routes)
    cases = []
    for k, (n, (klo, khi)) in enumerate(routes):
        inputs = (n, rng.randint(klo, khi), 0)
        cases.append((f"case_{k:02d}", inputs, model(inputs)))
    exploit = (50, 1, 100)

    facts = {
        "chains": 1,
        "path_count": 4,  # main: 1; decode: two ways through each of two ifs
        "patches": len(src.marks),
        "by_line": _patch_facts(model, src.marks, cases, exploit),
    }
    return [_write(directory, "loop_heavy", src, "decode:vuln", cases, exploit, facts)]


# ---------------------------------------------------------------------------
# chain-fanout: f_i calls f_{i+1} from two sites, N = 9
# ---------------------------------------------------------------------------

FANOUT_N = 9
FANOUT_CASES = 30
FANOUT_BUF = 32


def chain_fanout(directory: Path, seed: int) -> list[Invocation]:
    rng = random.Random(f"chain-fanout/{seed}")
    plan = random.Random("chain-fanout/plan")
    limit = [12 + cmod(i * 3, 7) for i in range(FANOUT_N)]
    buf = [rng.randint(1, 99) for _ in range(FANOUT_BUF)]

    def callee(i):
        return "sink" if i == FANOUT_N - 1 else f"f_{i + 1}"

    src = Source()
    src.add(f"# chain-fanout workload, N={FANOUT_N}, seed {seed}")
    src.add("fn sink(x: int, buf: ref) -> int {")
    src.add("    let v: int = 0;")
    src.add("    v = buf[x];", mark="sink:vuln")
    src.add("    return v;")
    src.add("}")
    for i in reversed(range(FANOUT_N)):
        src.add("")
        src.add(f"fn f_{i}(x: int, buf: ref) -> int {{")
        src.add("    let r: int = 0;")
        src.add(f"    if (x > {limit[i]}) {{")
        src.add(f"        r = {callee(i)}(x - 1, buf);", mark=f"f_{i}:down")
        src.add("    } else {")
        src.add(f"        r = {callee(i)}(x + 1, buf);", mark=f"f_{i}:up")
        src.add("    }")
        src.add("    return r;")
        src.add("}")
    src.add("")
    src.add("fn main() -> int {")
    src.add("    let mode: int = read_input();")
    src.add("    let x: int = read_input();")
    src.add(f"    let buf: ref = alloc({FANOUT_BUF});")
    for k, value in enumerate(buf):
        src.add(f"    buf[{k}] = {value};")
    src.add("    let out: int = 0;")
    src.add("    if (mode == 1) {")
    src.add("        out = f_0(x, buf);", mark="main:call")
    src.add("    }")
    src.add("    print(out);")
    src.add("    return 0;")
    src.add("}")

    def model(inputs, patched=None):
        mode, x = inputs
        if mode != 1:
            return (0,)
        if patched == "main:call":
            return ()
        for i in range(FANOUT_N):
            step = "down" if x > limit[i] else "up"
            if patched == f"f_{i}:{step}":
                return (-1,)
            x = x - 1 if step == "down" else x + 1
        if not 0 <= x < FANOUT_BUF:
            raise Fault
        return (buf[x],)

    # x in [N, BUF - N) keeps the final index in range on every route
    routes = [(0 if k < 6 else 1, plan.randrange(FANOUT_N, FANOUT_BUF - FANOUT_N))
              for k in range(FANOUT_CASES)]
    rng.shuffle(routes)
    cases = [(f"case_{k:02d}", r, model(r)) for k, r in enumerate(routes)]
    exploit = (1, 100)

    marks = {k: v for k, v in src.marks.items() if k != "sink:vuln"}
    facts = {
        "chains": 2 ** FANOUT_N,
        "path_count": 2 ** FANOUT_N,  # one intraprocedural path per frame
        "frames_distinct": 2 * FANOUT_N + 2,  # main, two per f_i, sink
        "patches": len(marks),
        "by_line": _patch_facts(model, marks, cases, exploit),
    }
    return [_write(directory, "chain_fanout", src, "sink:vuln", cases, exploit, facts)]


# ---------------------------------------------------------------------------
# corpus: the committed programs (run.py shuffles each round by the seed)
# ---------------------------------------------------------------------------


def corpus(root: Path) -> list[Invocation]:
    base = root / "corpus"
    return [
        Invocation(
            name,
            str(base / f"{name}.mini"),
            str(base / f"{name}.vuln.json"),
            str(base / f"{name}.suite"),
        )
        for name in CORPUS_PROGRAMS
    ]


GENERATORS = {
    "suite-heavy": suite_heavy,
    "loop-heavy": loop_heavy,
    "chain-fanout": chain_fanout,
}


def make(workload: str, directory: Path, seed: int, root: Path) -> list[Invocation]:
    """Write the workload's inputs under `directory`; one Invocation each.
    The corpus is committed, so it writes nothing and ignores the seed."""
    if workload == "corpus":
        return corpus(root)
    return GENERATORS[workload](directory, seed)
