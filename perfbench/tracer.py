"""Outside-in tracing of pathpatch's public functions.

`install` wraps each function in TARGETS wherever a pathpatch module holds
it, so calls through `from .x import f` names are caught as well; no
source file changes. Each call becomes a span (layer, function, start, end,
parent) kept in memory; `restore` puts the original functions back.
A target that no longer exists is reported as missing, never an error.

`layer_metrics` turns the spans of one invocation into per-layer numbers.
Only the traced child imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, function). Several functions may share a layer.
TARGETS = (
    ("minilang.load", "pathpatch.minilang", "load_program"),
    ("minilang.interp", "pathpatch.minilang.interp", "run_program"),
    ("analysis.call_graph", "pathpatch.analysis", "build_call_graph"),
    ("analysis.cdg", "pathpatch.analysis", "compute_postdominators"),
    ("analysis.cdg", "pathpatch.analysis", "compute_control_dependencies"),
    ("paths.ppg", "pathpatch.paths", "build_program_path_graph"),
    ("paths.intraprocedural", "pathpatch.paths", "intraprocedural_paths"),
    ("paths.count", "pathpatch.paths", "count_paths"),
    ("paths.enumerate", "pathpatch.paths", "enumerate_paths"),
    ("locate", "pathpatch.locate", "candidate_locations"),
    ("synth", "pathpatch.synth", "synthesize_patches"),
    ("synth.apply", "pathpatch.synth", "apply_patch"),
    ("harness.suite", "pathpatch.harness", "load_suite"),
    ("harness.evaluate", "pathpatch.harness", "evaluate_patches"),
    ("checks.fuzz", "pathpatch.checks", "fuzz_vulnerability"),
    ("checks.cut", "pathpatch.checks", "cut_disconnects"),
    ("graphio.report", "pathpatch.graphio", "build_report"),
    ("graphio.report", "pathpatch.graphio", "report_to_json"),
    ("graphio.report", "pathpatch.graphio", "render_report_text"),
    ("cli", "pathpatch.cli", "run"),
)

# Per-layer metric -> the functions it needs; a metric whose function is
# missing is reported as missing.
NEEDS = {
    "minilang.load_s": ("load_program",),
    "minilang.interp_s": ("run_program",),
    "minilang.interp_runs": ("run_program",),
    "minilang.interp_us_per_run": ("run_program",),
    "minilang.interp_timeouts": ("run_program",),
    "ir.functions": ("load_program",),
    "ir.blocks": ("load_program",),
    "ir.statements": ("load_program",),
    "analysis.call_graph_s": ("build_call_graph",),
    "analysis.call_graph_calls": ("build_call_graph",),
    "analysis.cdg_s": ("compute_postdominators", "compute_control_dependencies"),
    "analysis.cdg_calls": ("compute_control_dependencies",),
    "paths.ppg_s": ("build_program_path_graph",),
    "paths.ppg_calls": ("build_program_path_graph",),
    "paths.intraprocedural_calls": ("intraprocedural_paths",),
    "paths.count_s": ("count_paths",),
    "paths.enumerate_s": ("enumerate_paths",),
    "paths.chains": ("build_program_path_graph",),
    "paths.frames": ("build_program_path_graph",),
    "paths.frames_distinct": ("build_program_path_graph",),
    "paths.frame_reuse": ("build_program_path_graph",),
    "paths.path_count": ("count_paths",),
    "locate.s": ("candidate_locations",),
    "locate.candidates": ("candidate_locations",),
    "synth.s": ("synthesize_patches",),
    "synth.patches": ("synthesize_patches",),
    "synth.apply_s": ("apply_patch",),
    "synth.apply_calls": ("apply_patch",),
    "harness.evaluate_s": ("evaluate_patches",),
    "harness.runs": ("evaluate_patches", "run_program"),
    "harness.entering_share": ("load_program", "load_suite", "synthesize_patches", "run_program"),
    "checks.fuzz_s": ("fuzz_vulnerability",),
    "checks.fuzz_runs": ("fuzz_vulnerability", "run_program"),
    "checks.cut_s": ("cut_disconnects",),
    "graphio.report_s": ("build_report", "report_to_json", "render_report_text"),
    "cli.self_s": ("run",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, function, start, end, parent]
        self.stack: list[int] = []
        self.results: dict[str, object] = {}  # last result per function
        self.timeouts = 0
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        spans, stack, results = self.spans, self.stack, self.results
        name = fn.__name__
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if name == "run_program":
                if getattr(result, "status", None) == "timeout":
                    self.timeouts += 1
            else:
                results[name] = result
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pathpatch" or n.startswith("pathpatch."))]
        for layer, module_name, name in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def _self_times(spans) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _observed(measure, result) -> dict[str, float]:
    """Counts read from a returned object; none when its shape has changed."""
    if result is None:
        return {}
    try:
        return measure(result)
    except (AttributeError, TypeError):
        return {}


def _ir_size(program) -> dict[str, float]:
    functions = program.functions.values()
    return {
        "ir.functions": len(program.functions),
        "ir.blocks": sum(len(f.blocks) for f in functions),
        "ir.statements": sum(  # a block's terminator counts as a statement
            len(b.statements) + 1 for f in functions for b in f.blocks.values()
        ),
    }


def _frames(ppg) -> dict[str, float]:
    frames = [(fp.frame.function, fp.target_statement)
              for chain in ppg.chains for fp in chain.frames]
    return {
        "paths.chains": len(ppg.chains),
        "paths.frames": len(frames),
        "paths.frames_distinct": len(set(frames)),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one invocation (timings in seconds)."""
    spans = tracer.spans
    own = _self_times(spans)

    def ancestors(index):
        parent = spans[index][4]
        while parent >= 0:
            yield spans[parent]
            parent = spans[parent][4]

    def total(function=None, layer=None, outermost=False, self_time=False):
        value = 0.0
        for i, s in enumerate(spans):
            if (function and s[1] != function) or (layer and s[0] != layer):
                continue
            if outermost and s[4] >= 0 and spans[s[4]][0] == s[0]:
                continue
            value += own[i] if self_time else s[3] - s[2]
        return value

    def count(function):
        return sum(1 for s in spans if s[1] == function)

    def runs_under(function):
        return sum(
            1 for i, s in enumerate(spans)
            if s[1] == "run_program" and any(a[1] == function for a in ancestors(i))
        )

    m: dict[str, float] = {}
    runs = count("run_program")
    m["minilang.load_s"] = total("load_program")
    m["minilang.interp_s"] = total("run_program")
    m["minilang.interp_runs"] = runs
    m["minilang.interp_timeouts"] = tracer.timeouts
    m.update(_observed(_ir_size, tracer.results.get("load_program")))
    m["analysis.call_graph_s"] = total("build_call_graph")
    m["analysis.call_graph_calls"] = count("build_call_graph")
    m["analysis.cdg_s"] = total(layer="analysis.cdg", outermost=True)
    m["analysis.cdg_calls"] = count("compute_control_dependencies")
    m["paths.ppg_s"] = total("build_program_path_graph", self_time=True)
    m["paths.ppg_calls"] = count("build_program_path_graph")
    m["paths.intraprocedural_calls"] = count("intraprocedural_paths")
    m["paths.count_s"] = total(layer="paths.count", outermost=True)
    m["paths.enumerate_s"] = total("enumerate_paths")
    m.update(_observed(_frames, tracer.results.get("build_program_path_graph")))
    if "count_paths" in tracer.results:
        m["paths.path_count"] = tracer.results["count_paths"]
    m["locate.s"] = total("candidate_locations")
    m.update(_observed(lambda r: {"locate.candidates": len(r)},
                       tracer.results.get("candidate_locations")))
    m["synth.s"] = total("synthesize_patches")
    m.update(_observed(lambda r: {"synth.patches": len(r)},
                       tracer.results.get("synthesize_patches")))
    m["synth.apply_s"] = total("apply_patch", outermost=True)
    m["synth.apply_calls"] = count("apply_patch")
    m["harness.evaluate_s"] = total("evaluate_patches", self_time=True)
    m["harness.runs"] = runs_under("evaluate_patches")
    m["checks.fuzz_s"] = total("fuzz_vulnerability")
    m["checks.fuzz_runs"] = runs_under("fuzz_vulnerability")
    m["checks.cut_s"] = total("cut_disconnects")
    m["graphio.report_s"] = total(layer="graphio.report", outermost=True)
    m["cli.self_s"] = total("run", self_time=True)
    for metric, needs in NEEDS.items():
        if any(n in tracer.missing for n in needs):
            m.pop(metric, None)
    return m


def entering_share(tracer: Tracer) -> tuple[int, int] | None:
    """(entering, attempted) (patch, case) pairs, from one recorded trace of
    the unpatched program per case: a case can only change under a patch
    whose block its unpatched run enters."""
    program = tracer.results.get("load_program")
    suite = tracer.results.get("load_suite")
    patches = tracer.results.get("synthesize_patches")
    if program is None or suite is None or patches is None:
        return None
    try:
        from pathpatch.minilang.interp import run_program

        entering = 0
        for case in suite.cases:
            trace = set(run_program(program, case.input, record_trace=True).trace)
            entering += sum(
                (p.location.function, p.location.block) in trace for p in patches
            )
        return entering, len(suite.cases) * len(patches)
    except (ImportError, AttributeError, TypeError):
        return None
