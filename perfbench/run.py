#!/usr/bin/env python3
"""The pathpatch benchmark: fresh-process `pathpatch all` on one workload.

Run from the root of a pathpatch checkout:

    python3 perfbench/run.py --workload suite-heavy --seed 1 --seconds 28 --trace 0

Load is a closed loop with one client: one child process at a time, each a
fresh interpreter that imports `pathpatch.cli` and runs `pathpatch all`
with the CLI defaults plus `--fuzz 200`, as a user waiting for each report
would. Every invocation's outputs are checked (check.py); a non-zero exit,
a traceback, the time limit or a failed check counts as a failed
invocation, never as a crash of the benchmark.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1, rounds alternate between untraced and traced children and the
last line reports the per-layer metrics from the traced ones (tracer.py)
plus the tracing overhead. Everything a run writes stays under
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
CLI_FLAGS = ("--fuzz", "200")
INVOCATION_LIMIT_S = 30.0
# No invocation starts later than this past --seconds, even mid-round, so a
# run whose invocations hang still ends well inside three minutes.
OVERRUN_S = 60.0

END_TO_END_UNITS = {
    "all_s.p50": "s",
    "all_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# per-layer metric -> unit; timings are seconds per round of the workload
LAYER_UNITS = {
    "minilang.load_s": "s",
    "minilang.interp_s": "s",
    "minilang.interp_runs": "count",
    "minilang.interp_us_per_run": "us",
    "minilang.interp_timeouts": "count",
    "ir.functions": "count",
    "ir.blocks": "count",
    "ir.statements": "count",
    "analysis.call_graph_s": "s",
    "analysis.call_graph_calls": "count",
    "analysis.cdg_s": "s",
    "analysis.cdg_calls": "count",
    "paths.ppg_s": "s",
    "paths.ppg_calls": "count",
    "paths.intraprocedural_calls": "count",
    "paths.count_s": "s",
    "paths.enumerate_s": "s",
    "paths.chains": "count",
    "paths.frames": "count",
    "paths.frames_distinct": "count",
    "paths.frame_reuse": "ratio",
    "paths.path_count": "count",
    "locate.s": "s",
    "locate.candidates": "count",
    "synth.s": "s",
    "synth.patches": "count",
    "synth.apply_s": "s",
    "synth.apply_calls": "count",
    "harness.evaluate_s": "s",
    "harness.runs": "count",
    "harness.entering_share": "ratio",
    "checks.fuzz_s": "s",
    "checks.fuzz_runs": "count",
    "checks.cut_s": "s",
    "graphio.report_s": "s",
    "cli.self_s": "s",
    "cli.path_graph_bytes": "bytes",
    "trace.overhead": "ratio",
}

# Measured and printed, but not in BENCHMARK.json: on suite-heavy the path
# count exceeds the enumeration cap, so the CLI never enumerates and this
# timing reads exactly 0 on every run.
UNLISTED_LAYERS = ("paths.enumerate_s",)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it): the highest percentile with
    at least ten samples above it; with fewer than 11 samples, the minimum."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


class Runner:
    """Starts children one at a time and keeps what they report."""

    def __init__(self, root: Path, work: Path, expected: dict, workload: str):
        self.root = root
        self.work = work
        self.expected = expected
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # children import cached bytecode, as an installed CLI would
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []

    def invoke(self, inv: workloads.Invocation, traced: bool, entering: bool) -> dict | None:
        """One checked invocation; None when it failed."""
        self.attempted += 1
        out_dir = self.work / "out"
        result_path = self.work / "result.json"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        flags = (["--trace"] if traced else []) + (["--entering"] if entering else [])
        cmd = [
            sys.executable, str(HERE / "child.py"), str(result_path), *flags, "--",
            "all", "--program", inv.program, "--vuln", inv.vuln,
            "--suite", inv.suite, "--out", str(out_dir), *CLI_FLAGS,
        ]
        key = f"{self.workload}/{inv.name}"
        problems = []
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=INVOCATION_LIMIT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"{key}: time limit of {INVOCATION_LIMIT_S:.0f} s")
        else:
            if proc.returncode != 0 or "Traceback" in proc.stderr:
                tail_lines = proc.stderr.strip().splitlines()[-1:] or [""]
                problems.append(f"{key}: exit {proc.returncode} {tail_lines[0]}")
        result = None
        if not problems:
            try:
                result = json.loads(result_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"{key}: no result from the child ({exc})")
        if result is not None:
            if not Path(result["pathpatch_file"]).is_relative_to(self.root / "src"):
                problems.append(f"{key}: imported pathpatch from {result['pathpatch_file']}")
            if not traced and (result["tracer_loaded"] or result["wrapped"]):
                problems.append(f"{key}: untraced child ran with wrappers")
            if result["exit"] != 0:
                problems.append(f"{key}: pathpatch exited {result['exit']}")
            problems += check.check(out_dir, key, self.expected.get(key), inv.facts)
            if not problems:
                result["path_graph_bytes"] = (out_dir / "path_graph.json").stat().st_size
                spans = result.pop("spans", None)
                if spans is not None:
                    self.spans.append({"invocation": self.attempted, "name": key,
                                       "spans": spans})
        if problems:
            self.failed += 1
            self.failures.extend(problems)
            return None
        return result


def layer_round(results: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced round: sums over its invocations."""
    m: dict[str, float] = {}
    for result in results:
        for name, value in result["layers"].items():
            m[name] = m.get(name, 0) + value
        m["cli.path_graph_bytes"] = m.get("cli.path_graph_bytes", 0) + result["path_graph_bytes"]
    if m.get("minilang.interp_runs"):
        m["minilang.interp_us_per_run"] = 1e6 * m["minilang.interp_s"] / m["minilang.interp_runs"]
    if m.get("paths.frames"):
        m["paths.frame_reuse"] = m["paths.frames_distinct"] / m["paths.frames"]
    return m


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", *workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(plain: list[dict], attempted: int, failed: int) -> dict[str, float]:
    all_s = [r["all_s"] for r in plain]
    value, pct, above = tail(all_s)
    print(f"all_s: {len(all_s)} samples; tail is p{pct:.1f}, {above} samples above it")
    print(f"fail_share: {failed}/{attempted} = {failed / attempted:.4f}")
    return {
        "all_s.p50": statistics.median(all_s),
        "all_s.tail": value,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(plain: list[dict], traced_rounds: list[list[dict]],
              entering: dict[str, tuple[int, int]]) -> dict[str, float]:
    layers = [layer_round(batch) for batch in traced_rounds]
    values = {
        name: statistics.median(layer.get(name, 0) for layer in layers)
        for name in {k for layer in layers for k in layer}
    }
    pairs = sum(e[1] for e in entering.values())
    if pairs:
        values["harness.entering_share"] = sum(e[0] for e in entering.values()) / pairs
    traced_all_s = [r["all_s"] for batch in traced_rounds for r in batch]
    if plain and traced_all_s:
        values["trace.overhead"] = (statistics.median(traced_all_s)
                                    / statistics.median(r["all_s"] for r in plain))
    missing = sorted(set(LAYER_UNITS) - set(values))
    if missing:
        print(f"missing layers: {', '.join(missing)}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pathpatch" / "cli.py").is_file() or not (root / "corpus").is_dir():
        print("error: run from the root of a pathpatch checkout "
              "(src/pathpatch and corpus/ not found)", file=sys.stderr)
        return 2
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    invocations = workloads.make(args.workload, work / "inputs", args.seed, root)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    runner = Runner(root, work, expected, args.workload)

    # write pathpatch's bytecode cache before the first timed import
    subprocess.run([sys.executable, "-c", "import pathpatch.cli"], cwd=root,
                   env=runner.env, check=False, timeout=INVOCATION_LIMIT_S)

    order = random.Random(f"order/{args.seed}")
    plain: list[dict] = []
    traced_rounds: list[list[dict]] = []
    entering: dict[str, tuple[int, int]] = {}
    start = time.perf_counter()
    last_start = start + args.seconds + OVERRUN_S
    rounds = 0
    while time.perf_counter() < last_start:
        traced = bool(args.trace) and rounds % 2 == 1
        batch = list(invocations)
        order.shuffle(batch)
        done = []
        for inv in batch:
            if time.perf_counter() >= last_start:
                break
            result = runner.invoke(inv, traced, traced and inv.name not in entering)
            if result is not None:
                done.append(result)
                if result.get("entering"):
                    entering[inv.name] = tuple(result["entering"])
        rounds += 1
        if not traced:
            plain += done
        elif len(done) == len(batch):
            traced_rounds.append(done)
        if time.perf_counter() - start >= args.seconds and (not args.trace or rounds >= 2):
            break

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    for problem in runner.failures[:20]:
        print(f"FAILED {problem}")
    attempted, failed = runner.attempted, runner.failed
    values: dict[str, float] = {}
    if not args.trace:
        units = END_TO_END_UNITS
        if plain:
            values = end_to_end(plain, attempted, failed)
    else:
        units = LAYER_UNITS
        values = per_layer(plain, traced_rounds, entering)
        (work / "spans.json").write_text(json.dumps(runner.spans), encoding="utf-8")
    for name, value in sorted(values.items()):
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(values.items())
        if name not in UNLISTED_LAYERS
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
