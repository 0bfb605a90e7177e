"""The benchmark's traced contract.

`perfbench/tracer.py` wraps pathpatch's functions by name from outside and,
after `cli.run` returns, reads counts from what they returned: the program,
the path graph's chains and frames, the path count, the candidates and the
patches. A rename, a move or a changed return shape in `src/` shows up here
as a missing layer, instead of as a traced benchmark run that ends without
a result. Nothing under `perfbench/` is changed.
"""

import importlib.util
import json

from pathpatch import cli

from conftest import CORPUS, ROOT
from helpers import (
    bf_call_chains,
    bf_interprocedural_paths,
    call_fanout_program,
    call_fanout_source,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = load_tracer()

# per-layer metrics that perfbench/run.py derives from a round's numbers or
# from the run's files, not from `layer_metrics`
DERIVED = {
    "minilang.interp_us_per_run",
    "paths.frame_reuse",
    "harness.entering_share",
    "cli.path_graph_bytes",
    "trace.overhead",
}


def traced_run(argv):
    """(exit code, tracer) of one `cli.run` under the benchmark's tracer."""
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.restore()
    return code, tracer


def test_every_declared_layer_is_measured(tmp_path):
    code, tracer = traced_run(
        [
            "all",
            "--program", str(CORPUS / "twopath.mini"),
            "--vuln", str(CORPUS / "twopath.vuln.json"),
            "--suite", str(CORPUS / "twopath.suite"),
            "--fuzz", "20",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert tracer.missing == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {metric["name"] for metric in declared} - DERIVED
    assert expected - set(tracer_module.layer_metrics(tracer)) == set()


def test_chain_counts_match_the_brute_force_walk(tmp_path):
    n = 3
    source = tmp_path / "fanout.mini"
    source.write_text(call_fanout_source(n))
    spec = tmp_path / "fanout.vuln.json"
    spec.write_text(json.dumps({"function": f"f{n}", "line": 4}))
    code, tracer = traced_run(
        ["analyze", "--program", str(source), "--vuln", str(spec), "--out", str(tmp_path)]
    )
    assert code == 0
    metrics = tracer_module.layer_metrics(tracer)
    program, vuln = call_fanout_program(n)
    chains = bf_call_chains(program, vuln.function)
    assert metrics["paths.chains"] == len(chains) == 2**n
    assert metrics["paths.frames"] == sum(len(chain) for chain in chains)
    assert metrics["paths.frames_distinct"] == len({f for chain in chains for f in chain})
    assert metrics["paths.path_count"] == len(bf_interprocedural_paths(program, vuln.statement))
