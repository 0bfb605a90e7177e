"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_files(tmp_path, workload):
    workloads.make(workload, tmp_path / "a", 7, ROOT)
    workloads.make(workload, tmp_path / "b", 7, ROOT)
    workloads.make(workload, tmp_path / "c", 8, ROOT)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _twopath():
    return next(i for i in workloads.make("corpus", None, 0, ROOT) if i.name == "twopath")


def _runner(tmp_path, expected=EXPECTED):
    return run.Runner(ROOT, tmp_path, expected, "corpus")


def test_correct_invocation_passes(tmp_path):
    runner = _runner(tmp_path)
    result = runner.invoke(_twopath(), traced=False, entering=False)
    assert result is not None, runner.failures
    assert (runner.attempted, runner.failures) == (1, [])


def test_planted_swapped_rank_is_a_failed_invocation(tmp_path):
    planted = json.loads(json.dumps(EXPECTED))
    rows = planted["corpus/twopath"]["rows"]
    assert len(rows) >= 2
    rows[0][4], rows[1][4] = rows[1][4], rows[0][4]
    runner = _runner(tmp_path, planted)
    assert runner.invoke(_twopath(), traced=False, entering=False) is None
    assert runner.attempted == 1 and len(runner.failures) == 1
    assert "rows differ" in runner.failures[0]


def test_tampered_report_fails_the_check(tmp_path):
    runner = _runner(tmp_path)
    assert runner.invoke(_twopath(), traced=False, entering=False) is not None
    report_path = tmp_path / "out" / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["patches"][0]["rank"], report["patches"][1]["rank"] = 2, 1
    report_path.write_text(json.dumps(report), encoding="utf-8")
    problems = check.check(tmp_path / "out", "corpus/twopath",
                           EXPECTED["corpus/twopath"], {})
    assert problems and "rows differ" in problems[0]
    report_path.write_text("{", encoding="utf-8")
    assert check.check(tmp_path / "out", "corpus/twopath",
                       EXPECTED["corpus/twopath"], {})[0].startswith(
        "corpus/twopath: unreadable output")


def test_acceptance_gate_is_checked(tmp_path):
    bmp = next(i for i in workloads.make("corpus", None, 0, ROOT) if i.name == "bmp_reader")
    assert _runner(tmp_path).invoke(bmp, traced=False, entering=False) is not None
    report_path = tmp_path / "out" / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["patches"][0]["passed"] = 84
    report_path.write_text(json.dumps(report), encoding="utf-8")
    recorded = check.summarize(check.read_outputs(tmp_path / "out"))
    problems = check.check(tmp_path / "out", "corpus/bmp_reader", recorded, {})
    assert len(problems) == 1 and "acceptance gate" in problems[0]


def test_untraced_run_loads_no_wrapper(tmp_path):
    runner = _runner(tmp_path)
    plain = runner.invoke(_twopath(), traced=False, entering=False)
    assert plain["tracer_loaded"] is False and plain["wrapped"] == []
    assert "layers" not in plain
    traced = runner.invoke(_twopath(), traced=True, entering=True)
    assert traced["tracer_loaded"] is True and "pathpatch.cli.run" in traced["wrapped"]
    assert traced["missing"] == []
    assert traced["layers"]["paths.ppg_calls"] == 3
    hits, pairs = traced["entering"]
    assert 0 < hits < pairs


def test_missing_function_is_reported_and_wrappers_are_removed(monkeypatch):
    import pathpatch.cli as cli
    import pathpatch.harness as harness

    originals = (cli.run, harness.run_program, cli.evaluate_patches)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("gone", "pathpatch.paths", "no_such_function"),
        ("gone", "pathpatch.no_such_module", "f"),
    ))
    t = tracer.Tracer()
    t.install()
    try:
        assert harness.run_program is not originals[1]
        assert cli.evaluate_patches.__wrapped__ is originals[2]
    finally:
        t.restore()
    assert (cli.run, harness.run_program, cli.evaluate_patches) == originals
    assert t.missing == ["no_such_function", "f"]


def test_missing_layer_drops_only_its_metrics():
    t = tracer.Tracer()
    t.missing = ["count_paths"]
    metrics = tracer.layer_metrics(t)
    assert "paths.count_s" not in metrics and "paths.path_count" not in metrics
    assert "paths.ppg_s" in metrics


def test_tail_keeps_ten_samples_above():
    samples = [float(i) for i in range(40)]
    value, percentile, above = run.tail(samples)
    assert (value, above) == (29.0, 10)
    assert percentile == 75.0
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v for k, v in run.LAYER_UNITS.items() if k not in run.UNLISTED_LAYERS
    }
    assert set(tracer.NEEDS) | {"cli.path_graph_bytes", "trace.overhead"} == set(run.LAYER_UNITS)
    assert [w["name"] for w in bench["workloads"]] == ["corpus", *workloads.GENERATORS]
    assert all(w["why"] == workloads.WHY[w["name"]] for w in bench["workloads"])
