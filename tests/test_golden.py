"""Byte-identical outputs on the corpus.

`tests/golden/` holds the documents `pathpatch` writes for the corpus:
`all --fuzz 200` on each of the five programs, and `analyze` plus `locate`
on the abstract graph. Any change to those bytes is a schema or behaviour
change: re-record the files deliberately and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from pathpatch.cli import run

from conftest import CORPUS, CORPUS_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_same_bytes(out: Path, golden: Path, names) -> None:
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_all_matches_golden(name, tmp_path, capsys):
    code = run(
        [
            "all",
            "--program", str(CORPUS / f"{name}.mini"),
            "--vuln", str(CORPUS / f"{name}.vuln.json"),
            "--suite", str(CORPUS / f"{name}.suite"),
            "--fuzz", "200",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert_same_bytes(
        tmp_path,
        GOLDEN / name,
        ("path_graph.json", "candidates.json", "report.json", "report.txt"),
    )


def test_abstract_graph_matches_golden(tmp_path, capsys):
    for command in ("analyze", "locate"):
        code = run(
            [command, "--program", str(CORPUS / "abstract.graph.json"), "--out", str(tmp_path)]
        )
        assert code == 0
    assert_same_bytes(tmp_path, GOLDEN / "abstract", ("path_graph.json", "candidates.json"))
