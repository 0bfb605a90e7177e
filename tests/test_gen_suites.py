"""`scripts/gen_suites.py` regenerates the corpus suites and specs exactly."""

import importlib.util
import shutil
import sys

from conftest import CORPUS, CORPUS_NAMES, ROOT


def test_generators_rewrite_every_suite_and_spec_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends `src`
    spec = importlib.util.spec_from_file_location("gen_suites", ROOT / "scripts" / "gen_suites.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    copy = tmp_path / "corpus"
    shutil.copytree(CORPUS, copy)
    outputs = [f"{name}{ext}" for name in CORPUS_NAMES for ext in (".suite", ".vuln.json")]
    for name in outputs:
        (copy / name).unlink()
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    monkeypatch.setattr(gen, "CORPUS", copy)
    for name in CORPUS_NAMES:
        getattr(gen, f"gen_{name}")()
    for name in outputs:
        assert (copy / name).read_bytes() == (CORPUS / name).read_bytes(), name
